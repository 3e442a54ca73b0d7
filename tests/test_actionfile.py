import json
import pathlib
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from isodec import (
    ActionFile,
    MatQ,
    ValidationError,
    isotypical_decomposition,
    load_action_file,
    serialize_action_file,
)
from isodec.actionfile import _json_text
from isodec.fixtures import FixtureSpec, make_fixture
from oracles import fraction_rows, inverse
from test_action import rationally_conjugated
from test_cli import run_cli


def test_minimal_valid_file():
    action = load_action_file('{"group":[2],"generators":[[[1,0],[0,-1]]]}').action
    assert action.group.moduli == (2,)
    assert action.dim == 2
    assert isotypical_decomposition(action).faithful


def test_relation_failure_is_reported_with_position():
    with pytest.raises(ValidationError, match=r"generator 1: M\^2 != I"):
        load_action_file('{"group":[2],"generators":[[[0,-1],[1,0]]]}')


def test_companion_power_file_is_valid():
    # generators acting as powers of the order-6 companion matrix
    from isodec import companion_matrix, cyclotomic

    c = companion_matrix(cyclotomic(6))
    text = json.dumps(
        {
            "group": [8, 9],
            "generators": [
                [[int(v) for v in row] for row in fraction_rows(c**3)],
                [[int(v) for v in row] for row in fraction_rows(c**2)],
            ],
        }
    )
    report = isotypical_decomposition(load_action_file(text).action)
    assert not report.faithful
    assert report.action_kernel.hnf_basis.entries == ((2, 0), (0, 3))


def test_fraction_entries_accepted():
    # a conjugate of an integer action, with genuinely fractional entries
    c3 = MatQ([[0, -1], [1, -1]])
    d = MatQ([[2, 0], [0, 1]])
    m = d @ c3 @ inverse(d)
    rows = [
        [str(v) if v.denominator != 1 else int(v) for v in row]
        for row in fraction_rows(m)
    ]
    action = load_action_file(json.dumps({"group": [3], "generators": [rows]})).action
    assert action.gen_matrices[0] == m


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "invalid JSON"),
        ("[]", "top level must be a JSON object"),
        ('{"generators":[]}', "missing required key 'group'"),
        ('{"group":[2]}', "missing required key 'generators'"),
        ('{"group":6,"generators":[]}', "'group' must be a non-empty list"),
        ('{"group":[],"generators":[]}', r"moduli must be integers >= 1, got \(\)"),
        ('{"group":[2.5],"generators":[]}', r"moduli must be integers >= 1, got \(2\.5,\)"),
        ('{"group":[true],"generators":[]}', r"moduli must be integers >= 1, got \(True,\)"),
        ('{"group":["2"],"generators":[]}', r"moduli must be integers >= 1, got \('2',\)"),
        ('{"group":[0],"generators":[[[1]]]}', r"moduli must be integers >= 1, got \("),
        ('{"group":[2],"generators":[]}', "expected 1 generator matrices, got 0"),
        ('{"group":[2],"generators":[[[1,0]]]}', "generator 1: matrix is not square"),
        ('{"group":[2],"generators":[[[1,0],[1]]]}', "rows must be non-empty and equal"),
        ('{"group":[2],"generators":[[[true]]]}', "integer or 'p/q'"),
        ('{"group":[2],"generators":[[[1.5]]]}', "integer or 'p/q'"),
        ('{"group":[2],"generators":[[["x"]]]}', "cannot parse 'x'"),
        ('{"group":[2],"generators":[[[1]]],"name":7}', "'name' must be a string"),
    ],
)
def test_malformed_files_name_the_problem(text, message):
    with pytest.raises(ValidationError, match=message):
        load_action_file(text)


@pytest.mark.parametrize(
    "gt, message",
    [
        (42, "'ground_truth' must be a list"),
        ([7], "must be an object"),
        ([{"kernel_hnf": [[1]]}], "needs 'kernel_hnf' and 'multiplicity'"),
        (
            [{"kernel_hnf": [[1]], "multiplicity": -1}],
            "non-negative integer",
        ),
        (
            [{"kernel_hnf": [[0.5]], "multiplicity": 1}],
            "integer matrix",
        ),
        ([{"kernel_hnf": [[]], "multiplicity": 1}], "integer matrix"),
        ([{"kernel_hnf": [[1], [1, 2]], "multiplicity": 1}], "integer matrix"),
        ([{"kernel_hnf": [[True]], "multiplicity": 1}], "integer matrix"),
        ([{"kernel_hnf": {"a": 1}, "multiplicity": 1}], "integer matrix"),
        ([{"kernel_hnf": 3, "multiplicity": 1}], "integer matrix"),
        # a second entry for one kernel, contradicting the first or not
        (
            [{"kernel_hnf": [[1]], "multiplicity": m} for m in (1, 1, 0)],
            r"^ground_truth entry 2: kernel \[\[1\]\] repeats ground_truth entry 1$",
        ),
        (
            [
                {"kernel_hnf": [[1]], "multiplicity": 1},
                {"kernel_hnf": [[2]], "multiplicity": 0},
                {"kernel_hnf": [[1]], "multiplicity": 0},
            ],
            r"^ground_truth entry 3: kernel \[\[1\]\] repeats ground_truth entry 1$",
        ),
    ],
)
def test_malformed_ground_truth(gt, message):
    obj = {"group": [2], "generators": [[[1]]], "ground_truth": gt}
    with pytest.raises(ValidationError, match=message):
        load_action_file(json.dumps(obj))


def test_unknown_keys_are_ignored():
    af = load_action_file(
        '{"group":[2],"generators":[[[1]]],"comment":"hi","extra":[1,2]}'
    )
    assert af.action.dim == 1


def test_name_is_preserved():
    af = load_action_file('{"group":[2],"generators":[[[1]]],"name":"tiny"}')
    assert af.action.name == "tiny"


def test_serialization_round_trips_byte_identically():
    for spec in [
        FixtureSpec("regular", n=5),
        FixtureSpec("paper-example", p=2, q=3),
        FixtureSpec("random-conjugated", moduli=(6,), seed=11),
    ]:
        af = make_fixture(spec)
        text = serialize_action_file(af)
        reloaded = load_action_file(text)
        assert reloaded.action.gen_matrices == af.action.gen_matrices
        assert reloaded.action.name == af.action.name
        assert reloaded.ground_truth == af.ground_truth
        assert serialize_action_file(reloaded) == text


def test_serialization_is_canonical():
    af = load_action_file('{"group":[2],"generators":[[[1]]],"name":"a"}')
    text = serialize_action_file(af)
    assert text == serialize_action_file(load_action_file(text))
    assert text.endswith("\n")
    assert json.loads(text) == {
        "group": [2],
        "generators": [[[1]]],
        "name": "a",
    }


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(
        lambda n: st.sampled_from([n, -n])
    ),
    # quotes, backslashes, control characters and non-ASCII text
    st.text(alphabet=st.sampled_from('a"\\\n\t\x00\x1f\x7fé€😀 ')),
    st.text(),
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.lists(st.integers(), max_size=4),
    ),
    max_leaves=30,
)


@given(json_documents)
@example({"": [], "a": {}, "b": [[], {}, [[]], {"c": {}}], "d": [True, 0, None]})
@example([[1, 2], [True, False], [-(2**70), 2**70], [0, None]])
def test_json_text_equals_the_indented_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_fractions_survive_round_trip():
    c3 = MatQ([[0, -1], [1, -1]])
    d = MatQ([[3, 0], [0, 1]])
    m = d @ c3 @ inverse(d)
    af = load_action_file(
        json.dumps(
            {
                "group": [3],
                "generators": [
                    [
                        [str(v) if v.denominator != 1 else int(v) for v in row]
                        for row in fraction_rows(m)
                    ]
                ],
            }
        )
    )
    text = serialize_action_file(af)
    assert load_action_file(text).action.gen_matrices[0] == m
    assert '"-1/3"' in text or '"1/3"' in text


# ------------------------------------------------------------- entry grammar

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def golden_action_files():
    """The golden outputs that are action files themselves."""
    out = []
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        obj = json.loads(path.read_text())
        if isinstance(obj, dict) and "generators" in obj:
            out.append(path)
    return out


@pytest.mark.parametrize("entry", ["1e100000000", "1.5", " 3/4", "3/-4", "1/0"])
def test_entry_strings_outside_the_grammar_are_refused_at_once(entry):
    # Fraction() also reads exponent forms, and expanding one takes time that
    # grows faster than its exponent; the grammar refuses them unread
    text = json.dumps({"group": [2], "generators": [[[1, 0], [0, entry]]]})
    start = time.perf_counter()
    with pytest.raises(ValidationError) as info:
        load_action_file(text)
    assert time.perf_counter() - start < 1
    assert str(info.value) == f"generator 1: cannot parse {entry!r} as a rational number"


def test_golden_action_files_round_trip_byte_identically():
    paths = golden_action_files()
    assert len(paths) == 5
    for path in paths:
        text = path.read_text()
        once = serialize_action_file(load_action_file(text))
        assert once == text, path.name
        assert serialize_action_file(load_action_file(once)) == once, path.name


def test_non_integral_action_round_trips_byte_identically():
    af = make_fixture(FixtureSpec("semisimple", moduli=(6,), seed=0))
    action = rationally_conjugated(af.action, 5)
    once = serialize_action_file(ActionFile(action))
    assert re.search(r'"-?[0-9]+/[0-9]+"', once)
    again = serialize_action_file(load_action_file(once))
    assert again == once
    assert load_action_file(again).action.gen_matrices == action.gen_matrices


def test_integer_action_file_loads_and_writes_without_a_fraction(monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built on the integer path")

    patched = [
        name
        for name, module in list(sys.modules.items())
        if name.startswith("isodec.") and hasattr(module, "Fraction")
    ]
    assert {"isodec.ratlinalg"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "Fraction", NoFraction)
    # the patch bites wherever a Fraction would be built
    with pytest.raises(AssertionError, match="integer path"):
        MatQ([["1/2"]])
    for path in golden_action_files():  # every one is all-integer
        text = path.read_text()
        assert serialize_action_file(load_action_file(text)) == text, path.name


# ------------------------------------------------------- malformed files

# an entry string the grammar reads: [+-]digits, or that over nonzero digits
VALID_ENTRY = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
# at most 20 digits, so every example runs in milliseconds
SMALL_INTS = st.integers(-(10**20) + 1, 10**20 - 1)
# JSON values no field of an action file takes (None stands for a missing
# 'name' or 'ground_truth', so those draw from OTHER_TYPES)
OTHER_TYPES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.dictionaries(st.text(max_size=3), SMALL_INTS, max_size=2),
)
WRONG_TYPES = st.one_of(st.none(), OTHER_TYPES)
BAD_ENTRIES = st.one_of(
    WRONG_TYPES,
    st.lists(SMALL_INTS, max_size=2),
    st.text(alphabet="0123456789+-/ .eE_x", max_size=8).filter(
        lambda t: not VALID_ENTRY.fullmatch(t)
    ),
)


@st.composite
def malformed_action_files(draw):
    """The text of an action file with one defect, drawn from a valid file:
    identity generators of a common size for one to three moduli."""
    moduli = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    dim = draw(st.integers(1, 4))
    gens = [
        [[int(i == j) for j in range(dim)] for i in range(dim)] for _ in moduli
    ]
    obj = {"group": moduli, "generators": gens}
    j = draw(st.integers(0, len(gens) - 1))
    r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    row = gens[j][r]
    defect = draw(
        st.sampled_from(
            [
                "truncated", "top level", "missing key", "group", "modulus",
                "generators", "count", "matrix", "empty", "row", "empty row",
                "ragged", "non-square", "size", "entry", "relation", "name",
                "ground truth",
            ]
        )
    )
    if defect == "truncated":
        text = json.dumps(obj)
        return text[: draw(st.integers(0, len(text) - 1))]
    if defect == "top level":
        obj = draw(st.one_of(WRONG_TYPES, SMALL_INTS, st.text(max_size=3), st.lists(SMALL_INTS)))
    elif defect == "missing key":
        del obj[draw(st.sampled_from(["group", "generators"]))]
    elif defect == "group":
        obj["group"] = draw(st.one_of(WRONG_TYPES, SMALL_INTS, st.just([])))
    elif defect == "modulus":
        moduli[j] = draw(st.one_of(WRONG_TYPES, st.text(max_size=3), st.integers(-9, 0)))
    elif defect == "generators":
        obj["generators"] = draw(st.one_of(WRONG_TYPES, SMALL_INTS, st.text(max_size=3)))
    elif defect == "count":
        if draw(st.booleans()):
            gens.append(gens[0])
        else:
            gens.pop()
    elif defect == "matrix":
        gens[j] = draw(st.one_of(WRONG_TYPES, SMALL_INTS, st.text(max_size=3)))
    elif defect == "empty":
        gens[j] = []
    elif defect == "row":
        gens[j][r] = draw(st.one_of(WRONG_TYPES, SMALL_INTS))
    elif defect == "empty row":
        gens[j][r] = []
    elif defect == "ragged":
        if dim == 1 or draw(st.booleans()):
            row.append(1)
        else:
            row.pop()
    elif defect == "non-square":
        gens[j] = [list(x) + [0] for x in gens[j]]
    elif defect == "size":
        bigger = [[int(i == k) for k in range(dim + 1)] for i in range(dim + 1)]
        if len(gens) > 1:
            gens[j] = bigger
        else:
            moduli.append(2)
            gens.append(bigger)
    elif defect == "entry":
        row[c] = draw(BAD_ENTRIES)
    elif defect == "relation":
        # a nonzero off-diagonal entry, or a diagonal one other than +-1,
        # breaks M^n = I
        v = draw(SMALL_INTS.filter(lambda v: v not in ((1, -1) if r == c else (0,))))
        row[c] = draw(st.sampled_from([v, str(v)]))
    elif defect == "name":
        obj["name"] = draw(st.one_of(OTHER_TYPES, SMALL_INTS, st.lists(st.text(max_size=2))))
    else:
        kernel = [[1] * len(moduli)]
        item = draw(
            st.one_of(
                WRONG_TYPES,
                st.just({"kernel_hnf": kernel}),
                st.just({"multiplicity": 1}),
                st.builds(
                    lambda k: {"kernel_hnf": k, "multiplicity": 1},
                    st.one_of(
                        WRONG_TYPES,
                        st.just([]),
                        st.just([[]]),
                        st.just(kernel + [[]]),
                        st.just(kernel + [[1] * (len(moduli) + 1)]),
                        st.lists(
                            st.lists(BAD_ENTRIES, min_size=1, max_size=2),
                            min_size=1,
                            max_size=2,
                        ),
                    ),
                ),
                st.builds(
                    lambda m: {"kernel_hnf": kernel, "multiplicity": m},
                    st.one_of(WRONG_TYPES, st.integers(-9, -1), st.text(max_size=2)),
                ),
            )
        )
        obj["ground_truth"] = draw(st.one_of(OTHER_TYPES, SMALL_INTS, st.just([item])))
    return json.dumps(obj)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=malformed_action_files())
@example(  # a kernel row with no entries used to load
    text='{"group":[1],"generators":[[[1]]],"ground_truth":[{"kernel_hnf":[[]],"multiplicity":1}]}'
)
def test_malformed_action_files_exit_2(text, tmp_path):
    # a defect in the file is a ValidationError, and every command that reads
    # a file turns it into exit 2 with a message: never a traceback, and
    # never exit 4
    with pytest.raises(ValidationError):
        load_action_file(text)
    path = tmp_path / "action.json"
    path.write_text(text)
    file = str(path)
    for argv in (
        ["decompose", file],
        ["roan", file],
        ["verify", file],
        ["roan", file, "--json"],
        ["verify", file, "--json"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv
