import json
import pathlib
import re
import sys
import time
from fractions import Fraction

import pytest

from isodec import (
    ActionFile,
    MatQ,
    ValidationError,
    inverse,
    isotypical_decomposition,
    load_action_file,
    serialize_action_file,
)
from isodec.fixtures import FixtureSpec, make_fixture
from oracles import fraction_rows
from test_action import rationally_conjugated


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
        ('{"group":[],"generators":[]}', "'group' must be a non-empty list"),
        ('{"group":[2.5],"generators":[]}', "'group' must be a non-empty list"),
        ('{"group":[0],"generators":[[[1]]]}', "moduli must be >= 1"),
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
    assert len(paths) == 4
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
