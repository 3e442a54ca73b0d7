import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodec import (
    FinAbGroup,
    InternalCheckError,
    MatZ,
    Subgroup,
    all_subgroups,
    load_action_file,
)
import isodec.roan as roan_module
from isodec.actionfile import _json_text
from isodec.cli import _group_line, _render_table, build_parser, main
from isodec.fixtures import FIXTURE_KINDS
from oracles import kernels_by_filtering

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# (golden file, input files to generate first, command)
# "{dir}" in arguments is replaced by the scratch directory.
CASES = [
    ("characters-6.txt", [], ["characters", "--group", "6"]),
    ("characters-8-9.json", [], ["characters", "--group", "8,9", "--json"]),
    ("subgroups-2-2.txt", [], ["subgroups", "--group", "2,2"]),
    ("subgroups-8-9-kernels.txt", [], ["subgroups", "--group", "8,9", "--kernels"]),
    ("subgroups-2-4.json", [], ["subgroups", "--group", "2,4", "--json"]),
    ("fixture-regular-6.json", [], ["fixture", "regular", "6"]),
    ("fixture-paper-example-2-3.json", [], ["fixture", "paper-example", "2", "3"]),
    ("fixture-paper-example-2-2.json", [], ["fixture", "paper-example", "2", "2"]),
    (
        "fixture-random-conjugated-6.json",
        [],
        ["fixture", "random-conjugated", "--group", "6", "--seed", "3"],
    ),
    (
        "fixture-random-conjugated-2-6.json",
        [],
        ["fixture", "random-conjugated", "--group", "2,6", "--max-dim", "12",
         "--seed", "2"],
    ),
    (
        "decompose-regular-6.txt",
        [("reg6.json", ["fixture", "regular", "6"])],
        ["decompose", "{dir}/reg6.json"],
    ),
    (
        "decompose-regular-6.json",
        [("reg6.json", ["fixture", "regular", "6"])],
        ["decompose", "{dir}/reg6.json", "--json"],
    ),
    (
        "decompose-paper-example-2-3.txt",
        [("pe23.json", ["fixture", "paper-example", "2", "3"])],
        ["decompose", "{dir}/pe23.json"],
    ),
    (
        "decompose-paper-example-2-2.txt",
        [("pe22.json", ["fixture", "paper-example", "2", "2"])],
        ["decompose", "{dir}/pe22.json"],
    ),
    (
        "decompose-semisimple-2-2.txt",
        [("ss22.json", ["fixture", "semisimple", "--group", "2,2"])],
        ["decompose", "{dir}/ss22.json"],
    ),
    (
        "decompose-odd-warnings.txt",
        [
            (
                "odd.json",
                ["fixture", "semisimple", "--group", "2", "--multiplicities", "1,1"],
            )
        ],
        ["decompose", "{dir}/odd.json", "--check-plausibility"],
    ),
    (
        "decompose-no-warnings.txt",
        [
            (
                "even.json",
                ["fixture", "semisimple", "--group", "2", "--multiplicities", "2,2"],
            )
        ],
        ["decompose", "{dir}/even.json", "--check-plausibility"],
    ),
    (
        "roan-paper-example-2-3.txt",
        [("pe23.json", ["fixture", "paper-example", "2", "3"])],
        ["roan", "{dir}/pe23.json"],
    ),
    (
        "roan-regular-6.json",
        [("reg6.json", ["fixture", "regular", "6"])],
        ["roan", "{dir}/reg6.json", "--json"],
    ),
    (
        "verify-paper-example-2-3.txt",
        [("pe23.json", ["fixture", "paper-example", "2", "3"])],
        ["verify", "{dir}/pe23.json"],
    ),
    (
        "verify-random-conjugated-6.json",
        [
            (
                "rc6.json",
                ["fixture", "random-conjugated", "--group", "6", "--seed", "3"],
            )
        ],
        ["verify", "{dir}/rc6.json", "--json"],
    ),
]


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def prepare_case(tmp_path, inputs, argv):
    for name, fixture_argv in inputs:
        code, _, err = run_cli(fixture_argv + ["-o", str(tmp_path / name)])
        assert code == 0, err
    return [a.replace("{dir}", str(tmp_path)) for a in argv]


@pytest.mark.parametrize("golden,inputs,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(tmp_path, golden, inputs, argv):
    argv = prepare_case(tmp_path, inputs, argv)
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert err == ""
    path = GOLDEN_DIR / golden
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(out, encoding="utf-8")
    assert out == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("golden,inputs,argv", CASES, ids=[c[0] for c in CASES])
def test_repeated_runs_are_byte_identical(tmp_path, golden, inputs, argv):
    argv = prepare_case(tmp_path, inputs, argv)
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


def test_one_parser_serves_every_call_in_a_process():
    # the parser is built once; no call's options may leak into the next
    argvs = [
        ["characters", "--group", "6", "--json"],
        ["characters", "--group", "6"],
        ["subgroups", "--group", "2,2", "--kernels"],
        ["subgroups", "--group", "2,2"],
        ["fixture", "regular", "3"],
    ]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run_cli(argv))
    assert [run_cli(argv) for argv in argvs] == fresh
    assert build_parser.cache_info().misses == 1


def test_json_outputs_are_valid_json():
    for golden, inputs, argv in CASES:
        if not golden.endswith(".json"):
            continue
        text = (GOLDEN_DIR / golden).read_text(encoding="utf-8")
        json.loads(text)


# -------------------------------------------------------------- exit codes


def test_missing_file_exits_2(tmp_path):
    code, out, err = run_cli(["decompose", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err and "cannot read" in err


def test_file_that_is_not_utf8_exits_2(tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + '{"group":[2]}'.encode("utf-16-le"))
    code, out, err = run_cli(["decompose", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: not UTF-8")
    assert err.count("\n") == 1


def test_fixture_output_in_a_missing_directory_exits_2(tmp_path):
    target = tmp_path / "no" / "such" / "x.json"
    code, out, err = run_cli(["fixture", "regular", "6", "-o", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}:")
    assert err.count("\n") == 1
    assert not target.exists()


def test_invalid_action_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group":[2],"generators":[[[0,-1],[1,0]]]}')
    code, _, err = run_cli(["decompose", str(bad)])
    assert code == 2
    assert "M^2 != I" in err


@pytest.mark.parametrize("entry", ["1e100000000", "1.5", " 3/4", "3/-4", "1/0"])
def test_entry_strings_outside_the_grammar_exit_2_at_once(tmp_path, entry):
    hostile = tmp_path / "hostile.json"
    hostile.write_text(json.dumps({"group": [1], "generators": [[[entry]]]}))
    start = time.perf_counter()
    code, out, err = run_cli(["decompose", str(hostile)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: generator 1: cannot parse {entry!r} as a rational number\n"


@pytest.mark.parametrize("entry", ["true", "1.5"])
def test_non_integer_json_entries_exit_2(tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": [1], "generators": [[[%s]]]}' % entry)
    code, out, err = run_cli(["decompose", str(bad)])
    assert (code, out) == (2, "")
    assert err == "error: generator 1: matrix entry must be an integer or 'p/q'\n"


def test_deeply_nested_json_exits_2(tmp_path):
    deep = tmp_path / "deep.json"
    depth = 100_000
    deep.write_text(
        '{"group":[2],"generators":[[[1]]],"name":' + "[" * depth + "]" * depth + "}"
    )
    code, _, err = run_cli(["decompose", str(deep)])
    assert code == 2
    assert err == "error: invalid JSON: nested too deeply\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)
def test_modulus_over_the_integer_digit_limit_exits_2(tmp_path):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the integer digit limit is switched off")
    huge = tmp_path / "huge.json"
    huge.write_text('{"group":[' + "9" * (limit + 1) + '],"generators":[[[1]]]}')
    code, _, err = run_cli(["decompose", str(huge)])
    assert code == 2
    assert err.startswith("error: invalid JSON:")


def test_group_order_too_long_to_print_exits_2(tmp_path):
    # each modulus has 3001 digits, their product 6001
    big = tmp_path / "big.json"
    n = "1" + "0" * 3000
    big.write_text('{"group":[%s,%s],"generators":[[[1]],[[1]]]}' % (n, n))
    code, _, err = run_cli(["decompose", str(big)])
    assert code == 2
    assert "exceeds --max-order 10000" in err
    code, _, err = run_cli(["characters", "--group", f"{n},{n}"])
    assert code == 2
    assert "exceeds --max-order 10000" in err


def test_bad_group_argument_exits_2():
    code, _, err = run_cli(["characters", "--group", "6;7"])
    assert code == 2
    assert "comma-separated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["characters", "--group", "1_2"],
        ["characters", "--group", "\u0663,2"],  # an Arabic-Indic digit three
        ["characters", "--group", "6,"],
        ["characters", "--group", ""],
        ["characters", "--group", "4/2"],
        ["fixture", "semisimple", "--group", "2", "--multiplicities", "1,,1,"],
        ["fixture", "semisimple", "--group", "2", "--multiplicities", "1,0_1"],
    ],
    ids=["underscore", "arabic-indic-digit", "trailing-comma", "empty", "fraction",
         "empty-fields", "multiplicity-underscore"],
)
def test_integer_lists_refuse_fields_outside_the_rational_grammar(argv):
    # each field is read by ratlinalg's one grammar and must come back an int
    option, text = argv[-2:]
    what = "group" if option == "--group" else option
    expected = f"error: cannot parse {what} {text!r}: expected comma-separated integers\n"
    assert run_cli(argv) == (2, "", expected)


def test_integer_lists_strip_spaces_and_read_a_plus_sign():
    assert run_cli(["characters", "--group", " 6 , 4"]) == run_cli(
        ["characters", "--group", "6,4"]
    )
    assert run_cli(["characters", "--group", "+6"]) == run_cli(["characters", "--group", "6"])


@pytest.mark.parametrize("moduli", [[0], [6, -2]])
def test_group_moduli_rule_has_one_text(moduli, tmp_path):
    # FinAbGroup states the rule; --group and a file's "group" share its text
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"group": moduli, "generators": [[[1]]] * len(moduli)}))
    text = f"error: moduli must be integers >= 1, got {tuple(moduli)}\n"
    assert run_cli(["decompose", str(path)]) == (2, "", text)
    group = ",".join(map(str, moduli))
    assert run_cli(["characters", "--group", group]) == (2, "", text)
    assert run_cli(["fixture", "semisimple", "--group", group]) == (2, "", text)


@pytest.mark.parametrize(
    "argv, moduli",
    [
        (["decompose", "{file}"], [2.5] * 200_000),
        (["characters", "--group", ",".join(["0"] * 50_000)], [0] * 50_000),
    ],
    ids=["file", "group-option"],
)
def test_a_long_moduli_refusal_quotes_eight_and_the_count(argv, moduli, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"group": moduli, "generators": []}))
    code, out, err = run_cli([a.replace("{file}", str(path)) for a in argv])
    shown = ", ".join(map(repr, moduli[:8]))
    text = f"error: moduli must be integers >= 1, got ({shown}, …) ({len(moduli)} moduli)\n"
    assert (code, out, err) == (2, "", text)
    assert len(err.encode()) < 200


def test_max_order_exits_2():
    code, _, err = run_cli(["characters", "--group", "101", "--max-order", "100"])
    assert code == 2
    assert "exceeds --max-order" in err
    assert run_cli(["characters", "--group", "101", "--max-order", "101"])[0] == 0


def test_paper_example_max_order_checked_before_primality():
    # trial division of a 17-digit prime takes seconds; the order is known at once
    start = time.perf_counter()
    code, _, err = run_cli(["fixture", "paper-example", "10000000000000061", "2"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "exceeds --max-order 10000" in err


def test_max_order_checked_before_building_the_action(tmp_path):
    # a generator table for |G| = 3e6 would take minutes to build
    big = tmp_path / "big.json"
    big.write_text('{"group":[3000000],"generators":[[[1]]]}')
    start = time.perf_counter()
    code, _, err = run_cli(["decompose", str(big)])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "group order 3000000 exceeds --max-order 10000" in err


def test_fixture_max_order_checked_before_building():
    # the shift action of Z/300 takes minutes to validate
    start = time.perf_counter()
    code, _, err = run_cli(["fixture", "regular", "300", "--max-order", "10"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "group order 300 exceeds --max-order 10" in err
    code, _, err = run_cli(["fixture", "paper-example", "2", "3", "--max-order", "71"])
    assert code == 2
    assert "group order 72 exceeds --max-order 71" in err


def test_oversized_subgroup_enumeration_exits_3_before_enumerating():
    start = time.perf_counter()
    code, _, err = run_cli(["subgroups", "--group", "2,4,8,16"])
    assert time.perf_counter() - start < 2
    assert code == 3
    assert "subgroup enumeration is too large for this group" in err


def test_subgroups_kernels_answer_where_the_lattice_is_refused():
    # the class list, not the lattice: 2,4,8,16 has 232 classes
    start = time.perf_counter()
    argv = ["subgroups", "--kernels", "--json", "--group", "2,4,8,16"]
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 2
    assert code == 0, err
    hnfs = [s["hnf"] for s in json.loads(out)["subgroups"]]
    _, out, _ = run_cli(["characters", "--json", "--group", "2,4,8,16"])
    assert hnfs == [w["kernel_hnf"] for w in json.loads(out)["irreps"]]
    assert len(hnfs) == 232


def _kernels_text(group: FinAbGroup, as_json: bool) -> str:
    """What ``subgroups --kernels`` prints, rendered from the lattice
    filtered to cyclic quotients."""
    subs = kernels_by_filtering(group)
    invs = [[d for d in s.quotient_invariants if d > 1] for s in subs]
    if as_json:
        entries = [
            {
                "hnf": s.hnf_basis.to_jsonable(),
                "index": s.index,
                "order": s.order,
                "quotient_invariants": inv,
                "cyclic_quotient": True,
            }
            for s, inv in zip(subs, invs)
        ]
        return _json_text(
            {"group": list(group.moduli), "kernels_only": True, "subgroups": entries}
        )
    rows = [
        (
            s.index,
            s.order,
            " x ".join(f"Z/{d}" for d in inv) or "trivial",
            "yes",
            str([list(r) for r in s.hnf_basis.entries]),
        )
        for s, inv in zip(subs, invs)
    ]
    header = f"{_group_line(group)}: {len(subs)} cyclic-quotient subgroups (kernels)"
    table = _render_table(("index", "order", "quotient", "cyclic", "hnf"), rows)
    return "\n".join([header, "", *table]) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_subgroups_kernels_equal_the_filtered_lattice(moduli):
    group = FinAbGroup(tuple(moduli))
    for flags, as_json in (([], False), (["--json"], True)):
        argv = ["subgroups", "--kernels", "--group", ",".join(map(str, moduli))]
        assert run_cli(argv + flags) == (0, _kernels_text(group, as_json), "")


def test_paper_example_with_large_degree_classes_is_fast():
    # Z/27 x Z/25 has classes of degree up to 360; only four are used
    start = time.perf_counter()
    code, out, err = run_cli(["fixture", "paper-example", "3", "5"])
    assert time.perf_counter() - start < 20
    assert code == 0, err
    obj = json.loads(out)
    assert obj["group"] == [27, 25]
    assert [g["multiplicity"] for g in obj["ground_truth"]].count(1) == 4


def test_decompose_of_a_large_group_is_fast(tmp_path):
    # Z/60 x Z/60 has 3600 elements and 350 irreducibles; summing |G|
    # matrices per irreducible took 18 s
    path = tmp_path / "wide.json"
    code, _, err = run_cli(
        ["fixture", "random-conjugated", "--group", "60,60", "--seed", "1",
         "--max-dim", "8", "-o", str(path)]
    )
    assert code == 0, err
    truth = json.loads(path.read_text())["ground_truth"]
    start = time.perf_counter()
    code, out, err = run_cli(["decompose", "--json", str(path)])
    assert time.perf_counter() - start < 6
    assert code == 0, err
    report = json.loads(out)
    assert report["dim"] == 8
    got = {str(c["kernel_hnf"]): c["multiplicity"] for c in report["components"]}
    assert got == {str(g["kernel_hnf"]): g["multiplicity"] for g in truth}
    assert sorted(v for v in got.values() if v) == [1, 1]


def test_fixture_of_a_large_group_at_dim_24_is_fast(tmp_path):
    # validating by a running product over all 10000 elements took 15 s
    path = tmp_path / "wide24.json"
    start = time.perf_counter()
    code, _, err = run_cli(
        ["fixture", "random-conjugated", "--group", "100,100", "--max-dim", "24",
         "-o", str(path)]
    )
    assert time.perf_counter() - start < 6
    assert code == 0, err
    text = path.read_text()
    truth = json.loads(text)["ground_truth"]
    af = load_action_file(text)
    assert af.action.group.moduli == (100, 100)
    assert af.action.dim == 24
    assert af.ground_truth == tuple(
        (MatZ(g["kernel_hnf"]), g["multiplicity"]) for g in truth
    )


def test_non_cyclic_roan_and_verify_exit_3(tmp_path, monkeypatch):
    path = tmp_path / "ss22.json"
    assert run_cli(["fixture", "semisimple", "--group", "2,2", "-o", str(path)])[0] == 0

    def no_decomposition(action):
        raise AssertionError("decomposed before the cyclicity gate")

    monkeypatch.setattr(roan_module, "isotypical_decomposition", no_decomposition)
    for cmd in ("roan", "verify"):
        code, _, err = run_cli([cmd, str(path)])
        assert code == 3, cmd
        assert "cyclic" in err


# each refusal, with the exit code it gives; "{file}" is the named input
_REFUSALS = [
    ("malformed", ["decompose", "{file}"], 2),
    ("malformed", ["roan", "{file}"], 2),
    ("malformed", ["verify", "{file}"], 2),
    ("semisimple", ["roan", "{file}"], 3),
    ("semisimple", ["verify", "{file}"], 3),
    (None, ["characters", "--group", "0"], 2),
    (None, ["subgroups", "--group", "0"], 2),
    ("regular", ["decompose", "{file}"], 4),  # a cross-check made to fail
]
_REFUSAL_INPUTS = {
    "semisimple": ["fixture", "semisimple", "--group", "2,2"],
    "regular": ["fixture", "regular", "4"],
}


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "file,argv,expected",
    _REFUSALS,
    ids=[f"{argv[0]}-{code}" for _, argv, code in _REFUSALS],
)
def test_a_refused_command_prints_nothing(
    tmp_path, monkeypatch, file, argv, expected, output
):
    path = tmp_path / "input.json"
    if file == "malformed":
        path.write_text("{")
    elif file is not None:
        assert run_cli(_REFUSAL_INPUTS[file] + ["-o", str(path)])[0] == 0

    def failed_check(action):
        raise InternalCheckError("the two routes disagree")

    if expected == 4:
        monkeypatch.setattr("isodec.cli.isotypical_decomposition", failed_check)
    argv = [a.replace("{file}", str(path)) for a in argv]
    code, out, err = run_cli(argv + output)
    assert code == expected
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")


def test_ground_truth_mismatch_exits_2(tmp_path):
    path = tmp_path / "lie.json"
    assert run_cli(["fixture", "regular", "4", "-o", str(path)])[0] == 0
    obj = json.loads(path.read_text())
    obj["ground_truth"][0]["multiplicity"] = 5
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(["verify", str(path)])
    assert code == 2
    assert err.startswith("error: decomposition differs from ground truth")


def test_contradictory_ground_truth_exits_2(tmp_path):
    # the two entries contradict each other, though their sum would match
    path = tmp_path / "twice.json"
    gt = [
        {"kernel_hnf": [[1]], "multiplicity": 1},
        {"kernel_hnf": [[1]], "multiplicity": 0},
    ]
    path.write_text(
        json.dumps({"group": [2], "generators": [[[1]]], "ground_truth": gt})
    )
    code, out, err = run_cli(["verify", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        "error: ground_truth entry 2: kernel [[1]] repeats ground_truth entry 1\n"
    )


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["decompose"])  # missing file argument
    assert exc.value.code == 2


def test_unknown_fixture_kind_exits_2(tmp_path):
    code, _, err = run_cli(["fixture", "mystery", "7"])
    assert code == 2
    assert "unknown fixture kind" in err


def test_fixture_parameter_validation_exits_2():
    assert run_cli(["fixture", "regular"])[0] == 2
    assert run_cli(["fixture", "paper-example", "4", "3"])[0] == 2
    assert run_cli(["fixture", "semisimple"])[0] == 2
    assert run_cli(["fixture", "semisimple", "6", "--group", "6"])[0] == 2
    code, _, err = run_cli(
        ["fixture", "semisimple", "--group", "6", "--multiplicities", "1"]
    )
    assert code == 2 and "expected 4 multiplicities" in err
    for budget in ("0", "-1"):
        code, out, err = run_cli(
            ["fixture", "random-conjugated", "--group", "4", "--max-dim", budget]
        )
        assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["regular", "6", "--multiplicities", "1,2"], "--multiplicities"),
        (["paper-example", "2", "3", "--group", "9", "--seed", "4"], "--group"),
        (["regular", "6", "--group", "6"], "--group"),
        (["regular", "6", "--seed", "0"], "--seed"),
        (["regular", "6", "--max-dim", "24"], "--max-dim"),
        (["paper-example", "2", "3", "--seed", "4"], "--seed"),
        (["paper-example", "2", "3", "--max-dim", "24"], "--max-dim"),
        (["semisimple", "--group", "6", "--max-dim", "24"], "--max-dim"),
        # refused before the group text is parsed or the group built
        (["regular", "6", "--group", "6;7"], "--group"),
        (["paper-example", "2", "3", "--group", "1000000"], "--group"),
    ],
)
def test_fixture_refuses_options_its_kind_does_not_read(argv, option):
    code, out, err = run_cli(["fixture", *argv])
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} fixture does not take {option}\n"


@pytest.mark.parametrize("group", ["6", "6;7"])
def test_fixture_refuses_max_dim_with_multiplicities(group):
    # given multiplicities leave the budget unread; refused before the group
    # text is parsed
    argv = ["random-conjugated", "--group", group, "--multiplicities", "1,1,1,1"]
    code, out, err = run_cli(["fixture", *argv, "--max-dim", "4"])
    assert (code, out) == (2, "")
    assert err == (
        "error: random-conjugated fixture does not take --max-dim with "
        "--multiplicities\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["regular", "3", "--json"], ["semisimple", "--group", "6", "--json"]],
    ids=["regular", "semisimple"],
)
def test_fixture_has_no_json_option(argv, capsys):
    # no fixture kind has a JSON form of its output, so argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["fixture", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --json\n")


@pytest.mark.parametrize("group", ["0", "6,-2", "6;7"])
def test_fixture_group_is_parsed_like_the_other_commands(group):
    # --group means the same to fixture as to characters
    code, _, err = run_cli(["fixture", "semisimple", "--group", group])
    assert (code, err) == run_cli(["characters", "--group", group])[::2]
    assert code == 2 and err.startswith("error: ")


# ------------------------------------------------------------------- pieces


def test_fixture_output_file_and_stdout(tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(["fixture", "regular", "5", "-o", str(path)])
    assert code == 0
    assert out == ""
    on_disk = path.read_text()
    code, out, _ = run_cli(["fixture", "regular", "5"])
    assert out == on_disk


def test_decompose_json_structure(tmp_path):
    path = tmp_path / "pe.json"
    run_cli(["fixture", "paper-example", "2", "3", "-o", str(path)])
    code, out, _ = run_cli(["decompose", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["group"] == [8, 9]
    assert obj["dim"] == 6
    nonzero = [c for c in obj["components"] if c["multiplicity"]]
    assert [(c["order"], c["dim"]) for c in nonzero] == [
        (1, 1),
        (2, 1),
        (3, 2),
        (6, 2),
    ]
    # warnings are always present in machine output
    assert "warnings" in obj


def test_verify_json_structure(tmp_path):
    path = tmp_path / "reg.json"
    run_cli(["fixture", "regular", "6", "-o", str(path)])
    code, out, _ = run_cli(["verify", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"roan", "matches", "zero_components", "ground_truth"}
    assert obj["ground_truth"] == "ok"
    assert [m["order"] for m in obj["matches"]] == [1, 2, 3, 6]
    assert obj["zero_components"] == []


def test_decompose_json_components_carry_every_key(tmp_path):
    path = tmp_path / "reg4.json"
    run_cli(["fixture", "regular", "4", "-o", str(path)])
    code, out, _ = run_cli(["decompose", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["group"] == [4]
    assert obj["dim"] == 4
    assert obj["faithful"] is True
    assert [c["order"] for c in obj["components"]] == [1, 2, 4]
    assert all(
        set(c) == {"kernel_hnf", "order", "degree", "representative",
                   "multiplicity", "dim", "basis"}
        for c in obj["components"]
    )


def test_verify_json_of_a_4_cycle(tmp_path):
    path = tmp_path / "reg4.json"
    run_cli(["fixture", "regular", "4", "-o", str(path)])
    code, out, _ = run_cli(["verify", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"roan", "matches", "zero_components", "ground_truth"}
    assert [m["order"] for m in obj["matches"]] == [1, 2, 4]
    assert obj["roan"]["filtration_dims"] == [4, 3, 2, 0]


@pytest.mark.parametrize(
    "fixture",
    [
        ["regular", "6"],
        ["random-conjugated", "--group", "6", "--seed", "3"],
    ],
)
def test_verify_json_nests_the_roan_document(fixture, tmp_path):
    path = str(tmp_path / "action.json")
    assert run_cli(["fixture", *fixture, "-o", path])[0] == 0
    code, roan_out, _ = run_cli(["roan", path, "--json"])
    assert code == 0
    code, verify_out, _ = run_cli(["verify", path, "--json"])
    assert code == 0
    assert json.loads(verify_out)["roan"] == json.loads(roan_out)


def test_subgroups_kernels_agree_with_characters():
    code, out, _ = run_cli(["subgroups", "--group", "8,9", "--kernels", "--json"])
    subs = json.loads(out)["subgroups"]
    code, out, _ = run_cli(["characters", "--group", "8,9", "--json"])
    irreps = json.loads(out)["irreps"]
    assert [s["hnf"] for s in subs] == [w["kernel_hnf"] for w in irreps]
    assert all(s["cyclic_quotient"] for s in subs)


@pytest.mark.parametrize("group", ["2,4,8", "6,6"])
def test_subgroups_quotients_agree_with_the_subgroup_methods(group):
    code, out, _ = run_cli(["subgroups", "--group", group, "--json"])
    assert code == 0
    obj = json.loads(out)
    g = FinAbGroup(tuple(obj["group"]))
    assert len(obj["subgroups"]) == len(all_subgroups(g))
    for entry in obj["subgroups"]:
        sub = Subgroup(g, MatZ(entry["hnf"]))
        invariants = [d for d in sub.quotient_invariants if d > 1]
        assert entry["quotient_invariants"] == invariants
        assert entry["cyclic_quotient"] == (sub.quotient_generator() is not None)


_MODULI = st.one_of(
    st.lists(st.integers(-1, 9), max_size=3).map(lambda ms: ",".join(map(str, ms))),
    st.sampled_from(["", "2;3", "1e3", "1.5", "1" * 20]),
)


# the file commands' inputs: every fixture golden, a text golden (not JSON),
# a JSON golden with no "generators", and a path that does not exist
_FILES = [str(p) for p in sorted(GOLDEN_DIR.glob("fixture-*.json"))] + [
    str(GOLDEN_DIR / name)
    for name in ["characters-6.txt", "characters-8-9.json", "no-such-file.json"]
]


@st.composite
def _argv(draw):
    """argv for any subcommand, valid or not."""
    command = draw(st.sampled_from(
        ["characters", "subgroups", "fixture", "decompose", "roan", "verify"]
    ))
    if command in ("decompose", "roan", "verify"):
        # --check-plausibility is decompose's own: roan and verify refuse it
        flags = st.sampled_from(["--json", "--check-plausibility"])
        argv = [command, draw(st.sampled_from(_FILES))]
        argv += draw(st.lists(flags, unique=True))
    elif command == "fixture":
        kind = draw(st.sampled_from(FIXTURE_KINDS))
        count = {"regular": 1, "paper-example": 2}.get(kind, 0)  # positional
        params = draw(st.lists(st.integers(-1, 7), min_size=count, max_size=count))
        argv = [command, kind, *map(str, params)]
        values = {
            "--group": _MODULI,
            "--multiplicities": _MODULI,
            "--seed": st.integers(-3, 3).map(str),
            "--max-dim": st.integers(-2, 30).map(str),
        }
        for option in draw(st.lists(st.sampled_from(list(values)), max_size=2)):
            argv += [option, draw(values[option])]
    else:
        argv = [command, "--group", draw(_MODULI)]
        if command == "subgroups" and draw(st.booleans()):
            argv.append("--kernels")
        if draw(st.booleans()):
            argv.append("--json")
    return argv + ["--max-order", str(draw(st.integers(-3, 3000)))]


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_group_commands_exit_0_2_or_3_and_refuse_on_stderr_only(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal; main does not catch it
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert out.getvalue() == "" and err.getvalue() != ""
    else:
        assert err.getvalue() == ""


def test_entry_point_module():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "isodec", "characters", "--group", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rational irreducible classes" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["subgroups", "--group", "2,2,2,2,2,2"],
        ["characters", "--json", "--group", "100,100"],
        ["fixture", "regular", "200"],
    ],
    ids=["text", "json", "fixture"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_stdout_closed_early_exits_1_with_an_empty_stderr(argv, unbuffered):
    # each output is larger than a 64 KiB pipe buffer, so the write after
    # the reader has gone fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "isodec", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert len(head) == 10
    assert (code, err) == (1, b"")


@pytest.mark.parametrize(
    "argv",
    [["characters", "--group", "4"], ["characters", "--json", "--group", "4"], None],
    ids=["text", "json", "fixture-o"],
)
def test_a_command_started_without_stdout_exits_0(argv, tmp_path):
    out = tmp_path / "r6.json"
    argv = argv or ["fixture", "regular", "6", "-o", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "isodec", *argv],
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),  # the child starts with fd 1 closed
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.exists() == (argv[0] == "fixture")
