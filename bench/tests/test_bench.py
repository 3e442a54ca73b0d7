"""Tests of the benchmark itself: inputs, tracing, metric names, failure counting.

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Inputs, Job  # noqa: E402


@pytest.fixture(scope="module")
def iso():
    return run.import_isodec()


def _shape(path):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return obj["group"], [len(m) for m in obj["generators"]]


# ------------------------------------------------------------ inputs


@pytest.mark.parametrize("name", ["cyclic-verify", "wide-decompose"])
def test_file_inputs_are_deterministic_per_seed(iso, tmp_path, name):
    build = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = build(7, str(dirs[0]), iso)
    again = build(7, str(dirs[1]), iso)
    other = build(8, str(dirs[2]), iso)
    assert first.digests == again.digests
    assert [j.label for j in first.jobs] == [j.label for j in again.jobs]
    for f in sorted(os.listdir(dirs[0])):
        assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
        # another seed keeps groups and dimensions, and changes only the
        # random conjugations and multiplicities
        assert _shape(dirs[0] / f) == _shape(dirs[2] / f)
    assert sorted(first.digests) == sorted(other.digests)
    changed = {k for k in first.digests if first.digests[k] != other.digests[k]}
    assert changed == {k for k in first.digests if "conjugated" in k}


def test_fixture_specs_are_deterministic_per_seed(iso, tmp_path):
    build = workloads.WORKLOADS["fixture-roundtrip"]
    first = build(7, str(tmp_path), iso)
    again = build(7, str(tmp_path), iso)
    other = build(8, str(tmp_path), iso)
    assert first.digests == again.digests
    changed = {k for k in first.digests if first.digests[k] != other.digests[k]}
    assert changed == {k for k in first.digests if k.startswith("random-conjugated")}


def test_multiplicities_keep_their_profile_across_seeds():
    import random

    degrees = [1, 1, 2, 2, 2, 4, 8]
    for _ in range(50):
        mult = workloads.draw_multiplicities(degrees, 21, random.Random(_))
        assert sum(m * d for m, d in zip(mult, degrees)) == 21
    profiles = set()
    for seed in range(20):
        mult = workloads.seeded_multiplicities(degrees, 21, "x", random.Random(seed))
        profiles.add(tuple(sorted((d, m) for d, m in zip(degrees, mult))))
    assert len(profiles) == 1


# ----------------------------------------------------------- tracing


def _small_jobs(iso, tmp_path):
    spec = iso.FixtureSpec("random-conjugated", moduli=(6,), multiplicities=(1, 1, 1, 1), seed=3)
    path = str(tmp_path / "c6.json")
    af, _ = workloads._write_fixture(iso, spec, path)
    expected = workloads._ground_truth_keys(af.ground_truth)
    out = str(tmp_path / "out.json")
    return [
        Job("verify", ["verify", path], workloads._check_verify),
        Job("decompose", ["decompose", "--json", path], workloads._decompose_check(expected, af.action.dim)),
        Job("fixture", ["fixture", "regular", "6", "-o", out], lambda o: None, out),
        Job("subgroups", ["subgroups", "--group", "2,4", "--json"], lambda o: None),
    ]


def test_tracing_keeps_outputs_and_restores_attributes(iso, tmp_path):
    tracer = Tracer()
    for i, job in enumerate(_small_jobs(iso, tmp_path)):
        plain = run.execute(iso.cli, job)
        assert plain.rc == 0 and run.check(job, plain) is None, job.label

        tracer.install()
        patched = tracer.patched
        owners = {(owner, attr) for owner, attr, _ in patched}
        # each namespace binding is wrapped on its own
        assert (iso.action, "image_space") in owners
        assert (iso.roan, "image_space") in owners
        assert (iso.cli, "main") in owners
        assert (iso.MatQ, "__matmul__") in owners
        assert (iso.SubspaceQ, "__init__") in owners
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
        tracer.begin_job(i)
        try:
            traced = run.execute(iso.cli, job)
        finally:
            tracer.end_job()
            tracer.uninstall()

        assert (traced.rc, traced.output) == (plain.rc, plain.output), job.label
        for owner, attr, orig in patched:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is orig, f"{owner!r}.{attr} not restored"
        assert not tracer.patched

    assert tracer.jobs == 4
    assert tracer.stat("cli.main", "calls") == 4
    assert tracer.stat("roan.verify_roan_matching", "calls") == 1
    assert tracer.stat("ratlinalg.MatQ.matmul", "calls") > 0
    assert tracer.matmul_mults > 0 and tracer.subspace_cells_in > 0
    assert all(s >= -1e-6 for s in tracer.self_s)
    # the root's total covers every self time below it
    assert tracer.stat("cli.main", "total_s") >= sum(tracer.self_s) - 1e-6


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    # (job, span id, outer start, start, end, outer end, parent, nested)
    tracer._span_id("a.f", "cli")
    tracer._span_id("b.g", "roan")
    tracer.spans.extend(
        [
            (0, 0, 0.0, 0.0, 10.0, 10.0, -1, 0),
            (0, 1, 1.0, 1.5, 3.0, 3.5, 0, 0),
            (0, 1, 4.0, 4.0, 6.0, 6.0, 0, 0),
            (0, 1, 4.5, 4.5, 5.0, 5.0, 2, 1),  # g calling itself
        ]
    )
    tracer.end_job()
    assert tracer.self_s[0] == pytest.approx(10.0 - 2.5 - 2.0)
    assert tracer.self_s[1] == pytest.approx(1.5 + 1.5 + 0.5)
    assert tracer.total_s[1] == pytest.approx(1.5 + 2.0)  # outermost calls only
    assert tracer.calls == [1, 3]
    assert tracer.layer_self_s()["roan"] == pytest.approx(3.5)


# ----------------------------------------------------------- metrics

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_and_counts():
    e2e = [n for n, _ in run.END_TO_END]
    layer = [n for n, _ in run.PER_LAYER]
    assert len(e2e) <= 16 and len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    for name in e2e + layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ----------------------------------------------------------- failures


class _Crashing:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


def test_wrong_expected_output_is_a_failed_job_not_a_failed_run(iso, tmp_path):
    good, decompose, *_ = _small_jobs(iso, tmp_path)
    decompose.check = workloads._decompose_check([("[[1]]", 5)], 99)
    jobs = [
        good,
        decompose,
        Job("missing file", ["verify", str(tmp_path / "missing.json")], workloads._check_verify),
        Job("rejected argv", ["no-such-command"], workloads._check_verify),
        Job("raising check", ["subgroups", "--group", "2"], lambda o: 1 / 0),
    ]
    results = run.run_plain(iso.cli, Inputs(jobs), seconds=0, min_jobs=1)
    reasons = {r.label: r.reason for r in results}
    assert len(results) == len(jobs)
    assert reasons["verify"] is None
    assert "ground truth" in reasons["decompose"]
    assert reasons["missing file"].startswith("exit code 2")
    assert reasons["rejected argv"].startswith("exit code 2")
    assert reasons["raising check"].startswith("check raised ZeroDivisionError")

    crashed = run.execute(_Crashing, good)
    assert crashed.rc == -1 and "RuntimeError: boom" in crashed.stderr
    assert workloads._check_verify(crashed) is not None


def test_lattice_digest_mismatch_is_a_failure(iso):
    job = next(j for j in workloads.build_lattice(1, "", iso).jobs if j.label == "subgroups 6x6x6")
    outcome = run.execute(iso.cli, job)
    assert job.check(outcome) is None
    outcome.output += b"\n"
    assert job.check(outcome) == "output digest differs from the recorded one"


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
