#!/usr/bin/env python3
"""isodec benchmark: closed-loop CLI jobs on seeded inputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cyclic-verify --seed 1 --seconds 20 --trace 0

Imports isodec from ``src/`` of the same checkout, builds the workload's
inputs from the seed (``SETUP_REPEATS`` times, to time set-up and to check
that the inputs come out byte-identical), then runs whole cycles of CLI jobs
through ``isodec.cli.main(argv)`` with stdout captured, one job at a time,
until ``--seconds`` have passed and at least ``MIN_JOBS`` jobs have run.
Every job's output is checked outside its timing.  Times are corrected for
the speed of the shared machine (see ``calibrate``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
every job runs once untraced and once traced (see ``tracing.py``), the two
outputs must be byte-identical, and the per-layer metrics are printed.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Lines before it give detail: the tail percentile and its sample count, the
failed ratio, the input digests and, when tracing, the layer shares.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import MIN_JOBS, TAIL_PERCENTILE, WORKLOADS, Outcome, sha256  # noqa: E402

SETUP_REPEATS = 3
# No new cycle starts after this many seconds, so a run ends well within
# three minutes even on a much slower machine.
HARD_STOP_S = 100.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("cpu_per_job_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (span name, fields) reported per traced job; fields are Tracer arrays.
SPAN_FIELDS = (
    ("ratlinalg.MatQ.mul_vector", ("calls", "self_s")),
    ("ratlinalg.SubspaceQ.init", ("calls", "self_s")),
    ("ratlinalg.char_poly", ("self_s",)),
    ("ratlinalg.SubspaceQ.contains_subspace", ("self_s",)),
    ("ratlinalg.kernel_space", ("self_s",)),
    ("ratlinalg.intersect_spaces", ("self_s",)),
    ("ratlinalg.restrict_operator", ("self_s",)),
    ("roan.verify_roan_matching", ("total_s",)),
    ("roan.roan_decomposition", ("total_s",)),
    ("roan.eigenvalue_orders", ("total_s",)),
    ("action.algebra_matrix", ("calls", "self_s")),
    ("action.validate_action", ("calls", "total_s")),
    ("action.isotypical_component", ("total_s",)),
    ("qalgebra.central_idempotent", ("self_s",)),
    ("qalgebra.averaging_idempotent", ("self_s",)),
    ("chars.char_kernel", ("calls", "self_s")),
    ("ratlinalg.MatQ.matmul", ("calls", "self_s")),
    ("chars.irrep_model", ("calls", "total_s")),
    ("fixtures.make_fixture", ("self_s", "total_s")),
    ("ratlinalg.inverse", ("self_s",)),
    ("abgroup.all_subgroups", ("total_s",)),
    ("chars.rational_irreps", ("total_s",)),
    ("cli.main", ("self_s",)),
    ("actionfile.load_action_file", ("self_s",)),
    ("actionfile.serialize_action_file", ("self_s",)),
)
FIELD_UNITS = {"calls": "count/job", "self_s": "s/job", "total_s": "s/job"}

PER_LAYER = (
    *((f"{span}.{f}", FIELD_UNITS[f]) for span, fields in SPAN_FIELDS for f in fields),
    ("ratlinalg.SubspaceQ.init.cells_in", "count/job"),
    ("ratlinalg.SubspaceQ.init.rank_ratio", "ratio"),
    ("action.algebra_matrix.terms", "count/job"),
    ("ratlinalg.MatQ.matmul.mults", "count/job"),
    ("cli.output_bytes", "bytes/job"),
    ("ratlinalg.max_num_bits", "bits"),
    ("trace.errors", "count"),
    ("trace.overhead", "ratio"),
    *((f"layer.{layer}.self_s", "s/job") for layer in LAYERS),
)


# ---------------------------------------------------------- machine speed

# The host is shared: the same job's wall and CPU time swing by up to 2x
# within seconds, and whole minutes run 20% slow.  So every time the
# benchmark reports is corrected for machine speed.  A fixed kernel, exact
# Fraction elimination in pure Python like isodec's own, is timed between
# jobs, and a job's times are scaled by CALIBRATION_NOMINAL_S over the median
# of the CALIBRATION_WINDOW kernel timings nearest to it.  A job that ran
# while the kernel ran at nominal speed keeps its raw time; the raw figures
# are printed on the detail line.
CALIBRATION_NOMINAL_S = 0.005
CALIBRATION_WINDOW = 8
_KERNEL = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(10))
    for i in range(10)
)


def calibrate() -> float:
    """Seconds to row-reduce a fixed 10x10 Fraction matrix."""
    t0 = time.perf_counter()
    rows = [list(r) for r in _KERNEL]
    n = len(rows)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c][c]
        rows[c] = [v / p for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - t0


def speeds(cals: list[float]) -> list[float]:
    """Speed factor of each job, where cals[i] and cals[i + 1] bracket job i."""
    half = CALIBRATION_WINDOW // 2
    return [
        CALIBRATION_NOMINAL_S / statistics.median(cals[max(0, i + 1 - half) : i + 1 + half])
        for i in range(len(cals) - 1)
    ]


# ----------------------------------------------------------------- set-up


def import_isodec():
    """Import isodec afresh from this checkout's src/ (never from elsewhere)."""
    if not os.path.isfile(os.path.join(SRC, "isodec", "__init__.py")):
        raise FileNotFoundError(f"isodec sources not found under {SRC}")
    for name in [n for n in sys.modules if n == "isodec" or n.startswith("isodec.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    iso = importlib.import_module("isodec")
    if not os.path.abspath(iso.__file__).startswith(SRC + os.sep):
        raise ImportError(f"isodec imported from {iso.__file__}, not from {SRC}")
    importlib.import_module("isodec.cli")
    return iso


def set_up(build, seed: int, workdir: str):
    """Import isodec and build the inputs.

    Returns (seconds corrected for machine speed, raw seconds, isodec, inputs).
    """
    half = CALIBRATION_WINDOW // 2
    cals = [calibrate() for _ in range(half)]
    t0 = time.perf_counter()
    iso = import_isodec()
    inputs = build(seed, workdir, iso)
    raw = time.perf_counter() - t0
    cals += [calibrate() for _ in range(half)]
    speed = CALIBRATION_NOMINAL_S / statistics.median(cals)
    return raw * speed, raw, iso, inputs


# ------------------------------------------------------------------- jobs


@dataclass
class Result:
    """One job as the metrics see it (outputs are dropped once checked)."""

    label: str
    wall_s: float
    cpu_s: float
    speed: float  # machine-speed factor, see speeds()
    output_bytes: int
    reason: str | None  # why the job failed, or None


def execute(cli, job) -> Outcome:
    """Run one job in-process through ``cli.main``; a crash is an exit code."""
    if job.output_path and os.path.exists(job.output_path):
        os.remove(job.output_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        crash = ""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = cli.main(job.argv)
        except SystemExit as e:  # argparse rejects argv this way
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # counted as a failed job; the loop goes on
            rc = -1
            crash = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    stdout = out.getvalue()
    if job.output_path:
        try:
            with open(job.output_path, "rb") as fh:
                output = fh.read()
        except FileNotFoundError:
            output = b""
    else:
        output = stdout.encode("utf-8")
    return Outcome(rc or 0, stdout, err.getvalue() + crash, wall, cpu, output)


def check(job, outcome: Outcome) -> str | None:
    try:
        return job.check(outcome)
    except Exception as e:  # a broken check fails the job, not the run
        return f"check raised {type(e).__name__}: {e}"


def cycles(jobs, seconds: float, min_jobs: int):
    """Yield jobs in whole cycles until time and job count are both reached."""
    start = time.perf_counter()
    done = 0
    while True:
        for job in jobs:
            yield job
            done += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and done >= min_jobs):
            return


def run_plain(cli, inputs, seconds, min_jobs) -> list[Result]:
    done = []
    cals = [calibrate()]
    for job in cycles(inputs.jobs, seconds, min_jobs):
        outcome = execute(cli, job)
        cals.append(calibrate())
        done.append((job.label, outcome.wall_s, outcome.cpu_s, len(outcome.output), check(job, outcome)))
    return [
        Result(label, wall, cpu, speed, size, reason)
        for (label, wall, cpu, size, reason), speed in zip(done, speeds(cals))
    ]


def _execute_traced(cli, job, tracer: Tracer, job_id: int) -> Outcome:
    tracer.install()
    tracer.begin_job(job_id)
    try:
        return execute(cli, job)
    finally:
        tracer.uninstall()


def run_traced(cli, inputs, seconds, tracer: Tracer):
    """Each job untraced and traced; returns (results, untraced s, traced s)."""
    results = []
    plain_s = traced_s = 0.0
    cal = calibrate()
    for i, job in enumerate(cycles(inputs.jobs, seconds, 1)):
        # Alternate which run goes first, so that neither one always finds
        # the other's warm caches.
        if i % 2:
            traced = _execute_traced(cli, job, tracer, i)
            plain = execute(cli, job)
        else:
            plain = execute(cli, job)
            traced = _execute_traced(cli, job, tracer, i)
        cal_next = calibrate()
        speed = speeds([cal, cal_next])[0]
        tracer.end_job(speed)
        cal = cal_next
        reason = check(job, plain)
        if reason is None and (traced.rc, traced.output) != (plain.rc, plain.output):
            reason = "traced output differs from untraced output"
        plain_s += plain.wall_s
        traced_s += traced.wall_s
        results.append(
            Result(job.label, traced.wall_s, traced.cpu_s, speed, len(traced.output), reason)
        )
    return results, plain_s, traced_s


# ---------------------------------------------------------------- metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _tail(values) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def end_to_end_metrics(setup_s: float, results: list[Result]) -> dict:
    walls = [r.wall_s * r.speed for r in results]
    values = {
        "setup_s": setup_s,
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": _tail(walls),
        "cpu_per_job_s": sum(r.cpu_s * r.speed for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def raw_figures(results: list[Result]) -> dict:
    """The uncorrected times, for the detail line."""
    walls = [r.wall_s for r in results]
    return {
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": _tail(walls),
        "cpu_per_job_s": sum(r.cpu_s for r in results) / len(results),
        "median_speed": statistics.median(r.speed for r in results),
    }


def per_layer_metrics(tracer: Tracer, results: list[Result], overhead: float) -> dict:
    jobs = tracer.jobs
    values = {
        f"{span}.{f}": tracer.stat(span, f) / jobs for span, fields in SPAN_FIELDS for f in fields
    }
    values.update(
        {
            "ratlinalg.SubspaceQ.init.cells_in": tracer.subspace_cells_in / jobs,
            "ratlinalg.SubspaceQ.init.rank_ratio": tracer.subspace_dim_out
            / max(tracer.subspace_rows_in, 1),
            "action.algebra_matrix.terms": tracer.algebra_terms / jobs,
            "ratlinalg.MatQ.matmul.mults": tracer.matmul_mults / jobs,
            "cli.output_bytes": sum(r.output_bytes for r in results) / jobs,
            "ratlinalg.max_num_bits": tracer.max_num_bits,
            "trace.errors": tracer.error_count(),
            "trace.overhead": overhead,
        }
    )
    for layer, s in tracer.layer_self_s().items():
        values[f"layer.{layer}.self_s"] = s / jobs
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER}


def layer_shares(tracer: Tracer) -> dict:
    by_layer = tracer.layer_self_s()
    total = sum(by_layer.values()) or 1.0
    return {layer: round(s / total, 4) for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1])}


def top_spans(tracer: Tracer, k: int = 12) -> dict:
    jobs = tracer.jobs
    order = sorted(range(len(tracer.names)), key=lambda i: -tracer.self_s[i])[:k]
    return {tracer.names[i]: round(tracer.self_s[i] / jobs, 6) for i in order if tracer.self_s[i]}


# ------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def _run(args, workdir) -> int:
    try:
        build = WORKLOADS[args.workload]
        setups = [set_up(build, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    except (FileNotFoundError, ImportError) as e:
        print(f"bench: cannot set up: {e}", file=sys.stderr)
        return 2
    setup_s = statistics.median(s[0] for s in setups)
    iso, inputs = setups[-1][2:]
    problems = []
    if any(s[3].digests != inputs.digests for s in setups):
        problems.append("inputs differ between set-ups with the same seed")

    detail = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        tracer = Tracer()
        results, plain_s, traced_s = run_traced(iso.cli, inputs, args.seconds, tracer)
        overhead = traced_s / plain_s
        metrics = per_layer_metrics(tracer, results, overhead)
        if tracer.patched:
            problems.append("tracer left attributes patched")
        detail["layer_self_share"] = layer_shares(tracer)
        detail["top_self_s_per_job"] = top_spans(tracer)
        detail["errors_by_span"] = tracer.error_detail()
    else:
        results = run_plain(iso.cli, inputs, args.seconds, MIN_JOBS)
        metrics = end_to_end_metrics(setup_s, results)
        tail = metrics["job_tail_s"]["value"]
        detail["job_tail"] = {
            "percentile": TAIL_PERCENTILE,
            "samples": len(results),
            "samples_beyond": sum(r.wall_s * r.speed > tail for r in results),
        }
        detail["raw"] = raw_figures(results)
        detail["raw"]["setup_s"] = statistics.median(s[1] for s in setups)

    failures = [(r.label, r.reason) for r in results if r.reason]
    detail.update(
        {
            "jobs": len(results),
            "cycle_length": len(inputs.jobs),
            "failed_ratio": len(failures) / len(results),
            "first_failures": failures[:5],
            "problems": problems,
            "input_digest": sha256(json.dumps(inputs.digests, sort_keys=True).encode()),
            "input_digests": inputs.digests,
        }
    )
    print("detail " + json.dumps(detail))
    result = {
        "correct": not failures and not problems,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
