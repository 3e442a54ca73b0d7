"""The benchmark's four workloads: seeded inputs, CLI jobs and output checks.

Each workload is a closed loop with one client: a fixed cycle of CLI jobs,
each started when the previous one ends.  A builder turns a seed into the
cycle.  The seed picks the random conjugations, the multiplicities (which
classes of each degree hold the pieces of a fixed profile) and the order of
the jobs in the cycle; it never changes which groups, kinds, dimensions or
piece sizes are run, so every seed does the same amount of work up to the
shape of its random matrices.

A check returns None for a good job and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Outcome:
    """What one CLI job did."""

    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    output: bytes  # the bytes the job produced: its stdout, or the file it wrote


@dataclass
class Job:
    label: str
    argv: list[str]
    check: Callable[[Outcome], "str | None"]
    output_path: str | None = None  # set for jobs that write a file


@dataclass
class Inputs:
    jobs: list[Job]
    digests: dict[str, str] = field(default_factory=dict)  # input -> sha256


# Every run reports the p75 of job times and runs at least MIN_JOBS jobs (in
# whole cycles), so at least ten samples always lie beyond the p75.
TAIL_PERCENTILE = 75
MIN_JOBS = 40


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def draw_multiplicities(degrees, dim: int, rng: random.Random) -> tuple[int, ...]:
    """Random multiplicities whose dimensions add up to exactly ``dim``.

    Needs a degree-1 class (the trivial one always is), so the budget can
    always be spent to zero.
    """
    mult = [0] * len(degrees)
    budget = dim
    while budget:
        i = rng.choice([i for i, d in enumerate(degrees) if d <= budget])
        mult[i] += 1
        budget -= degrees[i]
    return tuple(mult)


def seeded_multiplicities(degrees, dim: int, label: str, rng: random.Random) -> tuple[int, ...]:
    """Multiplicities for one input: a profile fixed by ``label``, shuffled by
    the seed among the classes of equal degree.

    Every seed thus gets pieces of the same number and sizes, so the work
    stays the same; only which classes hold them changes.
    """
    base = draw_multiplicities(degrees, dim, random.Random(f"profile/{label}"))
    mult = list(base)
    classes: dict[int, list[int]] = {}
    for i, d in enumerate(degrees):
        classes.setdefault(d, []).append(i)
    for same_degree in classes.values():
        values = [base[i] for i in same_degree]
        rng.shuffle(values)
        for i, v in zip(same_degree, values):
            mult[i] = v
    return tuple(mult)


def _kernel_key(kernel_jsonable) -> str:
    return json.dumps(kernel_jsonable)


def _ground_truth_keys(ground_truth) -> list[tuple[str, int]]:
    return [(_kernel_key(k.to_jsonable()), m) for k, m in ground_truth]


def _write_fixture(iso, spec, path: str) -> tuple[object, str]:
    af = iso.make_fixture(spec)
    data = iso.serialize_action_file(af).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return af, sha256(data)


def _conjugated_spec(iso, moduli, dim, label, rng):
    group = iso.FinAbGroup(tuple(moduli))
    degrees = [w.degree for w in iso.rational_irreps(group)]
    mult = seeded_multiplicities(degrees, dim, label, rng)
    return iso.FixtureSpec(
        "random-conjugated",
        moduli=tuple(moduli),
        multiplicities=mult,
        seed=rng.randrange(1 << 30),
    )


def _slug(moduli) -> str:
    return "x".join(map(str, moduli))


# ------------------------------------------------------------ cyclic-verify

CYCLIC_REGULAR = (12, 16, 22, 24)
CYCLIC_CONJUGATED = ((24, 16), (36, 16), (48, 16), (60, 16), (72, 16), (60, 20), (72, 20))


def _check_verify(out: Outcome) -> str | None:
    if out.rc != 0:
        return f"exit code {out.rc}: {out.stderr.strip()[:200]}"
    lines = out.stdout.splitlines()
    for want in ("verify: OK", "ground truth: ok"):
        if want not in lines:
            return f"missing line {want!r}"
    return None


def build_cyclic_verify(seed: int, workdir: str, iso) -> Inputs:
    rng = _rng("cyclic-verify", seed)
    specs = [(f"regular({n})", iso.FixtureSpec("regular", n=n)) for n in CYCLIC_REGULAR]
    for n, dim in CYCLIC_CONJUGATED:
        label = f"conjugated(Z/{n},dim {dim})"
        specs.append((label, _conjugated_spec(iso, (n,), dim, label, rng)))
    inputs = Inputs([])
    for i, (label, spec) in enumerate(specs):
        path = os.path.join(workdir, f"cyclic-{i}.json")
        _, digest = _write_fixture(iso, spec, path)
        inputs.digests[label] = digest
        inputs.jobs.append(Job(f"verify {label}", ["verify", path], _check_verify))
    rng.shuffle(inputs.jobs)
    return inputs


# ----------------------------------------------------------- wide-decompose

WIDE_GROUPS = (
    ((6, 6), 16),
    ((6, 6), 24),
    ((2,) * 6, 12),
    ((4, 4, 4), 12),
    ((12, 12), 12),
    ((12, 12), 16),
    ((15, 15), 12),
    ((15, 15), 16),
    ((20, 20), 8),
    ((6, 6, 6), 8),
    ((30, 30), 6),
)


def _decompose_check(expected: list[tuple[str, int]], dim: int):
    def check(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit code {out.rc}: {out.stderr.strip()[:200]}"
        try:
            report = json.loads(out.stdout)
            got = [
                (_kernel_key(c["kernel_hnf"]), c["multiplicity"])
                for c in report["components"]
            ]
            dims = sum(c["dim"] for c in report["components"])
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable --json output: {e}"
        if sorted(got) != sorted(expected):
            return "multiplicities differ from the fixture's ground truth"
        if dims != dim or report.get("dim") != dim:
            return f"component dimensions add up to {dims}, action dim is {dim}"
        return None

    return check


def build_wide_decompose(seed: int, workdir: str, iso) -> Inputs:
    rng = _rng("wide-decompose", seed)
    inputs = Inputs([])
    for i, (moduli, dim) in enumerate(WIDE_GROUPS):
        label = f"conjugated({_slug(moduli)},dim {dim})"
        path = os.path.join(workdir, f"wide-{i}.json")
        af, digest = _write_fixture(iso, _conjugated_spec(iso, moduli, dim, label, rng), path)
        inputs.digests[label] = digest
        check = _decompose_check(_ground_truth_keys(af.ground_truth), af.action.dim)
        inputs.jobs.append(Job(f"decompose {label}", ["decompose", "--json", path], check))
    rng.shuffle(inputs.jobs)
    return inputs


# -------------------------------------------------------- fixture-roundtrip

FIXTURE_CONJUGATED = (
    ((48,), 32),
    ((60,), 28),
    ((36,), 24),
    ((4, 4), 24),
    ((2, 2, 2), 24),
    ((6, 6), 16),
)
FIXTURE_REGULAR = (50, 30)
FIXTURE_SEMISIMPLE = ((6, 6),)
FIXTURE_PAPER = ((2, 5), (3, 2))


def _paper_kernels(iso, p: int, q: int):
    """The kernels of the paper-example's four classes (W, W1, W2, trivial)."""
    group = iso.FinAbGroup((p ** 3, q ** 2))
    exps = ((p ** 2, q), (0, q), (p ** 2, 0), (0, 0))
    return group, {iso.char_kernel(iso.Character(group, e)) for e in exps}


class _RoundTrip:
    """Checks fixture jobs: the file reloads with the expected ground truth,
    and every later run of the same spec writes the same bytes."""

    def __init__(self, iso):
        self.iso = iso
        self.first: dict[str, str] = {}  # job label -> digest of its first output

    def check_for(self, label: str, expected: list[tuple[str, int]], dim: int):
        def check(out: Outcome) -> str | None:
            if out.rc != 0:
                return f"exit code {out.rc}: {out.stderr.strip()[:200]}"
            digest = sha256(out.output)
            if label in self.first:
                if digest != self.first[label]:
                    return "output differs from the first run of the same spec"
                return None
            try:
                af = self.iso.load_action_file(out.output.decode("utf-8"))
            except (self.iso.ValidationError, UnicodeDecodeError) as e:
                return f"written file does not reload: {e}"
            if af.ground_truth is None or _ground_truth_keys(af.ground_truth) != expected:
                return "reloaded ground truth differs from the spec"
            if af.action.dim != dim:
                return f"reloaded dim {af.action.dim}, expected {dim}"
            self.first[label] = digest
            return None

        return check


def build_fixture_roundtrip(seed: int, workdir: str, iso) -> Inputs:
    rng = _rng("fixture-roundtrip", seed)
    checker = _RoundTrip(iso)
    inputs = Inputs([])

    def add(label, argv, irreps, mult):
        expected = [(_kernel_key(w.kernel.hnf_basis.to_jsonable()), m) for w, m in zip(irreps, mult)]
        dim = sum(w.degree * m for w, m in zip(irreps, mult))
        path = os.path.join(workdir, f"fixture-{len(inputs.jobs)}.json")
        argv = ["fixture", *argv, "-o", path]
        inputs.digests[label] = sha256(json.dumps(argv[:-2]).encode("utf-8"))
        inputs.jobs.append(Job(f"fixture {label}", argv, checker.check_for(label, expected, dim), path))

    for moduli, dim in FIXTURE_CONJUGATED:
        label = f"random-conjugated({_slug(moduli)},dim {dim})"
        irreps = iso.rational_irreps(iso.FinAbGroup(moduli))
        mult = seeded_multiplicities([w.degree for w in irreps], dim, label, rng)
        argv = [
            "random-conjugated",
            "--group", ",".join(map(str, moduli)),
            "--multiplicities", ",".join(map(str, mult)),
            "--seed", str(rng.randrange(1 << 30)),
        ]
        add(label, argv, irreps, mult)
    for n in FIXTURE_REGULAR:
        irreps = iso.rational_irreps(iso.FinAbGroup((n,)))
        add(f"regular({n})", ["regular", str(n)], irreps, [1] * len(irreps))
    for moduli in FIXTURE_SEMISIMPLE:
        irreps = iso.rational_irreps(iso.FinAbGroup(moduli))
        argv = ["semisimple", "--group", ",".join(map(str, moduli))]
        add(f"semisimple({_slug(moduli)})", argv, irreps, [1] * len(irreps))
    for p, q in FIXTURE_PAPER:
        group, kernels = _paper_kernels(iso, p, q)
        irreps = iso.rational_irreps(group)
        mult = [int(w.kernel in kernels) for w in irreps]
        add(f"paper-example({p},{q})", ["paper-example", str(p), str(q)], irreps, mult)
    rng.shuffle(inputs.jobs)
    return inputs


# ------------------------------------------------------------------ lattice

# sha256 of each job's stdout.  These outputs are fixed by the group alone,
# so a change in them is a change in the CLI's output bytes.
LATTICE_DIGESTS = {
    "subgroups 2x2x2x2x2x2": "947e0ea99cc51d1d719fc89847bca37e47a58e3b4408b06f796c83a74026b578",
    "subgroups 2x2x2x2x2x2 --kernels": "19efec52e044c5c7287f2e27dd84d33fda5e2d72aed64f2c89d4a5c3db7e877a",
    "subgroups 2x2x2x2x2x2 --json": "57515e2c5799183d21f1387473c4074df8e655afea7fcc5fc66294e5e1f186fd",
    "subgroups 8x8x8": "0a4dd74cb13ca3dab1c4c1a2127b72a4b55460fb121e08d7fb29305ec866e765",
    "subgroups 8x8x8 --kernels": "0ac61e12c26fe5af44c7867accf45380efb0dfb58871cb8ca2cd1f516b99028d",
    "subgroups 8x8x8 --json": "1cd648b1705aee787177058722cc235e48f839afe6f49edfae827538f4ece6c4",
    "subgroups 6x6x6": "aa8056ad2be06407f42faabc7adb961ce490a8ca18fcb2552d09bf8be9d2579c",
    "subgroups 6x6x6 --kernels": "45ec29d52eef0b3cdc0b9402c3d90b563d0d72b801e414f1892acaaffe72249c",
    "subgroups 6x6x6 --json": "01953d7b3a6918009654f0037fb1ecc520ad66300c41211060cfeceb2e8c5b7c",
    "subgroups 100x100": "dd15d03c80f5ca5f184de037ff42c3f17acef14043559ff681a8385749081232",
    "subgroups 100x100 --kernels": "b30e387497199d4ed2f8dd7bdab6e0d2e37643c6f1bbfe3f5eac362d4ccd5a06",
    "subgroups 100x100 --json": "eb5bcb0fedca989bfc2e3f2dd920122f29b6eedadfacc81cc184135a9a6d80b4",
    "subgroups 2x2x2x2x2": "db1a32746511abd6b681d86fa34aae99d8176a2d5ff8dc32c52610adb9754827",
    "subgroups 2x2x2x2x2 --kernels": "da502ef8cefa9e5c5c8122d0baf2e7b360a186a189f5fac3cbadb12894b33f79",
    "subgroups 2x2x2x2x2 --json": "e7a5872c96d0eb69d1e78da469ac8a2c42afffff9c1a9d74703df522b70c42e8",
    "characters 2x2x2x2x2x2 --json": "78d82338937e2cec0ccd5623d0388a35409de29bbc19f33facf0fc62586746eb",
    "characters 8x8x8": "d39dd2b0ea803adc7ffcec86e63a783aec8e4fd5352a3d43279e2bb291e6faac",
    "characters 6x6x6 --json": "d4572123dc4b78069ad0ae7a1d0553f4edc543fba2457ab955f5927b81cf2b7f",
    "characters 100x100": "0db6ecdd6019357e3b9740a1ccb21d058f335a52ab2e42c283a320bebe99c53e",
}


def _digest_check(label: str):
    expected = LATTICE_DIGESTS[label]

    def check(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit code {out.rc}: {out.stderr.strip()[:200]}"
        if sha256(out.output) != expected:
            return "output digest differs from the recorded one"
        return None

    return check


def build_lattice(seed: int, workdir: str, iso) -> Inputs:
    rng = _rng("lattice", seed)
    inputs = Inputs([])
    for label in LATTICE_DIGESTS:
        command, group, *flags = label.split()
        argv = [command, "--group", group.replace("x", ","), *flags]
        inputs.digests[label] = sha256(json.dumps(argv).encode("utf-8"))
        inputs.jobs.append(Job(label, argv, _digest_check(label)))
    rng.shuffle(inputs.jobs)
    return inputs


# name -> builder(seed, workdir, isodec) -> Inputs
WORKLOADS = {
    "cyclic-verify": build_cyclic_verify,
    "wide-decompose": build_wide_decompose,
    "fixture-roundtrip": build_fixture_roundtrip,
    "lattice": build_lattice,
}
