"""Generators for test actions of known decomposition.

Four kinds:

* ``regular``            the regular representation of Z/n (cyclic shift);
                         every irreducible appears with multiplicity one.
* ``paper-example``      the motivating family: G = Z/p^3 x Z/q^2 for primes
                         p, q, acting with prescribed multiplicities on the
                         four representation classes with kernels determined
                         by the characters (p^2, q), (0, q), (p^2, 0) and the
                         trivial one.
* ``semisimple``         block-diagonal sums of the standard integer models
                         of the irreducibles, with chosen multiplicities in
                         canonical irreducible order.
* ``random-conjugated``  a semisimple fixture conjugated by a seeded random
                         unimodular integer matrix, a product of integer
                         shears applied as row and column operations, so the
                         block structure is hidden but the answer is still
                         known exactly.

Every fixture records its expected multiplicities as ground truth.  Each
fixture computes the rational irreducibles of its group once, and validates
its generator matrices once, as the last step: a ``random-conjugated``
fixture is validated only after conjugation, since conjugating by an exact
unimodular matrix keeps the relations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .abgroup import FinAbGroup
from .actionfile import ActionFile, check_max_order
from .action import validate_action
from .chars import Character, char_kernel, irrep_model, rational_irreps
from .errors import ValidationError
from .numtheory import is_prime
from .ratlinalg import MatQ

__all__ = ["FixtureSpec", "make_fixture", "FIXTURE_KINDS"]


@dataclass(frozen=True)
class FixtureSpec:
    """Parameters for one fixture; unused fields may stay None."""

    kind: str
    n: int | None = None
    p: int | None = None
    q: int | None = None
    moduli: tuple[int, ...] | None = None
    multiplicities: tuple[int, ...] | None = None
    seed: int = 0
    max_dim: int = 24


def _block_diag(blocks: list[MatQ]) -> MatQ:
    """The block-diagonal matrix, as integer rows over the lcm of the
    blocks' denominators."""
    n = sum(b.rows for b in blocks)
    den = lcm(1, *(b.den for b in blocks))
    rows = []
    off = 0
    for b in blocks:
        s = den // b.den
        for r in b.num:
            rows.append([0] * off + [s * v for v in r] + [0] * (n - off - b.cols))
        off += b.rows
    return MatQ._raw(rows, den, ncols=n)


def _block_generators(group: FinAbGroup, irreps, mult) -> list[MatQ]:
    """Block-diagonal generator matrices with the given multiplicity per
    irreducible (canonical order)."""
    if len(mult) != len(irreps):
        raise ValidationError(
            f"expected {len(irreps)} multiplicities (one per irreducible class "
            f"of {list(group.moduli)}), got {len(mult)}"
        )
    if not {*map(type, mult)} <= {int}:
        raise ValidationError("multiplicities must be integers")
    if any(m < 0 for m in mult):
        raise ValidationError("multiplicities must be non-negative")
    if not any(mult):
        raise ValidationError("at least one multiplicity must be positive")
    models = [(irrep_model(w), m) for w, m in zip(irreps, mult) if m]
    gen_mats = []
    for j in range(group.rank):
        blocks = []
        for model, m in models:
            blocks.extend([model[j]] * m)
        gen_mats.append(_block_diag(blocks))
    return gen_mats


def _action_file(group: FinAbGroup, mats, irreps, mult, name: str) -> ActionFile:
    """Validate the generator matrices, once, and record the multiplicity
    of each irreducible as ground truth."""
    action = validate_action(group, mats, name=name)
    ground_truth = tuple((w.kernel.hnf_basis, m) for w, m in zip(irreps, mult))
    return ActionFile(action, ground_truth)


def _regular(spec: FixtureSpec, max_order: int | None) -> ActionFile:
    n = spec.n
    if n is None or n < 1:
        raise ValidationError("regular fixture needs an order n >= 1")
    group = FinAbGroup((n,))
    check_max_order(group, max_order)
    shift = MatQ(
        [[1 if (i - 1) % n == j else 0 for j in range(n)] for i in range(n)]
    )
    irreps = rational_irreps(group)
    return _action_file(group, [shift], irreps, (1,) * len(irreps), f"regular({n})")


def _paper_example(spec: FixtureSpec, max_order: int | None) -> ActionFile:
    p, q = spec.p, spec.q
    if p is None or q is None or p < 2 or q < 2:
        raise ValidationError("paper-example fixture needs two primes p, q")
    # the order first: trial division of a huge p would take minutes
    group = FinAbGroup((p ** 3, q ** 2))
    check_max_order(group, max_order)
    if not is_prime(p) or not is_prime(q):
        raise ValidationError("paper-example fixture needs two primes p, q")
    irreps = rational_irreps(group)
    index_of = {w.kernel: i for i, w in enumerate(irreps)}
    # The four distinguished classes, named by a character in each orbit.
    special = [
        Character(group, (p ** 2, q)),
        Character(group, (0, q)),
        Character(group, (p ** 2, 0)),
        Character(group, (0, 0)),
    ]
    mult = [0] * len(irreps)
    ms = (1, 1, 1, 1) if spec.multiplicities is None else spec.multiplicities
    if len(ms) != 4:
        raise ValidationError(
            "paper-example fixture takes 4 multiplicities "
            "(W, W1, W2, trivial)"
        )
    for chi, m in zip(special, ms):
        mult[index_of[char_kernel(chi)]] = m
    mats = _block_generators(group, irreps, mult)
    return _action_file(group, mats, irreps, mult, f"paper-example(p={p},q={q})")


def _conjugate_by_shears(mats: list[MatQ], rng: random.Random) -> list[MatQ]:
    """u @ m @ u^-1 for each m, u = S_1 ... S_k the product of k = 2*dim
    seeded integer shears S = I + c * E_ij (i != j, c = +-1; none at dim 1).

    S^-1 = I - c * E_ij, so S m S^-1 is row i += c * row j, then column
    j -= c * column i, on the integer numerators over m's denominator.  The
    shears are drawn first and applied last-drawn first: S_k stands next to m.
    """
    dim = mats[0].rows
    shears = []
    if dim > 1:
        for _ in range(2 * dim):
            i = rng.randrange(dim)
            j = rng.randrange(dim)
            while j == i:
                j = rng.randrange(dim)
            shears.append((i, j, rng.choice((-1, 1))))
    out = []
    for m in mats:
        rows = [list(r) for r in m.num]
        for i, j, c in reversed(shears):
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
        out.append(MatQ._raw(rows, m.den, ncols=dim))
    return out


def _random_multiplicities(irreps, rng: random.Random, max_dim: int):
    # The trivial class has degree 1, so a budget of 1 or more admits a class.
    if max_dim < 1:
        raise ValidationError(
            f"random-conjugated fixture needs --max-dim >= 1, got {max_dim}"
        )
    degrees = [w.degree for w in irreps]
    mult = [0] * len(irreps)
    budget = max_dim
    # Keep adding random irreducibles while the dimension budget allows.
    candidates = [i for i, d in enumerate(degrees) if d <= budget]
    while candidates:
        i = rng.choice(candidates)
        mult[i] += 1
        budget -= degrees[i]
        candidates = [i for i, d in enumerate(degrees) if d <= budget]
    return tuple(mult)


def _semisimple(spec: FixtureSpec, max_order: int | None) -> ActionFile:
    """A ``semisimple`` fixture, conjugated for ``random-conjugated``."""
    if not spec.moduli:
        raise ValidationError(f"{spec.kind} fixture needs group moduli")
    group = FinAbGroup(spec.moduli)
    check_max_order(group, max_order)
    irreps = rational_irreps(group)
    rng = random.Random(spec.seed)
    if spec.multiplicities is not None:
        mult = spec.multiplicities
    elif spec.kind == "semisimple":
        mult = (1,) * len(irreps)
    else:
        mult = _random_multiplicities(irreps, rng, spec.max_dim)
    mats = _block_generators(group, irreps, mult)
    if spec.kind == "random-conjugated":
        # u is unimodular, so the conjugates satisfy the relations exactly
        # when the blocks do: one validation, after conjugation, covers both
        mats = _conjugate_by_shears(mats, rng)
    name = f"{spec.kind}({','.join(map(str, group.moduli))}; seed={spec.seed})"
    return _action_file(group, mats, irreps, mult, name)


# Each kind: the FixtureSpec fields its positional parameters fill, the
# command-line options it reads, and its builder.
_KINDS = {
    "regular": (("n",), (), _regular),
    "paper-example": (("p", "q"), ("--multiplicities",), _paper_example),
    "semisimple": ((), ("--group", "--multiplicities", "--seed"), _semisimple),
    "random-conjugated":
        ((), ("--group", "--multiplicities", "--seed", "--max-dim"), _semisimple),
}
FIXTURE_KINDS = tuple(_KINDS)


def _kind(kind: str):
    if kind not in _KINDS:
        raise ValidationError(
            f"unknown fixture kind {kind!r} (choose from {', '.join(FIXTURE_KINDS)})"
        )
    return _KINDS[kind]


def _fixture_parameters(kind: str, count: int, options) -> tuple[str, ...]:
    """The FixtureSpec fields a kind's positional parameters fill, once an
    unknown kind, a wrong count, an option the kind does not read or the
    pair --max-dim and --multiplicities is refused."""
    names, takes, _ = _kind(kind)
    if count != len(names):
        takes_params = " ".join(names) or "none"
        raise ValidationError(
            f"{kind} fixture takes positional parameters: {takes_params} (got {count})"
        )
    for option in options:
        if option not in takes:
            raise ValidationError(f"{kind} fixture does not take {option}")
    # the budget only bounds random multiplicities, which given ones replace
    if "--max-dim" in options and "--multiplicities" in options:
        raise ValidationError(
            f"{kind} fixture does not take --max-dim with --multiplicities"
        )
    return names


def make_fixture(spec: FixtureSpec, max_order: int | None = None) -> ActionFile:
    """Build the fixture a spec describes.

    With ``max_order`` set, a larger group is refused before any matrix is
    built.
    """
    return _kind(spec.kind)[2](spec, max_order)
