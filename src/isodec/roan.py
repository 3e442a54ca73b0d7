"""Decomposition of a finite-order operator by the filtration of Roan type.

For an automorphism alpha of order d acting on a rational vector space, let
1 = d_0 < d_1 < ... < d_s = d be the orders of the eigenvalues that actually
occur (each d_i divides d).  Setting Y_0 = the whole space and, for i >= 1,

    Y_i  =  image of (1 - alpha^{d_{i-1}}) restricted to Y_{i-1},
    B_i  =  kernel  of (1 - alpha^{d_{i-1}}) inside Y_{i-1},

every Y_{i-1} splits as B_i + Y_i, alpha acts on B_i with all eigenvalues of
exact order d_{i-1}, and Y_s = 0.  The pieces B_i are exactly the nonzero
isotypical components of the cyclic action.  A cyclic group has one
rational irreducible per order, so ``verify_roan_matching`` looks up the
component of order d_i for each piece B_i and checks that the two are equal
subspaces, and that every component of an order the split did not produce
is zero.

``roan_decomposition`` finds the B_i without a characteristic polynomial,
by splitting the set of divisors of d.  A piece is carried as its basis
rows in Q^n, alpha restricted to it, and its candidates: the divisors e of
d with phi(e) <= its dim, as an eigenvalue of order e comes with its phi(e)
Galois conjugates.  A piece with several candidates is split by the e among
them that about half of them divide: the kernel of 1 - alpha^e is the part
where the eigenvalue orders divide e, and takes those candidates, and the
image takes the rest.  Both come out of one ``kernel_and_image`` at the
piece's own dimension.  alpha is restricted to each nonzero side, and the
side's rows are lifted to Q^n by one product.  A piece with one candidate e
is the B_i of d_i = e.  The d_i are the pieces' orders ascending, and dim
Y_i is n less the dims of the first i pieces.

Each piece is certified by Phi_e(alpha|B) = 0, the e-th cyclotomic
polynomial evaluated by Horner's rule; for an operator of finite order this
holds exactly when every eigenvalue on B has order e.  Every side must be
alpha-invariant (``restrict_operator`` checks it), and the stacked bases of
the pieces must span the whole space (one elimination), which fails when a
nonzero side runs out of candidates.  Together these imply alpha^d = 1, so
the full d-th power is formed only when a certificate fails, to tell an
operator that is not of order dividing d (PreconditionError) from a failed
internal check (InternalCheckError).
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroup import Subgroup
from .action import (
    GAction,
    IsotypicalReport,
    action_matrix,
    isotypical_decomposition,
)
from .errors import InternalCheckError, PreconditionError
from .numtheory import divisors, totient
from .ratlinalg import (
    MatQ,
    SubspaceQ,
    _dot_rows,
    _plus_identity,
    cyclotomic,
    image_space,  # unused; bench/tests/test_bench.py checks its traced binding
    kernel_and_image,
    restrict_operator,
)

__all__ = [
    "roan_decomposition",
    "verify_roan_matching",
    "RoanReport",
    "RoanMatchReport",
]


@dataclass(frozen=True)
class RoanReport:
    """The filtration dims and kernel pieces for one finite-order operator."""

    dim: int
    exponent: int
    orders: tuple[int, ...]
    filtration_dims: tuple[int, ...]
    components: tuple[tuple[int, SubspaceQ], ...]


def roan_decomposition(m: MatQ, d: int) -> RoanReport:
    """Split a space under an order-d operator along the eigenvalue orders.

    Every structural claim of the construction is certified exactly (see the
    module docstring).  Raises PreconditionError if m is not square or
    m**d != I, and InternalCheckError if a certificate fails although
    m**d = I.
    """
    if m.rows != m.cols:
        raise PreconditionError("matrix must be square")
    if d >= 1:
        try:
            return _split(m, d)
        except (InternalCheckError, PreconditionError) as exc:
            # restrict_operator raises PreconditionError on a side that is
            # not invariant.  The certificates imply m**d = I, so that power
            # is formed only here, to name the cause of a failure.
            if (m ** d).is_identity():
                raise InternalCheckError(str(exc)) from exc
    raise PreconditionError(f"matrix does not satisfy M^{d} = I")


def _split(m: MatQ, d: int) -> RoanReport:
    n = m.rows
    pieces = [(MatQ.identity(n).num, m, divisors(d))]  # rows, alpha on it, candidates
    leaves = []
    while pieces:
        rows, a, cands = pieces.pop()
        cands = [e for e in cands if totient(e) <= a.rows]
        if len(cands) == 1:
            e = cands[0]
            if not _vanishes_at(cyclotomic(e), a):
                raise InternalCheckError(
                    f"kernel piece for order {e} has an eigenvalue of another order"
                )
            leaves.append((e, SubspaceQ(n, rows)))
        elif cands:  # none are left on a 0 x 0 piece, or on input not of order d
            gaps = [abs(2 * sum(not c % f for f in cands) - len(cands)) for c in cands]
            e = cands[gaps.index(min(gaps))]
            # a^e - 1 has the kernel and image of 1 - a^e
            sides = kernel_and_image(_plus_identity(a**e, -1), SubspaceQ.full(a.rows))
            for side, divides in zip(sides, (True, False)):
                if side.dim:
                    lifted = _dot_rows(side.basis.num, rows, n)
                    part = [f for f in cands if (e % f == 0) == divides]
                    pieces.append((lifted, restrict_operator(a, side), part))
    leaves.sort(key=lambda leaf: leaf[0])
    dims = [n - sum(b.dim for _, b in leaves[:i]) for i in range(len(leaves) + 1)]
    if SubspaceQ(n, [row for _, b in leaves for row in b.basis.num]).dim != n:
        raise InternalCheckError("kernel pieces do not span the whole space")
    return RoanReport(n, d, tuple(e for e, _ in leaves), tuple(dims), tuple(leaves))


def _vanishes_at(monic: tuple[int, ...], a: MatQ) -> bool:
    """Whether a monic integer polynomial (ascending coefficients, degree
    >= 1) is zero at the square matrix a, by Horner's rule."""
    value = _plus_identity(a, monic[-2])
    for c in reversed(monic[:-2]):
        value = _plus_identity(value @ a, c)
    return value.is_zero()


@dataclass(frozen=True)
class RoanMatchReport:
    """The subspace-by-subspace match between the filtration pieces of a
    cyclic action and its isotypical components."""

    roan: RoanReport
    matches: tuple[tuple[int, "Subgroup", int], ...]  # (order, kernel, dim)
    zero_components: tuple["Subgroup", ...]
    decomposition: IsotypicalReport  # the decomposition matched against


def _cyclic_roan(action: GAction) -> RoanReport:
    """Roan's decomposition of alpha = rho(x), x a generator of the cyclic G."""
    group = action.group
    x = Subgroup.from_lattice_rows(group, ()).quotient_generator()
    if x is None:
        raise PreconditionError("Roan's decomposition requires a cyclic group")
    return roan_decomposition(action_matrix(action, x), group.order)


def verify_roan_matching(action: GAction) -> RoanMatchReport:
    """For a cyclic group action: check that the filtration pieces are
    exactly the nonzero isotypical components, as equal subspaces.

    A cyclic group has one rational irreducible per order, so the
    components are looked up by order: the piece of order d_i must equal
    the component of order d_i, and every component of an order the split
    did not produce must vanish.  Any failure raises InternalCheckError.
    """
    roan = _cyclic_roan(action)
    decomposition = isotypical_decomposition(action)
    by_order = {c.irrep.order: c for c in decomposition.components}

    matches = []
    for d_i, b in roan.components:
        c = by_order.pop(d_i)
        if c.subspace != b:
            raise InternalCheckError(
                f"filtration piece of order {d_i} differs from the isotypical "
                "component of that order"
            )
        matches.append((d_i, c.irrep.kernel, b.dim))
    if any(c.multiplicity for c in by_order.values()):
        raise InternalCheckError(
            "nonzero isotypical component not produced by the filtration"
        )
    zero = tuple(c.irrep.kernel for c in by_order.values())
    return RoanMatchReport(roan, tuple(matches), zero, decomposition)
