"""Decomposition of a finite-order operator by the filtration of Roan type.

For an automorphism alpha of order d acting on a rational vector space, let
1 = d_0 < d_1 < ... < d_s = d be the orders of the eigenvalues that actually
occur (each d_i divides d).  Setting Y_0 = the whole space and, for i >= 1,

    Y_i  =  image of (1 - alpha^{d_{i-1}}) restricted to Y_{i-1},
    B_i  =  kernel  of (1 - alpha^{d_{i-1}}) inside Y_{i-1},

every Y_{i-1} splits as B_i + Y_i, alpha acts on B_i with all eigenvalues of
exact order d_{i-1}, and Y_s = 0.  The pieces B_i are exactly the nonzero
isotypical components of the cyclic action, which ``verify_roan_matching``
checks subspace-by-subspace against the idempotent-based decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import (
    GAction,
    IsotypicalReport,
    action_matrix,
    isotypical_decomposition,
)
from .errors import InternalCheckError, PreconditionError
from .numtheory import divisors
from .ratlinalg import (
    MatQ,
    SubspaceQ,
    char_poly,
    cyclotomic,
    image_space,  # unused; bench/tests/test_bench.py checks its traced binding
    kernel_and_image,
    restrict_operator,
)

__all__ = [
    "eigenvalue_orders",
    "roan_decomposition",
    "verify_roan_matching",
    "RoanReport",
    "RoanMatchReport",
]


def eigenvalue_orders(m: MatQ, d: int) -> tuple[int, ...]:
    """The orders of the eigenvalues of a matrix with m**d = I, ascending.

    Factors the characteristic polynomial into cyclotomics by repeated exact
    division (the only possible factors when m**d = I), returning each order
    that occurs at least once.
    """
    if m.rows != m.cols:
        raise PreconditionError("matrix must be square")
    if d < 1 or not (m ** d).is_identity():
        raise PreconditionError(f"matrix does not satisfy M^{d} = I")
    if m.rows == 0:
        return ()
    p = char_poly(m)
    orders = []
    for e in divisors(d):
        phi = cyclotomic(e)
        found = False
        while True:
            q, r = divmod(p, phi)
            if not r.is_zero():
                break
            p = q
            found = True
        if found:
            orders.append(e)
    if p.degree != 0:
        raise InternalCheckError(
            "characteristic polynomial did not factor into cyclotomics"
        )
    return tuple(orders)


@dataclass(frozen=True)
class RoanReport:
    """The filtration and its kernel pieces for one finite-order operator."""

    dim: int
    exponent: int
    orders: tuple[int, ...]
    filtration: tuple[SubspaceQ, ...]
    components: tuple[tuple[int, SubspaceQ], ...]

    def to_jsonable(self) -> dict:
        return {
            "dim": self.dim,
            "exponent": self.exponent,
            "orders": list(self.orders),
            "filtration_dims": [y.dim for y in self.filtration],
            "components": [
                {"order": d, "dim": s.dim, "basis": s.basis.to_jsonable()}
                for d, s in self.components
            ],
        }


def roan_decomposition(m: MatQ, d: int) -> RoanReport:
    """Split a space under an order-d operator along the eigenvalue orders.

    Verifies, exactly, every structural claim of the construction: each B_i
    is alpha-invariant with all eigenvalues of exact order d_{i-1}, the
    filtration is strictly compatible (dim Y_{i-1} = dim B_i + dim Y_i),
    and the final term vanishes.
    """
    orders = eigenvalue_orders(m, d)
    n = m.rows
    eye = MatQ.identity(n)
    y = SubspaceQ.full(n)
    filtration = [y]
    components = []
    for d_i in orders:
        t = eye - (m ** d_i)
        b, y_next = kernel_and_image(t, y)
        if b.dim + y_next.dim != y.dim:
            raise InternalCheckError("filtration step is not a direct splitting")
        if not y.contains_subspace(y_next):
            raise InternalCheckError("filtration is not decreasing")
        restricted = restrict_operator(m, b) if b.dim else None
        if restricted is not None:
            sub_orders = eigenvalue_orders(restricted, d)
            if sub_orders != (d_i,):
                raise InternalCheckError(
                    f"kernel piece for order {d_i} has eigenvalue orders {sub_orders}"
                )
        components.append((d_i, b))
        y = y_next
        filtration.append(y)
    if y.dim != 0:
        raise InternalCheckError("filtration does not terminate at zero")
    if sum(b.dim for _, b in components) != n:
        raise InternalCheckError("kernel pieces do not add up to the whole space")
    return RoanReport(n, d, orders, tuple(filtration), tuple(components))


@dataclass(frozen=True)
class RoanMatchReport:
    """The subspace-by-subspace match between the filtration pieces of a
    cyclic action and its isotypical components."""

    roan: RoanReport
    matches: tuple[tuple[int, "Subgroup", int], ...]  # (order, kernel, dim)
    zero_components: tuple["Subgroup", ...]
    decomposition: IsotypicalReport  # the decomposition matched against

    def to_jsonable(self) -> dict:
        return {
            "roan": self.roan.to_jsonable(),
            "matches": [
                {
                    "order": d,
                    "kernel_hnf": k.hnf_basis.to_jsonable(),
                    "dim": dim,
                }
                for d, k, dim in self.matches
            ],
            "zero_components": [
                {"kernel_hnf": k.hnf_basis.to_jsonable()} for k in self.zero_components
            ],
        }


def verify_roan_matching(action: GAction) -> RoanMatchReport:
    """For a cyclic group action: check that the filtration pieces are
    exactly the nonzero isotypical components, as equal subspaces.

    Each kernel piece of order d_i must coincide with the component of the
    unique irreducible whose quotient has order d_i and which is nonzero;
    all other components must vanish.  Any failure raises InternalCheckError.
    """
    from .abgroup import Subgroup, index_and_quotient

    group = action.group
    if not group.is_cyclic():
        raise PreconditionError("Roan's decomposition requires a cyclic group")
    info = index_and_quotient(group, Subgroup.trivial(group))
    alpha = action_matrix(action, info.generator)
    roan = roan_decomposition(alpha, group.order)
    decomposition = isotypical_decomposition(action)

    matches = []
    matched = set()
    for d_i, b in roan.components:
        hits = [
            c
            for c in decomposition.components
            if c.subspace == b and c.multiplicity
        ]
        if len(hits) != 1:
            raise InternalCheckError(
                f"filtration piece of order {d_i} matches {len(hits)} isotypical "
                "components (expected exactly one)"
            )
        c = hits[0]
        if c.irrep.order != d_i:
            raise InternalCheckError(
                f"filtration piece of order {d_i} matched a component of order "
                f"{c.irrep.order}"
            )
        matched.add(c.irrep.kernel)
        matches.append((d_i, c.irrep.kernel, b.dim))
    zero = []
    for c in decomposition.components:
        if c.irrep.kernel in matched:
            continue
        if c.multiplicity:
            raise InternalCheckError(
                "nonzero isotypical component not produced by the filtration"
            )
        zero.append(c.irrep.kernel)
    return RoanMatchReport(roan, tuple(matches), tuple(zero), decomposition)
