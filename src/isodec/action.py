"""Group actions on rational vector spaces and isotypical decomposition.

A ``GAction`` is a representation rho: G -> GL_m(Q) given by one matrix per
standard generator of G.  The abelian variety with G-action is modeled up to
isogeny by this rational representation; abelian subvarieties correspond to
G-invariant rational subspaces.

The three geometric constructions:

* ``fixed_subvariety(A, H)``           the image of p_H (the fixed part A^H),
* ``complementary_subvariety(A, K, H)`` the image of p_K - p_H, i.e. the
  complement of A^H inside A^K (defined for K contained in H),
* ``isotypical_component(A, W)``       the component associated to the
  irreducible rational representation W with kernel K, computed two
  independent ways and cross-checked:

    (1) as the intersection of the complements of A^H in A^K over all
        minimal overgroups H of K (the defining formula), and
    (2) as the image of the central idempotent e_W.

How the matrices are formed.  Every rho(g) comes from one memo per action,
element index -> rho(g), which starts out holding the identity; each new
entry costs one product.  It is filled two ways: by a running product along
a step, rho(g + s) = rho(g) @ rho(s) (validation and the cyclic factors
below), and by ``action_matrix``, which walks back from g to an element
already held and multiplies forward by generator matrices.  Validation forms
rho only on the Sylow subgroups of G and on the walks to their generators,
not on all of G.

No idempotent is summed over all of G.  For a subgroup H, p_H is the product
of one cyclic factor per HNF row h of H, each the average of rho(j * h) over
j < ord(h) (p_A p_B = p_{A+B} in an abelian group).  Route (1) takes images
of these p_H and of differences p_K - p_H.  Route (2) writes
e_W = p_K * (1/n) sum_{j<n} c_n(j) rho(j * x), for n = [G:K], x a generator
of G/K and c_n the Ramanujan sum: n matrices and one dim^3 product beyond
p_K.  When |G| <= n + |K| + dim (the regular representation, say) that
product costs more than the |G|-term sum, and e_W is expanded as
``algebra_matrix(A, central_idempotent(W))`` instead.  Both forms are the
same element of Q[G], so both give the same matrix.

``isotypical_decomposition`` assembles all components, checks that dimensions
are additive and exhaust the space, and derives multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .abgroup import (
    FinAbGroup,
    GroupElement,
    Subgroup,
    _minimal_overgroups_from_generator,
    index_and_quotient,
    subgroup_from_generators,
)
from .chars import RationalIrrep, ramanujan_sum, rational_irreps
from .errors import InternalCheckError, PreconditionError, ValidationError
from .numtheory import factorint, prime_divisors
from .qalgebra import GroupAlgebraElem, central_idempotent
from .ratlinalg import MatQ, SubspaceQ, image_space, intersect_spaces, sum_spaces

__all__ = [
    "GAction",
    "validate_action",
    "action_matrix",
    "algebra_matrix",
    "fixed_subvariety",
    "complementary_subvariety",
    "isotypical_component",
    "isotypical_decomposition",
    "IsotypicalComponent",
    "IsotypicalReport",
]


@dataclass(frozen=True)
class GAction:
    """A rational representation of a finite abelian group.

    Build with ``validate_action``; the constructor assumes the matrices
    already satisfy the generator relations and commute.
    """

    group: FinAbGroup
    gen_matrices: tuple[MatQ, ...]
    dim: int
    faithful: bool
    action_kernel: Subgroup
    warnings: tuple[str, ...] = ()
    name: str | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        # the memo of rho: element index -> rho(g), never without the identity
        self._cache.setdefault("rho", {0: MatQ.identity(self.dim)})

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"GAction({self.group.moduli} on Q^{self.dim}{label})"


def validate_action(group: FinAbGroup, matrices, name: str | None = None) -> GAction:
    """Check generator matrices and assemble a GAction.

    Raises ValidationError if the count is wrong, a matrix is not square of
    the common size, a generator relation M_j ** n_j != I fails, or two
    generator matrices do not commute.  A non-faithful action is legal but
    recorded with a warning (components for representations that the kernel
    does not fix are forced to zero).

    The action kernel K is the sum of its Sylow parts K & G_p, with G_p
    generated by (n_j / p^v_p(n_j)) * e_j.  So rho is formed, into the
    action's memo, only on each G_p and on the way to its generators, not on
    all of G (unless G is a p-group).
    """
    mats = tuple(matrices)
    k = group.rank
    if len(mats) != k:
        raise ValidationError(f"expected {k} generator matrices, got {len(mats)}")
    if any(not isinstance(m, MatQ) for m in mats):
        raise ValidationError("generator matrices must be rational matrices")
    dim = mats[0].rows
    for j, m in enumerate(mats):
        if m.rows != m.cols:
            raise ValidationError(f"generator {j + 1}: matrix is not square")
        if m.rows != dim:
            raise ValidationError(
                f"generator {j + 1}: size {m.rows} differs from generator 1 size {dim}"
            )
    for j, (m, n) in enumerate(zip(mats, group.moduli)):
        if not (m ** n).is_identity():
            raise ValidationError(f"generator {j + 1}: M^{n} != I")
    for i in range(k):
        for j in range(i + 1, k):
            if mats[i] @ mats[j] != mats[j] @ mats[i]:
                raise ValidationError(f"generators {i + 1} and {j + 1} do not commute")

    rho = {0: MatQ.identity(dim)}
    kernel_gens = []
    for p in prime_divisors(group.order):
        sylow = [((0,) * k, rho[0])]
        for j, n in enumerate(group.moduli):
            q = p ** dict(factorint(n)).get(p, 0)
            if q == 1:
                continue
            s = tuple(n // q if t == j else 0 for t in range(k))
            step = _walk(rho, group, mats, s)
            sylow = [e for g, _ in sylow for e in _run(rho, group, g, s, step, q)]
        kernel_gens += [g for g, m in sylow if m.is_identity()]
    action_kernel = subgroup_from_generators(group, kernel_gens)
    faithful = action_kernel.order == 1
    warnings = ()
    if not faithful:
        warnings = (
            "action is not faithful: a subgroup of order "
            f"{action_kernel.order} acts trivially",
        )
    return GAction(
        group, mats, dim, faithful, action_kernel, warnings, name, {"rho": rho}
    )


def _run(rho: dict, group: FinAbGroup, g, s, step: MatQ, count: int):
    """(exps, rho) of g + j * s for j < count, for exponent tuples g and s
    with rho(g) in the memo and step = rho(s).

    A running product: each entry not yet in the memo costs one product
    rho(g + (j-1) s) @ step, and is stored.
    """
    cur = rho[group.index_of(g)]
    for j in range(count):
        if j:
            g = tuple((a + e) % n for a, e, n in zip(g, s, group.moduli))
            i = group.index_of(g)
            m = rho.get(i)
            if m is None:
                m = rho[i] = cur @ step
            cur = m
        yield g, cur


def _walk(rho: dict, group: FinAbGroup, mats, exps) -> MatQ:
    """rho of the element with these exponents, through the memo.

    Walks back from it, lowering its last nonzero coordinate, to an element
    already held, then forward by generator matrices: one product per new
    entry.
    """
    i, exps, path = group.index_of(exps), list(exps), []
    while i not in rho:
        j = max(t for t, e in enumerate(exps) if e)
        path.append((i, j))
        exps[j] -= 1
        i = group.index_of(exps)
    m = rho[i]
    for i, j in reversed(path):
        m = rho[i] = m @ mats[j]
    return m


def action_matrix(action: GAction, g: GroupElement) -> MatQ:
    """rho(g), memoized per action (see ``_walk``)."""
    if g.group != action.group:
        raise PreconditionError("element of a different group")
    return _walk(action._cache["rho"], action.group, action.gen_matrices, g.exps)


def _combination(dim: int, terms, den: int) -> MatQ:
    """(1/den) * the sum of c * M over (c, M) pairs, integer c, dim x dim M.

    Accumulates integer numerators over a running common denominator (the
    lcm of the matrices' denominators), so the sum is exact and builds no
    Fractions.
    """
    acc = [[0] * dim for _ in range(dim)]
    acc_den = 1
    for num, m in terms:
        new_den = lcm(acc_den, m.den)
        s = new_den // acc_den
        t = num * (new_den // m.den)
        if s == 1:
            for r, mr in zip(acc, m.num):
                for j, v in enumerate(mr):
                    if v:
                        r[j] += t * v
        else:
            for r, mr in zip(acc, m.num):
                for j in range(dim):
                    r[j] = r[j] * s + t * mr[j]
        acc_den = new_den
    return MatQ._raw(acc, acc_den * den, dim)


def algebra_matrix(action: GAction, x: GroupAlgebraElem) -> MatQ:
    """The matrix of a group-algebra element: sum of x(g) * rho(g).

    One term per nonzero coefficient, so the cost grows with the support of
    x (up to |G|) times dim^2.  Read in index order, each rho(g) not yet in
    the memo costs one product.
    """
    if x.group != action.group:
        raise PreconditionError("group algebra element of a different group")
    terms = (
        (num, action_matrix(action, g))
        for g, num in zip(action.group.elements(), x.nums)
        if num
    )
    return _combination(action.dim, terms, x.den)


def _cyclic_factor(action: GAction, g: GroupElement, coeffs, den: int) -> MatQ:
    """(1/den) * sum over j < len(coeffs) of coeffs[j] * rho(j * g), with
    rho(j * g) a running product along g through the memo."""
    step = action_matrix(action, g)
    zero = (0,) * action.group.rank
    run = _run(action._cache["rho"], action.group, zero, g.exps, step, len(coeffs))
    terms = ((c, m) for c, (_, m) in zip(coeffs, run) if c)
    return _combination(action.dim, terms, den)


def _avg_matrix(action: GAction, h: Subgroup) -> MatQ:
    """Matrix of the averaging idempotent p_H, cached per subgroup.

    In an abelian group p_A p_B = p_{A+B}, so p_H is the product of the
    cyclic factors p_<h> = (1/ord h) * sum over j < ord h of rho(j * h), one
    per HNF row h of H: a sum of at most ord(h) matrices each, not |H|.
    """
    cache = action._cache.setdefault("avg", {})
    m = cache.get(h)
    if m is None:
        for g in h.generators():
            o = g.order()
            if o > 1:
                f = _cyclic_factor(action, g, (1,) * o, o)
                m = f if m is None else m @ f
        if m is None:
            m = MatQ.identity(action.dim)
        cache[h] = m
    return m


def _central_matrix(
    action: GAction, k_sub: Subgroup, n: int, x: GroupElement
) -> MatQ:
    """e_W in factored form, for W with kernel K = k_sub, n = [G:K] and x
    generating G/K.

    Every g is j*x + k with k in K; m(j*x) = j * m(x) with m(x) a unit mod n,
    and the Ramanujan sum c_n depends only on gcd(n, .), so

        e_W = p_K * (1/n) * sum over j < n of c_n(j) * rho(j * x).

    That is n matrices and one dim^3 product on top of p_K, which the first
    route has already cached.
    """
    coeffs = [ramanujan_sum(n, j) for j in range(n)]
    return _avg_matrix(action, k_sub) @ _cyclic_factor(action, x, coeffs, n)


def fixed_subvariety(action: GAction, h: Subgroup) -> SubspaceQ:
    """A^H: the image of the averaging idempotent p_H."""
    if h.group != action.group:
        raise PreconditionError("subgroup of a different group")
    return image_space(_avg_matrix(action, h))


def complementary_subvariety(action: GAction, k_sub: Subgroup, h: Subgroup) -> SubspaceQ:
    """P(A^K / A^H): the complement of A^H inside A^K, for K contained in H.

    This is the image of the idempotent p_K - p_H, the unique G-invariant
    complement up to isogeny.
    """
    if k_sub.group != action.group or h.group != action.group:
        raise PreconditionError("subgroup of a different group")
    if not k_sub.is_contained_in(h):
        raise PreconditionError(
            "the complement P(A^K/A^H) requires K to be contained in H"
        )
    return image_space(_avg_matrix(action, k_sub) - _avg_matrix(action, h))


def isotypical_component(action: GAction, w: RationalIrrep) -> SubspaceQ:
    """The isotypical component of W, computed two ways and cross-checked.

    Route one is the defining intersection over minimal overgroups of the
    kernel (the fixed part itself when the kernel is all of G), from the
    images of p_K - p_H, with each p_H a product of cyclic factors.  Route
    two is the image of the central idempotent e_W: p_K times one cyclic
    factor of n = [G:K] terms in the generator x of G/K, or the |G|-term sum
    when |G| <= n + |K| + dim.  Disagreement raises InternalCheckError — it
    would mean the algebra identity behind the construction failed.
    """
    if w.group != action.group:
        raise PreconditionError("representation of a different group")
    k_sub = w.kernel
    info = index_and_quotient(action.group, k_sub)
    if not info.is_cyclic:
        raise PreconditionError("minimal overgroups require a cyclic quotient G/K")
    over = _minimal_overgroups_from_generator(
        action.group, k_sub, info.index, info.generator
    )
    if not over:
        by_intersection = fixed_subvariety(action, k_sub)
    else:
        parts = [complementary_subvariety(action, k_sub, h) for h in over]
        by_intersection = parts[0]
        for p in parts[1:]:
            by_intersection = intersect_spaces(by_intersection, p)
    if action.group.order <= info.index + k_sub.order + action.dim:
        # the dim^3 product would cost more than the |G|-term sum
        e_w = algebra_matrix(action, central_idempotent(w))
    else:
        e_w = _central_matrix(action, k_sub, info.index, info.generator)
    by_idempotent = image_space(e_w)
    if by_intersection != by_idempotent:
        raise InternalCheckError(
            "isotypical component mismatch: the intersection of complements "
            "differs from the image of the central idempotent"
        )
    return by_intersection


@dataclass(frozen=True)
class IsotypicalComponent:
    """One isotypical piece: the irreducible, its subspace, its multiplicity."""

    irrep: RationalIrrep
    subspace: SubspaceQ
    multiplicity: int

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass(frozen=True)
class IsotypicalReport:
    """The full isotypical decomposition of an action."""

    action: GAction
    components: tuple[IsotypicalComponent, ...]
    warnings: tuple[str, ...]

    @property
    def nonzero_components(self) -> tuple[IsotypicalComponent, ...]:
        return tuple(c for c in self.components if c.multiplicity)

    def to_jsonable(self) -> dict:
        return {
            "group": list(self.action.group.moduli),
            "name": self.action.name,
            "dim": self.action.dim,
            "faithful": self.action.faithful,
            "components": [
                {
                    "kernel_hnf": c.irrep.kernel.hnf_basis.to_jsonable(),
                    "order": c.irrep.order,
                    "degree": c.irrep.degree,
                    "representative": list(c.irrep.representative.exps),
                    "multiplicity": c.multiplicity,
                    "dim": c.dim,
                    "basis": c.subspace.basis.to_jsonable(),
                }
                for c in self.components
            ],
            "warnings": list(self.warnings),
        }


def isotypical_decomposition(action: GAction) -> IsotypicalReport:
    """Decompose the action space into isotypical components.

    Components appear in the canonical order of the irreducibles (kernel
    index ascending).  Internal checks: each component dimension must be a
    multiple of the irreducible's degree, the dimensions must add up without
    overlap, and the components must span the whole space.
    """
    irreps = rational_irreps(action.group)
    components = []
    running = SubspaceQ.zero(action.dim)
    for w in irreps:
        s = isotypical_component(action, w)
        if s.dim % w.degree:
            raise InternalCheckError(
                f"component dimension {s.dim} is not a multiple of degree {w.degree}"
            )
        mult = s.dim // w.degree
        new_running = sum_spaces(running, s)
        if new_running.dim != running.dim + s.dim:
            raise InternalCheckError("isotypical components overlap")
        running = new_running
        components.append(IsotypicalComponent(w, s, mult))
    if running.dim != action.dim:
        raise InternalCheckError("isotypical components do not span the space")
    warnings = list(action.warnings)
    warnings.extend(_plausibility_warnings(action, components))
    return IsotypicalReport(action, tuple(components), tuple(warnings))


def _plausibility_warnings(action: GAction, components) -> list[str]:
    """Heuristic signals that an action is unlikely to come from a genuine
    abelian variety (where the space is H_1 of a complex torus, so even-
    dimensional, and components with real representations carry a polarized
    complex structure of even multiplicity)."""
    out = []
    if action.dim % 2:
        out.append(
            f"total dimension {action.dim} is odd; rational homology of an "
            "abelian variety has even dimension"
        )
    for c in components:
        if c.irrep.order in (1, 2) and c.multiplicity % 2:
            out.append(
                f"component of order {c.irrep.order} has odd multiplicity "
                f"{c.multiplicity}; a totally real isotypical piece of an "
                "abelian variety has even multiplicity"
            )
    return out
