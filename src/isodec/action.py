"""Group actions on rational vector spaces and isotypical decomposition.

A ``GAction`` is a representation rho: G -> GL_m(Q) given by one matrix per
standard generator of G.  The abelian variety with G-action is modeled up to
isogeny by this rational representation; abelian subvarieties correspond to
G-invariant rational subspaces.

The three geometric constructions:

* ``fixed_subvariety(A, H)``           the fixed part A^H, the image of p_H,
* ``complementary_subvariety(A, K, H)`` the image of p_K - p_H, i.e. the
  complement of A^H inside A^K (defined for K contained in H),
* ``isotypical_component(A, W)``       the component associated to the
  irreducible rational representation W with kernel K, computed two
  independent ways and cross-checked:

    (1) as the intersection of the complements of A^H in A^K over all
        minimal overgroups H of K (the defining formula), and
    (2) as the image of the central idempotent e_W.

How the matrices are formed.  An action is a plain value: nothing is
memoized on it.  ``action_matrix`` forms rho(g) = prod_j M_j ** g_j, each
power by repeated squaring, and the constructions ask for it only at a few
elements: the HNF generators of a subgroup, the step of a cyclic factor
and the Sylow powers below.  A run of powers of one element is applied to
the basis it acts on, never formed as a run of square matrices.
Validation checks only the presentation (the relations M_j ** n_j = I and
commutation, where a generator that is I forms no product).

Route (1) forms no idempotent: rho has finite order, so A^H is the common
kernel of rho(h) - 1 over the HNF rows h of H, and the complement of A^H in
the G-invariant A^K is the sum of the images (rho(h) - 1)(A^K).  Route (2)
writes e_W = p_K * F with F = (1/n) sum_{j<n} c_n(j) rho(j * x), for
n = [G:K], x a generator of G/K and c_n the Ramanujan sum (every g is
j * x + k with k in K, and c_n depends only on gcd(n, .)).  p_K and F
commute, so the image of e_W is F(A^K), never the |G|-term sum.  Both
routes read one run: with s = n / rad(n), v_i holds the rows
rho(i * s * x) b_j for the basis rows b_j of A^K and i < rad(n), each v_i
formed from v_{i-1} by ``ratlinalg._images``.  F(A^K) is the row span of
(1/n) sum_i c_n(i * s) v_i, and as (n/p) * x = (rad(n)/p) * s * x, the
complement for the minimal overgroup K + (n/p) * x is the row span of
v_{rad(n)/p} - v_0.  For the trivial class e_W is p_G, a product of
averages of p terms over the Sylow parts of the generators.

Decomposing along the candidates.  Roan's filtration, applied one generator
at a time, shows which classes can be nonzero before any idempotent is
built.  ``isotypical_decomposition`` first splits V jointly under the Sylow
parts of the generators: for each generator j and each p^a exactly dividing
n_j, with s = (n_j / p^a) * e_j, every piece is peeled into the parts where
rho(s) has eigenvalue order 1, p, ..., p^a (the kernel and image of
rho(p^i * s) - 1, for i < a); rho(s) and its p-th powers are formed by
repeated squaring, the same chain the averages behind p_G start from.  A
class W lies in the piece whose signature is, per (j, p), the p-part of
n_j / gcd(n_j, r_j) for its representative r.  The candidates are the
classes whose piece Y is nonzero; every other class gets the zero
subspace.  Each nonzero piece is then restricted once: every generator's
matrix on Y, in the coordinates of Y's RREF basis, makes a ``GAction`` of
dimension dim Y.  Both routes run on that restricted action for every
candidate of Y's signature, at dimension dim Y rather than dim V, and the
component is lifted back through Y's basis.  The restriction
certifies that Y is invariant (a piece that is not is an
``InternalCheckError``), and the W-component of an invariant Y lies inside
the W-component of V.  The checks that the components add up without
overlap and span the space then force equality, and certify the zeros: the
isotypical components form a direct sum, so once the lifted candidates fill
V each is the whole W-component and every other component is 0.  A split
that wrongly left out a nonzero class would fail the span check.

``isotypical_decomposition`` assembles all components, checks with one
elimination of their stacked bases that dimensions are additive and exhaust
the space, and derives multiplicities.  The kernel
of the action is the common kernel of the classes that occur, one lattice
kernel over their representative characters; a nontrivial kernel is
reported with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import gcd, prod

from .abgroup import FinAbGroup, GroupElement, Subgroup
from .chars import RationalIrrep, common_kernel, ramanujan_sum, rational_irreps
from .errors import InternalCheckError, PreconditionError, ValidationError
from .numtheory import factorint, prime_divisors
from .ratlinalg import (
    MatQ,
    SubspaceQ,
    _combination,
    _dot_rows,
    _images,
    _plus_identity,
    image_space,
    intersect_spaces,
    kernel_and_image,
    kernel_space,
    restrict_operator,
)

__all__ = [
    "GAction",
    "validate_action",
    "action_matrix",
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
    name: str | None = None

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"GAction({self.group.moduli} on Q^{self.dim}{label})"


def validate_action(group: FinAbGroup, matrices, name: str | None = None) -> GAction:
    """Check generator matrices and assemble a GAction.

    Raises ValidationError if the count is wrong, a matrix is not square of
    the common size, a generator relation M_j ** n_j != I fails, or two
    generator matrices do not commute.  Only those checks form products.
    A non-faithful action is legal: its kernel is read off the decomposition
    (``IsotypicalReport.action_kernel``).
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
    # an identity commutes with everything: only the others form products
    moving = [(j, m) for j, m in enumerate(mats) if not m.is_identity()]
    for (i, a), (j, b) in combinations(moving, 2):
        if a @ b != b @ a:
            raise ValidationError(f"generators {i + 1} and {j + 1} do not commute")

    return GAction(group, mats, dim, name)


def action_matrix(action: GAction, g: GroupElement) -> MatQ:
    """rho(g) = prod_j M_j ** g_j, each power by repeated squaring: at most
    2 * bit_length(g_j) products per coordinate."""
    if g.group != action.group:
        raise PreconditionError("element of a different group")
    m = None
    for e, gen in zip(g.exps, action.gen_matrices):
        if e:
            m = gen**e if m is None else m @ gen**e
    return MatQ.identity(action.dim) if m is None else m


def _shifted_generators(action: GAction, h: Subgroup) -> list[MatQ]:
    """rho(g) - 1 for each non-identity HNF generator g of H."""
    return [
        _plus_identity(action_matrix(action, g), -1)
        for g in h.generators()
        if any(g.exps)
    ]


def fixed_subvariety(action: GAction, h: Subgroup) -> SubspaceQ:
    """A^H: the common kernel of rho(h) - 1 over the non-identity HNF
    generators h of H, one elimination of their stacked rows (the image of
    the averaging idempotent p_H)."""
    if h.group != action.group:
        raise PreconditionError("subgroup of a different group")
    # each block's own denominator only scales its rows, not the kernel
    rows = [row for m in _shifted_generators(action, h) for row in m.num]
    return kernel_space(MatQ._raw(rows, 1, action.dim))


def complementary_subvariety(action: GAction, k_sub: Subgroup, h: Subgroup) -> SubspaceQ:
    """P(A^K / A^H): the complement of A^H inside A^K, for K contained in H.

    This is the image of the idempotent p_K - p_H, the unique G-invariant
    complement up to isogeny, taken as the sum of the images
    (rho(h) - 1)(A^K) over the generators h of H.  A^K is G-invariant and
    p_H (rho(h) - 1) = 0, so each image lies in the complement; a vector of
    A^K orthogonal to all of them, for a G-invariant inner product, is fixed
    by H, so together they fill it.  One elimination of the stacked image
    vectors.
    """
    if k_sub.group != action.group or h.group != action.group:
        raise PreconditionError("subgroup of a different group")
    if not k_sub.is_contained_in(h):
        raise PreconditionError(
            "the complement P(A^K/A^H) requires K to be contained in H"
        )
    b = fixed_subvariety(action, k_sub).basis
    rows = [row for m in _shifted_generators(action, h) for row in _images(m, b)]
    return SubspaceQ(action.dim, rows)


def _average_over_g(action: GAction) -> MatQ:
    """p_G as a product of averages of p terms, a of them per Sylow part
    (j, p, a) of the generators.  p_A p_B = p_{A+B} in an abelian group, and
    every m < p^a has base-p digits, so the average of rho over <s>, for
    s = (n_j / p^a) e_j, is the product over t < a of the averages of
    rho(d p^t s) over d < p, a running product from rho(p^t s) as
    ``_sylow_powers`` forms it."""
    eye = m = MatQ.identity(action.dim)
    for j, p, a in _sylow_parts(action.group):
        for t in _sylow_powers(action, j, p, a):
            powers = [eye, t]
            for _ in range(2, p):
                powers.append(t @ powers[-1])
            m = m @ _combination(m.shape, ((1, r) for r in powers), p)
    return m


def isotypical_component(action: GAction, w: RationalIrrep) -> SubspaceQ:
    """The isotypical component of W, computed two ways and cross-checked.

    Both routes start from A^K, K the kernel of W, with n = [G:K] and x a
    generator of G/K.  Route one is the defining intersection of the
    complements P(A^K / A^{H_p}) over the minimal overgroups
    H_p = K + (n/p) x of K; K acts trivially on A^K, so each is the image
    (rho((n/p) x) - 1)(A^K).  When K is all of G it is A^G itself.  Route
    two is the image of the central idempotent e_W = p_K * F, with F one
    cyclic factor in x, taken as F applied to A^K; for the trivial class
    e_W = p_G, taken from its Sylow factors.  Both routes read one run of
    rho(s x), s = n / rad(n), applied to the basis rows of A^K, so no
    rho((n/p) x) is formed.  Disagreement raises InternalCheckError — it
    would mean the algebra identity behind the construction failed.
    """
    k_sub = w.kernel
    if k_sub.group != action.group:
        raise PreconditionError("representation of a different group")
    x = k_sub.quotient_generator()
    if x is None:
        raise PreconditionError("minimal overgroups require a cyclic quotient G/K")
    n, dim = k_sub.index, action.dim
    primes = prime_divisors(n)
    a_k = fixed_subvariety(action, k_sub)
    if n == 1:
        by_idempotent = image_space(_average_over_g(action))
        by_intersection = a_k
    else:
        # c_n(j) = 0 unless s = n / rad(n) divides j: F has r = rad(n) terms,
        # along s x; row j of v[i] is rho(i s x) b_j, for A^K's basis rows b_j
        r = prod(primes)
        s = n // r
        step = action_matrix(action, s * x)
        v = [a_k.basis]
        for _ in range(1, r):
            v.append(MatQ._raw(_images(step, v[-1]), step.den * v[-1].den, dim))
        terms = ((ramanujan_sum(n, i * s), vi) for i, vi in enumerate(v))
        by_idempotent = SubspaceQ(dim, _combination(v[0].shape, terms, n).num)
        # (n/p) x = (r/p) s x: rho((n/p) x) - 1 on A^K is v[r/p] - v[0]
        parts = [
            SubspaceQ(
                dim, _combination(v[0].shape, ((1, v[r // p]), (-1, v[0])), 1).num
            )
            for p in primes
        ]
        by_intersection = reduce(intersect_spaces, parts)
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

    components: tuple[IsotypicalComponent, ...]
    action_kernel: Subgroup
    warnings: tuple[str, ...]

    @property
    def faithful(self) -> bool:
        return self.action_kernel.order == 1

    @property
    def nonzero_components(self) -> tuple[IsotypicalComponent, ...]:
        return tuple(c for c in self.components if c.multiplicity)


def _sylow_parts(group: FinAbGroup) -> tuple[tuple[int, int, int], ...]:
    """(j, p, a) for each generator j and each prime power p^a exactly
    dividing n_j: the coordinates of a signature."""
    return tuple(
        (j, p, a) for j, n in enumerate(group.moduli) for p, a in factorint(n)
    )


def _signature(w: RationalIrrep, parts) -> tuple[int, ...]:
    """Per (j, p, a) of ``_sylow_parts``, the order of the eigenvalue of
    rho((n_j / p^a) * e_j) on W: the p-part of n_j / gcd(n_j, r_j) for the
    representative r.  Galois conjugates share it."""
    r = w.representative.exps
    return tuple(p**a // gcd(p**a, r[j]) for j, p, a in parts)


def _sylow_powers(action: GAction, j: int, p: int, a: int) -> list[MatQ]:
    """rho(p^i * s) for i < a, s = (n_j / p^a) * e_j.

    rho(s) = M_j ** (n_j / p^a) and rho(p^(i+1) * s) = rho(p^i * s) ** p,
    each by repeated squaring; no other element's rho is formed.
    """
    out = [action.gen_matrices[j] ** (action.group.moduli[j] // p**a)]
    for _ in range(1, a):
        out.append(out[-1] ** p)
    return out


def _sylow_split(action: GAction) -> dict[tuple[int, ...], SubspaceQ]:
    """The nonzero joint pieces of V under the Sylow parts of the
    generators, by signature (see ``_signature``).

    For s = (n_j / p^a) * e_j, each piece Y is peeled in order i < a: the
    kernel of rho(p^i * s) - 1 on Y is the part where rho(s) has eigenvalue
    order p^i, and the image is the rest, of order above p^i.  What remains
    has order p^a.  The rho(p^i * s) come from ``_sylow_powers``.
    """
    pieces = {(): SubspaceQ.full(action.dim)}
    for j, p, a in _sylow_parts(action.group):
        ts = [_plus_identity(m, -1) for m in _sylow_powers(action, j, p, a)]
        split = {}
        for sig, y in pieces.items():
            for i, t in enumerate(ts):
                b, y = kernel_and_image(t, y)
                if b.dim:
                    split[sig + (p**i,)] = b
                if not y.dim:
                    break
            else:
                split[sig + (p**a,)] = y
        pieces = split
    return pieces


def _restricted(action: GAction, y: SubspaceQ) -> GAction:
    """The action on the G-invariant subspace Y, in the coordinates of its
    RREF basis: one ``restrict_operator`` per generator, at dimension dim Y.
    A piece that some generator does not preserve is an internal fault, not
    bad input."""
    try:
        mats = tuple(restrict_operator(m, y) for m in action.gen_matrices)
    except PreconditionError as e:
        raise InternalCheckError(f"a Sylow piece is not G-invariant: {e}") from None
    return GAction(action.group, mats, y.dim)


def isotypical_decomposition(action: GAction) -> IsotypicalReport:
    """Decompose the action space into isotypical components.

    Components appear in the canonical order of the irreducibles (kernel
    index ascending).  Each nonzero piece Y of ``_sylow_split`` is restricted
    once (``_restricted``); both routes run on that restricted action for
    every candidate class, the classes whose signature names Y, and the
    result is lifted back through Y's basis.  Every other class gets the
    zero subspace.  Internal checks: each piece must be invariant under
    every generator, each component dimension must be a multiple of the
    irreducible's degree, the dimensions must add up without overlap, and
    the components must span the whole space.  The last two come from one
    elimination of the stacked bases: a rank below the sum of the dimensions
    is an overlap, and a rank below dim V a gap.  The W-component of an
    invariant piece lies inside the W-component of V, and the components of
    V form a direct sum, so once the lifted components fill the space each
    one is the whole W-component and every class left out is 0.  The action
    kernel is the common kernel of the classes that occur: g acts trivially
    exactly when it does on every nonzero component.
    """
    irreps = rational_irreps(action.group)
    parts = _sylow_parts(action.group)
    pieces = {
        sig: (y.basis.num, _restricted(action, y))
        for sig, y in _sylow_split(action).items()
    }
    zero = SubspaceQ(action.dim)
    components = []
    for w in irreps:
        piece = pieces.get(_signature(w, parts))
        if piece is None:
            s = zero
        else:
            # lifted: the component's coordinate rows times Y's basis rows
            y_rows, on_y = piece
            coords = isotypical_component(on_y, w).basis.num
            s = SubspaceQ(action.dim, _dot_rows(coords, y_rows, action.dim))
        if s.dim % w.degree:
            raise InternalCheckError(
                f"component dimension {s.dim} is not a multiple of degree {w.degree}"
            )
        components.append(IsotypicalComponent(w, s, s.dim // w.degree))
    # one elimination of the stacked bases certifies both the sum and the span
    stacked = [row for c in components for row in c.subspace.basis.num]
    rank = SubspaceQ(action.dim, stacked).dim
    if rank < len(stacked):
        raise InternalCheckError("isotypical components overlap")
    if rank < action.dim:
        raise InternalCheckError("isotypical components do not span the space")
    kernel = common_kernel(
        action.group, [c.irrep.representative for c in components if c.multiplicity]
    )
    warnings = []
    if kernel.order > 1:
        warnings.append(
            f"action is not faithful: a subgroup of order {kernel.order} acts trivially"
        )
    warnings.extend(_plausibility_warnings(action, components))
    return IsotypicalReport(tuple(components), kernel, tuple(warnings))


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
