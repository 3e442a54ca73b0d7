"""Test-local oracles that read the library's integer objects as Fractions.

The package keeps matrices and subspaces as integer numerators over one
denominator and never needs these views itself; the tests use them to
compare against plain Fraction arithmetic.  ``char_poly`` and
``eigenvalue_orders`` give the eigenvalue orders of a finite-order matrix by
factoring its characteristic polynomial, a route independent of the split
of the divisor set in ``isodec.roan``.  ``roan_walk`` is Roan's filtration
walked over every divisor in ascending order on ambient kernels and images,
the reference that split is checked against.  ``algebra_matrix`` is the
|G|-term matrix of a group-algebra element, the reference the factored
idempotents of ``isodec.action`` are checked against.
``rational_irreps_by_walk`` is the walk over all |G| characters and their
Galois orbits (``galois_orbit``), the reference the Sylow construction of
``isodec.chars.rational_irreps`` is checked against.
``kernels_by_filtering`` is the whole subgroup lattice filtered to cyclic
quotients, the reference the class kernels of ``subgroups --kernels`` are
checked against.  ``oracle_rref`` is Fraction Gauss-Jordan, and ``inverse``
reads a rational inverse off it; the package forms no inverse.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from isodec import (
    Character,
    InternalCheckError,
    MatQ,
    PreconditionError,
    RationalIrrep,
    RoanReport,
    SubspaceQ,
    all_subgroups,
    char_kernel,
    cyclotomic,
    restrict_operator,
)
from isodec.numtheory import divisors, totient
from isodec.ratlinalg import _divmod_monic, kernel_and_image
from isodec.roan import _vanishes_at


def fraction_rows(m: MatQ) -> tuple[tuple[Fraction, ...], ...]:
    d = m.den
    return tuple(tuple(Fraction(v, d) for v in row) for row in m.num)


def zeros(r: int, c: int) -> MatQ:
    """The r by c zero matrix, of any shape, 0 by c and r by 0 included."""
    return MatQ._raw([[0] * c for _ in range(r)], 1, ncols=c)


def oracle_rref(rows, ncols):
    """(pivot columns, nonzero RREF rows) by Fraction Gauss-Jordan."""
    m = [[Fraction(v) for v in row] for row in rows]
    piv = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        m[r] = [v / p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    return piv, m[:r]


def inverse(m: MatQ) -> MatQ:
    """The inverse of a square nonsingular matrix: the right half of the
    reduced [m | I], by Fraction Gauss-Jordan."""
    n = m.rows
    rows = fraction_rows(m)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    piv, rows = oracle_rref(aug, 2 * n)
    if piv != list(range(n)):
        raise ValueError("singular matrix has no inverse")
    return MatQ([r[n:] for r in rows])


def trace(m: MatQ) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix")
    return Fraction(sum(m.num[i][i] for i in range(m.rows)), m.den)


def basis_rows(s: SubspaceQ) -> tuple[tuple[Fraction, ...], ...]:
    return fraction_rows(s.basis)


def coordinates_of(s: SubspaceQ, vec):
    """Coordinates of vec in the canonical basis, or None if not contained.

    In an RREF basis the coordinates are vec's entries at the pivot columns;
    the vector is in the subspace exactly when they rebuild it.
    """
    v = [Fraction(x) for x in vec]
    if len(v) != s.ambient_dim:
        raise PreconditionError("ambient dimension mismatch")
    coords = tuple(v[c] for c in s.pivot_cols)
    rebuilt = [Fraction(0)] * s.ambient_dim
    for c, row in zip(coords, basis_rows(s)):
        rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
    return coords if rebuilt == v else None


def contains_vector(s: SubspaceQ, vec) -> bool:
    return coordinates_of(s, vec) is not None


def _charpoly_int(num_rows) -> list[int]:
    """Monic characteristic polynomial of an integer matrix, ascending coefficients.

    Faddeev–LeVerrier: every division by k is exact over Z.
    """
    n = len(num_rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [
            [sum(a * mk[t][j] for t, a in enumerate(row)) for j in range(n)]
            for row in num_rows
        ]
        c, rem = divmod(-sum(am[i][i] for i in range(n)), k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier division must be exact")
        coeffs[n - k] = c
        mk = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def char_poly(m: MatQ) -> tuple[Fraction, ...]:
    """Exact monic characteristic polynomial det(x*I - M), as its
    coefficients in ascending order."""
    if m.rows != m.cols:
        raise PreconditionError("characteristic polynomial of a non-square matrix")
    n = m.rows
    ints = _charpoly_int(m.num)
    return tuple(Fraction(ints[i], m.den ** (n - i)) for i in range(n + 1))


def eigenvalue_orders(m: MatQ, d: int) -> tuple[int, ...]:
    """The orders of the eigenvalues of a matrix with m**d = I, ascending.

    Factors the characteristic polynomial into cyclotomics by repeated exact
    division (the only possible factors when m**d = I), returning each order
    that occurs at least once.
    """
    if m.rows != m.cols:
        raise PreconditionError("matrix must be square")
    if d < 1 or not (m**d).is_identity():
        raise PreconditionError(f"matrix does not satisfy M^{d} = I")
    p = char_poly(m)
    integral = all(c.denominator == 1 for c in p)
    p = tuple(c.numerator for c in p)
    orders = []
    for e in divisors(d):
        phi = cyclotomic(e)
        q, r = _divmod_monic(p, phi)
        if any(r):
            continue
        orders.append(e)
        while not any(r):
            p = q
            q, r = _divmod_monic(p, phi)
    if not integral or p != (1,):
        raise InternalCheckError("characteristic polynomial did not factor into cyclotomics")
    return tuple(orders)


def roan_walk(m: MatQ, d: int) -> RoanReport:
    """Roan's filtration of a matrix with m**d = I, by a walk over every
    divisor e of d in ascending order.

    On the current Y, a subspace of Q^n, the kernel of 1 - m^e is the part
    where m has eigenvalue order e: the orders below e that divide it were
    split off by earlier steps.  A nonempty kernel makes e the next order,
    and the image is the new Y; steps with phi(e) > dim Y are skipped.  Each
    power is built from an earlier one, alpha^e = (alpha^e')^(e/e') with e'
    the largest divisor of e already formed, and a power is dropped once no
    later divisor would be built from it.
    """
    n = m.rows
    y = SubspaceQ.full(n)
    orders, dims, components = [], [n], []
    divs = divisors(d)
    powers = {1: m}  # k -> m ** k, while a later divisor is built from it
    for i, e in enumerate(divs):
        if totient(e) > y.dim:
            continue
        base = _base(powers, e)
        power = powers[e] = powers[base] ** (e // base)
        powers = {k: powers[k] for k in {_base(powers, f) for f in divs[i + 1 :]}}
        b, rest = kernel_and_image(_one_minus(power), y)
        if not b.dim:
            continue
        if not _vanishes_at(cyclotomic(e), restrict_operator(m, b)):
            raise InternalCheckError(
                f"kernel piece for order {e} has an eigenvalue of another order"
            )
        orders.append(e)
        components.append((e, b))
        y = rest
        dims.append(y.dim)
    if y.dim != 0:
        raise InternalCheckError("filtration does not terminate at zero")
    if SubspaceQ(n, [row for _, b in components for row in b.basis.num]).dim != n:
        raise InternalCheckError("kernel pieces do not span the whole space")
    return RoanReport(n, d, tuple(orders), tuple(dims), tuple(components))


def _one_minus(m: MatQ) -> MatQ:
    """1 - m, entry by entry from the Fraction rows of a square m."""
    rows = fraction_rows(m)
    return MatQ([[int(i == j) - v for j, v in enumerate(r)] for i, r in enumerate(rows)])


def _base(powers: dict[int, MatQ], e: int) -> int:
    """The largest k with a formed power m ** k that divides e."""
    return max(k for k in powers if e % k == 0)


@lru_cache(maxsize=8)
def rho_table(action) -> tuple[MatQ, ...]:
    """rho(g) for every g of the action's group, in index order.

    Each entry is one product: rho(g) = rho(g - e_j) @ M_j for the last
    nonzero coordinate j of g, and g - e_j comes earlier in index order.
    """
    table: dict[tuple[int, ...], MatQ] = {}
    for exps in action.group.exponent_tuples():
        nonzero = [j for j, e in enumerate(exps) if e]
        if not nonzero:
            table[exps] = MatQ.identity(action.dim)
            continue
        j = nonzero[-1]
        prev = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
        table[exps] = table[prev] @ action.gen_matrices[j]
    return tuple(table.values())


def algebra_matrix(action, x) -> MatQ:
    """The matrix of a group-algebra element: the sum of x(g) * rho(g) over
    the support of x, up to |G| terms, as integer numerators over the lcm of
    the rho table's denominators."""
    if x.group != action.group:
        raise PreconditionError("group algebra element of a different group")
    table = rho_table(action)
    n = action.dim
    den = lcm(1, *(m.den for m in table))
    acc = [[0] * n for _ in range(n)]
    for num, m in zip(x.nums, table):
        if num:
            scale = num * (den // m.den)
            for row, m_row in zip(acc, m.num):
                for j, v in enumerate(m_row):
                    row[j] += scale * v
    return MatQ._raw(acc, den * x.den, ncols=n)


def galois_orbit(chi: Character) -> tuple[Character, ...]:
    """All characters with the same kernel as chi: its powers of exponent
    coprime to its order, sorted lexicographically by exponent tuple."""
    n = chi.order()
    seen = sorted(
        tuple((t * a) % m for a, m in zip(chi.exps, chi.group.moduli))
        for t in range(1, n + 1)
        if gcd(t, n) == 1
    )
    return tuple(Character(chi.group, e) for e in seen)


def rational_irreps_by_walk(group) -> tuple[RationalIrrep, ...]:
    """The rational irreducibles by a walk over all |G| exponent tuples: one
    Galois orbit and one kernel per new tuple, every conjugate checked to
    have that kernel, the lex-least conjugate as representative."""
    seen: set[tuple[int, ...]] = set()
    irreps = []
    for exps in group.exponent_tuples():
        if exps in seen:
            continue
        chi = Character(group, exps)
        orbit = galois_orbit(chi)
        seen.update(c.exps for c in orbit)
        kernel = char_kernel(chi)
        n = chi.order()
        if kernel.index != n or len(orbit) != totient(n):
            raise InternalCheckError("kernel index or orbit size is not the order's")
        rows = kernel.generators()
        if any(
            c.order() != n or any(c.value_exponent(g) for g in rows) for c in orbit
        ):
            raise InternalCheckError("a Galois conjugate has a different kernel")
        irreps.append(RationalIrrep(kernel, n, totient(n), orbit[0]))
    if sum(w.degree for w in irreps) != group.order:
        raise InternalCheckError("degrees of rational irreducibles do not sum to |G|")
    return tuple(sorted(irreps, key=lambda w: w.kernel.sort_key))


def kernels_by_filtering(group) -> list:
    """The subgroups with cyclic quotient, by Smith invariants over the whole
    lattice, in its order."""
    return [
        s
        for s in all_subgroups(group)
        if sum(1 for d in s.quotient_invariants if d > 1) <= 1
    ]
