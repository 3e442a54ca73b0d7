"""Complex characters of a finite abelian group, and its rational irreducibles.

A character of G = Z/n_1 x ... x Z/n_k is determined by exponents
(a_1, ..., a_k): it sends g to exp(2*pi*i * val(g) / N) where N = lcm(n_j) and

    val(g)  =  sum_j (N / n_j) * a_j * g_j   (mod N).

All character data is kept as exact integer exponents, under the rule an
element's exponents obey (``abgroup._Exponents``); no complex floats ever
appear.  Characters with the same kernel form one Galois orbit and correspond
to a single irreducible rational representation, whose degree is phi(n) for
n the order of the character (equivalently, n = [G : kernel] and the quotient
G/kernel is cyclic).  The canonical representative of the orbit is the
exponent tuple that is lexicographically smallest.  A ``RationalIrrep`` is
identified by its kernel K, which carries the group and the canonical order.

``rational_irreps`` builds each orbit over G itself, as its least tuple,
coordinate by coordinate by one rule (no element walked, no orbit scanned),
and reads its kernel's Hermite form off the character's weights
(``char_kernel``, no elimination).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .abgroup import FinAbGroup, GroupElement, Subgroup, _Exponents
from .errors import InternalCheckError, PreconditionError
from .numtheory import divisors, moebius, totient
from .ratlinalg import MatQ, MatZ, _hermite, companion_matrix, cyclotomic

__all__ = [
    "Character",
    "RationalIrrep",
    "char_kernel",
    "common_kernel",
    "rational_irreps",
    "ramanujan_sum",
    "irrep_model",
]


class Character(_Exponents):
    """The character g -> exp(2*pi*i * val(g) / N) given by exponents a_j."""

    _noun, _entries = "character", "exponents"

    def value_exponent(self, g: GroupElement) -> int:
        """val(g) in Z/N, so the value of the character is zeta_N ** val(g)."""
        if g.group != self.group:
            raise PreconditionError("element of a different group")
        n_all = self.group.exponent
        return (
            sum(
                (n_all // n) * a * e
                for a, e, n in zip(self.exps, g.exps, self.group.moduli)
            )
            % n_all
        )

    def order(self) -> int:
        """The order of the character in the dual group."""
        return lcm(*(n // gcd(n, a) for a, n in zip(self.exps, self.group.moduli)))

    def root_exponent(self, g: GroupElement) -> int:
        """m(g) in Z/n with value = zeta_n ** m(g), for n the character order.

        The character takes values among the n-th roots of unity, so
        val(g) * n / N is an exact integer.
        """
        n = self.order()
        v = self.value_exponent(g) * n
        q, r = divmod(v, self.group.exponent)
        if r:
            raise InternalCheckError("character value is not an n-th root of unity")
        return q % n

    def __repr__(self):
        return f"Character{self.exps}"


def char_kernel(chi: Character) -> Subgroup:
    """The kernel of a character, its Hermite basis read off the weights.

    For n the character's order, g is in the kernel iff
    sum_j c_j g_j = 0 mod n, with integer weights c_j = a_j * n / n_j.  Let
    g_i = gcd(n, c_i, ..., c_{k-1}) and g_k = n.  Row i has pivot
    d_i = g_{i+1} / g_i, the least d with d * c_i in the ideal of n and the
    later weights.  Its later entries fill in what the row still owes,
    l = -d_i * c_i at first: t_j = (l / g_j) * (c_j / g_j)^-1 mod d_j, then
    l -= c_j * t_j.  Each t_j is the only choice in [0, d_j), so the rows
    are the Hermite form itself and no elimination runs.

    >>> char_kernel(Character(FinAbGroup((4, 6)), (1, 1))).hnf_basis
    MatZ([[2, 3], [0, 6]])
    """
    n = chi.order()
    c = [a * n // m for a, m in zip(chi.exps, chi.group.moduli)]
    g = [n]
    for w in reversed(c):
        g.append(gcd(g[-1], w))
    g.reverse()
    d = [g[i + 1] // g[i] for i in range(len(c))]
    rows = []
    for i, w in enumerate(c):
        row, rest = [0] * i + [d[i]], -d[i] * w
        for j in range(i + 1, len(c)):
            t = rest // g[j] * pow(c[j] // g[j], -1, d[j]) % d[j]
            row.append(t)
            rest -= c[j] * t
        rows.append(tuple(row))
    return Subgroup(chi.group, MatZ._raw(tuple(rows)))


def common_kernel(group: FinAbGroup, characters) -> Subgroup:
    """The common kernel of characters of G, computed exactly as a lattice
    kernel (all of G when there are none).

    g is in the kernel of chi_i iff val_i(g) = sum_j c_ij g_j = 0 mod N with
    c_ij = (N/n_j) a_ij.  The rows [c_j | e_j] and [N e_i | 0] span a lattice
    of full rank m + k whose vectors vanishing on the m character columns are
    the [0 | g], g in the kernel's preimage lattice.  Its Hermite form's last
    k rows, those with a pivot past those columns, span them, so their last
    k entries are the kernel's Hermite basis: one elimination, nothing carried.
    """
    chars = tuple(characters)
    if any(c.group != group for c in chars):
        raise PreconditionError("character of a different group")
    n_all = group.exponent
    m, k = len(chars), group.rank
    rows = [
        [((n_all // n) * c.exps[j]) % n_all for c in chars]
        + [int(i == j) for i in range(k)]
        for j, n in enumerate(group.moduli)
    ]
    rows += [[n_all * (i == t) for t in range(m)] + [0] * k for i in range(m)]
    kernel_rows = tuple(tuple(r[m:]) for r in _hermite(rows)[m:])
    return Subgroup(group, MatZ._raw(kernel_rows))


@dataclass(frozen=True)
class RationalIrrep:
    """An irreducible rational representation W of G.

    Canonically identified by its kernel K: the quotient G/K is cyclic of
    order n (the order of any character in the orbit), the degree is phi(n),
    and `representative` is the lexicographically smallest character in the
    Galois orbit.
    """

    kernel: Subgroup
    order: int
    degree: int
    representative: Character

    def __repr__(self):
        return (
            f"RationalIrrep(order {self.order}, degree {self.degree}, "
            f"rep {self.representative.exps})"
        )


def _least_units(h: int, o: int):
    """For each unit r mod h (h dividing o), the least unit v mod o with
    v = r mod h."""
    for r in range(h):
        if gcd(r, h) == 1:
            v = r
            while gcd(v, o) != 1:
                v += h
            yield v


def rational_irreps(group: FinAbGroup) -> tuple[RationalIrrep, ...]:
    """All irreducible rational representations, in canonical order.

    Each class is built as its least exponent tuple, coordinate by
    coordinate.  A least prefix of order m is fixed by the units t = 1 mod m,
    which move a coordinate x = (n_j / o) * u of order o (u a unit mod o) over
    the units u' = u mod h, h = gcd(m, o).  So x extends the prefix exactly
    when u is the least unit mod o in its class mod h (``_least_units``), and
    the order becomes lcm(m, o).  The canonical order is by kernel sort key
    (index ascending, then basis entries), so the trivial representation
    always comes first.
    """
    moduli, n_all = group.moduli, group.exponent
    least = [((), 1)]
    for n in moduli:
        least = [
            (b + (n // o * v,), lcm(m, o))
            for b, m in least
            for o in divisors(n)
            for v in _least_units(gcd(m, o), o)
        ]
    irreps = []
    kernels: set[Subgroup] = set()
    total_degree = 0
    for b, n in least:
        rep = Character(group, b)
        try:
            kernel = char_kernel(rep)
        except PreconditionError as err:
            raise InternalCheckError(f"class kernel is not a subgroup: {err}") from err
        if kernel.index != n:
            raise InternalCheckError("kernel index differs from character order")
        # the representative kills the kernel and has order n = [G : K], so
        # K is its kernel, and the kernel of every Galois conjugate
        c = [(n_all // m) * r for r, m in zip(b, moduli)]
        if rep.order() != n or any(
            sum(map(mul, c, row)) % n_all for row in kernel.hnf_basis.entries
        ):
            raise InternalCheckError(
                "the representative's kernel is not the class kernel"
            )
        if kernel in kernels:
            raise InternalCheckError("two Galois orbits share a kernel")
        kernels.add(kernel)
        degree = totient(n)
        irreps.append(RationalIrrep(kernel, n, degree, rep))
        total_degree += degree
    if total_degree != group.order:
        raise InternalCheckError("degrees of rational irreducibles do not sum to |G|")
    return tuple(sorted(irreps, key=lambda w: w.kernel.sort_key))


def ramanujan_sum(n: int, k: int) -> int:
    """c_n(k): the sum of zeta**k over primitive n-th roots of unity zeta.

    Computed by the closed form c_n(k) = mu(n/d) * phi(n) / phi(n/d) with
    d = gcd(n, k); always an integer.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    d = gcd(n, k % n)
    m = n // d
    mu = moebius(m)
    if mu == 0:
        return 0
    return mu * (totient(n) // totient(m))


def irrep_model(w: RationalIrrep) -> tuple[MatQ, ...]:
    """Integer matrices realizing W: generator e_j acts as C ** m_j.

    C is the companion matrix of the n-th cyclotomic polynomial and
    m_j = m(e_j) is the root exponent of the representative character at the
    j-th standard generator; this is the action on Q[x]/(Phi_n) where x is
    sent to the representative character value.  For the trivial class C is
    [[1]] and every m_j is 0.
    """
    c = companion_matrix(cyclotomic(w.order))
    rep = w.representative
    return tuple(c ** rep.root_exponent(g) for g in rep.group.generator_elements())
