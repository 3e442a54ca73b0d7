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

An orbit is a cyclic subgroup of the dual, which is isomorphic to G, and a
cyclic group is the product of its Sylow parts.  So ``rational_irreps``
walks only the Sylow parts G_p (sum_p |G_p| tuples, one Hermite elimination
per class of G_p) and combines one class per prime: the kernel by CRT on the
p-kernels' Hermite forms, the representative in closed form, coordinate by
coordinate, with no orbit scanned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul

from .abgroup import FinAbGroup, GroupElement, Subgroup, _Exponents
from .errors import InternalCheckError, PreconditionError
from .numtheory import factorint, moebius, totient
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
    """The kernel of a character: ``common_kernel`` of it alone."""
    return common_kernel(chi.group, [chi])


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


def _crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """The t mod lcm(m1, m2) with t = r1 mod m1 and t = r2 mod m2, for
    residues that agree modulo gcd(m1, m2)."""
    g = gcd(m1, m2)
    s = (r2 - r1) // g * pow(m1 // g, -1, m2 // g)
    m = m1 // g * m2
    return (r1 + m1 * s) % m, m


def _p_classes(p: int, moduli: tuple[int, ...]):
    """The rational classes of the p-group with these moduli (powers of p),
    as (order, an exponent tuple, kernel HNF rows): one walk over the group,
    one Hermite elimination per class.  The orbit of a tuple of order p^e is
    its multiples by the units t mod p^e."""
    gp = FinAbGroup(moduli)
    seen: set[tuple[int, ...]] = set()
    classes = []
    for b in gp.exponent_tuples():
        if b in seen:
            continue
        chi = Character(gp, b)
        q = chi.order()
        orbit = {
            tuple(t * x % m for x, m in zip(b, moduli))
            for t in range(1, q + 1)
            if t % p
        }
        if len(orbit) != totient(q):
            raise InternalCheckError(
                f"Galois orbit size {len(orbit)} != phi({q}) = {totient(q)}"
            )
        seen |= orbit
        classes.append((q, b, char_kernel(chi).hnf_basis.entries))
    return classes


def _crt_hnf(hnfs, k: int) -> tuple[tuple[int, ...], ...]:
    """The HNF of the intersection of k x k lattice HNFs of coprime indices
    (the identity for none, the one HNF itself for one).

    Its diagonal is the product of theirs.  Each later entry of a row is
    fixed modulo each diagonal entry by back-substituting the row so far
    through that HNF; CRT puts it into [0, d_j).
    """
    if len(hnfs) == 1:
        return hnfs[0]
    rows = []
    for i in range(k):
        d = prod(h[i][i] for h in hnfs)
        row = [0] * i + [d]
        # per lattice, a vector of it that agrees with row so far
        agree = [[d // h[i][i] * x for x in h[i]] for h in hnfs]
        for j in range(i + 1, k):
            x, m = 0, 1
            for h, v in zip(hnfs, agree):
                x, m = _crt(x, m, v[j], h[j][j])
            row.append(x)
            for h, v in zip(hnfs, agree):
                c = (x - v[j]) // h[j][j]
                for t in range(j, k):
                    v[t] += c * h[j][t]
        rows.append(tuple(row))
    return tuple(rows)


def _least_conjugate(a: tuple[int, ...], moduli: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least t * a over the units t mod the order of a.

    Coordinate by coordinate, keep the constraint t = tau mod M.  Write the
    coordinate x = g * u with o = n_j / g its order and u a unit mod o; its
    least value is g * v for the least unit v mod o with v = tau * u mod
    gcd(M, o), and then t = v / u mod o joins the constraint.
    """
    tau, mod = 0, 1
    out = []
    for x, n in zip(a, moduli):
        g = gcd(x, n)
        o, u = n // g, x // g
        h = gcd(mod, o)
        v = tau * u % h
        while gcd(v, o) != 1:
            v += h
        out.append(g * v)
        tau, mod = _crt(tau, mod, v * pow(u, -1, o), o)
    return tuple(out)


def rational_irreps(group: FinAbGroup) -> tuple[RationalIrrep, ...]:
    """All irreducible rational representations, in canonical order.

    A class is a cyclic subgroup of the dual, so it is one class of each
    Sylow part G_p, embedded by a_j -> a_j * n_j / p^v_p(n_j): its order is
    the product of their orders and its kernel the intersection of theirs
    (``_crt_hnf``).  The canonical order is by kernel sort key (index
    ascending, then basis entries), so the trivial representation always
    comes first.
    """
    moduli, k, n_all = group.moduli, group.rank, group.exponent
    parts = []
    for p, e in factorint(group.order):
        pm = tuple(gcd(n, p**e) for n in moduli)
        parts.append(
            [
                (q, tuple(x * (n // m) for x, n, m in zip(b, moduli, pm)), h)
                for q, b, h in _p_classes(p, pm)
            ]
        )
    irreps = []
    kernels: set[Subgroup] = set()
    total_degree = 0
    for combo in itertools.product(*parts):
        n = prod(q for q, _, _ in combo)
        a = [0] * k
        for _, b, _ in combo:
            a = [(x + y) % m for x, y, m in zip(a, b, moduli)]
        try:
            kernel_hnf = _crt_hnf([h for _, _, h in combo], k)
            kernel = Subgroup(group, MatZ._raw(kernel_hnf))
        except PreconditionError as err:
            raise InternalCheckError(
                f"combined kernel is not a subgroup: {err}"
            ) from err
        if kernel.index != n:
            raise InternalCheckError("kernel index differs from character order")
        # the representative kills the kernel and has order n = [G : K], so
        # K is its kernel, and the kernel of every Galois conjugate
        rep = Character(group, _least_conjugate(tuple(a), moduli))
        c = [(n_all // m) * r for r, m in zip(rep.exps, moduli)]
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
