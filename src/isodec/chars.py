"""Complex characters of a finite abelian group, and its rational irreducibles.

A character of G = Z/n_1 x ... x Z/n_k is determined by exponents
(a_1, ..., a_k): it sends g to exp(2*pi*i * val(g) / N) where N = lcm(n_j) and

    val(g)  =  sum_j (N / n_j) * a_j * g_j   (mod N).

All character data is kept as exact integer exponents; no complex floats ever
appear.  Characters with the same kernel form one Galois orbit and correspond
to a single irreducible rational representation, whose degree is phi(n) for
n the order of the character (equivalently, n = [G : kernel] and the quotient
G/kernel is cyclic).  The canonical representative of the orbit is the
exponent tuple that is lexicographically smallest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .abgroup import FinAbGroup, GroupElement, Subgroup
from .errors import InternalCheckError, PreconditionError
from .numtheory import moebius, totient
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


@dataclass(frozen=True)
class Character:
    """The character g -> exp(2*pi*i * val(g) / N) given by exponents a_j."""

    group: FinAbGroup
    exps: tuple[int, ...]

    def __post_init__(self):
        mods = self.group.moduli
        if len(self.exps) != len(mods):
            raise PreconditionError(
                f"character has {len(self.exps)} exponents, group has rank {len(mods)}"
            )
        if not {*map(type, self.exps)} <= {int}:
            raise PreconditionError("character exponents must be ints")
        object.__setattr__(
            self, "exps", tuple(a % n for a, n in zip(self.exps, mods))
        )

    @property
    def modulus(self) -> int:
        """N = lcm of the moduli; values live among the N-th roots of unity."""
        return self.group.exponent

    def value_exponent(self, g: GroupElement) -> int:
        """val(g) in Z/N, so the value of the character is zeta_N ** val(g)."""
        if g.group != self.group:
            raise PreconditionError("element of a different group")
        n_all = self.modulus
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
        q, r = divmod(v, self.modulus)
        if r:
            raise InternalCheckError("character value is not an n-th root of unity")
        return q % n

    def kernel(self) -> Subgroup:
        return char_kernel(self)

    def galois_orbit(self) -> tuple["Character", ...]:
        """All characters with the same kernel: the powers of exponent coprime
        to the order, sorted lexicographically by exponent tuple."""
        n = self.order()
        seen = sorted(
            tuple((t * a) % m for a, m in zip(self.exps, self.group.moduli))
            for t in range(1, n + 1)
            if gcd(t, n) == 1
        )
        return tuple(Character(self.group, e) for e in seen)

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
    kernel_rows = [r[m:] for r in _hermite(rows)[m:]]
    return Subgroup(group, MatZ(kernel_rows))


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

    @property
    def group(self) -> FinAbGroup:
        return self.kernel.group

    @property
    def sort_key(self):
        return self.kernel.sort_key

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self):
        return (
            f"RationalIrrep(order {self.order}, degree {self.degree}, "
            f"rep {self.representative.exps})"
        )


def rational_irreps(group: FinAbGroup) -> tuple[RationalIrrep, ...]:
    """All irreducible rational representations, in canonical order.

    Complex characters fall into Galois orbits, and each orbit is one
    rational irreducible; one kernel (one HNF) is computed per orbit.  The
    canonical order is by kernel sort key (index ascending, then basis
    entries), so the trivial representation always comes first.
    """
    seen: set[tuple[int, ...]] = set()
    irreps = []
    kernels: set[Subgroup] = set()
    total_degree = 0
    for exps in itertools.product(*(range(n) for n in group.moduli)):
        if exps in seen:
            continue
        chi = Character(group, exps)
        orbit = chi.galois_orbit()
        seen.update(c.exps for c in orbit)
        kernel = char_kernel(chi)
        n = chi.order()
        if kernel.index != n:
            raise InternalCheckError("kernel index differs from character order")
        rows = kernel.generators()
        if any(
            c.order() != n or any(c.value_exponent(g) for g in rows) for c in orbit
        ):
            raise InternalCheckError("a Galois conjugate has a different kernel")
        degree = totient(n)
        if len(orbit) != degree:
            raise InternalCheckError(
                f"Galois orbit size {len(orbit)} != phi({n}) = {degree}"
            )
        if kernel in kernels:
            raise InternalCheckError("two Galois orbits share a kernel")
        kernels.add(kernel)
        irreps.append(RationalIrrep(kernel, n, degree, orbit[0]))
        total_degree += degree
    if total_degree != group.order:
        raise InternalCheckError("degrees of rational irreducibles do not sum to |G|")
    return tuple(sorted(irreps, key=lambda w: w.sort_key))


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
    return tuple(c ** rep.root_exponent(g) for g in w.group.generator_elements())
