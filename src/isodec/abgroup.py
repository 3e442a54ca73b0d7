"""Finite abelian groups presented by moduli, and their subgroups as lattices.

A group G = Z/n_1 x ... x Z/n_k is written additively; an element is its
exponent tuple reduced componentwise.  ``GroupElement`` and
``chars.Character`` share that one rule (``_Exponents``: one int per
modulus, each reduced mod its modulus) and stay distinct types.  A subgroup
H is stored canonically as the Hermite normal form of its preimage lattice
L in Z^k (``Subgroup.from_lattice_rows`` takes any spanning rows), where

    R  =  the relation lattice generated by n_j * e_j,   R ⊆ L ⊆ Z^k,

so H = L/R, [G : H] = det(L) and membership is exact back-substitution
(the trivial subgroup is ``from_lattice_rows(group, ())``).
The invariant factors of G/H are the Smith invariants of the same basis
matrix, read off its Hermite form (`Subgroup.quotient_invariants`).  When
G/H is cyclic of order n, its subgroups are the images of the multiples
m * G, so the overgroup of index n/p over H is H + (n/p) * G
(`Subgroup.minimal_overgroups`), and a generator is read by membership
tests alone (`Subgroup.quotient_generator`).

Each set has one enumerator: ``FinAbGroup.exponent_tuples`` walks the
elements (an element's index is its place in that walk), ``all_subgroups``
the whole lattice, and ``chars.rational_irreps`` the class kernels, which
are the subgroups with cyclic quotient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm, prod

from .errors import PreconditionError
from .numtheory import divisors, prime_divisors
from .ratlinalg import MatZ, _divisor_chain, _hermite, snf_invariants

__all__ = [
    "FinAbGroup",
    "GroupElement",
    "Subgroup",
    "all_subgroups",
]


@dataclass(frozen=True)
class FinAbGroup:
    """Z/n_1 x ... x Z/n_k for the given moduli (each >= 1, at least one)."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        mods = tuple(self.moduli)
        if not mods or not {*map(type, mods)} <= {int} or min(mods) < 1:
            shown = self.moduli if len(mods) <= 8 else (
                f"({', '.join(map(repr, mods[:8]))}, …) ({len(mods)} moduli)"
            )
            raise PreconditionError(f"moduli must be integers >= 1, got {shown}")
        object.__setattr__(self, "moduli", mods)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def exponent(self) -> int:
        return lcm(*self.moduli)

    def exponent_tuples(self):
        """Every element's exponent tuple, once each, in index order (the
        leftmost coordinate most significant): G's one element walk."""
        return itertools.product(*(range(n) for n in self.moduli))

    def generator_elements(self) -> tuple["GroupElement", ...]:
        """The standard generators e_1, ..., e_k."""
        k = self.rank
        return tuple(
            GroupElement(self, tuple(int(i == j) for i in range(k))) for j in range(k)
        )

    def relation_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows n_j * e_j spanning the relation lattice."""
        return _relation_rows(self.moduli)


def _is_cyclic(invariants) -> bool:
    """At most one invariant factor above 1."""
    return sum(1 for d in invariants if d > 1) <= 1


@lru_cache(maxsize=None)
def _relation_rows(moduli: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return MatZ.diagonal(moduli).entries


@dataclass(frozen=True)
class _Exponents:
    """One int per modulus of ``group``, each reduced mod its modulus: the
    rule shared by ``GroupElement`` and ``chars.Character``, which inherit
    the frozen dataclass whole (an instance equals only one of its own
    class).  ``_noun`` and ``_entries`` name each in refusal messages."""

    group: FinAbGroup
    exps: tuple[int, ...]

    def __post_init__(self):
        mods = self.group.moduli
        if len(self.exps) != len(mods):
            raise PreconditionError(
                f"{self._noun} has {len(self.exps)} {self._entries}, "
                f"group has rank {len(mods)}"
            )
        if not {*map(type, self.exps)} <= {int}:
            raise PreconditionError(f"{self._noun} {self._entries} must be ints")
        object.__setattr__(
            self, "exps", tuple(e % n for e, n in zip(self.exps, mods))
        )


class GroupElement(_Exponents):
    """An element of a FinAbGroup, written additively."""

    _noun, _entries = "element", "coordinates"

    def __rmul__(self, k: int) -> "GroupElement":
        if not isinstance(k, int):
            return NotImplemented
        return GroupElement(self.group, tuple(k * e for e in self.exps))

    __mul__ = __rmul__

    def __repr__(self):
        return f"GroupElement{self.exps}"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a FinAbGroup, canonicalized by its preimage-lattice HNF.

    hnf_basis is k x k, upper triangular with positive diagonal, rows spanning
    a lattice that contains every relation row n_j * e_j.  Equal subgroups have
    identical bases, so equality and hashing are structural.
    """

    group: FinAbGroup
    hnf_basis: MatZ

    def __post_init__(self):
        k = self.group.rank
        b = self.hnf_basis
        if b.rows != k or b.cols != k:
            raise PreconditionError(f"subgroup basis must be {k}x{k}")
        e = b.entries
        for i in range(k):
            if e[i][i] <= 0 or any(e[i][j] for j in range(i)):
                raise PreconditionError("subgroup basis is not in Hermite normal form")
            for j in range(i + 1, k):
                if not 0 <= e[i][j] < e[j][j]:
                    raise PreconditionError(
                        "subgroup basis is not in Hermite normal form"
                    )
        for row in self.group.relation_rows():
            if _solve_upper(e, row) is None:
                raise PreconditionError(
                    "subgroup lattice does not contain the relation lattice"
                )

    @classmethod
    def _raw(cls, group: FinAbGroup, hnf_basis: MatZ) -> "Subgroup":
        """A subgroup whose basis its caller has already proved to be a k x k
        HNF containing the relation rows: the checks are not repeated."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "group", group)
        object.__setattr__(sub, "hnf_basis", hnf_basis)
        return sub

    @classmethod
    def from_lattice_rows(cls, group: FinAbGroup, rows) -> "Subgroup":
        """Canonicalize spanning rows (relations are appended automatically)."""
        all_rows = [tuple(r) for r in rows]
        k = group.rank
        if not all(len(r) == k and {*map(type, r)} <= {int} for r in all_rows):
            raise PreconditionError(f"lattice rows must be ints, {k} in each row")
        all_rows += group.relation_rows()
        return cls(group, MatZ._raw(tuple(map(tuple, _hermite(all_rows)))))

    @cached_property
    def index(self) -> int:
        """[G : H] = det of the basis (triangular, so the diagonal product),
        computed once per instance."""
        e = self.hnf_basis.entries
        return prod(e[i][i] for i in range(self.group.rank))

    @property
    def order(self) -> int:
        return self.group.order // self.index

    @property
    def quotient_invariants(self) -> tuple[int, ...]:
        """The invariant factors of G/H, leading 1s included: exactly
        ``snf_invariants(self.hnf_basis)``, read off the Hermite form.

        A pivot 1 has only zeros above it (they lie in [0, 1)), so its column
        is e_i, and column operations clear the rest of its row: each such
        row and column splits off as an invariant 1.  The rows with pivot
        > 1, at their pivot columns, are upper triangular; when that block is
        diagonal (always so for an elementary abelian G, whose L contains
        p Z^k), its diagonal only needs sorting into d1 | d2 | ...  Any
        other block takes one Smith pass at its own size.
        """
        e = self.hnf_basis.entries
        big = [i for i, row in enumerate(e) if row[i] > 1]
        units = (1,) * (len(e) - len(big))
        if not any(e[i][j] for n, i in enumerate(big) for j in big[n + 1 :]):
            return units + _divisor_chain([e[i][i] for i in big])
        block = MatZ._raw(tuple(tuple(e[i][j] for j in big) for i in big))
        return units + snf_invariants(block)

    def quotient_generator(self) -> GroupElement | None:
        """A generator of G/H when it is cyclic, else None.

        For cyclic G/H of order n this is the first element x in index order
        whose order in G/H is n, that is, with (n/p) * x outside H for every
        prime p | n (the identity when H = G).
        """
        if not _is_cyclic(self.quotient_invariants):
            return None
        n = self.index
        cofactors = [n // p for p in prime_divisors(n)]
        return next(
            GroupElement(self.group, x)
            for x in self.group.exponent_tuples()
            if not any(self.contains_exps([c * e for e in x]) for c in cofactors)
        )

    def minimal_overgroups(self) -> tuple["Subgroup", ...]:
        """The overgroups H ⊇ K = self with [H : K] prime, for cyclic G/K:
        one per prime p | n = [G : K], the preimage H_p = K + (n/p) G of the
        subgroup of order p of G/K, in ``sort_key`` order."""
        if not _is_cyclic(self.quotient_invariants):
            raise PreconditionError("minimal overgroups require a cyclic quotient G/K")
        group, n = self.group, self.index
        base = list(self.hnf_basis.entries)
        out = [
            Subgroup.from_lattice_rows(
                group, base + list(MatZ.diagonal((n // p,) * group.rank).entries)
            )
            for p in prime_divisors(n)
        ]
        return tuple(sorted(out, key=lambda s: s.sort_key))

    def contains_exps(self, exps) -> bool:
        return _solve_upper(self.hnf_basis.entries, exps) is not None

    def generators(self) -> tuple[GroupElement, ...]:
        """The basis rows as group elements (they generate H)."""
        return tuple(GroupElement(self.group, row) for row in self.hnf_basis.entries)

    def is_contained_in(self, other: "Subgroup") -> bool:
        if self.group != other.group:
            raise PreconditionError("subgroups of different groups")
        return all(map(other.contains_exps, self.hnf_basis.entries))

    @property
    def sort_key(self):
        return (self.index, self.hnf_basis.entries)

    def __repr__(self):
        return f"Subgroup(index {self.index} of {self.group.moduli})"


def _solve_upper(basis_entries, vec) -> list[int] | None:
    """Integer coordinates of vec in the upper-triangular basis rows, or None
    when vec is not in their lattice."""
    v = list(vec)
    for i, row in enumerate(basis_entries):
        q, rem = divmod(v[i], row[i])
        if rem:
            return None
        v[i] = q  # entry i is now cleared: it keeps the coordinate
        if q:
            for j in range(i + 1, len(v)):
                v[j] -= q * row[j]
    return v


# all_subgroups refuses a group with more candidate bases than this
_SUBGROUP_CANDIDATE_LIMIT = 2_000_000


def all_subgroups(group: FinAbGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, in canonical order (index ascending, then basis).

    Enumerates Hermite normal forms directly, bottom row first.  Row i has a
    pivot d_i dividing n_i (the lattice contains n_i * e_i) and a tail of
    entries a_{i,l} in [0, d_l) for the columns l > i.  Back-substituting
    n_i * e_i touches only rows i, i+1, ..., so the relation holds exactly
    when (n_i / d_i) * (a_{i,i+1}, ..., a_{i,k-1}) lies in the lattice of
    the rows below, restricted to the columns after i.  Each row is checked
    as soon as it is chosen, and only rows that pass are extended upward, so
    the work follows the subgroups found, not the candidate bases; partial
    bases wait on an explicit stack, so no rank meets the recursion limit.
    Each subgroup appears exactly once because the HNF basis is unique.

    Raises PreconditionError, before enumerating, when the count of
    candidate bases without that pruning, prod over columns of
    sum_{d | n_col} d^col, exceeds ``_SUBGROUP_CANDIDATE_LIMIT`` (very high-rank
    2-groups).
    """
    k = group.rank
    moduli = group.moduli
    diag_choices = [divisors(n) for n in moduli]

    # a pivot d in column col has col entries above it, each in [0, d)
    candidates = prod(
        sum(d**col for d in ds) for col, ds in enumerate(diag_choices)
    )
    if candidates > _SUBGROUP_CANDIDATE_LIMIT:
        raise PreconditionError("subgroup enumeration is too large for this group")

    found = []
    # (i, below): the rows i+1, ..., k-1 already chosen, each of full width
    stack = [(k - 1, [])]
    while stack:
        i, below = stack.pop()
        if i < 0:
            # each row is in HNF by construction and passed its relation check
            found.append(Subgroup._raw(group, MatZ._raw(tuple(below))))
            continue
        tail_basis = [row[i + 1 :] for row in below]
        pivots = [row[l] for l, row in enumerate(below, start=i + 1)]
        tails = list(itertools.product(*(range(p) for p in pivots)))
        for d in diag_choices[i]:
            m = moduli[i] // d
            head = (0,) * i + (d,)
            for tail in tails:
                if _solve_upper(tail_basis, [m * a for a in tail]) is not None:
                    stack.append((i - 1, [head + tail] + below))
    return tuple(sorted(found, key=lambda s: s.sort_key))

