"""The rational group algebra Q[G] of a finite abelian group.

Elements are dense coefficient vectors indexed by group-element index (the
position in ``FinAbGroup.exponent_tuples()``, read by ``_elements`` in one
pass per group), stored as integer numerators over one positive common
denominator; the unit is (1, 0, ..., 0), since the identity element has
index 0.  Coefficients are normalized and written by the rules of a ``MatQ``
entry (``ratlinalg._normalize_int_rows`` and ``_rational_to_jsonable``).  A
sum and a difference are one combination (``_combine``), a product a
convolution.
The module provides the three idempotent constructions the decomposition
rests on:

* ``averaging_idempotent(H)``     p_H = (1/|H|) sum of the elements of H,
* ``central_idempotent(W)``       e_W with coefficients c_n(m(g)) / |G|,
  where c_n is a Ramanujan sum and m(g) the root exponent of a character
  generating W,
* ``product_formula_idempotent(K)``  the product of (p_K - p_H) over the
  minimal overgroups H of K (``K.minimal_overgroups()``), which equals e_W
  for the irreducible W with kernel K.  The identity of the last two is a key
  internal cross-check.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .abgroup import FinAbGroup, GroupElement, Subgroup
from .chars import RationalIrrep, ramanujan_sum
from .errors import PreconditionError
from .ratlinalg import _normalize_int_rows, _rational_to_jsonable

__all__ = [
    "GroupAlgebraElem",
    "averaging_idempotent",
    "central_idempotent",
    "product_formula_idempotent",
]


@lru_cache(maxsize=64)
def _elements(moduli: tuple[int, ...]):
    """The exponent tuples of G in index order, and the index of each."""
    elems = tuple(FinAbGroup(moduli).exponent_tuples())
    return elems, {x: i for i, x in enumerate(elems)}


@lru_cache(maxsize=8192)
def _translation_perm(moduli: tuple[int, ...], h_index: int) -> tuple[int, ...]:
    """perm[i] = index of (g_i + h), for translation by the element of index h."""
    elems, index = _elements(moduli)
    h = elems[h_index]
    return tuple(
        index[tuple((a + b) % n for a, b, n in zip(x, h, moduli))] for x in elems
    )


class GroupAlgebraElem:
    """An element of Q[G]: integer numerators over one common denominator."""

    __slots__ = ("group", "nums", "den")

    def __init__(self, group: FinAbGroup, nums, den: int = 1):
        nums = tuple(nums)
        if not {*map(type, nums), type(den)} <= {int}:
            raise PreconditionError("numerators and denominator must be ints")
        if len(nums) != group.order:
            raise PreconditionError(
                f"expected {group.order} coefficients, got {len(nums)}"
            )
        if den == 0:
            raise PreconditionError("zero denominator")
        if den < 0:
            nums = tuple(-v for v in nums)
            den = -den
        (nums,), den = _normalize_int_rows((nums,), den)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("GroupAlgebraElem is immutable")

    def _check(self, other: "GroupAlgebraElem"):
        if self.group != other.group:
            raise PreconditionError("elements of different group algebras")

    def _combine(self, other: "GroupAlgebraElem", sign: int) -> "GroupAlgebraElem":
        """self + sign * other, over the product of the denominators."""
        self._check(other)
        a, b = self.den, other.den
        nums = [x * b + sign * y * a for x, y in zip(self.nums, other.nums)]
        return GroupAlgebraElem(self.group, nums, a * b)

    def __add__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        return self._combine(other, 1)

    def __sub__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        return self._combine(other, -1)

    def __mul__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        """Convolution product: (x*y)(g) = sum over h of x(h) y(g-h)."""
        if not isinstance(other, GroupAlgebraElem):
            return NotImplemented
        self._check(other)
        moduli = self.group.moduli
        out = [0] * len(self.nums)
        for h_index, xv in enumerate(self.nums):
            if not xv:
                continue
            perm = _translation_perm(moduli, h_index)
            for i, yv in enumerate(other.nums):
                if yv:
                    out[perm[i]] += xv * yv
        return GroupAlgebraElem(self.group, out, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElem)
            and self.group == other.group
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.group, self.nums, self.den))

    def __repr__(self):
        elems, _ = _elements(self.group.moduli)
        parts = [
            f"{_rational_to_jsonable(v, self.den)}*{elems[i]}"
            for i, v in enumerate(self.nums)
            if v
        ]
        return "GroupAlgebraElem(" + (" + ".join(parts) if parts else "0") + ")"


def averaging_idempotent(h: Subgroup) -> GroupAlgebraElem:
    """p_H = (1/|H|) sum of the elements of H."""
    group = h.group
    nums = [0] * group.order
    for i, exps in enumerate(group.exponent_tuples()):
        if h.contains_exps(exps):
            nums[i] = 1
    return GroupAlgebraElem(group, nums, h.order)


def central_idempotent(w: RationalIrrep) -> GroupAlgebraElem:
    """e_W: coefficient of g is c_n(m(g)) / |G|, summing the character orbit.

    Here n is the order of W, m(g) the root exponent of the representative
    character, and c_n a Ramanujan sum — the exact value of the orbit-summed
    character at g.
    """
    group = w.kernel.group
    n = w.order
    rep = w.representative
    c_table = [ramanujan_sum(n, k) for k in range(n)]
    nums = [
        c_table[rep.root_exponent(GroupElement(group, x))]
        for x in group.exponent_tuples()
    ]
    return GroupAlgebraElem(group, nums, group.order)


def product_formula_idempotent(k_sub: Subgroup) -> GroupAlgebraElem:
    """The product of (p_K - p_H) over the minimal overgroups H of K.

    For K the kernel of an irreducible rational representation W this product
    equals the central idempotent e_W; the empty product (K = G) is p_G
    itself, matching the trivial representation.
    """
    over = k_sub.minimal_overgroups()
    p_k = averaging_idempotent(k_sub)
    if not over:
        return p_k
    return reduce(
        lambda acc, f: acc * f,
        (p_k - averaging_idempotent(h) for h in over),
    )
