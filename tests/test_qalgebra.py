import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodec import (
    FinAbGroup,
    GroupAlgebraElem,
    MatZ,
    PreconditionError,
    Subgroup,
    averaging_idempotent,
    central_idempotent,
    product_formula_idempotent,
    rational_irreps,
)

SMALL_MODULI = [(4,), (6,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]


def one(group):
    """The unit of Q[G]: the identity element has index 0."""
    return GroupAlgebraElem(group, [1] + [0] * (group.order - 1))


def zero(group):
    return GroupAlgebraElem(group, [0] * group.order)


@st.composite
def group_and_elements(draw, count=2):
    group = FinAbGroup(draw(st.sampled_from(SMALL_MODULI)))
    elems = []
    for _ in range(count):
        nums = [
            draw(st.integers(min_value=-4, max_value=4))
            for _ in range(group.order)
        ]
        den = draw(st.integers(min_value=1, max_value=5))
        elems.append(GroupAlgebraElem(group, nums, den))
    return (group, *elems)


# ------------------------------------------------------------- ring axioms


@given(group_and_elements(count=3))
def test_ring_axioms(ge):
    group, x, y, z = ge
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x  # the group is abelian
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * one(group) == x
    assert x + zero(group) == x
    assert x - x == zero(group)
    assert x * zero(group) == zero(group)


@given(group_and_elements(count=1))
def test_scaling(ge):
    # a rational p/q acts as the central element (p/q) * 1: it scales every
    # coefficient, in lowest terms
    group, x = ge

    def scalar(p, q):
        return GroupAlgebraElem(group, [p * v for v in one(group).nums], q)

    scaled = GroupAlgebraElem(group, [2 * v for v in x.nums], 3 * x.den)
    assert x * scalar(2, 3) == scaled
    assert x * scalar(2, 3) * scalar(3, 2) == x
    assert x * scalar(0, 1) == zero(group)
    assert x * scalar(-1, 1) + x == zero(group)


def test_convolution_by_group_element_translates():
    group = FinAbGroup((6,))
    x = GroupAlgebraElem(group, [0, 0, 5, 0, 0, 0])
    y = GroupAlgebraElem(group, [0, 0, 0, 1, 0, 0], 2)
    assert x * y == GroupAlgebraElem(group, [0, 0, 0, 0, 0, 5], 2)


def test_terms_and_coeff():
    # repr lists the nonzero terms, each coefficient in lowest terms
    group = FinAbGroup((2, 2))
    x = GroupAlgebraElem(group, [0, 1, 0, -6], 2)
    assert repr(x) == "GroupAlgebraElem(1/2*(0, 1) + -3*(1, 1))"
    assert repr(zero(group)) == "GroupAlgebraElem(0)"


def test_mismatched_groups_rejected():
    a = one(FinAbGroup((2,)))
    b = one(FinAbGroup((3,)))
    with pytest.raises(PreconditionError):
        a + b
    with pytest.raises(PreconditionError):
        a * b


@pytest.mark.parametrize(
    "nums, den",
    [
        ([0.5, 2.7], 1),
        ([1, True], 1),
        (["3", 1], 2),
        ([1, Fraction(1)], 1),
        ([1, 1], 2.9),
        ([1, 1], True),
    ],
)
def test_non_int_numerators_and_denominators_refused(nums, den):
    with pytest.raises(PreconditionError, match="must be ints"):
        GroupAlgebraElem(FinAbGroup((2,)), nums, den)


@st.composite
def group_nums_and_den(draw):
    group = FinAbGroup(draw(st.sampled_from(SMALL_MODULI)))
    nums = draw(
        st.just([0] * group.order)
        | st.lists(st.integers(-6, 6), min_size=group.order, max_size=group.order)
    )
    den = draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
    return group, nums, den


@settings(max_examples=200, deadline=None)
@given(group_nums_and_den())
def test_coefficients_are_stored_in_lowest_terms(gnd):
    group, nums, den = gnd
    x = GroupAlgebraElem(group, nums, den)
    assert [Fraction(v, x.den) for v in x.nums] == [Fraction(v, den) for v in nums]
    assert x.den > 0 and gcd(x.den, *x.nums) == 1  # so den 1 for zero
    with pytest.raises(PreconditionError, match="zero denominator"):
        GroupAlgebraElem(group, nums, 0)
    neg = -abs(den)
    terms = [
        f"{Fraction(v, neg)}*{x}"
        for x, v in zip(group.exponent_tuples(), nums)
        if v
    ]
    assert repr(GroupAlgebraElem(group, nums, neg)) == (
        f"GroupAlgebraElem({' + '.join(terms) or 0})"
    )


# -------------------------------------------------------------- idempotents


def test_averaging_idempotent_of_known_subgroup():
    g = FinAbGroup((8, 9))
    k = Subgroup.from_lattice_rows(g, [(2, 3)])
    p = averaging_idempotent(k)
    assert p * p == p
    index = list(g.exponent_tuples()).index
    assert Fraction(p.nums[index((2, 3))], p.den) == Fraction(1, 12)
    assert p.nums[index((1, 0))] == 0
    assert Fraction(sum(p.nums), p.den) == 1


def test_averaging_idempotent_of_whole_and_trivial():
    g = FinAbGroup((6,))
    assert averaging_idempotent(Subgroup.from_lattice_rows(g, ())) == one(g)
    p_g = averaging_idempotent(Subgroup(g, MatZ.diagonal((1,))))
    assert p_g * p_g == p_g
    assert p_g.nums == (1,) * 6 and p_g.den == 6


def test_nested_averaging_absorbs():
    # p_N * p_H = p_N whenever H is contained in N
    rng = random.Random(7)
    for moduli in SMALL_MODULI:
        group = FinAbGroup(moduli)
        for _ in range(10):
            n_sub = Subgroup.from_lattice_rows(
                group,
                [tuple(rng.randrange(m) for m in group.moduli) for _ in range(2)],
            )
            members = list(filter(n_sub.contains_exps, group.exponent_tuples()))
            h_sub = Subgroup.from_lattice_rows(
                group, [rng.choice(members) for _ in range(2)]
            )
            assert h_sub.is_contained_in(n_sub)
            p_n = averaging_idempotent(n_sub)
            p_h = averaging_idempotent(h_sub)
            assert p_n * p_h == p_n


def test_central_idempotent_of_order_six_class():
    group = FinAbGroup((6,))
    w = next(w for w in rational_irreps(group) if w.order == 6)
    e = central_idempotent(w)
    coeffs = [Fraction(v, e.den) for v in e.nums]
    assert coeffs == [
        Fraction(1, 3),
        Fraction(1, 6),
        Fraction(-1, 6),
        Fraction(-1, 3),
        Fraction(-1, 6),
        Fraction(1, 6),
    ]


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_central_idempotents_resolve_identity(moduli):
    group = FinAbGroup(moduli)
    es = [central_idempotent(w) for w in rational_irreps(group)]
    total = zero(group)
    for e in es:
        assert e * e == e
        total = total + e
    assert total == one(group)
    for i, a in enumerate(es):
        for j, b in enumerate(es):
            assert a * b == (a if i == j else zero(group))


def test_trivial_class_gives_group_average():
    group = FinAbGroup((2, 4))
    w = rational_irreps(group)[0]
    assert w.order == 1
    whole = Subgroup(group, MatZ.diagonal((1, 1)))
    assert central_idempotent(w) == averaging_idempotent(whole)


@pytest.mark.parametrize("moduli", SMALL_MODULI + [(8, 9), (12,)])
def test_product_formula_equals_central_idempotent(moduli):
    group = FinAbGroup(moduli)
    for w in rational_irreps(group):
        assert product_formula_idempotent(w.kernel) == central_idempotent(w)
