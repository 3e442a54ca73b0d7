import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodec import (
    FinAbGroup,
    GroupAlgebraElem,
    PreconditionError,
    Subgroup,
    averaging_idempotent,
    central_idempotent,
    product_formula_idempotent,
    rational_irreps,
    subgroup_from_generators,
)
from isodec.qalgebra import from_terms, identity, zero

SMALL_MODULI = [(4,), (6,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]


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
    assert x * identity(group) == x
    assert x + zero(group) == x
    assert x - x == zero(group)
    assert x * zero(group) == zero(group)


@given(group_and_elements(count=1))
def test_scaling(ge):
    group, x = ge
    assert x.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == x
    assert x.scale(0) == zero(group)
    assert x.scale(1) == x
    assert -(-x) == x


def test_convolution_by_group_element_translates():
    group = FinAbGroup((6,))
    x = from_terms(group, {group.element((2,)): Fraction(5)})
    y = from_terms(group, {group.element((3,)): Fraction(1, 2)})
    assert x * y == from_terms(group, {group.element((5,)): Fraction(5, 2)})


def test_terms_and_coeff():
    group = FinAbGroup((2, 2))
    x = from_terms(
        group,
        {group.element((0, 1)): Fraction(1, 2), group.element((1, 1)): Fraction(-3)},
    )
    assert x.coeff(group.element((0, 1))) == Fraction(1, 2)
    assert x.coeff(group.element((0, 0))) == 0
    assert [(g.exps, c) for g, c in x.terms()] == [
        ((0, 1), Fraction(1, 2)),
        ((1, 1), Fraction(-3)),
    ]


def test_coefficients_follow_the_entry_grammar():
    group = FinAbGroup((2,))
    g = group.element((1,))
    x = from_terms(group, {g: "3/4"})
    assert x == from_terms(group, {g: Fraction(3, 4)})
    assert x.scale("4/3") == from_terms(group, {g: 1})
    assert x.scale(2) == x.scale(Fraction(2))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot parse '1e3000000'"):
        from_terms(group, {g: "1e3000000"})
    with pytest.raises(ValueError, match="cannot parse '1e3000000'"):
        x.scale("1e3000000")
    assert time.perf_counter() - start < 1
    with pytest.raises(TypeError):
        from_terms(group, {g: 0.1})
    with pytest.raises(TypeError):
        x.scale(0.5)


def test_jsonable_round_trip():
    group = FinAbGroup((4, 3))
    x = from_terms(
        group,
        {group.element((1, 2)): Fraction(-7, 3), group.element((0, 1)): Fraction(2)},
    )
    assert GroupAlgebraElem.from_jsonable(x.to_jsonable()) == x


def test_mismatched_groups_rejected():
    a = identity(FinAbGroup((2,)))
    b = identity(FinAbGroup((3,)))
    with pytest.raises(PreconditionError):
        a + b
    with pytest.raises(PreconditionError):
        a * b


# -------------------------------------------------------------- idempotents


def test_averaging_idempotent_of_known_subgroup():
    g = FinAbGroup((8, 9))
    k = subgroup_from_generators(g, [(2, 3)])
    p = averaging_idempotent(k)
    assert p.is_idempotent()
    assert p.coeff(g.element((2, 3))) == Fraction(1, 12)
    assert p.coeff(g.element((1, 0))) == 0
    assert sum(c for _, c in p.terms()) == 1


def test_averaging_idempotent_of_whole_and_trivial():
    g = FinAbGroup((6,))
    assert averaging_idempotent(Subgroup.trivial(g)) == identity(g)
    p_g = averaging_idempotent(Subgroup.whole(g))
    assert p_g.is_idempotent()
    assert all(c == Fraction(1, 6) for _, c in p_g.terms())


def test_nested_averaging_absorbs():
    # p_N * p_H = p_N whenever H is contained in N
    rng = random.Random(7)
    for moduli in SMALL_MODULI:
        group = FinAbGroup(moduli)
        for _ in range(10):
            n_sub = subgroup_from_generators(
                group,
                [tuple(rng.randrange(m) for m in group.moduli) for _ in range(2)],
            )
            members = list(n_sub.elements())
            h_sub = subgroup_from_generators(
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
    coeffs = [e.coeff(group.element((k,))) for k in range(6)]
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
        assert e.is_idempotent()
        total = total + e
    assert total == identity(group)
    for i, a in enumerate(es):
        for j, b in enumerate(es):
            assert a * b == (a if i == j else zero(group))


def test_trivial_class_gives_group_average():
    group = FinAbGroup((2, 4))
    w = rational_irreps(group)[0]
    assert w.is_trivial()
    assert central_idempotent(w) == averaging_idempotent(Subgroup.whole(group))


@pytest.mark.parametrize("moduli", SMALL_MODULI + [(8, 9), (12,)])
def test_product_formula_equals_central_idempotent(moduli):
    group = FinAbGroup(moduli)
    for w in rational_irreps(group):
        assert product_formula_idempotent(w.kernel) == central_idempotent(w)
