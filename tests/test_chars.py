from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subgroup_element_set
from isodec import (
    Character,
    FinAbGroup,
    PreconditionError,
    char_kernel,
    companion_matrix,
    cyclotomic,
    irrep_model,
    ramanujan_sum,
    rational_irreps,
)
from isodec.chars import common_kernel
from isodec.numtheory import divisors, moebius, totient
from oracles import char_poly, trace

SMALL_MODULI = [(6,), (8,), (12,), (2, 2), (2, 4), (3, 3), (8, 9), (2, 2, 2)]


@st.composite
def group_and_character(draw):
    group = FinAbGroup(draw(st.sampled_from(SMALL_MODULI)))
    exps = tuple(
        draw(st.integers(min_value=0, max_value=n - 1)) for n in group.moduli
    )
    return group, Character(group, exps)


# --------------------------------------------------------------- characters


@given(group_and_character())
def test_value_exponent_is_additive(gc):
    group, chi = gc
    xs = list(group.elements())
    a, b = xs[len(xs) // 3], xs[(2 * len(xs)) // 3]
    n_all = group.exponent
    assert chi.value_exponent(a + b) == (
        chi.value_exponent(a) + chi.value_exponent(b)
    ) % n_all


def test_kernel_known_example():
    g = FinAbGroup((8, 9))
    chi = Character(g, (4, 3))
    assert char_kernel(chi).hnf_basis.entries == ((2, 0), (0, 3))
    assert chi.order() == 6


@given(group_and_character())
@settings(max_examples=60)
def test_kernel_matches_brute_force(gc):
    group, chi = gc
    kernel = char_kernel(chi)
    expected = {
        g.exps for g in group.elements() if chi.value_exponent(g) == 0
    }
    assert subgroup_element_set(kernel) == expected
    assert kernel.index == chi.order()


@st.composite
def group_and_characters(draw):
    group = FinAbGroup(draw(st.sampled_from(SMALL_MODULI)))
    exps = st.tuples(*(st.integers(min_value=0, max_value=n - 1) for n in group.moduli))
    return group, [Character(group, e) for e in draw(st.lists(exps, max_size=5))]


@given(group_and_characters())
@settings(max_examples=80)
def test_common_kernel_matches_brute_force(gc):
    group, chars = gc
    kernel = common_kernel(group, chars)
    expected = {
        g.exps
        for g in group.elements()
        if not any(chi.value_exponent(g) for chi in chars)
    }
    assert subgroup_element_set(kernel) == expected


def test_common_kernel_refuses_a_character_of_another_group():
    chi = Character(FinAbGroup((6,)), (1,))
    with pytest.raises(PreconditionError):
        common_kernel(FinAbGroup((2, 3)), [chi])


@given(group_and_character())
def test_root_exponent_rescales_value(gc):
    group, chi = gc
    n = chi.order()
    n_all = group.exponent
    for g in list(group.elements())[:8]:
        m = chi.root_exponent(g)
        assert 0 <= m < n
        assert (m * (n_all // n)) % n_all == chi.value_exponent(g)


@given(group_and_character())
@settings(max_examples=40)
def test_galois_orbit_structure(gc):
    group, chi = gc
    orbit = chi.galois_orbit()
    n = chi.order()
    assert len(orbit) == totient(n)
    assert all(c.kernel() == chi.kernel() for c in orbit)
    assert [c.exps for c in orbit] == sorted(c.exps for c in orbit)
    assert chi.exps in {c.exps for c in orbit}


# ------------------------------------------------------------------- irreps


def test_rational_irreps_of_cyclic_group():
    irr = rational_irreps(FinAbGroup((6,)))
    assert [w.order for w in irr] == [1, 2, 3, 6]
    assert [w.degree for w in irr] == [1, 1, 2, 2]
    assert [w.representative.exps for w in irr] == [(0,), (3,), (2,), (1,)]
    assert irr[0].is_trivial()


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_rational_irreps_partition_the_characters(moduli):
    group = FinAbGroup(moduli)
    irr = rational_irreps(group)
    assert sum(w.degree for w in irr) == group.order
    kernels = [w.kernel for w in irr]
    assert len(set(kernels)) == len(kernels)
    assert [w.sort_key for w in irr] == sorted(w.sort_key for w in irr)
    for w in irr:
        assert w.order == w.kernel.index
        assert w.degree == totient(w.order)
        assert w.representative.kernel() == w.kernel
        # representative is the lex-least character in its orbit
        orbit = w.representative.galois_orbit()
        assert w.representative.exps == min(c.exps for c in orbit)


def test_cyclic_group_has_one_irrep_per_divisor():
    for n in (1, 2, 6, 12, 30):
        irr = rational_irreps(FinAbGroup((n,)))
        assert [w.order for w in irr] == list(divisors(n))


# ----------------------------------------------------------- Ramanujan sums


def test_ramanujan_known_tables():
    assert [ramanujan_sum(1, k) for k in range(3)] == [1, 1, 1]
    assert [ramanujan_sum(4, k) for k in range(4)] == [2, 0, -2, 0]
    assert [ramanujan_sum(6, k) for k in range(6)] == [2, 1, -1, -2, -1, 1]
    assert [ramanujan_sum(9, k) for k in range(9)] == [6, 0, 0, -3, 0, 0, -3, 0, 0]


def test_ramanujan_edge_values():
    for n in range(1, 40):
        assert ramanujan_sum(n, 0) == totient(n)
        assert ramanujan_sum(n, 1) == moebius(n)
        assert ramanujan_sum(n, n) == totient(n)
    with pytest.raises(PreconditionError):
        ramanujan_sum(0, 1)


def primitive_power_sum(n: int, k: int) -> int:
    """Independent oracle: sum of zeta^{jk} over gcd(j, n) = 1, computed as a
    polynomial in zeta reduced modulo the n-th cyclotomic polynomial."""
    coeffs = [0] * n
    for j in range(1, n + 1):
        if gcd(j, n) == 1:
            coeffs[(j * k) % n] += 1
    # reduce modulo the monic integer Phi_n, from the top coefficient down
    phi = cyclotomic(n)
    deg = len(phi) - 1
    for i in range(n - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j, b in enumerate(phi):
                coeffs[i - deg + j] -= c * b
    assert not any(coeffs[1:])  # the remainder is a constant
    return coeffs[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12, 15, 20])
def test_ramanujan_matches_power_sum_oracle(n):
    for k in range(n):
        assert ramanujan_sum(n, k) == primitive_power_sum(n, k)


# -------------------------------------------------------------- irrep model


def test_irrep_model_known_example():
    g = FinAbGroup((8, 9))
    w = next(
        w for w in rational_irreps(g) if w.kernel.hnf_basis.entries == ((2, 0), (0, 3))
    )
    assert w.order == 6 and w.degree == 2
    assert w.representative.exps == (4, 3)
    mats = irrep_model(w)
    c = companion_matrix(cyclotomic(6))
    assert mats[0] == c**3
    assert mats[1] == c**2


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_irrep_model_is_a_representation_with_the_right_kernel(moduli):
    group = FinAbGroup(moduli)
    for w in rational_irreps(group):
        mats = irrep_model(w)
        assert len(mats) == group.rank
        for m, n in zip(mats, group.moduli):
            assert (m**n).is_identity()
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert mats[i] @ mats[j] == mats[j] @ mats[i]
        # the model's kernel is exactly the irrep's kernel
        for g in group.elements():
            rho = MatPower.at(mats, g.exps)
            assert rho.is_identity() == w.kernel.contains(g)


class MatPower:
    @staticmethod
    def at(mats, exps):
        m = mats[0] ** exps[0]
        for gen, e in zip(mats[1:], exps[1:]):
            m = m @ (gen**e)
        return m


@pytest.mark.parametrize("moduli", [(6,), (12,), (8, 9), (2, 4)])
def test_irrep_model_trace_is_ramanujan_value(moduli):
    group = FinAbGroup(moduli)
    for w in rational_irreps(group):
        mats = irrep_model(w)
        for g in list(group.elements())[:12]:
            rho = MatPower.at(mats, g.exps)
            expected = ramanujan_sum(w.order, w.representative.root_exponent(g))
            assert trace(rho) == expected


def test_irrep_model_characteristic_polynomial_is_cyclotomic():
    group = FinAbGroup((12,))
    for w in rational_irreps(group):
        if w.order == 1:
            continue
        mats = irrep_model(w)
        # at the standard generator the model has full order n
        assert char_poly(mats[0]) == cyclotomic(w.order)
