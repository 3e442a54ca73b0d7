from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements, subgroup_element_set
from isodec import (
    Character,
    FinAbGroup,
    GroupElement,
    InternalCheckError,
    PreconditionError,
    char_kernel,
    companion_matrix,
    cyclotomic,
    irrep_model,
    ramanujan_sum,
    rational_irreps,
)
import isodec.chars as chars_module
from isodec.chars import _least_conjugate, common_kernel
from isodec.numtheory import divisors, moebius, totient
from oracles import char_poly, galois_orbit, rational_irreps_by_walk, trace

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
    xs = elements(group)
    a, b = xs[len(xs) // 3], xs[(2 * len(xs)) // 3]
    n_all = group.exponent
    a_plus_b = GroupElement(group, tuple(x + y for x, y in zip(a.exps, b.exps)))
    assert chi.value_exponent(a_plus_b) == (
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
        g.exps for g in elements(group) if chi.value_exponent(g) == 0
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
        for g in elements(group)
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
    for g in elements(group)[:8]:
        m = chi.root_exponent(g)
        assert 0 <= m < n
        assert (m * (n_all // n)) % n_all == chi.value_exponent(g)


@given(group_and_character())
@settings(max_examples=40)
def test_galois_orbit_structure(gc):
    group, chi = gc
    orbit = galois_orbit(chi)
    n = chi.order()
    assert len(orbit) == totient(n)
    assert all(char_kernel(c) == char_kernel(chi) for c in orbit)
    assert [c.exps for c in orbit] == sorted(c.exps for c in orbit)
    assert chi.exps in {c.exps for c in orbit}


# ------------------------------------------------------------------- irreps


def test_rational_irreps_of_cyclic_group():
    irr = rational_irreps(FinAbGroup((6,)))
    assert [w.order for w in irr] == [1, 2, 3, 6]
    assert [w.degree for w in irr] == [1, 1, 2, 2]
    assert [w.representative.exps for w in irr] == [(0,), (3,), (2,), (1,)]


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_rational_irreps_partition_the_characters(moduli):
    group = FinAbGroup(moduli)
    irr = rational_irreps(group)
    assert sum(w.degree for w in irr) == group.order
    kernels = [w.kernel for w in irr]
    assert len(set(kernels)) == len(kernels)
    assert [k.sort_key for k in kernels] == sorted(k.sort_key for k in kernels)
    for w in irr:
        assert w.order == w.kernel.index
        assert w.degree == totient(w.order)
        assert char_kernel(w.representative) == w.kernel
        # representative is the lex-least character in its orbit
        orbit = galois_orbit(w.representative)
        assert w.representative.exps == min(c.exps for c in orbit)


def test_cyclic_group_has_one_irrep_per_divisor():
    for n in (1, 2, 6, 12, 30):
        irr = rational_irreps(FinAbGroup((n,)))
        assert [w.order for w in irr] == list(divisors(n))


@st.composite
def moduli_up_to(draw, max_order=3000):
    """One to four moduli, 1s and unequal ones among them, of product at
    most max_order."""
    moduli = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        budget = max_order // prod(moduli)
        moduli.append(draw(st.integers(min_value=1, max_value=min(budget, 100))))
    return tuple(moduli)


def assert_irreps_equal_the_walk(moduli):
    group = FinAbGroup(moduli)
    got, want = rational_irreps(group), rational_irreps_by_walk(group)
    assert len(got) == len(want)
    for w, v in zip(got, want):
        assert w.kernel == v.kernel
        assert (w.order, w.degree) == (v.order, v.degree)
        assert w.representative == v.representative


@given(moduli_up_to())
@settings(max_examples=60, deadline=None)
def test_rational_irreps_equal_the_walk_over_the_group(moduli):
    assert_irreps_equal_the_walk(moduli)


@pytest.mark.parametrize(
    "moduli",
    [
        (1,),
        (1, 1),
        (12, 18, 30),
        (9, 27, 3),
        (4, 1, 9),
        (2,) * 6,
        (36, 20),
        (50, 60),
        (3000,),
    ],
)
def test_rational_irreps_equal_the_walk_on_mixed_moduli(moduli):
    assert_irreps_equal_the_walk(moduli)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_least_conjugate_is_the_orbit_minimum(data):
    moduli = data.draw(
        st.lists(st.integers(1, 60), min_size=1, max_size=4).filter(
            lambda m: lcm(*m) <= 5000
        )
    )
    a = tuple(data.draw(st.integers(0, n - 1)) for n in moduli)
    chi = Character(FinAbGroup(tuple(moduli)), a)
    assert _least_conjugate(a, tuple(moduli)) == galois_orbit(chi)[0].exps


# Each certificate of rational_irreps, reached by breaking one step.


def test_rational_irreps_certifies_the_orbit_size(monkeypatch):
    monkeypatch.setattr(chars_module, "totient", lambda n: totient(n) + 1)
    with pytest.raises(
        InternalCheckError, match=r"Galois orbit size 1 != phi\(1\) = 2"
    ):
        rational_irreps(FinAbGroup((6,)))


def test_a_p_group_class_kernel_is_its_own_hnf(monkeypatch):
    # one Sylow part: each class kernel is one lattice, already in HNF
    real = chars_module._crt_hnf
    handed_back = []

    def spy(hnfs, k):
        out = real(hnfs, k)
        handed_back.append(len(hnfs) == 1 and out is hnfs[0])
        return out

    monkeypatch.setattr(chars_module, "_crt_hnf", spy)
    assert_irreps_equal_the_walk((2, 4, 8))
    assert handed_back and all(handed_back)


def test_rational_irreps_certifies_the_combined_kernel_is_a_subgroup(monkeypatch):
    # an entry above its diagonal entry: not a Hermite normal form
    monkeypatch.setattr(chars_module, "_crt_hnf", lambda hnfs, k: ((1, 5), (0, 2)))
    with pytest.raises(
        InternalCheckError,
        match="combined kernel is not a subgroup: .*not in Hermite normal form",
    ):
        rational_irreps(FinAbGroup((2, 3)))


def test_rational_irreps_certifies_the_kernel_index(monkeypatch):
    # the whole group as every kernel: index 1, for classes of every order
    monkeypatch.setattr(chars_module, "_crt_hnf", lambda hnfs, k: ((1, 0), (0, 1)))
    with pytest.raises(
        InternalCheckError, match="kernel index differs from character order"
    ):
        rational_irreps(FinAbGroup((2, 3)))


def test_rational_irreps_certifies_the_representative(monkeypatch):
    # (2, 2) has three classes of order 2; give each the kernel of (1, 0)
    real = chars_module._crt_hnf

    def one_index_two_kernel(hnfs, k):
        rows = real(hnfs, k)
        return rows if rows[0][0] * rows[1][1] == 1 else ((1, 0), (0, 2))

    monkeypatch.setattr(chars_module, "_crt_hnf", one_index_two_kernel)
    with pytest.raises(
        InternalCheckError, match="the representative's kernel is not the class kernel"
    ):
        rational_irreps(FinAbGroup((2, 2)))


def test_rational_irreps_certifies_distinct_kernels(monkeypatch):
    real = chars_module._p_classes
    monkeypatch.setattr(chars_module, "_p_classes", lambda p, m: real(p, m) * 2)
    with pytest.raises(InternalCheckError, match="two Galois orbits share a kernel"):
        rational_irreps(FinAbGroup((6,)))


def test_rational_irreps_certifies_the_degree_sum(monkeypatch):
    real = chars_module._p_classes
    monkeypatch.setattr(chars_module, "_p_classes", lambda p, m: real(p, m)[:-1])
    with pytest.raises(
        InternalCheckError,
        match=r"degrees of rational irreducibles do not sum to \|G\|",
    ):
        rational_irreps(FinAbGroup((6,)))


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
        for g in elements(group):
            rho = MatPower.at(mats, g.exps)
            assert rho.is_identity() == w.kernel.contains_exps(g.exps)


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
        for g in elements(group)[:12]:
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
