import inspect
import itertools
import sys
import time
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    closure,
    closure_subgroups,
    element_order,
    elements,
    quotient_order_counts,
    subgroup_element_set,
)
from isodec import (
    Character,
    FinAbGroup,
    GroupElement,
    MatZ,
    PreconditionError,
    Subgroup,
    all_subgroups,
    rational_irreps,
    snf_invariants,
)
from isodec.abgroup import _solve_upper
from isodec.numtheory import divisors, prime_divisors

SMALL_MODULI = [(6,), (8,), (12,), (2, 2), (2, 4), (3, 3), (8, 9), (2, 2, 2), (2, 6)]

small_group = st.sampled_from(SMALL_MODULI).map(FinAbGroup)


@st.composite
def group_and_generators(draw, max_gens=3):
    group = draw(small_group)
    count = draw(st.integers(min_value=0, max_value=max_gens))
    gens = [
        tuple(draw(st.integers(min_value=0, max_value=n - 1)) for n in group.moduli)
        for _ in range(count)
    ]
    return group, gens


# ----------------------------------------------------------------- elements


def test_element_arithmetic_and_order():
    g = FinAbGroup((8, 9))
    x = GroupElement(g, (2, 3))
    assert (3 * x).exps == (6, 0)
    assert x * 3 == 3 * x
    assert (-1 * x).exps == (6, 6)
    # 12 is the order: the least multiple that reaches the identity
    assert [m for m in range(1, 13) if m * x == GroupElement(g, (0, 0))] == [12]


@given(group_and_generators(max_gens=1))
def test_element_order_divides_group_exponent(gg):
    group, gens = gg
    zero = GroupElement(group, (0,) * group.rank)
    for exps in gens:
        assert group.exponent * GroupElement(group, exps) == zero


def test_group_invariants_and_cyclicity():
    def whole(moduli):
        return Subgroup.from_lattice_rows(FinAbGroup(moduli), ())

    assert whole((8, 9)).quotient_invariants == (1, 72)
    assert whole((8, 9)).quotient_generator() is not None
    assert whole((2, 2)).quotient_invariants == (2, 2)
    assert whole((2, 2)).quotient_generator() is None
    assert whole((1,)).quotient_generator() is not None
    assert whole((2, 3, 5)).quotient_generator() is not None


def test_bad_moduli_rejected():
    with pytest.raises(PreconditionError):
        FinAbGroup(())
    with pytest.raises(PreconditionError):
        FinAbGroup((0,))
    with pytest.raises(PreconditionError):
        FinAbGroup((-3, 2))


@pytest.mark.parametrize("moduli", [(4.0,), (True, 2), ("4",), (2, 3.5)])
def test_non_integer_moduli_rejected(moduli):
    with pytest.raises(PreconditionError, match="moduli must be integers"):
        FinAbGroup(moduli)


@pytest.mark.parametrize("value", [2.7, 2.0, True, "2"])
def test_group_types_refuse_non_integers(value):
    group = FinAbGroup((4, 6))
    for exponents in (GroupElement, Character):
        with pytest.raises(PreconditionError, match="must be ints"):
            exponents(group, (1, value))
        with pytest.raises(PreconditionError, match="must be ints"):
            exponents(group, (value, 1))
    with pytest.raises(PreconditionError, match="must be ints"):
        Subgroup.from_lattice_rows(group, [(value, 0)])


def test_group_types_refuse_a_wrong_number_of_exponents():
    group = FinAbGroup((4, 6))
    for exponents in (GroupElement, Character):
        for exps in ((), (1,), (1, 2, 3)):
            with pytest.raises(PreconditionError, match="group has rank 2"):
                exponents(group, exps)


def test_group_types_reduce_each_exponent_mod_its_modulus():
    group = FinAbGroup((4, 6))
    for exponents in (GroupElement, Character):
        assert exponents(group, (5, -7)).exps == (1, 5)
        assert exponents(group, (-4, 18)) == exponents(group, (0, 0))
        assert exponents(group, (3, 11)).exps == (3, 5)


def test_characters_and_elements_stay_apart():
    group = FinAbGroup((4, 6))
    assert Character(group, (1, 2)) != GroupElement(group, (1, 2))
    assert 3 * GroupElement(group, (1, 2)) == GroupElement(group, (3, 0))
    with pytest.raises(TypeError):
        3 * Character(group, (1, 2))


def test_lattice_rows_must_match_the_rank():
    with pytest.raises(PreconditionError, match="2 in each row"):
        Subgroup.from_lattice_rows(FinAbGroup((4, 6)), [(2,)])


# ---------------------------------------------------------------- subgroups


def test_subgroup_known_example():
    g = FinAbGroup((8, 9))
    k = Subgroup.from_lattice_rows(g, [(2, 3)])
    assert k.hnf_basis.entries == ((2, 0), (0, 3))
    assert k.index == 6
    assert k.order == 12


@given(group_and_generators())
@settings(max_examples=60)
def test_subgroup_matches_closure_oracle(gg):
    group, gens = gg
    sub = Subgroup.from_lattice_rows(group, gens)
    assert subgroup_element_set(sub) == closure(group, gens)
    assert sub.order * sub.index == group.order


@given(group_and_generators())
@settings(max_examples=40)
def test_subgroup_canonical_under_generator_changes(gg):
    group, gens = gg
    sub = Subgroup.from_lattice_rows(group, gens)
    # generating set reversed, repeated, and padded with sums
    doubled = list(reversed(gens)) + gens
    if len(gens) >= 2:
        s = tuple(
            (a + b) % n for a, b, n in zip(gens[0], gens[1], group.moduli)
        )
        doubled.append(s)
    assert Subgroup.from_lattice_rows(group, doubled) == sub


def test_whole_and_trivial():
    g = FinAbGroup((4, 6))
    w = Subgroup(g, MatZ.diagonal((1, 1)))
    t = Subgroup.from_lattice_rows(g, ())
    assert w.index == 1 and w.order == 24
    assert t.order == 1 and t.index == 24
    assert t.is_contained_in(w)
    assert subgroup_element_set(t) == {(0, 0)}


@st.composite
def group_and_two_generator_sets(draw):
    group = draw(small_group)

    def gen_set():
        count = draw(st.integers(min_value=0, max_value=3))
        return [
            tuple(
                draw(st.integers(min_value=0, max_value=n - 1))
                for n in group.moduli
            )
            for _ in range(count)
        ]

    return group, gen_set(), gen_set()


@given(group_and_two_generator_sets())
@settings(max_examples=40)
def test_containment_matches_element_sets(gg):
    group, gens1, gens2 = gg
    a = Subgroup.from_lattice_rows(group, gens1)
    b = Subgroup.from_lattice_rows(group, gens2)
    assert a.is_contained_in(b) == (
        subgroup_element_set(a) <= subgroup_element_set(b)
    )


def test_subgroup_own_invariants():
    g = FinAbGroup((8, 9))
    h = Subgroup.from_lattice_rows(g, [(4, 0), (0, 3)])
    # order 6 with an element of order 6: cyclic
    assert h.order == 6
    assert max(element_order(g, x) for x in subgroup_element_set(h)) == 6
    g84 = FinAbGroup((8, 4))
    k = Subgroup.from_lattice_rows(g84, [(1, 3), (0, 2)])
    # the motivating index-2 kernel: order 16 and exponent 8, so itself a
    # product Z/8 x Z/2, not cyclic
    assert k.index == 2
    assert max(element_order(g84, x) for x in subgroup_element_set(k)) == 8


def test_invalid_hnf_rejected():
    
    g = FinAbGroup((4, 4))
    with pytest.raises(PreconditionError):
        Subgroup(g, MatZ(((2, 3), (0, 2))))  # above-entry not reduced
    with pytest.raises(PreconditionError):
        Subgroup(g, MatZ(((3, 0), (0, 1))))  # lattice misses relation 4*e1


# ---------------------------------------------------------------- quotients


def test_quotient_known_examples():
    g = FinAbGroup((8, 9))
    k = Subgroup.from_lattice_rows(g, [(2, 3)])
    assert k.index == 6
    assert k.quotient_invariants == (1, 6)
    x = k.quotient_generator()
    assert x is not None
    # the generator coset really has order 6 in G/K
    assert [m for m in range(1, 7) if k.contains_exps((m * x).exps)] == [6]

    trivial22 = Subgroup.from_lattice_rows(FinAbGroup((2, 2)), ())
    assert trivial22.index == 4
    assert trivial22.quotient_invariants == (2, 2)
    assert trivial22.quotient_generator() is None


@given(group_and_generators())
@settings(max_examples=40)
def test_quotient_invariants_match_order_counting(gg):
    group, gens = gg
    sub = Subgroup.from_lattice_rows(group, gens)
    counts = quotient_order_counts(group, sub)
    for m, count in counts.items():
        assert count == prod(gcd(d, m) for d in sub.quotient_invariants)
    x = sub.quotient_generator()
    if x is not None and sub.index > 1:
        orders = [m for m in sorted(counts) if sub.contains_exps((m * x).exps)]
        assert orders[0] == sub.index


def test_quotient_invariants_read_the_tails_not_only_the_pivots():
    # pivots {2, 2}, but 2 * (1, 0) is not in H, so (1, 0) has order 4 and
    # G/H is cyclic: a reading of the pivots alone would give (2, 2)
    g = FinAbGroup((4, 4))
    h = Subgroup(g, MatZ(((2, 1), (0, 2))))
    assert h.quotient_invariants == (1, 4)
    assert h.quotient_generator() == GroupElement(g, (1, 0))
    assert Subgroup(g, MatZ(((2, 0), (0, 2)))).quotient_invariants == (2, 2)
    assert Subgroup(g, MatZ(((1, 3), (0, 4)))).quotient_invariants == (1, 4)


# ranks 1-4, repeated primes included; order <= 256 keeps the lattices small
lattice_group = (
    st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9]), min_size=1, max_size=4)
    .filter(lambda mods: prod(mods) <= 256)
    .map(lambda mods: FinAbGroup(tuple(mods)))
)


@given(lattice_group)
@example(FinAbGroup((4, 4)))
@example(FinAbGroup((2, 4, 8)))
@example(FinAbGroup((6, 6, 6)))
@example(FinAbGroup((4, 4, 4, 4)))
@settings(max_examples=30, deadline=None)
def test_quotient_invariants_equal_the_smith_invariants_of_the_basis(group):
    for s in all_subgroups(group):
        assert s.quotient_invariants == snf_invariants(s.hnf_basis)


# --------------------------------------------------------- minimal overgroups


def test_minimal_overgroups_known_example():
    g = FinAbGroup((8, 9))
    k = Subgroup.from_lattice_rows(g, [(2, 3)])
    over = k.minimal_overgroups()
    assert [h.hnf_basis.entries for h in over] == [((2, 0), (0, 1)), ((1, 0), (0, 3))]
    assert [k.index // h.index for h in over] == [3, 2]
    assert all(k.is_contained_in(h) for h in over)


def test_minimal_overgroups_of_whole_group_is_empty():
    g = FinAbGroup((6,))
    assert Subgroup(g, MatZ.diagonal((1,))).minimal_overgroups() == ()


def test_minimal_overgroups_requires_cyclic_quotient():
    g = FinAbGroup((2, 2))
    with pytest.raises(PreconditionError, match="require a cyclic quotient"):
        Subgroup.from_lattice_rows(g, ()).minimal_overgroups()


@given(group_and_generators())
@settings(max_examples=40)
def test_minimal_overgroups_count_and_primality(gg):
    group, gens = gg
    sub = Subgroup.from_lattice_rows(group, gens)
    if sub.quotient_generator() is None:
        return
    over = sub.minimal_overgroups()
    assert len(over) == len(prime_divisors(sub.index)) if sub.index > 1 else not over
    for h in over:
        assert sub.is_contained_in(h)
        ratio = sub.index // h.index
        assert ratio in prime_divisors(sub.index)
    # against brute force: every subgroup that holds sub with prime index
    assert set(over) == {
        h
        for h in all_subgroups(group)
        if sub.is_contained_in(h) and sub.index // h.index in prime_divisors(sub.index)
    }


@given(group_and_generators())
@settings(max_examples=30)
def test_minimal_overgroups_independent_of_generator_choice(gg):
    group, gens = gg
    sub = Subgroup.from_lattice_rows(group, gens)
    if sub.quotient_generator() is None or sub.index == 1:
        return
    canonical = sub.minimal_overgroups()
    n = sub.index
    # H_p = <K, (n/p) g> for every coset generator g of G/K is the same list
    for g in elements(group):
        orders = [m for m in range(1, n + 1) if sub.contains_exps((m * g).exps)]
        if orders[0] != n:
            continue
        alt = sorted(
            (
                Subgroup.from_lattice_rows(
                    group, [h.exps for h in sub.generators()] + [((n // p) * g).exps]
                )
                for p in prime_divisors(n)
            ),
            key=lambda h: h.sort_key,
        )
        assert tuple(alt) == canonical


@given(group_and_generators())
@example((FinAbGroup((8, 9)), [(2, 0)]))
@example((FinAbGroup((8, 9)), [(0, 3)]))
@example((FinAbGroup((9, 3)), [(3, 2)]))
@settings(max_examples=40)
def test_quotient_generator_is_the_first_element_of_full_order(gg):
    group, gens = gg
    sub = Subgroup.from_lattice_rows(group, gens)
    x = sub.quotient_generator()
    if len([d for d in sub.quotient_invariants if d > 1]) > 1:
        assert x is None
        return
    n = sub.index
    first = next(
        g
        for g in elements(group)
        if min(m for m in range(1, n + 1) if sub.contains_exps((m * g).exps)) == n
    )
    assert x == first


def test_quotient_generator_scan_is_fast_on_every_kernel():
    # Z/2 x Z/5000: the scan for a generator runs furthest on these kernels
    group = FinAbGroup((2, 5000))
    kernels = [w.kernel for w in rational_irreps(group)]
    start = time.perf_counter()
    for k in kernels:
        assert k.quotient_generator() is not None
    assert time.perf_counter() - start < 1


# ------------------------------------------------------------ all subgroups


def test_all_subgroups_counts():
    assert len(all_subgroups(FinAbGroup((8, 9)))) == 12
    assert len(all_subgroups(FinAbGroup((2, 2)))) == 5
    assert len(all_subgroups(FinAbGroup((2, 2, 2)))) == 16
    assert len(all_subgroups(FinAbGroup((4,)))) == 3
    assert len(all_subgroups(FinAbGroup((1,)))) == 1


@pytest.mark.parametrize("moduli", SMALL_MODULI)
def test_all_subgroups_match_closure_enumeration(moduli):
    group = FinAbGroup(moduli)
    subs = all_subgroups(group)
    assert len(set(subs)) == len(subs)
    assert {subgroup_element_set(s) for s in subs} == closure_subgroups(group)
    assert [s.index for s in subs] == sorted(s.index for s in subs)


def test_all_subgroups_enumeration_limit():
    # about 9.8 million candidate bases, above the 2 million guard
    with pytest.raises(PreconditionError):
        all_subgroups(FinAbGroup((2,) * 10))


def test_all_subgroups_needs_no_stack_frame_per_coordinate():
    # factors Z/1 pass the order cap and the candidate guard, so a high rank
    # reaches the enumeration
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        counts = [
            len(all_subgroups(FinAbGroup(moduli)))
            for moduli in ((1,) * 300, (2,) + (1,) * 300)
        ]
    finally:
        sys.setrecursionlimit(limit)
    assert counts == [1, 2]


def _all_subgroups_by_filtering(group):
    """Reference enumeration: every HNF with pivots d_i | n_i and entries
    above each pivot in [0, pivot), kept when it contains every relation row."""
    k = group.rank
    found = []
    for diag in itertools.product(*(divisors(n) for n in group.moduli)):
        cells = [(i, j) for j in range(k) for i in range(j)]
        for values in itertools.product(*(range(diag[j]) for _, j in cells)):
            rows = [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
            for (i, j), v in zip(cells, values):
                rows[i][j] = v
            entries = tuple(tuple(r) for r in rows)
            if all(
                _solve_upper(entries, rel) is not None
                for rel in group.relation_rows()
            ):
                found.append(Subgroup(group, MatZ(entries)))
    return tuple(sorted(found, key=lambda s: s.sort_key))


@pytest.mark.parametrize(
    "moduli",
    [
        (2,) * 5,
        (2, 2, 2, 2),
        (3, 3, 3),
        (4, 4, 4),
        (2, 4, 8),
        (9, 3),
        (4, 2, 8),
        (12, 18),
        (1, 5),
        (5, 1),
        (1, 1, 1),
        (6, 6, 6),
    ],
)
def test_all_subgroups_equal_the_filtered_candidates_in_order(moduli):
    group = FinAbGroup(moduli)
    assert all_subgroups(group) == _all_subgroups_by_filtering(group)


@pytest.mark.parametrize(
    "moduli, count", [((2,) * 6, 2825), ((8, 8, 8), 802), ((100, 100), 675)]
)
def test_all_subgroups_counts_of_larger_groups(moduli, count):
    assert len(all_subgroups(FinAbGroup(moduli))) == count


@pytest.mark.parametrize("moduli", [(2,) * 5, (8, 8, 8), (6, 6, 6), (100, 100)])
def test_every_enumerated_subgroup_passes_the_checking_constructor(moduli):
    # all_subgroups builds its results without Subgroup's checks
    group = FinAbGroup(moduli)
    for s in all_subgroups(group):
        assert Subgroup(group, MatZ(s.hnf_basis.entries)) == s


def _gaussian_binomial(r, k, p):
    num = prod(p ** (r - i) - 1 for i in range(k))
    den = prod(p ** (i + 1) - 1 for i in range(k))
    return num // den


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_elementary_abelian_subgroup_count_is_a_gaussian_binomial_sum(p, r):
    expected = sum(_gaussian_binomial(r, k, p) for k in range(r + 1))
    assert len(all_subgroups(FinAbGroup((p,) * r))) == expected
