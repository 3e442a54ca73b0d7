"""Acceptance gate: the eight contract criteria, one printed line each.

Every test wraps its body in the ``criterion`` recorder from conftest, so a
full run prints ``criterion <name>: PASS`` (or FAIL) per criterion and
repeats the lines in the terminal summary.  All checks are exact (integer /
rational arithmetic); randomized parts are seeded and reproducible.

``GROUPS_LE_100`` is the fixed list of moduli with group order <= 100 used
by the exhaustive idempotent criteria; it covers cyclic, elementary-abelian,
and mixed types.
"""

from __future__ import annotations

import json
import random
import time
from functools import reduce

from test_chars import primitive_power_sum
from test_cli import CASES, GOLDEN_DIR, prepare_case, run_cli

from isodec import (
    Character,
    FinAbGroup,
    FixtureSpec,
    GroupAlgebraElem,
    MatZ,
    Subgroup,
    all_subgroups,
    averaging_idempotent,
    central_idempotent,
    char_kernel,
    complementary_subvariety,
    fixed_subvariety,
    image_space,
    intersect_spaces,
    isotypical_component,
    isotypical_decomposition,
    make_fixture,
    product_formula_idempotent,
    ramanujan_sum,
    rational_irreps,
    verify_roan_matching,
)
from isodec.numtheory import totient
from oracles import algebra_matrix

GROUPS_LE_100 = [
    # cyclic
    (1,), (2,), (3,), (4,), (6,), (8,), (9,), (12,), (30,), (60,), (97,),
    # elementary abelian
    (2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (3, 3, 3), (5, 5), (7, 7),
    # mixed
    (2, 4), (4, 4), (8, 4), (2, 2, 3), (8, 9), (2, 6), (6, 6),
    (2, 2, 2, 3), (10, 10),
]


def test_group_list_is_within_bounds():
    assert all(FinAbGroup(m).order <= 100 for m in GROUPS_LE_100)


def test_criterion_1_idempotent_identities(criterion):
    """Sum-to-one and orthogonality of the central idempotents, plus the
    absorption law p_N * p_H = p_N for randomized pairs H <= N."""
    with criterion("1 idempotent identities over the |G| <= 100 list"):
        start = time.monotonic()
        rng = random.Random(20260817)
        for moduli in GROUPS_LE_100:
            group = FinAbGroup(moduli)
            es = [central_idempotent(w) for w in rational_irreps(group)]
            # the unit of Q[G]: the identity element has index 0
            unit = GroupAlgebraElem(group, [1] + [0] * (group.order - 1))
            zero = GroupAlgebraElem(group, [0] * group.order)
            assert reduce(lambda a, b: a + b, es) == unit
            for i, e in enumerate(es):
                for j, f in enumerate(es):
                    expected = e if i == j else zero
                    assert e * f == expected
            subs = all_subgroups(group)
            for _ in range(200):
                n_sub = subs[rng.randrange(len(subs))]
                elems = list(filter(n_sub.contains_exps, group.exponent_tuples()))
                gens = [
                    elems[rng.randrange(len(elems))]
                    for _ in range(rng.randrange(4))
                ]
                h_sub = Subgroup.from_lattice_rows(group, gens)
                assert h_sub.is_contained_in(n_sub)
                p_n = averaging_idempotent(n_sub)
                assert p_n * averaging_idempotent(h_sub) == p_n
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_product_formula_equals_central_idempotent(criterion):
    """prod_{H in P_K} (p_K - p_H) = e_W for every irreducible kernel K of
    every group in the list, as exact group-algebra elements."""
    with criterion("2 product formula equals central idempotents"):
        for moduli in GROUPS_LE_100:
            group = FinAbGroup(moduli)
            for w in rational_irreps(group):
                assert product_formula_idempotent(w.kernel) == central_idempotent(w)


def test_criterion_3_dual_routes_and_ground_truth(criterion):
    """100 seeded random-conjugated actions: the intersection-of-complements
    route and the idempotent-image route give the same subspace for every
    irreducible class, and multiplicities equal the recorded ground truth."""
    with criterion("3 dual-route decomposition matches ground truth"):
        start = time.monotonic()
        cases = 0
        for seed in range(20):
            for moduli in [(8, 9), (4, 4), (2, 2, 3), (12,), (8, 4)]:
                af = make_fixture(
                    FixtureSpec(
                        "random-conjugated", moduli=moduli, seed=seed, max_dim=24
                    )
                )
                action = af.action
                assert action.dim <= 24
                report = isotypical_decomposition(action)
                for comp in report.components:
                    k = comp.irrep.kernel
                    overs = k.minimal_overgroups()
                    if overs:
                        route_a = complementary_subvariety(action, k, overs[0])
                        for h in overs[1:]:
                            route_a = intersect_spaces(
                                route_a, complementary_subvariety(action, k, h)
                            )
                    else:
                        route_a = fixed_subvariety(action, k)
                    route_b = image_space(
                        algebra_matrix(action, central_idempotent(comp.irrep))
                    )
                    assert route_a == route_b == comp.subspace
                computed = {
                    c.irrep.kernel.hnf_basis.entries: c.multiplicity
                    for c in report.components
                }
                expected = dict.fromkeys(computed, 0)
                assert af.ground_truth is not None
                for kmat, m in af.ground_truth:
                    expected[kmat.entries] += m
                assert computed == expected
                cases += 1
        assert cases == 100
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s (budget 120s)"


def test_criterion_4_cyclic_filtration_equivalence(criterion):
    """100 seeded cyclic actions: the filtration pieces are in bijection with
    the nonzero isotypical components as exactly equal subspaces, unmatched
    classes have dimension 0, and both sides satisfy the isogeny-decomposition
    shape (dimensions sum to the total, pairwise intersections are zero)."""
    with criterion("4 cyclic filtration matches isotypical components"):
        orders = list(range(2, 25))
        for i in range(100):
            d = orders[i % len(orders)]
            af = make_fixture(
                FixtureSpec("random-conjugated", moduli=(d,), seed=i, max_dim=16)
            )
            action = af.action
            assert action.group.order == d and action.dim <= 16
            match = verify_roan_matching(action)
            report = isotypical_decomposition(action)
            nonzero = report.nonzero_components

            # complete bijection by exact subspace equality
            by_space = {c.subspace: c for c in nonzero}
            assert len(by_space) == len(nonzero)
            pieces = list(match.roan.components)
            assert len(pieces) == len(match.matches) == len(nonzero)
            for (order, space), (m_order, m_kernel, m_dim) in zip(
                pieces, match.matches
            ):
                comp = by_space[space]  # KeyError = no exactly-equal component
                assert comp.irrep.order == order == m_order
                assert comp.irrep.kernel.hnf_basis == m_kernel.hnf_basis
                assert comp.dim == space.dim == m_dim

            # every unmatched class has dimension zero
            matched_kernels = {k.hnf_basis.entries for _, k, _ in match.matches}
            for c in report.components:
                key = c.irrep.kernel.hnf_basis.entries
                if key not in matched_kernels:
                    assert c.dim == 0
            assert {k.hnf_basis.entries for k in match.zero_components} == {
                c.irrep.kernel.hnf_basis.entries for c in report.components
            } - matched_kernels

            # isogeny-decomposition shape, on both sides
            for spaces in (
                [s for _, s in pieces],
                [c.subspace for c in nonzero],
            ):
                assert sum(s.dim for s in spaces) == action.dim
                for a in range(len(spaces)):
                    for b in range(a + 1, len(spaces)):
                        assert intersect_spaces(spaces[a], spaces[b]).dim == 0


def test_criterion_5_worked_example(criterion, tmp_path):
    """The two workable special cases: (p, q) = (2, 3) with its two-term
    complement intersection, and p = q = 2 where the complement is taken
    inside the full fixed part."""
    with criterion("5 worked example (p=2 q=3; p=q=2)"):
        # -- (2, 3): through the CLI, as shipped
        path = tmp_path / "pe23.json"
        code, _, err = run_cli(
            ["fixture", "paper-example", "2", "3", "-o", str(path)]
        )
        assert code == 0, err
        code, out, err = run_cli(["decompose", str(path), "--json"])
        assert code == 0, err
        obj = json.loads(out)
        [entry] = [
            c for c in obj["components"] if c["kernel_hnf"] == [[2, 0], [0, 3]]
        ]
        assert entry["order"] == 6
        assert entry["multiplicity"] == 1
        assert entry["dim"] == 2

        # -- (2, 3): the complement intersection, at the library level
        af = make_fixture(FixtureSpec("paper-example", p=2, q=3))
        group = af.action.group
        assert group.moduli == (8, 9)
        k_sub = char_kernel(Character(group, (4, 3)))
        assert k_sub.hnf_basis.entries == ((2, 0), (0, 3))
        overs = k_sub.minimal_overgroups()
        assert len(overs) == 2
        assert sorted(k_sub.index // h.index for h in overs) == [2, 3]
        a_w = intersect_spaces(
            complementary_subvariety(af.action, k_sub, overs[0]),
            complementary_subvariety(af.action, k_sub, overs[1]),
        )
        [w6] = [w for w in rational_irreps(group) if w.kernel == k_sub]
        assert a_w == isotypical_component(af.action, w6)
        assert a_w.dim == 2

        # dimension scales as 2 per unit multiplicity
        af3 = make_fixture(
            FixtureSpec("paper-example", p=2, q=3, multiplicities=(3, 1, 1, 1))
        )
        assert isotypical_component(af3.action, w6).dim == 6

        # -- p = q = 2: a single overgroup, the whole group
        af22 = make_fixture(FixtureSpec("paper-example", p=2, q=2))
        group = af22.action.group
        assert group.moduli == (8, 4)
        k_sub = char_kernel(Character(group, (4, 2)))
        assert k_sub.index == 2 and k_sub.quotient_generator() is not None
        whole = Subgroup(group, MatZ.diagonal((1,) * group.rank))
        assert list(k_sub.minimal_overgroups()) == [whole]
        a_w = complementary_subvariety(af22.action, k_sub, whole)
        [w2] = [w for w in rational_irreps(group) if w.kernel == k_sub]
        assert a_w == isotypical_component(af22.action, w2)
        assert a_w.dim == 1


def test_criterion_6_ramanujan_oracle(criterion):
    """ramanujan_sum against the independent power-sum-mod-cyclotomic oracle,
    exhaustively for n <= 60 and every residue k."""
    with criterion("6 ramanujan sums agree with the power-sum oracle"):
        for n in range(1, 61):
            for k in range(n):
                assert ramanujan_sum(n, k) == primitive_power_sum(n, k)


def test_criterion_7_regular_representation(criterion):
    """The regular action of Z/n decomposes into exactly one component of
    dimension phi(d) and multiplicity 1 for each divisor d of n."""
    with criterion("7 regular representation: one class per divisor"):
        for n in range(2, 31):
            af = make_fixture(FixtureSpec("regular", n=n))
            report = isotypical_decomposition(af.action)
            divisors_of_n = [d for d in range(1, n + 1) if n % d == 0]
            assert [
                (c.irrep.order, c.multiplicity, c.dim)
                for c in report.nonzero_components
            ] == [(d, 1, totient(d)) for d in divisors_of_n]
            assert len(report.components) == len(divisors_of_n)


def test_criterion_8_determinism(criterion, tmp_path):
    """Every command on every fixture kind gives byte-identical output across
    repeated runs, pinned by the committed golden files."""
    with criterion("8 deterministic output (golden files)"):
        for golden, inputs, argv in CASES:
            argv = prepare_case(tmp_path, inputs, argv)
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second
            code, out, err = first
            assert code == 0 and err == ""
            assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")
