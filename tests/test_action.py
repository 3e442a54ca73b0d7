import random
from fractions import Fraction
from operator import add
from types import SimpleNamespace

import pytest

from conftest import elements, perm_matrix, subgroup_element_set
from isodec import (
    FinAbGroup,
    GroupElement,
    all_subgroups,
    MatQ,
    PreconditionError,
    Subgroup,
    SubspaceQ,
    ValidationError,
    action_matrix,
    complementary_subvariety,
    fixed_subvariety,
    image_space,
    intersect_spaces,
    isotypical_component,
    isotypical_decomposition,
    make_fixture,
    rational_irreps,
    validate_action,
)
from isodec.actionfile import serialize_action_file
from isodec.errors import InternalCheckError
from isodec.fixtures import FixtureSpec
from isodec.qalgebra import (
    GroupAlgebraElem,
    averaging_idempotent,
    central_idempotent,
)
import isodec.action as action_module
from isodec.action import _signature, _sylow_parts
from oracles import algebra_matrix, fraction_rows, inverse, rho_table

from test_cli import run_cli


def assert_routes_match_expanded_sums(action):
    """Against the |G|-term sums: fixed_subvariety(H) is the image of p_H
    for every subgroup H, complementary_subvariety(K, H) the image of
    p_K - p_H for every pair K contained in H, and every isotypical
    component the image of e_W."""
    group = action.group
    subgroups = all_subgroups(group)
    avg = {h: averaging_idempotent(h) for h in subgroups}
    for h in subgroups:
        p_h = algebra_matrix(action, avg[h])
        assert fixed_subvariety(action, h) == image_space(p_h)
    for k in subgroups:
        for h in subgroups:
            if k.is_contained_in(h):
                # the difference is taken in Q[G], before any matrix is formed
                assert complementary_subvariety(action, k, h) == image_space(
                    algebra_matrix(action, avg[k] - avg[h])
                )
    for w in rational_irreps(group):
        assert isotypical_component(action, w) == image_space(
            algebra_matrix(action, central_idempotent(w))
        )


def through_quotient(group, sub, budget):
    """Multiplicities with one copy of each class whose kernel holds sub,
    while the dimension stays within budget."""
    mult = []
    for w in rational_irreps(group):
        take = sub.is_contained_in(w.kernel) and w.degree <= budget
        mult.append(int(take))
        budget -= w.degree * take
    return tuple(mult)


def rationally_conjugated(action, seed):
    """The action conjugated by a random upper-triangular rational matrix of
    determinant other than +-1, so neither it nor its inverse is integral."""
    rng = random.Random(seed)
    dim = action.dim
    p = MatQ(
        [
            [
                Fraction(rng.choice((2, 3, -5)), rng.choice((1, 2, 7)))
                if i == j
                else Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if j > i else 0
                for j in range(dim)
            ]
            for i in range(dim)
        ]
    )
    p_inv = inverse(p)
    return validate_action(
        action.group, [p_inv @ m @ p for m in action.gen_matrices]
    )


@pytest.fixture
def products(monkeypatch):
    """Counts every MatQ product (powers included) in .n; set .n = 0 to
    start a count."""
    counter = SimpleNamespace(n=0)
    matmul = MatQ.__matmul__

    def counted(a, b):
        counter.n += 1
        return matmul(a, b)

    monkeypatch.setattr(MatQ, "__matmul__", counted)
    return counter


# --------------------------------------------------------------- validation


def test_validate_accepts_involution():
    a = validate_action(FinAbGroup((2,)), [MatQ([[1, 0], [0, -1]])])
    assert a.dim == 2
    report = isotypical_decomposition(a)
    assert report.faithful
    assert not any("not faithful" in w for w in report.warnings)


def test_validate_rejects_wrong_count():
    with pytest.raises(ValidationError, match="expected 2 generator matrices, got 1"):
        validate_action(FinAbGroup((2, 2)), [MatQ([[1]])])


def test_validate_rejects_wrong_order():
    with pytest.raises(ValidationError, match=r"generator 1: M\^2 != I"):
        validate_action(FinAbGroup((2,)), [MatQ([[0, -1], [1, 0]])])


def test_validate_rejects_non_square_and_size_mismatch():
    with pytest.raises(ValidationError, match="not square"):
        validate_action(FinAbGroup((2,)), [MatQ([[1, 0]])])
    with pytest.raises(ValidationError, match="differs from generator 1 size"):
        validate_action(
            FinAbGroup((2, 2)), [MatQ([[1]]), MatQ([[1, 0], [0, 1]])]
        )


def test_validate_rejects_noncommuting():
    with pytest.raises(ValidationError, match="generators 1 and 2 do not commute"):
        validate_action(
            FinAbGroup((2, 2)),
            [MatQ([[0, 1], [1, 0]]), MatQ([[1, 0], [0, -1]])],
        )


def test_validate_forms_no_commutation_product_for_an_identity(products):
    # M ** 1 forms no product: 1500 factors Z/1 used to form 2 * C(1500, 2)
    validate_action(FinAbGroup((1,) * 1500), [MatQ([[1]])] * 1500)
    assert products.n == 0
    # one squaring per relation M ** 2, and one pair of non-identities
    swap, eye = MatQ([[0, 1], [1, 0]]), MatQ.identity(2)
    validate_action(FinAbGroup((2,) * 5), [swap, eye, eye, swap, eye])
    assert products.n == 5 + 2


def test_validate_names_noncommuting_generators_around_an_identity():
    with pytest.raises(ValidationError, match="generators 1 and 3 do not commute"):
        validate_action(
            FinAbGroup((2, 2, 2)),
            [MatQ([[0, 1], [1, 0]]), MatQ.identity(2), MatQ([[1, 0], [0, -1]])],
        )


@pytest.mark.parametrize(
    "spec",
    [
        FixtureSpec("regular", n=48),
        FixtureSpec("random-conjugated", moduli=(100, 100), seed=0, max_dim=8),
        FixtureSpec("random-conjugated", moduli=(2, 4, 6), seed=1, max_dim=10),
    ],
)
def test_validation_checks_only_the_presentation(spec, products):
    # M_j ** n_j by repeated squaring, plus two products per pair of
    # generators
    made = make_fixture(spec).action
    group, mats = made.group, made.gen_matrices
    products.n = 0
    validate_action(group, mats)
    k = group.rank
    assert products.n <= sum(2 * n.bit_length() for n in group.moduli) + k * (k - 1)


def test_non_faithful_action_warns():
    a = validate_action(FinAbGroup((4,)), [MatQ([[-1]])])
    report = isotypical_decomposition(a)
    assert not report.faithful
    assert report.action_kernel.order == 2
    assert "not faithful" in report.warnings[0]


# ------------------------------------------------------------------ symbols


def test_action_matrix_is_a_homomorphism():
    group = FinAbGroup((4, 3))
    af = make_fixture(FixtureSpec("semisimple", moduli=(4, 3)))
    rng = random.Random(1)
    for _ in range(20):
        g = GroupElement(group, tuple(rng.randrange(n) for n in group.moduli))
        h = GroupElement(group, tuple(rng.randrange(n) for n in group.moduli))
        g_plus_h = GroupElement(group, tuple(a + b for a, b in zip(g.exps, h.exps)))
        assert action_matrix(af.action, g_plus_h) == action_matrix(
            af.action, g
        ) @ action_matrix(af.action, h)


def test_action_matrix_by_repeated_squaring(products):
    # in any order, each rho(g) costs at most 2 * bit_length(g_j) products
    # per coordinate, and equals the oracle's running product
    for moduli in [(4, 3), (2, 2, 6)]:
        action = make_fixture(
            FixtureSpec("random-conjugated", moduli=moduli, seed=2, max_dim=12)
        ).action
        pairs = list(zip(elements(action.group), rho_table(action)))
        random.Random(5).shuffle(pairs)
        for g, expected in pairs:
            products.n = 0
            rho_g = action_matrix(action, g)
            assert products.n <= sum(2 * e.bit_length() for e in g.exps)
            assert rho_g == expected
        rep = isotypical_decomposition(action)
        assert sum(c.dim for c in rep.components) == action.dim
        assert_routes_match_expanded_sums(action)


@pytest.mark.parametrize(
    "moduli,trivial_on",
    [
        ((12, 18), [(6, 0), (0, 6)]),
        ((4, 6), [(2, 0), (0, 2)]),
        ((2, 2, 6), [(1, 0, 0), (0, 0, 2)]),
        ((30,), [(5,)]),
        ((6, 10), [(2, 0), (0, 5)]),
        ((1, 5), [(0, 1)]),
    ],
)
def test_action_kernel_equals_brute_force_kernel(moduli, trivial_on):
    # only irreducibles whose kernel holds trivial_on (of order 6 except on
    # (1, 5), so with parts at two primes) appear
    group = FinAbGroup(moduli)
    forced = Subgroup.from_lattice_rows(group, trivial_on)
    af = make_fixture(
        FixtureSpec(
            "random-conjugated",
            moduli=moduli,
            multiplicities=through_quotient(group, forced, 12),
            seed=3,
        )
    )
    for action in (af.action, rationally_conjugated(af.action, seed=4)):
        kernel = {
            x
            for x, rho in zip(group.exponent_tuples(), rho_table(action))
            if rho.is_identity()
        }
        assert subgroup_element_set(forced) <= kernel
        report = isotypical_decomposition(action)
        assert subgroup_element_set(report.action_kernel) == kernel
        assert not report.faithful
        assert "not faithful" in report.warnings[0]


def test_algebra_matrix_is_linear_and_multiplicative():
    group = FinAbGroup((6,))
    af = make_fixture(FixtureSpec("semisimple", moduli=(6,)))
    rng = random.Random(3)

    def random_elem():
        nums = [0] * 6
        for _ in range(3):
            nums[rng.randrange(6)] = rng.randrange(-3, 4)
        return GroupAlgebraElem(group, nums)

    for _ in range(10):
        x = random_elem()
        y = random_elem()
        mx = algebra_matrix(af.action, x)
        my = algebra_matrix(af.action, y)
        assert fraction_rows(algebra_matrix(af.action, x + y)) == tuple(
            tuple(map(add, rx, ry))
            for rx, ry in zip(fraction_rows(mx), fraction_rows(my))
        )
        assert algebra_matrix(af.action, x * y) == mx @ my
    # the unit of Q[G]: the identity element has index 0
    unit = GroupAlgebraElem(group, [1] + [0] * (group.order - 1))
    assert algebra_matrix(af.action, unit).is_identity()


# ------------------------------------------------------------ fixed spaces


def test_fixed_subvariety_dimensions_in_regular_representation():
    # in the regular representation, dim A^H = [G : H]
    group = FinAbGroup((12,))
    action = validate_action(group, [perm_matrix(12)])
    for exps in [(0,), (6,), (4,), (3,), (2,), (1,)]:
        h = Subgroup.from_lattice_rows(group, [exps])
        assert fixed_subvariety(action, h).dim == h.index


def test_fixed_subvariety_dimension_oracle_on_semisimple_fixture():
    # dim A^H = sum over classes fixed by H of multiplicity * degree
    moduli = (2, 4)
    af = make_fixture(
        FixtureSpec("semisimple", moduli=moduli, multiplicities=(1, 2, 0, 1, 3, 1))
    )
    group = af.action.group
    irreps = rational_irreps(group)
    mult = {w.kernel: m for w, (_, m) in zip(irreps, af.ground_truth)}
    from isodec import all_subgroups

    for h in all_subgroups(group):
        expected = sum(
            mult[w.kernel] * w.degree
            for w in irreps
            if h.is_contained_in(w.kernel)
        )
        assert fixed_subvariety(af.action, h).dim == expected


def test_complementary_subvariety_dimension_and_containment():
    group = FinAbGroup((12,))
    action = validate_action(group, [perm_matrix(12)])
    k = Subgroup.from_lattice_rows(group, [(6,)])
    h = Subgroup.from_lattice_rows(group, [(3,)])
    assert k.is_contained_in(h)
    a_k = fixed_subvariety(action, k)
    a_h = fixed_subvariety(action, h)
    comp = complementary_subvariety(action, k, h)
    assert comp.dim == a_k.dim - a_h.dim
    assert a_k.contains_subspace(comp)
    assert intersect_spaces(comp, a_h).dim == 0


def test_complementary_requires_containment():
    group = FinAbGroup((12,))
    action = validate_action(group, [perm_matrix(12)])
    k = Subgroup.from_lattice_rows(group, [(6,)])
    h = Subgroup.from_lattice_rows(group, [(4,)])
    with pytest.raises(PreconditionError):
        complementary_subvariety(action, h, k)


# ---------------------------------------------------------- decomposition


def test_regular_representation_has_multiplicity_one_everywhere():
    group = FinAbGroup((6,))
    action = validate_action(group, [perm_matrix(6)])
    rep = isotypical_decomposition(action)
    assert [(c.irrep.order, c.dim) for c in rep.components] == [
        (1, 1),
        (2, 1),
        (3, 2),
        (6, 2),
    ]
    assert all(c.multiplicity == 1 for c in rep.components)


def test_isotypical_component_of_single_class():
    group = FinAbGroup((6,))
    af = make_fixture(
        FixtureSpec("semisimple", moduli=(6,), multiplicities=(0, 0, 0, 2))
    )
    w = rational_irreps(group)[3]
    assert w.order == 6
    comp = isotypical_component(af.action, w)
    assert comp.dim == af.action.dim == 4
    trivial = isotypical_component(af.action, rational_irreps(group)[0])
    assert trivial.dim == 0


def test_decomposition_recovers_ground_truth_of_conjugated_fixtures():
    for seed in range(5):
        af = make_fixture(
            FixtureSpec("random-conjugated", moduli=(2, 4), seed=seed, max_dim=12)
        )
        rep = isotypical_decomposition(af.action)
        got = {
            c.irrep.kernel.hnf_basis.entries: c.multiplicity
            for c in rep.components
        }
        expected = {k.entries: m for k, m in af.ground_truth}
        assert got == expected


def test_components_are_independent_and_spanning():
    af = make_fixture(FixtureSpec("random-conjugated", moduli=(6,), seed=9))
    rep = isotypical_decomposition(af.action)
    nonzero = [c.subspace for c in rep.components if c.dim]
    assert sum(s.dim for s in nonzero) == af.action.dim
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            assert intersect_spaces(nonzero[i], nonzero[j]).dim == 0


def test_multiplicity_times_degree_is_dimension():
    af = make_fixture(FixtureSpec("random-conjugated", moduli=(8,), seed=2))
    rep = isotypical_decomposition(af.action)
    for c in rep.components:
        assert c.dim == c.multiplicity * c.irrep.degree


def test_non_faithful_components_vanish_off_the_kernel():
    # an action through G/K has zero component for every W whose kernel
    # does not contain the action kernel
    group = FinAbGroup((8, 9))
    af = make_fixture(
        FixtureSpec(
            "semisimple",
            moduli=(8, 9),
            multiplicities=tuple(
                2 if w.kernel.hnf_basis.entries == ((2, 0), (0, 3)) else 0
                for w in rational_irreps(group)
            ),
        )
    )
    rep = isotypical_decomposition(af.action)
    kernel = rep.action_kernel
    assert kernel.hnf_basis.entries == ((2, 0), (0, 3))
    for c in rep.components:
        if not kernel.is_contained_in(c.irrep.kernel):
            assert c.multiplicity == 0


def decomposition_multiplicities(action):
    rep = isotypical_decomposition(action)
    return {c.irrep.kernel.hnf_basis.entries: c.multiplicity for c in rep.components}


@pytest.mark.parametrize("moduli, seed", [((4, 6), 1), ((2, 2, 6), 2)])
def test_factored_idempotents_on_rationally_conjugated_actions(moduli, seed):
    af = make_fixture(
        FixtureSpec("random-conjugated", moduli=moduli, seed=seed, max_dim=8)
    )
    action = rationally_conjugated(af.action, seed)
    assert any(m.den > 1 for m in action.gen_matrices)
    assert_routes_match_expanded_sums(action)
    assert decomposition_multiplicities(action) == {
        k.entries: m for k, m in af.ground_truth
    }


@pytest.mark.parametrize(
    "moduli, kernel_gens", [((4, 6), [(2, 3)]), ((2, 2, 6), [(1, 1, 0)])]
)
def test_factored_idempotents_on_non_faithful_actions(moduli, kernel_gens):
    # one copy of each class through G/S while the dimension stays <= 8
    group = FinAbGroup(moduli)
    s = Subgroup.from_lattice_rows(group, kernel_gens)
    af = make_fixture(
        FixtureSpec(
            "semisimple", moduli=moduli, multiplicities=through_quotient(group, s, 8)
        )
    )
    action = af.action
    report = isotypical_decomposition(action)
    assert not report.faithful
    assert s.is_contained_in(report.action_kernel)
    assert_routes_match_expanded_sums(action)
    assert decomposition_multiplicities(action) == {
        k.entries: m for k, m in af.ground_truth
    }


def test_factored_idempotents_on_the_regular_representation():
    action = make_fixture(FixtureSpec("regular", n=12)).action
    assert_routes_match_expanded_sums(action)


def test_factored_idempotents_where_a_fixed_part_is_zero():
    # Z/6 acting through an element of order 3: the order-2 class has
    # kernel 2Z/6, which fixes no nonzero vector
    action = validate_action(FinAbGroup((6,)), [MatQ([[0, -1], [1, -1]])])
    two = Subgroup.from_lattice_rows(action.group, [(2,)])
    assert fixed_subvariety(action, two).dim == 0
    assert any(w.kernel == two for w in rational_irreps(action.group))
    assert_routes_match_expanded_sums(action)
    assert decomposition_multiplicities(action) == {
        w.kernel.hnf_basis.entries: int(w.order == 3)
        for w in rational_irreps(action.group)
    }


def test_decomposition_never_expands_an_idempotent_over_g(products, monkeypatch):
    # every sum of matrices the routes form has rad(n) or p terms, not |G|,
    # and rho is formed at a few elements: 38 products on regular(12) and 90
    # on (6,6) seed 0
    combination = action_module._combination
    longest = 0

    def counted(shape, terms, den):
        nonlocal longest
        terms = list(terms)
        longest = max(longest, len(terms))
        return combination(shape, terms, den)

    monkeypatch.setattr(action_module, "_combination", counted)
    regular = make_fixture(FixtureSpec("regular", n=12))
    conjugated = make_fixture(
        FixtureSpec("random-conjugated", moduli=(6, 6), seed=0, max_dim=24)
    )
    for af, bound in ((regular, 40), (conjugated, 95)):
        products.n = longest = 0
        assert decomposition_multiplicities(af.action) == {
            k.entries: m for k, m in af.ground_truth
        }
        assert products.n <= bound
        assert longest == 6


def test_plausibility_warnings():
    # odd total dimension and an odd-multiplicity totally real class
    group = FinAbGroup((2,))
    action = validate_action(group, [MatQ([[1, 0, 0], [0, -1, 0], [0, 0, -1]])])
    rep = isotypical_decomposition(action)
    assert any("odd" in w and "dimension 3" in w for w in rep.warnings)
    assert any("odd multiplicity" in w for w in rep.warnings)

    ok = make_fixture(
        FixtureSpec("semisimple", moduli=(2,), multiplicities=(2, 2))
    )
    assert isotypical_decomposition(ok.action).warnings == ()


# ----------------------------------------------------- candidate classes


def candidate_actions(moduli, kernel_gens):
    """An integral, a rationally conjugated and a non-faithful action."""
    group = FinAbGroup(moduli)
    integral = make_fixture(
        FixtureSpec("random-conjugated", moduli=moduli, seed=7, max_dim=10)
    ).action
    s = Subgroup.from_lattice_rows(group, kernel_gens)
    non_faithful = make_fixture(
        FixtureSpec(
            "random-conjugated",
            moduli=moduli,
            multiplicities=through_quotient(group, s, 10),
            seed=8,
        )
    ).action
    assert not isotypical_decomposition(non_faithful).faithful
    return [integral, rationally_conjugated(integral, seed=9), non_faithful]


@pytest.mark.parametrize(
    "moduli, kernel_gens",
    [((12,), [(6,)]), ((4, 6), [(2, 3)]), ((3, 3), [(1, 1)]), ((2, 2, 2), [(1, 1, 0)])],
)
def test_every_class_equals_its_component_computed_alone(moduli, kernel_gens):
    # classes outside the candidates get the zero subspace without either
    # route; isotypical_component runs both routes on every class
    skipped = 0
    for action in candidate_actions(moduli, kernel_gens):
        parts = _sylow_parts(action.group)
        candidates = action_module._sylow_split(action)
        rep = isotypical_decomposition(action)
        for c in rep.components:
            assert c.subspace == isotypical_component(action, c.irrep)
            skipped += _signature(c.irrep, parts) not in candidates
    assert skipped


def test_a_split_that_drops_a_nonzero_class_fails_the_span_check(
    monkeypatch, tmp_path
):
    af = make_fixture(
        FixtureSpec("random-conjugated", moduli=(4, 6), seed=1, max_dim=8)
    )
    split = action_module._sylow_split

    def dropping(action):
        pieces = split(action)
        del pieces[next(iter(pieces))]
        return pieces

    path = tmp_path / "action.json"
    path.write_text(serialize_action_file(af))
    assert run_cli(["decompose", str(path)])[0] == 0
    monkeypatch.setattr(action_module, "_sylow_split", dropping)
    with pytest.raises(InternalCheckError, match="do not span"):
        isotypical_decomposition(af.action)
    code, out, err = run_cli(["decompose", str(path)])
    assert code == 4
    assert "do not span" in err


def test_components_that_overlap_fail_the_overlap_check(monkeypatch, tmp_path):
    # the two classes of signature (3, 3) share a piece; the patch hands the
    # second one the first one's component
    group = FinAbGroup((3, 3))
    mult = (1,) * len(rational_irreps(group))
    af = make_fixture(
        FixtureSpec("random-conjugated", moduli=(3, 3), multiplicities=mult, seed=0)
    )
    component = action_module.isotypical_component
    first = {}  # id of a restricted action -> its first component

    def overlapping(action, w):
        return first.setdefault(id(action), component(action, w))

    path = tmp_path / "action.json"
    path.write_text(serialize_action_file(af))
    assert run_cli(["decompose", str(path)])[0] == 0
    monkeypatch.setattr(action_module, "isotypical_component", overlapping)
    with pytest.raises(InternalCheckError, match="overlap"):
        isotypical_decomposition(af.action)
    code, out, err = run_cli(["decompose", str(path)])
    assert code == 4
    assert err.startswith("internal check failed: isotypical components overlap")


def test_a_split_with_a_non_invariant_piece_is_an_internal_fault(
    monkeypatch, tmp_path
):
    # restricting the generators to a piece certifies that it is invariant
    af = make_fixture(
        FixtureSpec("random-conjugated", moduli=(4, 6), seed=1, max_dim=8)
    )
    split = action_module._sylow_split

    def skewing(action):
        pieces = split(action)
        sig, y = next(iter(pieces.items()))
        eye = MatQ.identity(action.dim).num
        pieces[sig] = SubspaceQ(action.dim, [[1] * action.dim, *eye[1 : y.dim]])
        assert any(
            not pieces[sig].contains_subspace(
                SubspaceQ(action.dim, map(m.mul_vector, pieces[sig].basis.num))
            )
            for m in action.gen_matrices
        )
        return pieces

    path = tmp_path / "action.json"
    path.write_text(serialize_action_file(af))
    monkeypatch.setattr(action_module, "_sylow_split", skewing)
    with pytest.raises(InternalCheckError, match="not G-invariant"):
        isotypical_decomposition(af.action)
    code, out, err = run_cli(["decompose", str(path)])
    assert code == 4
    assert err.startswith("internal check failed: a Sylow piece is not G-invariant")


def test_decomposition_with_a_trivial_class_forms_rho_on_part_of_g(products):
    # the trivial class used to expand the |G|-term sum p_G
    group = FinAbGroup((30, 30))
    irreps = rational_irreps(group)
    mult = [0] * len(irreps)
    mult[0] = 2
    mult[next(i for i, w in enumerate(irreps) if w.order == 6)] = 1
    mult[next(i for i, w in enumerate(irreps) if w.order == 30)] = 1
    af = make_fixture(
        FixtureSpec(
            "random-conjugated", moduli=(30, 30), multiplicities=tuple(mult), seed=0
        )
    )
    action = af.action
    assert action.dim == 12
    # rho(g) is formed at the split's rho(p^i s) and, on the restricted
    # pieces, at a few elements per class: 103 products, where rho over all
    # of G would take 899
    products.n = 0
    assert decomposition_multiplicities(action) == {
        k.entries: m for k, m in af.ground_truth
    }
    assert products.n <= 110


def test_a_cyclic_decomposition_forms_rho_on_a_small_part_of_g(products):
    # route one of the trivial class used to average rho over all of G, and
    # the Sylow split walked one product per element up to rho(p^i s)
    af = make_fixture(
        FixtureSpec("random-conjugated", moduli=(2000,), seed=0, max_dim=24)
    )
    action = af.action
    products.n = 0
    rep = isotypical_decomposition(action)
    assert products.n <= 90  # 84
    assert rep.components[0].irrep.order == 1 and rep.components[0].multiplicity
    assert max(c.irrep.order for c in rep.nonzero_components) == 16
    assert decomposition_multiplicities(action) == {
        k.entries: m for k, m in af.ground_truth
    }


def test_decomposition_of_regular_240_forms_few_products(products):
    # each class runs one product per term of F on A^K's basis, with no
    # rho((n/p) x) formed for route one: 359 products (649 with a memo of rho
    # filled by running products of square matrices)
    action = make_fixture(FixtureSpec("regular", n=240)).action
    products.n = 0
    rep = isotypical_decomposition(action)
    assert products.n < 500
    assert all(c.multiplicity == 1 for c in rep.components)
