import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isodec.roan as roan_module
from conftest import perm_matrix
from isodec import (
    FinAbGroup,
    GroupElement,
    InternalCheckError,
    MatQ,
    PreconditionError,
    RoanReport,
    SubspaceQ,
    action_matrix,
    companion_matrix,
    cyclotomic,
    intersect_spaces,
    isotypical_decomposition,
    make_fixture,
    rational_irreps,
    roan_decomposition,
    validate_action,
    verify_roan_matching,
)
from isodec.actionfile import ActionFile, serialize_action_file
from isodec.fixtures import FixtureSpec
from isodec.numtheory import divisors, totient
from oracles import eigenvalue_orders, roan_walk

from test_action import rationally_conjugated
from test_cli import run_cli


# ---------------------------------------------------------- eigenvalue orders


def test_eigenvalue_orders_of_regular_shift():
    assert eigenvalue_orders(perm_matrix(12), 12) == (1, 2, 3, 4, 6, 12)
    assert eigenvalue_orders(perm_matrix(7), 7) == (1, 7)


def test_eigenvalue_orders_of_companion_blocks():
    c6 = companion_matrix(cyclotomic(6))
    assert eigenvalue_orders(c6, 6) == (6,)
    assert eigenvalue_orders(c6, 12) == (6,)
    assert eigenvalue_orders(MatQ.identity(3), 5) == (1,)
    assert eigenvalue_orders(MatQ([[-1]]), 2) == (2,)


def test_eigenvalue_orders_rejects_wrong_exponent():
    with pytest.raises(PreconditionError, match=r"M\^4 = I"):
        eigenvalue_orders(MatQ([[2]]), 4)
    with pytest.raises(PreconditionError):
        eigenvalue_orders(MatQ([[1, 2]]), 2)


def test_eigenvalue_orders_all_divide_exponent():
    for seed in range(4):
        af = make_fixture(
            FixtureSpec("random-conjugated", moduli=(12,), seed=seed, max_dim=10)
        )
        g = GroupElement(af.action.group, (1,))
        from isodec import action_matrix

        m = action_matrix(af.action, g)
        for d in eigenvalue_orders(m, 12):
            assert 12 % d == 0


# --------------------------------------------------------------- filtration


def test_filtration_of_regular_shift():
    report = roan_decomposition(perm_matrix(12), 12)
    assert report.orders == (1, 2, 3, 4, 6, 12)
    assert report.filtration_dims == (12, 11, 10, 8, 6, 4, 0)
    assert [(d, s.dim) for d, s in report.components] == [
        (d, totient(d)) for d in (1, 2, 3, 4, 6, 12)
    ]


def test_filtration_pieces_are_independent():
    report = roan_decomposition(perm_matrix(10), 10)
    pieces = [s for _, s in report.components]
    assert sum(s.dim for s in pieces) == 10
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert intersect_spaces(pieces[i], pieces[j]).dim == 0


def test_filtration_skips_absent_orders():
    c6 = companion_matrix(cyclotomic(6))
    report = roan_decomposition(c6, 6)
    assert report.orders == (6,)
    assert [(d, s.dim) for d, s in report.components] == [(6, 2)]
    assert report.filtration_dims == (2, 0)


@pytest.mark.parametrize(
    "m, d",
    [
        (MatQ([[2]]), 4),  # infinite order
        (MatQ([[1, 1], [0, 1]]), 2),  # a Jordan block: unipotent, not of order 2
        (MatQ([[1, 2]]), 2),  # not square
        (MatQ.identity(2), 0),  # no exponent
    ],
)
def test_filtration_rejects_an_operator_without_m_d_equal_to_i(m, d):
    with pytest.raises(PreconditionError):
        roan_decomposition(m, d)


def test_filtration_of_the_zero_space():
    # no piece, so no split: the empty filtration of Q^0
    for d in (1, 6):
        assert roan_decomposition(MatQ([]), d) == RoanReport(0, d, (), (0,), ())


@pytest.mark.parametrize("n", [12, 240])
def test_each_split_after_the_first_runs_below_the_ambient_dimension(monkeypatch, n):
    dims = []
    real = roan_module.kernel_and_image

    def recording(t, y):
        dims.append(y.ambient_dim)
        return real(t, y)

    monkeypatch.setattr(roan_module, "kernel_and_image", recording)
    report = roan_decomposition(perm_matrix(n), n)
    candidates = [e for e in divisors(n) if totient(e) <= n]
    assert report.orders == tuple(candidates)
    assert 1 <= len(dims) <= len(candidates) - 1
    assert dims[0] == n and max(dims[1:], default=0) < n


def _swapped(kernel, image):
    return image, kernel


def _overlapping(kernel, image):
    return kernel, SubspaceQ(kernel.ambient_dim, kernel.basis.num + image.basis.num)


def _all_in_the_kernel(kernel, image):
    n = kernel.ambient_dim
    return SubspaceQ(n, kernel.basis.num + image.basis.num), SubspaceQ(n)


def _no_kernel(kernel, image):
    return SubspaceQ(kernel.ambient_dim), image


def _one_kernel_vector(kernel, image):
    return SubspaceQ(kernel.ambient_dim, kernel.basis.num[:1]), image


def _one_image_vector(kernel, image):
    return kernel, SubspaceQ(image.ambient_dim, image.basis.num[:1])


def _with_split(monkeypatch, split):
    real = roan_module.kernel_and_image
    monkeypatch.setattr(
        roan_module, "kernel_and_image", lambda t, y: split(*real(t, y))
    )


@pytest.mark.parametrize(
    "split, m, d, message",
    [
        # candidates on the wrong side: a piece has eigenvalues of another order
        (_overlapping, perm_matrix(6), 6, "another order"),
        (_all_in_the_kernel, perm_matrix(6), 6, "another order"),
        # a side dropped
        (_one_kernel_vector, MatQ.identity(3), 2, "span"),
        # a single vector of an order-3 piece is not an invariant subspace
        (_one_image_vector, perm_matrix(3), 3, "not invariant"),
        (_no_kernel, perm_matrix(4), 4, "span"),
        (_no_kernel, MatQ.identity(3), 2, "span"),
        (_swapped, perm_matrix(6), 6, "another order"),
        # both swapped pieces have the right dim: only Phi_e sees the swap
        (_swapped, MatQ([[1, 0], [0, -1]]), 2, "another order"),
    ],
)
def test_a_wrong_split_fails_a_certificate(monkeypatch, split, m, d, message):
    _with_split(monkeypatch, split)
    with pytest.raises(InternalCheckError, match=message):
        roan_decomposition(m, d)


def test_a_wrong_split_past_leaves_without_phi_e_fails_the_span_check(monkeypatch):
    # the swap leaves sides too small for their candidates
    _with_split(monkeypatch, _swapped)
    monkeypatch.setattr(roan_module, "_vanishes_at", lambda monic, a: True)
    with pytest.raises(InternalCheckError, match="span"):
        roan_decomposition(perm_matrix(6), 6)


def test_filtration_on_conjugated_fixture_matches_ground_truth():
    from isodec import action_matrix, rational_irreps

    for seed in (0, 1, 2):
        af = make_fixture(
            FixtureSpec("random-conjugated", moduli=(8,), seed=seed, max_dim=12)
        )
        m = action_matrix(af.action, GroupElement(af.action.group, (1,)))
        report = roan_decomposition(m, 8)
        expected = {}
        for (k, mult), w in zip(af.ground_truth, rational_irreps(af.action.group)):
            if mult:
                expected[w.order] = mult * w.degree
        assert {d: s.dim for d, s in report.components} == expected


# ----------------------------------------------------------------- matching


def test_matching_on_regular_representation():
    group = FinAbGroup((6,))
    action = validate_action(group, [perm_matrix(6)])
    match = verify_roan_matching(action)
    assert [(d, dim) for d, _, dim in match.matches] == [
        (1, 1),
        (2, 1),
        (3, 2),
        (6, 2),
    ]
    assert match.zero_components == ()
    # kernels in the match are the unique index-d subgroups of Z/6
    assert [k.index for _, k, _ in match.matches] == [1, 2, 3, 6]


def test_matching_reports_zero_components():
    group = FinAbGroup((6,))
    action = validate_action(group, [companion_matrix(cyclotomic(6))])
    match = verify_roan_matching(action)
    assert [(d, dim) for d, _, dim in match.matches] == [(6, 2)]
    assert sorted(k.index for k in match.zero_components) == [1, 2, 3]


def test_matching_agrees_with_decomposition_subspaces():
    for seed in range(4):
        af = make_fixture(
            FixtureSpec("random-conjugated", moduli=(12,), seed=seed, max_dim=14)
        )
        match = verify_roan_matching(af.action)
        rep = isotypical_decomposition(af.action)
        assert match.decomposition.components == rep.components
        by_kernel = {c.irrep.kernel: c for c in rep.components}
        for order, kernel, dim in match.matches:
            c = by_kernel[kernel]
            assert c.irrep.order == order
            assert c.dim == dim
        matched = {kernel for _, kernel, _ in match.matches}
        for c in rep.components:
            if c.irrep.kernel not in matched:
                assert c.multiplicity == 0


def _with_component(report, order, **changes):
    """The report with some fields of its component of one order replaced."""
    return dataclasses.replace(
        report,
        components=tuple(
            dataclasses.replace(c, **changes) if c.irrep.order == order else c
            for c in report.components
        ),
    )


@pytest.mark.parametrize(
    "generator,forge",
    [
        # the walk's piece of order 3 differs from the component of order 3
        (
            perm_matrix(6),
            lambda r: _with_component(r, 3, subspace=SubspaceQ(6, [])),
        ),
        # the walk finds only order 6, yet the trivial component is nonzero
        (
            companion_matrix(cyclotomic(6)),
            lambda r: _with_component(r, 1, multiplicity=1),
        ),
    ],
    ids=["piece-differs-from-its-order", "component-of-an-order-not-walked"],
)
def test_matching_failure_certificates(monkeypatch, tmp_path, generator, forge):
    action = validate_action(FinAbGroup((6,)), [generator])
    verify_roan_matching(action)
    real = roan_module.isotypical_decomposition
    monkeypatch.setattr(
        roan_module, "isotypical_decomposition", lambda action: forge(real(action))
    )
    with pytest.raises(InternalCheckError, match="filtration"):
        verify_roan_matching(action)
    path = tmp_path / "action.json"
    path.write_text(serialize_action_file(ActionFile(action)))
    code, out, err = run_cli(["verify", str(path)])
    assert code == 4
    assert out == ""
    assert err.startswith("internal check failed:") and "filtration" in err


def test_matching_requires_cyclic_group():
    group = FinAbGroup((2, 2))
    action = validate_action(group, [MatQ([[-1]]), MatQ([[-1]])])
    with pytest.raises(PreconditionError, match="cyclic"):
        verify_roan_matching(action)


def test_matching_works_for_cyclic_multi_modulus_presentation():
    # (8, 9) presents the cyclic group of order 72
    af = make_fixture(FixtureSpec("paper-example", p=2, q=3))
    match = verify_roan_matching(af.action)
    assert [(d, dim) for d, _, dim in match.matches] == [
        (1, 1),
        (2, 1),
        (3, 2),
        (6, 2),
    ]
    assert len(match.zero_components) == 8


@pytest.mark.parametrize(
    "spec",
    [
        FixtureSpec("random-conjugated", moduli=(12,), seed=1, max_dim=12),
        FixtureSpec("random-conjugated", moduli=(30,), seed=2, max_dim=14),
        FixtureSpec("paper-example", p=2, q=3),
    ],
)
def test_matching_on_rationally_conjugated_actions(spec, tmp_path):
    af = make_fixture(spec)
    action = rationally_conjugated(af.action, seed=3)
    assert any(m.den > 1 for m in action.gen_matrices)
    match = verify_roan_matching(action)
    nonzero = [c for c in match.decomposition.components if c.multiplicity]
    assert [(d, k) for d, k, _ in match.matches] == [
        (c.irrep.order, c.irrep.kernel) for c in nonzero
    ]
    assert [s for _, s in match.roan.components] == [c.subspace for c in nonzero]
    assert {
        c.irrep.kernel.hnf_basis.entries: c.multiplicity
        for c in match.decomposition.components
    } == {k.entries: m for k, m in af.ground_truth}
    path = tmp_path / "action.json"
    path.write_text(serialize_action_file(ActionFile(action, af.ground_truth)))
    code, out, err = run_cli(["verify", str(path)])
    assert code == 0, err
    assert "verify: OK" in out.splitlines()
    assert "ground truth: ok" in out.splitlines()


@st.composite
def cyclic_multiplicities(draw, max_dim=14):
    """A cyclic group of order <= 30 and multiplicities of total dim <= max_dim."""
    group = FinAbGroup((draw(st.integers(min_value=1, max_value=30)),))
    irreps = rational_irreps(group)
    mult = [0] * len(irreps)
    room = max_dim
    for i in draw(st.permutations(range(len(irreps)))):
        mult[i] = draw(st.integers(min_value=0, max_value=min(2, room // irreps[i].degree)))
        room -= mult[i] * irreps[i].degree
    if not any(mult):
        mult[0] = 1  # the trivial class
    return group, tuple(mult)


@given(cyclic_multiplicities(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_matching_on_random_rational_conjugates(group_mult, seed):
    group, mult = group_mult
    n = group.order
    af = make_fixture(
        FixtureSpec("semisimple", moduli=(n,), multiplicities=mult, seed=seed)
    )
    action = rationally_conjugated(af.action, seed)
    match = verify_roan_matching(action)
    assert [c.multiplicity for c in match.decomposition.components] == list(mult)
    # the characteristic polynomial is an independent oracle for the walk
    m = action_matrix(action, GroupElement(group, (1,)))
    orders = eigenvalue_orders(m, n)
    assert roan_decomposition(m, n).orders == orders
    assert match.roan.orders == orders


@st.composite
def cyclic_operators(draw):
    """A generator of a cyclic action of order n <= 30 on at most 14
    dimensions, and an exponent that n divides: ``regular(n)``, or
    ``random-conjugated`` Z/n with drawn multiplicities (not always a
    faithful action), either one possibly conjugated over Q."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=14))
        af = make_fixture(FixtureSpec("regular", n=n))
    else:
        group, mult = draw(cyclic_multiplicities())
        n = group.order
        spec = FixtureSpec(
            "random-conjugated",
            moduli=(n,),
            multiplicities=mult,
            seed=draw(st.integers(min_value=0, max_value=2**16)),
        )
        af = make_fixture(spec)
    action = af.action
    if draw(st.booleans()):
        action = rationally_conjugated(action, draw(st.integers(0, 2**16)))
    m = action_matrix(action, GroupElement(action.group, (1,)))
    return m, n * draw(st.sampled_from((1, 2, 3)))


@given(cyclic_operators())
@settings(max_examples=40, deadline=None)
def test_the_split_equals_the_divisor_walk(operator):
    m, d = operator
    assert roan_decomposition(m, d) == roan_walk(m, d)
