import random
from fractions import Fraction

import pytest

from conftest import element_order, subgroup_element_set
import isodec.fixtures as fixtures_module
from isodec import (
    Character,
    FinAbGroup,
    MatQ,
    ValidationError,
    char_kernel,
    isotypical_decomposition,
    make_fixture,
    rational_irreps,
    serialize_action_file,
)
from isodec.fixtures import FIXTURE_KINDS, FixtureSpec, _conjugate_by_shears
from oracles import fraction_rows, inverse


def test_fixture_kinds_are_documented():
    assert FIXTURE_KINDS == (
        "regular",
        "paper-example",
        "semisimple",
        "random-conjugated",
    )


def dense_shear_product(dim, rng):
    """The product of the same 2*dim shears, each a dense dim x dim matrix."""
    m = MatQ.identity(dim)
    if dim == 1:
        return m
    for _ in range(2 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        while j == i:
            j = rng.randrange(dim)
        c = rng.choice((-1, 1))
        shear = [[int(a == b) for b in range(dim)] for a in range(dim)]
        shear[i][j] = c
        m = m @ MatQ(shear)
    return m


def integer_and_rational_matrices(dim, seed):
    """A dim x dim integer matrix and one over denominator 6."""
    rng = random.Random(100 + seed)
    ints = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
    sixths = [[Fraction(rng.randint(-3, 3), 6) for _ in range(dim)] for _ in range(dim)]
    sixths[0][0] = Fraction(1, 6)
    return [MatQ(ints), MatQ(sixths)]


@pytest.mark.parametrize("dim", [*range(1, 8), 16])
def test_shear_conjugation_equals_the_dense_product(dim):
    for seed in range(4):
        mats = integer_and_rational_matrices(dim, seed)
        assert mats[1].den == 6
        rng, ref = random.Random(seed), random.Random(seed)
        u = dense_shear_product(dim, ref)
        expected = [u @ m @ inverse(u) for m in mats]
        assert _conjugate_by_shears(mats, rng) == expected
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "spec",
    [
        FixtureSpec("regular", n=6),
        FixtureSpec("paper-example", p=2, q=3),
        FixtureSpec("semisimple", moduli=(2, 4)),
        FixtureSpec("random-conjugated", moduli=(6,), seed=4),
        FixtureSpec("random-conjugated", moduli=(2, 4), seed=4, max_dim=10),
    ],
)
def test_fixtures_are_deterministic(spec):
    assert serialize_action_file(make_fixture(spec)) == serialize_action_file(
        make_fixture(spec)
    )


def test_different_seeds_differ():
    a = serialize_action_file(
        make_fixture(FixtureSpec("random-conjugated", moduli=(6,), seed=1))
    )
    b = serialize_action_file(
        make_fixture(FixtureSpec("random-conjugated", moduli=(6,), seed=2))
    )
    assert a != b


# -------------------------------------------------------------------- kinds


def test_regular_fixture_is_the_shift_action():
    af = make_fixture(FixtureSpec("regular", n=5))
    m = af.action.gen_matrices[0]
    assert af.action.group.moduli == (5,)
    assert all(v in (0, 1) for row in fraction_rows(m) for v in row)
    assert (m**5).is_identity() and not m.is_identity()
    assert all(mult == 1 for _, mult in af.ground_truth)
    assert af.action.name == "regular(5)"


def test_regular_fixture_validation():
    with pytest.raises(ValidationError):
        make_fixture(FixtureSpec("regular"))
    with pytest.raises(ValidationError):
        make_fixture(FixtureSpec("regular", n=0))


def test_paper_example_family_structure():
    af = make_fixture(FixtureSpec("paper-example", p=2, q=3))
    group = af.action.group
    assert group.moduli == (8, 9)
    assert af.action.name == "paper-example(p=2,q=3)"
    assert af.action.dim == 6
    nonzero = {k.entries: m for k, m in af.ground_truth if m}
    assert nonzero == {
        ((2, 0), (0, 3)): 1,  # the order-6 class
        ((1, 0), (0, 3)): 1,  # the order-3 class
        ((2, 0), (0, 1)): 1,  # the order-2 class
        ((1, 0), (0, 1)): 1,  # the trivial class
    }


def test_paper_example_second_case_kernel_shape():
    # p = q: the distinguished kernel has prime index, cyclic quotient,
    # and is itself non-cyclic
    af = make_fixture(FixtureSpec("paper-example", p=2, q=2))
    group = af.action.group
    assert group.moduli == (8, 4)
    k = char_kernel(Character(group, (4, 2)))
    assert k.index == 2
    assert k.quotient_generator() is not None
    # order 16 and exponent 8: k is Z/8 x Z/2, not cyclic
    assert max(element_order(group, x) for x in subgroup_element_set(k)) == 8
    over = k.minimal_overgroups()
    assert len(over) == 1
    assert over[0].index == 1  # the only minimal overgroup is G itself


def test_paper_example_multiplicities_and_validation():
    af = make_fixture(
        FixtureSpec("paper-example", p=2, q=3, multiplicities=(2, 0, 1, 0))
    )
    assert af.action.dim == 2 * 2 + 0 + 1 + 0
    with pytest.raises(ValidationError, match="primes"):
        make_fixture(FixtureSpec("paper-example", p=4, q=3))
    with pytest.raises(ValidationError, match="4 multiplicities"):
        make_fixture(FixtureSpec("paper-example", p=2, q=3, multiplicities=(1,)))
    with pytest.raises(ValidationError, match="at least one"):
        make_fixture(
            FixtureSpec("paper-example", p=2, q=3, multiplicities=(0, 0, 0, 0))
        )


def test_semisimple_fixture_multiplicities():
    group = FinAbGroup((6,))
    af = make_fixture(
        FixtureSpec("semisimple", moduli=(6,), multiplicities=(1, 0, 2, 1))
    )
    assert af.action.dim == 1 + 0 + 4 + 2
    rep = isotypical_decomposition(af.action)
    assert [c.multiplicity for c in rep.components] == [1, 0, 2, 1]
    with pytest.raises(ValidationError, match="expected 4 multiplicities"):
        make_fixture(FixtureSpec("semisimple", moduli=(6,), multiplicities=(1,)))
    with pytest.raises(ValidationError, match="non-negative"):
        make_fixture(
            FixtureSpec("semisimple", moduli=(6,), multiplicities=(-1, 1, 1, 1))
        )
    with pytest.raises(ValidationError, match="needs group moduli"):
        make_fixture(FixtureSpec("semisimple"))


@pytest.mark.parametrize(
    "spec",
    [
        FixtureSpec("semisimple", moduli=(2,), multiplicities=(1.7, True)),
        FixtureSpec("semisimple", moduli=(2,), multiplicities=(1, "1")),
        FixtureSpec("random-conjugated", moduli=(2,), multiplicities=(1, 1.0)),
        FixtureSpec("paper-example", p=2, q=3, multiplicities=("1", 2.9, 0, 1)),
        # refused as a non-integer before the check for negative values
        FixtureSpec("paper-example", p=2, q=3, multiplicities=(1, 1, 1, -0.5)),
    ],
)
def test_non_int_multiplicities_refused(spec):
    with pytest.raises(ValidationError, match="multiplicities must be integers"):
        make_fixture(spec)


def test_random_conjugated_hides_blocks_but_keeps_answer():
    spec = FixtureSpec("random-conjugated", moduli=(6,), seed=3, max_dim=12)
    af = make_fixture(spec)
    plain = make_fixture(
        FixtureSpec(
            "semisimple",
            moduli=(6,),
            multiplicities=tuple(m for _, m in af.ground_truth),
        )
    )
    assert af.action.dim == plain.action.dim
    assert af.action.gen_matrices != plain.action.gen_matrices
    rep = isotypical_decomposition(af.action)
    got = {c.irrep.kernel.hnf_basis.entries: c.multiplicity for c in rep.components}
    assert got == {k.entries: m for k, m in af.ground_truth}


@pytest.mark.parametrize("max_dim", [4, 9, 16])
def test_random_multiplicities_respect_dimension_budget(max_dim):
    for seed in range(5):
        af = make_fixture(
            FixtureSpec("random-conjugated", moduli=(12,), seed=seed, max_dim=max_dim)
        )
        assert 1 <= af.action.dim <= max_dim
        degrees = [w.degree for w in rational_irreps(af.action.group)]
        # the budget is filled greedily: no remaining class fits
        assert all(d > max_dim - af.action.dim for d in degrees)


@pytest.mark.parametrize(
    "spec",
    [
        FixtureSpec("regular", n=30),
        FixtureSpec("paper-example", p=3, q=2),
        FixtureSpec("semisimple", moduli=(6, 6)),
        FixtureSpec("random-conjugated", moduli=(60,), max_dim=28, seed=1),
    ],
    ids=lambda spec: spec.kind,
)
def test_each_fixture_validates_once_and_computes_irreps_once(monkeypatch, spec):
    calls = {"validate_action": 0, "rational_irreps": 0}

    def counted(name):
        real = getattr(fixtures_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fixtures_module, name, counted(name))
    make_fixture(spec)
    assert calls == {"validate_action": 1, "rational_irreps": 1}


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown fixture kind"):
        make_fixture(FixtureSpec("mystery"))
