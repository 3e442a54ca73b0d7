import doctest
import itertools
import time
from fractions import Fraction
from functools import reduce
from math import gcd

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import isodec.ratlinalg as ratlinalg
from isodec import (
    MatQ,
    MatZ,
    PreconditionError,
    SubspaceQ,
    companion_matrix,
    cyclotomic,
    image_space,
    intersect_spaces,
    kernel_space,
    restrict_operator,
    snf_invariants,
)
from isodec.ratlinalg import (
    _combination,
    _divmod_monic,
    _plus_identity,
    kernel_and_image,
)
from oracles import (
    basis_rows,
    char_poly,
    contains_vector,
    coordinates_of,
    fraction_rows,
    oracle_rref,
    zeros,
)

import pytest

fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def square_matq(n):
    return st.lists(
        st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(MatQ)


def int_matrix(rows, cols, bound=6):
    return st.lists(
        st.lists(
            st.integers(min_value=-bound, max_value=bound),
            min_size=cols,
            max_size=cols,
        ),
        min_size=rows,
        max_size=rows,
    )


def test_module_doctests():
    assert doctest.testmod(ratlinalg).failed == 0


# ------------------------------------------------------------------- MatQ


@given(square_matq(3), square_matq(3), square_matq(3))
def test_matq_ring_identities(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ MatQ.identity(3) == a
    assert MatQ.identity(3) @ a == a


def scaled(a: MatQ, q) -> MatQ:
    """q * a, as a MatQ of Fraction rows."""
    return MatQ([[q * v for v in row] for row in fraction_rows(a)])


@given(square_matq(3))
def test_matq_scaling_normalizes(a):
    assert scaled(scaled(a, Fraction(2, 3)), Fraction(3, 2)) == a


@given(st.integers(0, 4).flatmap(square_matq), st.integers(-6, 6))
@example(zeros(0, 0), 5)
@example(MatQ([[-2, 0], [0, -2]]), 2)  # a zero result
@example(MatQ([["1/2", 1], [0, "-1/3"]]), -1)
def test_plus_identity_matches_the_fraction_sum(m, c):
    expected = MatQ(
        [[v + c * (i == j) for j, v in enumerate(row)]
         for i, row in enumerate(fraction_rows(m))]
    )
    shifted = _plus_identity(m, c)
    assert shifted == expected
    assert shifted.shape == m.shape
    if shifted.is_zero():
        assert shifted.den == 1


@st.composite
def combination_case(draw):
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = st.lists(st.lists(fractions, min_size=c, max_size=c), min_size=r, max_size=r)
    mat = rows.map(lambda rs: MatQ(rs) if rs else zeros(0, c))
    terms = draw(st.lists(st.tuples(st.integers(-4, 4), mat), max_size=4))
    return (r, c), terms, draw(st.integers(1, 6))


@given(combination_case())
@example(((1, 1), [(1, MatQ([["1/2"]])), (-3, MatQ([["1/3"]]))], 2))
@example(((2, 2), [], 3))
def test_combination_matches_the_fraction_sum(case):
    (r, c), terms, den = case
    expected = [
        [sum((k * fraction_rows(m)[i][j] for k, m in terms), Fraction(0)) / den
         for j in range(c)]
        for i in range(r)
    ]
    total = _combination((r, c), terms, den)
    assert total == (MatQ(expected) if r else zeros(0, c))
    assert total.shape == (r, c)


def test_products_of_matrices_without_rows_or_columns():
    no_rows, no_cols = zeros(0, 3), zeros(2, 0)
    assert zeros(3, 0) @ no_rows == zeros(3, 3)
    assert no_cols @ zeros(0, 2) == zeros(2, 2)


def test_matq_equality_ignores_representation():
    a = MatQ([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]])
    b = scaled(MatQ.identity(2), Fraction(1, 2))
    assert a == b
    assert hash(a) == hash(b)


def det_int_of(a: MatQ) -> Fraction:
    n = a.rows
    total = Fraction(0)
    rows = fraction_rows(a)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


@given(square_matq(2), st.integers(min_value=0, max_value=6))
def test_matq_powers(a, k):
    expected = MatQ.identity(2)
    for _ in range(k):
        expected = expected @ a
    assert a**k == expected


def test_matq_power_spends_no_product_on_the_identity(monkeypatch):
    a = MatQ([[0, -1], [1, 1]])
    products = 0
    matmul = MatQ.__matmul__

    def counted(x, y):
        nonlocal products
        products += 1
        return matmul(x, y)

    powers = [MatQ.identity(2)]
    for _ in range(40):
        powers.append(powers[-1] @ a)
    monkeypatch.setattr(MatQ, "__matmul__", counted)
    for k, expected in enumerate(powers):
        products = 0
        assert a**k == expected
        # one squaring per bit after the first, one product per set bit after the first
        assert products == max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)




# ------------------------------------------------------ entry grammar and writer


def test_entry_parser_reads_exactly_ints_and_p_over_q():
    big = 10**40
    assert ratlinalg._parse_rational(big) is big
    half = Fraction(1, 2)
    assert ratlinalg._parse_rational(half) is half
    assert ratlinalg._parse_rational("-12") == -12
    assert type(ratlinalg._parse_rational("+12")) is int
    assert ratlinalg._parse_rational("007/010") == Fraction(7, 10)
    assert ratlinalg._parse_rational("-0/5") == 0
    for bad in ("1e5", "1.5", " 3/4", "3/4 ", "3/-4", "3/+4", "1/0", "1_000", "", "/2", "½"):
        with pytest.raises(ValueError, match="cannot parse"):
            ratlinalg._parse_rational(bad)
    for bad in (True, 1.5, None, [1]):
        with pytest.raises(TypeError):
            ratlinalg._parse_rational(bad)


def test_matq_refuses_entry_strings_outside_the_grammar_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot parse '1e5'"):
        MatQ([["1e5"]])
    with pytest.raises(ValueError, match="cannot parse '1e100000000'"):
        MatQ([[1, "1e100000000"]])
    with pytest.raises(ValueError, match="cannot parse '1/0'"):
        MatQ([["1/0"]])
    with pytest.raises(TypeError):
        MatQ([[True]])
    assert time.perf_counter() - start < 1


def fraction_to_jsonable(q: Fraction):
    """The entry writer as it was when it went through Fraction: the oracle."""
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 12)
@example(-6, 4)
@example(-8, 4)
@example(10**30, 3 * 10**29)
def test_entry_writer_matches_the_fraction_writer(v, den):
    out = ratlinalg._rational_to_jsonable(v, den)
    expected = fraction_to_jsonable(Fraction(v, den))
    assert type(out) is type(expected) and out == expected


@given(square_matq(3))
@example(MatQ([[Fraction(1, 3), Fraction(-2)], [Fraction(0), Fraction(5, 7)]]))
def test_matq_jsonable_round_trip(a):
    data = a.to_jsonable()
    assert data == [[fraction_to_jsonable(v) for v in row] for row in fraction_rows(a)]
    assert MatQ(data) == a


@given(square_matq(3))
def test_matq_repr_writes_each_entry_as_its_fraction(a):
    rows = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in fraction_rows(a))
    assert repr(a) == f"MatQ([{rows}])"
    assert repr(zeros(0, 3)) == "MatQ([])"
    assert repr(zeros(2, 0)) == "MatQ([[], []])"


# --------------------------------------------------------------- subspaces


@given(int_matrix(3, 4))
def test_rank_nullity(rows):
    m = MatQ(rows)
    assert kernel_space(m).dim + image_space(m).dim == m.cols


@given(int_matrix(2, 4), int_matrix(2, 4))
def test_grassmann_dimension_formula(rows_u, rows_v):
    u = SubspaceQ(4, rows_u)
    v = SubspaceQ(4, rows_v)
    meet = intersect_spaces(u, v)
    join = SubspaceQ(4, u.basis.num + v.basis.num)
    assert meet.dim + join.dim == u.dim + v.dim
    assert u.contains_subspace(meet)
    assert v.contains_subspace(meet)
    assert join.contains_subspace(u)
    assert join.contains_subspace(v)


@given(int_matrix(2, 4))
def test_subspace_canonical_under_row_mixing(rows):
    u = SubspaceQ(4, rows)
    mixed = [
        [2 * a + 3 * b for a, b in zip(rows[0], rows[1])],
        [a - b for a, b in zip(rows[0], rows[1])],
    ]
    v = SubspaceQ(4, rows + mixed)
    if u.dim == 2:
        # mixing is invertible, so the span is unchanged
        assert SubspaceQ(4, mixed + rows) == u
    assert v == u


@given(int_matrix(3, 5))
def test_coordinates_reconstruct_vectors(rows):
    s = SubspaceQ(5, rows)
    for r in rows:
        coords = coordinates_of(s, r)
        assert coords is not None
        rebuilt = [Fraction(0)] * 5
        for c, b in zip(coords, basis_rows(s)):
            rebuilt = [x + c * y for x, y in zip(rebuilt, b)]
        assert rebuilt == [Fraction(v) for v in r]


def test_subspace_reads_fraction_string_and_scaled_integer_rows_alike():
    as_fractions = [[Fraction(1, 2), Fraction(-2, 3), 0], [Fraction(3, 4), 0, 5]]
    as_strings = [["1/2", "-2/3", "0"], ["3/4", "0", "5"]]
    scaled = [[3, -4, 0], [3, 0, 20]]
    s = SubspaceQ(3, as_fractions)
    assert s.dim == 2
    assert SubspaceQ(3, as_strings) == s == SubspaceQ(3, scaled)
    with pytest.raises(PreconditionError, match="ambient dimension mismatch"):
        SubspaceQ(3, [[Fraction(1, 2), 1, 0], [Fraction(1, 3), 1]])


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_full_space_is_the_reduced_identity(n):
    # SubspaceQ.full builds its basis without an elimination
    full, reduced = SubspaceQ.full(n), SubspaceQ(n, MatQ.identity(n).num)
    assert full == reduced
    assert full.basis.shape == reduced.basis.shape
    assert full.pivot_cols == reduced.pivot_cols


def test_kernel_image_on_known_matrix():
    m = MatQ([[1, 1, 0], [0, 0, 0], [1, 1, 0]])
    assert kernel_space(m).dim == 2
    assert image_space(m).dim == 1
    assert contains_vector(image_space(m), [1, 0, 1])


# ----------------------------------------------------------- integer forms


@pytest.mark.parametrize(
    "entries",
    [
        ((True, 3), (0, 1)),
        ((1, "3"), (0, 1)),
        ((1, 3), (0, 1.9)),
        ((2.0,),),
        ((Fraction(2),),),
        ((1, 2), (3,)),
        (),
        ((),),
        ((), ()),
    ],
)
def test_matz_refuses_non_integers_and_ragged_grids(entries):
    with pytest.raises(ValueError, match="rectangular grid of ints"):
        MatZ(entries)
    with pytest.raises(ValueError, match="rectangular grid of ints"):
        MatZ([list(r) for r in entries])


def test_matz_keeps_integer_lists_as_tuples():
    assert MatZ([[1, -2], [0, 3]]).entries == ((1, -2), (0, 3))


def test_hnf_known_example():
    assert ratlinalg._hermite(((2, 0), (1, 3))) == [[1, 3], [0, 6]]


def test_hnf_shape_and_rank_requirement():
    assert ratlinalg._hermite(((4, 2), (2, 4), (0, 6))) == [[2, 4], [0, 6]]
    # a lattice of lower rank keeps one row per pivot
    assert ratlinalg._hermite(((1, 2), (2, 4))) == [[1, 2]]


@given(int_matrix(3, 3))
def test_hnf_invariant_under_unimodular_row_ops(rows):
    m = MatZ(tuple(tuple(r) for r in rows))
    if det_int_of(MatQ(m.entries)) == 0:
        return
    mixed = [
        rows[0],
        [a + 2 * b for a, b in zip(rows[1], rows[0])],
        [a - b for a, b in zip(rows[2], rows[1])],
    ]
    assert ratlinalg._hermite(rows) == ratlinalg._hermite(mixed)


@st.composite
def int_row_sets(draw):
    """(rows, ncols): integer rows, rank-deficient ones included, since some
    rows are integer combinations of the others (zero rows among them)."""
    ncols = draw(st.integers(min_value=1, max_value=4))
    base = draw(int_matrix(draw(st.integers(min_value=0, max_value=3)), ncols))
    coeffs = st.lists(
        st.integers(min_value=-2, max_value=2), min_size=len(base), max_size=len(base)
    )
    rows = base + [
        [sum(c * row[j] for c, row in zip(cs, base)) for j in range(ncols)]
        for cs in draw(st.lists(coeffs, min_size=1, max_size=3))
    ]
    return draw(st.permutations(rows)), ncols


def minor_gcd(rows, r: int) -> int:
    """The gcd of the r x r minors of an integer matrix: kept by unimodular
    row operations, and multiplied by the index on passing to a sublattice
    of the same rank (Cauchy-Binet)."""
    g = 0
    for ri in itertools.combinations(range(len(rows)), r):
        for ci in itertools.combinations(range(len(rows[0])), r):
            g = gcd(g, int(det_int_of(MatQ([[rows[i][j] for j in ci] for i in ri]))))
    return g


@given(int_row_sets())
@example(([[0, 0], [2, 4], [1, 2]], 2))
@example(([[-3], [6], [0]], 1))
@example(([[0, 0, 0]], 3))
def test_hermite_rows_are_in_hnf_and_span_the_input_lattice(case):
    rows, ncols = case
    h = ratlinalg._hermite(rows)
    pivots = []
    for row in h:
        assert len(row) == ncols
        c = next(j for j, v in enumerate(row) if v)
        assert row[c] > 0 and (not pivots or c > pivots[-1])
        pivots.append(c)
    for k, c in enumerate(pivots):
        assert all(0 <= h[j][c] < h[k][c] for j in range(k))
    # every input row reduces to zero along the echelon rows ...
    for row in rows:
        v = list(row)
        for hr, c in zip(h, pivots):
            q, rem = divmod(v[c], hr[c])
            assert rem == 0
            v = [a - q * b for a, b in zip(v, hr)]
        assert not any(v)
    # ... and the input spans all of their lattice: same rank, same minors
    if h:
        assert minor_gcd(rows, len(h)) == minor_gcd(h, len(h))
    else:
        assert not any(map(any, rows))


def test_snf_known_example():
    assert snf_invariants(MatZ(((2, 2), (0, 4)))) == (2, 4)
    assert snf_invariants(MatZ.diagonal((8, 9))) == (1, 72)
    assert snf_invariants(MatZ.diagonal((2, 2))) == (2, 2)


def square_int_matrix():
    """Square integer matrices with negative entries, and diagonal ones whose
    entries are out of divisibility order (they need the chain fix-up)."""
    dense = st.integers(min_value=1, max_value=4).flatmap(lambda n: int_matrix(n, n))
    nonzero = st.integers(min_value=-12, max_value=12).filter(bool)
    diagonal = st.lists(nonzero, min_size=1, max_size=4).map(
        lambda d: [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    )
    return st.one_of(dense, diagonal)


@given(square_int_matrix())
@example([[2, 0], [0, 3]])
@example([[-4, 0], [0, 6]])
@example([[6, 0, 0], [0, -4, 0], [0, 0, 9]])
@settings(max_examples=150)
def test_snf_invariants_equal_the_smith_diagonal(rows):
    m = MatZ(tuple(tuple(r) for r in rows))
    assume(det_int_of(MatQ(m.entries)) != 0)
    # d_1 ... d_i is the gcd of the i x i minors (the determinantal divisors)
    n, divs = m.rows, [1]
    for i in range(1, n + 1):
        g = 0
        for r in itertools.combinations(range(n), i):
            for c in itertools.combinations(range(n), i):
                minor = MatQ([[rows[a][b] for b in c] for a in r])
                g = gcd(g, int(det_int_of(minor)))
        divs.append(g)
    assert snf_invariants(m) == tuple(divs[i] // divs[i - 1] for i in range(1, n + 1))


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 2), (2, 4)),
        ((0, 0), (3, 5)),
        ((2, 0), (7, 0)),
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        ((0,),),
    ],
    ids=["rank-1", "zero-row", "zero-column", "rank-2-of-3", "zero-1x1"],
)
def test_snf_requires_nonsingular(rows):
    # the pass divides by pivots and by gcds: a singular input must be
    # refused as such, never reach a division by zero
    with pytest.raises(PreconditionError):
        snf_invariants(MatZ(rows))


# -------------------------------------------------------------- polynomials


def poly_mul(a, b):
    """Product of two coefficient sequences (ascending), trailing zeros kept."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b):])


def trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


small_polys = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5)
monic_polys = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=0, max_size=4
).map(lambda lower: tuple(lower) + (1,))


@given(small_polys, monic_polys)
def test_poly_divmod_identity(a, b):
    q, r = _divmod_monic(a, b)
    assert trimmed(poly_add(poly_mul(q, b), r)) == trimmed(a)
    assert len(trimmed(r)) < len(b)  # deg r < deg b


def test_cyclotomic_table():
    # coefficient tuples, ascending degree
    table = {
        1: (-1, 1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        5: (1, 1, 1, 1, 1),
        6: (1, -1, 1),
        8: (1, 0, 0, 0, 1),
        9: (1, 0, 0, 1, 0, 0, 1),
        10: (1, -1, 1, -1, 1),
        12: (1, 0, -1, 0, 1),
        15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
    }
    for n, coeffs in table.items():
        assert cyclotomic(n) == coeffs, n
        assert all(type(c) is int for c in cyclotomic(n)), n


def test_cyclotomic_product_recovers_x_n_minus_1():
    from isodec.numtheory import divisors

    for n in range(1, 31):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul(prod, cyclotomic(d))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected, n


def test_companion_matrix_of_known_polynomial():
    c = companion_matrix(cyclotomic(6))
    assert fraction_rows(c) == (
        (Fraction(0), Fraction(-1)),
        (Fraction(1), Fraction(1)),
    )
    assert (c**6).is_identity()
    assert not (c**3).is_identity()


@pytest.mark.parametrize(
    "m, identity, zero",
    [
        (MatQ([]), True, True),  # 0 x 0
        (MatQ._raw((), 1, 3), False, True),  # 0 x 3
        (MatQ([[1, 0, 0], [0, 1, 0]]), False, False),  # non-square
        (MatQ([["1/2", 0], [0, "1/2"]]), False, False),  # den > 1
        (MatQ([[1, 0], [1, 1]]), False, False),  # a nonzero off the diagonal
        (MatQ([[2, 0], [0, 1]]), False, False),
        (MatQ([[0, 1], [1, 0]]), False, False),  # a permutation
        (MatQ([[1, 0], [0, 0]]), False, False),
        (MatQ([[0, 0], [0, 0]]), False, True),
        (MatQ.identity(4), True, False),
    ],
)
def test_is_identity_and_is_zero_on_edge_shapes(m, identity, zero):
    assert m.is_identity() is identity
    assert m.is_zero() is zero


def test_companion_matrix_requires_a_monic_polynomial():
    for coeffs in ((1,), (1, 2), (1, 1, 0), ()):
        with pytest.raises(PreconditionError):
            companion_matrix(coeffs)


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4))
def test_companion_charpoly_round_trip(lower):
    p = tuple(lower) + (1,)
    cp = char_poly(companion_matrix(p))
    assert all(type(c) is Fraction for c in cp)
    assert cp == p


def horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@given(square_matq(3))
@settings(max_examples=60)
def test_charpoly_matches_cofactor_expansion(a):
    p = char_poly(a)
    # evaluate det(xI - A) at a few points and compare
    for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)):
        x_minus_a = MatQ(
            [[x * (i == j) - v for j, v in enumerate(row)]
             for i, row in enumerate(fraction_rows(a))]
        )
        assert horner(p, x) == det_int_of(x_minus_a)


def test_charpoly_trace_and_det_coefficients():
    a = MatQ([[1, 2], [3, 4]])
    p = char_poly(a)
    assert p[-1] == 1  # monic
    assert p[-2] == -5  # -trace
    assert p[0] == -2  # det for even dim
    assert char_poly(zeros(0, 0)) == (Fraction(1),)


# ------------------------------------------------------- restrict_operator


def test_restrict_operator_on_invariant_subspace():
    rot = MatQ([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    s = SubspaceQ(3, [[1, 0, 0], [0, 1, 0]])
    r = restrict_operator(rot, s)
    assert fraction_rows(r) == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    assert restrict_operator(rot, SubspaceQ(3)) == zeros(0, 0)


def test_restrict_operator_rejects_noninvariant_subspace():
    shear = MatQ([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    s = SubspaceQ(3, [[0, 0, 1]])
    with pytest.raises(PreconditionError):
        restrict_operator(shear, s)


# ------------------------------------------- rational inputs vs. an oracle
#
# The subspace kernel works on integer rows over one denominator; these
# tests feed it non-integral entries and compare against plain Fraction
# Gauss-Jordan elimination.


def frac_matrix(rows, cols):
    return st.lists(
        st.lists(fractions, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def oracle_basis(rows, ncols) -> MatQ:
    _, rref = oracle_rref(rows, ncols)
    return MatQ(rref) if rref else zeros(0, ncols)


def oracle_kernel(rows, ncols):
    """Fraction vectors spanning {v : M v = 0}, one per free column."""
    piv, rref = oracle_rref(rows, ncols)
    out = []
    for f in range(ncols):
        if f in piv:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(rref, piv):
            v[c] = -row[f]
        out.append(v)
    return out


def oracle_apply(rows, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


def assert_basis_is(s: SubspaceQ, expected: MatQ):
    assert s.basis.num == expected.num
    assert s.basis.den == expected.den
    assert s.basis.shape == expected.shape


@given(frac_matrix(3, 4))
def test_rational_subspace_basis_is_the_oracle_rref(rows):
    s = SubspaceQ(4, rows)
    piv, _ = oracle_rref(rows, 4)
    assert s.pivot_cols == tuple(piv)
    assert_basis_is(s, oracle_basis(rows, 4))


@given(frac_matrix(3, 4))
def test_rational_kernel_space_matches_oracle(rows):
    assert_basis_is(kernel_space(MatQ(rows)), oracle_basis(oracle_kernel(rows, 4), 4))


@given(frac_matrix(3, 4))
def test_rational_image_space_matches_oracle(rows):
    columns = [list(col) for col in zip(*rows)]
    assert_basis_is(image_space(MatQ(rows)), oracle_basis(columns, 3))


def fracs(*rows):
    return [[Fraction(x) for x in row] for row in rows]


UNIT_ROWS = fracs(*([int(i == j) for j in range(4)] for i in range(4)))


@given(frac_matrix(2, 4), frac_matrix(2, 4))
@example(fracs(), fracs([1, 2, 0, 1], [0, 1, 1, 0]))  # U = 0
@example(fracs([1, 2, 0, 1]), fracs([0, 0, 0, 0]))  # V = 0
@example(fracs([1, 2, 0, 1], [0, 1, 1, 0]), fracs([1, 3, 1, 1], [0, 1, 1, 0]))  # U = V
@example(fracs([1, 3, 1, 1]), fracs([1, 2, 0, 1], [0, 1, 1, 0]))  # U ⊂ V
@example(fracs([1, 2, 0, 1], ["1/2", 1, 1, 0]), UNIT_ROWS)  # V = Q^4
@example(fracs(["1/2", 1, 0, 0], [0, 1, 0, 0]), fracs([0, 0, 1, 0], [0, 0, 3, 1]))  # U ∩ V = 0
def test_rational_sum_and_intersection_match_oracle(rows_u, rows_v):
    u = SubspaceQ(4, rows_u)
    v = SubspaceQ(4, rows_v)
    assert_basis_is(
        SubspaceQ(4, u.basis.num + v.basis.num), oracle_basis(rows_u + rows_v, 4)
    )
    # U ∩ V: combinations a.U with a.U = b.V, from the kernel of [U^T | -V^T]
    _, ub = oracle_rref(rows_u, 4)
    _, vb = oracle_rref(rows_v, 4)
    stacked = [[r[i] for r in ub] + [-r[i] for r in vb] for i in range(4)]
    meet = []
    for a in oracle_kernel(stacked, len(ub) + len(vb)):
        meet.append(oracle_apply(list(zip(*ub)), a[: len(ub)]))
    assert_basis_is(intersect_spaces(u, v), oracle_basis(meet, 4))


@given(frac_matrix(2, 4), frac_matrix(2, 4))
def test_rational_contains_subspace_matches_oracle_rank(rows_u, rows_w):
    u = SubspaceQ(4, rows_u)
    w = SubspaceQ(4, rows_w)
    rank_u = len(oracle_rref(rows_u, 4)[1])
    contained = len(oracle_rref(rows_u + rows_w, 4)[1]) == rank_u
    assert u.contains_subspace(w) == contained
    assert SubspaceQ(4, u.basis.num + w.basis.num).contains_subspace(w)
    for row in rows_w:
        coords = coordinates_of(u, row)
        assert (coords is not None) == (
            len(oracle_rref(rows_u + [row], 4)[1]) == rank_u
        )
        if coords is not None:
            basis = basis_rows(u)
            rebuilt = [
                sum((c * b[k] for c, b in zip(coords, basis)), Fraction(0))
                for k in range(4)
            ]
            assert rebuilt == [Fraction(x) for x in row]


def assert_restriction_to_the_orbit_matches_the_oracle(m_rows, vec):
    """restrict_operator on the span of vec, M vec, M^2 vec, ... (the Krylov
    space, which is invariant) against Fraction elimination."""
    n = len(m_rows)
    krylov = [vec]
    for _ in range(n):
        krylov.append(oracle_apply(m_rows, krylov[-1]))
    s = SubspaceQ(n, krylov)
    _, basis = oracle_rref(krylov, n)
    expected = [[Fraction(0)] * len(basis) for _ in basis]
    for j, b in enumerate(basis):
        image = oracle_apply(m_rows, b)
        for i, c in enumerate(s.pivot_cols):
            expected[i][j] = image[c]
    r = restrict_operator(MatQ(m_rows), s)
    assert r == (MatQ(expected) if basis else zeros(0, 0))


@given(frac_matrix(3, 3), frac_matrix(1, 3), frac_matrix(2, 3))
def test_rational_restrict_operator_matches_oracle(m_rows, seed, other):
    m = MatQ(m_rows)
    assert_restriction_to_the_orbit_matches_the_oracle(m_rows, seed[0])
    # any subspace: invariant iff its images stay inside it
    t = SubspaceQ(3, other)
    _, tb = oracle_rref(other, 3)
    images = [oracle_apply(m_rows, b) for b in tb]
    invariant = len(oracle_rref(tb + images, 3)[1]) == len(tb)
    if invariant:
        restrict_operator(m, t)
    else:
        with pytest.raises(PreconditionError):
            restrict_operator(m, t)


def assert_kernel_and_image_match_the_oracle(t: MatQ, t_rows, y_rows, n):
    """kernel_and_image(t, Y) against Fraction elimination; returns Y and
    the kernel."""
    y = SubspaceQ(n, y_rows)
    kernel, image = kernel_and_image(t, y)
    _, yb = oracle_rref(y_rows, n)
    images = [oracle_apply(t_rows, b) for b in yb]
    assert_basis_is(image, oracle_basis(images, n))
    # sum c_j b_j lies in ker T iff sum c_j T b_j = 0
    coeffs = oracle_kernel([list(col) for col in zip(*images)], len(yb)) if yb else []
    meet = [oracle_apply(list(zip(*yb)), c) for c in coeffs]
    assert_basis_is(kernel, oracle_basis(meet, n))
    return y, kernel


@given(frac_matrix(4, 4), frac_matrix(3, 4))
@settings(max_examples=60)
def test_kernel_and_image_on_a_subspace_match_the_oracle(t_rows, y_rows):
    # Y need not be invariant: ker T ∩ Y and T(Y) are defined for any Y
    t = MatQ(t_rows)
    y, kernel = assert_kernel_and_image_match_the_oracle(t, t_rows, y_rows, 4)
    assert kernel == intersect_spaces(y, kernel_space(t))


def test_kernel_and_image_rejects_mismatched_dimensions():
    with pytest.raises(PreconditionError):
        kernel_and_image(MatQ.identity(3), SubspaceQ.full(2))
    with pytest.raises(PreconditionError):
        kernel_and_image(MatQ([[1, 0]]), SubspaceQ.full(2))


@given(frac_matrix(3, 4), st.lists(fractions, min_size=4, max_size=4))
def test_rational_mul_vector_matches_oracle(rows, vec):
    result = MatQ(rows).mul_vector(vec)
    assert all(type(x) is Fraction for x in result)
    assert list(result) == oracle_apply(rows, [Fraction(x) for x in vec])


# ------------------------------------------------- sparse rows in the kernel
#
# Products and eliminations take a shortcut for rows with at most a quarter
# of their entries nonzero.  These tests feed them permutation and monomial
# matrices, rows at exactly that density, zero rows, dense rows and empty
# shapes, and compare against dense Fraction arithmetic.

nonzero_entries = st.sampled_from([1, -1]) | st.integers(-7, 7).filter(bool)


@st.composite
def mixed_rows(draw, nrows, ncols):
    """Integer rows, each all zero, with one nonzero, with exactly a quarter
    of its entries nonzero, or with every entry nonzero."""
    out = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["zero", "one", "quarter", "dense"]))
        count = {"zero": 0, "one": min(1, ncols), "quarter": ncols // 4}
        where = draw(st.permutations(range(ncols)))[: count.get(kind, ncols)]
        row = [0] * ncols
        for t in where:
            row[t] = draw(nonzero_entries)
        out.append(row)
    return out


@st.composite
def monomial_rows(draw, n):
    """A signed monomial matrix: one nonzero per row and column, each ±1 or
    ±k; with every entry 1 it is a permutation matrix."""
    perm = draw(st.permutations(range(n)))
    unit = draw(st.booleans())
    entry = st.just(1) if unit else nonzero_entries
    scale = draw(st.lists(entry, min_size=n, max_size=n))
    return [[scale[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def sparse_matrix(nrows, ncols):
    if nrows == ncols:
        return monomial_rows(nrows) | mixed_rows(nrows, ncols)
    return mixed_rows(nrows, ncols)


def as_matq(rows, ncols, den=1) -> MatQ:
    if not rows:
        return zeros(0, ncols)
    return MatQ([[Fraction(v, den) for v in row] for row in rows])


def oracle_product(a, b, inner, ncols):
    return [
        [sum((Fraction(row[t]) * b[t][j] for t in range(inner)), Fraction(0))
         for j in range(ncols)]
        for row in a
    ]


@st.composite
def product_case(draw):
    r, k, m = (draw(st.integers(0, 8)) for _ in range(3))
    return r, k, m, draw(sparse_matrix(r, k)), draw(sparse_matrix(k, m))


@given(product_case(), st.integers(1, 4), st.integers(1, 4))
@example((2, 8, 3, [[0, 3, 0, 0, 0, 0, -1, 0], [1] * 8], [[1, 0, 2]] * 8), 1, 1)
@example((3, 3, 0, [[0, 1, 0], [1, 0, 0], [0, 0, -5]], [[], [], []]), 1, 2)
@example((0, 4, 2, [], [[1, 0], [0, 0], [0, 2], [0, 0]]), 1, 1)
@settings(max_examples=150)
def test_products_with_sparse_rows_match_the_oracle(case, den_a, den_b):
    r, k, m, a, b = case
    product = as_matq(a, k, den_a) @ as_matq(b, m, den_b)
    expected = [
        [v / (den_a * den_b) for v in row] for row in oracle_product(a, b, k, m)
    ]
    assert product.shape == (r, m)
    assert [list(row) for row in fraction_rows(product)] == expected
    if m:
        vec = [Fraction(row[0], den_b) for row in b]
        expected_vec = [row[0] for row in expected]
        assert list(as_matq(a, k, den_a).mul_vector(vec)) == expected_vec


# --------------------------------------------- packed dense rows in the kernel
#
# With at least _PACK_MIN_COLS columns and _PACK_MIN_ROWS dense rows, a
# product packs each row of the right factor into one integer of k-bit
# fields, k the smallest of 16, 32 and 64 with inner * max|a| * max|b| below
# 2^(k-1); from 2^63 on, and below the crossover, it takes the dot products.
# These tests put entries of the product at +bound and -bound, for bounds
# just below and at each limit, and compare against Fraction arithmetic.

# bound -> (inner, max|a|, max|b|) with inner * max|a| * max|b| == bound
BOUND_FACTORS = {
    2**15 - 1: (7, 31, 151),
    2**15: (8, 64, 64),
    2**31 - 1: (1, 1, 2**31 - 1),
    2**31: (8, 2**14, 2**14),
    2**63 - 1: (7, 7 * 73 * 127, 20303320287433),
    2**63: (8, 2**30, 2**30),
}


class PackedRowsSpy:
    """Records what each `_packed_rows` call returned (None: too wide)."""

    def __init__(self, mp):
        self.returned = []
        real = ratlinalg._packed_rows

        def spy(rows, b, n):
            out = real(rows, b, n)
            self.returned.append(out)
            return out

        mp.setattr(ratlinalg, "_packed_rows", spy)


def dot_rows_checked(a, b, inner, ncols, as_tuples):
    """`_dot_rows` on rows given as lists or tuples, checked against the
    Fraction product and for leaving its inputs as they were."""
    wrap = tuple if as_tuples else list
    a_in = [wrap(row) for row in a]
    b_in = [wrap(row) for row in b]
    before = ([tuple(r) for r in a_in], [tuple(r) for r in b_in])
    out = ratlinalg._dot_rows(a_in, b_in, ncols)
    assert out == oracle_product(a, b, inner, ncols)
    assert all(type(row) is list for row in out)
    assert ([tuple(r) for r in a_in], [tuple(r) for r in b_in]) == before
    return out


@st.composite
def extreme_case(draw, bound, above):
    """(a, b) with max|a| and max|b| from BOUND_FACTORS: dense row 0 against
    column 0 of b gives +bound and dense row 1 gives -bound; the other dense
    rows are drawn, and sparse rows (zero, or one nonzero) sit among them.
    `above`: at least 8 dense rows and 12 columns; else fewer of one."""
    inner, amax, bmax = BOUND_FACTORS[bound]
    if above:
        ndense, ncols = draw(st.integers(8, 11)), draw(st.integers(12, 16))
    elif draw(st.booleans()):
        ndense, ncols = draw(st.integers(2, 7)), draw(st.integers(1, 16))
    else:
        ndense, ncols = draw(st.integers(2, 11)), draw(st.integers(1, 11))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=inner, max_size=inner))
    dense_entry = st.integers(-amax, amax).filter(bool)
    a = [[s * amax for s in signs], [-s * amax for s in signs]]
    for _ in range(ndense - 2):
        a.append(draw(st.lists(dense_entry, min_size=inner, max_size=inner)))
    for _ in range(draw(st.integers(0, 4))):
        row = [0] * inner
        if inner >= 4 and draw(st.booleans()):
            row[draw(st.integers(0, inner - 1))] = draw(st.integers(-(2**70), 2**70))
        a.insert(draw(st.integers(0, len(a))), row)
    b = [
        draw(st.lists(st.integers(-bmax, bmax), min_size=ncols, max_size=ncols))
        for _ in range(inner)
    ]
    for t, s in enumerate(signs):
        b[t][0] = s * bmax
    return a, b, inner, ncols


@pytest.mark.parametrize("above", [True, False], ids=["above", "below"])
@pytest.mark.parametrize("bound", sorted(BOUND_FACTORS))
@given(data=st.data(), as_tuples=st.booleans())
@settings(max_examples=15)
def test_products_at_the_field_limits_match_the_oracle(bound, above, data, as_tuples):
    a, b, inner, ncols = data.draw(extreme_case(bound, above))
    with pytest.MonkeyPatch.context() as mp:
        spy = PackedRowsSpy(mp)
        out = dot_rows_checked(a, b, inner, ncols, as_tuples)
    assert {bound, -bound} <= {row[0] for row in out}
    # past 2^63 the packing declines; below the crossover it is not tried
    assert len(spy.returned) == int(above)
    assert all((r is None) == (bound >= 2**63) for r in spy.returned)


def test_mul_vector_and_small_shapes_take_the_dot_products():
    m = MatQ([[16 * i + j - 100 for j in range(16)] for i in range(16)])
    with pytest.MonkeyPatch.context() as mp:
        spy = PackedRowsSpy(mp)
        assert m.mul_vector([1] * 16) == tuple(Fraction(sum(r)) for r in m.num)
        # 7 dense rows by 16 columns, then 16 dense rows by 11 columns
        a, b = [r[:11] for r in m.num[:7]], [r[:16] for r in m.num[:11]]
        assert (MatQ(a) @ MatQ(b)).num == tuple(map(tuple, oracle_product(a, b, 11, 16)))
        c = [r[:11] for r in m.num]
        assert (m @ MatQ(c)).num == tuple(map(tuple, oracle_product(m.num, c, 16, 11)))
        assert spy.returned == []
        assert (m @ m).num == tuple(map(tuple, oracle_product(m.num, m.num, 16, 16)))
        assert len(spy.returned) == 1 and spy.returned[0] is not None


@st.composite
def wide_product_case(draw):
    """(a, b, inner, ncols) of up to 14 rows, 10 inner and 16 columns, with
    entries below 2^bits for a drawn bits, so that every field width and
    the fallback occur; two rows in three are dense, the others sparse
    (zero, one or a quarter nonzero), so shapes fall on both sides of the
    crossover."""
    r, k, m = draw(st.integers(0, 14)), draw(st.integers(0, 10)), draw(st.integers(0, 16))
    bits = draw(st.sampled_from([3, 12, 28, 40]))
    entry = st.integers(-(2**bits), 2**bits)
    a = []
    for _ in range(r):
        if draw(st.integers(0, 2)):
            a.append(draw(st.lists(entry, min_size=k, max_size=k)))
        else:
            a.extend(draw(mixed_rows(1, k)))
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    return a, b, k, m


@given(wide_product_case(), st.booleans(), st.integers(1, 4))
@example(([], [[1] * 16] * 3, 3, 16), False, 1)  # no rows
@example(([[1, 2, 3, 4]] * 12, [[]] * 4, 4, 0), True, 1)  # no columns
@example(([[]] * 12, [], 0, 16), False, 2)  # inner dimension 0
@example(([[]] * 9, [], 0, 13), True, 1)  # inner dimension 0, tuples
@example(([], [], 0, 5), True, 1)  # no rows and inner dimension 0
@example(([[1] * 12] * 8, [[]] * 12, 12, 0), True, 1)  # dense rows, no columns
@example(([[]] * 3, [], 0, 0), False, 1)  # no inner dimension and no columns
@settings(max_examples=150)
def test_products_of_mixed_rows_match_the_oracle(case, as_tuples, den):
    a, b, inner, ncols = case
    dot_rows_checked(a, b, inner, ncols, as_tuples)
    product = as_matq(a, inner, den) @ as_matq(b, ncols)
    expected = [[v / den for v in row] for row in oracle_product(a, b, inner, ncols)]
    assert product.shape == (len(a), ncols)
    assert [list(row) for row in fraction_rows(product)] == expected
    if ncols:
        vec = [row[0] for row in b]
        expected_vec = [row[0] for row in expected]
        assert list(as_matq(a, inner, den).mul_vector(vec)) == expected_vec


@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(st.just(n), sparse_matrix(n, n), mixed_rows(n // 2 + 1, n))
    )
)
@settings(max_examples=100)
def test_kernel_and_image_on_sparse_inputs_match_the_oracle(case):
    n, t_rows, y_rows = case
    assert_kernel_and_image_match_the_oracle(as_matq(t_rows, n), t_rows, y_rows, n)


@st.composite
def images_case(draw):
    """(n, M rows, b rows, den): a square rational M and integer rows of
    every kind (zero, one nonzero, a quarter nonzero, dense) over den, no
    rows included."""
    n = draw(st.integers(0, 6))
    rows = draw(st.integers(0, 5).flatmap(lambda r: mixed_rows(r, n)))
    return n, draw(frac_matrix(n, n)), rows, draw(st.integers(1, 6))


@given(images_case())
@example((2, [[0, 1], [1, 0]], [], 1))  # no rows
@example((3, [[1, 2, 0], [0, 1, 0], [Fraction(1, 2), 0, 1]], [[0, 0, 0], [0, 5, 0]], 4))
@example(  # 9 dense rows of 13 entries: the packed path
    (13, [[Fraction(i * j % 5 - 2, 3) for j in range(13)] for i in range(13)],
     [[i + j + 1 for j in range(13)] for i in range(9)], 2)
)
@settings(max_examples=100)
def test_images_match_the_fraction_oracle(case):
    # row j of _images(m, b), over m.den * b.den, is M b_j
    n, m_rows, b_rows, den = case
    m, b = as_matq(m_rows, n), as_matq(b_rows, n, den)
    images = ratlinalg._images(m, b)
    expected = [
        [sum((Fraction(m_rows[i][k]) * Fraction(row[k], den) for k in range(n)),
             Fraction(0)) for i in range(n)]
        for row in b_rows
    ]
    assert [[Fraction(v, m.den * b.den) for v in row] for row in images] == expected
    for row in images:  # fresh rows: writing to them leaves the inputs alone
        row[:] = [7] * n
    assert m == as_matq(m_rows, n) and b == as_matq(b_rows, n, den)


def test_images_reject_mismatched_dimensions():
    with pytest.raises(PreconditionError, match="dimensions do not match"):
        ratlinalg._images(MatQ.identity(3), zeros(1, 2))
    with pytest.raises(PreconditionError, match="dimensions do not match"):
        ratlinalg._images(MatQ([[1, 0]]), zeros(1, 2))


# kernel_and_image takes the kernel's coefficients from the images at the
# pivot columns of T(Y); the oracle solves the full system of all n rows


@st.composite
def low_rank_case(draw):
    """(n, T, Y rows): T = A B of rank at most r < k, Y spanned by k < n
    rows, so T(Y) is smaller than Y and has fewer pivots than n."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    r = draw(st.integers(0, k - 1))
    a, b = draw(frac_matrix(n, r)), draw(frac_matrix(r, n))
    return n, oracle_product(a, b, r, n), draw(frac_matrix(k, n))


@given(low_rank_case())
@settings(max_examples=100)
def test_kernel_and_image_of_a_rank_deficient_operator_match_the_oracle(case):
    n, t_rows, y_rows = case
    t = MatQ(t_rows)
    y, kernel = assert_kernel_and_image_match_the_oracle(t, t_rows, y_rows, n)
    image = kernel_and_image(t, y)[1]
    assert kernel.dim + image.dim == y.dim
    assert image.dim < len(y_rows)


@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(st.just(n), mixed_rows(n // 2 + 1, n))
    )
)
@settings(max_examples=50)
def test_kernel_and_image_of_zero_are_y_and_zero(case):
    # T(Y) = 0 has no pivot columns, so every coefficient row is free
    n, y_rows = case
    zero = [[0] * n for _ in range(n)]
    y, kernel = assert_kernel_and_image_match_the_oracle(as_matq(zero, n), zero, y_rows, n)
    assert kernel == y
    assert kernel_and_image(as_matq(zero, n), y)[1] == SubspaceQ(n)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), frac_matrix(n, n), mixed_rows(n // 2 + 1, n))
    )
)
@settings(max_examples=50)
def test_kernel_and_image_of_an_invertible_operator_keep_all_of_y(case):
    n, t_rows, y_rows = case
    assume(len(oracle_rref(t_rows, n)[0]) == n)
    t = MatQ(t_rows)
    y, kernel = assert_kernel_and_image_match_the_oracle(t, t_rows, y_rows, n)
    assert kernel == SubspaceQ(n)
    assert kernel_and_image(t, y)[1].dim == y.dim


@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(monomial_rows(n), mixed_rows(1, n)))
)
@settings(max_examples=100)
def test_restrict_operator_on_monomial_actions_matches_the_oracle(case):
    m_rows, seed = case
    assert_restriction_to_the_orbit_matches_the_oracle(m_rows, seed[0])


def sparsest_row(rows, cands, c):
    """`_row_reduce`'s pivot rule: the candidate with the most zeros, then
    the smallest |pivot|, then the first."""
    return max(cands, key=lambda i: (rows[i].count(0), -abs(rows[i][c])))


def first_row(rows, cands, c):
    return cands[0]


def dense_row_reduce(int_rows, ncols, choose=sparsest_row):
    """`_row_reduce` with every row update taken over the whole row, pivoting
    on the candidate row that `choose` picks."""

    def content_reduced(row):
        g = 0
        for v in row:
            g = gcd(g, v)
        return [v // g for v in row] if g > 1 else list(row)

    rows = [content_reduced(r) for r in int_rows if any(r)]
    piv = []
    r = 0
    for c in range(ncols):
        cands = [i for i in range(r, len(rows)) if rows[i][c]]
        if not cands:
            continue
        pr = choose(rows, cands, c)
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                v = rows[i][c]
                new = [a * p - b * v for a, b in zip(rows[i], rows[r])]
                rows[i] = content_reduced(new)
        piv.append(c)
        r += 1
    return piv, rows[:r]


@given(
    st.integers(0, 9).flatmap(
        lambda n: st.tuples(
            st.just(n), mixed_rows(n, n) | monomial_rows(n), st.booleans()
        )
    )
)
@example(
    (8, [[2, 0, 0, 0, 0, 0, 0, 4], [0, 1, 0, 0, 0, 0, 3, 0]] + [[1] * 8] * 6, True)
)
@settings(max_examples=150)
def test_row_reduce_matches_the_dense_update_and_keeps_the_input(case):
    n, rows, as_tuples = case
    given_rows = [tuple(r) for r in rows] if as_tuples else [list(r) for r in rows]
    before = [tuple(r) for r in given_rows]
    piv, reduced = ratlinalg._row_reduce(given_rows, n)
    assert (piv, [list(r) for r in reduced]) == dense_row_reduce(rows, n)
    assert [tuple(r) for r in given_rows] == before


@given(
    st.integers(0, 9).flatmap(
        lambda n: st.tuples(st.just(n), mixed_rows(n, n) | monomial_rows(n))
    )
)
# the first candidate is dense and a later one sparse
@example((4, [[1, 1, 1, 1], [2, 0, 0, 0], [0, 3, 0, 1], [0, 0, 1, 0]]))
# all candidates tie on zeros, and |pivot| picks the second
@example((3, [[3, 1, 0], [1, 2, 0], [5, 0, 7]]))
# a dense row above a signed permutation
@example((4, [[2, 3, 1, 4], [0, 0, 0, -1], [0, 0, -1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]))
@settings(max_examples=150)
def test_row_reduce_gives_the_rref_of_the_first_nonzero_row_rule(case):
    # the pivot rule changes the raw rows, never the canonical RREF
    n, rows = case
    piv, reduced = ratlinalg._row_reduce(rows, n)
    first_piv, first_reduced = dense_row_reduce(rows, n, choose=first_row)
    assert piv == first_piv
    assert ratlinalg._rref_over_lcm(piv, reduced, n) == ratlinalg._rref_over_lcm(
        first_piv, first_reduced, n
    )


# ------------------------------------------------------------ one content rule
#
# `_content` is the gcd behind both `MatQ` normalization and the row
# division of `_row_reduce` (`_primitive`).  A row that cancels to zero has
# content 0 and is kept as it is, never divided.

content_entry = st.just(0) | st.integers(-60, 60) | st.integers(-(2**70), 2**70)


@given(
    st.lists(st.lists(content_entry, max_size=6), max_size=5),
    st.just(0) | st.just(1) | st.integers(1, 360),
    st.booleans(),
)
@example([[0, 0], [], [0]], 0, True)  # all zero: content 0
@example([[], []], 12, False)  # no entries: the start alone
@example([[-4, 0, 6], [0, -10]], 0, True)  # negative entries, content 2
@example([[3, 5], [2**70 * 3]], 9, False)  # gcd 1 stops the scan
def test_content_and_the_row_division_match_math_gcd(rows, start, as_tuples):
    given_rows = [tuple(r) for r in rows] if as_tuples else [list(r) for r in rows]
    before = [tuple(r) for r in given_rows]
    expected = reduce(gcd, itertools.chain.from_iterable(rows), start)
    assert ratlinalg._content(given_rows, start) == expected
    for row in given_rows:
        g = reduce(gcd, row, 0)
        divided = ratlinalg._primitive(row)
        if g <= 1:  # content 1, or a zero row (content 0): kept as it is
            assert divided is row
        else:
            assert [divmod(v, g) for v in row] == [(q, 0) for q in divided]
            assert ratlinalg._content((divided,), 0) == 1
    assert [tuple(r) for r in given_rows] == before
