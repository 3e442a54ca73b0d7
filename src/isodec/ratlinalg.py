"""Exact rational and integer linear algebra.

Conventions, fixed once and relied on throughout the package:

* Vectors are column vectors and matrices act from the left: the kernel of M
  is {v : M v = 0} and the image is the span of the columns.
* A subspace of Q^n is stored canonically as its reduced row-echelon basis
  (every pivot is 1, zeros above and below each pivot, pivot columns strictly
  increasing).  Two subspaces are equal iff their stored bases are identical
  entry by entry, so equality of spans is literal object equality.
* Integer lattices are canonicalized as row-style Hermite normal forms:
  upper triangular, positive diagonal, and every entry above a pivot reduced
  into [0, pivot).

Matrices, subspace bases included, keep integer numerators over a single
positive denominator, and elimination, products and containment checks run
on those integers.  Polynomials are tuples of integer coefficients in
ascending order.

One grammar reads a rational entry, and one writer writes it.
`_parse_rational` accepts an int (not a bool), a Fraction, or a string of
exactly the form `[+-]digits` or `[+-]digits/digits` with a nonzero
denominator; ints come back unchanged, since they already carry
`.numerator` and `.denominator`.  `_rational_to_jsonable` writes v/den as a
plain int or `"p/q"` in lowest terms with one gcd.  So an all-integer matrix
is read and written without a Fraction.  `fractions.Fraction` remains only
where a rational crosses the public face: `mul_vector` and the parsed
value of a `"p/q"` string; `SubspaceQ` reads non-integer rows through
`MatQ` too.  No floating point appears anywhere.  One elimination serves
kernel, image and, through `kernel_and_image`, intersection.  `MatQ` has
products but no sums: one `_combination` serves every sum of matrices, and
`_plus_identity` every shift by a multiple of I.

Products.  One kernel, `_dot_rows(a, b, ncols)`, forms every integer
product a @ b from the rows of both factors as they are stored, and it
takes one of three paths per row of the left factor.  Permutation and
monomial matrices, such as those of the regular representation, have one
nonzero per row; a row counts as sparse when at most a quarter of its
entries are nonzero, a test made at C speed (`_is_sparse`), and a sparse
row is formed from the rows of the right factor at its nonzeros.  With at
least 12 columns and 8 dense rows, the dense rows go through Kronecker
substitution (`_packed_rows`): each row of the right factor is packed once
into one integer of 16-, 32- or 64-bit fields, wide enough that no entry
carries into the next, so an n by n product makes n interpreter-level
calls, not n^2.  Other dense rows take the full dot products, the one
path that reads the right factor by columns.  `_images` (the images M b_j
of stored rows b_j) is the one product with an operator transposed; it
applies an operator to rows for `kernel_and_image`, `restrict_operator`,
`action.complementary_subvariety` and the run of both isotypical routes.
Eliminations (`_row_reduce`) likewise update only at the nonzeros of a
sparse pivot row, and divide each row by its content (`_content`, the
rule `MatQ` normalizes by too).  Every path adds up the same integer
terms, so every result is the same exact integer matrix as the dense
computation gives.
An elimination also pivots, in each column, on the candidate row with the
fewest nonzeros (ties to the smallest |pivot|), a Markowitz-style choice
that keeps sparse rows sparse and intermediate entries small.  The reduced
row-echelon form does not depend on which row is the pivot, so every
subspace comes out the same.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import PreconditionError
from .numtheory import divisors

__all__ = [
    "MatQ",
    "MatZ",
    "SubspaceQ",
    "kernel_space",
    "image_space",
    "intersect_spaces",
    "kernel_and_image",
    "snf_invariants",
    "cyclotomic",
    "companion_matrix",
    "restrict_operator",
]


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(v):
    """The one reader of a rational entry.

    An int (not a bool) comes back unchanged and a Fraction as it is; a
    string must be exactly `[+-]digits` or `[+-]digits/digits` with a
    nonzero denominator.  Anything else raises: TypeError for a value of
    another type, ValueError ("cannot parse ...") for a string outside the
    grammar.  No exponent or decimal form is read, so no entry string can
    stand for a number much longer than itself.
    """
    if (isinstance(v, int) and not isinstance(v, bool)) or isinstance(v, Fraction):
        return v
    if not isinstance(v, str):
        raise TypeError(f"expected an integer, Fraction, or 'p/q' string, got {v!r}")
    m = _RATIONAL.fullmatch(v)
    if m is not None:
        p, q = m.groups()
        try:
            # int() refuses more digits than the interpreter converts
            return int(p) if q is None else Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot parse {v!r} as a rational number")


def _rational_to_jsonable(v: int, den: int):
    """v/den (den >= 1) as wire data: a plain int, or `"p/q"` in lowest terms."""
    g = gcd(v, den)
    return v // g if g == den else f"{v // g}/{den // g}"


def _is_sparse(row) -> bool:
    """Whether at most a quarter of the row's entries are nonzero; counted at
    C speed, so a dense row pays almost nothing for the test."""
    return 4 * (len(row) - row.count(0)) <= len(row)


def _nonzero_cols(row) -> list[int]:
    return list(compress(range(len(row)), row))


# field width k -> struct code of a signed k-bit field
_FIELDS = ((16, "h"), (32, "i"), (64, "q"))
# the packed path pays off from this many output columns and dense rows on
# (a replay of the benchmark's products, in BENCH_31.json)
_PACK_MIN_COLS = 12
_PACK_MIN_ROWS = 8


def _packed_rows(rows, b, n: int) -> list[list[int]] | None:
    """The dense rows of the product a @ b, for b's rows of n entries, by
    Kronecker substitution, or None when the bound inner * max|a| * max|b|
    is 2^63 or more.

    Row t of b becomes the integer P_t = sum_j b_tj 2^(kj), and a row of
    the product the one C-level sum sum_t a_t P_t = sum_j c_j 2^(kj), read
    back k bits at a time.  With h = 2^(k-1), the read is exact when every
    c_j lies in [-h, h): each field then holds c_j + h in [0, 2^k) and
    carries nothing into the next.  The bound covers every |c_j|, and every
    |b_tj| since a dense row has a nonzero entry, so k is the smallest of
    16, 32 and 64 with the bound below h.  With H = sum_j h 2^(kj), P_t + H
    is one signed `struct.pack` of b's rows as stored, then one XOR with H
    per row, which flips each field's top bit and so turns the k-bit two's
    complement of b_tj into b_tj + h.  A product row plus H holds c_j + h
    in field j; the same XOR turns it back into the two's complement of
    c_j, and one signed `struct.unpack` of all the rows, joined, reads
    every entry.
    """
    inner = len(b)
    amax = max(max(map(max, rows)), -min(map(min, rows)))
    bmax = max(max(map(max, b)), -min(map(min, b)))
    bound = inner * amax * bmax
    for k, code in _FIELDS:
        if bound < 1 << (k - 1):
            break
    else:
        return None
    width = n * k // 8
    offset = (1 << (k - 1)) * ((1 << (k * n)) - 1) // ((1 << k) - 1)  # H
    # fields of b_tj mod 2^k, and of b_tj + h after the XOR
    data = struct.pack(f"<{inner * n}{code}", *chain.from_iterable(b))
    packed = [
        (int.from_bytes(data[i : i + width], "little") ^ offset) - offset
        for i in range(0, len(data), width)
    ]
    vals = struct.unpack(
        f"<{len(rows) * n}{code}",
        b"".join(
            (sum(map(mul, row, packed), offset) ^ offset).to_bytes(width, "little")
            for row in rows
        ),
    )
    return [list(vals[i : i + n]) for i in range(0, len(vals), n)]


def _dot_rows(a, b, ncols: int) -> list[list[int]]:
    """The integer product a @ b from the rows of both factors as stored: a
    row of a has len(b) entries and a row of b has ncols.  The one kernel
    behind every integer product.

    A row of a is sparse when at most a quarter of its entries are nonzero
    (see ``_is_sparse``), and it is formed as a combination of the rows of
    b: one plain copy for an entry 1 and one scaled copy for any other
    nonzero entry.  With at least ``_PACK_MIN_COLS`` columns and
    ``_PACK_MIN_ROWS`` dense rows, the dense rows are formed by Kronecker
    substitution (``_packed_rows``).  For smaller shapes, and when the
    packing declines, a dense row takes the full dot product with every
    column of b, the one path that transposes b.  Each path adds the same
    integer products, so the result is the same exact integer matrix.
    """
    sparse = list(map(_is_sparse, a))
    dense = [row for row, s in zip(a, sparse) if not s]
    formed = None
    if ncols >= _PACK_MIN_COLS and len(dense) >= _PACK_MIN_ROWS:
        formed = _packed_rows(dense, b, ncols)
    if formed is None:  # the plain dot products, with b's columns
        cols = list(zip(*b)) if dense else []
        formed = [[sum(map(mul, row, col)) for col in cols] for row in dense]
    formed = iter(formed)
    out = []
    for row, s in zip(a, sparse):
        if not s:
            out.append(next(formed))
            continue
        acc = None
        for t in _nonzero_cols(row):
            v = row[t]
            term = b[t] if v == 1 else map(mul, b[t], repeat(v))
            acc = list(term) if acc is None else list(map(add, acc, term))
        out.append([0] * ncols if acc is None else acc)
    return out


def _content(rows, start: int) -> int:
    """gcd of `start` and every entry of the rows, always >= 0 and 0 exactly
    when all are 0; zeros are skipped at C speed, and the scan stops once
    the gcd is 1.  The one content rule, for `MatQ` and `_row_reduce`."""
    g = abs(start)
    for row in rows:
        for v in filter(None, row):
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


class MatQ:
    """Immutable dense rational matrix.

    Stored as integer numerators over one positive denominator, normalized so
    gcd(denominator, all numerators) = 1.  Construct from rows of integers,
    Fractions, or "p"/"p/q" strings (the grammar of `_parse_rational`).
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries):
        vals = [[_parse_rational(v) for v in row] for row in entries]
        if vals and any(len(r) != len(vals[0]) for r in vals):
            raise ValueError("ragged matrix")
        den = lcm(1, *(v.denominator for row in vals for v in row))
        self._set(
            [[v.numerator * (den // v.denominator) for v in row] for row in vals], den
        )

    def _set(self, num_rows, den: int, ncols: int = 0) -> None:
        """Store integer rows over den >= 1, normalized; ncols for no rows."""
        num, den = _normalize_int_rows(num_rows, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", len(num))
        object.__setattr__(self, "cols", len(num[0]) if num else ncols)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("MatQ is immutable")

    @classmethod
    def _raw(cls, num_rows, den: int, ncols: int = 0) -> "MatQ":
        m = object.__new__(cls)
        m._set(num_rows, den, ncols)
        return m

    @classmethod
    def identity(cls, n: int) -> "MatQ":
        return cls._raw([[int(i == j) for j in range(n)] for i in range(n)], 1)

    def __matmul__(self, other: "MatQ") -> "MatQ":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        num = _dot_rows(self.num, other.num, other.cols)
        return MatQ._raw(num, self.den * other.den, ncols=other.cols)

    def mul_vector(self, vec) -> tuple[Fraction, ...]:
        """M v for a column vector v (any sequence of rationals)."""
        v = [_parse_rational(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vden = lcm(1, *(x.denominator for x in v))
        vnum = [[x.numerator * (vden // x.denominator)] for x in v]
        d = self.den * vden
        return tuple(Fraction(row[0], d) for row in _dot_rows(self.num, vnum, 1))

    def __pow__(self, n: int) -> "MatQ":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        if n == 0:
            return MatQ.identity(self.rows)
        # the accumulator starts at the lowest set bit's power, not at I
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc @ base
            n >>= 1
            if n:
                base = base @ base
        return acc

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_identity(self) -> bool:
        n = self.rows
        return (
            n == self.cols
            and self.den == 1
            and all(
                row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self.num)
            )
        )

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def to_jsonable(self) -> list:
        d = self.den
        if d == 1:  # an integer entry is written as itself
            return [list(row) for row in self.num]
        return [[_rational_to_jsonable(v, d) for v in row] for row in self.num]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatQ)
            and self.shape == other.shape
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.den, self.cols))

    def __repr__(self):
        d = self.den
        rows = ", ".join(
            "[" + ", ".join(str(_rational_to_jsonable(v, d)) for v in row) + "]"
            for row in self.num
        )
        return f"MatQ([{rows}])"


def _normalize_int_rows(rows, den: int):
    """Integer rows over den >= 1, divided by their common content with den."""
    g = _content(rows, den)
    if g > 1:
        return tuple(tuple(v // g for v in row) for row in rows), den // g
    return tuple(map(tuple, rows)), den


def _combination(shape: tuple[int, int], terms, den: int) -> MatQ:
    """(1/den) * the sum of c * M over (c, M) pairs, integer c, M of this
    shape.

    Accumulates integer numerators over a running common denominator (the
    lcm of the matrices' denominators), so the sum is exact and builds no
    Fractions.
    """
    rows, cols = shape
    acc = [[0] * cols for _ in range(rows)]
    acc_den = 1
    for num, m in terms:
        new_den = lcm(acc_den, m.den)
        s = new_den // acc_den
        t = num * (new_den // m.den)
        if s != 1:
            acc = [[v * s for v in r] for r in acc]
        for r, mr in zip(acc, m.num):
            for j, v in enumerate(mr):
                if v:
                    r[j] += t * v
        acc_den = new_den
    return MatQ._raw(acc, acc_den * den, cols)


def _plus_identity(m: MatQ, c: int) -> MatQ:
    """m + c * I for a square m and an integer c: c * den is added to the
    diagonal numerators."""
    rows = [list(r) for r in m.num]
    for i, r in enumerate(rows):
        r[i] += c * m.den
    return MatQ._raw(rows, m.den, ncols=m.cols)


@dataclass(frozen=True)
class MatZ:
    """Immutable dense integer matrix (at least one row and one column).

    Every entry must be of type int; anything else, a bool included, is
    refused, not coerced.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        if not rows or not rows[0] or not all(
            len(r) == len(rows[0]) and {*map(type, r)} <= {int} for r in rows
        ):
            raise ValueError("MatZ requires a non-empty rectangular grid of ints")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _raw(cls, rows: tuple[tuple[int, ...], ...]) -> "MatZ":
        """A matrix of rows the package built itself, already a non-empty
        rectangular tuple of int tuples: the entries are not checked again."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        return m

    @classmethod
    def diagonal(cls, diag) -> "MatZ":
        diag = list(diag)
        n = len(diag)
        return cls(
            tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def to_jsonable(self) -> list:
        return [list(row) for row in self.entries]

    def __repr__(self):
        return f"MatZ({[list(r) for r in self.entries]})"


def _primitive(row):
    """The row over its content; content 1 or 0 (a zero row) keeps it as is."""
    g = _content((row,), 0)
    return [v // g for v in row] if g > 1 else row


def _row_reduce(int_rows, ncols: int):
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns (pivot_cols, rows): the nonzero rows of a reduced echelon form,
    each an integer row divided by its content, with zeros above and below
    every pivot.  Dividing a row by its pivot entry gives the canonical RREF
    row.  Row scaling is irrelevant to the row space, so callers may clear
    denominators per row before calling.

    The pivot of column c is, among the rows not yet used that are nonzero
    at c, the one with the most zeros, then the smallest |entry at c|, then
    the first.  A row update is a * p - b * v, with b the pivot row, p its
    pivot entry and v the entry to clear, so a sparse pivot row fills in few
    entries and a small pivot scales the others little.  When the pivot row
    is sparse (at most a quarter nonzero, see ``_is_sparse``), the update
    scales the row by p and subtracts only at the pivot row's nonzero
    columns; the result is the same integer row as the full update.  The
    pivot rule changes the rows returned, up to sign, but not their RREF.
    """
    # rows are replaced, never mutated, so the caller's rows are safe
    rows = [_primitive(r) for r in int_rows if any(r)]
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        cands = [i for i in range(r, len(rows)) if rows[i][c]]
        if not cands:
            continue
        pr = max(cands, key=lambda i: (rows[i].count(0), -abs(rows[i][c])))
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        nz = _nonzero_cols(prow) if _is_sparse(prow) else None
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                v = rows[i][c]
                if nz is None:
                    new = [a * p - b * v for a, b in zip(rows[i], prow)]
                else:
                    # a * p - b * v, where b = 0 outside the pivot row's nonzeros
                    new = list(rows[i] if p == 1 else map(mul, rows[i], repeat(p)))
                    for t in nz:
                        new[t] -= prow[t] * v
                rows[i] = _primitive(new)
        piv.append(c)
        r += 1
    return piv, rows[:r]


def _rref_over_lcm(piv, rows, ncols: int) -> MatQ:
    """The RREF of `_row_reduce` output: each row divided by its pivot entry,
    all over the lcm of the pivots."""
    den = lcm(1, *(abs(row[c]) for row, c in zip(rows, piv)))
    return MatQ._raw(
        [[v * (den // row[c]) for v in row] for row, c in zip(rows, piv)],
        den,
        ncols=ncols,
    )


class SubspaceQ:
    """A linear subspace of Q^n, canonicalized as a reduced row-echelon basis.

    The basis rows span the subspace; containment and equality are exact.
    Any spanning set passed to the constructor yields the same object.  The
    basis is stored as integer rows over one denominator, so the canonical
    form and every containment check stay in integer arithmetic; rows of
    plain integers, which is what every caller inside the package passes,
    never become Fractions.
    """

    __slots__ = ("ambient_dim", "basis", "pivot_cols")

    def __init__(self, ambient_dim: int, rows=()):
        if ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        rows = [*map(tuple, rows)]
        if any(len(r) != ambient_dim for r in rows):
            raise PreconditionError(
                f"ambient dimension mismatch: expected vectors of length {ambient_dim}"
            )
        if not all({*map(type, r)} <= {int} for r in rows):
            rows = MatQ(rows).num  # one denominator: the span is unchanged
        piv, rows = _row_reduce(rows, ambient_dim)
        self._set(ambient_dim, _rref_over_lcm(piv, rows, ambient_dim), piv)

    def _set(self, ambient_dim: int, basis: MatQ, pivot_cols) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivot_cols", tuple(pivot_cols))

    def __setattr__(self, *a):
        raise AttributeError("SubspaceQ is immutable")

    @classmethod
    def full(cls, n: int) -> "SubspaceQ":
        """Q^n, whose RREF basis is the identity: nothing to reduce."""
        s = object.__new__(cls)
        s._set(n, MatQ.identity(n), range(n))
        return s

    @property
    def dim(self) -> int:
        return self.basis.rows

    def _pivot_coords(self, rows):
        """Coordinates of integer rows in the canonical basis, or None if some
        row lies outside the subspace.

        In an RREF basis a vector's coordinates are its entries at the pivot
        columns, so one integer product, coords @ basis == rows, decides
        containment.  The coordinates share the rows' denominator.
        """
        coords = [[row[c] for c in self.pivot_cols] for row in rows]
        b = self.basis
        products = _dot_rows(coords, b.num, self.ambient_dim)
        if products != [[v * b.den for v in row] for row in rows]:
            return None
        return coords

    def contains_subspace(self, other: "SubspaceQ") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise PreconditionError("ambient dimension mismatch")
        if other.dim > self.dim:
            return False
        return self._pivot_coords(other.basis.num) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceQ)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"SubspaceQ(dim {self.dim} of Q^{self.ambient_dim})"


def _kernel_rows(num_rows, ncols: int) -> list[list[int]]:
    """Integer rows spanning {v : M v = 0}, one per non-pivot column, for the
    integer matrix M with the given rows."""
    piv, rows = _row_reduce(num_rows, ncols)
    rref = _rref_over_lcm(piv, rows, ncols)
    pivset = set(piv)
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [0] * ncols
        v[f] = rref.den
        for c, row in zip(piv, rref.num):
            v[c] = -row[f]
        out.append(v)
    return out


def kernel_space(M: MatQ) -> SubspaceQ:
    """{v : M v = 0} as a canonical subspace of Q^cols."""
    return SubspaceQ(M.cols, _kernel_rows(M.num, M.cols))


def image_space(M: MatQ) -> SubspaceQ:
    """The column space of M as a canonical subspace of Q^rows."""
    return SubspaceQ(M.rows, list(zip(*M.num)))


def intersect_spaces(u: SubspaceQ, v: SubspaceQ) -> SubspaceQ:
    """U ∩ V = ker(1 - P) ∩ U, by ``kernel_and_image``.

    P x = sum_k x[c_k] b_k, for V's RREF rows b_k and pivots c_k, lies in V
    and equals x exactly when x is in V (an RREF basis reads coordinates at
    its pivots), so ker(1 - P) = V.  Over V's denominator d, 1 - P has d on
    the diagonal, less b_k[i] in row i at column c_k.
    """
    if u.ambient_dim != v.ambient_dim:
        raise PreconditionError("ambient dimension mismatch")
    n = u.ambient_dim
    d = v.basis.den
    t = [[d * (i == j) for j in range(n)] for i in range(n)]
    for c, b in zip(v.pivot_cols, v.basis.num):
        for i, x in enumerate(b):
            t[i][c] -= x
    return kernel_and_image(MatQ._raw(t, d, ncols=n), u)[0]


def _images(m: MatQ, b: MatQ) -> list[list[int]]:
    """The integer rows M b_j, over M.den * b.den, for the rows b_j of b and
    a square M on their space: b times M transposed, the one product that
    applies an operator to stored rows."""
    if m.rows != m.cols or m.cols != b.cols:
        raise PreconditionError("operator and subspace dimensions do not match")
    return _dot_rows(b.num, list(zip(*m.num)), m.cols)


def kernel_and_image(t: MatQ, y: SubspaceQ) -> tuple[SubspaceQ, SubspaceQ]:
    """ker T ∩ Y and T(Y), for a square T and a subspace Y of its space.

    One product gives the rows T b_j, for the basis rows b_j of Y: they span
    T(Y), and the coefficient rows c with sum c_j T b_j = 0 are the
    coordinates of ker T ∩ Y.  T(Y) is row-reduced first.  A vector of T(Y)
    is fixed by its entries at the r pivot columns of that RREF, so the
    coefficients solve the r by dim Y system of the images at those columns,
    not the dim T by dim Y system of all their entries; with r = 0 every
    coefficient row is free.  Everything stays of size dim Y by dim T.  When
    T is semisimple and Y is T-invariant (a power of a finite-order operator
    minus 1, on a piece it preserves), Y is the direct sum of the two.
    """
    images = _images(t, y.basis)
    n = y.ambient_dim
    image = SubspaceQ(n, images)
    # a vector of T(Y) is fixed by its entries at the pivot columns of T(Y)
    at_pivots = [[row[c] for row in images] for c in image.pivot_cols]
    coeffs = _kernel_rows(at_pivots, y.dim)
    kernel = SubspaceQ(n, _dot_rows(coeffs, y.basis.num, n))
    return kernel, image


# ---------------------------------------------------------------------------
# Integer lattices: Hermite normal forms and Smith invariants
#
# No transform is kept beside an elimination.  A lattice kernel needs none:
# the last rows of an echelon basis span the sublattice that vanishes on
# the first columns (see `chars.common_kernel`).


def _hermite(rows_in) -> list[list[int]]:
    """The row-style HNF of the lattice spanned by integer rows of one
    width: its canonical nonzero rows, one pivot per row, pivots strictly
    increasing, positive, and with the entries above each in [0, pivot)."""
    rows = [list(r) for r in rows_in]
    n = len(rows)
    r = 0
    piv: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        if r == n:
            break
        if not any(rows[i][c] for i in range(r, n)):
            continue
        while True:
            i0 = min(
                (i for i in range(r, n) if rows[i][c]),
                key=lambda i: (abs(rows[i][c]), i),
            )
            rows[r], rows[i0] = rows[i0], rows[r]
            if rows[r][c] < 0:
                rows[r] = [-v for v in rows[r]]
            top = rows[r]
            p = top[c]
            done = True
            for i in range(r + 1, n):
                q = rows[i][c] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], top)]
                if rows[i][c]:
                    done = False
            if done:
                break
        piv.append(c)
        r += 1
    for k, c in enumerate(piv):
        p = rows[k][c]
        for j in range(k):
            q = rows[j][c] // p
            if q:
                rows[j] = [a - q * b for a, b in zip(rows[j], rows[k])]
    return rows[:r]


def _smallest_entry(a, t):
    """(|v|, i, j) for a smallest nonzero entry v = a[i][j] with i, j >= t,
    or None when there is none.  The search stops at the first unit."""
    best = None
    for i in range(t, len(a)):
        for j, v in enumerate(a[i][t:], t):
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:
                    return best
    return best


def snf_invariants(M: MatZ) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of a square nonsingular integer matrix.

    The diagonal of the Smith normal form, in one pass.  Each step moves a
    smallest nonzero entry of the remaining block to the pivot and clears
    its row and column, again until both are clean; then each pair of
    diagonal entries becomes its gcd and lcm, which sorts every prime's
    exponents into d1 | d2 | ... (`_divisor_chain`).  A subgroup lattice
    reads G/H off its Hermite form first (`Subgroup.quotient_invariants`),
    and only a block that is not diagonal comes here.
    """
    if M.rows != M.cols:
        raise PreconditionError("Smith invariants of a non-square matrix")
    a = [list(r) for r in M.entries]
    k = M.rows
    for t in range(k):
        while True:
            best = _smallest_entry(a, t)
            if best is None:
                raise PreconditionError("singular input: zero invariant factor")
            _, i, j = best
            a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
            top = a[t]
            p = top[t]
            # p is smallest, so q == 0 only for a zero entry
            clean = True
            for i in range(t + 1, k):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, k):
                q = top[j] // p
                if q:
                    for row in a[t:]:
                        row[j] -= q * row[t]
                    if top[j]:
                        clean = False
            if clean:
                break
    return _divisor_chain([abs(a[t][t]) for t in range(k)])


def _divisor_chain(d: list[int]) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ... of the diagonal d (modified in
    place): each pair of entries becomes its gcd and lcm."""
    k = len(d)
    for i in range(k):
        for j in range(i + 1, k):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


# ---------------------------------------------------------------------------
# Polynomials: coefficient tuples, ascending


def _divmod_monic(p, q) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of the integer polynomial p by the monic q.

    Coefficients are ascending; the remainder has len(q) - 1 entries (fewer
    when p is shorter), and it is zero exactly when q divides p.
    """
    rem = list(p)
    dq = len(q) - 1
    quo = [0] * max(len(rem) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c:
            quo[i - dq] = c
            for j, b in enumerate(q):
                rem[i - dq + j] -= c * b
    return tuple(quo), tuple(rem[:dq])


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial as monic integer coefficients,
    ascending, by exact division of x^n - 1.

    >>> cyclotomic(6)
    (1, -1, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in divisors(n):
        if d == n:
            continue
        num, rem = _divmod_monic(num, cyclotomic(d))
        if any(rem):
            raise AssertionError("cyclotomic division must be exact")
    return num


def companion_matrix(coeffs) -> MatQ:
    """Companion matrix of a monic polynomial of degree >= 1, given by its
    coefficients in ascending order.

    Subdiagonal ones; last column holds the negated low-order coefficients,
    so companion_matrix(cyclotomic(6)) == MatQ([[0, -1], [1, 1]]).
    """
    coeffs = tuple(coeffs)
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise PreconditionError("companion matrix requires a monic polynomial of degree >= 1")
    d = len(coeffs) - 1
    return MatQ(
        [[int(i == j + 1) for j in range(d - 1)] + [-coeffs[i]] for i in range(d)]
    )


def restrict_operator(M: MatQ, s: SubspaceQ) -> MatQ:
    """The matrix of M acting on an M-invariant subspace, in its RREF basis.

    Coordinates in an RREF basis are read off at the pivot columns.  Raises
    PreconditionError if the subspace is not invariant under M.
    """
    coords = s._pivot_coords(_images(M, s.basis))
    if coords is None:
        raise PreconditionError("subspace is not invariant under the operator")
    # column j of the result holds the coordinates of M b_j
    return MatQ._raw(list(zip(*coords)), s.basis.den * M.den, ncols=s.dim)
