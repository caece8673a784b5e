"""Dense exact matrices, permutations, fast multiplication, triangular kernels.

Each field has one matrix class here that holds its storage `_d` and
every method and kernel that reads it: `GF2Matrix` keeps one
arbitrary-precision int per row (bit j = column j), so row addition is a
single word-parallel XOR; `GFpMatrix` a C-contiguous int64 numpy array of
reduced residues; `RationalMatrix` a list of rows of the context's
rational type.  `DenseMatrix(ctx, ...)` and its constructors build the
class of ctx's field.  The rest of this module (Strassen, the
`tri_solve` recursion, `permute`, `hstack`/`vstack`, `Permutation`) and
every other module stay generic.  A new field is a context class in
`fields.py` plus a matrix class here, entered in `_MATRIX`, with the
working copy its `schur()` returns.

Exact rationals are slow one operation at a time, so the rational kernels
do their inner loops on Python ints: a product clears denominators per
inner index and forms each entry as one integer dot product over a shared
denominator, and triangular substitution keeps the solved entries of each
column over one common denominator.  Every result entry is normalised
once, into the context's rational type.  GF(p) substitution works on
whole numpy rows, GF(2) substitution XORs one packed row per coupling
(for X l = b, of X transposed to packed columns).

Above `_CROSSOVER` (256) entries the GF(2) kernels and GF(p)
elimination work on whole numpy arrays (a GF(2) product counts the
nonzeros of its left factor); below it numpy's per-call cost outweighs
the work, and the cheap routes stay.
  * GF(2) column gathers (`take_cols`, so `permute`), transposes and
    classical products unpack the packed rows into a uint8 bit array
    (`int.to_bytes`, or one uint64 array for rows of at most 64 bits,
    and `np.unpackbits`), index, transpose or multiply it in numpy and
    pack the result back (`np.packbits`, then `int.from_bytes` or the
    uint64 array), in the spirit of M4RI; a product is a float32
    BLAS product of the bits, exact while k < 2^24, taken mod 2.  Smaller
    ones move one bit, or XOR one packed row, at a time.
  * GF(p) elimination (`schur()`, so the row-by-row LU of `factor`, the
    symmetric pivots and the saddle pair eliminations) runs on the int64
    array, one outer-product update per pivot; smaller inputs are
    eliminated as residue lists.
Every GF(p) classical product, whatever its size, runs on float64 BLAS
(`_blas_product`): a float64 sum of integers below 2^53 is exact in any
summation order and with any number of threads, so one product serves
while k (p-1)^2 < 2^53, and 16-bit limbs of both factors serve beyond, as
in FFLAS's delayed reduction.  GF(p) substitution at n (p-1)^2 >= 2^63
splits its couplings into 16-bit limbs at every size.

Multiplication uses Strassen recursion above a configurable cutoff
(7 multiplies per level, zero-padding odd dimensions, rectangles tiled
into near-square blocks) and the field's classical kernel below it.
Over an exact field the result is bit-identical regardless of the cutoff.
"""

from __future__ import annotations

import functools
from math import gcd, lcm
from operator import mul

import numpy as np

from .fields import (
    DimensionMismatch,
    FieldContext,
    GF2Field,
    GFpField,
    RationalField,
    SingularDiagonal,
    _ratio,
    packed_ops,
)

LOWER = "lower"
LOWER_UNIT = "lower_unit"
UPPER = "upper"
UPPER_UNIT = "upper_unit"

LEFT = "left"
RIGHT = "right"


class Permutation:
    """Permutation as a position -> index array with cached inverse."""

    __slots__ = ("fwd", "_inv")

    def __init__(self, fwd):
        fwd = tuple(fwd)
        n = len(fwd)
        seen = [False] * n
        for v in fwd:
            if not 0 <= v < n or seen[v]:
                raise ValueError("not a permutation")
            seen[v] = True
        self.fwd = fwd
        self._inv = None

    @classmethod
    def _of(cls, fwd: tuple) -> "Permutation":
        """The permutation fwd, which the caller built as one: unchecked."""
        self = object.__new__(cls)
        self.fwd = fwd
        self._inv = None
        return self

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        fwd = list(range(n))
        fwd[i], fwd[j] = fwd[j], fwd[i]
        return cls(fwd)

    @property
    def n(self) -> int:
        return len(self.fwd)

    @property
    def inv(self):
        if self._inv is None:
            inv = [0] * len(self.fwd)
            for pos, idx in enumerate(self.fwd):
                inv[idx] = pos
            self._inv = tuple(inv)
        return self._inv

    def inverse(self) -> "Permutation":
        return Permutation(self.inv)

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.fwd))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.fwd == other.fwd

    def __repr__(self):
        return f"Permutation({list(self.fwd)})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition with permute(permute(A,p,p), q, q) == permute(A, compose(p,q), ..)."""
    if p.n != q.n:
        raise DimensionMismatch("permutation sizes differ")
    return Permutation(p.fwd[j] for j in q.fwd)


class _FieldDispatch(type):
    """Metaclass of `DenseMatrix` alone: calling the base class builds the
    matrix class of ctx's field.  The field classes take `_Direct`, whose
    plain `type.__call__` keeps their own constructions free of dispatch."""

    def __call__(cls, ctx, *args):
        return _MATRIX[type(ctx)](ctx, *args)


class _Direct(_FieldDispatch):
    __call__ = type.__call__


class DenseMatrix(metaclass=_FieldDispatch):
    """Row-major exact matrix over one FieldContext.

    `DenseMatrix(ctx, nrows, ncols, data)` and the constructors give an
    instance of ctx's matrix class, which supplies, besides the storage
    and elementwise methods:
      * `_mm_classical(b)`, the product below the Strassen cutoff;
      * `_substitute(out, left, forward, order, dinv)`, the substitution
        of `_tri_solve_base` in place on out, returning the number of
        couplings (nonzero off-diagonal entries of the triangle);
      * `schur()`, the working copy that every elimination pivots on:
        the row-by-row LU `factor._lu_rows`, the symmetric pivots of
        `factor` and the pair eliminations of `saddle.gamma_eliminate_partial`
        (see `_GF2Schur` and the classes after it);
      * `from_entries(ctx, rows, ncols)`, the matrix of these lists of
        canonical elements, and `column(j)`, the entries of column j;
      * rows for `sparse.apply_transcript`: `row(i)`, `zero_row()`,
        `add_scaled_row(dst, src, c)` (dst + c src, metered as one row
        operation), `same_row(a, b)` and `with_rows(rows)`, a matrix of
        the same class and width.
    """

    __slots__ = ("ctx", "nrows", "ncols", "_d")

    def __init__(self, ctx: FieldContext, nrows: int, ncols: int, data):
        self.ctx = ctx
        self.nrows = nrows
        self.ncols = ncols
        self._d = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, ctx: FieldContext, nrows: int, ncols: int) -> "DenseMatrix":
        return _MATRIX[type(ctx)].zeros(ctx, nrows, ncols)

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "DenseMatrix":
        out = cls.zeros(ctx, n, n)
        for i in range(n):
            out.set(i, i, ctx.one)
        return out

    @classmethod
    def from_rows(cls, ctx: FieldContext, rows) -> "DenseMatrix":
        rows = [[ctx.el(v) for v in r] for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise DimensionMismatch("ragged rows")
        return cls.from_entries(ctx, rows, ncols)

    @classmethod
    def from_entries(cls, ctx: FieldContext, rows, ncols: int) -> "DenseMatrix":
        """The matrix of ncols columns whose rows are these lists of
        canonical elements of ctx (unchecked: the kernels' own results)."""
        return _MATRIX[type(ctx)].from_entries(ctx, rows, ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.ctx == other.ctx and self.shape == other.shape and self._same_data(other)

    def _same_data(self, other) -> bool:
        return self._d == other._d

    def __repr__(self):
        return f"DenseMatrix({self.ctx!r}, {self.nrows}x{self.ncols})"

    def copy(self) -> "DenseMatrix":
        return self.block(0, self.nrows, 0, self.ncols)

    def pad(self, nrows: int, ncols: int) -> "DenseMatrix":
        if nrows < self.nrows or ncols < self.ncols:
            raise DimensionMismatch(f"cannot pad shape {self.shape} to {(nrows, ncols)}")
        out = self.zeros(self.ctx, nrows, ncols)
        out.set_block(0, 0, self)
        return out

    def _out_of_range(self, i, j) -> IndexError:
        # for get/set: numpy and lists would wrap a negative index, a packed row any column
        return IndexError(f"entry ({i}, {j}) out of range for {self.nrows}x{self.ncols}")

    def _indices(self, idx, n: int, what: str) -> list:
        # for take_rows/take_cols, as `_out_of_range` is for get/set
        idx = list(idx)
        if idx and not (0 <= min(idx) and max(idx) < n):
            bad = next(i for i in idx if not 0 <= i < n)
            raise IndexError(f"{what} {bad} out of range for {self.nrows}x{self.ncols}")
        return idx

    def _binop_check(self, other: "DenseMatrix"):
        if self.ctx != other.ctx:
            raise DimensionMismatch("mixed field contexts")
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape {self.shape} vs {other.shape}")

    def zero_row(self):
        return self.zeros(self.ctx, 1, self.ncols).row(0)

    @staticmethod
    def same_row(a, b) -> bool:
        return a == b


def hstack(blocks) -> DenseMatrix:
    blocks = [b for b in blocks]
    nrows = blocks[0].nrows
    ncols = sum(b.ncols for b in blocks)
    out = blocks[0].zeros(blocks[0].ctx, nrows, ncols)
    c = 0
    for b in blocks:
        if b.nrows != nrows:
            raise DimensionMismatch("hstack row mismatch")
        out.set_block(0, c, b)
        c += b.ncols
    return out


def vstack(blocks) -> DenseMatrix:
    blocks = [b for b in blocks]
    ncols = blocks[0].ncols
    nrows = sum(b.nrows for b in blocks)
    out = blocks[0].zeros(blocks[0].ctx, nrows, ncols)
    r = 0
    for b in blocks:
        if b.ncols != ncols:
            raise DimensionMismatch("vstack column mismatch")
        out.set_block(r, 0, b)
        r += b.nrows
    return out


def permute(a: DenseMatrix, p: Permutation, q: Permutation) -> DenseMatrix:
    """result[i][j] = a[p.fwd[i]][q.fwd[j]]."""
    if p.n != a.nrows or q.n != a.ncols:
        raise DimensionMismatch("permutation sizes do not match matrix")
    return a.take_rows(p.fwd).take_cols(q.fwd)


# -- multiplication ---------------------------------------------------------


def check_cutoff(cutoff: int | None) -> None:
    """Reject a Strassen cutoff below 1: the recursion would never end."""
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"Strassen cutoff must be at least 1, got {cutoff}")


def matmul(a: DenseMatrix, b: DenseMatrix, cutoff: int | None = None) -> DenseMatrix:
    """Exact product, Strassen above the cutoff, classical below."""
    if a.ctx != b.ctx:
        raise DimensionMismatch("mixed field contexts")
    if a.ncols != b.nrows:
        raise DimensionMismatch(f"inner dims {a.ncols} vs {b.nrows}")
    check_cutoff(cutoff)
    if cutoff is None:
        cutoff = a.ctx.default_cutoff
    return _mm(a, b, cutoff)


def _mm(a: DenseMatrix, b: DenseMatrix, cutoff: int) -> DenseMatrix:
    m, k, n = a.nrows, a.ncols, b.ncols
    if min(m, k, n) == 0:
        return a.zeros(a.ctx, m, n)
    if min(m, k, n) <= cutoff:
        return a._mm_classical(b)
    # Tile rectangles into near-square halves along the largest dimension.
    if max(m, k, n) >= 2 * min(m, k, n):
        if m >= k and m >= n:
            h = m // 2
            return vstack([_mm(a.block(0, h, 0, k), b, cutoff),
                           _mm(a.block(h, m, 0, k), b, cutoff)])
        if n >= m and n >= k:
            h = n // 2
            return hstack([_mm(a, b.block(0, k, 0, h), cutoff),
                           _mm(a, b.block(0, k, h, n), cutoff)])
        h = k // 2
        return _mm(a.block(0, m, 0, h), b.block(0, h, 0, n), cutoff).add(
            _mm(a.block(0, m, h, k), b.block(h, k, 0, n), cutoff))
    if m % 2 or k % 2 or n % 2:
        m2, k2, n2 = m + m % 2, k + k % 2, n + n % 2
        c = _mm(a.pad(m2, k2), b.pad(k2, n2), cutoff)
        return c.block(0, m, 0, n)
    return _mm_strassen(a, b, cutoff)


def _mm_strassen(a: DenseMatrix, b: DenseMatrix, cutoff: int) -> DenseMatrix:
    m, k, n = a.nrows, a.ncols, b.ncols
    mh, kh, nh = m // 2, k // 2, n // 2
    a11 = a.block(0, mh, 0, kh)
    a12 = a.block(0, mh, kh, k)
    a21 = a.block(mh, m, 0, kh)
    a22 = a.block(mh, m, kh, k)
    b11 = b.block(0, kh, 0, nh)
    b12 = b.block(0, kh, nh, n)
    b21 = b.block(kh, k, 0, nh)
    b22 = b.block(kh, k, nh, n)
    p1 = _mm(a11.add(a22), b11.add(b22), cutoff)
    p2 = _mm(a21.add(a22), b11, cutoff)
    p3 = _mm(a11, b12.sub(b22), cutoff)
    p4 = _mm(a22, b21.sub(b11), cutoff)
    p5 = _mm(a11.add(a12), b22, cutoff)
    p6 = _mm(a21.sub(a11), b11.add(b12), cutoff)
    p7 = _mm(a12.sub(a22), b21.add(b22), cutoff)
    c11 = p1.add(p4).sub(p5).add(p7)
    c12 = p3.add(p5)
    c21 = p2.add(p4)
    c22 = p1.sub(p2).add(p3).add(p6)
    out = a.zeros(a.ctx, m, n)
    out.set_block(0, 0, c11)
    out.set_block(0, nh, c12)
    out.set_block(mh, 0, c21)
    out.set_block(mh, nh, c22)
    return out


# -- triangular kernels ------------------------------------------------------

_TRI_BASE = 16


def _is_lower(shape: str) -> bool:
    return shape in (LOWER, LOWER_UNIT)


def _is_unit(shape: str) -> bool:
    return shape in (LOWER_UNIT, UPPER_UNIT)


def tri_solve(
    l: DenseMatrix, b: DenseMatrix, side: str, shape: str, cutoff: int | None = None
) -> DenseMatrix:
    """X with l X = b (side=left) or X l = b (side=right), exact."""
    check_cutoff(cutoff)
    n = l.nrows
    if l.ncols != n:
        raise DimensionMismatch("triangular solve needs a square matrix")
    if side == LEFT:
        if b.nrows != n:
            raise DimensionMismatch("rhs rows do not match")
    else:
        if b.ncols != n:
            raise DimensionMismatch("rhs cols do not match")
    if n == 0:
        return b.copy()
    if n <= _TRI_BASE:
        return _tri_solve_base(l, b, side, shape)
    # Solve for the unknowns of the half that substitution reaches first,
    # then for the other half against the rest of b.
    h = n // 2
    first, second = ((0, h), (h, n)) if _is_lower(shape) == (side == LEFT) else ((h, n), (0, h))
    l1, l2 = l.block(*first, *first), l.block(*second, *second)
    if side == LEFT:
        x1 = tri_solve(l1, b.block(*first, 0, b.ncols), side, shape, cutoff)
        b2 = b.block(*second, 0, b.ncols).sub(matmul(l.block(*second, *first), x1, cutoff))
        x2 = tri_solve(l2, b2, side, shape, cutoff)
        return vstack([x1, x2] if first[0] == 0 else [x2, x1])
    x1 = tri_solve(l1, b.block(0, b.nrows, *first), side, shape, cutoff)
    b2 = b.block(0, b.nrows, *second).sub(matmul(x1, l.block(*first, *second), cutoff))
    x2 = tri_solve(l2, b2, side, shape, cutoff)
    return hstack([x1, x2] if first[0] == 0 else [x2, x1])


def _tri_solve_base(l: DenseMatrix, b: DenseMatrix, side: str, shape: str) -> DenseMatrix:
    ctx = l.ctx
    n = l.nrows
    unit = _is_unit(shape)
    dinv = []
    for i in range(n):
        d = l.get(i, i)
        if ctx.is_zero(d):
            raise SingularDiagonal(i)
        dinv.append(ctx.one if unit else ctx._inverse(d))
    # l X = b is solved along each column of b and X l = b along each row:
    # unknown i is b's entry minus coef[i][t] times each solved unknown t it
    # couples to, times dinv[i]; `count_solve` meters it.
    forward = _is_lower(shape) == (side == LEFT)
    order = range(n) if forward else range(n - 1, -1, -1)
    nv = b.ncols if side == LEFT else b.nrows
    out = b.copy()
    nnz = l._substitute(out, side == LEFT, forward, order, None if unit else dinv) if nv else 0
    ctx.count_solve(nnz, n, nv, unit)
    return out


# -- field backends ---------------------------------------------------------

# The GF(2) kernels and the GF(p) working copy below take their whole-array
# routes when the input has more than this many entries; a GF(2) product
# counts the nonzeros of its left factor (the XORs of the per-bit loop).
# Replaying the calls of one pass of each benchmark workload, every array
# route broke even with its cheap route near this size, and these rules came
# within 1 ms per pass of taking the faster route call by call.
_CROSSOVER = 256


def _gf2_unpack(rows, ncols: int) -> np.ndarray:
    """(len(rows), ncols) uint8 array of the bits of packed GF(2) rows;
    every row must be below 1 << ncols.  Rows of at most 64 bits go
    through one uint64 array instead of one `to_bytes` each."""
    if ncols <= 64:
        packed = np.array(rows, dtype="<u8").view(np.uint8).reshape(len(rows), 8)
    else:
        nbytes = (ncols + 7) // 8
        buf = b"".join([r.to_bytes(nbytes, "little") for r in rows])
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=ncols, bitorder="little")


def _gf2_pack(bits: np.ndarray) -> list:
    """Packed GF(2) rows of a C-contiguous 0/1 array; the inverse of
    `_gf2_unpack`."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    nbytes = packed.shape[1]
    if not nbytes:
        return [0] * len(packed)
    if nbytes <= 8:  # one uint64 per row
        words = np.zeros((len(packed), 8), dtype=np.uint8)
        words[:, :nbytes] = packed
        return words.view("<u8").ravel().tolist()
    buf = packed.tobytes()
    return [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)]


class GF2Matrix(DenseMatrix, metaclass=_Direct):
    """GF(2): `_d` is a list of one int per row, bit j = column j, each
    below 1 << ncols."""

    __slots__ = ()

    @classmethod
    def zeros(cls, ctx, nrows, ncols):
        return cls(ctx, nrows, ncols, [0] * nrows)

    def get(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise self._out_of_range(i, j)
        return (self._d[i] >> j) & 1

    def set(self, i, j, v):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise self._out_of_range(i, j)
        if v:
            self._d[i] |= 1 << j
        else:
            self._d[i] &= ~(1 << j)

    @classmethod
    def from_entries(cls, ctx, rows, ncols):
        packed = []
        for row in rows:
            acc = 0
            for j, v in enumerate(row):
                if v:
                    acc |= 1 << j
            packed.append(acc)
        return cls(ctx, len(packed), ncols, packed)

    def to_lists(self):
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self._d]

    def column(self, j):
        return [(r >> j) & 1 for r in self._d]

    def is_zero(self):
        return not any(self._d)

    def block(self, r0, r1, c0, c1):
        mask = (1 << (c1 - c0)) - 1
        return GF2Matrix(self.ctx, r1 - r0, c1 - c0, [(r >> c0) & mask for r in self._d[r0:r1]])

    def take_rows(self, idx):
        rows = [self._d[i] for i in self._indices(idx, self.nrows, "row")]
        return GF2Matrix(self.ctx, len(rows), self.ncols, rows)

    def take_cols(self, idx):
        idx = self._indices(idx, self.ncols, "column")
        if self.nrows * len(idx) > _CROSSOVER:
            bits = np.take(_gf2_unpack(self._d, self.ncols), idx, axis=1)
            return GF2Matrix(self.ctx, self.nrows, len(idx), _gf2_pack(bits))
        rows = []
        for r in self._d:
            acc = 0
            for jj, j in enumerate(idx):
                if (r >> j) & 1:
                    acc |= 1 << jj
            rows.append(acc)
        return GF2Matrix(self.ctx, self.nrows, len(idx), rows)

    def set_block(self, r0, c0, m):
        mask = ((1 << m.ncols) - 1) << c0
        for i in range(m.nrows):
            self._d[r0 + i] = (self._d[r0 + i] & ~mask) | (m._d[i] << c0)

    def add(self, other):
        self._binop_check(other)
        self.ctx.count_ops(add=self.nrows * packed_ops(self.ncols))
        rows = [a ^ b for a, b in zip(self._d, other._d)]
        return GF2Matrix(self.ctx, self.nrows, self.ncols, rows)

    sub = add

    def scale_rows(self, factors):
        rows = [r if f & 1 else 0 for r, f in zip(self._d, factors)]
        return GF2Matrix(self.ctx, self.nrows, self.ncols, rows)

    def conj_transpose(self):
        if self.nrows * self.ncols > _CROSSOVER:
            bits = _gf2_unpack(self._d, self.ncols)
            cols = _gf2_pack(np.ascontiguousarray(bits.T))
            return GF2Matrix(self.ctx, self.ncols, self.nrows, cols)
        cols = [0] * self.ncols
        for i, row in enumerate(self._d):
            r = row
            bit = 1 << i
            while r:
                lsb = r & -r
                cols[lsb.bit_length() - 1] |= bit
                r ^= lsb
        return GF2Matrix(self.ctx, self.ncols, self.nrows, cols)

    def _mm_classical(self, b):
        """self @ b, one XOR of a packed row of b per nonzero of self; with
        more than `_CROSSOVER` nonzeros, a float32 product of the unpacked
        bits, whose sums (at most k < 2^24) are exact, taken mod 2."""
        m, k, n = self.nrows, self.ncols, b.ncols
        used = sum(r.bit_count() for r in self._d)
        if used > _CROSSOVER and k < 1 << 24:
            prod = _gf2_unpack(self._d, k).astype(np.float32) @ _gf2_unpack(b._d, n).astype(np.float32)
            rows = _gf2_pack(prod.astype(np.int32) & 1)
        else:
            brows = b._d
            rows = []
            for r in self._d:
                acc = 0
                while r:
                    lsb = r & -r
                    acc ^= brows[lsb.bit_length() - 1]
                    r ^= lsb
                rows.append(acc)
        self.ctx.count_product(m, k, n, used)
        return GF2Matrix(self.ctx, m, n, rows)

    def _substitute(self, out, left, forward, order, dinv):
        n = self.nrows
        coef = self._d if left else self.conj_transpose()._d
        masks = [
            coef[i] & ((1 << i) - 1) if forward else coef[i] >> (i + 1) << (i + 1)
            for i in range(n)
        ]
        # packed rows of X (of X^T for X l = b), one XOR per coupling
        xt = out if left else out.conj_transpose()
        x = xt._d
        for i in order:
            acc = x[i]
            mask = masks[i]
            while mask:
                lsb = mask & -mask
                acc ^= x[lsb.bit_length() - 1]
                mask ^= lsb
            x[i] = acc
        if not left:
            out._d[:] = xt.conj_transpose()._d
        return sum(mask.bit_count() for mask in masks)

    def schur(self):
        return _GF2Schur(self.ctx, list(self._d), self.ncols)

    def row(self, i):
        return self._d[i]

    def add_scaled_row(self, dst, src, c):
        w = packed_ops(self.ncols)
        self.ctx.count_ops(add=w, mul=w)
        return dst ^ src if c & 1 else dst

    def with_rows(self, rows):
        return GF2Matrix(self.ctx, len(rows), self.ncols, list(rows))


class GFpMatrix(DenseMatrix, metaclass=_Direct):
    """GF(p): `_d` is a C-contiguous (nrows, ncols) int64 array of residues."""

    __slots__ = ()

    @classmethod
    def zeros(cls, ctx, nrows, ncols):
        return cls(ctx, nrows, ncols, np.zeros((nrows, ncols), dtype=np.int64))

    def get(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise self._out_of_range(i, j)
        return int(self._d[i, j])

    def set(self, i, j, v):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise self._out_of_range(i, j)
        self._d[i, j] = v

    @classmethod
    def from_entries(cls, ctx, rows, ncols):
        rows = list(rows)
        return cls(ctx, len(rows), ncols, np.array(rows, dtype=np.int64).reshape(len(rows), ncols))

    def to_lists(self):
        return self._d.tolist()

    def column(self, j):
        return self._d[:, j].tolist()

    def _same_data(self, other):
        return bool(np.array_equal(self._d, other._d))

    def is_zero(self):
        return not self._d.any()

    def block(self, r0, r1, c0, c1):
        return GFpMatrix(self.ctx, r1 - r0, c1 - c0, self._d[r0:r1, c0:c1].copy())

    def take_rows(self, idx):
        d = self._d.take(self._indices(idx, self.nrows, "row"), axis=0)
        return GFpMatrix(self.ctx, len(d), self.ncols, d)

    def take_cols(self, idx):
        d = self._d.take(self._indices(idx, self.ncols, "column"), axis=1)
        return GFpMatrix(self.ctx, self.nrows, d.shape[1], d)

    def set_block(self, r0, c0, m):
        self._d[r0 : r0 + m.nrows, c0 : c0 + m.ncols] = m._d

    def add(self, other):
        self._binop_check(other)
        self.ctx.count_ops(add=self.nrows * self.ncols)
        return GFpMatrix(self.ctx, self.nrows, self.ncols, (self._d + other._d) % self.ctx.p)

    def sub(self, other):
        self._binop_check(other)
        self.ctx.count_ops(add=self.nrows * self.ncols)
        return GFpMatrix(self.ctx, self.nrows, self.ncols, (self._d - other._d) % self.ctx.p)

    def scale_rows(self, factors):
        self.ctx.count_ops(mul=self.nrows * self.ncols)
        f = np.array(list(factors), dtype=np.int64).reshape(-1, 1)
        return GFpMatrix(self.ctx, self.nrows, self.ncols, (self._d * f) % self.ctx.p)

    def conj_transpose(self):
        return GFpMatrix(self.ctx, self.ncols, self.nrows, self._d.T.copy())

    def _mm_classical(self, b):
        """self @ b, by `_blas_product`."""
        m, n = self.nrows, b.ncols
        self.ctx.count_product(m, self.ncols, n, None)
        return GFpMatrix(self.ctx, m, n, _blas_product(self._d, b._d, self.ctx.p))

    def _substitute(self, out, left, forward, order, dinv):
        # Whole numpy rows of X (columns for X l = b), with dinv folded
        # into b and into the couplings: x_i = dinv_i b_i - sum_t
        # (dinv_i c_it) x_t, one row product over the unknowns solved
        # before i.  That product stays below 2^63 if n (p-1)^2 does;
        # otherwise the couplings are split into 16-bit limbs (p < 2^31),
        # whose two products stay below n 2^47.
        p = self.ctx.p
        n = self.nrows
        coef = self._d if left else self._d.T
        coef = coef * _strict_triangle(n, forward)
        x = out._d if left else out._d.T
        if dinv is not None:
            dv = np.array(dinv, dtype=np.int64).reshape(-1, 1)
            x[:] = x * dv % p
            coef = coef * dv % p
        limbs = None if n * (p - 1) ** 2 < 1 << 63 else (coef >> 16, coef & 0xFFFF)
        coupled = coef.any(axis=1).tolist()
        for i in order:
            if not coupled[i]:
                continue
            # over the unknowns solved before i, rows of out
            ts = slice(0, i) if forward else slice(i + 1, None)
            if limbs is None:
                c = coef[i, ts]
                x[i] = (x[i] - (c @ x[ts] if left else out._d[:, ts] @ c)) % p
            else:
                xs = x[ts]
                x[i] = (x[i] - (limbs[0][i, ts] @ xs % p << 16) - limbs[1][i, ts] @ xs) % p
        return int(np.count_nonzero(coef))

    def schur(self):
        if self.nrows * self.ncols <= _CROSSOVER:
            return _GFpSchur(self.ctx, self._d.tolist())
        return _GFpArraySchur(self.ctx, self._d.copy())

    def row(self, i):
        return self._d[i].copy()

    def add_scaled_row(self, dst, src, c):
        self.ctx.count_ops(add=self.ncols, mul=self.ncols)
        return (dst + c * src) % self.ctx.p

    @staticmethod
    def same_row(a, b):
        return bool(np.array_equal(a, b))

    def with_rows(self, rows):
        data = np.array(rows, dtype=np.int64).reshape(len(rows), self.ncols)
        return GFpMatrix(self.ctx, len(rows), self.ncols, data)


class RationalMatrix(DenseMatrix, metaclass=_Direct):
    """Q: `_d` is a list of rows, each a list of the context's rational type."""

    __slots__ = ()

    @classmethod
    def zeros(cls, ctx, nrows, ncols):
        zero = ctx.zero
        return cls(ctx, nrows, ncols, [[zero] * ncols for _ in range(nrows)])

    def get(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise self._out_of_range(i, j)
        return self._d[i][j]

    def set(self, i, j, v):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise self._out_of_range(i, j)
        self._d[i][j] = v

    @classmethod
    def from_entries(cls, ctx, rows, ncols):
        rows = [list(r) for r in rows]
        return cls(ctx, len(rows), ncols, rows)

    def to_lists(self):
        return [list(r) for r in self._d]

    def column(self, j):
        return [row[j] for row in self._d]

    def is_zero(self):
        return all(all(v == 0 for v in row) for row in self._d)

    def block(self, r0, r1, c0, c1):
        return RationalMatrix(self.ctx, r1 - r0, c1 - c0, [row[c0:c1] for row in self._d[r0:r1]])

    def take_rows(self, idx):
        rows = [list(self._d[i]) for i in self._indices(idx, self.nrows, "row")]
        return RationalMatrix(self.ctx, len(rows), self.ncols, rows)

    def take_cols(self, idx):
        idx = self._indices(idx, self.ncols, "column")
        rows = [[row[j] for j in idx] for row in self._d]
        return RationalMatrix(self.ctx, self.nrows, len(idx), rows)

    def set_block(self, r0, c0, m):
        for i in range(m.nrows):
            self._d[r0 + i][c0 : c0 + m.ncols] = list(m._d[i])

    def add(self, other):
        self._binop_check(other)
        self.ctx.count_ops(add=self.nrows * self.ncols)
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._d, other._d)]
        return RationalMatrix(self.ctx, self.nrows, self.ncols, rows)

    def sub(self, other):
        self._binop_check(other)
        self.ctx.count_ops(add=self.nrows * self.ncols)
        rows = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._d, other._d)]
        return RationalMatrix(self.ctx, self.nrows, self.ncols, rows)

    def scale_rows(self, factors):
        self.ctx.count_ops(mul=self.nrows * self.ncols)
        rows = [[a * f for a in row] for row, f in zip(self._d, factors)]
        return RationalMatrix(self.ctx, self.nrows, self.ncols, rows)

    def conj_transpose(self):
        rows = [[self._d[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return RationalMatrix(self.ctx, self.ncols, self.nrows, rows)

    def _mm_classical(self, b):
        """self @ b, each entry one integer dot product of integer rows of
        self and columns of b over one denominator V.

        Column t of self is cleared by its denominator alpha_t and row t of
        b by beta_t; with V = lcm_t(alpha_t beta_t), row i of self is scaled
        to a_it V / beta_t and column j of b to b_tj beta_t.  Denominators
        per inner index stay small where those of whole rows of self factor
        do not, and only one operand carries the large V.
        """
        self.ctx.count_product(self.nrows, self.ncols, b.ncols, None)
        alpha = [1] * self.ncols
        for arow in self._d:
            for t, x in enumerate(arow):
                if x.denominator != 1:
                    alpha[t] = lcm(alpha[t], x.denominator)
        beta = [1] * self.ncols
        for t, brow in enumerate(b._d):
            for y in brow:
                if y.denominator != 1:
                    beta[t] = lcm(beta[t], y.denominator)
        big = 1
        for al, be in zip(alpha, beta):
            big = lcm(big, al * be)
        scale = [big // be for be in beta]
        arows = [[x.numerator * (s // x.denominator) for x, s in zip(row, scale)] for row in self._d]
        bcols = [
            [y.numerator * (be // y.denominator) for y, be in zip(col, beta)] for col in zip(*b._d)
        ]
        if big == 1:
            rows = [[_ratio(sum(map(mul, ar, bc))) for bc in bcols] for ar in arows]
        else:
            rows = [[_ratio(sum(map(mul, ar, bc)), big) for bc in bcols] for ar in arows]
        return RationalMatrix(self.ctx, self.nrows, b.ncols, rows)

    def _substitute(self, out, left, forward, order, dinv):
        # In place on each column of X (row for X l = b): the solved entries
        # are kept as integers over one common denominator, and each
        # coupling row is cleared to integers over its own.
        coef, deps = _couplings(self, left, forward)
        cleared = []
        for i, ts in enumerate(deps):
            vals = [coef[i][t] for t in ts]
            delta = lcm(1, *(v.denominator for v in vals))
            cleared.append(([v.numerator * (delta // v.denominator) for v in vals], delta))
        rows = out._d
        vecs = [list(col) for col in zip(*rows)] if left else rows
        for vec in vecs:
            xn = [0] * len(vec)
            common = 1
            for i in order:
                v = vec[i]
                num, den = v.numerator, v.denominator
                ts = deps[i]
                changed = dinv is not None
                if ts:
                    nums, delta = cleared[i]
                    s = sum(map(mul, nums, [xn[t] for t in ts]))
                    if s:
                        scale = delta * common
                        num = num * scale - s * den
                        den *= scale
                        changed = True
                if dinv is not None:
                    num *= dinv[i].numerator
                    den *= dinv[i].denominator
                if changed:
                    v = _ratio(num, den)
                    vec[i] = v
                d = v.denominator
                if common % d:
                    f = d // gcd(common, d)
                    xn = [y * f for y in xn]
                    common *= f
                xn[i] = v.numerator * (common // d)
        if left:
            rows[:] = [list(row) for row in zip(*vecs)]
        return sum(map(len, deps))

    def schur(self):
        return _RationalSchur(self.ctx, *_integer_rows(self._d))

    def row(self, i):
        return list(self._d[i])

    def add_scaled_row(self, dst, src, c):
        self.ctx.count_ops(add=self.ncols, mul=self.ncols)
        return [a + c * b for a, b in zip(dst, src)]

    def with_rows(self, rows):
        return RationalMatrix(self.ctx, len(rows), self.ncols, [list(r) for r in rows])


# -- working copies for elimination (LU, symmetric and saddle pivots) ----------
#
# `m.schur()` is a working copy S of m that every elimination pivots on,
# right-looking: the row-by-row LU and the vertex and edge eliminations
# of `factor`, and the constraint pairs of `saddle.gamma_eliminate_partial`.
# `pivot(k, c, rows)` subtracts S[t][c] / S[k][c] times row k from each row
# t of `rows` with S[t][c] != 0 and returns those rows' multipliers,
# {t: S[t][c] / S[k][c]}; the caller lists the rows that are left.
# `get(i, j)` reads an entry of the current S and `nonzero(i, j)` tests one,
# `first(i, q, r)` is the first position at or past r in the column order
# q whose entry in row i is nonzero (None if there is none), and
# `block(rows, cols)`, `lists(rows, cols)` and `sub(rows, cols)` copy a
# block out as a matrix, as lists of elements and as a working copy (the
# tree engine's bag step runs `factor._lu_rows` on one).  Updating whole
# rows keeps a pivot's column zero in every row it updated.


class _WorkingCopy:
    """What the working copies share: a block copied out through `lists`."""

    __slots__ = ()

    def block(self, rows, cols):
        return DenseMatrix.from_entries(self.ctx, self.lists(rows, cols), len(cols))

    def sub(self, rows, cols):
        return self.block(rows, cols).schur()


class _GF2Schur(_WorkingCopy):
    """Packed rows: a pivot row is subtracted with one XOR."""

    __slots__ = ("ctx", "rows", "ncols")

    def __init__(self, ctx, rows: list, ncols: int):
        self.ctx, self.rows, self.ncols = ctx, rows, ncols

    def get(self, i, j):
        return self.rows[i] >> j & 1

    nonzero = get

    def first(self, i, q, r):
        row = self.rows[i]
        if row:
            for pos in range(r, len(q)):
                if row >> q[pos] & 1:
                    return pos
        return None

    def block(self, rows, cols):
        d = self.rows
        return GF2Matrix(self.ctx, len(rows), self.ncols, [d[i] for i in rows]).take_cols(cols)

    def lists(self, rows, cols):
        d = self.rows
        return [[d[i] >> j & 1 for j in cols] for i in rows]

    def pivot(self, k, c, rows):
        d = self.rows
        pk, out = d[k], {}
        for t in rows:
            if d[t] >> c & 1:
                d[t] ^= pk
                out[t] = 1
        return out


class _GFpSchur(_WorkingCopy):
    """Rows of residues as Python ints, each update reduced inline."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows: list):
        self.ctx, self.rows = ctx, rows

    def get(self, i, j):
        return self.rows[i][j]

    nonzero = get

    def first(self, i, q, r):
        return _first(self.rows[i], q, r)

    def lists(self, rows, cols):
        d = self.rows
        return [[d[i][j] for j in cols] for i in rows]

    def sub(self, rows, cols):
        return _GFpSchur(self.ctx, self.lists(rows, cols))

    def pivot(self, k, c, rows):
        p, d = self.ctx.p, self.rows
        pk, out = d[k], {}
        dinv = pow(pk[c], -1, p)
        alone = pk.count(0) == len(pk) - 1  # an update only clears column c
        for t in rows:
            row = d[t]
            if row[c]:
                m = out[t] = row[c] * dinv % p
                if alone:
                    row[c] = 0
                else:
                    d[t] = [(x - m * y) % p for x, y in zip(row, pk)]
        return out


class _GFpArraySchur(_WorkingCopy):
    """The int64 array: a pivot updates all its rows with one outer product."""

    __slots__ = ("ctx", "a")

    def __init__(self, ctx, a: np.ndarray):
        self.ctx, self.a = ctx, a

    def get(self, i, j):
        return int(self.a[i, j])

    nonzero = get

    def first(self, i, q, r):
        return _first(self.a[i].tolist(), q, r)

    def block(self, rows, cols):
        return GFpMatrix(self.ctx, len(rows), len(cols), self.a[np.ix_(rows, cols)])

    def lists(self, rows, cols):
        return self.a[np.ix_(rows, cols)].tolist()

    def pivot(self, k, c, rows):
        # a range of rows is updated as one slice, a multiplier of 0 included
        p, a = self.ctx.p, self.a
        if isinstance(rows, range):
            ts = slice(rows.start, rows.stop)
        else:
            ts = np.asarray(rows, dtype=np.intp)
        m = a[ts, c] * pow(int(a[k, c]), -1, p) % p
        a[ts] = (a[ts] - np.outer(m, a[k])) % p
        return {t: x for t, x in zip(rows, m.tolist()) if x}


class _RationalSchur(_WorkingCopy):
    """Integer rows over one denominator each: an update is fraction-free
    and then divided by the gcd of the row and its denominator."""

    __slots__ = ("ctx", "rows", "dens")

    def __init__(self, ctx, rows: list, dens: list):
        self.ctx, self.rows, self.dens = ctx, rows, dens

    def get(self, i, j):
        x = self.rows[i][j]
        return _ratio(x, self.dens[i]) if x else self.ctx.zero

    def nonzero(self, i, j):
        return self.rows[i][j] != 0

    def first(self, i, q, r):
        return _first(self.rows[i], q, r)

    def lists(self, rows, cols):
        d, dens, zero = self.rows, self.dens, self.ctx.zero
        return [[_ratio(d[i][j], dens[i]) if d[i][j] else zero for j in cols] for i in rows]

    def sub(self, rows, cols):
        d = self.rows
        return _RationalSchur(self.ctx, [[d[i][j] for j in cols] for i in rows],
                              [self.dens[i] for i in rows])

    def pivot(self, k, c, rows):
        d, dens = self.rows, self.dens
        pk, dk, out = d[k], dens[k], {}
        e = pk[c]
        for t in rows:
            row = d[t]
            x = row[c]
            if x:
                out[t] = _ratio(x * dk, dens[t] * e)
                den = dens[t] * e
                row = [y * e - x * z for y, z in zip(row, pk)]
                g = gcd(den, *row)
                if den < 0:
                    g = -g
                if g != 1:
                    row, den = [y // g for y in row], den // g
                d[t], dens[t] = row, den
        return out


def _first(row, q, r):
    """The first position at or past r in the column order q whose entry
    in the list row is nonzero, or None."""
    for pos in range(r, len(q)):
        if row[q[pos]]:
            return pos
    return None


def _integer_rows(rows):
    """(integer rows, denominators): each rational row as integers over
    the lcm of its denominators."""
    ints, dens = [], []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (den // x.denominator) for x in row])
        dens.append(den)
    return ints, dens


@functools.cache
def _strict_triangle(n: int, lower: bool) -> np.ndarray:
    """The int64 0/1 mask of the strict lower (or upper) n x n triangle."""
    mask = np.tri(n, k=-1, dtype=np.int64)
    mask = mask if lower else np.ascontiguousarray(mask.T)
    mask.setflags(write=False)  # shared by every caller
    return mask


def _blas_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p of two int64 arrays of residues, on float64 BLAS.

    A float64 sum of integers below 2^53 is exact in any order and on any
    number of threads, so one product serves while k (p-1)^2 < 2^53.
    Otherwise both factors are split into 16-bit limbs (p < 2^31): the four
    limb products have sums below k 2^32, exact for k up to 2^21 at a time,
    and are recombined mod p in int64.
    """
    k = a.shape[1]
    if k * (p - 1) ** 2 < 1 << 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    r32 = (1 << 32) % p
    for k0 in range(0, k, 1 << 21):
        ak, bk = a[:, k0 : k0 + (1 << 21)], b[k0 : k0 + (1 << 21)]
        a1, a0 = (ak >> 16).astype(np.float64), (ak & 0xFFFF).astype(np.float64)
        b1, b0 = (bk >> 16).astype(np.float64), (bk & 0xFFFF).astype(np.float64)
        hi = (a1 @ b1).astype(np.int64) % p
        mid = ((a1 @ b0).astype(np.int64) + (a0 @ b1).astype(np.int64)) % p
        out = (out + hi * r32 + (mid << 16) + (a0 @ b0).astype(np.int64)) % p
    return out


def _couplings(l: DenseMatrix, left: bool, forward: bool):
    """(coef, deps) for substitution with the entry lists of l: coef is
    l's rows, or its columns for X l = b, and deps[i] lists the unknowns t
    solved before i with coef[i][t] != 0."""
    n = l.nrows
    lrows = l.to_lists()
    coef = lrows if left else [list(col) for col in zip(*lrows)]
    deps = [
        [t for t in (range(i) if forward else range(i + 1, n)) if coef[i][t] != 0]
        for i in range(n)
    ]
    return coef, deps


_MATRIX = {GF2Field: GF2Matrix, GFpField: GFpMatrix, RationalField: RationalMatrix}
