"""Dense exact matrices, permutations, fast multiplication, triangular kernels.

Storage is chosen per field: GF(2) matrices keep one arbitrary-precision
int per row (bit j = column j), so row addition is a single word-parallel
XOR; GF(p) matrices are int64 numpy arrays with reduced residues; rational
matrices are lists of exact-rational rows.  All other modules stay generic over
the field and only go through this API.

Exact rationals are slow one operation at a time, so the rational kernels
do their inner loops on Python ints: a product clears denominators per
inner index and forms each entry as one integer dot product over a shared
denominator, and triangular substitution keeps the solved entries of each
column over one common denominator.  Every result entry is normalised
once, into the context's rational type.  GF(p) substitution works on
whole numpy rows, GF(2) substitution on packed rows.

GF(2) column gathers (`take_cols`, so `permute`) and transposes of more
than `_GF2_BIT_LOOP_MAX` entries unpack the packed rows into a uint8 bit
array (`int.to_bytes` and `np.unpackbits`), index or transpose it in
numpy and pack it back (`np.packbits` and `int.from_bytes`), in the
spirit of M4RI's bit-matrix transposes and column swaps; smaller ones
move one bit at a time, which is cheaper below numpy's per-call cost.

Multiplication uses Strassen recursion above a configurable cutoff
(7 multiplies per level, zero-padding odd dimensions, rectangles tiled
into near-square blocks) and classical kernels below it.  Over an exact
field the result is bit-identical regardless of the cutoff.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

import numpy as np

from .fields import (
    GF2,
    GFP,
    RATIONAL,
    DimensionMismatch,
    FieldContext,
    SingularDiagonal,
    _ratio,
    packed_ops,
)

DEFAULT_CUTOFF_SCALAR = 64
DEFAULT_CUTOFF_GF2 = 256

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


def _gf2_mask(ncols: int) -> int:
    return (1 << ncols) - 1


# Column gathers and transposes of GF(2) matrices with at most this many
# entries run per bit in Python; larger ones go through a uint8 bit array,
# whose numpy calls cost 10-15 us per call whatever the size.  Replaying the
# calls of one pass of each benchmark workload, this threshold was within 5%
# of the fastest of 64, 128, 512 and either route for every size.
_GF2_BIT_LOOP_MAX = 256


def _gf2_unpack(rows, ncols: int) -> np.ndarray:
    """(len(rows), ncols) uint8 array of the bits of packed GF(2) rows;
    every row must be below 1 << ncols."""
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
    buf = packed.tobytes()
    return [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)]


class DenseMatrix:
    """Row-major exact matrix over one FieldContext."""

    __slots__ = ("ctx", "nrows", "ncols", "_d")

    def __init__(self, ctx: FieldContext, nrows: int, ncols: int, data):
        self.ctx = ctx
        self.nrows = nrows
        self.ncols = ncols
        self._d = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, ctx: FieldContext, nrows: int, ncols: int) -> "DenseMatrix":
        if ctx.kind == GF2:
            return cls(ctx, nrows, ncols, [0] * nrows)
        if ctx.kind == GFP:
            return cls(ctx, nrows, ncols, np.zeros((nrows, ncols), dtype=np.int64))
        zero = ctx.zero
        return cls(ctx, nrows, ncols, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "DenseMatrix":
        out = cls.zeros(ctx, n, n)
        for i in range(n):
            out.set(i, i, ctx.one)
        return out

    @classmethod
    def from_rows(cls, ctx: FieldContext, rows) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        out = cls.zeros(ctx, nrows, ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            for j, v in enumerate(row):
                out.set(i, j, ctx.el(v))
        return out

    # -- element access --------------------------------------------------

    def get(self, i: int, j: int):
        if self.ctx.kind == GF2:
            return (self._d[i] >> j) & 1
        if self.ctx.kind == GFP:
            return int(self._d[i, j])
        return self._d[i][j]

    def set(self, i: int, j: int, v):
        if self.ctx.kind == GF2:
            if v:
                self._d[i] |= 1 << j
            else:
                self._d[i] &= ~(1 << j)
        elif self.ctx.kind == GFP:
            self._d[i, j] = v
        else:
            self._d[i][j] = v

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def copy(self) -> "DenseMatrix":
        if self.ctx.kind == GF2:
            return DenseMatrix(self.ctx, self.nrows, self.ncols, list(self._d))
        if self.ctx.kind == GFP:
            return DenseMatrix(self.ctx, self.nrows, self.ncols, self._d.copy())
        return DenseMatrix(self.ctx, self.nrows, self.ncols, [list(r) for r in self._d])

    def to_lists(self):
        if self.ctx.kind == GF2:
            return [[(r >> j) & 1 for j in range(self.ncols)] for r in self._d]
        if self.ctx.kind == GFP:
            return self._d.tolist()
        return [list(r) for r in self._d]

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.ctx != other.ctx or self.shape != other.shape:
            return False
        if self.ctx.kind == GF2:
            return self._d == other._d
        if self.ctx.kind == GFP:
            return bool(np.array_equal(self._d, other._d))
        return self._d == other._d

    def is_zero(self) -> bool:
        if self.ctx.kind == GF2:
            return all(r == 0 for r in self._d)
        if self.ctx.kind == GFP:
            return not self._d.any()
        return all(all(v == 0 for v in row) for row in self._d)

    def __repr__(self):
        return f"DenseMatrix({self.ctx!r}, {self.nrows}x{self.ncols})"

    # -- slicing / assembly ----------------------------------------------

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "DenseMatrix":
        nr, nc = r1 - r0, c1 - c0
        if self.ctx.kind == GF2:
            mask = _gf2_mask(nc)
            rows = [(r >> c0) & mask for r in self._d[r0:r1]]
            return DenseMatrix(self.ctx, nr, nc, rows)
        if self.ctx.kind == GFP:
            return DenseMatrix(self.ctx, nr, nc, self._d[r0:r1, c0:c1].copy())
        return DenseMatrix(
            self.ctx, nr, nc, [row[c0:c1] for row in self._d[r0:r1]]
        )

    def take_rows(self, idx) -> "DenseMatrix":
        idx = list(idx)
        if self.ctx.kind == GF2:
            return DenseMatrix(self.ctx, len(idx), self.ncols, [self._d[i] for i in idx])
        if self.ctx.kind == GFP:
            if not idx:
                return DenseMatrix.zeros(self.ctx, 0, self.ncols)
            return DenseMatrix(self.ctx, len(idx), self.ncols, self._d[idx, :].copy())
        return DenseMatrix(self.ctx, len(idx), self.ncols, [list(self._d[i]) for i in idx])

    def take_cols(self, idx) -> "DenseMatrix":
        idx = list(idx)
        if self.ctx.kind == GF2:
            if self.nrows * len(idx) > _GF2_BIT_LOOP_MAX:
                bits = np.take(_gf2_unpack(self._d, self.ncols), idx, axis=1)
                return DenseMatrix(self.ctx, self.nrows, len(idx), _gf2_pack(bits))
            rows = []
            for r in self._d:
                acc = 0
                for jj, j in enumerate(idx):
                    if (r >> j) & 1:
                        acc |= 1 << jj
                rows.append(acc)
            return DenseMatrix(self.ctx, self.nrows, len(idx), rows)
        if self.ctx.kind == GFP:
            if not idx:
                return DenseMatrix.zeros(self.ctx, self.nrows, 0)
            return DenseMatrix(self.ctx, self.nrows, len(idx), self._d[:, idx].copy())
        return DenseMatrix(
            self.ctx, self.nrows, len(idx), [[row[j] for j in idx] for row in self._d]
        )

    def set_block(self, r0: int, c0: int, m: "DenseMatrix"):
        if self.ctx.kind == GF2:
            mask = _gf2_mask(m.ncols) << c0
            for i in range(m.nrows):
                self._d[r0 + i] = (self._d[r0 + i] & ~mask) | (m._d[i] << c0)
        elif self.ctx.kind == GFP:
            self._d[r0 : r0 + m.nrows, c0 : c0 + m.ncols] = m._d
        else:
            for i in range(m.nrows):
                self._d[r0 + i][c0 : c0 + m.ncols] = list(m._d[i])

    def pad(self, nrows: int, ncols: int) -> "DenseMatrix":
        out = DenseMatrix.zeros(self.ctx, nrows, ncols)
        out.set_block(0, 0, self)
        return out

    # -- elementwise ------------------------------------------------------

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        self._binop_check(other)
        ctx = self.ctx
        if ctx.kind == GF2:
            ctx.count_ops(add=self.nrows * packed_ops(self.ncols))
            rows = [a ^ b for a, b in zip(self._d, other._d)]
            return DenseMatrix(ctx, self.nrows, self.ncols, rows)
        ctx.count_ops(add=self.nrows * self.ncols)
        if ctx.kind == GFP:
            return DenseMatrix(
                ctx, self.nrows, self.ncols, (self._d + other._d) % ctx.p
            )
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._d, other._d)]
        return DenseMatrix(ctx, self.nrows, self.ncols, rows)

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        self._binop_check(other)
        ctx = self.ctx
        if ctx.kind == GF2:
            ctx.count_ops(add=self.nrows * packed_ops(self.ncols))
            rows = [a ^ b for a, b in zip(self._d, other._d)]
            return DenseMatrix(ctx, self.nrows, self.ncols, rows)
        ctx.count_ops(add=self.nrows * self.ncols)
        if ctx.kind == GFP:
            return DenseMatrix(
                ctx, self.nrows, self.ncols, (self._d - other._d) % ctx.p
            )
        rows = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._d, other._d)]
        return DenseMatrix(ctx, self.nrows, self.ncols, rows)

    def neg(self) -> "DenseMatrix":
        ctx = self.ctx
        if ctx.kind == GF2:
            return self.copy()
        ctx.count_ops(add=self.nrows * self.ncols)
        if ctx.kind == GFP:
            return DenseMatrix(ctx, self.nrows, self.ncols, (-self._d) % ctx.p)
        rows = [[-a for a in row] for row in self._d]
        return DenseMatrix(ctx, self.nrows, self.ncols, rows)

    def scale(self, c) -> "DenseMatrix":
        ctx = self.ctx
        if ctx.kind == GF2:
            if c & 1:
                return self.copy()
            return DenseMatrix.zeros(ctx, self.nrows, self.ncols)
        ctx.count_ops(mul=self.nrows * self.ncols)
        if ctx.kind == GFP:
            return DenseMatrix(ctx, self.nrows, self.ncols, (self._d * c) % ctx.p)
        rows = [[a * c for a in row] for row in self._d]
        return DenseMatrix(ctx, self.nrows, self.ncols, rows)

    def scale_rows(self, factors) -> "DenseMatrix":
        """New matrix with row i multiplied by factors[i]."""
        ctx = self.ctx
        if ctx.kind == GF2:
            rows = [r if f & 1 else 0 for r, f in zip(self._d, factors)]
            return DenseMatrix(ctx, self.nrows, self.ncols, rows)
        ctx.count_ops(mul=self.nrows * self.ncols)
        if ctx.kind == GFP:
            f = np.array(list(factors), dtype=np.int64).reshape(-1, 1)
            return DenseMatrix(ctx, self.nrows, self.ncols, (self._d * f) % ctx.p)
        rows = [[a * f for a in row] for row, f in zip(self._d, factors)]
        return DenseMatrix(ctx, self.nrows, self.ncols, rows)

    def conj_transpose(self) -> "DenseMatrix":
        ctx = self.ctx
        if ctx.kind == GF2:
            if self.nrows * self.ncols > _GF2_BIT_LOOP_MAX:
                bits = _gf2_unpack(self._d, self.ncols)
                cols = _gf2_pack(np.ascontiguousarray(bits.T))
                return DenseMatrix(ctx, self.ncols, self.nrows, cols)
            cols = [0] * self.ncols
            for i, row in enumerate(self._d):
                r = row
                bit = 1 << i
                while r:
                    lsb = r & -r
                    cols[lsb.bit_length() - 1] |= bit
                    r ^= lsb
            return DenseMatrix(ctx, self.ncols, self.nrows, cols)
        if ctx.kind == GFP:
            return DenseMatrix(ctx, self.ncols, self.nrows, self._d.T.copy())
        rows = [[self._d[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return DenseMatrix(ctx, self.ncols, self.nrows, rows)

    def _binop_check(self, other: "DenseMatrix"):
        if self.ctx != other.ctx:
            raise DimensionMismatch("mixed field contexts")
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape {self.shape} vs {other.shape}")


def hstack(blocks) -> DenseMatrix:
    blocks = [b for b in blocks]
    ctx = blocks[0].ctx
    nrows = blocks[0].nrows
    ncols = sum(b.ncols for b in blocks)
    out = DenseMatrix.zeros(ctx, nrows, ncols)
    c = 0
    for b in blocks:
        if b.nrows != nrows:
            raise DimensionMismatch("hstack row mismatch")
        out.set_block(0, c, b)
        c += b.ncols
    return out


def vstack(blocks) -> DenseMatrix:
    blocks = [b for b in blocks]
    ctx = blocks[0].ctx
    ncols = blocks[0].ncols
    nrows = sum(b.nrows for b in blocks)
    out = DenseMatrix.zeros(ctx, nrows, ncols)
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


def default_cutoff(ctx: FieldContext) -> int:
    return DEFAULT_CUTOFF_GF2 if ctx.kind == GF2 else DEFAULT_CUTOFF_SCALAR


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
        cutoff = default_cutoff(a.ctx)
    return _mm(a, b, cutoff)


def _mm(a: DenseMatrix, b: DenseMatrix, cutoff: int) -> DenseMatrix:
    m, k, n = a.nrows, a.ncols, b.ncols
    if min(m, k, n) == 0:
        return DenseMatrix.zeros(a.ctx, m, n)
    if min(m, k, n) <= cutoff:
        return _mm_classical(a, b)
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
    out = DenseMatrix.zeros(a.ctx, m, n)
    out.set_block(0, 0, c11)
    out.set_block(0, nh, c12)
    out.set_block(mh, 0, c21)
    out.set_block(mh, nh, c22)
    return out


def _mm_classical(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    ctx = a.ctx
    m, k, n = a.nrows, a.ncols, b.ncols
    if ctx.kind == GF2:
        brows = b._d
        rows = []
        used = 0
        for r in a._d:
            acc = 0
            rr = r
            while rr:
                lsb = rr & -rr
                acc ^= brows[lsb.bit_length() - 1]
                rr ^= lsb
                used += 1
            rows.append(acc)
        w = packed_ops(n)
        ctx.count_ops(add=used * w, mul=used * w)
        return DenseMatrix(ctx, m, n, rows)
    ctx.count_ops(mul=m * k * n, add=m * n * (k - 1) if k >= 1 else 0)
    if ctx.kind == GFP:
        p = ctx.p
        # Chunk the inner dimension so int64 accumulation cannot overflow.
        chunk = max(1, (1 << 62) // ((p - 1) * (p - 1) + 1))
        if k <= chunk:
            return DenseMatrix(ctx, m, n, (a._d @ b._d) % p)
        acc = np.zeros((m, n), dtype=np.int64)
        for k0 in range(0, k, chunk):
            k1 = min(k, k0 + chunk)
            acc = (acc + a._d[:, k0:k1] @ b._d[k0:k1, :]) % p
        return DenseMatrix(ctx, m, n, acc)
    arows, bcols, big = _rational_operands(a, b)
    if big == 1:
        rows = [[_ratio(sum(map(mul, ar, bc))) for bc in bcols] for ar in arows]
    else:
        rows = [[_ratio(sum(map(mul, ar, bc)), big) for bc in bcols] for ar in arows]
    return DenseMatrix(ctx, m, n, rows)


def _rational_operands(a: DenseMatrix, b: DenseMatrix):
    """(rows, cols, V): integer rows of a and columns of b such that entry
    (i, j) of a @ b is the dot product of rows[i] and cols[j] over V.

    Column t of a is cleared by its denominator alpha_t and row t of b by
    beta_t; with V = lcm_t(alpha_t beta_t), row i of a is scaled to
    a_it V / beta_t and column j of b to b_tj beta_t.  Denominators per
    inner index stay small where those of whole rows of a factor do not,
    and only one operand carries the large V.
    """
    k = a.ncols
    alpha = [1] * k
    for arow in a._d:
        for t, x in enumerate(arow):
            if x.denominator != 1:
                alpha[t] = lcm(alpha[t], x.denominator)
    beta = [1] * k
    for t, brow in enumerate(b._d):
        for y in brow:
            if y.denominator != 1:
                beta[t] = lcm(beta[t], y.denominator)
    big = 1
    for al, be in zip(alpha, beta):
        big = lcm(big, al * be)
    scale = [big // be for be in beta]
    arows = [[x.numerator * (s // x.denominator) for x, s in zip(row, scale)] for row in a._d]
    bcols = [
        [y.numerator * (be // y.denominator) for y, be in zip(col, beta)] for col in zip(*b._d)
    ]
    return arows, bcols, big


# -- triangular kernels ------------------------------------------------------

_TRI_BASE = 16


def _is_lower(shape: str) -> bool:
    return shape in (LOWER, LOWER_UNIT)


def _is_unit(shape: str) -> bool:
    return shape in (LOWER_UNIT, UPPER_UNIT)


def tri_invert(l: DenseMatrix, shape: str, cutoff: int | None = None) -> DenseMatrix:
    """Exact inverse of a triangular matrix of the stated shape."""
    check_cutoff(cutoff)
    n = l.nrows
    if l.ncols != n:
        raise DimensionMismatch("triangular inverse needs a square matrix")
    if n <= _TRI_BASE:
        return _tri_invert_base(l, shape)
    h = n // 2
    if _is_lower(shape):
        l11, l21, l22 = l.block(0, h, 0, h), l.block(h, n, 0, h), l.block(h, n, h, n)
        i11 = tri_invert(l11, shape, cutoff)
        i22 = tri_invert(l22, shape, cutoff)
        x21 = matmul(i22, matmul(l21, i11, cutoff), cutoff).neg()
        out = DenseMatrix.zeros(l.ctx, n, n)
        out.set_block(0, 0, i11)
        out.set_block(h, 0, x21)
        out.set_block(h, h, i22)
        return out
    u11, u12, u22 = l.block(0, h, 0, h), l.block(0, h, h, n), l.block(h, n, h, n)
    i11 = tri_invert(u11, shape, cutoff)
    i22 = tri_invert(u22, shape, cutoff)
    x12 = matmul(i11, matmul(u12, i22, cutoff), cutoff).neg()
    out = DenseMatrix.zeros(l.ctx, n, n)
    out.set_block(0, 0, i11)
    out.set_block(0, h, x12)
    out.set_block(h, h, i22)
    return out


def _tri_invert_base(l: DenseMatrix, shape: str) -> DenseMatrix:
    ctx = l.ctx
    n = l.nrows
    lower = _is_lower(shape)
    unit = _is_unit(shape)
    dinv = []
    for i in range(n):
        d = l.get(i, i)
        if ctx.is_zero(d):
            raise SingularDiagonal(i)
        dinv.append(ctx.one if unit else ctx.inv(d))
    out = DenseMatrix.zeros(ctx, n, n)
    order = range(n) if lower else range(n - 1, -1, -1)
    for j in range(n):
        # solve l x = e_j by substitution
        x = [ctx.zero] * n
        x[j] = dinv[j]
        for i in order:
            if (lower and i <= j) or (not lower and i >= j):
                continue
            s = ctx.zero
            rng = range(j, i) if lower else range(i + 1, j + 1)
            for t in rng:
                if not ctx.is_zero(x[t]):
                    s = ctx.add(s, ctx.mul(l.get(i, t), x[t]))
            if not ctx.is_zero(s):
                x[i] = ctx.mul(ctx.neg(s), dinv[i])
        for i in range(n):
            if not ctx.is_zero(x[i]):
                out.set(i, j, x[i])
    return out


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
    h = n // 2
    lower = _is_lower(shape)
    if side == LEFT:
        if lower:
            l11, l21, l22 = l.block(0, h, 0, h), l.block(h, n, 0, h), l.block(h, n, h, n)
            x1 = tri_solve(l11, b.block(0, h, 0, b.ncols), side, shape, cutoff)
            x2 = tri_solve(
                l22,
                b.block(h, n, 0, b.ncols).sub(matmul(l21, x1, cutoff)),
                side,
                shape,
                cutoff,
            )
            return vstack([x1, x2])
        u11, u12, u22 = l.block(0, h, 0, h), l.block(0, h, h, n), l.block(h, n, h, n)
        x2 = tri_solve(u22, b.block(h, n, 0, b.ncols), side, shape, cutoff)
        x1 = tri_solve(
            u11,
            b.block(0, h, 0, b.ncols).sub(matmul(u12, x2, cutoff)),
            side,
            shape,
            cutoff,
        )
        return vstack([x1, x2])
    if lower:
        l11, l21, l22 = l.block(0, h, 0, h), l.block(h, n, 0, h), l.block(h, n, h, n)
        x2 = tri_solve(l22, b.block(0, b.nrows, h, n), side, shape, cutoff)
        x1 = tri_solve(
            l11,
            b.block(0, b.nrows, 0, h).sub(matmul(x2, l21, cutoff)),
            side,
            shape,
            cutoff,
        )
        return hstack([x1, x2])
    u11, u12, u22 = l.block(0, h, 0, h), l.block(0, h, h, n), l.block(h, n, h, n)
    x1 = tri_solve(u11, b.block(0, b.nrows, 0, h), side, shape, cutoff)
    x2 = tri_solve(
        u22,
        b.block(0, b.nrows, h, n).sub(matmul(x1, u12, cutoff)),
        side,
        shape,
        cutoff,
    )
    return hstack([x1, x2])


def _tri_solve_base(l: DenseMatrix, b: DenseMatrix, side: str, shape: str) -> DenseMatrix:
    ctx = l.ctx
    n = l.nrows
    unit = _is_unit(shape)
    dinv = []
    for i in range(n):
        d = l.get(i, i)
        if ctx.is_zero(d):
            raise SingularDiagonal(i)
        dinv.append(ctx.one if unit else ctx.inv(d))
    # l X = b is solved along each column of b and X l = b along each row:
    # unknown i is b's entry minus coef[i][t] times each solved unknown t it
    # couples to, times dinv[i].  That is one add and one mul per coupling
    # and right-hand side.
    forward = _is_lower(shape) == (side == LEFT)
    order = range(n) if forward else range(n - 1, -1, -1)
    nv = b.ncols if side == LEFT else b.nrows
    out = b.copy()
    if nv == 0:
        return out
    if ctx.kind == GF2:
        coef = l._d if side == LEFT else l.conj_transpose()._d
        masks = [
            coef[i] & ((1 << i) - 1) if forward else coef[i] >> (i + 1) << (i + 1)
            for i in range(n)
        ]
        nnz = sum(mask.bit_count() for mask in masks)
        ctx.count_ops(add=nnz * nv, mul=(nnz if unit else nnz + n) * nv)
        x = out._d
        if side == LEFT:  # packed rows of X, one XOR per coupling
            for i in order:
                acc = x[i]
                mask = masks[i]
                while mask:
                    lsb = mask & -mask
                    acc ^= x[lsb.bit_length() - 1]
                    mask ^= lsb
                x[i] = acc
        else:  # each packed row of X: bit i flips on odd parity
            for r, row in enumerate(x):
                for i in order:
                    if (row & masks[i]).bit_count() & 1:
                        row ^= 1 << i
                x[r] = row
        return out
    lrows = l.to_lists()
    coef = lrows if side == LEFT else [list(col) for col in zip(*lrows)]
    deps = [
        [t for t in (range(i) if forward else range(i + 1, n)) if coef[i][t] != 0]
        for i in range(n)
    ]
    nnz = sum(map(len, deps))
    ctx.count_ops(add=nnz * nv, mul=(nnz if unit else nnz + n) * nv)
    if ctx.kind == GFP:
        # Whole numpy rows of X (columns for X l = b).  One row product stays
        # below 2^63 if n (p-1)^2 does; otherwise reduce after every
        # coupling, where c * x < 2^62 always holds.
        p = ctx.p
        x = out._d if side == LEFT else out._d.T
        whole = n * (p - 1) * (p - 1) < 1 << 63
        for i in order:
            ts = deps[i]
            acc = x[i]
            if ts:
                cv = np.array([coef[i][t] for t in ts], dtype=np.int64)
                if whole:
                    acc = (acc - cv @ x[ts]) % p
                else:
                    for c, t in zip(cv, ts):
                        acc = (acc - c * x[t]) % p
            if not unit:
                acc = acc * dinv[i] % p
            x[i] = acc
        return out
    cfs = [[coef[i][t] for t in ts] for i, ts in enumerate(deps)]
    rows = out._d
    vecs = [list(col) for col in zip(*rows)] if side == LEFT else rows
    _solve_rational(vecs, order, deps, cfs, None if unit else dinv)
    if side == LEFT:
        rows[:] = [list(row) for row in zip(*vecs)]
    return out


def _solve_rational(vecs, order, deps, cfs, dinv):
    """Substitution over Q, in place on each vector: the solved entries are
    kept as integers over one common denominator, and each coupling row is
    cleared to integers over its own."""
    cleared = []
    for vals in cfs:
        delta = 1
        for v in vals:
            if v.denominator != 1:
                delta = lcm(delta, v.denominator)
        cleared.append(([v.numerator * (delta // v.denominator) for v in vals], delta))
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
