"""Saddle-point partial LDL via constraint complementation.

A saddle system is the block matrix [[A, B^H], [B, 0]] with H-symmetric
A; the zero block is implicit and never stored.  A partial LDL of it is
the tuple (P, Q, Y, L, U, D, r) with r = rank(B), D a diagonal r-vector,
L unit-diagonal lower-trapezoidal, Y lower-trapezoidal with zero
diagonal, and U upper-trapezoidal with nonzero diagonal, satisfying,
with V = Y - diag(D) on the leading r rows,

    P-permuted A   =  V L^H + L V^H + L D L^H  +  residual,
    Q,P-permuted B =  U^H L^H,

where the residual is nonzero only in its trailing (n-r) x (n-r) block.
Two constructions are provided: direct cross-boundary edge elimination
(one constraint pivot at a time, on the `schur()` working copy of the
saddle matrix that `factor`'s eliminations use) and the LU-based
null-space route in the style of Schilders' factorization.  Both verify
against the same oracle and complete to a full LDL of the whole (n+m)
system.  `eliminate_pair` (a pair's two row pivots) and `skeleton_pair`
(a pair's skeleton as LDL columns over the caller's ids) are shared
with the tree engine's bag step in `sparse`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dense import (
    LEFT,
    LOWER_UNIT,
    RIGHT,
    UPPER_UNIT,
    DenseMatrix,
    Permutation,
    matmul,
    permute,
    tri_solve,
    vstack,
)
from .factor import (
    DBlock,
    LDLResult,
    _from_columns,
    _ldl_from_columns,
    col_support,
    fast_ldl,
    fast_lu,
)
from .fields import DimensionMismatch, ResidualLeakage, ZeroB11


@dataclass
class SaddleSystem:
    A: DenseMatrix
    B: DenseMatrix

    def __post_init__(self):
        if self.A.nrows != self.A.ncols:
            raise DimensionMismatch("A block must be square")
        if self.B.ncols != self.A.nrows:
            raise DimensionMismatch("B block must have as many columns as A")
        if self.A.ctx != self.B.ctx:
            raise DimensionMismatch("mixed field contexts")
        if self.A != self.A.conj_transpose():
            raise ValueError("A block must be H-symmetric")

    @property
    def n(self) -> int:
        return self.A.nrows

    @property
    def m(self) -> int:
        return self.B.nrows

    def dense(self) -> DenseMatrix:
        """Materialize the full (n+m) saddle matrix: the matrix whose
        `schur()` copy `gamma_eliminate_partial` pivots on, and the one a
        completed LDL is checked against."""
        ctx = self.A.ctx
        n, m = self.n, self.m
        out = DenseMatrix.zeros(ctx, n + m, n + m)
        out.set_block(0, 0, self.A)
        out.set_block(0, n, self.B.conj_transpose())
        out.set_block(n, 0, self.B)
        return out


@dataclass
class PartialLDL:
    P: Permutation  # n
    Q: Permutation  # m
    Y: DenseMatrix  # n x r, lower-trapezoidal, zero diagonal
    L: DenseMatrix  # n x r, lower-trapezoidal, unit diagonal
    U: DenseMatrix  # r x m, upper-trapezoidal, nonzero diagonal
    D: list  # diagonal r-vector
    r: int


def gamma_eliminate_partial(system: SaddleSystem) -> PartialLDL:
    """Partial LDL by repeated cross-boundary edge elimination.

    Each step pivots on the first nonzero b11 = B[bi][aj] of the current
    constraint block in row-major order and eliminates the pair (aj, bi)
    from the `schur()` working copy of the saddle matrix, the one the
    pivots of `factor` use.  D = -a11, Y's column (column aj of A below
    the pivot) and U's row (column aj of B) are read first.  Then
    `eliminate_pair` makes the pair's two row pivots, on S[bi][aj] and on
    S[aj][bi], both b11, the rank-2 Schur complement of the pivot pair,
    which keeps the constraint block zero; the second pivot's multipliers
    are L's column.  With a counter on, each step charges what the scalar rank-2
    update meters over the na A and nb constraint indices active before
    it: 3 na^2 + nf na adds, 6 na^2 + nf na + nb + nr + 2 muls and two
    inversions, where B's column aj has nf nonzeros and its row bi nr,
    besides the negation of a11.
    """
    ctx = system.A.ctx
    n, m = system.n, system.m
    s = system.dense().schur()
    act_a, act_b = list(range(n)), list(range(m))
    piv_a, piv_b, dvals, ycols, lcols, ucols = [], [], [], [], [], []
    while True:
        pivot = next(
            ((bi, j) for bi in act_b if (j := s.first(n + bi, act_a, 0)) is not None), None
        )
        if pivot is None:
            break
        bi, j = pivot
        na, nb = len(act_a), len(act_b)
        aj = act_a.pop(j)
        act_b.remove(bi)
        piv_a.append(aj)
        piv_b.append(bi)
        dvals.append(ctx.neg(s.get(aj, aj)))
        ycols.append({u: s.get(u, aj) for u in act_a if s.nonzero(u, aj)})
        ucols.append({v: s.get(n + v, aj) for v in [bi, *act_b] if s.nonzero(n + v, aj)})
        mult = eliminate_pair(s, aj, n + bi, act_a, [n + v for v in act_b])
        lcols.append({aj: ctx.one, **mult})
        nf, nr = len(ucols[-1]), len(lcols[-1])
        ctx.count_ops(add=3 * na * na + nf * na, mul=6 * na * na + nf * na + nb + nr + 2, inv=2)
    pfwd, qfwd = piv_a + act_a, piv_b + act_b
    y, l = _from_columns(ctx, pfwd, ycols), _from_columns(ctx, pfwd, lcols)
    u = _from_columns(ctx, qfwd, ucols).conj_transpose()
    return PartialLDL(Permutation(pfwd), Permutation(qfwd), y, l, u, dvals, len(piv_a))


def eliminate_pair(s, a: int, b: int, rows_a, rows_b) -> dict:
    """Eliminate the pair of A index a and constraint index b, whose entry
    S[b][a] is nonzero, from the working copy s as two row pivots: on
    S[b][a] over row a, the A rows rows_a and the constraint rows rows_b
    (row a is included since S[a][a] may be nonzero), which reduces the
    constraint rows by row b and clears column a; then on S[a][b] in row a
    over rows_a.  Together they form the rank-2 Schur complement of the
    pair, which keeps the constraint block zero.  Returns the second
    pivot's multipliers, L's column over rows_a without its unit entry."""
    s.pivot(b, a, [a, *rows_a, *rows_b])
    return s.pivot(a, b, rows_a)


def schilders_partial_ldl(system: SaddleSystem, cutoff: int | None = None) -> PartialLDL:
    """Partial LDL from a rank-revealing LU of B^H (null-space construction).

    The diagonal D is the negation of the diagonal of W = L1^-1 A11 L1^-H,
    computed with two triangular solves, and Y comes from the
    lower-triangular part of W, diagonal included.
    """
    ctx = system.A.ctx
    n = system.n
    lu = fast_lu(system.B.conj_transpose(), cutoff)
    r = lu.r
    ap = permute(system.A, lu.P, lu.P)
    a11 = ap.block(0, r, 0, r)
    a21 = ap.block(r, n, 0, r)
    l1 = lu.L.block(0, r, 0, r)
    l2 = lu.L.block(r, n, 0, r)
    l1h = l1.conj_transpose()
    wa = tri_solve(l1, a11, LEFT, LOWER_UNIT, cutoff)
    w = tri_solve(l1h, wa, RIGHT, UPPER_UNIT, cutoff).to_lists()
    dvals = [ctx.neg(w[i][i]) for i in range(r)]
    wl = [row[: i + 1] + [ctx.zero] * (r - i - 1) for i, row in enumerate(w)]
    lw = matmul(l1, l1.from_entries(ctx, wl, r), cutoff)
    y1 = lw.to_lists()
    for i in range(r):
        y1[i][i] = ctx.add(y1[i][i], dvals[i])
    # Y2 = (A21 - L2 ((Y1^H - D) + D L1^H)) L1^-H, where Y1^H - D = (L1 Wl)^H
    # exactly; the subtraction is metered all the same
    ctx.count_ops(add=r)
    dl1h = l1h.scale_rows(dvals)
    y2 = a21.sub(matmul(l2, lw.conj_transpose().add(dl1h), cutoff))
    y2 = tri_solve(l1h, y2, RIGHT, UPPER_UNIT, cutoff)
    y = vstack([lw.from_entries(ctx, y1, r), y2])
    return PartialLDL(lu.P, lu.Q, y, lu.L, lu.U, dvals, r)


def residual_schur(system: SaddleSystem, f: PartialLDL) -> DenseMatrix:
    """Trailing (n-r) x (n-r) H-symmetric block of the partial-LDL residual.

    Raises ResidualLeakage if the residual has support outside that block.
    """
    ctx = system.A.ctx
    n, r = system.n, f.r
    ap = permute(system.A, f.P, f.P)
    v = f.Y.to_lists()
    for i in range(r):
        v[i][i] = ctx.sub(v[i][i], f.D[i])
    v = f.Y.from_entries(ctx, v, r)
    lh = f.L.conj_transpose()
    resid = ap.sub(matmul(v, lh))
    resid = resid.sub(matmul(f.L, v.conj_transpose()))
    resid = resid.sub(matmul(lh.scale_rows(f.D).conj_transpose(), lh))  # (L D) L^H
    if not (resid.block(0, r, 0, n).is_zero() and resid.block(r, n, 0, r).is_zero()):
        rows = resid.to_lists()
        i, j = next((i, j) for i in range(n) for j in range(n) if (i < r or j < r) and rows[i][j])
        raise ResidualLeakage(f"partial LDL residual leaks at ({i}, {j})")
    return resid.block(r, n, r, n)


def pair_columns(f: PartialLDL, k: int, a_ids, b_ids):
    """Pair k of a partial LDL as LDL columns over the caller's ids.

    a_ids[t] names A row t and b_ids[t] constraint row t of the system
    (before P and Q).  Returns ((A pivot id, constraint pivot id),
    (column 1, column 2), D blocks): each column holds the (id, value)
    pairs of its nonzero entries on the rows still active at step k,
    without the unit entry on its own pivot, and the D blocks are one
    antidiagonal block or two scalar ones (see `skeleton_pair`).

    The skeleton of pair k, in the shifted row order [pivot A, pivot B,
    A rows k+1.., constraint rows k+1..], has the columns [-D[k],
    U[k][k], Y[k+1:, k], U[k][k+1:]] and [1, 0, L[k+1:, k], 0...].
    """
    ctx = f.L.ctx
    n, m = f.L.nrows, f.U.ncols
    a11 = ctx.neg(f.D[k])
    urow = f.U.block(k, k + 1, k, m).to_lists()[0]
    k1 = [a11, urow[0]] + f.Y.column(k)[k + 1 :] + urow[1:]
    k2 = [ctx.one, ctx.zero] + f.L.column(k)[k + 1 :] + [ctx.zero] * (m - k - 1)
    pfwd, qfwd = f.P.fwd, f.Q.fwd
    row_ids = (
        [a_ids[pfwd[k]], b_ids[qfwd[k]]]
        + [a_ids[pfwd[t]] for t in range(k + 1, n)]
        + [b_ids[qfwd[t]] for t in range(k + 1, m)]
    )
    return skeleton_pair(ctx, k1, k2, row_ids)


def skeleton_pair(ctx, k1: list, k2: list, row_ids):
    """Convert one constraint pair's rank-2 elimination skeleton into two
    unit-diagonal LDL columns over the ids row_ids of its rows.

    k1 and k2 are the skeleton's columns as lists in the shifted row order
    [pivot A, pivot B, other A rows..., other B rows...]: k1 holds [a11,
    b11, the A column below the pivot, the current B column] and k2 holds
    [1, 0, the paired elimination column, 0...].  A zero a11 yields one
    antidiagonal D block; otherwise the pair reduces to two scalar blocks
    through the 2x2 factorization of the pivot block.  Returns ((A pivot
    id, constraint pivot id), (column 1, column 2), D blocks); each column
    holds the (id, value) pairs of its nonzero entries, without the unit
    entry on its own pivot.  Metered as the column operations of the
    matrix form."""
    a11, b11 = k1[0], k1[1]
    if ctx.is_zero(b11):
        raise ZeroB11("skeleton conversion needs a nonzero constraint pivot")
    rows = len(k1)
    mul = ctx._mul
    binv = ctx.inv(b11)
    if ctx.is_zero(a11):
        ctx.count_ops(mul=ctx.scale_ops(rows))
        c1, c2, blks = k2, [mul(x, binv) for x in k1], [DBlock.antidiag(b11, b11)]
    else:
        # c2 = (k1 - k2 a11) / b11 and c1 = k2 + c2 b11 / a11
        c2 = [mul(ctx._sub(x, mul(y, a11)), binv) for x, y in zip(k1, k2)]
        beta = ctx.mul(b11, ctx.inv(a11))
        c1 = [ctx._add(y, mul(x, beta)) for x, y in zip(c2, k2)]
        d2 = ctx.neg(ctx.mul(b11, ctx.mul(ctx.inv(a11), b11)))
        ctx.count_ops(mul=ctx.scale_ops(3 * rows), add=2 * rows * ctx.row_ops(1))
        blks = [DBlock.scalar(a11), DBlock.scalar(d2)]
    col1 = tuple((row_ids[t], c1[t]) for t in range(1, rows) if c1[t])
    col2 = tuple((row_ids[t], c2[t]) for t in [0, *range(2, rows)] if c2[t])
    return (row_ids[0], row_ids[1]), (col1, col2), blks


def complete_saddle_ldl(system: SaddleSystem, f: PartialLDL) -> LDLResult:
    """Full LDL of the (n+m) saddle matrix: convert each constraint pair
    through the skeleton form, then append the LDL of the residual Schur
    complement."""
    ctx = system.A.ctx
    n, m, r = system.n, system.m, f.r
    resid = residual_schur(system, f)
    res2 = fast_ldl(resid)
    fwd, cols, blocks = [], [], []
    for k in range(r):
        pivots, pair, blks = pair_columns(f, k, range(n), range(n, n + m))
        fwd.extend(pivots)
        cols.extend({p: ctx.one, **dict(col)} for p, col in zip(pivots, pair))
        blocks.extend(blks)
    tail = [f.P.fwd[r + t] for t in res2.P.fwd]
    cols.extend(dict(col_support(res2.L, c, range(n - r), tail)) for c in range(res2.r))
    blocks.extend(res2.D)
    return _ldl_from_columns(ctx, fwd + tail + [n + f.Q.fwd[t] for t in range(r, m)], cols, blocks)
