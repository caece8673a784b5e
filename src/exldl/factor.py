"""Rank-revealing dense factorizations over an exact field.

Provides the symmetric elimination primitives (vertex and edge
elimination), a recursive rank-revealing LU with row and column
pivoting, a recursive LDL with symmetric pivoting that reduces to
matrix multiplication, and inertia extraction from the block diagonal.

The LU splits the rows in half until a block is short enough that every
triangular solve below it would be a base case and every product a
classical one; such a block is eliminated row by row instead.  That
gives the same pivots, hence the same (unique) L and U, and it charges
the op counter exactly what the recursion's kernels would have metered,
so results and counts do not depend on where the recursion stops.

Conventions: an LDL result satisfies, entrywise and exactly,
    A[P.fwd[i]][P.fwd[j]] == (L D L^H)[i][j]
with L unit-diagonal lower-trapezoidal (n x r, reduced form) and D a
list of 1x1 blocks and antidiagonal 2x2 blocks.  An LU result satisfies
    A[P.fwd[i]][Q.fwd[j]] == (L U)[i][j]
with the first r entries of P.fwd strictly increasing (pivot rows keep
their original relative order) and U upper-trapezoidal with nonzero
diagonal.  Pivot tie-breaking is always lowest-index-first, so results
are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dense import (
    _TRI_BASE,
    LEFT,
    LOWER_UNIT,
    RIGHT,
    UPPER,
    DenseMatrix,
    Permutation,
    check_cutoff,
    compose,
    hstack,
    matmul,
    permute,
    tri_solve,
    vstack,
)
from .fields import (
    FieldContext,
    InternalInvariantViolation,
    SingularPivot,
    UnorderedField,
    ZeroPivot,
)

SCALAR = "scalar"
ANTIDIAG = "antidiag"


@dataclass(frozen=True)
class DBlock:
    """1x1 block Scalar(d) or 2x2 antidiagonal block with a21 = conj(a12)."""

    kind: str
    d: object = None
    a12: object = None
    a21: object = None

    @classmethod
    def scalar(cls, d) -> "DBlock":
        if d == 0:
            raise ValueError("scalar D block must be nonzero")
        return cls(SCALAR, d=d)

    @classmethod
    def antidiag(cls, a12, a21) -> "DBlock":
        if a12 == 0 or a21 == 0:
            raise ValueError("antidiagonal D block entries must be nonzero")
        return cls(ANTIDIAG, a12=a12, a21=a21)

    @property
    def size(self) -> int:
        return 1 if self.kind == SCALAR else 2


def d_size(blocks) -> int:
    return sum(b.size for b in blocks)


def d_dense(ctx: FieldContext, blocks) -> DenseMatrix:
    r = d_size(blocks)
    out = DenseMatrix.zeros(ctx, r, r)
    off = 0
    for b in blocks:
        if b.kind == SCALAR:
            out.set(off, off, b.d)
        else:
            out.set(off, off + 1, b.a12)
            out.set(off + 1, off, b.a21)
        off += b.size
    return out


def d_inverse(ctx: FieldContext, blocks):
    out = []
    for b in blocks:
        if b.kind == SCALAR:
            out.append(DBlock.scalar(ctx.inv(b.d)))
        else:
            out.append(DBlock.antidiag(ctx.inv(b.a21), ctx.inv(b.a12)))
    return out


def d_mul_left(blocks, m: DenseMatrix) -> DenseMatrix:
    """D @ m for block-diagonal D."""
    order = []
    factors = []
    off = 0
    for b in blocks:
        if b.kind == SCALAR:
            order.append(off)
            factors.append(b.d)
        else:
            order.append(off + 1)
            factors.append(b.a12)
            order.append(off)
            factors.append(b.a21)
        off += b.size
    if off != m.nrows:
        raise ValueError("D size does not match matrix rows")
    return m.take_rows(order).scale_rows(factors)


def d_solve_left(blocks, m: DenseMatrix) -> DenseMatrix:
    return d_mul_left(d_inverse(m.ctx, blocks), m)


def d_mul_right(m: DenseMatrix, blocks) -> DenseMatrix:
    # m @ D = (D^H m^H)^H and D^H = D for legal blocks.
    return d_mul_left(blocks, m.conj_transpose()).conj_transpose()


def d_solve_right(m: DenseMatrix, blocks) -> DenseMatrix:
    return d_mul_right(m, d_inverse(m.ctx, blocks))


@dataclass
class LDLResult:
    P: Permutation
    L: DenseMatrix
    D: list
    r: int

    def d_dense(self) -> DenseMatrix:
        return d_dense(self.L.ctx, self.D)


@dataclass
class LUResult:
    P: Permutation
    Q: Permutation
    L: DenseMatrix
    U: DenseMatrix
    r: int


def unreduced_ldl(res: LDLResult, n: int):
    """Pad a reduced LDL back to the square n x n form (L, D as matrices)."""
    ctx = res.L.ctx
    lfull = DenseMatrix.identity(ctx, n)
    lfull.set_block(0, 0, res.L)
    for i in range(res.r):
        lfull.set(i, i, ctx.one)
    dfull = DenseMatrix.zeros(ctx, n, n)
    dfull.set_block(0, 0, res.d_dense())
    return lfull, dfull


# -- elimination primitives ---------------------------------------------------


def vertex_eliminate(a: DenseMatrix, i: int):
    """Rank-1 symmetric elimination pivoting on a nonzero diagonal entry.

    Returns (l, d, s): the full elimination column over the original
    index set (unit at i), the pivot, and the Schur complement over the
    remaining indices in original order.
    """
    ctx = a.ctx
    n = a.nrows
    d = a.get(i, i)
    if ctx.is_zero(d):
        raise ZeroPivot(f"zero diagonal pivot at {i}")
    dinv = ctx.inv(d)
    col = a.block(0, n, i, i + 1)
    l = col.scale(dinv)
    rest = [t for t in range(n) if t != i]
    lr = l.take_rows(rest)
    cr = col.take_rows(rest).conj_transpose()
    s = a.take_rows(rest).take_cols(rest).sub(matmul(lr, cr))
    return l, d, s


@dataclass
class EdgeElimination:
    pivots: tuple  # indices in elimination order
    cols: DenseMatrix  # n x 2 over the original index set, column c unit at pivots[c]
    blocks: list  # one antidiagonal block, or two scalars when a diagonal pivot exists
    s: DenseMatrix  # Schur complement over remaining indices, original order


def edge_eliminate(a: DenseMatrix, i: int, j: int) -> EdgeElimination:
    """Rank-2 symmetric elimination on the pivot pair (i, j).

    A genuinely antidiagonal step needs both diagonal entries zero;
    otherwise the pair is normalized into the equivalent two vertex
    eliminations so antidiagonal D blocks only arise from zero-diagonal
    pivots.
    """
    ctx = a.ctx
    n = a.nrows
    aii, ajj = a.get(i, i), a.get(j, j)
    aij, aji = a.get(i, j), a.get(j, i)
    det = ctx.sub(ctx.mul(aii, ajj), ctx.mul(aij, aji))
    if ctx.is_zero(det):
        raise SingularPivot(f"singular 2x2 pivot at ({i}, {j})")
    if not ctx.is_zero(aii) or not ctx.is_zero(ajj):
        first, second = (i, j) if not ctx.is_zero(aii) else (j, i)
        l1, d1, s1 = vertex_eliminate(a, first)
        rest1 = [t for t in range(n) if t != first]
        k1 = rest1.index(second)
        l2s, d2, s = vertex_eliminate(s1, k1)
        l2 = DenseMatrix.zeros(ctx, n, 1)
        for t, v in zip(rest1, l2s.to_lists()):
            l2.set(t, 0, v[0])
        cols = hstack([l1, l2])
        blocks = [DBlock.scalar(d1), DBlock.scalar(d2)]
        return EdgeElimination((first, second), cols, blocks, s)
    u = a.block(0, n, i, i + 1)
    v = a.block(0, n, j, j + 1)
    c1 = v.scale(ctx.inv(aji))
    c2 = u.scale(ctx.inv(aij))
    rest = [t for t in range(n) if t not in (i, j)]
    ur, vr = u.take_rows(rest), v.take_rows(rest)
    s = a.take_rows(rest).take_cols(rest)
    s = s.sub(matmul(ur.scale(ctx.inv(aji)), vr.conj_transpose()))
    s = s.sub(matmul(vr.scale(ctx.inv(aij)), ur.conj_transpose()))
    return EdgeElimination((i, j), hstack([c1, c2]), [DBlock.antidiag(aij, aji)], s)


# -- base-case LDL ------------------------------------------------------------


def base_ldl(a: DenseMatrix) -> LDLResult:
    """Direct LDL by pivot search: first nonzero diagonal entry, else first
    nonzero sub-diagonal in column-major order."""
    ctx = a.ctx
    n = a.nrows
    cols = []  # per pivot order position, {original index: value}
    blocks = []
    order = []
    ids = list(range(n))
    cur = a
    while ids:
        m = len(ids)
        piv = None
        for t in range(m):
            if not ctx.is_zero(cur.get(t, t)):
                piv = t
                break
        if piv is not None:
            l, d, s = vertex_eliminate(cur, piv)
            cols.append(dict(col_support(l, 0, range(m), ids)))
            blocks.append(DBlock.scalar(d))
            order.append(ids[piv])
            ids = ids[:piv] + ids[piv + 1 :]
            cur = s
            continue
        pair = None
        for jj in range(m):
            for ii in range(jj + 1, m):
                if not ctx.is_zero(cur.get(ii, jj)):
                    pair = (jj, ii)
                    break
            if pair:
                break
        if pair is None:
            break  # zero matrix; remaining indices are rank-deficient
        jj, ii = pair
        ee = edge_eliminate(cur, jj, ii)
        cols += [dict(col_support(ee.cols, c, range(m), ids)) for c in (0, 1)]
        blocks.extend(ee.blocks)
        order.extend(ids[t] for t in ee.pivots)
        ids = [ids[t] for t in range(m) if t not in (jj, ii)]
        cur = ee.s
    return _ldl_from_columns(ctx, order + ids, cols, blocks)


def col_support(m: DenseMatrix, c: int, rows, ids) -> tuple:
    """The pairs (ids[t], m[t][c]) over t in `rows` with a nonzero entry."""
    ctx = m.ctx
    out = []
    for t in rows:
        v = m.get(t, c)
        if not ctx.is_zero(v):
            out.append((ids[t], v))
    return tuple(out)


def _ldl_from_columns(ctx: FieldContext, fwd, cols, blocks) -> LDLResult:
    """Reduced LDL whose column k holds cols[k] ({index: value}), the
    indices placed by the order fwd."""
    pos = {v: t for t, v in enumerate(fwd)}
    l = DenseMatrix.zeros(ctx, len(fwd), len(cols))
    for k, col in enumerate(cols):
        for idx, val in col.items():
            l.set(pos[idx], k, val)
    return LDLResult(Permutation(fwd), l, blocks, len(cols))


# -- fast LU -------------------------------------------------------------------


def fast_lu(a: DenseMatrix, cutoff: int | None = None) -> LUResult:
    """Rank-revealing P A Q^T = L U by recursive row splitting.

    The top half of the rows is factored first; the bottom half is
    reduced against its pivots with one triangular solve and one product,
    and the rest is factored in turn.  Once a block has at most
    `_TRI_BASE` rows and its bottom half is within the Strassen cutoff,
    `_lu_rows` finishes it row by row: every solve below that point is a
    base-case solve and every product a classical one, so `_lu_rows`
    gives the same factors and meters the same op counts.
    """
    m, n = a.nrows, a.ncols
    check_cutoff(cutoff)
    if cutoff is None:
        cutoff = a.ctx.default_cutoff
    # A single row needs no solve or product, whatever the cutoff.
    if m <= 1 or (m <= _TRI_BASE and (m + 1) // 2 <= cutoff):
        return _lu_rows(a)
    ctx = a.ctx
    m1 = m // 2
    top = fast_lu(a.block(0, m1, 0, n), cutoff)
    r1 = top.r
    a2q = a.block(m1, m, 0, n).take_cols(top.Q.fwd)
    u1a = top.U.block(0, r1, 0, r1)
    b1 = tri_solve(u1a, a2q.block(0, m - m1, 0, r1), RIGHT, UPPER, cutoff)
    b2 = a2q.block(0, m - m1, r1, n).sub(matmul(b1, top.U.block(0, r1, r1, n), cutoff))
    bot = fast_lu(b2, cutoff)
    r2 = bot.r
    pfwd = (
        [top.P.fwd[t] for t in range(r1)]
        + [m1 + bot.P.fwd[t] for t in range(m - m1)]
        + [top.P.fwd[t] for t in range(r1, m1)]
    )
    qfwd = [top.Q.fwd[j] for j in range(r1)] + [
        top.Q.fwd[r1 + bot.Q.fwd[j]] for j in range(n - r1)
    ]
    b1p = b1.take_rows(bot.P.fwd)
    lmid = hstack([b1p, bot.L])
    ltop = hstack([top.L.block(0, r1, 0, r1), DenseMatrix.zeros(ctx, r1, r2)])
    lbot = hstack(
        [top.L.block(r1, m1, 0, r1), DenseMatrix.zeros(ctx, m1 - r1, r2)]
    )
    l = vstack([ltop, lmid, lbot])
    # Pivot rows stay first in original order; sort the pivoted-out rows back
    # into original order as well (their L rows carry no shape constraint).
    r = r1 + r2
    sigma = list(range(r)) + sorted(range(r, m), key=lambda t: pfwd[t])
    pfwd = [pfwd[t] for t in sigma]
    l = l.take_rows(sigma)
    utop = hstack([u1a, top.U.block(0, r1, r1, n).take_cols(bot.Q.fwd)])
    ubot = hstack([DenseMatrix.zeros(ctx, r2, r1), bot.U])
    u = vstack([utop, ubot])
    return LUResult(Permutation(pfwd), Permutation(qfwd), l, u, r)


def _lu_rows(a: DenseMatrix) -> LUResult:
    """fast_lu of a short matrix, eliminating its rows one by one.

    Row i is reduced against the pivots found so far, in order.  If
    anything is left, its first nonzero entry in the current column order
    is swapped into column r and row i becomes pivot r.  Splitting the
    rows keeps their order, so these are the pivot rows and the Q of the
    row-splitting recursion, and P lists the pivot rows and then the
    others, each ascending, as the recursion does.  With P, Q and r fixed
    the unit lower L and the upper U are unique: they are the recursion's
    too.  The elimination itself is the field's `eliminate_rows`.  With a
    counter on, the ops the recursion would meter are charged by
    `_charge_row_splitting`.
    """
    ctx = a.ctx
    m = a.nrows
    piv, q, l, u = a.eliminate_rows()
    pivots = set(piv)
    if ctx.counter is not None:
        _charge_row_splitting(ctx, m, a.ncols, pivots, u.nonzero_masks(), l.nonzero_masks())
    order = piv + [i for i in range(m) if i not in pivots]
    return LUResult(Permutation(order), Permutation(q), l.take_rows(order), u, len(piv))


def _charge_row_splitting(ctx: FieldContext, m: int, n: int, pivots, upper, lower):
    """Charge the ops fast_lu's row-splitting recursion meters on m rows.

    The split of rows lo..hi at mid = lo + (hi - lo) // 2, whose top half
    holds pivots o..o + r1, makes a base-case `tri_solve` against
    U[o:o + r1, o:o + r1], a classical product of the nb = hi - mid bottom
    rows' multipliers of those pivots with their k = n - o - r1 trailing
    columns, and a `sub`; each is charged by its kernel's formula.
    upper[t] has bit c set when U[t][c] != 0, and lower[i] bit s when
    row i's multiplier of pivot s is nonzero.
    """
    prefix = [0]
    for i in range(m):
        prefix.append(prefix[-1] + (i in pivots))
    add = mul = inv = 0
    stack = [(0, m)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        mid = lo + (hi - lo) // 2
        stack += [(lo, mid), (mid, hi)]
        o, nb = prefix[lo], hi - mid
        r1 = prefix[mid] - o
        k = n - o - r1
        band = ((1 << r1) - 1) << o
        nnz = sum(((upper[t] & band) >> (t + 1)).bit_count() for t in range(o, o + r1))
        inv += r1
        add += nnz * nb
        mul += (nnz + r1) * nb
        if r1 and k:
            used = sum((lower[i] & band).bit_count() for i in range(mid, hi))
            ctx.count_product(nb, r1, k, used)
        add += nb * ctx.row_ops(k)
    ctx.count_ops(add=add, mul=mul, inv=inv)


# -- fast LDL ------------------------------------------------------------------


def fast_ldl(a: DenseMatrix, cutoff: int | None = None) -> LDLResult:
    """Rank-revealing P^T A P = L D L^H for an H-symmetric matrix.

    Recursion: factor the leading block of size n - floor(n/3), move its
    full-rank part first, take the Schur complement, and either recurse
    on it directly or (when the leading block is rank-deficient) bring
    the independent columns of its off-diagonal block forward with an LU
    before recursing on the bordered core.
    """
    ctx = a.ctx
    n = a.nrows
    if a.ncols != n:
        raise ValueError("LDL needs a square matrix")
    check_cutoff(cutoff)
    if n <= 3:
        return base_ldl(a)
    s = n // 3
    n1 = n - s
    top = fast_ldl(a.block(0, n1, 0, n1), cutoff)
    r1 = top.r
    ord1 = (
        [top.P.fwd[t] for t in range(r1)]
        + list(range(n1, n))
        + [top.P.fwd[t] for t in range(r1, n1)]
    )
    pt1 = Permutation(ord1)
    at = permute(a, pt1, pt1)
    l11 = top.L.block(0, r1, 0, r1)
    d1 = top.D
    c = at.block(0, r1, r1, n)
    w = tri_solve(l11, c, LEFT, LOWER_UNIT, cutoff)
    v = d_solve_left(d1, w)
    bmat = at.block(r1, n, r1, n).sub(matmul(w.conj_transpose(), v, cutoff))
    if 3 * r1 >= n:
        res2 = fast_ldl(bmat, cutoff)
        blk = Permutation(list(range(r1)) + [r1 + t for t in res2.P.fwd])
        p = compose(pt1, blk)
        l21 = v.conj_transpose().take_rows(res2.P.fwd)
        l = vstack(
            [
                hstack([l11, DenseMatrix.zeros(ctx, r1, res2.r)]),
                hstack([l21, res2.L]),
            ]
        )
        return LDLResult(p, l, list(d1) + list(res2.D), r1 + res2.r)
    q = n - r1 - s
    b12 = bmat.block(0, s, s, n - r1)
    lu12 = fast_lu(b12, cutoff)
    rb = lu12.r
    pivcols = [lu12.Q.fwd[t] for t in range(rb)]
    tailcols = [lu12.Q.fwd[t] for t in range(rb, q)]
    bsel = b12.take_cols(pivcols)
    dim2 = s + rb
    bt = DenseMatrix.zeros(ctx, dim2, dim2)
    bt.set_block(0, 0, bmat.block(0, s, 0, s))
    bt.set_block(0, s, bsel)
    bt.set_block(s, 0, bsel.conj_transpose())
    res2 = fast_ldl(bt, cutoff)
    r2 = res2.r
    mid = list(range(r1, r1 + s)) + [r1 + s + cidx for cidx in pivcols]
    mid_perm = [mid[res2.P.fwd[t]] for t in range(dim2)]
    ordfinal = list(range(r1)) + mid_perm + [r1 + s + cidx for cidx in tailcols]
    p = compose(pt1, Permutation(ordfinal))
    ahat = permute(a, p, p)
    dim3 = q - rb
    a12h = ahat.block(0, r1, r1, r1 + dim2)
    a13h = ahat.block(0, r1, r1 + dim2, n)
    l21 = d_solve_left(d1, tri_solve(l11, a12h, LEFT, LOWER_UNIT, cutoff)).conj_transpose()
    l31 = d_solve_left(d1, tri_solve(l11, a13h, LEFT, LOWER_UNIT, cutoff)).conj_transpose()
    l22 = res2.L
    lt22 = l22.block(0, r2, 0, r2)
    rblk = ahat.block(r1, r1 + dim2, r1 + dim2, n)
    r2blk = rblk.sub(matmul(d_mul_right(l21, d1), l31.conj_transpose(), cutoff))
    t = tri_solve(lt22, r2blk.block(0, r2, 0, dim3), LEFT, LOWER_UNIT, cutoff)
    t = d_solve_left(res2.D, t)
    l32 = t.conj_transpose()
    check = matmul(d_mul_right(l22.block(r2, dim2, 0, r2), res2.D), t, cutoff)
    if check != r2blk.block(r2, dim2, 0, dim3):
        raise InternalInvariantViolation("inconsistent rows in bordered LDL branch")
    res33 = ahat.block(r1 + dim2, n, r1 + dim2, n)
    res33 = res33.sub(matmul(d_mul_right(l31, d1), l31.conj_transpose(), cutoff))
    res33 = res33.sub(matmul(d_mul_right(l32, res2.D), l32.conj_transpose(), cutoff))
    if not res33.is_zero():
        raise InternalInvariantViolation("nonzero trailing residual in bordered LDL branch")
    r = r1 + r2
    l = vstack(
        [
            hstack([l11, DenseMatrix.zeros(ctx, r1, r2)]),
            hstack([l21, l22]),
            hstack([l31, l32]),
        ]
    )
    return LDLResult(p, l, list(d1) + list(res2.D), r)


# -- natural-order LDL (fill measurements) --------------------------------------


def natural_order_ldl(a: DenseMatrix) -> LDLResult:
    """LDL eliminating indices in their given order (no fill-avoiding pivoting).

    At each step the leading active index is eliminated: by a vertex
    elimination when its diagonal is nonzero, otherwise by an edge
    elimination with the first later index coupled to it.  Indices with
    an entirely zero row are skipped to the tail.
    """
    ctx = a.ctx
    n = a.nrows
    ids = list(range(n))
    cur = a
    order = []
    tail = []
    cols = []
    blocks = []
    while ids:
        m = len(ids)
        if not ctx.is_zero(cur.get(0, 0)):
            l, d, s = vertex_eliminate(cur, 0)
            cols.append(dict(col_support(l, 0, range(m), ids)))
            blocks.append(DBlock.scalar(d))
            order.append(ids[0])
            ids = ids[1:]
            cur = s
            continue
        partner = None
        for t in range(1, m):
            if not ctx.is_zero(cur.get(t, 0)):
                partner = t
                break
        if partner is None:
            tail.append(ids[0])
            ids = ids[1:]
            rest = list(range(1, m))
            cur = cur.take_rows(rest).take_cols(rest)
            continue
        ee = edge_eliminate(cur, 0, partner)
        cols += [dict(col_support(ee.cols, c, range(m), ids)) for c in (0, 1)]
        blocks.extend(ee.blocks)
        order.extend(ids[t] for t in ee.pivots)
        ids = [ids[t] for t in range(m) if t not in (0, partner)]
        cur = ee.s
    return _ldl_from_columns(ctx, order + tail, cols, blocks)


# -- inertia -------------------------------------------------------------------


def inertia_from_D(blocks, n: int, ctx: FieldContext):
    """(positive, negative, zero) eigenvalue counts read off D; rationals only."""
    if not ctx.is_ordered():
        raise UnorderedField("inertia needs an ordered field")
    pos = neg = 0
    for b in blocks:
        if b.kind == SCALAR:
            if b.d > 0:
                pos += 1
            else:
                neg += 1
        else:
            pos += 1
            neg += 1
    return pos, neg, n - d_size(blocks)
