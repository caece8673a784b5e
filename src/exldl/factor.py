"""Rank-revealing dense factorizations over an exact field.

Provides the symmetric elimination primitives (vertex and edge
elimination, natural-order LDL), a recursive rank-revealing LU with row
and column pivoting, a recursive LDL with symmetric pivoting that
reduces to matrix multiplication, and inertia extraction from the block
diagonal.  Every symmetric pivot, the primitives' and the LDL's flat
base's, is one `_FlatLDL.step`, which also charges it to the op counter.

Both recursions stop at a block small enough that every triangular solve
below it would be a base case and every product a classical one: the LU
eliminates it row by row on a working copy (`_lu_rows`), the LDL replays
its pivot decisions on one Schur complement (`_ldl_flat`).  Either gives
the recursion's (unique) factors and charges the op counter what the
recursion's kernels would have metered, so results and counts do not
depend on where the recursion stops.

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


# -- elimination primitives ---------------------------------------------------
#
# Every symmetric pivot is one `_FlatLDL.step` on `a.schur()`, the field's
# working copy of a symmetric matrix (see dense.py): a vertex step on one
# nonzero diagonal entry, or a pair, which the step turns into two vertex
# steps (a nonzero diagonal first) or one antidiagonal step.  The step also
# charges each pivot, with a counter on; these primitives only choose it.


def _check_ldl_input(a: DenseMatrix, pivots=()) -> None:
    """Raise ValueError unless a is square and H-symmetric, and IndexError
    for a pivot outside 0..n-1.  Not metered."""
    if a.ncols != a.nrows:
        raise ValueError("LDL needs a square matrix")
    if a != a.conj_transpose():
        raise ValueError("LDL needs an H-symmetric matrix")
    a._indices(pivots, a.nrows, "pivot")


def _step_all(a: DenseMatrix, pair: tuple):
    """`_FlatLDL.step` on pair over all of a's indices: (the pivots in
    order, the L columns over a's indices, the D blocks, the Schur
    complement over the indices left in original order)."""
    ids = list(range(a.nrows))
    flat = _FlatLDL(a.schur(), ids)
    rest, pivots = flat.step(ids, pair)
    return pivots, _from_columns(a.ctx, ids, flat.cols), flat.blocks, flat.schur.block(rest, rest)


def vertex_eliminate(a: DenseMatrix, i: int):
    """Rank-1 symmetric elimination pivoting on a nonzero diagonal entry.

    Returns (l, d, s): the full elimination column over the original
    index set (unit at i), the pivot, and the Schur complement over the
    remaining indices in original order.
    """
    _check_ldl_input(a, (i,))
    if a.ctx.is_zero(a.get(i, i)):
        raise ZeroPivot(f"zero diagonal pivot at {i}")
    _, l, blocks, s = _step_all(a, (i,))
    return l, blocks[0].d, s


@dataclass
class EdgeElimination:
    pivots: tuple  # indices in elimination order
    cols: DenseMatrix  # n x 2 over the original index set, column c unit at pivots[c]
    blocks: list  # one antidiagonal block, or two scalars when a diagonal pivot exists
    s: DenseMatrix  # Schur complement over remaining indices, original order


def edge_eliminate(a: DenseMatrix, i: int, j: int) -> EdgeElimination:
    """Rank-2 symmetric elimination on the pivot pair (i, j), as
    `_FlatLDL.step` takes it: a genuinely antidiagonal step needs both
    diagonal entries zero; otherwise the pair is the equivalent two vertex
    eliminations, the nonzero diagonal first, so antidiagonal D blocks
    only arise from zero-diagonal pivots.  A repeated index, i == j,
    raises ValueError.
    """
    _check_ldl_input(a, (i, j))
    if i == j:
        raise ValueError(f"edge elimination needs two indices, got {i} twice")
    return EdgeElimination(*_step_all(a, (i, j)))


# -- LDL from columns -----------------------------------------------------------


def col_support(m: DenseMatrix, c: int, rows, ids) -> tuple:
    """The pairs (ids[t], m[t][c]) over t in `rows` with a nonzero entry."""
    col = m.column(c)
    return tuple((ids[t], col[t]) for t in rows if col[t])


def _from_columns(ctx: FieldContext, fwd, cols) -> DenseMatrix:
    """The matrix whose column k holds cols[k] ({index: value}), the
    indices placed in rows by the order fwd."""
    pos = {v: t for t, v in enumerate(fwd)}
    r = len(cols)
    rows = [[ctx.zero] * r for _ in fwd]
    for k, col in enumerate(cols):
        for idx, val in col.items():
            rows[pos[idx]][k] = val
    return DenseMatrix.from_entries(ctx, rows, r)


def _ldl_from_columns(ctx: FieldContext, fwd, cols, blocks) -> LDLResult:
    """Reduced LDL whose column k holds cols[k] ({index: value}), the
    indices placed by the order fwd."""
    return LDLResult(Permutation(fwd), _from_columns(ctx, fwd, cols), blocks, len(cols))


# -- fast LU -------------------------------------------------------------------


def fast_lu(a: DenseMatrix, cutoff: int | None = None) -> LUResult:
    """Rank-revealing P A Q^T = L U by recursive row splitting.

    The top half of the rows is factored first; the bottom half is
    reduced against its pivots with one triangular solve and one product,
    and the rest is factored in turn.  A block within `_lu_base` is
    finished row by row by `_lu_rows` on its `schur()` working copy, with
    the same factors and op counts; the tree engine's bag step runs
    `_lu_rows` on copies of its own blocks under the same rule.
    """
    ctx, m, n = a.ctx, a.nrows, a.ncols
    check_cutoff(cutoff)
    cutoff = ctx.default_cutoff if cutoff is None else cutoff
    if _lu_base(m, cutoff):
        s = a.schur()
        order, q, cols = _lu_rows(s, m, n)
        r = len(cols)
        return LUResult(Permutation._of(tuple(order)), Permutation._of(tuple(q)),
                        _from_columns(ctx, order, cols), s.block(order[:r], q), r)
    m1 = m // 2
    top = fast_lu(a.block(0, m1, 0, n), cutoff)
    r1 = top.r
    a2q = a.block(m1, m, 0, n).take_cols(top.Q.fwd)
    u1a = top.U.block(0, r1, 0, r1)
    b1 = tri_solve(u1a, a2q.block(0, m - m1, 0, r1), RIGHT, UPPER, cutoff)
    b2 = a2q.block(0, m - m1, r1, n).sub(matmul(b1, top.U.block(0, r1, r1, n), cutoff))
    bot = fast_lu(b2, cutoff)
    r2 = bot.r
    pfwd = [*top.P.fwd[:r1], *(m1 + t for t in bot.P.fwd), *top.P.fwd[r1:]]
    qfwd = [*top.Q.fwd[:r1], *(top.Q.fwd[r1 + j] for j in bot.Q.fwd)]
    r = r1 + r2
    l = vstack([top.L.block(0, r1, 0, r1).pad(r1, r), hstack([b1.take_rows(bot.P.fwd), bot.L]),
                top.L.block(r1, m1, 0, r1).pad(m1 - r1, r)])
    # Pivot rows stay first in original order; sort the pivoted-out rows back
    # into original order as well (their L rows carry no shape constraint).
    sigma = list(range(r)) + sorted(range(r, m), key=lambda t: pfwd[t])
    pfwd = [pfwd[t] for t in sigma]
    l = l.take_rows(sigma)
    u = vstack([hstack([u1a, top.U.block(0, r1, r1, n).take_cols(bot.Q.fwd)]),
                hstack([DenseMatrix.zeros(ctx, r2, r1), bot.U])])
    return LUResult(Permutation(pfwd), Permutation(qfwd), l, u, r)


def _lu_base(m: int, cutoff: int) -> bool:
    """Whether fast_lu finishes a block of m rows with `_lu_rows`: one row,
    or at most `_TRI_BASE` whose bottom half is within the Strassen cutoff,
    below which every solve is a base case and every product classical."""
    return m <= 1 or (m <= _TRI_BASE and (m + 1) // 2 <= cutoff)


def _lu_rows(s, m: int, n: int, pad: int = 0):
    """fast_lu of the short m x n block that the working copy s holds,
    eliminating its rows one by one on s.  Returns (order, q, cols): P's
    and Q's orders and L's columns as {row: multiplier}, unit entries
    included; r is len(cols), and U is s's block on order[:r] by q.

    Row i is reduced against the pivots found so far, in order.  If
    anything is left, its first nonzero entry in the current column order
    is swapped into column r and row i becomes pivot r.  Splitting the
    rows keeps their order, so these are the pivot rows and the Q of the
    row-splitting recursion, and P lists the pivot rows and then the
    others, each ascending, as the recursion does.  With P, Q and r fixed
    the unit lower L and the upper U are unique: they are the recursion's
    too.  The rule runs right-looking, as the symmetric pivots below do:
    each new pivot row reduces every later row at once.  With a counter
    on, the ops the recursion would meter on the block and `pad` zero rows
    below it are charged by `_charge_row_splitting`.
    """
    ctx = s.ctx
    q = list(range(n))
    piv, rest, cols = [], [], []
    for i in range(m):
        r = len(piv)
        j = s.first(i, q, r) if r < n else None
        if j is None:
            rest.append(i)
        else:
            q[r], q[j] = q[j], q[r]
            cols.append({i: ctx.one, **s.pivot(i, q[r], range(i + 1, m))})
            piv.append(i)
    if ctx.counter is not None:
        lower = [_bits(k for k, col in enumerate(cols) if i in col) for i in range(m + pad)]
        upper = [_bits(c for c in range(n) if s.nonzero(i, q[c])) for i in piv]
        _charge_row_splitting(ctx, m + pad, n, set(piv), upper, lower)
    return piv + rest, q, cols


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
        ctx.count_solve(nnz, r1, nb, unit=False)
        if r1 and k:
            used = sum((lower[i] & band).bit_count() for i in range(mid, hi))
            ctx.count_product(nb, r1, k, used)
        ctx.count_ops(add=nb * ctx.row_ops(k))


# -- fast LDL ------------------------------------------------------------------


def fast_ldl(a: DenseMatrix, cutoff: int | None = None) -> LDLResult:
    """Rank-revealing P^T A P = L D L^H for an H-symmetric matrix.

    Recursion: factor the leading block of size n - floor(n/3), move its
    full-rank part first, take the Schur complement, and either recurse
    on it directly or (when the leading block is rank-deficient) bring
    the independent columns of its off-diagonal block forward with an LU
    before recursing on the bordered core.  A block of n <= `_TRI_BASE`
    rows with n // 2 within the Strassen cutoff, where every solve is a
    base case and every product classical, goes to `_ldl_flat`, with the
    same factors and op counts.  The input is checked once, here; the
    recursion runs in `_fast_ldl`.
    """
    _check_ldl_input(a)
    check_cutoff(cutoff)
    return _fast_ldl(a, a.ctx.default_cutoff if cutoff is None else cutoff)


def _fast_ldl(a: DenseMatrix, cutoff: int) -> LDLResult:
    """The recursion of `fast_ldl`, on a checked input."""
    ctx = a.ctx
    n = a.nrows
    # Three rows or fewer are a leaf of the recursion, whatever the cutoff.
    if n <= 3 or (n <= _TRI_BASE and n // 2 <= cutoff):
        return _ldl_flat(a)
    s = n // 3
    n1 = n - s
    top = _fast_ldl(a.block(0, n1, 0, n1), cutoff)
    r1 = top.r
    ord1 = [*top.P.fwd[:r1], *range(n1, n), *top.P.fwd[r1:]]
    pt1 = Permutation(ord1)
    at = permute(a, pt1, pt1)
    l11 = top.L.block(0, r1, 0, r1)
    d1 = top.D
    c = at.block(0, r1, r1, n)
    w = tri_solve(l11, c, LEFT, LOWER_UNIT, cutoff)
    v = d_solve_left(d1, w)
    bmat = at.block(r1, n, r1, n).sub(matmul(w.conj_transpose(), v, cutoff))
    if 3 * r1 >= n:
        res2 = _fast_ldl(bmat, cutoff)
        blk = Permutation(list(range(r1)) + [r1 + t for t in res2.P.fwd])
        p = compose(pt1, blk)
        l21 = v.conj_transpose().take_rows(res2.P.fwd)
        l = vstack([l11.pad(r1, r1 + res2.r), hstack([l21, res2.L])])
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
    res2 = _fast_ldl(bt, cutoff)
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
        raise InternalInvariantViolation(_bordered_error("inconsistent rows", n, r1, s))
    res33 = ahat.block(r1 + dim2, n, r1 + dim2, n)
    res33 = res33.sub(matmul(d_mul_right(l31, d1), l31.conj_transpose(), cutoff))
    res33 = res33.sub(matmul(d_mul_right(l32, res2.D), l32.conj_transpose(), cutoff))
    if not res33.is_zero():
        raise InternalInvariantViolation(_bordered_error("nonzero trailing residual", n, r1, s))
    r = r1 + r2
    l = vstack([l11.pad(r1, r), hstack([l21, l22]), hstack([l31, l32])])
    return LDLResult(p, l, list(d1) + list(res2.D), r)


def _bordered_error(what: str, n: int, r1: int, s: int) -> str:
    return f"{what} in bordered LDL branch (n={n}, r1={r1}, s={s})"


def _ldl_flat(a: DenseMatrix) -> LDLResult:
    """fast_ldl of a block below its flat base: the recursion's pivot
    decisions, replayed on one Schur complement.

    The replay splits the indices as the recursion does (n1 = n -
    floor(n/3)) and takes the bordered branch when 3 r1 < n, with the pivot
    columns that `_lu_rows` finds in b12; at three indices or fewer it takes
    the first nonzero diagonal entry, else the first nonzero sub-diagonal
    entry in column-major order, as the leaves do.  Each pivot is
    eliminated from `a.schur()` as soon as it is chosen, so every decision
    reads the Schur complement the recursion would have formed, which does
    not depend on the order of elimination; with P and D fixed, L is
    unique.  With a counter on, `_FlatLDL` charges what the recursion's
    kernels would have metered.
    """
    flat = _FlatLDL(a.schur(), list(range(a.nrows)))
    order = flat.node(list(range(a.nrows)))
    return _ldl_from_columns(a.ctx, order, flat.cols, flat.blocks)


def _bits(indices) -> int:
    return sum(1 << t for t in indices)


class _FlatLDL:
    """The state of a run of symmetric pivots: the Schur complement, the
    indices not yet eliminated, the L columns and D blocks of the pivots so
    far and, with a counter on, each L column's nonzero rows as a bit mask.
    `step` is the one symmetric pivot of this module: `vertex_eliminate`,
    `edge_eliminate`, `natural_order_ldl` and the leaves of `node` each
    choose a vertex or a pair and hand it to `step`.

    It starts from a working copy `schur` and the rows `alive` that each
    pivot updates.  The primitives and `_ldl_flat` pass the whole matrix;
    the tree engine's bag step (`sparse`) passes its copy with the
    eliminable rows and the interface rows, and lets `node` decide over the
    eliminable ones only, so the interface rows end up holding the L
    columns' interface entries and the interface Schur complement."""

    def __init__(self, schur, alive: list):
        self.ctx = schur.ctx
        self.schur = schur
        self.alive = alive
        self.cols, self.blocks = [], []
        self.masks = None if self.ctx.counter is None else []

    def step(self, ids: list, pair: tuple):
        """Eliminate the vertex (i,) or the pair (i, j) of the block over
        ids, and return (the ids left, the pivots in order).

        A pair raises SingularPivot when its 2 x 2 determinant, metered, is
        zero.  With a nonzero diagonal entry it is two vertex steps, that
        one first, else one antidiagonal step: two row pivots, on S[i][j]
        and then on S[j][i].  With S symmetric and S[i][i] = S[j][j] = 0
        the first changes neither column i nor row j, so both give the
        multipliers of the rank-2 update.  Each step updates the rows alive
        and, with a counter on, charges the ops of its matrix form over
        the k ids left: scaling its elimination columns (a pair inverts its
        two entries twice), and one classical (k x 1) @ (1 x k) product and
        one k x k subtraction per column."""
        ctx, schur = self.ctx, self.schur
        steps = [pair]
        if len(pair) == 2:
            i, j = pair
            aii, ajj = schur.get(i, i), schur.get(j, j)
            if ctx.is_zero(ctx.sub(ctx.mul(aii, ajj), ctx.mul(schur.get(i, j), schur.get(j, i)))):
                raise SingularPivot(f"singular 2x2 pivot at ({i}, {j})")
            if ajj and not aii:  # a nonzero diagonal first
                pair = (j, i)
            if aii or ajj:
                steps = [pair[:1], pair[1:]]
        for pivots in steps:
            m = len(ids)
            self.alive = [t for t in self.alive if t not in pivots]
            ids = [t for t in ids if t not in pivots]
            first, last = pivots[0], pivots[-1]
            cols = [{first: ctx.one, **schur.pivot(first, last, self.alive)}]
            if first == last:
                self.blocks.append(DBlock.scalar(schur.get(first, first)))
            else:
                cols.append({last: ctx.one, **schur.pivot(last, first, self.alive)})
                self.blocks.append(DBlock.antidiag(schur.get(first, last), schur.get(last, first)))
            self.cols += cols
            if self.masks is not None:
                masks = [_bits(col) for col in cols]
                self.masks += masks
                bits, k = _bits(ids), len(ids)
                for mask in masks:
                    ctx.count_product(k, 1, k, (mask & bits).bit_count())
                add = len(cols) * k * ctx.row_ops(k)
                if len(cols) == 1:
                    ctx.count_ops(add=add, mul=ctx.scale_ops(m), inv=1)
                else:
                    ctx.count_ops(add=add, mul=ctx.scale_ops(4 * m - 4), inv=4)
        return ids, pair

    def node(self, ids: list) -> list:
        """Eliminate the pivots fast_ldl finds in the block over ids, and
        return ids in its P order.  The bordered branch orders b12's
        columns by `_lu_rows` of that block, on a copy of it out of the
        Schur complement."""
        n = len(ids)
        if n <= 3:
            return self.leaf(ids)
        s = n // 3
        n1 = n - s
        k1 = len(self.cols)
        top = self.node(ids[:n1])
        r1 = len(self.cols) - k1
        pivots, trail, nonpivots = top[:r1], ids[n1:], top[r1:]
        if self.masks is not None:
            self.charge_schur(k1, pivots, trail + nonpivots, n - r1)
        if 3 * r1 >= n:
            return pivots + self.node(trail + nonpivots)
        _, q, lcols = _lu_rows(self.schur.sub(trail, nonpivots), len(trail), len(nonpivots))
        cols = [nonpivots[c] for c in q]
        mid, tail = trail + cols[: len(lcols)], cols[len(lcols) :]
        k2 = len(self.cols)
        sub = self.node(mid)
        r2 = len(self.cols) - k2
        nonzero = self.schur.nonzero
        if any(nonzero(i, j) for i in sub[r2:] for j in tail):
            raise InternalInvariantViolation(_bordered_error("inconsistent rows", n, r1, s))
        if any(nonzero(i, j) for i in tail for j in tail):
            raise InternalInvariantViolation(_bordered_error("nonzero trailing residual", n, r1, s))
        if self.masks is not None:
            self.charge_bordered(k1, pivots, k2, sub[:r2], sub[r2:], tail)
        return pivots + sub + tail

    def leaf(self, ids: list) -> list:
        nonzero = self.schur.nonzero
        order = []
        while ids:
            pair = next(((t,) for t in ids if nonzero(t, t)), None)
            if pair is None:
                pair = next(((j, i) for x, j in enumerate(ids) for i in ids[x + 1 :]
                             if nonzero(i, j)), None)
                if pair is None:
                    break  # a zero Schur complement: the rest are rank-deficient
            ids, pivots = self.step(ids, pair)
            order += pivots
        return order + ids

    # -- what the recursion meters ----------------------------------------------

    def nnz(self, k0: int, r: int, rows) -> int:
        """The nonzeros of L in these rows and the columns k0..k0 + r."""
        bits = _bits(rows)
        return sum((mask & bits).bit_count() for mask in self.masks[k0 : k0 + r])

    def charge_solve(self, k0: int, pivots, nv: int):
        """A base-case `tri_solve` with the unit lower L of these pivots
        (columns k0 on), then `d_solve_left` with their D blocks, on nv
        right-hand sides: `count_solve`, then one inversion per pivot and
        one scaling per entry."""
        ctx = self.ctx
        r = len(pivots)
        ctx.count_solve(self.nnz(k0, r, pivots) - r, r, nv)
        ctx.count_ops(mul=ctx.scale_ops(r * nv), inv=r)

    def charge_product(self, k0: int, r: int, rows, n: int, scaled: bool = True):
        """A classical product of L[rows, k0:k0 + r], times its D blocks
        when scaled (`d_mul_right`), with an r x n factor."""
        ctx = self.ctx
        if scaled:
            ctx.count_ops(mul=ctx.scale_ops(r * len(rows)))
        ctx.count_product(len(rows), r, n, self.nnz(k0, r, rows))

    def charge_schur(self, k1: int, pivots, rows, n: int):
        """The Schur complement of the pivots (columns k1 on) on the rows
        by n columns: w = L11^-1 C and v = D1^-1 w on n right-hand sides,
        then B - w^H v, whose product's left factor is L on the rows.  In
        the recursion the columns are the rows, all those left."""
        ctx = self.ctx
        self.charge_solve(k1, pivots, n)
        self.charge_product(k1, len(pivots), rows, n, scaled=False)
        ctx.count_ops(add=len(rows) * ctx.row_ops(n))

    def charge_bordered(self, k1: int, pivots, k2: int, pivots2, nonpivots2, tail):
        """The bordered branch after its core: L21 and L31 by solves, the
        core-by-tail residual R, L32 from its pivot rows, the check
        product on its other rows, and the two updates of the tail."""
        ctx = self.ctx
        r1, r2 = len(pivots), len(pivots2)
        mid = pivots2 + nonpivots2
        dim3 = len(tail)
        self.charge_solve(k1, pivots, len(mid))
        self.charge_solve(k1, pivots, dim3)
        self.charge_product(k1, r1, mid, dim3)
        self.charge_solve(k2, pivots2, dim3)
        self.charge_product(k2, r2, nonpivots2, dim3)
        self.charge_product(k1, r1, tail, dim3)
        self.charge_product(k2, r2, tail, dim3)
        ctx.count_ops(add=(len(mid) + 2 * dim3) * ctx.row_ops(dim3))


# -- natural-order LDL (fill measurements) --------------------------------------


def natural_order_ldl(a: DenseMatrix) -> LDLResult:
    """LDL eliminating indices in their given order (no fill-avoiding pivoting).

    At each step the leading active index is eliminated: by a vertex
    elimination when its diagonal is nonzero, otherwise by an edge
    elimination with the first later index coupled to it.  Indices with
    an entirely zero row are skipped to the tail.
    """
    _check_ldl_input(a)
    ids = list(range(a.nrows))
    flat = _FlatLDL(a.schur(), ids)
    nonzero = flat.schur.nonzero
    order, tail = [], []
    while ids:
        k = ids[0]
        pair = (k,) if nonzero(k, k) else next(((k, t) for t in ids[1:] if nonzero(t, k)), None)
        if pair is None:
            tail.append(k)
            ids = ids[1:]
            continue
        ids, pivots = flat.step(ids, pair)
        order += pivots
    return _ldl_from_columns(a.ctx, order + tail, flat.cols, flat.blocks)


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
