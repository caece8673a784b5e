"""Treewidth-bounded sparse LDL/LU with vertex peeling.

The factorization is returned as a transcript: the ordered sequence of
elimination and peeling transformations (indices refer to the
post-ordered vertex positions) together with the reduced block diagonal.
Writing B for the product of the transformation matrices, the defining
identity is  A = B D B^H  with B a unit-lower-trapezoidal n x rank
matrix permuted by the pivot order, which `transcript_ldl` states as an LDL
over positions and `labelled_ldl` gives with P in the input's labels.
A vertex is peeled when its remaining border column is a linear
combination of other active columns; every vertex ends up either as an
elimination pivot or peeled, so the peel count is n - rank(A).

The tree engine is the multifrontal realization (Liu, SIAM Review
34(1), 1992).  Each bag assembles its extended saddle matrix [[A_f, B^H],
[B, 0]] into one `schur()` working copy: A_f holds the entries of A read
at the bag that eliminates their lower endpoint (each once in the whole
tree) plus the children's interface Schur complements S, and B the rows F
they carry up.  The four steps of `_substep` address that copy by bag
indices.  One base rule, `factor._flat`, decides where they stop
recursing, as it does for fast_lu and fast_ldl.  Every LU of rows within
it (the peels of steps 1 and 4, step 2's two LUs, the local LDL's
bordered LU) is `factor._lu_rows` on a list-level copy of its block
(`sub`), whose U the peels solve on; S and F go to the parent as lists of
rows, and only the root's become matrices.  Steps 2 and 3 of a bag whose
nf frontal and k kept constraint rows are within it together are pivots
on the copy itself: two row pivots per constraint pair, as in
`saddle.gamma_eliminate_partial`, then `factor._FlatLDL`.  There every
product the matrix steps would make is classical and every solve a base
case, so both give the same transforms, S, F and op counts.  Larger bags
run the matrix steps (`schilders_partial_ldl`, `residual_schur`,
`fast_ldl`, solves, products, `fast_lu`) on blocks of the copy, whose
recursion keeps their cost O(tau^omega).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .dense import (
    _TRI_BASE,
    LEFT,
    LOWER_UNIT,
    UPPER,
    DenseMatrix,
    Permutation,
    check_cutoff,
    matmul,
    tri_solve,
)
from .factor import (
    SCALAR,
    DBlock,
    LDLResult,
    _FlatLDL,
    LUResult,
    _bits,
    _flat,
    _lu_rows,
    col_support,
    d_mul_right,
    d_solve_left,
    fast_ldl,
    fast_lu,
)
from .fields import (
    DimensionMismatch,
    FieldContext,
    InconsistentSystem,
    InternalInvariantViolation,
    InvalidDecomposition,
    NotInSpan,
)
from .saddle import (
    SaddleSystem,
    eliminate_pair,
    pair_columns,
    residual_schur,
    schilders_partial_ldl,
    skeleton_pair,
)
from .treedec import NormalizedTD, greedy_td, normalize_td, validate_td

L_TIMES = "L_times"
LH_TIMES = "Lh_times"
SOLVE_L = "solve_L"


# -- sparse symmetric storage ---------------------------------------------------


class SparseSym:
    """H-symmetric sparse matrix; upper triangle stored, lower implied."""

    __slots__ = ("ctx", "n", "rows")

    def __init__(self, ctx: FieldContext, n: int):
        self.ctx = ctx
        self.n = n
        self.rows = [dict() for _ in range(n)]

    @classmethod
    def from_entries(cls, ctx, n, entries) -> "SparseSym":
        """entries: iterable of (i, j, value); a coordinate given again, as
        (i, j) or as (j, i), must carry the same (mirrored) value, else
        ValueError."""
        out = cls(ctx, n)
        given = {}
        for i, j, v in entries:
            v = ctx.el(v)
            if given.setdefault((min(i, j), max(i, j)), v) != v:
                raise ValueError(f"conflicting values at ({i}, {j})")
            out.set(i, j, v)
        return out

    def _upper(self, i, j):
        """(i, j) as the stored upper-triangle key; IndexError outside 0..n-1."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of range for {self.n} rows")
        return (i, j) if i <= j else (j, i)

    def set(self, i, j, v):
        i, j = self._upper(i, j)
        if self.ctx.is_zero(v):
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = v

    def get(self, i, j):
        i, j = self._upper(i, j)
        return self.rows[i].get(j, self.ctx.zero)

    def edges(self):
        for i in range(self.n):
            for j in self.rows[i]:
                if j != i:
                    yield (i, j)

    def densify(self) -> DenseMatrix:
        out = DenseMatrix.zeros(self.ctx, self.n, self.n)
        for i in range(self.n):
            for j, v in self.rows[i].items():
                out.set(i, j, v)
                if j != i:
                    out.set(j, i, v)
        return out

    def relabel(self, order: Permutation) -> "SparseSym":
        """New matrix with entry (p, q) = self[order.fwd[p]][order.fwd[q]]."""
        pos = order.inv
        out = SparseSym(self.ctx, self.n)
        for i in range(self.n):
            for j, v in self.rows[i].items():
                out.set(pos[i], pos[j], v)
        return out


# -- transforms and transcript ----------------------------------------------------


@dataclass(frozen=True)
class VertexElim:
    pivot: int
    col: tuple  # ((index, value), ...) off-diagonal entries
    block: DBlock  # scalar

    def columns(self):
        """(pivot, off-diagonal entries) of each column, in pivot order."""
        return ((self.pivot, self.col),)


@dataclass(frozen=True)
class EdgeElim:
    pivots: tuple  # (first, second)
    col1: tuple  # off-diagonal entries of the first pivot's column
    col2: tuple
    block: DBlock  # antidiagonal

    def columns(self):
        """(pivot, off-diagonal entries) of each column, in pivot order."""
        return tuple(zip(self.pivots, (self.col1, self.col2)))


@dataclass(frozen=True)
class Peel:
    target: int
    coeffs: tuple  # ((index, value), ...) support on still-active vertices


def _offdiag_count(tf) -> int:
    if isinstance(tf, Peel):
        return len(tf.coeffs)
    return sum(len(col) for _, col in tf.columns())


class Transcript:
    """Ordered transformation sequence with the reduced block diagonal."""

    def __init__(self, ctx: FieldContext, n: int):
        self.ctx = ctx
        self.n = n
        self.transforms = []
        # kept by `append`: a transform swapped in later must keep its
        # pivots, D block or peel target
        self.pivot_order = []
        self.dblocks = []
        self.peeled = []

    def append(self, tf):
        self.transforms.append(tf)
        if isinstance(tf, Peel):
            self.peeled.append(tf.target)
        else:
            self.pivot_order += [p for p, _ in tf.columns()]
            self.dblocks.append(tf.block)

    @property
    def rank(self) -> int:
        return len(self.pivot_order)

    @property
    def peel_count(self) -> int:
        return len(self.peeled)

    def max_offdiag(self) -> int:
        return max((_offdiag_count(tf) for tf in self.transforms), default=0)

    def kind_histogram(self) -> dict:
        # "permute" is always 0: no transform permutes.  The key stays so
        # that the CLI's transform_blocks JSON keeps its shape.
        hist = {"vertex_elim": 0, "edge_elim": 0, "peel": 0, "permute": 0}
        names = {VertexElim: "vertex_elim", EdgeElim: "edge_elim", Peel: "peel"}
        for tf in self.transforms:
            hist[names[type(tf)]] += 1
        return hist

    def homogeneous_blocks(self) -> int:
        """Number of maximal runs of same-class transforms (eliminations,
        peels)."""
        runs = 0
        prev = None
        for tf in self.transforms:
            c = isinstance(tf, Peel)
            if c != prev:
                runs += 1
                prev = c
        return runs

    def nnz(self) -> int:
        return sum(_offdiag_count(tf) for tf in self.transforms) + self.rank


def apply_transcript(t: Transcript, x: DenseMatrix, mode: str) -> DenseMatrix:
    """Multiply by the transformation product, one transform at a time.

    L_times: (prod Q_i) x, taking x over pivot positions to vertex rows.
    Lh_times: (prod Q_i)^H x, taking x over vertex rows to pivot positions.
    solve_L: solve (prod Q_i) y = x; raises InconsistentSystem when x is
    not in the range.  Rows are kept in x's row format (see `row`).
    """
    ctx = t.ctx
    if x.ctx != ctx:
        raise DimensionMismatch("mixed field contexts")
    axpy = x.add_scaled_row
    pivots = t.pivot_order
    if mode == L_TIMES:
        if x.nrows != len(pivots):
            raise ValueError("input rows must match the rank")
        state = {pid: x.row(k) for k, pid in enumerate(pivots)}
        for tf in reversed(t.transforms):
            if isinstance(tf, Peel):
                acc = x.zero_row()
                for idx, val in tf.coeffs:
                    acc = axpy(acc, state[idx], val)
                state[tf.target] = acc
                continue
            for prow, col in [(state[p], col) for p, col in tf.columns()]:
                for idx, val in col:
                    state[idx] = axpy(state[idx], prow, val)
        return x.with_rows([state[v] if v in state else x.zero_row() for v in range(t.n)])
    if mode == LH_TIMES:
        if x.nrows != t.n:
            raise ValueError("input rows must match the dimension")
        state = {v: x.row(v) for v in range(t.n)}
        out = {}
        for tf in t.transforms:
            if isinstance(tf, Peel):
                trow = state.pop(tf.target)
                for idx, val in tf.coeffs:
                    state[idx] = axpy(state[idx], trow, val)
                continue
            for piv, col in tf.columns():
                acc = state[piv]
                for idx, val in col:
                    acc = axpy(acc, state[idx], val)
                out[piv] = acc
            for piv, _ in tf.columns():
                state.pop(piv)
        return x.with_rows([out[pid] for pid in pivots])
    if mode == SOLVE_L:
        if x.nrows != t.n:
            raise ValueError("input rows must match the dimension")
        state = {v: x.row(v) for v in range(t.n)}
        for tf in t.transforms:
            if isinstance(tf, Peel):
                acc = x.zero_row()
                for idx, val in tf.coeffs:
                    acc = axpy(acc, state[idx], val)
                if not x.same_row(acc, state[tf.target]):
                    raise InconsistentSystem(f"row {tf.target} is not a consistent combination")
                state.pop(tf.target)
                continue
            for prow, col in [(state[p], col) for p, col in tf.columns()]:
                for idx, val in col:
                    state[idx] = axpy(state[idx], prow, ctx.neg(val))
        return x.with_rows([state[pid] for pid in pivots])
    raise ValueError(f"unknown mode {mode!r}")


def transcript_ldl(t: Transcript) -> LDLResult:
    """The LDL the transcript states: P its pivot order then the peeled
    vertices, D its blocks, L the transforms' product with rows in P's order.
    A reverse pass writes each elimination's column off its transform, and
    each peeled row as its peel's combination of the columns written so far."""
    ctx, pivots = t.ctx, t.pivot_order
    order, r = pivots + t.peeled, len(pivots)
    pos = {v: i for i, v in enumerate(order)}
    l = DenseMatrix.zeros(ctx, len(order), r)
    rows = {idx: {} for tf in t.transforms if isinstance(tf, Peel) for idx, _ in tf.coeffs}
    for tf in reversed(t.transforms):
        if isinstance(tf, Peel):
            acc = rows[tf.target] = {}
            for idx, c in tf.coeffs:
                for j, v in rows[idx].items():
                    acc[j] = ctx._add(acc.get(j, ctx.zero), ctx._mul(c, v))
            for j, v in acc.items():
                l.set(pos[tf.target], j, v)
            continue
        for p, col in tf.columns():
            k = pos[p]
            for idx, val in ((p, ctx.one), *col):
                l.set(pos[idx], k, val)
                if idx in rows:
                    rows[idx][k] = val
    if ctx.counter is not None and len(order) > r:
        _charge_recovery(t, l)
    return LDLResult(Permutation(order), l, list(t.dblocks), r)


def _charge_recovery(t: Transcript, l: DenseMatrix):
    """Charge solving X D L1^H = A's peeled-by-pivot block for l's peeled rows X (L1: its unit
    lower pivot rows) by `tri_solve(L1^H, ., RIGHT, UPPER_UNIT)` classically, then D^-1."""
    ctx, r, corank = t.ctx, l.ncols, l.nrows - l.ncols
    xd = d_mul_right(l.block(r, l.nrows, 0, r), t.dblocks)  # metered as D^-1's scaling
    nnz = [sum(1 for v in col if v) for col in zip(*xd.to_lists())]
    ctx.count_ops(inv=r)
    todo = [(0, r)]
    for lo, hi in todo:  # the solve's halving of r down to _TRI_BASE; todo grows as it is read
        if hi - lo <= _TRI_BASE:
            nz = sum(1 for row in l.block(lo, hi, lo, hi).to_lists() for v in row if v) - hi + lo
            ctx.count_solve(nz, hi - lo, corank)
        else:
            mid = lo + (hi - lo) // 2
            ctx.count_product(corank, mid - lo, hi - mid, sum(nnz[lo:mid]))
            ctx.count_ops(add=corank * ctx.row_ops(hi - mid))
            todo += [(lo, mid), (mid, hi)]


def explicit_ldl_from_transcript(t: Transcript, a: SparseSym) -> LDLResult:
    """`transcript_ldl(t)`, for an `a` of the transcript's field and size."""
    if a.ctx != t.ctx:
        raise DimensionMismatch("mixed field contexts")
    if a.n != t.n:
        raise DimensionMismatch(f"transcript of {t.n} vertices for a matrix of {a.n}")
    return transcript_ldl(t)


def labelled_ldl(res: LDLResult, order: Permutation) -> LDLResult:
    """`res`, an LDL over post-order positions, with P over the input's
    labels: position p is label order.fwd[p].  L and D are unchanged."""
    return LDLResult(Permutation([order.fwd[p] for p in res.P.fwd]), res.L, res.D, res.r)


# -- standalone peeling -------------------------------------------------------------


def peel_vertex(a_block: DenseMatrix, target: int, basis_cols) -> Peel:
    """Peel `target` out of a dense block: the combination of the
    `basis_cols` columns that gives its column, as a peeling transform, or
    `NotInSpan`.  This is `_peel_dependent` on the columns [*basis_cols,
    target]: a column spanned by those before it never becomes an LU pivot,
    so the coefficients are the basis pivots' alone, and the basis columns
    peeled with it are dropped.  A column outside the block raises
    `IndexError`, a target in the basis or a repeated basis column
    `ValueError`."""
    ids = [*basis_cols, target]
    if len(set(ids)) < len(ids):
        raise ValueError(f"basis {list(basis_cols)} repeats a column or holds the target {target}")
    ctx, scratch = a_block.ctx, Transcript(a_block.ctx, len(ids))
    _peel_dependent(scratch, a_block.take_cols(ids).schur(), a_block.nrows, ids,
                    ctx.default_cutoff)
    for tf in scratch.transforms:
        if tf.target == target:
            return tf
    raise NotInSpan(f"column {target} is not spanned")


# -- the tree engine ----------------------------------------------------------------


def _peel_dependent(transcript: Transcript, w, m: int, ids, cutoff: int):
    """Peel the vertex ids[t] of every column t of an m-row block outside
    the pivot columns of a rank-revealing LU of it, as the combination of
    those that the factors give; returns the kept columns' positions,
    ascending.  `w` is a working copy holding the block, which this pivots
    on.  With m rows within the base rule `_flat` the LU is `_lu_rows` on
    w, and pivoting U's rows out of those above them in w solves for every
    dependent at once, charged as one base-case `tri_solve` per dependent;
    above it, `fast_lu` of the block and one `tri_solve` per dependent."""
    ctx, n = transcript.ctx, len(ids)
    if not _flat(m, cutoff):
        lu = fast_lu(w.block(range(m), range(n)), cutoff)
        q, r = lu.Q.fwd, lu.r
        for c in range(r, n):
            x = tri_solve(lu.U.block(0, r, 0, r), lu.U.block(0, r, c, c + 1), LEFT, UPPER)
            coeffs = tuple((ids[p], v) for p, v in zip(q, x.column(0)) if v)
            transcript.append(Peel(ids[q[c]], coeffs))
        return sorted(q[:r])
    order, q, cols = _lu_rows(w, m, n)
    r = len(cols)
    if r < n:
        if ctx.counter is not None and r:
            nnz = sum(1 for t in range(r) for c in q[t + 1 : r] if w.nonzero(order[t], c))
            for _ in q[r:]:
                ctx.count_solve(nnz, r, 1, unit=False)
        for t in range(r - 1, 0, -1):
            w.pivot(order[t], q[t], order[:t])
        dinv = [(ids[q[t]], i, ctx._inverse(w.get(i, q[t]))) for t, i in enumerate(order[:r])]
        for c in q[r:]:
            coeffs = tuple((p, ctx._mul(w.get(i, c), d)) for p, i, d in dinv if w.nonzero(i, c))
            transcript.append(Peel(ids[c], coeffs))
    return sorted(q[:r])


def _bag_error(step: int, what: str, dims) -> InternalInvariantViolation:
    node, nf, k, gamma, r1 = dims
    return InternalInvariantViolation(
        f"bag step {step}: {what} (node={node}, nf={nf}, k={k}, gamma={gamma}, r1={r1})"
    )


def _append_eliminations(transcript: Transcript, pivots, cols, blocks):
    """Each D block as a vertex (scalar) or edge (antidiagonal) elimination
    of its L columns: cols[c] holds column c's (id, value) off pivots[c]."""
    c = 0
    for blk in blocks:
        if blk.kind == SCALAR:
            transcript.append(VertexElim(pivots[c], cols[c], blk))
        else:
            transcript.append(EdgeElim((pivots[c], pivots[c + 1]), cols[c], cols[c + 1], blk))
        c += blk.size


def _split_rest(rest, e: int, nf: int, dims):
    """The extended system's indices left after step 2, in their order
    there (the non-pivot tail of an LU, ascending), as eliminable,
    interface and constraint indices.  The interface must come back in its
    given order: S and F rely on it."""
    elim = [t for t in rest if t < e]
    ifc = [t for t in rest if e <= t < nf]
    if ifc != list(range(e, nf)):
        raise _bag_error(3, "interface order not preserved", dims)
    return elim, ifc, [t for t in rest if t >= nf]


def _substep(transcript: Transcript, s, ids: list, nf: int, gamma: int, cutoff: int, node):
    """One bag: peel dependent constraint rows, complement the constraints
    against the to-be-eliminated columns, factor the remaining local block,
    peel or carry the leftovers (see the module docstring).

    `s` is the bag's working copy and ids[t] the vertex of its index t: the
    first nf are the frontal's, whose last `gamma` are the interface, and
    the rest the constraint rows B that the children carry.  `node` is the
    bag in the normalized decomposition, which errors name.  Returns (S, F,
    F's ids): S and the carried rows F as lists of rows over the interface,
    in its given order.  Step 1 peels with an LU of B^H, step 2 finds the
    r1 constraint rows that pivot against the eliminable columns with an LU
    of their eliminable block, steps 2 and 3 run as `_flat_steps` or
    `_matrix_steps` (by `_flat` on nf + k rows), which leave the rows step
    1 peeled unread, and step 4 peels with an LU of F^H, on a copy made
    from F."""
    ctx, e = s.ctx, nf - gamma

    # -- step 1: peel linearly dependent constraint rows
    kept = []
    if len(ids) > nf:
        keep = _peel_dependent(transcript, s.sub(range(nf), range(nf, len(ids))), nf, ids[nf:],
                               cutoff)
        kept = [nf + t for t in keep]
    k = len(kept)

    # -- step 2: the constraint rows beta that pivot, found by an LU of
    # the eliminable part; the others join the symmetric side as border
    # vertices of the extended system, so every transform column and every
    # Schur update (interface entries of pivot rows included) is exact.
    beta = []
    if k and e:
        # the LU of [Be, 0]^H: B's eliminable block over the nf frontal rows
        if _flat(nf, cutoff):
            _, q, cols = _lu_rows(s.sub(range(e), kept), e, k, gamma)
            pivots = q[: len(cols)]
        else:
            lu1 = fast_lu(s.block(range(e), kept).pad(nf, k), cutoff)
            pivots = lu1.Q.fwd[: lu1.r]
        beta = [kept[t] for t in sorted(pivots)]
    unpiv = [t for t in kept if t not in beta]
    steps = _flat_steps if _flat(nf + k, cutoff) else _matrix_steps
    s_ifc, frows, gids = steps(transcript, s, ids, unpiv, beta, cutoff,
                               (node, nf, k, gamma, len(beta)))

    # -- step 4: peel dependents among leftover rows, carry the rest
    if gids:
        fh = DenseMatrix.from_entries(ctx, zip(*frows), len(gids)).schur()
        keep = _peel_dependent(transcript, fh, gamma, gids, cutoff)
        frows, gids = [frows[t] for t in keep], [gids[t] for t in keep]
    return s_ifc, frows, gids


def _flat_steps(transcript, s, ids, unpiv, beta, cutoff, dims):
    """Steps 2 and 3 of a bag as pivots on its working copy s, by bag
    indices: the A rows are the frontal's and unpiv, the constraint rows
    that do not pivot, and beta are the r1 that do.  Returns (S, F, the
    ids of F's rows) before step 4, S and F as lists.

    Step 2 takes the pivot pairs (P.fwd[t], Q.fwd[t]) of the LU of
    [Bb, 0]^H, s's block on the A rows and beta, as the matrix steps do.
    For each it reads the skeleton column k1 off s, makes the pair's two
    row pivots (`eliminate_pair`), whose second multipliers give k2, and
    turns both into L columns (`skeleton_pair`).  Step 3 runs `_FlatLDL`
    on the residual left in s; its pivots update the interface rows too,
    so s ends holding S and the non-pivot rows' interface block.  With a
    counter on, each step charges what the matrix steps meter
    (`_charge_complementation`, `_FlatLDL.charge_schur`)."""
    ctx = s.ctx
    _, nf, _, gamma, r1 = dims
    e = nf - gamma
    rest = [*range(nf), *unpiv]
    if r1:
        # len(rest) < nf + k: within fast_lu's base rule whenever the bag is flat
        order, q, lcols = _lu_rows(s.sub(rest, beta), len(rest), r1)
        if len(lcols) != r1:
            raise _bag_error(2, "complementation rank drifted", dims)
        pfwd = [rest[t] for t in order]
        qfwd = [beta[t] for t in q]
        if any(pfwd[t] >= e for t in range(r1)):
            raise _bag_error(2, "complementation pivot outside the eliminable block", dims)
        zero, one = ctx.zero, ctx.one
        a11s, ynnz = [], []
        for t in range(r1):
            aj, bj = pfwd[t], qfwd[t]
            rows_a, rows_b = pfwd[t + 1 :], qfwd[t + 1 :]
            rows = [aj, bj, *rows_a, *rows_b]
            k1 = [s.get(u, aj) for u in rows]
            mult = eliminate_pair(s, aj, bj, rows_a, rows_b)
            k2 = [one, zero] + [mult.get(u, zero) for u in rows_a] + [zero] * len(rows_b)
            if ctx.counter is not None:
                a11s.append(k1[0])
                ynnz.append(sum(1 for v in k1[2 : 2 + len(rows_a)] if v))
            _append_eliminations(transcript, *skeleton_pair(ctx, k1, k2, [ids[u] for u in rows]))
        if ctx.counter is not None:
            lmasks = [_bits(c for c, col in enumerate(lcols) if i in col) for i in order]
            _charge_complementation(ctx, len(rest), lmasks, a11s, ynnz)
        rest = pfwd[r1:]
    elim, ifc, brest = _split_rest(rest, e, nf, dims)
    if r1 and any(s.nonzero(i, j) for i in brest for j in elim + brest):
        raise _bag_error(3, "constraint rows keep eliminable or mutual couplings", dims)

    # -- step 3: the local LDL of the eliminable block, on the same copy
    flat = _FlatLDL(s, elim + ifc)
    order = flat.node(elim)
    ell = len(flat.cols)
    # a pair's first column has no entry on its partner: both left the rows
    cols = [tuple((ids[t], v) for t in order[c + 1 :] + ifc if (v := col.get(t)))
            for c, col in enumerate(flat.cols)]
    _append_eliminations(transcript, [ids[t] for t in order], cols, flat.blocks)
    if ell and flat.masks is not None:
        flat.charge_schur(0, order[:ell], order[ell:] + ifc, gamma)
    left = brest + order[ell:]
    return s.lists(ifc, ifc), s.lists(left, ifc), [ids[t] for t in left]


def _charge_complementation(ctx: FieldContext, n: int, lmasks, a11s, ynnz):
    """Charge what step 2 of `_matrix_steps` meters besides its LU, on an
    extended system of n A rows and r = len(a11s) pairs:
      * `schilders_partial_ldl`: base-case solves with L1 on r right-hand
        sides and with L1^H on r and on n - r, the classical products
        L1 Wl and L2 (Y1^H - D + D L1^H), the scaling D L1^H, an r x r
        and an (n - r) x r addition, and 3 r ops on r-vectors (negating
        W's diagonal, adding D to Y's and the metered subtraction);
      * `residual_schur`: r subtractions on V = Y - diag(D), the
        classical n x r x n products with V, L and L D (scaled by r n
        muls), and three n x n subtractions;
      * `pair_columns`: the negation of each D entry.
    lmasks are the LU's L rows as bit masks, a11s the pairs' entries -D
    and ynnz the nonzeros of each Y column below its pivot; the left
    factors' nonzeros, which GF(2) products are charged by, follow from
    them."""
    r = len(a11s)
    l1 = sum(m.bit_count() for m in lmasks[:r])
    l2 = sum(m.bit_count() for m in lmasks[r:])
    dbits = sum(1 << t for t, a in enumerate(a11s) if a)
    ctx.count_product(r, r, r, l1)
    ctx.count_product(n - r, r, r, l2)
    ctx.count_product(n, r, n, sum(ynnz) + dbits.bit_count())
    ctx.count_product(n, r, n, l1 + l2)
    ctx.count_product(n, r, n, sum((m & dbits).bit_count() for m in lmasks))
    ctx.count_solve(l1 - r, r, n + r)  # the three solves, on n + r right-hand sides
    ctx.count_ops(add=5 * r + n * ctx.row_ops(r) + 3 * n * ctx.row_ops(n),
                  mul=ctx.scale_ops(r * r + r * n))


def _matrix_steps(transcript, s, ids, unpiv, beta, cutoff, dims):
    """Steps 2 and 3 of a bag as matrix operations on blocks of its working
    copy s, by bag indices: the partial LDL of the extended system over
    the frontal and unpiv (`schilders_partial_ldl`), its pairs as L
    columns (`pair_columns`) and its residual (`residual_schur`), then
    `fast_ldl` of the eliminable block left, two triangular solves and two
    products; the pairs' and `fast_ldl`'s L columns become transforms in
    `_append_eliminations`.  Returns (S, F, the ids of F's rows) before
    step 4."""
    ctx = s.ctx
    _, nf, _, gamma, r1 = dims
    e = nf - gamma
    iface = ids[e:nf]
    if r1:
        ext = [*range(nf), *unpiv]
        next_ids = [ids[t] for t in ext]
        # B's block on unpiv is s's zero constraint block
        system = SaddleSystem(s.block(ext, ext), s.block(beta, ext))
        f = schilders_partial_ldl(system, cutoff)
        if f.r != r1:
            raise _bag_error(2, "complementation rank drifted", dims)
        if any(f.P.fwd[t] >= e for t in range(r1)):
            raise _bag_error(2, "complementation pivot outside the eliminable block", dims)
        beta_ids = [ids[t] for t in beta]
        for i in range(r1):
            _append_eliminations(transcript, *pair_columns(f, i, next_ids, beta_ids))
        # the residual's rows follow P.fwd[r1:]
        g = residual_schur(system, f).schur()
        rest = [ext[v] for v in f.P.fwd[r1:]]
        elim, ifc, brest = _split_rest(rest, e, nf, dims)
        at = {v: t for t, v in enumerate(rest)}
        el, fc, bl = ([at[v] for v in part] for part in (elim, ifc, brest))
        if any(g.nonzero(i, j) for i in bl for j in el + bl):
            raise _bag_error(3, "constraint rows keep eliminable or mutual couplings", dims)
    else:
        # without step 2 the frontal is already in [eliminable | interface] order
        g, elim, brest = s, range(e), unpiv
        el, fc, bl = elim, range(e, nf), unpiv
    y11, y12, a22, bt2 = g.block(el, el), g.block(el, fc), g.block(fc, fc), g.block(bl, fc)
    n1 = len(elim)

    # -- step 3: factor the remaining eliminable block
    res3 = fast_ldl(y11, cutoff)
    ell = res3.r
    elim_p1 = [ids[elim[t]] for t in res3.P.fwd]
    l1 = res3.L
    c = y12.take_rows(res3.P.fwd)
    c1, c2 = c.block(0, ell, 0, gamma), c.block(ell, n1, 0, gamma)
    if ell:
        tmat = tri_solve(l1.block(0, ell, 0, ell), c1, LEFT, LOWER_UNIT)
        u2 = d_solve_left(res3.D, tmat)
        xifc = u2.conj_transpose()
        z12 = c2.sub(matmul(l1.block(ell, n1, 0, ell), tmat, cutoff))
        s_ifc = a22.sub(matmul(tmat.conj_transpose(), u2, cutoff))
    else:
        xifc, z12, s_ifc = DenseMatrix.zeros(ctx, gamma, 0), c2, a22
    # column c: the eliminable rows below it (L is zero below the first
    # column of a 2 x 2 pivot), then the interface
    cols = [col_support(l1, c, range(c + 1, n1), elim_p1)
            + col_support(xifc, c, range(gamma), iface) for c in range(ell)]
    _append_eliminations(transcript, elim_p1, cols, res3.D)
    frows = bt2.to_lists() + z12.to_lists()
    return s_ifc.to_lists(), frows, [ids[t] for t in brest] + elim_p1[ell:]


def tree_ldl(a: SparseSym, ntd: NormalizedTD, gamma: int = 0, cutoff=None):
    """Factor a post-ordered sparse symmetric matrix along the tree.

    `a` is indexed by post-order positions (use `sparse_ldl` for original
    labels); the root bag's last `gamma` positions are left untouched
    (`ValueError` unless 0 <= gamma <= the root bag's size).  Returns the
    transcript plus the interface Schur complement and carried full-rank
    constraint rows (both empty when gamma = 0).

    Each bag assembles its extended saddle matrix into its working copy
    and runs `_substep` on it.  A's entries come from each eliminable
    vertex's stored row (its upper triangle, positions following the
    elimination order), so the bag that eliminates an entry's lower
    endpoint must hold the other one, else `InvalidDecomposition`.  The
    children's S are added to the frontal and their rows F become B and
    B^H.
    """
    ctx = a.ctx
    n = a.n
    if ntd.n != n:
        raise DimensionMismatch(f"decomposition of {ntd.n} vertices for a pattern of {n}")
    check_cutoff(cutoff)
    cutoff = ctx.default_cutoff if cutoff is None else cutoff
    td = ntd.td
    pos = ntd.order.inv
    bag_pos = [sorted(pos[v] for v in b) for b in td.bags]
    root_pos = bag_pos[td.root]
    if not 0 <= gamma <= len(root_pos):
        raise ValueError(f"gamma {gamma} outside 0..{len(root_pos)}, the root bag's size")
    transcript = Transcript(ctx, n)
    root_iface = root_pos[len(root_pos) - gamma :]

    def rec(node, iface):
        # eliminable ids first, the interface (ascending, as in the bag)
        # next, then the rows the children carry
        iset = set(iface)
        ids = [v for v in bag_pos[node] if v not in iset] + iface
        nf = len(ids)
        loc = {v: t for t, v in enumerate(ids)}
        kids = []
        for child in td.children[node]:
            child_iface = sorted(set(bag_pos[node]) & set(bag_pos[child]))
            s_c, f_c, fid_c = rec(child, child_iface)
            kids.append(([loc[v] for v in child_iface], s_c, f_c))
            ids += fid_c
        size = len(ids)
        rows = [[ctx.zero] * size for _ in range(size)]
        for li in range(nf - len(iface)):
            u = ids[li]
            arow = rows[li]
            for v, val in a.rows[u].items():
                lj = loc.get(v)
                if lj is None:
                    raise InvalidDecomposition(
                        f"entry ({u}, {v}) is in no bag: bag {node} eliminates {u} without {v}"
                    )
                arow[lj] = rows[lj][li] = val
        # extend-add: S into the frontal, the carried rows into B and B^H
        c = nf
        for at, s_c, f_c in kids:
            for li, srow in zip(at, s_c):
                arow = rows[li]
                for lj, v in zip(at, srow):
                    if v:
                        arow[lj] = ctx.add(arow[lj], v)
            for frow in f_c:
                for lj, v in zip(at, frow):
                    rows[c][lj] = rows[lj][c] = v
                c += 1
        s = DenseMatrix.from_entries(ctx, rows, size).schur()
        return _substep(transcript, s, ids, nf, len(iface), cutoff, node)

    s, f, carried = rec(td.root, root_iface)
    if gamma == 0 and (f or carried):
        raise InternalInvariantViolation("constraint rows survived the root")
    return transcript, *(DenseMatrix.from_entries(ctx, rows, gamma) for rows in (s, f))


@dataclass
class SparseLDLOutcome:
    transcript: Transcript
    order: Permutation  # post-order used (position -> original vertex)
    ntd: NormalizedTD
    rank: int
    peel_count: int
    explicit: LDLResult | None  # in original labels, when recovered


EXPLICIT_CORANK_FACTOR = 4


def _want_explicit(explicit: bool | None, corank: int, ntd: NormalizedTD) -> bool:
    """`explicit` if given, else whether the corank allows recovery (with a
    warning when it does not)."""
    if explicit is not None:
        return explicit
    threshold = EXPLICIT_CORANK_FACTOR * max(ntd.td.max_bag(), 1)
    if corank > threshold:
        warnings.warn(
            f"corank {corank} above the recovery threshold {threshold}; "
            "returning the implicit transcript only",
            stacklevel=3,
        )
    return corank <= threshold


def _factor_along(a: SparseSym, td, tau, cutoff):
    """Normalize `td` (greedy when None, else checked against the pattern
    of `a`), relabel `a` to its order and factor it along the tree.
    Returns (ntd, transcript)."""
    if td is None:
        td = greedy_td(a.n, a.edges())
    else:
        if td.n != a.n:
            raise DimensionMismatch(f"decomposition of {td.n} vertices for a pattern of {a.n}")
        report = validate_td(td, a.edges())
        if not report.ok:
            kind, what = report.violations[0][:2]
            raise InvalidDecomposition(f"not a tree decomposition of the matrix: {kind} {what}")
    ntd = normalize_td(td, tau)
    transcript, _, _ = tree_ldl(a.relabel(ntd.order), ntd, 0, cutoff)
    return ntd, transcript


def sparse_ldl(
    a: SparseSym,
    td=None,
    tau: int | None = None,
    cutoff=None,
    explicit: bool | None = None,
) -> SparseLDLOutcome:
    """Full pipeline: tree decomposition (greedy if absent, else checked
    against the pattern of `a`), normalization, tree factorization, and
    explicit recovery (`transcript_ldl`, P in a's labels) when the corank
    allows."""
    ntd, transcript = _factor_along(a, td, tau, cutoff)
    r = transcript.rank
    result = None
    if _want_explicit(explicit, a.n - r, ntd):
        result = labelled_ldl(explicit_ldl_from_transcript(transcript, a), ntd.order)
    return SparseLDLOutcome(transcript, ntd.order, ntd, r, transcript.peel_count, result)


# -- sparse LU through the symmetric embedding ------------------------------------


@dataclass
class SparseLUOutcome:
    transcript: Transcript
    order: Permutation
    ntd: NormalizedTD
    rank: int
    row_peels: int
    col_peels: int
    explicit: LUResult | None


def sparse_lu(
    b: DenseMatrix,
    td=None,
    tau: int | None = None,
    cutoff=None,
    explicit: bool | None = None,
) -> SparseLUOutcome:
    """Peeled implicit LU of a sparse rectangular matrix.

    Works on the H-symmetric bipartite embedding [[0, B^H], [B, 0]]
    (column vertices 0..n-1, row vertices n..n+m-1): every elimination is
    then an edge elimination across the bipartition and every peel stays
    on one side.  The explicit P B Q^T = L U is extracted when the corank
    permits, from the embedding's LDL in its labels: pair k is its columns
    2k and 2k + 1, the one whose P label is at least n is the row vertex's
    (L's column) and the other the column vertex's (U's row, scaled by the
    D entry that couples them), and P's tail holds the peeled rows and
    columns."""
    ctx = b.ctx
    m, n = b.nrows, b.ncols
    emb = SparseSym(ctx, n + m)
    for i, row in enumerate(b.to_lists()):
        for j, v in enumerate(row):
            if v:
                emb.set(j, n + i, v)
    ntd, transcript = _factor_along(emb, td, tau, cutoff)
    is_row = [v >= n for v in ntd.order.fwd]  # by post-order position
    for tf in transcript.transforms:
        if isinstance(tf, VertexElim):
            raise InternalInvariantViolation("vertex elimination on a zero-diagonal embedding")
        if isinstance(tf, EdgeElim) and is_row[tf.pivots[0]] == is_row[tf.pivots[1]]:
            raise InternalInvariantViolation("elimination does not cross the bipartition")
    r = len(transcript.dblocks)
    row_peels = sum(1 for p in transcript.peeled if is_row[p])
    col_peels = transcript.peel_count - row_peels
    lures = None
    if _want_explicit(explicit, max(m, n) - r, ntd):
        res = labelled_ldl(explicit_ldl_from_transcript(transcript, emb), ntd.order)
        lab, at = res.P.fwd, res.P.inv
        lcols, ucols = [], []
        for k in range(r):
            row_first = lab[2 * k] >= n
            lcols.append(2 * k + (not row_first))
            ucols.append(2 * k + row_first)
        rowv = [lab[c] for c in lcols] + [v for v in lab[2 * r :] if v >= n]
        colv = [lab[c] for c in ucols] + [v for v in lab[2 * r :] if v < n]
        lmat = res.L.take_rows([at[v] for v in rowv]).take_cols(lcols)
        erows = [at[v] for v in colv]
        ulists = []
        for c, blk in zip(ucols, res.D):
            col = res.L.column(c)
            ulists.append([ctx.mul(blk.a12, col[e]) if col[e] else ctx.zero for e in erows])
        umat = DenseMatrix.from_entries(ctx, ulists, n)
        lures = LUResult(Permutation([v - n for v in rowv]), Permutation(colv), lmat, umat, r)
    return SparseLUOutcome(transcript, ntd.order, ntd, r, row_peels, col_peels, lures)
