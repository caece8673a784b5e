import random
import re

import pytest

from exldl import factor, saddle, sparse
from exldl.dense import RIGHT, UPPER_UNIT, DenseMatrix, Permutation, matmul, tri_solve, vstack
from exldl.fields import (
    DimensionMismatch,
    InconsistentSystem,
    InternalInvariantViolation,
    InvalidDecomposition,
    NotInSpan,
)
from exldl.oracle import oracle_rank, oracle_verify_ldl, oracle_verify_lu
from exldl.sparse import (
    EdgeElim,
    L_TIMES,
    LH_TIMES,
    Peel,
    SOLVE_L,
    SparseSym,
    Transcript,
    VertexElim,
    _substep,
    apply_transcript,
    explicit_ldl_from_transcript,
    peel_vertex,
    sparse_ldl,
    sparse_lu,
    transcript_ldl,
    tree_ldl,
)
from exldl.treedec import TreeDecomposition, normalize_td

from conftest import ALL_FIELDS, GF2, GF7, QQ, rand_el, rand_matrix, rand_symmetric


# -- graph families ------------------------------------------------------------


def path_graph(ctx, n):
    a = SparseSym(ctx, n)
    for i in range(n - 1):
        a.set(i, i + 1, ctx.one)
    td = TreeDecomposition.build(
        n, [{i, i + 1} for i in range(n - 1)] or [{0}], [(i, i + 1) for i in range(n - 2)]
    )
    return a, td


def cycle_graph(ctx, n):
    a = SparseSym(ctx, n)
    for i in range(n):
        a.set(i, (i + 1) % n, ctx.one)
    bags = [{0, i, i + 1} for i in range(1, n - 1)]
    td = TreeDecomposition.build(n, bags, [(i, i + 1) for i in range(len(bags) - 1)])
    return a, td


def star_graph(ctx, n):
    a = SparseSym(ctx, n)
    for i in range(1, n):
        a.set(0, i, ctx.one)
    td = TreeDecomposition.build(
        n, [{0, i} for i in range(1, n)], [(0, i) for i in range(1, n - 1)]
    )
    return a, td


def grid_strip(ctx, w, length, rng=None):
    """w x length grid; vertex (r, c) -> c * w + r; sliding-window bags."""
    n = w * length
    a = SparseSym(ctx, n)

    def vid(r, c):
        return c * w + r

    for c in range(length):
        for r in range(w):
            if rng is None:
                val = ctx.one
            else:
                val = ctx.el(rng.randint(1, 6)) if ctx.kind != "gf2" else ctx.one
            if r + 1 < w:
                a.set(vid(r, c), vid(r + 1, c), val)
            if c + 1 < length:
                a.set(vid(r, c), vid(r, c + 1), val)
    bags = []
    for c in range(length - 1):
        for r in range(w):
            bag = {vid(rr, c) for rr in range(r, w)} | {vid(rr, c + 1) for rr in range(r + 1)}
            bags.append(bag)
    if not bags:
        bags = [set(range(n))]
    td = TreeDecomposition.build(n, bags, [(i, i + 1) for i in range(len(bags) - 1)])
    return a, td


def random_ktree_sym(ctx, rng, n, k):
    """Random bounded-treewidth symmetric matrix plus decomposition."""
    bags = [frozenset(range(k + 1))]
    edges = []
    graph_edges = {(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)}
    for v in range(k + 1, n):
        host = rng.randrange(len(bags))
        sub = rng.sample(sorted(bags[host]), k)
        bags.append(frozenset(sub + [v]))
        edges.append((host, len(bags) - 1))
        for u in sub:
            if rng.random() < 0.7:
                graph_edges.add((min(u, v), max(u, v)))
    td = TreeDecomposition.build(n, bags, edges)
    a = SparseSym(ctx, n)
    for u, v in sorted(graph_edges):
        if rng.random() < 0.9:
            val = ctx.one if ctx.kind == "gf2" else ctx.el(rng.randint(1, 6))
            a.set(u, v, val)
    for v in range(n):
        if rng.random() < 0.4:
            val = ctx.one if ctx.kind == "gf2" else ctx.el(rng.randint(1, 6))
            a.set(v, v, val)
    return a, td


def reference_recovery(t, apos, cutoff=1 << 30):
    """The recovery that `transcript_ldl` replaced: L1 read off the
    transforms, and the peeled rows X from X D L1^H = A's peeled-by-pivot
    block by a triangular solve, then D^-1.  The default cutoff, above
    every dimension, keeps the solve's products classical."""
    ctx, pivots, peeled = t.ctx, t.pivot_order, t.peeled
    r = len(pivots)
    pos = {p: k for k, p in enumerate(pivots)}
    cols = [col for tf in t.transforms if not isinstance(tf, Peel) for _, col in tf.columns()]
    l1 = DenseMatrix.identity(ctx, r)
    for k, col in enumerate(cols):
        for idx, val in col:
            if idx in pos:
                l1.set(pos[idx], k, val)
    l = l1
    if peeled:
        rhs = DenseMatrix.from_entries(ctx, [[apos.get(v, p) for p in pivots] for v in peeled], r)
        xd = tri_solve(l1.conj_transpose(), rhs, RIGHT, UPPER_UNIT, cutoff)
        l = vstack([l1, factor.d_mul_right(xd, factor.d_inverse(ctx, t.dblocks))])
    return factor.LDLResult(Permutation(pivots + peeled), l, list(t.dblocks), r)


def counted(ctx, fn, *args):
    """fn(*args) and the ops it charged."""
    counter = ctx.enable_counter()
    try:
        return fn(*args), counter.snapshot()
    finally:
        ctx.disable_counter()


def check_sparse_ldl(a, td, tau=None):
    out = sparse_ldl(a, td, tau=tau, explicit=True)
    t = out.transcript
    apos = a.relabel(out.order)
    rep = oracle_verify_ldl(apos, transcript_ldl(t))
    assert rep.ok, rep.first_violation
    assert t.peel_count == a.n - t.rank
    maxbag = out.ntd.td.max_bag()
    assert t.max_offdiag() <= 2 * maxbag
    res = out.explicit
    # the solve against A's entries gives the explicit LDL, up to the relabeling
    ref = reference_recovery(t, apos)
    assert ref.L == res.L and ref.D == res.D
    assert [out.order.fwd[p] for p in ref.P.fwd] == list(res.P.fwd)
    rep = oracle_verify_ldl(a.densify(), res)
    assert rep.ok, rep.first_violation
    return out


# -- transcript mechanics ---------------------------------------------------------


def test_identity_matrix_transcript(ctx):
    n = 6
    a = SparseSym(ctx, n)
    for i in range(n):
        a.set(i, i, ctx.one)
    td = TreeDecomposition.build(n, [{i} for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    out = sparse_ldl(a, td, explicit=True)
    assert out.rank == n
    x = rand_matrix(ctx, random.Random(1), n, 3)
    assert apply_transcript(out.transcript, x, L_TIMES) == x
    assert apply_transcript(out.transcript, x, LH_TIMES) == x


def test_apply_transcript_rejects_a_wrong_row_count_or_mode(ctx, rng):
    a, td = grid_strip(ctx, 2, 4, rng)
    t = sparse_ldl(a, td).transcript
    for mode, rows, msg in ((L_TIMES, t.rank + 1, "input rows must match the rank"),
                            (LH_TIMES, a.n - 1, "input rows must match the dimension"),
                            (SOLVE_L, a.n + 1, "input rows must match the dimension")):
        with pytest.raises(ValueError, match=msg):
            apply_transcript(t, DenseMatrix.zeros(ctx, rows, 2), mode)
    with pytest.raises(ValueError, match="unknown mode 'L_solve'"):
        apply_transcript(t, DenseMatrix.zeros(ctx, a.n, 2), "L_solve")


def test_apply_round_trip_expands_matrix(ctx, rng):
    a, td = grid_strip(ctx, 2, 6, rng)
    out = sparse_ldl(a, td, explicit=True)
    t = out.transcript
    apos = a.relabel(out.order)
    x = rand_matrix(ctx, rng, a.n, 4)
    from exldl.factor import d_dense

    lhx = apply_transcript(t, x, LH_TIMES)
    dl = matmul(d_dense(ctx, t.dblocks), lhx)
    ax = apply_transcript(t, dl, L_TIMES)
    assert ax == matmul(apos.densify(), x)


def test_solve_l_consistency(ctx, rng):
    a, td = grid_strip(ctx, 2, 5, rng)
    out = sparse_ldl(a, td)
    t = out.transcript
    y = rand_matrix(ctx, rng, t.rank, 2)
    x = apply_transcript(t, y, L_TIMES)
    assert apply_transcript(t, x, SOLVE_L) == y
    if t.rank < a.n:
        bad = x.copy()
        # perturb a peeled row: the system becomes inconsistent
        peeled_row = t.peeled[0]
        bad.set(peeled_row, 0, ctx.add(bad.get(peeled_row, 0), ctx.one))
        with pytest.raises(InconsistentSystem):
            apply_transcript(t, bad, SOLVE_L)


def test_zero_matrix_all_peels(ctx):
    n = 5
    a = SparseSym(ctx, n)
    td = TreeDecomposition.build(n, [set(range(n))], [])
    out = sparse_ldl(a, td, explicit=True)
    assert out.rank == 0
    assert out.peel_count == n
    assert all(isinstance(tf, Peel) and not tf.coeffs for tf in out.transcript.transforms)


# -- peel_vertex -------------------------------------------------------------------


def test_peel_vertex_copy_column():
    a = DenseMatrix.from_rows(GF7, [[1, 2, 1], [3, 1, 3], [0, 5, 0]])
    p = peel_vertex(a, 2, [0, 1])
    assert p.coeffs == ((0, 1),)


def test_peel_vertex_zero_column(ctx):
    a = DenseMatrix.zeros(ctx, 3, 3)
    p = peel_vertex(a, 1, [0, 2])
    assert p.coeffs == ()


def test_peel_vertex_not_in_span():
    a = DenseMatrix.from_rows(GF7, [[1, 0], [0, 1]])
    with pytest.raises(NotInSpan):
        peel_vertex(a, 1, [0])


def test_peel_vertex_rejects_a_column_outside_the_block(ctx):
    # the parent read a column past the last as zero over GF(2) and wrapped
    # a negative one over GF(p) and Q
    a = DenseMatrix.identity(ctx, 3)
    for target, basis, bad in ((3, [0], 3), (-1, [0], -1), (2, [-3], -3), (0, [1, 5], 5)):
        with pytest.raises(IndexError, match=re.escape(f"column {bad} out of range for 3x3")):
            peel_vertex(a, target, basis)


def test_peel_vertex_rejects_a_target_in_the_basis_or_a_repeated_column(ctx):
    # the parent peeled a vertex as a combination of itself
    a = DenseMatrix.from_rows(ctx, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    for target, basis in ((0, [0]), (2, [0, 1, 2]), (1, [0, 0, 1]), (2, [0, 1, 1]), (2, [1, 1])):
        with pytest.raises(ValueError, match="repeats a column or holds the target"):
            peel_vertex(a, target, basis)
    assert peel_vertex(a, 2, [0, 1]) == Peel(2, ((0, ctx.one), (1, ctx.one)))


def test_peel_vertex_combination(rng):
    """Columns g0, g1, g0 + 2 g1, g2 (independent g's), a target in their
    span and one outside it, over every field: the dependent basis column
    is peeled and dropped, so the coefficients are on g0, g1 and g2 alone."""
    for ctx in ALL_FIELDS:
        _check_peel_vertex_combination(ctx, rng)


def _check_peel_vertex_combination(ctx, rng):
    m = 6
    g = rand_matrix(ctx, rng, m, 3).to_lists()
    for i in range(3):
        g[i][:i + 1] = [ctx.zero] * i + [ctx.one]

    def comb(coeff):
        out = []
        for row in g:
            acc = ctx.zero
            for s, c in enumerate(coeff):
                acc = ctx.add(acc, ctx.mul(ctx.el(c), row[s]))
            out.append(acc)
        return out

    outside = [rand_el(ctx, rng) for _ in range(m)]
    while oracle_rank(DenseMatrix.from_rows(ctx, [row + [v] for row, v in zip(g, outside)])) < 4:
        outside = [rand_el(ctx, rng) for _ in range(m)]
    coeff = [2, 0, 5]
    cols = [[row[0] for row in g], [row[1] for row in g], comb([1, 2, 0]), [row[2] for row in g],
            comb(coeff), outside]
    a = DenseMatrix.from_rows(ctx, [list(r) for r in zip(*cols)])
    p = peel_vertex(a, 4, [0, 1, 2, 3])
    want = tuple((idx, ctx.el(c)) for idx, c in zip((0, 1, 3), coeff) if not ctx.is_zero(ctx.el(c)))
    assert p == Peel(4, want)
    for basis in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [2, 1, 3]):
        p = peel_vertex(a, 4, basis)
        assert {idx for idx, _ in p.coeffs} <= set(basis)
        got = [ctx.zero] * m
        for idx, val in p.coeffs:
            got = [ctx.add(x, ctx.mul(val, a.get(i, idx))) for i, x in enumerate(got)]
        assert got == cols[4]
        with pytest.raises(NotInSpan):
            peel_vertex(a, 5, basis)
    with pytest.raises(NotInSpan):
        peel_vertex(a, 5, [])


# -- star graph (peeling-heavy) ---------------------------------------------------


def test_star_graph_small_transforms():
    for ctx in (GF2, GF7):
        a, td = star_graph(ctx, 6)
        out = check_sparse_ldl(a, td)
        t = out.transcript
        assert out.rank == 2
        assert t.peel_count == 4
        peels = [tf for tf in t.transforms if isinstance(tf, Peel)]
        elims = [tf for tf in t.transforms if not isinstance(tf, Peel)]
        # all but the last peel express one leaf through another
        assert sum(1 for tf in peels if len(tf.coeffs) == 1) >= len(peels) - 1
        for tf in t.transforms:
            from exldl.sparse import _offdiag_count

            assert _offdiag_count(tf) <= 1
        assert len(elims) == 1 and isinstance(elims[0], EdgeElim)


def test_transform_histogram_and_runs():
    a, td = star_graph(GF7, 6)
    t = sparse_ldl(a, td).transcript
    kinds = ["peel" if isinstance(tf, Peel) else "elim" for tf in t.transforms]
    hist = t.kind_histogram()
    assert list(hist) == ["vertex_elim", "edge_elim", "peel", "permute"]
    assert hist["permute"] == 0
    assert hist["peel"] == kinds.count("peel") == 4
    assert hist["vertex_elim"] + hist["edge_elim"] == kinds.count("elim")
    runs = 1 + sum(1 for x, y in zip(kinds, kinds[1:]) if x != y)
    assert t.homogeneous_blocks() == runs


def test_star_graph_explicit_recovery():
    a, td = star_graph(GF2, 8)
    out = sparse_ldl(a, td, explicit=True)
    assert out.rank == 2
    assert out.explicit.L.ncols == 2
    assert out.explicit.L.nrows == 8
    rep = oracle_verify_ldl(a.densify(), out.explicit)
    assert rep.ok, rep.first_violation


# -- tree LDL families --------------------------------------------------------------


def test_single_bag_dense_equivalence(ctx, rng):
    n = 7
    dense = rand_symmetric(ctx, rng, n)
    a = SparseSym(ctx, n)
    for i in range(n):
        for j in range(i, n):
            a.set(i, j, dense.get(i, j))
    td = TreeDecomposition.build(n, [set(range(n))], [])
    out = check_sparse_ldl(a, td)
    assert out.rank == oracle_rank(dense)


def test_path_graph_gf2_32():
    a, td = path_graph(GF2, 32)
    out = check_sparse_ldl(a, td)
    assert out.rank == oracle_rank(a.densify())
    # path adjacency: every D block pairs two vertices
    assert all(b.kind == "antidiag" for b in out.transcript.dblocks)


def test_families_all_reconstruct():
    rng = random.Random(6)
    for ctx in (GF2, GF7):
        for a, td in (
            path_graph(ctx, 17),
            cycle_graph(ctx, 12),
            grid_strip(ctx, 2, 7, rng),
            grid_strip(ctx, 3, 5, rng),
        ):
            out = check_sparse_ldl(a, td)
            assert out.rank == oracle_rank(a.densify())


def test_block_diagonal_split_children(ctx, rng):
    # two components in separate child subtrees: no cross terms
    a = SparseSym(ctx, 6)
    a.set(0, 1, ctx.one)
    a.set(2, 3, ctx.one)
    a.set(4, 5, ctx.one)
    td = TreeDecomposition.build(
        6, [{4, 5}, {0, 1, 4}, {2, 3, 5}], [(0, 1), (0, 2)]
    )
    out = check_sparse_ldl(a, td)
    assert out.rank == 6


def test_random_ktrees_reconstruct():
    rng = random.Random(8)
    for ctx in (GF2, GF7):
        for _ in range(6):
            n = rng.randint(10, 48)
            k = rng.randint(1, 4)
            a, td = random_ktree_sym(ctx, rng, n, k)
            out = check_sparse_ldl(a, td)
            assert out.rank == oracle_rank(a.densify())


def test_rank_deficient_corank(ctx, rng):
    # duplicate a column pattern to force peeling
    a = SparseSym(ctx, 8)
    for i in range(6):
        a.set(i, 6, ctx.one)
        a.set(i, 7, ctx.one)
    td = TreeDecomposition.build(8, [set(range(8))], [])
    out = check_sparse_ldl(a, td)
    assert out.peel_count == 8 - out.rank


def substep(a, b, gamma):
    """One bag step on local indices 0..dim(a)-1, the constraint rows
    numbered above them: (transforms, S, F), S and F as matrices."""
    n = a.nrows + b.nrows
    t = Transcript(a.ctx, n)
    work = saddle.SaddleSystem(a, b).dense().schur()
    s, f, _ = _substep(t, work, list(range(n)), a.nrows, gamma, a.ctx.default_cutoff, 0)
    return t.transforms, DenseMatrix.from_entries(a.ctx, s, gamma), DenseMatrix.from_entries(a.ctx, f, gamma)


def test_substep_public_surface(ctx, rng):
    # B empty, A full rank: plain dense partial factorization
    n = 6
    while True:
        a = rand_symmetric(ctx, rng, n)
        if oracle_rank(a) == n:
            break
    tfs, s, f = substep(a, DenseMatrix.zeros(ctx, 0, n), 2)
    assert f.nrows == 0
    assert s.shape == (2, 2)
    assert sum(1 for tf in tfs if not isinstance(tf, Peel)) > 0
    # B = identity: every eliminable row is complemented
    b = DenseMatrix.identity(ctx, n)
    tfs, s, f = substep(a, b, 0)
    assert all(isinstance(tf, (EdgeElim, VertexElim, Peel)) for tf in tfs)


@pytest.mark.parametrize("flat", [True, False])
def test_bag_step_invariant_errors_name_the_step_and_sizes(flat, monkeypatch):
    # An LU elimination whose third call in the bag (the LU of step 2's
    # pivot rows, after step 1's and step 2's first) loses a pivot makes the
    # bag step see its complementation rank drift, on either path.  Every
    # one of these blocks is within the base rule `factor._flat`, so each LU
    # is one `_lu_rows` call: the bag step's own, or fast_lu's where the bag
    # step's `_flat` is patched off.
    real, calls = factor._lu_rows, []

    def drifting(s, m, n, pad=0):
        order, q, cols = real(s, m, n, pad)
        calls.append((m, n))
        return (order, q, cols) if len(calls) != 3 else (order, q, cols[:-1])

    monkeypatch.setattr(sparse, "_lu_rows", drifting)
    monkeypatch.setattr(factor, "_lu_rows", drifting)
    if not flat:
        monkeypatch.setattr(sparse, "_flat", lambda n, cutoff: False)
    a = DenseMatrix.from_rows(GF7, [[1, 2, 0], [2, 0, 3], [0, 3, 1]])
    b = DenseMatrix.from_rows(GF7, [[1, 0, 4]])
    what = "bag step 2: complementation rank drifted (node=0, nf=3, k=1, gamma=1, r1=1)"
    with pytest.raises(InternalInvariantViolation, match=re.escape(what)):
        substep(a, b, 1)
    assert len(calls) == 3


def test_tree_ldl_gamma_partial(ctx, rng):
    a, td = grid_strip(ctx, 2, 5, rng)
    ntd = normalize_td(td)
    apos = a.relabel(ntd.order)
    gamma = min(2, len(ntd.td.bags[ntd.td.root]))
    transcript, s, f = tree_ldl(apos, ntd, gamma)
    # untouched trailing block: no transform references the last gamma ids
    touched = set()
    for tf in transcript.transforms:
        if isinstance(tf, Peel):
            touched.add(tf.target)
        elif isinstance(tf, VertexElim):
            touched.add(tf.pivot)
        else:
            touched.update(tf.pivots)
    assert all(v < a.n - gamma for v in touched)
    assert s.shape == (gamma, gamma)


# -- sparse LU ----------------------------------------------------------------------


def bidiagonal(ctx, m, n, rng=None):
    b = DenseMatrix.zeros(ctx, m, n)
    for i in range(m):
        for j in (i, i + 1):
            if j < n:
                val = ctx.one if (rng is None or ctx.kind == "gf2") else ctx.el(rng.randint(1, 6))
                b.set(i, j, val)
    return b


def test_sparse_lu_identity(ctx):
    b = DenseMatrix.identity(ctx, 5)
    out = sparse_lu(b, explicit=True)
    assert out.rank == 5
    res = out.explicit
    rep = oracle_verify_lu(b, res, structural=False)
    assert rep.ok, rep.first_violation


def test_sparse_lu_bidiagonal_gf2_32():
    b = bidiagonal(GF2, 32, 32)
    out = sparse_lu(b, explicit=True)
    assert out.rank == oracle_rank(b)
    rep = oracle_verify_lu(b, out.explicit, structural=False)
    assert rep.ok, rep.first_violation


def test_sparse_lu_duplicated_row(ctx, rng):
    b = bidiagonal(ctx, 4, 5, rng)
    rows = b.to_lists()
    b2 = DenseMatrix.from_rows(ctx, rows + [rows[1]])
    out = sparse_lu(b2, explicit=True)
    assert out.row_peels == 1
    rep = oracle_verify_lu(b2, out.explicit, structural=False)
    assert rep.ok, rep.first_violation


def test_sparse_lu_random_banded():
    rng = random.Random(10)
    for ctx in (GF2, GF7):
        for m, n in ((10, 14), (16, 12), (20, 20)):
            b = DenseMatrix.zeros(ctx, m, n)
            for i in range(m):
                for j in range(max(0, i - 2), min(n, i + 3)):
                    if rng.random() < 0.7:
                        b.set(i, j, ctx.one if ctx.kind == "gf2" else ctx.el(rng.randint(1, 6)))
            out = sparse_lu(b, explicit=True)
            assert out.rank == oracle_rank(b)
            rep = oracle_verify_lu(b, out.explicit, structural=False)
            assert rep.ok, rep.first_violation


# -- explicit recovery --------------------------------------------------------------


def test_explicit_from_transcript_treewidth3_corank2():
    rng = random.Random(14)
    a, td = random_ktree_sym(GF7, rng, 40, 3)
    # plant two dependent rows by zeroing: easier to just verify whatever corank
    out = sparse_ldl(a, td, explicit=True)
    rep = oracle_verify_ldl(a.densify(), out.explicit)
    assert rep.ok, rep.first_violation


def diagonal_blocks(ctx, count):
    """`count` diagonal 2 x 2 blocks of rank 1."""
    return SparseSym.from_entries(
        ctx, 2 * count, [(i, j, 1) for b in range(count) for i, j in
                         ((2 * b, 2 * b), (2 * b, 2 * b + 1), (2 * b + 1, 2 * b + 1))])


def recovery_cases():
    rng = random.Random(26)
    for ctx in (GF2, GF7, QQ):
        for n, k in ((30, 2), (60, 3), (90, 5), (120, 4)):
            a, td = random_ktree_sym(ctx, rng, n, k)
            yield ctx, a, td
    for ctx in (GF2, GF7, QQ):
        yield ctx, diagonal_blocks(ctx, 32), None  # leaves of exactly _TRI_BASE columns
    for ctx in (GF7, QQ):
        yield ctx, diagonal_blocks(ctx, 200), None


def test_recovery_matches_the_solve_against_a():
    # P, L, D and the ops charged are the reference's: a solve against A's
    # entries with classical products, on k-trees with peels (ranks above
    # and below the base-case solve) and on 32 and 200 rank-1 blocks
    peels = 0
    for ctx, a, td in recovery_cases():
        out = sparse_ldl(a, td, explicit=False)
        t, apos = out.transcript, a.relabel(out.order)
        got, ops = counted(ctx, explicit_ldl_from_transcript, t, apos)
        want, want_ops = counted(ctx, reference_recovery, t, apos)
        assert (got.P, got.L, got.D, got.r) == (want.P, want.L, want.D, want.r)
        assert ops == want_ops
        # the route reads no entry of A
        assert explicit_ldl_from_transcript(t, SparseSym(ctx, a.n)).L == got.L
        peels += t.peel_count if td else 0
        if a.n == 400:
            assert (t.rank, t.peel_count) == (200, 200)
            assert ops == {"add": 3749600, "mul": 3789600, "inv": 200}
            # at the default cutoff the solve's top products were Strassen's
            strassen = counted(ctx, reference_recovery, t, apos, None)
            assert strassen == (want, {"add": 3574600, "mul": 3539600, "inv": 200})
    assert peels >= 80


def test_recovery_charges_the_solved_columns_of_x_d(ctx):
    # one peel of the first vertex of a pair that straddles the solve's
    # first split, columns 15 and 16 of 32: X has its nonzero in column 15
    # and X D in column 16, which the GF(2) product charge reads
    t = Transcript(ctx, 33)
    t.append(Peel(32, ((15, ctx.one),)))
    t.append(VertexElim(0, (), factor.DBlock.scalar(ctx.one)))
    for v in range(1, 31, 2):
        t.append(EdgeElim((v, v + 1), (), (), factor.DBlock.antidiag(ctx.one, ctx.one)))
    t.append(VertexElim(31, (), factor.DBlock.scalar(ctx.one)))
    res = transcript_ldl(t)
    a = matmul(matmul(res.L, res.d_dense()), res.L.conj_transpose()).to_lists()
    apos = SparseSym.from_entries(ctx, 33, [(i, j, v) for i, row in enumerate(a)
                                            for j, v in enumerate(row) if i <= j and v])
    got, ops = counted(ctx, explicit_ldl_from_transcript, t, apos)
    want, want_ops = counted(ctx, reference_recovery, t, apos)
    assert (got, ops) == (want, want_ops)


def test_corank_warning():
    a, td = star_graph(GF2, 40)
    with pytest.warns(UserWarning):
        out = sparse_ldl(a, td, tau=2)
    assert out.explicit is None
    assert out.rank == 2


def test_decomposition_size_must_match():
    a, td = path_graph(GF7, 6)
    small = TreeDecomposition.build(5, td.bags[:4], [(i, i + 1) for i in range(3)])
    with pytest.raises(DimensionMismatch):
        sparse_ldl(a, small)
    with pytest.raises(DimensionMismatch):
        sparse_lu(bidiagonal(GF7, 3, 4), td)
    # tree_ldl left vertices 3 and 4 neither pivoted nor peeled
    diagonal = SparseSym.from_entries(GF7, 5, [(i, i, 1) for i in range(5)])
    three = normalize_td(TreeDecomposition.build(3, [{0, 1, 2}], []))
    with pytest.raises(DimensionMismatch, match="decomposition of 3 vertices for a pattern of 5"):
        tree_ldl(diagonal, three)
    # a larger one raised a bare IndexError
    with pytest.raises(DimensionMismatch, match="decomposition of 6 vertices for a pattern of 5"):
        tree_ldl(diagonal, normalize_td(td))


def test_transcript_entry_points_reject_another_field_or_size():
    a, td = path_graph(GF7, 3)
    t = sparse_ldl(a, td).transcript
    with pytest.raises(DimensionMismatch, match="mixed field contexts"):
        apply_transcript(t, DenseMatrix.identity(GF2, 3), LH_TIMES)
    with pytest.raises(DimensionMismatch, match="transcript of 3 vertices for a matrix of 4"):
        explicit_ldl_from_transcript(t, SparseSym(GF7, 4))
    with pytest.raises(DimensionMismatch, match="mixed field contexts"):
        explicit_ldl_from_transcript(t, SparseSym.from_entries(QQ, 3, [(0, 1, 1), (1, 2, 1)]))


@pytest.mark.parametrize(
    "bags",
    [
        [{1}, {0}, {2}],  # edge (0, 1) in no bag: factored as rank 1 with 2 peels
        [{1}, {0}, {0}],  # vertex 0 has two highest bags
    ],
)
def test_rejects_decomposition_of_another_pattern(bags):
    a = SparseSym.from_entries(GF7, 3, [(0, 1, 1), (1, 1, 2)])
    td = TreeDecomposition.build(3, bags, [(0, 1), (0, 2)])
    with pytest.raises(InvalidDecomposition):
        sparse_ldl(a, td)


def test_tree_ldl_rejects_an_entry_in_no_bag():
    # the 4-cycle 0-1-2-3-0 along the path {0, 1}, {1, 2}, {2, 3}: no bag
    # holds the edge (0, 3), so the matrix factored would lack it
    a = SparseSym.from_entries(GF7, 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
                               + [(v, v, 2) for v in range(4)])
    td = TreeDecomposition.build(4, [{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
    ntd = normalize_td(td)
    p, q = ntd.order.inv[0], ntd.order.inv[3]
    what = f"entry ({min(p, q)}, {max(p, q)}) is in no bag"
    with pytest.raises(InvalidDecomposition, match=re.escape(what)):
        tree_ldl(a.relabel(ntd.order), ntd)


def test_sparse_lu_rejects_decomposition_of_another_pattern():
    # the embedding edges (2, 6) and (3, 6) of row 2 are in no bag
    td = TreeDecomposition.build(7, [set(range(6)), {6}], [(0, 1)])
    with pytest.raises(InvalidDecomposition):
        sparse_lu(bidiagonal(GF7, 3, 4), td)


def test_normalize_rejects_two_highest_bags():
    td = TreeDecomposition.build(3, [{1}, {0}, {0}], [(0, 1), (0, 2)])
    with pytest.raises(InvalidDecomposition):
        normalize_td(td)


def test_sparse_sym_rejects_an_index_out_of_range():
    for entry in [(3, 0, 1), (0, 3, 1), (-1, 0, 4), (0, -1, 4)]:
        with pytest.raises(IndexError, match=re.escape(f"entry ({entry[0]}, {entry[1]}) out of range")):
            SparseSym.from_entries(GF7, 3, [(0, 0, 1), entry])
    # get too: a negative index would read row n - 1, one past the end zero
    a = SparseSym.from_entries(GF7, 3, [(0, 0, 1), (2, 2, 5), (0, 2, 3)])
    for i, j in ((-1, 2), (2, -1), (3, 0), (0, 3)):
        with pytest.raises(IndexError, match=re.escape(f"entry ({i}, {j}) out of range for 3 rows")):
            a.get(i, j)
    assert [a.get(2, 2), a.get(2, 0), a.get(1, 1)] == [GF7.el(5), GF7.el(3), GF7.zero]


def test_sparse_sym_from_entries_rejects_conflicting_values(ctx):
    for entries in ([(0, 1, 2), (1, 0, 5)], [(0, 1, 2), (0, 1, 5)], [(2, 2, 1), (2, 2, 2)]):
        i, j, _ = entries[1]
        with pytest.raises(ValueError, match=re.escape(f"conflicting values at ({i}, {j})")):
            SparseSym.from_entries(ctx, 3, entries)
    a = SparseSym.from_entries(ctx, 3, [(0, 1, 2), (1, 0, 2), (1, 1, 0), (1, 1, 0)])
    assert a.get(1, 0) == a.get(0, 1) == ctx.el(2)
    a.set(0, 1, ctx.el(5))
    assert a.get(1, 0) == ctx.el(5)


def test_tree_ldl_rejects_gamma_outside_the_root_bag():
    a = SparseSym.from_entries(GF7, 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)] + [(v, v, 2) for v in range(4)])
    ntd = normalize_td(TreeDecomposition.build(4, [{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)]))
    apos = a.relabel(ntd.order)
    size = len(ntd.td.bags[ntd.td.root])
    assert size == 2
    for gamma in (size + 1, -1):
        with pytest.raises(ValueError, match=re.escape(f"gamma {gamma} outside 0..{size}")):
            tree_ldl(apos, ntd, gamma)
    assert tree_ldl(apos, ntd, size)[1].shape == (size, size)


def test_tree_ldl_rejects_a_cutoff_below_one():
    # checked up front: a single-vertex bag makes no LU that would check it
    a = SparseSym.from_entries(GF7, 1, [(0, 0, 3)])
    ntd = normalize_td(TreeDecomposition.build(1, [{0}], []))
    for cutoff in (0, -2):
        with pytest.raises(ValueError, match=f"Strassen cutoff must be at least 1, got {cutoff}"):
            tree_ldl(a, ntd, 0, cutoff)
    assert tree_ldl(a, ntd, 0, 1)[0].rank == 1


def test_apply_cost_scales_linearly():
    # field ops of one transcript application stay within c * n * tau * cols,
    # with c fitted from the n = 64 baseline
    from exldl.fields import op_count_snapshot

    cols = 3

    def measure(n):
        a, td = path_graph(GF7, n)
        out = sparse_ldl(a, td, explicit=False)
        x = rand_matrix(GF7, random.Random(1), out.rank, cols)
        GF7.enable_counter()
        apply_transcript(out.transcript, x, L_TIMES)
        snap = op_count_snapshot(GF7)
        GF7.disable_counter()
        tau = out.ntd.tau
        return (snap["add"] + snap["mul"]) / (n * tau * cols)

    c = measure(64)
    for n in (128, 256):
        assert measure(n) <= 2 * c


def test_sparse_lu_rank_agrees_with_fast_lu(rng):
    from exldl.factor import fast_lu

    b = bidiagonal(GF7, 12, 15, rng)
    rows = b.to_lists()
    rows[4] = rows[3]
    b = DenseMatrix.from_rows(GF7, rows)
    out = sparse_lu(b, explicit=False)
    assert out.rank == fast_lu(b).r == oracle_rank(b)


def test_identity_bordered_block_stays_sparse(rng):
    # a full-rank leading block bordered by an identity behind a zero block:
    # the border rows ride along as constraint rows, so no transform column
    # ever densifies beyond the bag bound
    k = 4
    while True:
        a11 = rand_symmetric(GF7, rng, k)
        a21 = rand_matrix(GF7, rng, k, k)
        if oracle_rank(a11) == k and oracle_rank(a21) == k:
            break
    n = 3 * k
    big = SparseSym(GF7, n)
    for i in range(k):
        for j in range(k):
            if i <= j:
                big.set(i, j, a11.get(i, j))
            big.set(i, k + j, a21.get(j, i))
        big.set(i, 2 * k + i, GF7.one)
    blk1 = set(range(k))
    td = TreeDecomposition.build(
        n,
        [blk1, blk1 | set(range(2 * k, 3 * k)), blk1 | set(range(k, 2 * k))],
        [(0, 1), (0, 2)],
    )
    out = check_sparse_ldl(big, td)
    assert out.transcript.max_offdiag() <= 2 * out.ntd.td.max_bag()
    assert out.rank == oracle_rank(big.densify())


@pytest.mark.parametrize("rank", [3, 20], ids=["base-solve", "recursive-solve"])
@pytest.mark.parametrize("cutoff", [None, 2])
def test_peel_dependent_matches_a_solve_per_dependent(ctx, rank, cutoff, monkeypatch):
    # The peels, and the ops charged for them, are those of fast_lu and one
    # triangular solve per dependent row, on either route of the LU: on the
    # working copy (`_lu_rows`, the 7-row block at the default cutoff) or
    # through fast_lu (at cutoff 2, and for 24 rows), and whether the rank is
    # within the base-case solve (one solve for all dependents) or above it.
    from exldl.dense import LEFT, UPPER, tri_solve
    from exldl.factor import fast_lu
    from exldl.sparse import Transcript, _peel_dependent

    rng = random.Random(rank)
    base = rand_matrix(ctx, rng, rank, rank + 4).to_lists()
    rows = base + [[ctx.add(x, y) for x, y in zip(base[i], base[i - 1])] for i in range(3)]
    rows = DenseMatrix.from_rows(ctx, rows)
    ids = list(range(100, 100 + rows.nrows))
    lus = []
    monkeypatch.setattr(sparse, "fast_lu", lambda a, c: lus.append(a) or fast_lu(a, c))
    counter = ctx.enable_counter()
    try:
        t = Transcript(ctx, 200)
        keep = _peel_dependent(t, rows.conj_transpose().schur(), rows.ncols, ids,
                               cutoff or ctx.default_cutoff)
        got = (t.transforms, rows.take_rows(keep), [ids[s] for s in keep], counter.snapshot())
        counter.reset()
        lu = fast_lu(rows.conj_transpose(), cutoff)
        r, q = lu.r, lu.Q.fwd
        peels = []
        for c in range(r, len(ids)):
            x = tri_solve(lu.U.block(0, r, 0, r), lu.U.block(0, r, c, c + 1), LEFT, UPPER)
            coeffs = tuple((ids[q[s]], x.get(s, 0)) for s in range(r) if x.get(s, 0))
            peels.append(Peel(ids[q[c]], coeffs))
        keep = sorted(q[:r])
        want = (peels, rows.take_rows(keep), [ids[s] for s in keep], counter.snapshot())
    finally:
        ctx.disable_counter()
    assert r == oracle_rank(rows) and len(peels) >= 3
    assert len(lus) == (0 if (rank, cutoff) == (3, None) else 1)
    assert got == want
