import itertools
import random
from zlib import crc32

import pytest

from exldl import factor
from exldl.dense import LEFT, LOWER_UNIT, DenseMatrix, matmul, tri_solve
from exldl.factor import (
    DBlock,
    d_dense,
    edge_eliminate,
    fast_ldl,
    fast_lu,
    inertia_from_D,
    natural_order_ldl,
    vertex_eliminate,
)
from exldl.fields import FieldContext, SingularPivot, UnorderedField, ZeroPivot, op_count_snapshot
from exldl.oracle import oracle_rank, oracle_verify_ldl, oracle_verify_lu
from exldl.saddle import SaddleSystem, schilders_partial_ldl
from exldl.sparse import SparseSym, sparse_ldl, sparse_lu, tree_ldl
from exldl.treedec import TreeDecomposition, normalize_td

from conftest import GF2, GF7, GF1009, QQ, rand_el, rand_matrix, rand_symmetric


def reconstruct_ldl(res, n):
    l, d = res.L, res.d_dense()
    return matmul(matmul(l, d), l.conj_transpose())


# -- elimination primitives ------------------------------------------------


def test_vertex_eliminate_1x1_gf2():
    a = DenseMatrix.from_rows(GF2, [[1]])
    l, d, s = vertex_eliminate(a, 0)
    assert l.to_lists() == [[1]]
    assert d == 1
    assert s.shape == (0, 0)


def test_vertex_eliminate_gf7_hand():
    a = DenseMatrix.from_rows(GF7, [[2, 1], [1, 3]])
    l, d, s = vertex_eliminate(a, 0)
    assert d == 2
    assert l.to_lists() == [[1], [4]]
    assert s.to_lists() == [[6]]


def test_vertex_eliminate_diagonal():
    a = DenseMatrix.from_rows(GF7, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    l, d, s = vertex_eliminate(a, 0)
    assert l.to_lists() == [[1], [0], [0]]
    assert s.to_lists() == [[3, 0], [0, 5]]


def test_vertex_eliminate_zero_pivot():
    a = DenseMatrix.from_rows(GF7, [[0, 1], [1, 3]])
    with pytest.raises(ZeroPivot):
        vertex_eliminate(a, 0)


def test_edge_eliminate_gf2_all_ones_offdiag():
    a = DenseMatrix.from_rows(GF2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    ee = edge_eliminate(a, 0, 1)
    assert ee.cols.to_lists() == [[1, 0], [0, 1], [1, 1]]
    assert len(ee.blocks) == 1
    assert ee.blocks[0].kind == "antidiag"
    assert (ee.blocks[0].a12, ee.blocks[0].a21) == (1, 1)
    assert ee.s.to_lists() == [[0]]


def test_edge_eliminate_antidiag_2x2():
    for ctx in (GF2, GF7, QQ):
        a = DenseMatrix.from_rows(ctx, [[0, 1], [1, 0]])
        ee = edge_eliminate(a, 0, 1)
        assert ee.cols == DenseMatrix.identity(ctx, 2)
        assert ee.blocks[0].kind == "antidiag"
        assert ee.s.shape == (0, 0)


def test_edge_eliminate_singular_pivot():
    a = DenseMatrix.from_rows(GF7, [[0, 0], [0, 0]])
    with pytest.raises(SingularPivot):
        edge_eliminate(a, 0, 1)


def test_zero_diag_pivot_inverse_structure():
    # [[0, a12],[a21, a22]]^(-1) has a zero (2,2) entry.
    ctx = GF7
    a12, a21, a22 = 3, 3, 5
    det = ctx.sub(ctx.mul(0, a22), ctx.mul(a12, a21))
    dinv = ctx.inv(det)
    b22 = ctx.mul(dinv, 0)  # cofactor of a22 position is a11 = 0
    assert ctx.is_zero(b22)


def test_edge_eliminate_normalizes_nonzero_diagonal(rng):
    # One nonzero diagonal entry: the pair becomes two scalar blocks.
    a = DenseMatrix.from_rows(GF7, [[0, 2, 1], [2, 3, 0], [1, 0, 4]])
    ee = edge_eliminate(a, 0, 1)
    assert [b.kind for b in ee.blocks] == ["scalar", "scalar"]
    assert ee.pivots == (1, 0)
    # reconstruction over the involved rows
    n = 3
    d = d_dense(GF7, ee.blocks)
    contrib = matmul(matmul(ee.cols, d), ee.cols.conj_transpose())
    rest = [2]
    for ri, r in enumerate(rest):
        for ci, c in enumerate(rest):
            assert GF7.sub(a.get(r, c), contrib.get(r, c)) == ee.s.get(ri, ci)


# -- base and fast LDL -------------------------------------------------------


def all_symmetric_gf2(n):
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    for bits in itertools.product([0, 1], repeat=len(pos)):
        a = DenseMatrix.zeros(GF2, n, n)
        for (i, j), b in zip(pos, bits):
            if b:
                a.set(i, j, 1)
                a.set(j, i, 1)
        yield a


def test_base_ldl_exhaustive_gf2_3x3():
    for a in all_symmetric_gf2(3):
        res = fast_ldl(a)
        rep = oracle_verify_ldl(a, res)
        assert rep.ok, rep.first_violation


def test_base_ldl_trivial_cases():
    assert fast_ldl(DenseMatrix.from_rows(GF7, [[0]])).r == 0
    res = fast_ldl(DenseMatrix.from_rows(GF7, [[0, 0], [0, 5]]))
    assert res.r == 1
    assert res.P.fwd[0] == 1
    assert res.D[0].d == 5


def test_fast_ldl_zero_matrix(ctx):
    for n in (1, 4, 9):
        res = fast_ldl(DenseMatrix.zeros(ctx, n, n))
        assert res.r == 0
        assert oracle_verify_ldl(DenseMatrix.zeros(ctx, n, n), res).ok


def test_fast_ldl_antidiag_gf2():
    a = DenseMatrix.from_rows(GF2, [[0, 1], [1, 0]])
    res = fast_ldl(a)
    assert res.r == 2
    assert res.P.is_identity()
    assert res.L == DenseMatrix.identity(GF2, 2)
    assert res.D[0].kind == "antidiag"


def test_fast_ldl_gf7_3x3():
    a = DenseMatrix.from_rows(GF7, [[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    res = fast_ldl(a)
    assert res.r == 3
    assert oracle_verify_ldl(a, res).ok


def test_fast_ldl_random_all_fields(ctx, rng):
    for n in (4, 5, 7, 10, 13):
        a = rand_symmetric(ctx, rng, n)
        res = fast_ldl(a)
        rep = oracle_verify_ldl(a, res)
        assert rep.ok, rep.first_violation


def test_fast_ldl_planted_rank_gf2():
    from conftest import planted_symmetric

    rng = random.Random(4)
    a = planted_symmetric(GF2, rng, 60, 40)
    res = fast_ldl(a)
    assert res.r == oracle_rank(a)
    assert oracle_verify_ldl(a, res).ok


def test_fast_ldl_rank_deficient_all_fields(ctx, rng):
    from conftest import planted_symmetric

    for n, k in ((8, 3), (12, 7), (15, 1)):
        a = planted_symmetric(ctx, rng, n, k)
        res = fast_ldl(a)
        rep = oracle_verify_ldl(a, res)
        assert rep.ok, rep.first_violation


# -- fast LU -------------------------------------------------------------------


def test_fast_lu_zero(ctx):
    for m, n in ((1, 1), (3, 5), (4, 2)):
        a = DenseMatrix.zeros(ctx, m, n)
        res = fast_lu(a)
        assert res.r == 0
        assert res.P.is_identity() and res.Q.is_identity()


def test_fast_lu_single_pivot():
    a = DenseMatrix.from_rows(GF7, [[0, 1], [0, 0]])
    res = fast_lu(a)
    assert res.r == 1
    assert res.Q.fwd == (1, 0)
    assert res.L.to_lists() == [[1], [0]]
    assert res.U.to_lists() == [[1, 0]]
    assert oracle_verify_lu(a, res).ok


def test_fast_lu_pivots_on_first_nonzero_in_current_column_order():
    # Each pivot is the first nonzero in the column order left by the
    # earlier pivots, swapped into place: column 0 moves to position 2 at
    # the first pivot and comes back to position 1 at the second.
    a = DenseMatrix.from_rows(GF7, [[0, 0, 2, 1], [1, 0, 0, 0], [0, 4, 0, 0]])
    for cutoff in (None, 1):
        res = fast_lu(a, cutoff)
        assert res.Q.fwd == (2, 0, 1, 3)
        assert res.P.fwd == (0, 1, 2)
        assert res.U.to_lists() == [[2, 0, 0, 1], [0, 1, 0, 0], [0, 0, 4, 0]]
        assert res.L.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_fast_lu_planted_rank_gf2():
    rng = random.Random(11)
    while True:
        g = rand_matrix(GF2, rng, 20, 12)
        h = rand_matrix(GF2, rng, 12, 30)
        if oracle_rank(g) == 12 and oracle_rank(h) == 12:
            break
    a = matmul(g, h)
    res = fast_lu(a)
    assert res.r == 12
    assert oracle_verify_lu(a, res).ok


def test_fast_lu_random_all_fields(ctx, rng):
    for m, n in ((1, 1), (2, 3), (7, 7), (10, 4), (5, 12), (16, 16)):
        a = rand_matrix(ctx, rng, m, n)
        res = fast_lu(a)
        rep = oracle_verify_lu(a, res)
        assert rep.ok, rep.first_violation


def test_fast_lu_structure_row_order(rng):
    # duplicated rows exercise the pivot-order and staircase checks
    base = rand_matrix(GF7, rng, 4, 6)
    rows = base.to_lists()
    a = DenseMatrix.from_rows(GF7, [rows[0], rows[0], rows[1], rows[2], rows[1], rows[3]])
    res = fast_lu(a)
    rep = oracle_verify_lu(a, res)
    assert rep.ok, rep.first_violation
    piv = res.P.fwd[: res.r]
    assert list(piv) == sorted(piv)


def _lu_signature(ctx, a, cutoff, res=None, ops=None):
    """Everything fast_lu returns, entry types included, and its op counts,
    or those of the given result and counts."""
    if res is None:
        ctx.enable_counter()
        try:
            res = fast_lu(a, cutoff)
            ops = op_count_snapshot(ctx)
        finally:
            ctx.disable_counter()

    def cells(mat):
        if ctx.kind == "gfp":
            return mat.shape, str(mat._d.dtype), mat._d.tolist()
        if ctx.kind == "gf2":
            return mat.shape, [(type(x), x) for x in mat._d]
        return mat.shape, [[(type(x), x) for x in row] for row in mat._d]

    p, q = (x if isinstance(x, tuple) else x.fwd for x in (res.P, res.Q))
    return p, q, res.r, cells(res.L), cells(res.U), ops


def _lu_instances(ctx, rng, count):
    for _ in range(count):
        m, n = rng.randint(1, 40), rng.randint(0, 40)
        density = rng.choice([0.1, 0.4, 1.0])

        def sparse(rows, cols):
            return DenseMatrix.from_rows(
                ctx,
                [
                    [rand_el(ctx, rng) if rng.random() < density else 0 for _ in range(cols)]
                    for _ in range(rows)
                ],
            )

        rank = rng.randint(0, min(m, n))
        a = matmul(sparse(m, rank), sparse(rank, n)) if rank else sparse(m, n)
        yield a, rng.choice([None, 1, 2, 4])


LU_FIELDS = [GF2, GF7, GF1009, FieldContext.gfp(2**31 - 1), QQ]


@pytest.mark.parametrize("ctx", LU_FIELDS, ids=["gf2", "gf7", "gf1009", "gf2^31-1", "rational"])
def test_lu_rows_matches_recursion(ctx, monkeypatch):
    # With the bound at 1 only single rows reach _lu_rows, so fast_lu splits
    # every block down to one row, with a solve and a product at each split.
    rng = random.Random(crc32(repr(ctx).encode()))
    cases = list(_lu_instances(ctx, rng, 40))
    fast = [_lu_signature(ctx, a, cutoff) for a, cutoff in cases]
    monkeypatch.setattr(factor, "_TRI_BASE", 1)
    for (a, cutoff), got in zip(cases, fast):
        assert got == _lu_signature(ctx, a, cutoff), (a.shape, cutoff)


LU_KERNEL_FIELDS = [GF2, FieldContext.gfp(3), GF7, GF1009, QQ]


@pytest.mark.parametrize("ctx", LU_KERNEL_FIELDS, ids=["gf2", "gf3", "gf7", "gf1009", "rational"])
@pytest.mark.parametrize("cutoff", [None, 1, 2])
def test_lu_rows_on_a_sub_copy_matches_fast_lu(ctx, cutoff):
    # The bag step runs `_lu_rows` on a sub-copy of its working copy, which
    # has been pivoted on already, where fast_lu would take it (`_flat`):
    # the same P, Q, L, U and r as fast_lu of the block, entry types
    # included, and the same op counts.  Outside the rule the factors agree
    # all the same; the counts then follow fast_lu's products.
    rng = random.Random(crc32(f"{ctx!r} {cutoff}".encode()))
    cut = cutoff or ctx.default_cutoff
    seen = set()
    shapes = [(0, 0), (0, 5), (7, 0), (16, 1), (5, 1), (1, 8), (16, 8)]
    shapes += [(rng.randint(0, 16), rng.randint(0, 8)) for _ in range(60)]
    for m, n in shapes:
        kind = rng.choice(["random", "zero", "low-rank"])
        rank = 0 if kind == "zero" else rng.randint(0, min(m, n)) if kind == "low-rank" else None
        seen.add("empty" if not m * n else "single" if n == 1 else kind)
        extra_r, extra_c = rng.randint(1, 6), rng.randint(1, 30)
        big = rand_matrix(ctx, rng, m + extra_r, n + extra_c).to_lists()
        rows = rng.sample(range(1, m + extra_r), m)
        cols = rng.sample(range(n + extra_c), n)
        if rank is not None:  # the block as a product through rank columns
            g, h = rand_matrix(ctx, rng, m, rank), rand_matrix(ctx, rng, rank, n)
            for i, row in zip(rows, matmul(g, h).to_lists() if rank else [[0] * n] * m):
                for j, v in zip(cols, row):
                    big[i][j] = ctx.el(v)
        w = DenseMatrix.from_rows(ctx, big).schur()
        c0 = next((c for c in range(len(big[0])) if c not in cols and w.nonzero(0, c)), None)
        if c0 is not None:  # a pivot outside the block changes the block
            w.pivot(0, c0, range(1, len(big)))
        block = w.block(rows, cols)
        assert block == DenseMatrix.from_entries(ctx, w.lists(rows, cols), n)
        want = _lu_signature(ctx, block, cutoff)
        sub = w.sub(rows, cols)
        ctx.enable_counter()
        try:
            order, q, lcols = factor._lu_rows(sub, m, n)
            ops = op_count_snapshot(ctx)
        finally:
            ctx.disable_counter()
        r = len(lcols)
        res = factor.LUResult(tuple(order), tuple(q), factor._from_columns(ctx, order, lcols),
                              sub.block(order[:r], q), r)
        got = _lu_signature(ctx, block, cutoff, res, ops)
        if factor._flat(m, cut):
            assert got == want, (m, n, kind)
        else:
            assert got[:-1] == want[:-1], (m, n, kind)
    assert seen == {"random", "zero", "low-rank", "single", "empty"}


@pytest.mark.parametrize("ctx", [GF2, GF7, QQ], ids=["gf2", "gf7", "rational"])
def test_fast_lu_hands_2_cutoff_plus_1_rows_to_lu_rows(ctx, monkeypatch):
    # At cutoff c the recursion on m = 2c + 1 rows splits off a top half of
    # c rows, so at most c pivots: every product has a dimension within the
    # cutoff and every solve is a base case.  `_flat` takes the whole block
    # to `_lu_rows`, with the recursion's factors, entry types and op counts
    # (with the bound at 1 fast_lu splits it down to single rows).
    rng = random.Random(crc32(f"{ctx!r} odd rows".encode()))
    real, calls = factor._lu_rows, []

    def traced(s, m, n, pad=0):
        calls.append(m)
        return real(s, m, n, pad)

    monkeypatch.setattr(factor, "_lu_rows", traced)
    cases = []
    for cutoff in range(1, 8):
        m = 2 * cutoff + 1
        for n in (rng.randint(1, m - 1), m, rng.randint(m + 1, 2 * m)):
            rank = rng.choice([None, rng.randint(0, min(m, n) - 1)])  # full or deficient
            a = rand_matrix(ctx, rng, m, n) if rank is None else matmul(
                rand_matrix(ctx, rng, m, rank), rand_matrix(ctx, rng, rank, n))
            calls.clear()
            cases.append((a, cutoff, _lu_signature(ctx, a, cutoff)))
            assert calls == [m], (m, n, cutoff)
    monkeypatch.setattr(factor, "_TRI_BASE", 1)
    for a, cutoff, got in cases:
        assert got == _lu_signature(ctx, a, cutoff), (a.shape, cutoff)


def test_lu_rows_counts_are_checked(monkeypatch):
    # One tri_solve inversion too few is caught by the comparison above.
    a = rand_matrix(GF7, random.Random(5), 9, 9)
    fast = _lu_signature(GF7, a, None)
    with monkeypatch.context() as patch:
        patch.setattr(factor, "_TRI_BASE", 1)
        assert _lu_signature(GF7, a, None) == fast
    charge = factor._charge_row_splitting

    def drop_one_inversion(ctx, *args):
        charge(ctx, *args)
        ctx.count_ops(inv=-1)

    monkeypatch.setattr(factor, "_charge_row_splitting", drop_one_inversion)
    mutated = _lu_signature(GF7, a, None)
    assert mutated[:5] == fast[:5]
    assert mutated[5] != fast[5]


# -- Strassen cutoff -------------------------------------------------------------


def _cutoff_calls():
    """Every public entry point that takes a Strassen cutoff, on a 2 x 2 input."""
    a = DenseMatrix.from_rows(GF7, [[1, 2], [2, 3]])
    l = DenseMatrix.identity(GF7, 2)
    sym = SparseSym.from_entries(GF7, 2, [(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    td = TreeDecomposition.build(2, [{0, 1}], [])
    return {
        "matmul": lambda c: matmul(a, a, c),
        "tri_solve": lambda c: tri_solve(l, a, LEFT, LOWER_UNIT, c),
        "fast_lu": lambda c: fast_lu(a, c),
        "fast_ldl": lambda c: fast_ldl(a, c),
        "schilders_partial_ldl": lambda c: schilders_partial_ldl(SaddleSystem(a, l), c),
        "tree_ldl": lambda c: tree_ldl(sym, normalize_td(td), 0, c),
        "sparse_ldl": lambda c: sparse_ldl(sym, td, cutoff=c),
        "sparse_lu": lambda c: sparse_lu(a, cutoff=c),
    }


CUTOFF_CALLS = _cutoff_calls()


@pytest.mark.parametrize("ctx", LU_FIELDS, ids=["gf2", "gf7", "gf1009", "gf2^31-1", "rational"])
def test_fast_ldl_rejects_a_matrix_that_is_not_h_symmetric(ctx):
    rng = random.Random(crc32(repr(ctx).encode()))
    cases = [DenseMatrix.from_rows(ctx, rows) for rows in
             ([[1, 2, 0], [5, 1, 1], [0, 1, 3]], [[0, 1], [2, 0]], [[1, 1], [0, 1]])]
    # n = 20 is above the flat base, so the recursion's entry is guarded too
    for n in (5, 20):
        a = rand_symmetric(ctx, rng, n)
        a.set(n - 1, 0, ctx.add(a.get(n - 1, 0), ctx.one))
        cases.append(a)
    for a in cases:
        assert a != a.conj_transpose()
        for call in symmetric_entry_points(a):
            with pytest.raises(ValueError, match="LDL needs an H-symmetric matrix"):
                call()
    for a in (DenseMatrix.zeros(ctx, 2, 3), DenseMatrix.from_rows(ctx, [[1, 2, 0]])):
        for call in symmetric_entry_points(a):
            with pytest.raises(ValueError, match="LDL needs a square matrix"):
                call()


def symmetric_entry_points(a):
    """fast_ldl at two cutoffs and the three elimination primitives, on a."""
    return [lambda: fast_ldl(a), lambda: fast_ldl(a, 1), lambda: vertex_eliminate(a, 0),
            lambda: edge_eliminate(a, 0, 1), lambda: natural_order_ldl(a)]


@pytest.mark.parametrize("ctx", LU_FIELDS, ids=["gf2", "gf7", "gf1009", "gf2^31-1", "rational"])
def test_eliminations_reject_a_pivot_outside_the_matrix(ctx):
    a = DenseMatrix.from_rows(ctx, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    for bad, call in ((-1, lambda: vertex_eliminate(a, -1)), (3, lambda: vertex_eliminate(a, 3)),
                      (-1, lambda: edge_eliminate(a, -1, 0)), (-1, lambda: edge_eliminate(a, 0, -1)),
                      (3, lambda: edge_eliminate(a, 3, 0)), (3, lambda: edge_eliminate(a, 1, 3)),
                      (-3, lambda: edge_eliminate(a, -3, -3))):
        with pytest.raises(IndexError, match=rf"pivot {bad} out of range for 3x3"):
            call()


@pytest.mark.parametrize("ctx", LU_FIELDS, ids=["gf2", "gf7", "gf1009", "gf2^31-1", "rational"])
def test_edge_eliminate_rejects_a_repeated_index(ctx):
    # Index 1 has a zero diagonal, 0 and 2 a nonzero one.
    a = DenseMatrix.from_rows(ctx, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    for i in range(3):
        with pytest.raises(ValueError, match=rf"edge elimination needs two indices, got {i} twice"):
            edge_eliminate(a, i, i)


@pytest.mark.parametrize("name", sorted(CUTOFF_CALLS))
def test_cutoff_below_one_is_rejected(name):
    call = CUTOFF_CALLS[name]
    for cutoff in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            call(cutoff)
    call(1)
    call(None)


@pytest.mark.parametrize("ctx", LU_FIELDS, ids=["gf2", "gf7", "gf1009", "gf2^31-1", "rational"])
def test_cutoff_one_gives_the_default_factors(ctx):
    rng = random.Random(crc32(repr(ctx).encode()))
    for n in (1, 2, 5, 9, 17, 24):
        a = rand_symmetric(ctx, rng, n)
        assert fast_ldl(a, 1) == fast_ldl(a)
        b = rand_matrix(ctx, rng, n, n + 3)
        assert fast_lu(b, 1) == fast_lu(b)


# -- inertia ---------------------------------------------------------------------


def test_inertia_direct():
    blocks = [DBlock.scalar(QQ.el(3)), DBlock.scalar(QQ.el(-2))]
    assert inertia_from_D(blocks, 3, QQ) == (1, 1, 1)
    blocks = [DBlock.antidiag(QQ.el(1), QQ.el(1))]
    assert inertia_from_D(blocks, 2, QQ) == (1, 1, 0)


def test_inertia_unordered_field():
    with pytest.raises(UnorderedField):
        inertia_from_D([DBlock.scalar(1)], 1, GF7)


def test_inertia_congruence_invariance(rng):
    from exldl.oracle import oracle_inertia_congruence

    a = rand_symmetric(QQ, rng, 8)
    rep = oracle_inertia_congruence(a, trials=4, seed=3)
    assert rep.ok, rep.first_violation


# -- natural order LDL -------------------------------------------------------------


def test_natural_order_ldl_reconstructs(rng):
    a = rand_symmetric(GF7, rng, 8)
    res = natural_order_ldl(a)
    rep = oracle_verify_ldl(a, res)
    assert rep.ok, rep.first_violation


@pytest.mark.parametrize("ctx", LU_FIELDS, ids=["gf2", "gf7", "gf1009", "gf2^31-1", "rational"])
def test_every_symmetric_pivot_shares_one_step(ctx):
    # On [[0, 1], [1, d]] natural_order_ldl pairs 0 with 1 as edge_eliminate(a, 0, 1)
    # does, with the same pivot order, D blocks and op counts: at d = 0 one
    # antidiagonal step, at d != 0 two vertex steps, 1 first.  fast_ldl's leaf
    # pairs them too at d = 0; at d != 0 it takes the nonzero diagonal without
    # pairing, so it skips the pair's 2 x 2 determinant, 1 add and 2 muls.
    def counted(call):
        counter = ctx.enable_counter()
        try:
            return call(), counter.snapshot()
        finally:
            ctx.disable_counter()

    for d in (ctx.zero, ctx.el(3)):
        a = DenseMatrix.from_rows(ctx, [[0, 1], [1, d]])
        natural, natural_ops = counted(lambda: natural_order_ldl(a))
        edge, edge_ops = counted(lambda: edge_eliminate(a, 0, 1))
        flat, flat_ops = counted(lambda: fast_ldl(a))
        assert list(natural.P.fwd) == list(edge.pivots) == list(flat.P.fwd) == ([1, 0] if d else [0, 1])
        assert natural.D == edge.blocks == flat.D
        assert natural_ops == edge_ops
        determinant = {"add": 1, "mul": 2, "inv": 0} if d else {"add": 0, "mul": 0, "inv": 0}
        assert flat_ops == {op: edge_ops[op] - determinant[op] for op in edge_ops}
