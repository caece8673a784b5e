import random

import pytest

from exldl.dense import DenseMatrix, matmul
from exldl.factor import d_dense, inertia_from_D
from exldl.fields import DimensionMismatch, FieldContext
from exldl.oracle import (
    oracle_rank,
    oracle_verify_ldl,
    oracle_verify_partial_ldl,
)
from exldl.saddle import (
    SaddleSystem,
    complete_saddle_ldl,
    gamma_eliminate_partial,
    residual_schur,
    schilders_partial_ldl,
    skeleton_pair,
)

from conftest import GF2, GF7, QQ, rand_matrix, rand_symmetric


def rand_saddle(ctx, rng, n, m, rank=None):
    a = rand_symmetric(ctx, rng, n)
    if rank is None:
        b = rand_matrix(ctx, rng, m, n)
    else:
        while True:
            g = rand_matrix(ctx, rng, m, rank)
            h = rand_matrix(ctx, rng, rank, n)
            b = matmul(g, h)
            if oracle_rank(b) == rank:
                break
    return SaddleSystem(a, b)


def test_gamma_zero_b(ctx, rng):
    s = SaddleSystem(rand_symmetric(ctx, rng, 4), DenseMatrix.zeros(ctx, 3, 4))
    f = gamma_eliminate_partial(s)
    assert f.r == 0
    assert residual_schur(s, f) == s.A


def test_gamma_1x1_hand():
    s = SaddleSystem(
        DenseMatrix.from_rows(GF7, [[3]]), DenseMatrix.from_rows(GF7, [[2]])
    )
    f = gamma_eliminate_partial(s)
    assert f.r == 1
    assert f.D == [GF7.neg(3)]
    assert f.L.to_lists() == [[1]]
    assert f.U.to_lists() == [[2]]
    assert f.Y.to_lists() == [[0]]
    assert oracle_verify_partial_ldl(s, f).ok


def test_gamma_random_verify(ctx, rng):
    for n, m in ((3, 2), (5, 5), (6, 3), (4, 7)):
        s = rand_saddle(ctx, rng, n, m)
        f = gamma_eliminate_partial(s)
        rep = oracle_verify_partial_ldl(s, f)
        assert rep.ok, rep.first_violation


def test_schilders_identity_b(ctx, rng):
    n = 5
    a = rand_symmetric(ctx, rng, n)
    s = SaddleSystem(a, DenseMatrix.identity(ctx, n))
    f = schilders_partial_ldl(s)
    assert f.r == n
    assert f.L == DenseMatrix.identity(ctx, n)
    for i in range(n):
        assert f.D[i] == ctx.neg(a.get(f.P.fwd[i], f.P.fwd[i]))
    assert oracle_verify_partial_ldl(s, f).ok


def test_schilders_random_verify(ctx, rng):
    for n, m in ((3, 2), (5, 5), (7, 4), (4, 6)):
        s = rand_saddle(ctx, rng, n, m)
        f = schilders_partial_ldl(s)
        rep = oracle_verify_partial_ldl(s, f)
        assert rep.ok, rep.first_violation


def test_schilders_gf7_12x8_full_rank():
    rng = random.Random(77)
    s = rand_saddle(GF7, rng, 12, 8, rank=8)
    f = schilders_partial_ldl(s)
    assert f.r == 8
    assert oracle_verify_partial_ldl(s, f).ok


def test_residual_is_symmetric(ctx, rng):
    s = rand_saddle(ctx, rng, 6, 3)
    f = schilders_partial_ldl(s)
    res = residual_schur(s, f)
    assert res == res.conj_transpose()


def test_saddle_system_rejects_an_a_block_that_is_not_h_symmetric(ctx):
    a = DenseMatrix.from_rows(ctx, [[1, 2, 0], [5, 1, 1], [0, 1, 3]])
    b = DenseMatrix.from_rows(ctx, [[1, 1, 0]])
    with pytest.raises(ValueError, match="A block must be H-symmetric"):
        SaddleSystem(a, b)
    a.set(1, 0, a.get(0, 1))
    assert SaddleSystem(a, b).n == 3


def test_saddle_system_rejects_blocks_that_do_not_fit(ctx):
    a = DenseMatrix.identity(ctx, 3)
    with pytest.raises(DimensionMismatch, match="A block must be square"):
        SaddleSystem(DenseMatrix.zeros(ctx, 3, 2), DenseMatrix.zeros(ctx, 1, 2))
    with pytest.raises(DimensionMismatch, match="B block must have as many columns as A"):
        SaddleSystem(a, DenseMatrix.zeros(ctx, 1, 2))
    with pytest.raises(DimensionMismatch, match="mixed field contexts"):
        SaddleSystem(a, DenseMatrix.zeros(FieldContext.gfp(5), 1, 3))


def test_residual_leakage_detected(rng):
    from exldl.fields import ResidualLeakage

    s = rand_saddle(GF7, rng, 5, 3)
    f = schilders_partial_ldl(s)
    if f.r:
        bad = f.L.copy()
        bad.set(min(f.L.nrows - 1, f.r), 0, GF7.add(bad.get(min(f.L.nrows - 1, f.r), 0), 1))
        from exldl.saddle import PartialLDL

        broken = PartialLDL(f.P, f.Q, f.Y, bad, f.U, f.D, f.r)
        with pytest.raises(ResidualLeakage):
            residual_schur(s, broken)


def skeleton_columns(k, n_rows_a):
    """`skeleton_pair` on the skeleton k, whose rows are [pivot A row,
    other A rows..., pivot B row, other B rows...], shifted to [pivot A,
    pivot B, other A..., other B...] (so a11 is k's entry (0, 0) and b11
    its entry (n_rows_a, 0)): (the columns as a matrix, with their unit
    pivot entries, D blocks)."""
    ctx = k.ctx
    shift = [0, n_rows_a] + list(range(1, n_rows_a)) + list(range(n_rows_a + 1, k.nrows))
    rows = k.take_rows(shift).to_lists()
    pivots, pair, blocks = skeleton_pair(
        ctx, [r[0] for r in rows], [r[1] for r in rows], range(k.nrows))
    assert pivots == (0, 1)
    cols = DenseMatrix.zeros(ctx, k.nrows, 2)
    for c, col in enumerate(pair):
        cols.set(c, c, ctx.one)
        for i, v in col:
            assert i != c
            cols.set(i, c, v)
    return cols, blocks


def test_skeleton_zero_b11_rejected():
    from exldl.fields import ZeroB11

    k = DenseMatrix.from_rows(GF7, [[0, 1], [0, 0]])
    with pytest.raises(ZeroB11):
        skeleton_columns(k, 1)


def test_skeleton_case_zero_a11():
    # trivial skeleton: unit entries only
    k = DenseMatrix.from_rows(GF7, [[0, 1], [1, 0]])
    cols, blocks = skeleton_columns(k, 1)
    assert cols == DenseMatrix.identity(GF7, 2)
    assert blocks[0].kind == "antidiag"
    assert (blocks[0].a12, blocks[0].a21) == (1, 1)


def test_skeleton_case_nonzero_a11_identity():
    # columns . D . columns^H must reproduce K [[0,1],[1,-a11]] K^H
    ctx = GF7
    rng = random.Random(5)
    a11, b11 = ctx.el(3), ctx.el(2)
    k = DenseMatrix.from_rows(
        ctx, [[a11, 1], [4, 6], [1, 2], [b11, 0], [5, 0], [3, 0]]
    )
    # fix layout: rows 0..2 on the A side, rows 3..5 constraints; pivot values match
    cols, blocks = skeleton_columns(k, 3)
    d2 = DenseMatrix.from_rows(ctx, [[0, 1], [1, ctx.neg(a11)]])
    want = matmul(matmul(k, d2), k.conj_transpose())
    shift = [0, 3, 1, 2, 4, 5]
    want = want.take_rows(shift).take_cols(shift)
    got = matmul(matmul(cols, d_dense(ctx, blocks)), cols.conj_transpose())
    assert got == want
    assert cols.get(0, 0) == 1 and cols.get(1, 1) == 1 and cols.get(0, 1) == 0


def test_complete_full_rank_square_b_zero_a(ctx, rng):
    n = 4
    while True:
        b = rand_matrix(ctx, rng, n, n)
        if oracle_rank(b) == n:
            break
    s = SaddleSystem(DenseMatrix.zeros(ctx, n, n), b)
    f = gamma_eliminate_partial(s)
    res = complete_saddle_ldl(s, f)
    assert res.r == 2 * n
    assert all(blk.kind == "antidiag" for blk in res.D)
    rep = oracle_verify_ldl(s.dense(), res)
    assert rep.ok, rep.first_violation


def test_complete_random_small_gf2():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 16)
        m = rng.randint(1, 16)
        s = rand_saddle(GF2, rng, n, m)
        for f in (gamma_eliminate_partial(s), schilders_partial_ldl(s)):
            rep = oracle_verify_partial_ldl(s, f)
            assert rep.ok, rep.first_violation
            full = complete_saddle_ldl(s, f)
            rep = oracle_verify_ldl(s.dense(), full)
            assert rep.ok, rep.first_violation


def test_complete_matches_between_constructions(ctx, rng):
    s = rand_saddle(ctx, rng, 5, 3)
    m = s.dense()
    for f in (gamma_eliminate_partial(s), schilders_partial_ldl(s)):
        full = complete_saddle_ldl(s, f)
        rep = oracle_verify_ldl(m, full)
        assert rep.ok, rep.first_violation


def test_rank_m_equals_twice_rank_b(ctx, rng):
    # A = 0 forces rank(M) = 2 rank(B): the residual branch is empty
    n = 5
    s = SaddleSystem(DenseMatrix.zeros(ctx, n, n), rand_matrix(ctx, rng, 3, n))
    f = gamma_eliminate_partial(s)
    full = complete_saddle_ldl(s, f)
    assert full.r == 2 * f.r
    assert oracle_verify_ldl(s.dense(), full).ok


def test_spd_inertia_through_completion(rng):
    # SPD A with full-rank square B: n positive and m negative eigenvalues.
    n = 4
    g = rand_matrix(QQ, rng, n, n)
    while oracle_rank(g) < n:
        g = rand_matrix(QQ, rng, n, n)
    a = matmul(g, g.conj_transpose())
    for i in range(n):
        a.set(i, i, a.get(i, i) + 1)  # strictly positive definite
    while True:
        b = rand_matrix(QQ, rng, n, n)
        if oracle_rank(b) == n:
            break
    s = SaddleSystem(a, b)
    f = schilders_partial_ldl(s)
    assert all(d < 0 for d in f.D)  # negated diagonal of an SPD projection
    full = complete_saddle_ldl(s, f)
    assert inertia_from_D(full.D, 2 * n, QQ) == (n, n, 0)


# -- the fill example family --------------------------------------------------


def example_fill_family(ctx, rng, n):
    """Tridiagonal-style A (only a11 on the diagonal) and a constraint block
    with dense first column and nonzero diagonal."""
    a = DenseMatrix.zeros(ctx, n, n)
    a.set(0, 0, ctx.one)
    for i in range(n - 1):
        v = ctx.one
        a.set(i, i + 1, v)
        a.set(i + 1, i, ctx.conj(v))
    b = DenseMatrix.zeros(ctx, n, n)
    for i in range(n):
        b.set(i, 0, ctx.one)
        b.set(i, i, ctx.one)
    return SaddleSystem(a, b)


def nnz(m: DenseMatrix) -> int:
    return sum(
        1 for i in range(m.nrows) for j in range(m.ncols) if m.get(i, j) != 0
    )


def test_example_family_zero_fill():
    rng = random.Random(0)
    n = 64
    s = example_fill_family(GF7, rng, n)
    f = gamma_eliminate_partial(s)
    assert f.r == n
    assert oracle_verify_partial_ldl(s, f).ok
    assert nnz(f.L) + nnz(f.Y) <= nnz(s.A) + nnz(s.B)
