import random
from fractions import Fraction

import pytest

from exldl.dense import DenseMatrix, Permutation, matmul, permute
from exldl.factor import LDLResult, LUResult, fast_ldl, fast_lu
from exldl import oracle
from exldl.fields import UnorderedField
from exldl.oracle import oracle_inertia, oracle_rank, oracle_verify_ldl, oracle_verify_lu

from conftest import GF2, GF7, QQ, planted_symmetric, rand_matrix, rand_symmetric


def test_oracle_rank_trivial():
    assert oracle_rank(DenseMatrix.zeros(GF7, 4, 4)) == 0
    assert oracle_rank(DenseMatrix.identity(GF7, 5)) == 5


def test_oracle_rank_gf2_all_ones():
    a = DenseMatrix.from_rows(GF2, [[1, 1, 1]] * 3)
    assert oracle_rank(a) == 1


def test_oracle_rank_permutation_invariant(rng):
    a = rand_matrix(GF7, rng, 6, 9)
    p = Permutation(random.Random(3).sample(range(6), 6))
    q = Permutation(random.Random(4).sample(range(9), 9))
    assert oracle_rank(permute(a, p, q)) == oracle_rank(a)


def test_verify_ldl_accepts_valid_and_localizes_corruption(rng):
    a = rand_symmetric(GF7, rng, 7)
    res = fast_ldl(a)
    assert oracle_verify_ldl(a, res).ok
    # corrupt one strictly-lower entry of L
    bad = res.L.copy()
    i = res.r if res.r < 7 else 6
    if i > 0:
        bad.set(i, 0, GF7.add(bad.get(i, 0), 1))
        from exldl.factor import LDLResult

        rep = oracle_verify_ldl(a, LDLResult(res.P, bad, res.D, res.r))
        assert not rep.ok
        assert rep.reconstruction_error_count > 0


def test_verify_ldl_rejects_wrong_rank(rng):
    a = rand_symmetric(GF7, rng, 6)
    res = fast_ldl(a)
    if res.r > 0:
        from exldl.factor import LDLResult

        wrong = LDLResult(res.P, res.L.block(0, 6, 0, res.r - 1), res.D[:-1], res.r - 1)
        assert not oracle_verify_ldl(a, wrong).ok


# -- rational rank and rejection of corrupted factors over every field ------------


def fraction_rank(rows):
    """Rank by textbook Gaussian elimination on Fraction rows."""
    rows = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][j] / rows[r][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def mixed_fraction(rng, zeros):
    if rng.random() < zeros:
        return Fraction(0)
    return Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 5, 6, 7, 11, 12, 49]))


def test_oracle_rank_rational_matches_fraction_elimination():
    # Rank-deficient products G H with mixed denominators; the sparse ones
    # put zeros under pivots, which fraction-free elimination must still scale.
    rng = random.Random(5)
    for case in range(400):
        zeros = (0.0, 0.3, 0.6)[case % 3]
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        k = rng.randint(0, min(m, n))
        g = [[mixed_fraction(rng, zeros) for _ in range(k)] for _ in range(m)]
        h = [[mixed_fraction(rng, zeros) for _ in range(n)] for _ in range(k)]
        rows = [
            [sum((g[i][t] * h[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
            for i in range(m)
        ]
        if case % 4 == 1:
            rows.append([x * Fraction(-7, 3) for x in rows[0]])  # dependent row
        a = DenseMatrix.from_rows(QQ, rows)
        want = fraction_rank(rows)
        assert want <= k
        assert oracle_rank(a) == want, case
        assert oracle_rank(a.conj_transpose()) == want, case


def scalar_product(ctx, x, y):
    out = [[ctx.zero] * len(y[0]) for _ in x]
    for i, row in enumerate(x):
        for j in range(len(y[0])):
            for t, v in enumerate(row):
                out[i][j] = ctx.add(out[i][j], ctx.mul(v, y[t][j]))
    return out


def mismatches(target, recon):
    """Row-major list of (i, j, recon[i][j]) where the two differ."""
    return [
        (i, j, w)
        for i, (trow, rrow) in enumerate(zip(target, recon))
        for j, (t, w) in enumerate(zip(trow, rrow))
        if t != w
    ]


def bump(ctx, v):
    return ctx.add(v, Fraction(1, 3) if ctx.kind == "rational" else 1)


def check_rejection(rep, mism):
    assert not rep.ok
    assert rep.reconstruction_error_count == len(mism) > 0
    i, j, want = mism[0]
    assert rep.first_violation.startswith(f"reconstruction mismatch at ({i},{j}):")
    assert rep.first_violation.endswith(f"gives {want}")


def test_verify_ldl_rejects_corrupted_l(ctx):
    rng = random.Random(21)
    for n in (2, 5, 9, 18):
        a = planted_symmetric(ctx, rng, n, n - 1)
        res = fast_ldl(a)
        assert oracle_verify_ldl(a, res).ok
        if res.r == 0:
            continue
        i = rng.randint(1, n - 1)
        bad = res.L.copy()
        bad.set(i, 0, bump(ctx, bad.get(i, 0)))
        rep = oracle_verify_ldl(a, LDLResult(res.P, bad, res.D, res.r))
        ap = [[a.get(x, y) for y in res.P.fwd] for x in res.P.fwd]
        ld = scalar_product(ctx, bad.to_lists(), res.d_dense().to_lists())
        mism = mismatches(ap, scalar_product(ctx, ld, bad.conj_transpose().to_lists()))
        check_rejection(rep, mism)


def test_verify_ldl_rejects_non_hermitian_input(ctx):
    # L D L^H is Hermitian; a change to one entry above the diagonal of A
    # alone must still be found although only the lower triangle is summed.
    rng = random.Random(22)
    while True:
        a = rand_symmetric(ctx, rng, 7)
        res = fast_ldl(a)
        pos = {v: t for t, v in enumerate(res.P.fwd)}
        x, y = next((x, y) for x in range(7) for y in range(7) if pos[x] < pos[y])
        a.set(x, y, bump(ctx, a.get(x, y)))
        if oracle_rank(a) == res.r:  # the rank check would fire first
            break
    rep = oracle_verify_ldl(a, res)
    assert not rep.ok
    assert rep.reconstruction_error_count == 1
    assert rep.first_violation.startswith(f"reconstruction mismatch at ({pos[x]},{pos[y]}):")


@pytest.mark.parametrize("which", ["L", "U"])
def test_verify_lu_rejects_corrupted_factor(ctx, which):
    rng = random.Random(23)
    for m, n in ((2, 3), (6, 6), (11, 7), (17, 19)):
        a = rand_matrix(ctx, rng, m, n)
        res = fast_lu(a)
        assert oracle_verify_lu(a, res).ok
        if res.r == 0:
            continue
        l, u = res.L.copy(), res.U.copy()
        if which == "L":
            i = rng.randint(1, m - 1)
            l.set(i, 0, bump(ctx, l.get(i, 0)))
        else:
            j = rng.randint(1, n - 1)
            u.set(0, j, bump(ctx, u.get(0, j)))
        rep = oracle_verify_lu(a, LUResult(res.P, res.Q, l, u, res.r), structural=False)
        ap = [[a.get(x, y) for y in res.Q.fwd] for x in res.P.fwd]
        check_rejection(rep, mismatches(ap, scalar_product(ctx, l.to_lists(), u.to_lists())))


# -- inertia -------------------------------------------------------------------------


def test_oracle_inertia_of_congruent_diagonals():
    # G D G^H has the inertia of D for every invertible G (Sylvester).
    rng = random.Random(19)
    for signs in ((1, 1, -1, 0), (-1, -1, 0, 0, 0), (1,), (0, 0), (1, -1, 1, -1, 1, 0)):
        n = len(signs)
        d = DenseMatrix.zeros(QQ, n, n)
        for i, s in enumerate(signs):
            d.set(i, i, QQ.el(Fraction(s * rng.randint(1, 9), rng.randint(1, 5))))
        while True:
            g = rand_matrix(QQ, rng, n, n)
            if oracle_rank(g) == n:
                break
        a = matmul(matmul(g, d), g.conj_transpose())
        want = (signs.count(1), signs.count(-1), signs.count(0))
        assert oracle_inertia(a) == want, signs


def test_oracle_inertia_zero_diagonals_and_edges():
    half = Fraction(3, 2)
    assert oracle_inertia(DenseMatrix.from_rows(QQ, [[0, half], [half, 0]])) == (1, 1, 0)
    assert oracle_inertia(DenseMatrix.from_rows(QQ, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])) == (1, 2, 0)
    assert oracle_inertia(DenseMatrix.zeros(QQ, 3, 3)) == (0, 0, 3)
    assert oracle_inertia(DenseMatrix.zeros(QQ, 0, 0)) == (0, 0, 0)
    with pytest.raises(UnorderedField):
        oracle_inertia(DenseMatrix.identity(GF7, 2))


def test_oracle_inertia_shares_no_code_with_fast_ldl():
    assert not {"fast_ldl", "inertia_from_D"} & set(vars(oracle))
