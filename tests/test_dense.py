import functools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from exldl import dense, factor
from exldl.dense import (
    LEFT,
    LOWER,
    LOWER_UNIT,
    RIGHT,
    UPPER,
    UPPER_UNIT,
    DenseMatrix,
    Permutation,
    compose,
    hstack,
    matmul,
    permute,
    tri_solve,
    vstack,
)
from exldl.factor import fast_ldl, fast_lu
from exldl.fields import DimensionMismatch, FieldContext, SingularDiagonal, packed_ops

from conftest import GF2, GF7, GF1009, QQ, rand_matrix, rand_symmetric


def test_identity_matmul(ctx, rng):
    a = rand_matrix(ctx, rng, 3, 3)
    assert matmul(DenseMatrix.identity(ctx, 3), a) == a
    assert matmul(a, DenseMatrix.identity(ctx, 3)) == a


def test_gf2_hand_product():
    a = DenseMatrix.from_rows(GF2, [[1, 1], [0, 1]])
    b = DenseMatrix.from_rows(GF2, [[1, 0], [1, 1]])
    assert matmul(a, b).to_lists() == [[0, 1], [1, 1]]


def test_strassen_matches_classical_gf7():
    rng = random.Random(99)
    a = rand_matrix(GF7, rng, 96, 96)
    b = rand_matrix(GF7, rng, 96, 96)
    assert matmul(a, b, cutoff=16) == matmul(a, b, cutoff=10**9)


@pytest.mark.parametrize("shape", [(13, 29, 7), (40, 3, 40), (1, 5, 1)])
def test_strassen_matches_classical_rectangular(ctx, rng, shape):
    m, k, n = shape
    a = rand_matrix(ctx, rng, m, k)
    b = rand_matrix(ctx, rng, k, n)
    assert matmul(a, b, cutoff=2) == matmul(a, b, cutoff=10**9)


def test_matmul_associative(ctx, rng):
    a = rand_matrix(ctx, rng, 6, 5)
    b = rand_matrix(ctx, rng, 5, 7)
    c = rand_matrix(ctx, rng, 7, 4)
    assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_matmul_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        matmul(DenseMatrix.zeros(GF7, 2, 3), DenseMatrix.zeros(GF7, 2, 3))


def test_kernels_reject_operands_that_do_not_fit(ctx):
    a, b = DenseMatrix.zeros(ctx, 2, 3), DenseMatrix.zeros(ctx, 3, 2)
    other = DenseMatrix.zeros(FieldContext.gfp(5), 2, 3)
    square = DenseMatrix.identity(ctx, 2)
    for call, msg in (
        (lambda: compose(Permutation(range(2)), Permutation(range(3))), "permutation sizes differ"),
        (lambda: DenseMatrix.from_rows(ctx, [[1, 0], [1]]), "ragged rows"),
        (lambda: a.add(b), re.escape("shape (2, 3) vs (3, 2)")),
        (lambda: a.sub(other), "mixed field contexts"),
        (lambda: hstack([a, b]), "hstack row mismatch"),
        (lambda: vstack([a, b]), "vstack column mismatch"),
        (lambda: permute(a, Permutation(range(3)), Permutation(range(3))),
         "permutation sizes do not match matrix"),
        (lambda: matmul(a, other.conj_transpose()), "mixed field contexts"),
        (lambda: matmul(a, a), "inner dims 3 vs 2"),
        (lambda: tri_solve(a, b, LEFT, LOWER), "triangular solve needs a square matrix"),
        (lambda: tri_solve(square, b, LEFT, LOWER), "rhs rows do not match"),
        (lambda: tri_solve(square, a, RIGHT, LOWER), "rhs cols do not match"),
    ):
        with pytest.raises(DimensionMismatch, match=msg):
            call()


def test_empty_dims(ctx):
    a = DenseMatrix.zeros(ctx, 3, 0)
    b = DenseMatrix.zeros(ctx, 0, 4)
    assert matmul(a, b).shape == (3, 4)
    assert matmul(a, b).is_zero()


def tri_inverse(l, shape):
    """The inverse of a triangular matrix: the X with l X = I."""
    return tri_solve(l, DenseMatrix.identity(l.ctx, l.nrows), LEFT, shape)


def test_tri_invert_identity(ctx):
    i = DenseMatrix.identity(ctx, 5)
    assert tri_inverse(i, LOWER_UNIT) == i


def test_tri_invert_gf7_hand():
    l = DenseMatrix.from_rows(GF7, [[1, 0], [3, 1]])
    assert tri_inverse(l, LOWER_UNIT).to_lists() == [[1, 0], [4, 1]]


def test_tri_invert_singular():
    l = DenseMatrix.from_rows(GF7, [[1, 0], [3, 0]])
    with pytest.raises(SingularDiagonal):
        tri_inverse(l, LOWER)


@pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
def test_tri_invert_unit_lower_rational(rng, n):
    l = DenseMatrix.identity(QQ, n)
    for i in range(n):
        for j in range(i):
            l.set(i, j, QQ.el(rng.randint(-3, 3)))
    inv = tri_inverse(l, LOWER_UNIT)
    assert matmul(l, inv) == DenseMatrix.identity(QQ, n)
    assert matmul(inv, l) == DenseMatrix.identity(QQ, n)


@pytest.mark.parametrize("side,shape", [
    (LEFT, LOWER), (LEFT, UPPER), (RIGHT, LOWER), (RIGHT, UPPER),
    (LEFT, LOWER_UNIT), (LEFT, UPPER_UNIT), (RIGHT, LOWER_UNIT), (RIGHT, UPPER_UNIT),
])
def test_tri_solve_roundtrip(ctx, rng, side, shape):
    n = 21
    l = DenseMatrix.identity(ctx, n)
    lower = shape in (LOWER, LOWER_UNIT)
    unit = shape in (LOWER_UNIT, UPPER_UNIT)
    for i in range(n):
        for j in range(n):
            if (lower and j < i) or (not lower and j > i):
                l.set(i, j, rand_el_nonunit(ctx, rng))
        if not unit:
            v = rand_el_nonunit(ctx, rng)
            while ctx.is_zero(v):
                v = rand_el_nonunit(ctx, rng)
            l.set(i, i, v)
    b = rand_matrix(ctx, rng, n, 4) if side == LEFT else rand_matrix(ctx, rng, 4, n)
    x = tri_solve(l, b, side, shape)
    got = matmul(l, x) if side == LEFT else matmul(x, l)
    assert got == b


def rand_el_nonunit(ctx, rng):
    from conftest import rand_el

    return rand_el(ctx, rng)


def test_tri_solve_gf2_forward():
    l = DenseMatrix.from_rows(GF2, [[1, 0], [1, 1]])
    b = DenseMatrix.from_rows(GF2, [[1], [0]])
    assert tri_solve(l, b, LEFT, LOWER_UNIT).to_lists() == [[1], [1]]


def test_permute_roundtrip(ctx, rng):
    a = rand_matrix(ctx, rng, 5, 7)
    p = Permutation([3, 1, 4, 0, 2])
    q = Permutation([6, 0, 2, 5, 1, 3, 4])
    b = permute(a, p, q)
    assert permute(b, p.inverse(), q.inverse()) == a
    assert permute(a, Permutation.identity(5), Permutation.identity(7)) == a


def test_permute_values():
    a = DenseMatrix.from_rows(GF7, [[0, 1], [1, 0]])
    p = Permutation.transposition(2, 0, 1)
    assert permute(a, p, p) == a  # symmetric under the swap


def test_compose_convention(ctx, rng):
    a = rand_matrix(ctx, rng, 4, 4)
    p1 = Permutation([2, 0, 3, 1])
    p2 = Permutation([1, 3, 0, 2])
    lhs = permute(permute(a, p1, p1), p2, p2)
    assert lhs == permute(a, compose(p1, p2), compose(p1, p2))


def test_conj_transpose(ctx, rng):
    a = rand_matrix(ctx, rng, 4, 6)
    at = a.conj_transpose()
    assert at.shape == (6, 4)
    for i in range(4):
        for j in range(6):
            assert at.get(j, i) == a.get(i, j)
    assert at.conj_transpose() == a


# -- kernels against scalar references ----------------------------------------

GF_BIG = FieldContext.gfp(2**31 - 1)  # couplings reduced one at a time
KERNEL_FIELDS = [GF2, GF7, GF1009, GF_BIG, QQ]
KERNEL_IDS = ["gf2", "gf7", "gf1009", "gf2^31-1", "rational"]


def mixed_el(ctx, rng):
    """Entry with negative values and mixed denominators over Q; zero often."""
    if rng.random() < 0.25:
        return ctx.zero
    if ctx.kind == "rational":
        return ctx.el(Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 4, 6, 7, 9, 12, 35])))
    return ctx.el(rng.randrange(ctx.p) if ctx.kind == "gfp" else rng.randint(0, 1))


def mixed_matrix(ctx, rng, m, n):
    """Random matrix with one zero row and one zero column when it has any."""
    rows = [[mixed_el(ctx, rng) for _ in range(n)] for _ in range(m)]
    if m and n:
        zr, zc = rng.randrange(m), rng.randrange(n)
        rows[zr] = [ctx.zero] * n
        for row in rows:
            row[zc] = ctx.zero
    out = DenseMatrix.zeros(ctx, m, n)  # from_rows cannot make an empty 0 x n
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out.set(i, j, v)
    return out


def ref_matmul(ctx, a, b):
    al, bl = a.to_lists(), b.to_lists()
    out = [[ctx.zero] * b.ncols for _ in range(a.nrows)]
    for i in range(a.nrows):
        for j in range(b.ncols):
            for t in range(a.ncols):
                out[i][j] = ctx.add(out[i][j], ctx.mul(al[i][t], bl[t][j]))
    return out


def ref_tri_solve(ctx, l, b, side, shape):
    """Scalar substitution, one unknown at a time."""
    n = l.nrows
    ll, x = l.to_lists(), b.to_lists()
    lower = shape in (LOWER, LOWER_UNIT)
    unit = shape in (LOWER_UNIT, UPPER_UNIT)
    forward = lower == (side == LEFT)
    order = range(n) if forward else range(n - 1, -1, -1)
    if side == LEFT:
        for c in range(b.ncols):
            for i in order:
                s = x[i][c]
                for t in range(n):
                    if (t < i) == forward and t != i:
                        s = ctx.sub(s, ctx.mul(ll[i][t], x[t][c]))
                x[i][c] = s if unit else ctx.div(s, ll[i][i])
    else:
        for r in range(b.nrows):
            for j in order:
                s = x[r][j]
                for t in range(n):
                    if (t < j) == forward and t != j:
                        s = ctx.sub(s, ctx.mul(x[r][t], ll[t][j]))
                x[r][j] = s if unit else ctx.div(s, ll[j][j])
    return x


def triangular(ctx, rng, n, shape):
    lower = shape in (LOWER, LOWER_UNIT)
    l = DenseMatrix.zeros(ctx, n, n)
    for i in range(n):
        for j in range(n):
            if (lower and j < i) or (not lower and j > i):
                l.set(i, j, mixed_el(ctx, rng))
        d = ctx.one
        if shape in (LOWER, UPPER):
            while ctx.is_zero(d := mixed_el(ctx, rng)):
                pass
        l.set(i, i, d)
    return l


def canonical(ctx, m):
    return all(type(v) is type(ctx.one) for row in m.to_lists() for v in row)


@pytest.mark.parametrize("kctx", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize(
    "shape", [(0, 4, 3), (3, 0, 4), (4, 3, 0), (1, 1, 1), (7, 3, 9), (20, 17, 33), (34, 34, 34)]
)
@pytest.mark.parametrize("cutoff", [2, 8, 10**9])
def test_matmul_matches_scalar_reference(kctx, shape, cutoff):
    rng = random.Random(repr((shape, cutoff)))
    m, k, n = shape
    a, b = mixed_matrix(kctx, rng, m, k), mixed_matrix(kctx, rng, k, n)
    c = matmul(a, b, cutoff=cutoff)
    assert c.shape == (m, n)
    assert c.to_lists() == ref_matmul(kctx, a, b)
    assert canonical(kctx, c)


@pytest.mark.parametrize("kctx", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("shape", [LOWER, LOWER_UNIT, UPPER, UPPER_UNIT])
def test_tri_solve_matches_scalar_reference(kctx, side, shape):
    rng = random.Random(7)
    for n in (0, 1, 5, 16, 17, 40):
        l = triangular(kctx, rng, n, shape)
        for nv in (0, 1, 6, 9):  # 9: GF(p) rows in numpy
            b = mixed_matrix(kctx, rng, n, nv) if side == LEFT else mixed_matrix(kctx, rng, nv, n)
            x = tri_solve(l, b, side, shape, cutoff=8)
            assert x.shape == b.shape
            assert x.to_lists() == ref_tri_solve(kctx, l, b, side, shape), (n, nv)
            assert canonical(kctx, x)


@pytest.mark.parametrize("kctx", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("shape", [LOWER, UPPER_UNIT])
def test_tri_solve_base_op_counts(kctx, side, shape):
    # Below the recursion cutoff each coupling l[i][t] != 0 costs one add and
    # one mul per right-hand side, and a non-unit diagonal one inv plus one
    # mul per right-hand side.
    rng = random.Random(8)
    n, nv = 13, 5
    l = triangular(kctx, rng, n, shape)
    b = mixed_matrix(kctx, rng, n, nv) if side == LEFT else mixed_matrix(kctx, rng, nv, n)
    nnz = sum(1 for i in range(n) for j in range(n) if i != j and not kctx.is_zero(l.get(i, j)))
    unit = shape == UPPER_UNIT
    kctx.enable_counter()
    try:
        tri_solve(l, b, side, shape)
        counts = kctx.counter.snapshot()
    finally:
        kctx.disable_counter()
    assert counts == {
        "add": nnz * nv,
        "mul": (nnz + (0 if unit else n)) * nv,
        "inv": 0 if unit else n,
    }



@pytest.mark.parametrize("shape", [LOWER, LOWER_UNIT])
def test_tri_solve_base_charges_inversions_without_right_hand_sides(ctx, shape):
    l = DenseMatrix.from_rows(ctx, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    ctx.enable_counter()
    try:
        tri_solve(l, DenseMatrix.zeros(ctx, 3, 0), LEFT, shape)
        counts = ctx.counter.snapshot()
    finally:
        ctx.disable_counter()
    assert counts == {"add": 0, "mul": 0, "inv": 3 if shape == LOWER else 0}

# -- GF(2) column gathers and transposes against per-bit references ----------


def ref_take_cols_bits(rows, idx):
    return [sum(((r >> j) & 1) << jj for jj, j in enumerate(idx)) for r in rows]


def ref_transpose_bits(rows, ncols):
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(ncols)]


def assert_packed(m):
    """The packed-row invariant `to_bytes` relies on: one int per row, each
    below 1 << ncols."""
    assert len(m._d) == m.nrows
    assert all(type(r) is int and 0 <= r < 1 << m.ncols for r in m._d)


GF2_HEIGHTS = [0, 1, 3, 29]
GF2_WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 255, 256, 257, 512]


# "bits" and "array" force one route for every shape; "default" splits at
# dense._CROSSOVER, which the heights and widths above straddle
# (3 x 9 and 1 x 256 per bit, 29 x 9 and 1 x 257 through the bit array).
@pytest.fixture(params=["default", "bits", "array"])
def gf2_route(request, monkeypatch):
    if request.param == "bits":
        monkeypatch.setattr(dense, "_CROSSOVER", 10**9)
    elif request.param == "array":
        monkeypatch.setattr(dense, "_CROSSOVER", -1)
    return request.param


def gf2_rows(rng, m, k):
    rows = [rng.getrandbits(k) if k else 0 for _ in range(m)]
    if m > 1:
        rows[0] = (1 << k) - 1  # the top bit of the last byte
        rows[-1] = 0
    return rows


def test_gf2_take_cols_matches_per_bit_reference(gf2_route):
    rng = random.Random(41)
    for m in GF2_HEIGHTS:
        for k in GF2_WIDTHS:
            rows = gf2_rows(rng, m, k)
            a = DenseMatrix(GF2, m, k, list(rows))
            perm = list(range(k))
            rng.shuffle(perm)
            subset = rng.sample(range(k), k // 2)
            dups = [rng.randrange(k) for _ in range(k + 3)] if k else []
            for idx in (perm, sorted(subset), subset, dups, []):
                got = a.take_cols(idx)
                assert got.shape == (m, len(idx))
                assert got._d == ref_take_cols_bits(rows, idx), (m, k, idx)
                assert_packed(got)
            assert a._d == rows


def test_gf2_conj_transpose_matches_per_bit_reference(gf2_route):
    rng = random.Random(43)
    for m in GF2_HEIGHTS:
        for k in GF2_WIDTHS:
            rows = gf2_rows(rng, m, k)
            a = DenseMatrix(GF2, m, k, list(rows))
            at = a.conj_transpose()
            assert at.shape == (k, m)
            assert at._d == ref_transpose_bits(rows, k), (m, k)
            assert_packed(at)
            assert at.conj_transpose() == a


def test_gf2_permute_matches_per_bit_reference(gf2_route):
    rng = random.Random(47)
    for n in (5, 17, 70):
        rows = gf2_rows(rng, n, n)
        p = list(range(n))
        q = list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        got = permute(DenseMatrix(GF2, n, n, rows), Permutation(p), Permutation(q))
        assert got._d == ref_take_cols_bits([rows[i] for i in p], q)
        assert_packed(got)


def test_gf2_factors_keep_packed_rows(gf2_route):
    rng = random.Random(53)
    for (m, n), cutoff in (((40, 40), None), ((70, 130), 8), ((300, 300), None)):
        ldl = fast_ldl(rand_symmetric(GF2, rng, n), cutoff)
        assert_packed(ldl.L)
        lu = fast_lu(DenseMatrix(GF2, m, n, gf2_rows(rng, m, n)), cutoff)
        assert_packed(lu.L)
        assert_packed(lu.U)


# -- the array routes of the GF(2) and GF(p) kernels against Python ints -------

GF_23 = FieldContext.gfp(8388593)  # 128 (p-1)^2 < 2^53 < 129 (p-1)^2

# "cheap" keeps the per-bit loops, the int64 products and the list
# elimination at every size, "array" takes the whole-array route at every
# size, and "default" splits at dense._CROSSOVER.
ROUTES = {"default": None, "cheap": 10**9, "array": -1}


@pytest.fixture(params=list(ROUTES))
def route(request, monkeypatch):
    if ROUTES[request.param] is not None:
        monkeypatch.setattr(dense, "_CROSSOVER", ROUTES[request.param])
    return request.param


def metered(ctx, fn, *args):
    """fn(*args) and the ops it metered."""
    ctx.enable_counter()
    try:
        return fn(*args), ctx.counter.snapshot()
    finally:
        ctx.disable_counter()


def test_gf2_matmul_matches_parity_reference(route):
    rng = random.Random(61)
    for m in GF2_HEIGHTS:
        for k in GF2_WIDTHS:
            for n in (1, 9, 65, 257):
                arows, brows = gf2_rows(rng, m, k), gf2_rows(rng, k, n)
                a, b = DenseMatrix(GF2, m, k, list(arows)), DenseMatrix(GF2, k, n, list(brows))
                c, counts = metered(GF2, matmul, a, b, 10**9)
                bcols = ref_transpose_bits(brows, n)
                want = [sum(((r & col).bit_count() & 1) << j for j, col in enumerate(bcols))
                        for r in arows]
                assert c._d == want, (m, k, n)
                assert_packed(c)
                used = sum(r.bit_count() for r in arows) if k else 0
                w = used * packed_ops(n)
                assert counts == {"add": w, "mul": w, "inv": 0}


def parity_product(arows, brows, n):
    """Packed rows of a b over GF(2) from packed rows, b of width n."""
    bcols = ref_transpose_bits(brows, n)
    return [sum(((r & col).bit_count() & 1) << j for j, col in enumerate(bcols)) for r in arows]


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("shape", [LOWER, LOWER_UNIT, UPPER, UPPER_UNIT])
def test_gf2_tri_solve_matches_parity_reference(route, side, shape, monkeypatch):
    # X l = b takes X^T through the XOR loop when X has more than
    # _CROSSOVER entries: 29 rows against a base block of 9 or more.
    rng = random.Random(67)
    for n in (1, 9, 65, 257):
        l = triangular(GF2, rng, n, shape)
        for m in GF2_HEIGHTS:
            dims = (n, m) if side == LEFT else (m, n)
            brows = gf2_rows(rng, *dims)
            b = DenseMatrix(GF2, *dims, list(brows))
            x, counts = metered(GF2, tri_solve, l, b, side, shape)
            assert_packed(x)
            back = parity_product(l._d, x._d, m) if side == LEFT else parity_product(x._d, l._d, n)
            assert back == brows, (n, m)
            with monkeypatch.context() as patch:
                patch.setattr(dense, "_CROSSOVER", 10**9)
                assert metered(GF2, tri_solve, l, b, side, shape) == (x, counts), (n, m)


def extreme_residues(ctx, rng, m, n):
    """Residues that are mostly p - 1, p - 2 or 0: the largest row sums."""
    p = ctx.p
    rows = [[rng.choice((p - 1, p - 1, p - 2, 0, rng.randrange(p))) for _ in range(n)]
            for _ in range(m)]
    return DenseMatrix(ctx, m, n, np.array(rows, dtype=np.int64).reshape(m, n))


@pytest.mark.parametrize("kctx,inner", [
    (GF7, (1, 17, 300)),
    (GF1009, (1, 17, 300)),
    (GF_23, (127, 128, 129)),  # one float64 product up to k = 128, limbs above
    (GF_BIG, (0, 1, 2, 40)),
])
def test_gfp_matmul_matches_integer_reference(route, kctx, inner):
    rng = random.Random(repr(("gfp", kctx.p, inner)))
    for k in inner:
        for m, n in ((1, 1), (3, 20), (20, 3), (24, 24)):
            a, b = extreme_residues(kctx, rng, m, k), extreme_residues(kctx, rng, k, n)
            if k:  # one entry at the largest odd sum, which float64 cannot hold past 2^53
                a._d[0] = kctx.p - 2
                b._d[:, 0] = kctx.p - 2
            c, counts = metered(kctx, matmul, a, b, 10**9)
            bcols = list(zip(*b.to_lists())) if k else [()] * n
            want = [[sum(x * y for x, y in zip(row, col)) % kctx.p for col in bcols]
                    for row in a.to_lists()]
            assert c.to_lists() == want, (m, k, n)
            assert_storage(kctx, c)
            if k:
                assert counts == {"add": m * n * (k - 1), "mul": m * k * n, "inv": 0}


def test_gfp_blas_product_chunks_long_inner_dimensions():
    # The low limbs' sum over k = 2^21 + 1025 inner indices is odd and above
    # 2^53, so it is exact only in chunks of at most 2^21.
    p = GF_BIG.p
    k = (1 << 21) + 1025
    v = 0x7FFEFFFF  # below p, low limb 0xFFFF
    a = np.full((1, k), v, dtype=np.int64)
    a[0, :7] = [0, 1, p - 1, p - 2, 12345, 1 << 16, (1 << 16) - 1]
    b = np.full((k, 1), v, dtype=np.int64)
    b[-5:, 0] = [p - 1, 3, 0, 1 << 30, 65535]
    ends = [*range(7), *range(k - 5, k)]  # where a or b differ from v
    want = ((k - len(ends)) * v * v + sum(int(a[0, t]) * int(b[t, 0]) for t in ends)) % p
    assert dense._blas_product(a, b, p).tolist() == [[want]]


def elimination_inputs(ctx, rng):
    yield mixed_matrix(ctx, rng, 16, 40)
    yield mixed_matrix(ctx, rng, 20, 14)  # every column a pivot before the last row
    yield rand_matrix(ctx, rng, 3, 100)
    g, h = mixed_matrix(ctx, rng, 16, 5), mixed_matrix(ctx, rng, 5, 30)
    yield matmul(g, h)  # rank at most 5
    yield mixed_matrix(ctx, rng, 16, 1)
    yield mixed_matrix(ctx, rng, 1, 300)
    for m, n in ((0, 0), (0, 5), (16, 0), (16, 20)):
        yield DenseMatrix.zeros(ctx, m, n)


def ref_eliminate_rows(ctx, a):
    """Row-by-row elimination on scalars: row i is reduced against the
    pivots so far, in order, and becomes pivot r on its first nonzero
    entry in the current column order q, which is swapped into place r."""
    n = a.ncols
    q = list(range(n))
    urows, piv, lrows = [], [], []
    for i, row in enumerate(a.to_lists()):
        mult = []
        for s, u in enumerate(urows):
            c = ctx.mul(row[q[s]], ctx.inv(u[q[s]]))
            row = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(row, u)]
            mult.append(c)
        r = len(urows)
        j = next((t for t in range(r, n) if row[q[t]] != 0), None)
        if j is not None:
            q[r], q[j] = q[j], q[r]
            urows.append(row)
            piv.append(i)
            mult.append(ctx.one)
        lrows.append(mult + [ctx.zero] * (min(a.nrows, n) - len(mult)))
    order = piv + [i for i in range(a.nrows) if i not in piv]
    r = len(piv)
    return order, q, [lrows[i][:r] for i in order], [[row[j] for j in q] for row in urows]


@pytest.mark.parametrize("kctx", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_gfp_eliminate_rows_same_on_both_routes(kctx, monkeypatch):
    """`factor._lu_rows` on either side of the crossover (GF(p) and GF(2)
    switch working copies, Q has one) against the scalar elimination."""
    rng = random.Random(67)
    for a in elimination_inputs(kctx, rng):
        got = []
        for bound in (10**9, -1):
            monkeypatch.setattr(dense, "_CROSSOVER", bound)
            s = a.schur()
            order, q, cols = factor._lu_rows(s, a.nrows, a.ncols)
            l, u = factor._from_columns(kctx, order, cols), s.block(order[: len(cols)], q)
            assert_storage(kctx, l)
            assert_storage(kctx, u)
            got.append((order, q, l.shape, l.to_lists(), u.shape, u.to_lists()))
        assert got[0] == got[1], a.shape
        order, q, _, ll, (r, _), uu = got[0]
        assert (order, q, ll, uu) == ref_eliminate_rows(kctx, a), a.shape
        # P A Q^T = L U in exact arithmetic, L unit lower trapezoidal, U upper
        rows = a.to_lists()
        pa = [[rows[i][j] for j in q] for i in order]
        lu_rows = [[functools.reduce(kctx.add, [kctx.mul(ll[i][t], uu[t][j]) for t in range(r)],
                                     kctx.zero) for j in range(a.ncols)] for i in range(a.nrows)]
        assert pa == lu_rows
        assert all(ll[i][i] == 1 and not any(ll[i][i + 1 :]) for i in range(r))
        assert all(not any(uu[t][:t]) and uu[t][t] for t in range(r))


@pytest.mark.parametrize("kctx", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_get_and_set_reject_a_column_past_the_last(kctx):
    # negative indices too: numpy and lists would wrap them to the last ones
    a = DenseMatrix.identity(kctx, 3)
    for i, j in ((0, 3), (0, 7), (0, 64), (3, 0), (9, 1), (-1, 0), (0, -1), (-3, -3)):
        with pytest.raises(IndexError, match=re.escape(f"entry ({i}, {j}) out of range for 3x3")):
            a.get(i, j)
        with pytest.raises(IndexError, match=re.escape(f"entry ({i}, {j}) out of range for 3x3")):
            a.set(i, j, kctx.one)
    assert a == DenseMatrix.identity(kctx, 3)


@pytest.mark.parametrize("kctx", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_pad_rejects_a_smaller_shape(kctx):
    # a smaller shape would keep entries past it (lists, packed GF(2) rows)
    # or fail in numpy's broadcast
    a = DenseMatrix.from_rows(kctx, [[1, 1], [1, 1]])
    for shape in ((2, 1), (1, 2), (0, 3), (1, 1)):
        with pytest.raises(DimensionMismatch, match=re.escape(f"cannot pad shape (2, 2) to {shape}")):
            a.pad(*shape)
    assert a.pad(2, 2) == a
    assert a.pad(3, 3).to_lists() == [[1, 1, 0], [1, 1, 0], [0, 0, 0]]


@pytest.mark.parametrize("kctx", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_take_rows_and_cols_reject_an_index_outside_the_matrix(kctx):
    # as get/set do: numpy and lists would wrap a negative index, and a
    # packed GF(2) row reads a column past the last as zero
    a = DenseMatrix.identity(kctx, 3).take_cols([0, 1, 2, 0])
    for take, what, bads in ((a.take_rows, "row", (3, 4, 64, -1, -3)),
                             (a.take_cols, "column", (4, 5, 64, -1, -4))):
        for bad in bads:
            with pytest.raises(IndexError, match=re.escape(f"{what} {bad} out of range for 3x4")):
                take([0, bad, 1])
    assert a.take_rows([2, 0]).to_lists() == [[0, 0, 1, 0], [1, 0, 0, 1]]
    assert a.take_cols([3, 3]).to_lists() == [[1, 1], [0, 0], [0, 0]]
    assert a.take_rows([]).shape == (0, 4) and a.take_cols(range(0)).shape == (3, 0)


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("shape", [LOWER, LOWER_UNIT, UPPER, UPPER_UNIT])
def test_gfp_big_substitution_matches_scalar_reference(route, side, shape):
    # n (p-1)^2 >= 2^63 from n = 2 on: the couplings go in 16-bit limbs.
    rng = random.Random(71)
    p = GF_BIG.p
    for n in (2, 9, 16, 40):
        l = extreme_residues(GF_BIG, rng, n, n)
        lower = shape in (LOWER, LOWER_UNIT)
        for i in range(n):
            for j in range(n):
                if (j > i) if lower else (j < i):
                    l.set(i, j, 0)
            l.set(i, i, 1 if shape in (LOWER_UNIT, UPPER_UNIT) else p - 1 - i)
        b = extreme_residues(GF_BIG, rng, *((n, 7) if side == LEFT else (7, n)))
        x = tri_solve(l, b, side, shape, cutoff=8)
        assert x.to_lists() == ref_tri_solve(GF_BIG, l, b, side, shape), n
        assert_storage(GF_BIG, x)


def test_factor_op_counts_same_on_both_routes(monkeypatch):
    rng = random.Random(73)
    for kctx in (GF2, GF1009, GF_BIG):
        for n, cutoff in ((40, None), (40, 8), (70, None)):
            a = mixed_matrix(kctx, rng, n, n)
            s = rand_symmetric(kctx, rng, n)
            got = []
            for bound in (10**9, -1):
                monkeypatch.setattr(dense, "_CROSSOVER", bound)
                lu, lu_counts = metered(kctx, fast_lu, a, cutoff)
                ldl, ldl_counts = metered(kctx, fast_ldl, s, cutoff)
                got.append((lu.P, lu.Q, lu.L, lu.U, lu.r, lu_counts,
                            ldl.P, ldl.L, ldl.D, ldl.r, ldl_counts))
            assert got[0] == got[1], (kctx, n, cutoff)


# -- storage formats, as the benchmark and the kernels rely on them --------------


def assert_storage(ctx, m):
    """`_d` in the field's format: packed ints below 1 << ncols over GF(2),
    a C-contiguous int64 array over GF(p), rows of the context's rational
    type over Q."""
    assert isinstance(m, DenseMatrix) and m.ctx == ctx
    assert type(m) is type(DenseMatrix.zeros(ctx, 0, 0))
    if ctx.kind == "gf2":
        assert_packed(m)
    elif ctx.kind == "gfp":
        assert m._d.dtype == np.int64 and m._d.flags["C_CONTIGUOUS"]
        assert m._d.shape == m.shape
    else:
        assert len(m._d) == m.nrows and all(len(row) == m.ncols for row in m._d)
        assert all(type(v) is type(ctx.one) for row in m._d for v in row)


@pytest.mark.parametrize("kctx", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_storage_format_of_constructors_and_kernels(kctx):
    rng = random.Random(59)
    a = mixed_matrix(kctx, rng, 20, 20)
    lower = triangular(kctx, rng, 20, LOWER)
    made = {
        "DenseMatrix": DenseMatrix(kctx, 0, 0, DenseMatrix.zeros(kctx, 0, 0)._d),
        "zeros": DenseMatrix.zeros(kctx, 3, 70),
        "from_rows": DenseMatrix.from_rows(kctx, [[1, 0, 1], [0, 1, 1]]),
        "identity": DenseMatrix.identity(kctx, 4),
        "block": a.block(2, 9, 3, 17),
        "take_rows": a.take_rows([5, 1, 1, 19]),
        "take_cols": a.take_cols([19, 0, 3, 3, 7]),
        "take_none": a.take_rows([]).take_cols([]),
        "matmul": matmul(a, a, cutoff=4),
        "tri_solve": tri_solve(lower, a, LEFT, LOWER, cutoff=8),
        "tri_solve_right": tri_solve(lower, a.block(0, 3, 0, 20), RIGHT, LOWER, cutoff=8),
    }
    for m in made.values():
        assert_storage(kctx, m)
