import dataclasses
import random
from fractions import Fraction

import pytest

from exldl.dense import DenseMatrix, Permutation, matmul, permute
from exldl.factor import ANTIDIAG, SCALAR, DBlock, LDLResult, LUResult, fast_ldl, fast_lu
from exldl import oracle
from exldl.fields import FieldContext, UnorderedField
from exldl.oracle import oracle_inertia, oracle_rank, oracle_verify_ldl, oracle_verify_lu
from exldl.sparse import SparseSym, sparse_ldl
from exldl.treedec import TreeDecomposition

from conftest import GF2, GF7, QQ, planted_symmetric, rand_matrix, rand_symmetric

SPARSE_FIELDS = [GF2, FieldContext.gfp(3), GF7, FieldContext.gfp(1009), QQ]
SPARSE_IDS = ["gf2", "gf3", "gf7", "gf1009", "rational"]


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


def test_verify_ldl_rejects_a_matrix_that_is_not_square(ctx):
    # _perm_lists reads only the leading square block, which this LDL fits.
    ldl = fast_ldl(DenseMatrix.from_rows(ctx, [[1, 1], [1, 0]]))
    wide = DenseMatrix.from_rows(ctx, [[1, 1, 1], [1, 0, 1]])
    rep = oracle_verify_ldl(wide, ldl)
    assert not rep.ok
    assert rep.first_violation == "A has shape (2, 3), expected a square matrix"
    tall = DenseMatrix.from_rows(ctx, [[1, 1], [1, 0], [1, 1]])
    assert oracle_verify_ldl(tall, ldl).first_violation == (
        "A has shape (3, 2), expected a square matrix"
    )


# -- the sparse route against the dense one --------------------------------------------


def sparse_el(ctx, rng):
    if ctx.kind == "gf2":
        return 1
    if ctx.kind == "gfp":
        return rng.randrange(1, ctx.p)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))


def ktree_pattern(rng, n, k):
    """Bags, tree edges and upper-triangle pattern of a random partial k-tree."""
    bags = [set(range(k + 1))]
    edges = []
    pattern = {(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)}
    for v in range(k + 1, n):
        host = rng.randrange(len(bags))
        sub = rng.sample(sorted(bags[host]), k)
        bags.append(set(sub) | {v})
        edges.append((host, len(bags) - 1))
        pattern.update((u, v) for u in sub if rng.random() < 0.8)
    return bags, edges, pattern


def strip_pattern(w, length):
    """w x length grid, vertex (r, c) -> c w + r, with sliding-window bags."""
    pattern = set()
    for v in range(w * length):
        if v % w < w - 1:
            pattern.add((v, v + 1))
        if v + w < w * length:
            pattern.add((v, v + w))
    bags = [{c * w + rr for rr in range(r, w)} | {c * w + w + rr for rr in range(r + 1)}
            for c in range(length - 1) for r in range(w)]
    return bags, [(i, i + 1) for i in range(len(bags) - 1)], pattern


def sparse_instance(ctx, rng, shape, diag, twins):
    """A SparseSym on a k-tree ("k", n, k) or strip ("strip", w, length)
    pattern with its decomposition.  Each diagonal entry is set with
    probability `diag`.  Each of `twins` new vertices copies, times a
    nonzero c, the column of a vertex v whose closed neighbourhood lies in
    one bag; both diagonals are zero, so the twin plants one more corank."""
    kind, x, y = shape
    bags, edges, pattern = ktree_pattern(rng, x, y) if kind == "k" else strip_pattern(x, y)
    n = max(v for bag in bags for v in bag) + 1
    a = {}
    for i, j in pattern:
        a[i, j] = sparse_el(ctx, rng)
    for i in range(n):
        if rng.random() < diag:
            a[i, i] = sparse_el(ctx, rng)
    for _ in range(twins):
        nbrs = {v: {v} for v in range(n)}
        for i, j in a:
            nbrs[i].add(j)
            nbrs[j].add(i)
        v, host = next((v, t) for v in rng.sample(range(n), n) for t, bag in enumerate(bags)
                       if nbrs[v] <= bag)
        c = sparse_el(ctx, rng)
        a.pop((v, v), None)
        for u in nbrs[v] - {v}:
            a[u, n] = ctx.mul(a[(u, v) if u < v else (v, u)], c)
        bags.append(nbrs[v] - {v} | {n})
        edges.append((host, len(bags) - 1))
        n += 1
    return SparseSym.from_entries(ctx, n, [(i, j, v) for (i, j), v in a.items()]), \
        TreeDecomposition.build(n, bags, edges)


SHAPES = [("k", 6, 1), ("k", 14, 2), ("k", 22, 3), ("k", 30, 4), ("strip", 2, 7), ("strip", 3, 6)]


def sparse_results(ctx, seed):
    """(A, its explicit sparse_ldl) on every shape, without and with a
    diagonal, and with no, one and two twins."""
    rng = random.Random(seed)
    for shape in SHAPES:
        for diag, twins in ((0.0, 0), (0.6, 1), (0.3, 2)):
            a, td = sparse_instance(ctx, rng, shape, diag, twins)
            yield a, sparse_ldl(a, td, explicit=True).explicit


def with_entry(a, i, j, v):
    out = SparseSym(a.ctx, a.n)
    out.rows = [dict(row) for row in a.rows]
    out.set(i, j, v)
    return out


def block_supports(res):
    """For each D block, the rows where one of its columns of L is nonzero."""
    cols = res.L.conj_transpose().to_lists()
    out, off = [], 0
    for blk in res.D:
        out.append({i for col in cols[off:off + blk.size] for i, v in enumerate(col) if v})
        off += blk.size
    return out


def mutants(ctx, rng, a, res):
    """(label, A, result, changed entry of A or None) for one wrong L
    entry (below the diagonal and anywhere), one wrong scalar D entry, one
    wrong antidiagonal D block and one wrong a12 alone, a transposition of
    P, and A with one stored entry changed and one new entry outside L's
    fill (off the diagonal and on it)."""
    n, r = a.n, res.r
    if r:
        i = rng.randrange(1, n)
        below = (i, rng.randrange(min(i, r)))
        for label, (i, k) in (("L below", below), ("L any", (rng.randrange(n), rng.randrange(r)))):
            bad = res.L.copy()
            bad.set(i, k, bump(ctx, bad.get(i, k)))
            yield label, a, dataclasses.replace(res, L=bad), None
    for kind, fields in ((SCALAR, ("d",)), (ANTIDIAG, ("a12", "a21")), (ANTIDIAG, ("a12",))):
        ks = [k for k, blk in enumerate(res.D) if blk.kind == kind]
        if ks:
            k = rng.choice(ks)
            new = bump(ctx, getattr(res.D[k], fields[0]))
            d = list(res.D)
            d[k] = dataclasses.replace(d[k], **{f: new for f in fields})
            yield f"D {fields}", a, dataclasses.replace(res, D=d), None
    if n > 1:
        i, j = rng.sample(range(n), 2)
        fwd = list(res.P.fwd)
        fwd[i], fwd[j] = fwd[j], fwd[i]
        yield "P", a, dataclasses.replace(res, P=Permutation(fwd)), None
    stored = [(u, v) for u, row in enumerate(a.rows) for v in row]
    if stored:
        u, v = rng.choice(stored)
        yield "A changed", with_entry(a, u, v, bump(ctx, a.get(u, v))), res, (u, v)
    covered = block_supports(res)
    fwd = res.P.fwd
    outside = [(i, j) for i in range(n) for j in range(i + 1)
               if not any(i in s and j in s for s in covered)]
    for label, cands in (("A new off-diagonal", [(i, j) for i, j in outside if i != j]),
                         ("A new diagonal", [(i, j) for i, j in outside if i == j])):
        if cands:
            i, j = rng.choice(cands)
            yield label, with_entry(a, fwd[i], fwd[j], sparse_el(ctx, rng)), res, (i, j)


def both_routes(a, res, monkeypatch):
    """The sparse route's report and the dense route's; when A's rank is
    not the claim, the dense route reports it, and its report with the
    rank check answering the claim is what the sparse route must give."""
    sparse = oracle_verify_ldl(a, res)
    dense = oracle_verify_ldl(a.densify(), res)
    if oracle_rank(a.densify()) != res.r:
        assert dense.first_violation == f"claimed rank {res.r} != reference rank"
        with monkeypatch.context() as m:
            m.setattr(oracle, "oracle_rank", lambda _: res.r)
            dense = oracle_verify_ldl(a.densify(), res)
    return sparse, dense


@pytest.mark.parametrize("ctx", SPARSE_FIELDS, ids=SPARSE_IDS)
def test_sparse_route_matches_the_dense_route(ctx, monkeypatch):
    rng = random.Random(31)
    seen = set()
    coranks = set()
    for a, res in sparse_results(ctx, 24):
        assert oracle_verify_ldl(a, res) == oracle_verify_ldl(a.densify(), res) == oracle.VerifyReport(True)
        coranks.add(a.n - res.r)
        for label, b, bad, changed in mutants(ctx, rng, a, res):
            sparse, dense = both_routes(b, bad, monkeypatch)
            assert sparse == dense, (label, sparse, dense)
            seen.add(label)
            if changed:
                # the result was exact, so only the changed entry and its mirror differ
                i, j = changed
                assert sparse.reconstruction_error_count == (1 if i == j else 2), label
    assert {"L below", "L any", "D ('d',)", "D ('a12', 'a21')", "D ('a12',)", "P",
            "A changed", "A new off-diagonal", "A new diagonal"} <= seen
    assert max(coranks) >= 2


@pytest.mark.parametrize("ctx", SPARSE_FIELDS, ids=SPARSE_IDS)
def test_sparse_route_rejects_a_wrong_rank_with_valid_structure(ctx):
    """Claims of r - 1 and r + 1 that pass every structure check.  Past
    column n the appended column of L is zero, so L D L^H is still A and
    only the rank check can reject the claim, on both routes alike."""
    one = SparseSym.from_entries(ctx, 1, [(0, 0, ctx.one)])
    exact = LDLResult(Permutation([0]), DenseMatrix.from_rows(ctx, [[1]]), [DBlock.scalar(ctx.one)], 1)
    checked = above = 0
    for a, res in [(one, exact), *sparse_results(ctx, 25)]:
        n, r = a.n, res.r
        if r:
            size = res.D[-1].size
            fewer = LDLResult(res.P, res.L.block(0, n, 0, r - size), res.D[:-1], r - size)
            rep = oracle_verify_ldl(a, fewer)
            assert not rep.ok
            # a dropped scalar block's column differs first on its diagonal, a pair's off it
            assert rep.first_violation.startswith(f"reconstruction mismatch at ({r - size},{r - 1}):")
            assert oracle_verify_ldl(a.densify(), fewer).first_violation.startswith("claimed rank")
            checked += 1
        rows = [row + [ctx.one if i == r else ctx.zero] for i, row in enumerate(res.L.to_lists())]
        more = LDLResult(res.P, DenseMatrix.from_rows(ctx, rows), res.D + [DBlock.scalar(ctx.one)], r + 1)
        rep = oracle_verify_ldl(a, more)
        if r < n:
            assert not rep.ok
            assert rep.reconstruction_error_count == 1
            assert rep.first_violation == (
                f"reconstruction mismatch at ({r},{r}): permuted A is 0, LDL^H gives 1"
            )
            assert oracle_verify_ldl(a.densify(), more).first_violation.startswith("claimed rank")
            checked += 1
        else:
            assert rep == oracle_verify_ldl(a.densify(), more)
            assert rep.first_violation == f"claimed rank {n + 1} != reference rank"
            above += 1
    assert checked > len(SHAPES) * 3 and above


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
