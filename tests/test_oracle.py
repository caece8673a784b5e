import dataclasses
import itertools
import random
import types
from fractions import Fraction

import pytest

from exldl.dense import DenseMatrix, Permutation, matmul, permute
from exldl.factor import ANTIDIAG, SCALAR, DBlock, LDLResult, LUResult, fast_ldl, fast_lu
from exldl import oracle
from exldl.fields import FieldContext, UnorderedField
from exldl.oracle import (
    oracle_inertia,
    oracle_rank,
    oracle_verify_ldl,
    oracle_verify_lu,
    oracle_verify_partial_ldl,
)
from exldl.saddle import PartialLDL, SaddleSystem, schilders_partial_ldl
from exldl.sparse import SparseSym, sparse_ldl
from exldl.treedec import TreeDecomposition

from conftest import GF2, GF7, QQ, planted_symmetric, rand_matrix, rand_symmetric
from test_saddle import rand_saddle

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


def scalar_product(ctx, x, y, ncols=None):
    # `ncols` disambiguates a y with no rows.
    ncols = len(y[0]) if y else ncols
    out = [[ctx.zero] * ncols for _ in x]
    for i, row in enumerate(x):
        for j in range(ncols):
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
    a = rand_symmetric(ctx, rng, 7)
    res = fast_ldl(a)
    pos = {v: t for t, v in enumerate(res.P.fwd)}
    x, y = next((x, y) for x in range(7) for y in range(7) if pos[x] < pos[y])
    a.set(x, y, bump(ctx, a.get(x, y)))
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


@pytest.mark.parametrize("ctx", SPARSE_FIELDS, ids=SPARSE_IDS)
def test_sparse_route_matches_the_dense_route(ctx):
    rng = random.Random(31)
    seen = set()
    coranks = set()
    for a, res in sparse_results(ctx, 24):
        assert oracle_verify_ldl(a, res) == oracle_verify_ldl(a.densify(), res) == oracle.VerifyReport(True)
        coranks.add(a.n - res.r)
        for label, b, bad, changed in mutants(ctx, rng, a, res):
            sparse, dense = oracle_verify_ldl(b, bad), oracle_verify_ldl(b.densify(), bad)
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
    """Claims of r - 1 and r + 1 that pass every structure check, with the
    same report on both routes.  Past column n the appended column of L is
    zero, so L D L^H is still A and only the rank bound can reject the
    claim."""
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
            assert oracle_verify_ldl(a.densify(), fewer) == rep
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
            assert oracle_verify_ldl(a.densify(), more) == rep
            checked += 1
        else:
            assert rep == oracle_verify_ldl(a.densify(), more)
            assert rep.first_violation == f"rank {n + 1} exceeds n = {n}"
            above += 1
    assert checked > len(SHAPES) * 3 and above


# -- the factors certify the rank ---------------------------------------------------


def unit_column(ctx, rows, k):
    return [[ctx.one if i == k else ctx.zero] for i in range(rows)]


def extended(mat, cols=None, rows=None):
    """mat with `cols` appended as columns and `rows` as rows."""
    out = mat.to_lists()
    if cols is not None:
        out = [row + extra for row, extra in zip(out, cols)]
    if rows is not None:
        out += rows
    return DenseMatrix.from_entries(mat.ctx, out, len(out[0]) if out else mat.ncols)


# Each *_claims gives the claims of r - 1 (the last rank dropped) and, where
# the shapes allow, r + 1 (unit columns and rows added), both of valid
# structure.


def ldl_claims(res):
    ctx, (n, r) = res.L.ctx, res.L.shape
    claims = []
    if r:
        size = res.D[-1].size
        claims.append(LDLResult(res.P, res.L.block(0, n, 0, r - size), res.D[:-1], r - size))
    if r < n:
        claims.append(LDLResult(res.P, extended(res.L, unit_column(ctx, n, r)),
                                res.D + [DBlock.scalar(ctx.one)], r + 1))
    return claims


def lu_claims(res):
    ctx, (m, r), n = res.L.ctx, res.L.shape, res.U.ncols
    claims = []
    if r:
        claims.append(LUResult(res.P, res.Q, res.L.block(0, m, 0, r - 1),
                               res.U.block(0, r - 1, 0, n), r - 1))
    if r < min(m, n):
        urow = [ctx.one if j == r else ctx.zero for j in range(n)]
        claims.append(LUResult(res.P, res.Q, extended(res.L, unit_column(ctx, m, r)),
                               extended(res.U, rows=[urow]), r + 1))
    return claims


def partial_claims(f):
    ctx, (n, r), m = f.L.ctx, f.L.shape, f.U.ncols
    claims = []
    if r:
        claims.append(dataclasses.replace(
            f, L=f.L.block(0, n, 0, r - 1), Y=f.Y.block(0, n, 0, r - 1),
            U=f.U.block(0, r - 1, 0, m), D=f.D[:-1], r=r - 1))
    if r < min(n, m):
        urow = [ctx.one if j == r else ctx.zero for j in range(m)]
        claims.append(dataclasses.replace(
            f, L=extended(f.L, unit_column(ctx, n, r)), Y=extended(f.Y, [[ctx.zero]] * n),
            U=extended(f.U, rows=[urow]), D=f.D + [ctx.one], r=r + 1))
    return claims


def certificate_instances(ctx):
    """Dense LDLs, sparse LDLs, LUs and partial LDLs of full and lower rank."""
    rng = random.Random(41)
    ldl, lu, partial = [], [], []
    for n, rank in ((1, 1), (5, 5), (6, 3), (9, 7), (12, 4)):
        a = planted_symmetric(ctx, rng, n, rank)
        ldl.append((a, fast_ldl(a)))
    sparse = list(itertools.islice(sparse_results(ctx, 26), 0, None, 3))
    for m, n, rank in ((1, 1, 1), (4, 7, 4), (7, 4, 2), (8, 8, 5), (5, 9, None)):
        a = rand_matrix(ctx, rng, m, n) if rank is None else \
            matmul(rand_matrix(ctx, rng, m, rank), rand_matrix(ctx, rng, rank, n))
        lu.append((a, fast_lu(a)))
    for n, m, rank in ((6, 3, None), (5, 5, None), (3, 5, None), (7, 4, 2), (6, 6, 3), (4, 3, 1)):
        system = rand_saddle(ctx, rng, n, m, rank)
        partial.append((system, schilders_partial_ldl(system)))
    return ldl, sparse, lu, partial


@pytest.mark.parametrize("ctx", SPARSE_FIELDS, ids=SPARSE_IDS)
def test_verifiers_certify_the_rank_without_a_rank_elimination(ctx, monkeypatch):
    """True results are accepted and claims of one rank fewer or more that
    pass every structure check are rejected by the identity, with
    `oracle_rank` unavailable.  (A dropped 2x2 block of D drops two.)"""
    ldl, sparse, lu, partial = certificate_instances(ctx)

    def banned(*args):
        raise AssertionError("a verifier ran a rank elimination")

    monkeypatch.setattr(oracle, "oracle_rank", banned)
    claims = []
    for route, instances in (("dense LDL", ldl), ("sparse LDL", sparse)):
        for a, res in instances:
            assert oracle_verify_ldl(a, res).ok
            claims += [(route, bad.r - res.r, oracle_verify_ldl(a, bad), "reconstruction mismatch")
                       for bad in ldl_claims(res)]
    for a, res in lu:
        assert oracle_verify_lu(a, res).ok and oracle_verify_lu(a, res, structural=False).ok
        for bad in lu_claims(res):
            rep = oracle_verify_lu(a, bad, structural=False)
            assert oracle_verify_lu(a, bad) == rep
            claims.append(("LU", bad.r - res.r, rep, "reconstruction mismatch"))
    for system, f in partial:
        assert oracle_verify_partial_ldl(system, f).ok
        for bad in partial_claims(f):
            rep = oracle_verify_partial_ldl(system, bad)
            assert rep == partial_report(system, bad)
            claims.append(("partial LDL", bad.r - f.r, rep, ("residual leaks", "constraint block mismatch")))
    for _, _, rep, identity in claims:
        assert not rep.ok
        assert rep.first_violation.startswith(identity), rep.first_violation
    kinds = {(verifier, delta > 0) for verifier, delta, _, _ in claims}
    assert kinds == {(v, more) for v in ("dense LDL", "sparse LDL", "LU", "partial LDL")
                     for more in (False, True)}


@pytest.mark.parametrize("ctx", SPARSE_FIELDS, ids=SPARSE_IDS)
def test_partial_verifier_rejects_a_rank_above_min_n_m(ctx):
    """r = m + 1 (A = I_2, B = [[1, 1]]) and r = n + 1 with n < m, each
    with factors of consistent shapes."""
    one, zero = ctx.one, ctx.zero
    wide = SaddleSystem(DenseMatrix.identity(ctx, 2), DenseMatrix.from_rows(ctx, [[1, 1]]))
    f = PartialLDL(Permutation([0, 1]), Permutation([0]), DenseMatrix.zeros(ctx, 2, 2),
                   DenseMatrix.identity(ctx, 2), DenseMatrix.from_rows(ctx, [[1], [1]]), [one, one], 2)
    assert oracle_verify_partial_ldl(wide, f) == oracle.VerifyReport(False, "rank 2 exceeds min(n, m) = 1")
    tall = SaddleSystem(DenseMatrix.identity(ctx, 1), DenseMatrix.from_rows(ctx, [[1], [1]]))
    f = PartialLDL(Permutation([0]), Permutation([0, 1]), DenseMatrix.zeros(ctx, 1, 2),
                   DenseMatrix.from_rows(ctx, [[one, zero]]), DenseMatrix.identity(ctx, 2), [one, one], 2)
    assert oracle_verify_partial_ldl(tall, f) == oracle.VerifyReport(False, "rank 2 exceeds min(n, m) = 1")


# -- the partial verifier's identities ------------------------------------------------


def conj_t(ctx, rows, ncols):
    return [[ctx.conj(row[j]) for row in rows] for j in range(ncols)]


def partial_report(system, f):
    """The partial verifier's report on factors of valid structure, in
    plain field arithmetic: the first nonzero entry of P A P^H - V L^H -
    L V^H - L D L^H outside the trailing block, V = Y - diag(D) on the
    leading r rows, else Q B P^H against U^H L^H."""
    ctx = system.A.ctx
    (n, r), m = f.L.shape, system.B.nrows
    lists = f.L.to_lists()
    v = f.Y.to_lists()
    for i in range(r):
        v[i][i] = ctx.sub(v[i][i], f.D[i])
    lh, vh = conj_t(ctx, lists, r), conj_t(ctx, v, r)
    ld = [[ctx.mul(x, d) for x, d in zip(row, f.D)] for row in lists]
    ap = [[system.A.get(x, y) for y in f.P.fwd] for x in f.P.fwd]
    for term in (scalar_product(ctx, v, lh, n), scalar_product(ctx, lists, vh, n),
                 scalar_product(ctx, ld, lh, n)):
        ap = [[ctx.sub(x, y) for x, y in zip(arow, trow)] for arow, trow in zip(ap, term)]
    leaks = [(i, j) for i in range(n) for j in range(n) if (i < r or j < r) and ap[i][j] != 0]
    if leaks:
        return oracle.VerifyReport(False, "residual leaks outside the trailing block at (%d,%d)" % leaks[0])
    bp = [[system.B.get(x, y) for y in f.P.fwd] for x in f.Q.fwd]
    mism = mismatches(bp, scalar_product(ctx, conj_t(ctx, f.U.to_lists(), m), lh, n))
    if not mism:
        return oracle.VerifyReport(True)
    i, j, want = mism[0]
    return oracle.VerifyReport(
        False, f"constraint block mismatch at ({i},{j}): permuted B is {bp[i][j]}, U^H L^H gives {want}",
        len(mism))


def partial_mutants(ctx, rng, system, f):
    """(label, system, factors) with one entry of Y, L, U, D, A or B
    changed, each keeping every structure check of the verifier."""
    (n, r), m = f.L.shape, system.B.nrows
    if r:
        i = rng.randrange(1, n) if n > 1 else None
        for label, field in (("Y", "Y"), ("L", "L")):
            if i is not None:
                bad = getattr(f, field).copy()
                k = rng.randrange(min(i, r))
                bad.set(i, k, bump(ctx, bad.get(i, k)))
                yield label, system, dataclasses.replace(f, **{field: bad})
        i = rng.randrange(r)
        j = rng.randrange(i + 1, m) if i + 1 < m else i
        bad = f.U.copy()
        bad.set(i, j, bump(ctx, bad.get(i, j)))
        if bad.get(i, i) != 0:
            yield "U", system, dataclasses.replace(f, U=bad)
        d = list(f.D)
        k = rng.randrange(r)
        d[k] = bump(ctx, d[k])
        yield "D", system, dataclasses.replace(f, D=d)
        # an entry that the identity constrains: a leading row or column
        i, j = rng.randrange(r), rng.randrange(n)
        x, y = (f.P.fwd[i], f.P.fwd[j]) if rng.random() < 0.5 else (f.P.fwd[j], f.P.fwd[i])
        a = system.A.copy()
        a.set(x, y, bump(ctx, a.get(x, y)))
        yield "A", types.SimpleNamespace(A=a, B=system.B), f
    b = system.B.copy()
    x, y = rng.randrange(m), rng.randrange(n)
    b.set(x, y, bump(ctx, b.get(x, y)))
    yield "B", types.SimpleNamespace(A=system.A, B=b), f


@pytest.mark.parametrize("ctx", SPARSE_FIELDS, ids=SPARSE_IDS)
def test_partial_verifier_reports_the_first_leak_and_the_constraint_mismatches(ctx):
    rng = random.Random(43)
    seen = {}
    for n, m, rank in ((6, 3, None), (5, 5, None), (3, 5, None), (7, 4, 2), (6, 6, 3), (8, 2, None)):
        for _ in range(3):
            system = rand_saddle(ctx, rng, n, m, rank)
            f = schilders_partial_ldl(system)
            assert oracle_verify_partial_ldl(system, f) == partial_report(system, f) == oracle.VerifyReport(True)
            for label, bad_system, bad in partial_mutants(ctx, rng, system, f):
                rep = oracle_verify_partial_ldl(bad_system, bad)
                assert not rep.ok, label
                assert rep == partial_report(bad_system, bad), label
                seen.setdefault(label, set()).add(rep.first_violation.split(" at ")[0])
    assert set(seen) == {"Y", "L", "U", "D", "A", "B"}
    assert {"residual leaks outside the trailing block", "constraint block mismatch"} <= set().union(*seen.values())
    assert seen["B"] == {"constraint block mismatch"}


# -- the structure rejections ------------------------------------------------------------
#
# One mutation of a valid factorization per structure check, each asserting
# the check's own message.  Three messages cannot fire: the conjugate
# symmetry of a scalar D block (`_check_d_blocks`) and of a partial D
# entry, as conjugation is the identity on every shipped field, and "L
# column k is zero" of the LU staircase, as the unit lower trapezoid check
# before it puts a one in every column.


def with_entries(m, *entries):
    out = m.copy()
    for i, j, v in entries:
        out.set(i, j, v)
    return out


def first_violation(verify, *args, **kwargs):
    rep = verify(*args, **kwargs)
    assert not rep.ok and rep.reconstruction_error_count == 0
    return rep.first_violation


def test_verify_ldl_rejects_each_broken_structure(ctx):
    one = ctx.one
    a = DenseMatrix.identity(ctx, 3)
    good = LDLResult(Permutation(range(3)), a.copy(), [DBlock.scalar(one)] * 3, 3)
    assert oracle_verify_ldl(a, good).ok
    for change, msg in (
        ({"L": DenseMatrix.zeros(ctx, 3, 2)}, "L has shape (3, 2), expected (3, 3)"),
        ({"P": Permutation(range(2))}, "P has wrong size"),
        ({"D": [DBlock.scalar(one), DBlock("block", d=one)]}, "unknown D block kind 'block' at 1"),
    ):
        assert first_violation(oracle_verify_ldl, a, dataclasses.replace(good, **change)) == msg


def test_verify_lu_rejects_each_broken_structure(ctx):
    one, zero = ctx.one, ctx.zero
    a, eye = DenseMatrix.identity(ctx, 2), DenseMatrix.identity(ctx, 2)
    good = LUResult(Permutation(range(2)), Permutation(range(2)), eye, eye, 2)
    assert oracle_verify_lu(a, good).ok
    for change, msg in (
        ({"U": DenseMatrix.zeros(ctx, 2, 3)}, "factor shapes do not match"),
        ({"U": with_entries(eye, (0, 0, zero))}, "U diagonal entry 0 is zero"),
        ({"U": with_entries(eye, (1, 0, one))}, "U[1][0] below the diagonal is nonzero"),
    ):
        assert first_violation(oracle_verify_lu, a, dataclasses.replace(good, **change)) == msg
    # Valid but for the structural checks: pivot rows 1, 0 ...
    swapped = LUResult(Permutation([1, 0]), Permutation([1, 0]), eye, eye, 2)
    assert oracle_verify_lu(a, swapped, structural=False).ok
    assert first_violation(oracle_verify_lu, a, swapped) == (
        "pivot rows are not in original relative order"
    )
    # ... and pivot rows 1, 2 whose L, in original row order, has its
    # column 1 start on row 0, above column 0's start on row 1.
    a = DenseMatrix.from_rows(ctx, [[0, 1], [1, 0], [0, 1]])
    stair = LUResult(Permutation([1, 2, 0]), Permutation(range(2)),
                     DenseMatrix.from_rows(ctx, [[1, 0], [0, 1], [0, 1]]), eye, 2)
    assert oracle_verify_lu(a, stair, structural=False).ok
    assert first_violation(oracle_verify_lu, a, stair) == (
        "echelon staircase violated: column supports do not shrink"
    )


def test_verify_partial_ldl_rejects_each_broken_structure(ctx):
    # A = B = I_2 with L = U = I, Y = 0 and D = -1: V = -I and A - 2V - D = 0.
    one, zero, minus = ctx.one, ctx.zero, ctx.neg(ctx.one)
    eye, y = DenseMatrix.identity(ctx, 2), DenseMatrix.zeros(ctx, 2, 2)
    system = SaddleSystem(eye, eye)
    good = PartialLDL(Permutation(range(2)), Permutation(range(2)), y, eye, eye, [minus] * 2, 2)
    assert oracle_verify_partial_ldl(system, good).ok
    for change, msg in (
        ({"Y": DenseMatrix.zeros(ctx, 2, 1)}, "partial LDL factor shapes do not match"),
        ({"D": [minus]}, "partial LDL D has wrong length"),
        ({"L": with_entries(eye, (0, 1, one))}, "L[0][1] above the diagonal is nonzero"),
        ({"L": with_entries(eye, (1, 1, zero))}, "L diagonal entry 1 is not one"),
        ({"Y": with_entries(y, (0, 0, one))}, "Y diagonal entry 0 is nonzero"),
        ({"Y": with_entries(y, (0, 1, one))}, "Y[0][1] above the diagonal is nonzero"),
        ({"U": with_entries(eye, (1, 1, zero))}, "U diagonal entry 1 is zero"),
        ({"U": with_entries(eye, (1, 0, one))}, "U[1][0] below the diagonal is nonzero"),
    ):
        got = first_violation(oracle_verify_partial_ldl, system, dataclasses.replace(good, **change))
        assert got == msg


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
