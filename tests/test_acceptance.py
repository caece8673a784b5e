"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (zero tolerance) and every tolerance or bound
asserted here is pinned in the test body.
"""

import itertools
import random
import time
import zlib

import pytest

from exldl.cli import main, reverify_json, write_matrix_market
from exldl.dense import DenseMatrix, matmul
from exldl.factor import fast_ldl, fast_lu, inertia_from_D, natural_order_ldl
from exldl.fields import op_count_snapshot
from exldl.oracle import (
    oracle_congruences,
    oracle_inertia,
    oracle_inertia_congruence,
    oracle_rank,
    oracle_verify_ldl,
    oracle_verify_lu,
    oracle_verify_partial_ldl,
)
from exldl.saddle import (
    SaddleSystem,
    complete_saddle_ldl,
    gamma_eliminate_partial,
    schilders_partial_ldl,
)
from exldl.sparse import (
    EdgeElim,
    Peel,
    Transcript,
    _offdiag_count,
    peel_vertex,
    sparse_ldl,
    sparse_lu,
    transcript_ldl,
)
from conftest import ALL_FIELDS, GF2, GF7, GF1009, QQ, rand_matrix, rand_symmetric
from test_saddle import example_fill_family, nnz
from test_sparse import (
    bidiagonal,
    cycle_graph,
    grid_strip,
    path_graph,
    random_ktree_sym,
    star_graph,
)


def field_seed(base, ctx, modulus):
    """Seed of one field's instance stream, the same on every run: the
    offset is a checksum of the field's name, not of the object's address."""
    return base + zlib.crc32(repr(ctx).encode()) % modulus


def _passline(num, msg):
    print(f"\n[PASS] criterion {num}: {msg}")


def small_symmetric(ctx, rng, n):
    """Symmetric instance with small entries (keeps exact rationals fast)."""
    a = DenseMatrix.zeros(ctx, n, n)
    for i in range(n):
        for j in range(i, n):
            if ctx.kind == "gf2":
                v = rng.randint(0, 1)
            elif ctx.kind == "gfp":
                v = rng.randrange(ctx.p)
            else:
                v = ctx.el(rng.randint(-3, 3))
            a.set(i, j, ctx.el(v))
            a.set(j, i, ctx.conj(ctx.el(v)))
    return a


def planted_rank_symmetric(ctx, rng, n, k):
    """G S G^H with S of size k; the actual rank may land anywhere <= k."""
    s = small_symmetric(ctx, rng, k)
    g = DenseMatrix.zeros(ctx, n, k)
    for i in range(n):
        for j in range(k):
            if ctx.kind == "gf2":
                v = rng.randint(0, 1)
            elif ctx.kind == "gfp":
                v = rng.randrange(ctx.p)
            else:
                v = rng.randint(-2, 2)
            g.set(i, j, ctx.el(v))
    return matmul(matmul(g, s), g.conj_transpose())


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_01_exhaustive_gf2():
    t0 = time.perf_counter()
    count = 0
    for n in range(1, 5):
        pos = [(i, j) for i in range(n) for j in range(i, n)]
        for bits in itertools.product((0, 1), repeat=len(pos)):
            a = DenseMatrix.zeros(GF2, n, n)
            for (i, j), b in zip(pos, bits):
                if b:
                    a.set(i, j, 1)
                    a.set(j, i, 1)
            res = fast_ldl(a)
            rep = oracle_verify_ldl(a, res)
            assert rep.ok, f"n={n} bits={bits}: {rep.first_violation}"
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passline(1, f"all {count} symmetric GF(2) matrices with n <= 4 verified in {elapsed:.1f}s")


# -- criteria 2 and 3 --------------------------------------------------------------


@pytest.fixture(scope="module")
def dense_random_runs():
    runs = []
    t0 = time.perf_counter()
    for ctx in ALL_FIELDS:
        rng = random.Random(field_seed(20_000, ctx, 97))
        for i in range(500):
            n = rng.randint(1, 48)
            if i % 5 < 3:
                a = small_symmetric(ctx, rng, n)
            else:
                a = planted_rank_symmetric(ctx, rng, n, rng.randint(0, n))
            ldl = fast_ldl(a)
            lu = fast_lu(a)
            runs.append((ctx, a, ldl, lu))
    return runs, time.perf_counter() - t0


def test_criterion_02_randomized_reconstruction(dense_random_runs):
    runs, gen_elapsed = dense_random_runs
    t0 = time.perf_counter()
    for ctx, a, ldl, lu in runs:
        rep = oracle_verify_ldl(a, ldl)
        assert rep.ok, f"{ctx}: LDL {rep.first_violation}"
        rep = oracle_verify_lu(a, lu, structural=False)
        assert rep.ok, f"{ctx}: LU {rep.first_violation}"
    elapsed = gen_elapsed + (time.perf_counter() - t0)
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _passline(2, f"2000 random instances (4 fields, n in [1,48]) verified in {elapsed:.1f}s")


def test_criterion_03_lu_structure(dense_random_runs):
    runs, _ = dense_random_runs
    for ctx, a, _, lu in runs:
        piv = lu.P.fwd[: lu.r]
        assert list(piv) == sorted(piv), "pivot rows reordered"
        rep = oracle_verify_lu(a, lu, structural=True)
        assert rep.ok, f"{ctx}: {rep.first_violation}"
    _passline(3, "first-r row order and echelon staircase hold on every criterion-2 instance")


# -- criterion 4 -----------------------------------------------------------------


def test_criterion_04_partial_ldl_identity():
    t0 = time.perf_counter()
    total = 0
    for ctx in ALL_FIELDS:
        rng = random.Random(field_seed(31_000, ctx, 89))
        for i in range(200):
            n = rng.randint(1, 24)
            m = rng.randint(1, 24)
            a = small_symmetric(ctx, rng, n)
            kind = i % 3
            if kind == 0:
                b = rand_matrix(ctx, rng, m, n) if ctx.kind != "rational" else _small(ctx, rng, m, n)
            elif kind == 1:
                k = rng.randint(0, min(m, n))
                b = matmul(_small(ctx, rng, m, k), _small(ctx, rng, k, n))
            else:
                b = DenseMatrix.zeros(ctx, m, n)
            system = SaddleSystem(a, b)
            for build in (gamma_eliminate_partial, schilders_partial_ldl):
                f = build(system)
                rep = oracle_verify_partial_ldl(system, f)
                assert rep.ok, f"{ctx} {build.__name__}: {rep.first_violation}"
                full = complete_saddle_ldl(system, f)
                rep = oracle_verify_ldl(system.dense(), full)
                assert rep.ok, f"{ctx} {build.__name__} completion: {rep.first_violation}"
            total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _passline(4, f"{total} saddle systems, both constructions plus completions, in {elapsed:.1f}s")


def _small(ctx, rng, m, n):
    out = DenseMatrix.zeros(ctx, m, n)
    for i in range(m):
        for j in range(n):
            if ctx.kind == "gf2":
                v = rng.randint(0, 1)
            elif ctx.kind == "gfp":
                v = rng.randrange(ctx.p)
            else:
                v = rng.randint(-2, 2)
            out.set(i, j, ctx.el(v))
    return out


# -- criterion 5 -----------------------------------------------------------------


def test_criterion_05_fill_example():
    n = 64
    system = example_fill_family(GF7, random.Random(0), n)
    f = gamma_eliminate_partial(system)
    assert f.r == n
    combined = nnz(f.L) + nnz(f.Y) + nnz(f.U) + len(f.D)
    budget = nnz(system.A) + nnz(system.B) + 2 * n
    assert combined <= budget, f"{combined} > {budget}"
    res = natural_order_ldl(system.dense())
    afirst = nnz(res.L) + sum(b.size for b in res.D)
    assert afirst > n * n // 4, f"{afirst} <= {n * n // 4}"
    _passline(
        5,
        f"constraint-pivot order fill {combined} <= {budget}; "
        f"leading-block-first order fill {afirst} > {n * n // 4}",
    )


# -- criterion 6 -----------------------------------------------------------------


def _check_transcript_instance(a, td, tau=None):
    out = sparse_ldl(a, td, tau=tau, explicit=False)
    t = out.transcript
    apos = a.relabel(out.order)
    rep = oracle_verify_ldl(apos, transcript_ldl(t))
    assert rep.ok, rep.first_violation
    assert t.peel_count == a.n - t.rank
    maxbag = out.ntd.td.max_bag()
    assert t.max_offdiag() <= 2 * maxbag
    tau_used = out.ntd.tau
    assert t.homogeneous_blocks() <= 8 * a.n / max(tau_used, 1), (
        f"{t.homogeneous_blocks()} blocks > 8n/tau = {8 * a.n / max(tau_used, 1):.0f}"
    )
    return out


def test_criterion_06_sparse_transcript_invariants():
    t0 = time.perf_counter()
    count = 0
    for ctx in (GF2, GF7):
        rng = random.Random(field_seed(61_000, ctx, 83))
        for a, td in (
            path_graph(ctx, 200),
            cycle_graph(ctx, 150),
            grid_strip(ctx, 2, 100, rng),
            grid_strip(ctx, 3, 80, rng),
            grid_strip(ctx, 4, 60, rng),
        ):
            _check_transcript_instance(a, td)
            count += 1
        for _ in range(25):
            n = rng.randint(40, 512)
            k = rng.randint(1, 5)
            a, td = random_ktree_sym(ctx, rng, n, k)
            _check_transcript_instance(a, td)
            count += 1
    elapsed = time.perf_counter() - t0
    _passline(
        6,
        f"{count} sparse instances (paths, cycles, strips, random bounded-width) "
        f"pass reconstruction, peel-count, nnz, and block bounds in {elapsed:.1f}s",
    )


# -- criterion 7 -----------------------------------------------------------------


def test_criterion_07_linear_scaling():
    t0 = time.perf_counter()
    ops = {}
    for length in (86, 172, 344):
        rng = random.Random(7)
        a, td = grid_strip(GF7, 3, length, rng)
        GF7.enable_counter()
        out = sparse_ldl(a, td, explicit=False)
        snap = op_count_snapshot(GF7)
        GF7.disable_counter()
        assert out.rank >= 0
        ops[3 * length] = snap["add"] + snap["mul"] + snap["inv"]
    r1 = ops[516] / ops[258]
    r2 = ops[1032] / ops[516]
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"took {elapsed:.1f}s"
    assert r1 <= 2.5, f"ops(516)/ops(258) = {r1:.2f}"
    assert r2 <= 2.5, f"ops(1032)/ops(516) = {r2:.2f}"
    _passline(7, f"width-3 strip field-op ratios {r1:.2f}, {r2:.2f} <= 2.5 in {elapsed:.1f}s")


# -- criterion 8 -----------------------------------------------------------------


def test_criterion_08_subcubic_dense_scaling():
    def full_rank(seed, n):
        rng = random.Random(seed)
        while True:
            a = rand_symmetric(GF7, rng, n)
            if fast_ldl(a).r == n:
                return a

    muls = {}
    for n in (128, 256, 512):
        a = full_rank(1, n)
        for label, cutoff in (("strassen", 64), ("classical", 10**9)):
            GF7.enable_counter()
            res = fast_ldl(a, cutoff)
            muls[(n, label)] = op_count_snapshot(GF7)["mul"]
            GF7.disable_counter()
            assert res.r == n
    fast_ratios = [muls[(256, "strassen")] / muls[(128, "strassen")],
                   muls[(512, "strassen")] / muls[(256, "strassen")]]
    slow_ratios = [muls[(256, "classical")] / muls[(128, "classical")],
                   muls[(512, "classical")] / muls[(256, "classical")]]
    assert all(r < 7.9 for r in fast_ratios), fast_ratios
    assert all(r > 7.9 for r in slow_ratios), slow_ratios
    _passline(
        8,
        "mul-count doubling ratios: cutoff 64 -> "
        + ", ".join(f"{r:.2f}" for r in fast_ratios)
        + " (< 7.9); disabled -> "
        + ", ".join(f"{r:.2f}" for r in slow_ratios)
        + " (> 7.9)",
    )


# -- criterion 9 -----------------------------------------------------------------


def test_criterion_09_sparse_lu():
    t0 = time.perf_counter()
    checked = 0
    for ctx in (GF2, GF7):
        rng = random.Random(field_seed(91_000, ctx, 79))
        cases = []
        b = bidiagonal(ctx, 256, 256, rng)
        cases.append(b)
        rows = bidiagonal(ctx, 200, 200, rng).to_lists()
        rows[57] = rows[56]
        rows[118] = rows[117]  # two duplicated rows: corank 2
        cases.append(DenseMatrix.from_rows(ctx, rows))
        # banded near-square pattern with a guaranteed diagonal (full row
        # rank), so the corank against max(m, n) stays tiny
        banded = DenseMatrix.zeros(ctx, 126, 128)
        for i in range(126):
            banded.set(i, i, ctx.one)
            for j in (i + 1, i + 2):
                if j < 128 and rng.random() < 0.6:
                    banded.set(i, j, ctx.one if ctx.kind == "gf2" else ctx.el(rng.randint(1, 6)))
        cases.append(banded)
        for bmat in cases:
            out = sparse_lu(bmat, explicit=True)
            r_ref = oracle_rank(bmat)
            assert out.rank == r_ref, f"rank {out.rank} != {r_ref}"
            corank = max(bmat.nrows, bmat.ncols) - r_ref
            assert corank <= 4
            rep = oracle_verify_lu(bmat, out.explicit, structural=False)
            assert rep.ok, rep.first_violation
            checked += 1
    # star-graph peeling, constructed from the published primitives
    n = 6
    star = DenseMatrix.zeros(GF2, n, n)
    for i in range(1, n):
        star.set(0, i, 1)
        star.set(i, 0, 1)
    t = Transcript(GF2, n)
    for leaf in (2, 3, 4, 5):
        p = peel_vertex(star.take_cols([0, 1, leaf]).take_rows([0, 1]), 2, [1])
        t.append(Peel(leaf, tuple((1, v) for _, v in p.coeffs)))
        assert _offdiag_count(t.transforms[-1]) == 1
    from exldl.factor import edge_eliminate

    ee = edge_eliminate(star.take_rows([0, 1]).take_cols([0, 1]), 0, 1)
    t.append(EdgeElim((0, 1), (), (), ee.blocks[0]))
    assert all(_offdiag_count(tf) <= 1 for tf in t.transforms)
    rep = oracle_verify_ldl(star, transcript_ldl(t))
    assert rep.ok, rep.first_violation
    # the tree engine keeps the same bound on its own transcript
    for ctx in (GF2, GF7):
        a, td = star_graph(ctx, 6)
        out = sparse_ldl(a, td, explicit=False)
        assert out.transcript.max_offdiag() <= 1
        peels = [tf for tf in out.transcript.transforms if isinstance(tf, Peel)]
        assert sum(1 for tf in peels if len(tf.coeffs) == 1) == len(peels) - 1
    elapsed = time.perf_counter() - t0
    _passline(
        9,
        f"{checked} sparse LU instances reconstruct with reference ranks; "
        f"star-graph transforms carry at most one off-diagonal entry ({elapsed:.1f}s)",
    )


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_inertia():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for i in range(100):
        n = rng.randint(1, 12)
        a = small_symmetric(QQ, rng, n)
        rep = oracle_inertia_congruence(a, trials=10, seed=i)
        assert rep.ok, rep.first_violation
        want = oracle_inertia(a)
        for b in (a, *oracle_congruences(a, trials=10, seed=i)):
            assert inertia_from_D(fast_ldl(b).D, n, QQ) == want
    elapsed = time.perf_counter() - t0
    _passline(10, f"100 rational matrices invariant under 10 congruence trials each, "
                  f"fast_ldl's inertia equal to the oracle's on all ({elapsed:.1f}s)")


# -- criterion 11 ----------------------------------------------------------------


def test_criterion_11_cli_round_trip(tmp_path):
    rng = random.Random(111)
    jobs = []
    a = small_symmetric(GF7, rng, 10)
    p1 = tmp_path / "sym.mtx"
    write_matrix_market(p1, a, symmetric=True)
    jobs.append(["--field", "gfp:7", "--mode", "dense-ldl", "--matrix", str(p1)])
    g = _small(QQ, rng, 6, 9)
    p2 = tmp_path / "rect.mtx"
    write_matrix_market(p2, g)
    jobs.append(["--field", "rational", "--mode", "dense-lu", "--matrix", str(p2)])
    star = DenseMatrix.zeros(GF2, 8, 8)
    for i in range(1, 8):
        star.set(0, i, 1)
        star.set(i, 0, 1)
    p3 = tmp_path / "star.mtx"
    write_matrix_market(p3, star, symmetric=True)
    jobs.append(["--field", "gf2", "--mode", "sparse-ldl", "--matrix", str(p3), "--greedy-td"])
    comb = DenseMatrix.zeros(GF7, 7, 4)
    comb.set_block(0, 0, small_symmetric(GF7, rng, 4))
    comb.set_block(4, 0, _small(GF7, rng, 3, 4))
    p4 = tmp_path / "saddle.mtx"
    write_matrix_market(p4, comb)
    jobs.append(
        ["--field", "gfp:7", "--mode", "saddle", "--matrix", str(p4), "--saddle-split", "4"]
    )
    for idx, argv in enumerate(jobs):
        out1 = tmp_path / f"out{idx}a.json"
        out2 = tmp_path / f"out{idx}b.json"
        full = argv + ["--verify", "--stats", "--seed", "7"]
        assert main(full + ["--out", str(out1)]) == 0
        assert main(full + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), "reruns not byte-identical"
        assert reverify_json(out1), f"re-verification from JSON failed for {argv}"
    _passline(11, f"{len(jobs)} CLI pipelines re-verified from JSON with byte-identical reruns")
