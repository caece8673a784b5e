"""The four workloads: inputs from a seed, a fixed job list, exact checks.

A job calls public exldl functions, timing each call, and returns an
Outcome. Its check runs outside the timed sections and returns None or
the first violation. exldl sees only the generated inputs, never the seed.
Calls go through module attributes (`factor.fast_ldl`, ...) so that the
traced run can rebind them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import exact
from exldl import cli, factor, oracle, saddle, sparse
from exldl.dense import DenseMatrix
from exldl.fields import FieldContext
from exldl.sparse import LH_TIMES, L_TIMES, SOLVE_L, SparseSym
from exldl.treedec import TreeDecomposition

RHS = 16  # right-hand sides per transcript application


@dataclass
class Outcome:
    times: dict  # timed section -> seconds
    items: dict  # timed section -> units of work done
    value: object = None
    job: str = ""
    scale: float = 1.0  # calibrated seconds per wall second around this job


@dataclass
class Job:
    name: str
    run: object  # () -> Outcome
    check: object  # (Outcome, Outcome of the first pass or None) -> str | None


def timed(times, section, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    times[section] = times.get(section, 0.0) + time.perf_counter() - t0
    return out


# -- inputs -----------------------------------------------------------------------


def modulus(ctx):
    """Modulus for the exact checker: 2, p, or None for Q."""
    return 2 if ctx.kind == "gf2" else ctx.p


def rand_el(ctx, rng, lo=-3, hi=3):
    if ctx.kind == "gf2":
        return rng.randint(0, 1)
    if ctx.kind == "gfp":
        return rng.randrange(ctx.p)
    return Fraction(rng.randint(lo, hi))


def nonzero_el(ctx, rng):
    return 1 if ctx.kind == "gf2" else ctx.el(rng.randint(1, 6))


def rand_rows(ctx, rng, m, n, lo=-3, hi=3):
    return [[rand_el(ctx, rng, lo, hi) for _ in range(n)] for _ in range(m)]


def sym_rows(ctx, rng, n):
    rows = rand_rows(ctx, rng, n, n)
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return rows


def mul_rows(ctx, x, y, ncols):
    p = modulus(ctx)
    return exact.matmul(p, exact.array(p, x, len(y)), exact.array(p, y, ncols)).tolist()


def planted_rows(ctx, rng, n, k):
    """G S G^T with S symmetric k x k: rank at most k."""
    g = rand_rows(ctx, rng, n, k, -2, 2)
    gt = [list(col) for col in zip(*g)]
    return mul_rows(ctx, mul_rows(ctx, g, sym_rows(ctx, rng, k), k), gt, n)


def low_rank_rows(ctx, rng, m, n, k):
    return mul_rows(ctx, rand_rows(ctx, rng, m, k, -2, 2), rand_rows(ctx, rng, k, n, -2, 2), n)


def saddle_rows(a, b):
    """[[A, B^T], [B, 0]] as rows."""
    m = len(b)
    bt = [list(col) for col in zip(*b)] if m else [[] for _ in a]
    return [ra + rb for ra, rb in zip(a, bt)] + [rb + [0] * m for rb in b]


def to_dense(ctx, rows, ncols=None):
    ncols = len(rows[0]) if rows else (ncols or 0)
    out = DenseMatrix.zeros(ctx, len(rows), ncols)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                out.set(i, j, v)
    return out


def d_tuples(blocks):
    return [("scalar", b.d) if b.kind == "scalar" else ("antidiag", b.a12, b.a21) for b in blocks]


def plain_ldl(res):
    return list(res.P.fwd), res.L.to_lists(), d_tuples(res.D), res.r


def plain_lu(res):
    return list(res.P.fwd), list(res.Q.fwd), res.L.to_lists(), res.U.to_lists(), res.r


def plain_partial(f):
    return list(f.P.fwd), list(f.Q.fwd), f.Y.to_lists(), f.L.to_lists(), f.U.to_lists(), list(f.D), f.r


def first_error(*msgs):
    return next((m for m in msgs if m), None)


# -- workloads ----------------------------------------------------------------------


class Workload:
    """A fixed job list built from the seed.

    RATES maps each reported throughput to (item section, timed sections,
    unit); HEADLINE names the one reported as `items_per_s`.
    """

    name = ""
    RATES: dict = {}
    HEADLINE = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.fields = {
            "gf2": FieldContext.gf2(),
            "gf7": FieldContext.gfp(7),
            "gf1009": FieldContext.gfp(1009),
            "p31": FieldContext.gfp(2**31 - 1),
            "q": FieldContext.rational(),
        }
        self.jobs = []
        self.probes = []  # (name, thunk) run once per run, outside the counted jobs
        self._digest = hashlib.sha256()
        self.build()

    def rng(self, tag):
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def add(self, name, inputs, run, check):
        self._digest.update(repr((name, inputs)).encode())
        self.jobs.append(Job(name, run, check))

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def build(self):
        raise NotImplementedError

    def close(self):
        pass


class DenseLarge(Workload):
    """A few large dense jobs, checked outside timing by exact.py."""

    name = "dense-large"
    RATES = {"factor_jobs_per_s": ("factor", ("factor",), "jobs/s")}
    HEADLINE = "factor_jobs_per_s"

    def build(self):
        f = self.fields
        s = 16 if self.tiny else 1
        self.ldl_job("gf2-ldl", f["gf2"], sym_rows(f["gf2"], self.rng(0), 512 // s))
        self.lu_job("gf2-lu", f["gf2"], rand_rows(f["gf2"], self.rng(1), 384 // s, 512 // s))
        n = 256 // s
        self.ldl_job("gf1009-ldl", f["gf1009"], sym_rows(f["gf1009"], self.rng(2), n))
        self.ldl_job("gf1009-ldl-rank-half", f["gf1009"], planted_rows(f["gf1009"], self.rng(3), n, n // 2))
        self.lu_job("gf1009-lu", f["gf1009"], rand_rows(f["gf1009"], self.rng(4), n, 192 // s))
        self.ldl_lu_job("p31-ldl-lu", f["p31"], sym_rows(f["p31"], self.rng(5), 128 // s))
        self.ldl_lu_job("q-ldl-lu", f["q"], sym_rows(f["q"], self.rng(6), 48 // s))
        rng = self.rng(7)
        a = sym_rows(f["gf1009"], rng, 128 // s)
        self.saddle_job("gf1009-saddle", f["gf1009"], a, rand_rows(f["gf1009"], rng, 64 // s, len(a)))

    def ldl_job(self, name, ctx, rows):
        a = to_dense(ctx, rows)

        def run():
            times = {}
            res = timed(times, "factor", factor.fast_ldl, a)
            return Outcome(times, {"factor": 1}, res)

        def check(out, _first):
            return exact.check_ldl(modulus(ctx), rows, *plain_ldl(out.value))

        self.add(name, rows, run, check)

    def lu_job(self, name, ctx, rows):
        a = to_dense(ctx, rows)

        def run():
            times = {}
            res = timed(times, "factor", factor.fast_lu, a)
            return Outcome(times, {"factor": 1}, res)

        def check(out, _first):
            return exact.check_lu(modulus(ctx), rows, *plain_lu(out.value))

        self.add(name, rows, run, check)

    def ldl_lu_job(self, name, ctx, rows):
        a = to_dense(ctx, rows)

        def run():
            times = {}
            ldl = timed(times, "factor", factor.fast_ldl, a)
            lu = timed(times, "factor", factor.fast_lu, a)
            return Outcome(times, {"factor": 1}, (ldl, lu))

        def check(out, _first):
            p = modulus(ctx)
            ldl, lu = out.value
            return first_error(
                exact.check_ldl(p, rows, *plain_ldl(ldl)),
                exact.check_lu(p, rows, *plain_lu(lu)),
            )

        self.add(name, rows, run, check)

    def saddle_job(self, name, ctx, a_rows, b_rows):
        system = saddle.SaddleSystem(to_dense(ctx, a_rows), to_dense(ctx, b_rows))

        def run():
            times = {}
            part = timed(times, "factor", saddle.schilders_partial_ldl, system)
            full = timed(times, "factor", saddle.complete_saddle_ldl, system, part)
            return Outcome(times, {"factor": 1}, (part, full))

        def check(out, _first):
            p = modulus(ctx)
            part, full = out.value
            return first_error(
                exact.check_partial_ldl(p, a_rows, b_rows, *plain_partial(part)),
                exact.check_ldl(p, saddle_rows(a_rows, b_rows), *plain_ldl(full)),
            )

        self.add(name, (a_rows, b_rows), run, check)


def _verdict(rep, what):
    return None if rep.ok else f"{what}: {rep.first_violation}"


class SmallMixed(Workload):
    """A fixed stream of small jobs over four fields, each verified by
    exldl.oracle inside the timed job."""

    name = "small-mixed"
    RATES = {
        "factor_jobs_per_s": ("factor", ("factor",), "jobs/s"),
        "verified_jobs_per_s": ("factor", ("factor", "verify"), "jobs/s"),
    }
    HEADLINE = "verified_jobs_per_s"
    FIELDS = ("gf2", "gf7", "gf1009", "q")

    def build(self):
        # Shapes follow a fixed schedule, sizes spread evenly over the
        # range in every field; the seed only draws the entries.
        dense_per_field, saddle_per_field = (2, 2) if self.tiny else (8, 4)
        max_n, max_nm = (8, 4) if self.tiny else (48, 24)
        d = 0
        for key in self.FIELDS:
            ctx = self.fields[key]
            for j in range(dense_per_field):
                n = 1 + (max_n - 1) * j // (dense_per_field - 1)
                rng = self.rng(f"dense:{key}:{j}")
                if d % 5 < 3:
                    self.dense_job(f"{key}-dense-n{n}", ctx, sym_rows(ctx, rng, n))
                else:
                    k = n * (1 + d % 3) // 4
                    self.dense_job(f"{key}-dense-n{n}-rank{k}", ctx, planted_rows(ctx, rng, n, k))
                d += 1
            for j in range(saddle_per_field):
                n = 1 + (max_nm - 1) * j // (saddle_per_field - 1)
                m = 1 + (max_nm - 1) * ((3 * j + 1) % saddle_per_field) // (saddle_per_field - 1)
                rng = self.rng(f"saddle:{key}:{j}")
                a = sym_rows(ctx, rng, n)
                kind = ("full", "low", "zero")[j % 3]
                if kind == "full":
                    b = rand_rows(ctx, rng, m, n, -2, 2)
                elif kind == "low":
                    b = low_rank_rows(ctx, rng, m, n, min(m, n) // 2)
                else:
                    b = [[0] * n for _ in range(m)]
                self.saddle_job(f"{key}-saddle-n{n}-m{m}-{kind}", ctx, a, b)

    def dense_job(self, name, ctx, rows):
        a = to_dense(ctx, rows)

        def run():
            times = {}
            ldl = timed(times, "factor", factor.fast_ldl, a)
            lu = timed(times, "factor", factor.fast_lu, a)
            rep1 = timed(times, "verify", oracle.oracle_verify_ldl, a, ldl)
            rep2 = timed(times, "verify", oracle.oracle_verify_lu, a, lu)
            return Outcome(times, {"factor": 1}, (rep1, rep2))

        def check(out, _first):
            return first_error(_verdict(out.value[0], "LDL"), _verdict(out.value[1], "LU"))

        self.add(name, rows, run, check)

    def saddle_job(self, name, ctx, a_rows, b_rows):
        system = saddle.SaddleSystem(to_dense(ctx, a_rows), to_dense(ctx, b_rows, len(a_rows)))

        def run():
            times = {}
            reps = []
            for build in (saddle.gamma_eliminate_partial, saddle.schilders_partial_ldl):
                part = timed(times, "factor", build, system)
                full = timed(times, "factor", saddle.complete_saddle_ldl, system, part)
                reps.append(timed(times, "verify", oracle.oracle_verify_partial_ldl, system, part))
                dense = timed(times, "verify", system.dense)
                reps.append(timed(times, "verify", oracle.oracle_verify_ldl, dense, full))
            return Outcome(times, {"factor": 1}, reps)

        def check(out, _first):
            whats = ("gamma partial", "gamma completion", "schilders partial", "schilders completion")
            return first_error(*(_verdict(rep, w) for rep, w in zip(out.value, whats)))

        self.add(name, (a_rows, b_rows), run, check)


# -- sparse inputs: symmetric entries as {(i, j): v} with i <= j ---------------------


def ktree(ctx, rng, n, k):
    """Random k-tree pattern with its decomposition (bags, tree edges)."""
    bags = [tuple(range(k + 1))]
    tree = []
    pattern = {(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)}
    for v in range(k + 1, n):
        host = rng.randrange(len(bags))
        sub = rng.sample(bags[host], k)
        bags.append(tuple(sorted(sub + [v])))
        tree.append((host, len(bags) - 1))
        pattern.update((u, v) for u in sub if rng.random() < 0.7)
    entries = {e: nonzero_el(ctx, rng) for e in sorted(pattern) if rng.random() < 0.9}
    entries.update({(v, v): nonzero_el(ctx, rng) for v in range(n) if rng.random() < 0.4})
    return entries, (bags, tree)


def strip(ctx, rng, w, length):
    """w x length grid, vertex (r, c) -> c * w + r, with sliding-window bags."""
    entries = {}
    for c in range(length):
        for r in range(w):
            v = c * w + r
            if r + 1 < w:
                entries[(v, v + 1)] = nonzero_el(ctx, rng)
            if c + 1 < length:
                entries[(v, v + w)] = nonzero_el(ctx, rng)
    bags = [
        tuple(c * w + rr for rr in range(r, w)) + tuple((c + 1) * w + rr for rr in range(r + 1))
        for c in range(length - 1)
        for r in range(w)
    ]
    return entries, (bags, [(i, i + 1) for i in range(len(bags) - 1)])


def path(ctx, n):
    entries = {(i, i + 1): ctx.one for i in range(n - 1)}
    return entries, ([(i, i + 1) for i in range(n - 1)], [(i, i + 1) for i in range(n - 2)])


def banded(ctx, rng, m, n):
    """m x n with a nonzero diagonal and a random band of width 2 each side."""
    rows = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(max(0, i - 2), min(n, i + 3)):
            if j == i or rng.random() < 0.7:
                rows[i][j] = nonzero_el(ctx, rng)
    return rows


def sparse_sym(ctx, n, entries):
    a = SparseSym(ctx, n)
    for (i, j), v in entries.items():
        a.set(i, j, v)
    return a


def dense_sym(ctx, n, entries):
    """The symmetric matrix with these upper entries, as an exact.array."""
    a = exact.array(modulus(ctx), [[0] * n for _ in range(n)])
    for (i, j), v in entries.items():
        a[i, j] = a[j, i] = v
    return a


def embedding(rows):
    """Entries of [[0, B^T], [B, 0]]: column vertices 0..n-1, rows n..n+m-1."""
    n = len(rows[0])
    return {(j, n + i): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


class SparseTree(Workload):
    """Bounded-treewidth factorizations plus transcript applications."""

    name = "sparse-tree"
    RATES = {
        "sparse_vertices_per_s": ("factor", ("factor",), "vertices/s"),
        "solve_vertices_per_s": ("solve", ("solve",), "vertex*rhs/s"),
    }
    HEADLINE = "sparse_vertices_per_s"

    def build(self):
        f = self.fields
        s = 10 if self.tiny else 1
        gf7 = f["gf7"]
        self.ldl_job("gf7-strip-3x300", gf7, 900 // s, *strip(gf7, self.rng(0), 3, 300 // s))
        self.ldl_job("gf7-ktree-600-k4", gf7, 600 // s, *ktree(gf7, self.rng(1), 600 // s, 4))
        entries, _ = ktree(gf7, self.rng(2), 1000 // s, 3)
        self.ldl_job("gf7-ktree-1000-k3-greedy", gf7, 1000 // s, entries, None)
        self.lu_job("gf7-banded-lu-300", gf7, banded(gf7, self.rng(3), 300 // s, 300 // s))
        self.ldl_job("gf2-ktree-600-k4", f["gf2"], 600 // s, *ktree(f["gf2"], self.rng(4), 600 // s, 4))
        self.ldl_job("q-ktree-150-k3", f["q"], 150 // s, *ktree(f["q"], self.rng(5), 150 // s, 3))
        if not self.tiny:
            # Deep trees: tree_ldl recursion is too deep for them at this
            # commit. They run once per run, outside the counted jobs.
            self.probe("gf7-path-1000", gf7, 1000, *path(gf7, 1000))
            self.probe("gf7-strip-3x1376", gf7, 3 * 1376, *strip(gf7, self.rng(6), 3, 1376))

    def probe(self, name, ctx, n, entries, td):
        a = sparse_sym(ctx, n, entries)
        tdec = TreeDecomposition.build(n, *td)
        self.probes.append((name, lambda: sparse.sparse_ldl(a, tdec)))

    def ldl_job(self, name, ctx, n, entries, td):
        a = sparse_sym(ctx, n, entries)
        tdec = TreeDecomposition.build(n, *td) if td else None

        def run():
            times = {}
            out = timed(times, "factor", sparse.sparse_ldl, a, tdec)
            return self.solve(name, ctx, n, out, times)

        def check(out, first):
            res = out.value[0]
            if first is not None:
                return self.check_repeat(ctx, out, first)
            dense = dense_sym(ctx, n, entries)
            expl = None
            if res.explicit is not None:
                expl = exact.check_ldl(modulus(ctx), dense, *plain_ldl(res.explicit))
            return first_error(
                expl, self.check_transcript(ctx, dense, res), exact.check_solves(modulus(ctx), *out.value[1:])
            )

        self.add(name, (n, sorted(entries.items()), td), run, check)

    def lu_job(self, name, ctx, rows):
        b = to_dense(ctx, rows)
        m, ncols = len(rows), len(rows[0])

        def run():
            times = {}
            out = timed(times, "factor", sparse.sparse_lu, b)
            return self.solve(name, ctx, m + ncols, out, times)

        def check(out, first):
            res = out.value[0]
            if first is not None:
                return self.check_repeat(ctx, out, first)
            expl = None
            if res.explicit is not None:
                expl = exact.check_lu(modulus(ctx), rows, *plain_lu(res.explicit), structural=False)
            return first_error(
                expl,
                self.check_transcript(ctx, dense_sym(ctx, m + ncols, embedding(rows)), res),
                exact.check_solves(modulus(ctx), *out.value[1:]),
            )

        self.add(name, rows, run, check)

    def solve(self, name, ctx, n, out, times):
        """Apply the transcript to RHS columns in all three modes."""
        t = out.transcript
        rng = self.rng(f"rhs:{name}")
        x = rand_rows(ctx, rng, t.rank, RHS)
        z = rand_rows(ctx, rng, n, RHS)
        xd, zd = to_dense(ctx, x, RHS), to_dense(ctx, z, RHS)
        y = timed(times, "solve", sparse.apply_transcript, t, xd, L_TIMES)
        w = timed(times, "solve", sparse.apply_transcript, t, zd, LH_TIMES)
        v = timed(times, "solve", sparse.apply_transcript, t, y, SOLVE_L)
        items = {"factor": n, "solve": 3 * n * RHS}
        p = modulus(ctx)
        arrays = (exact.array(p, m.to_lists() if isinstance(m, DenseMatrix) else m, RHS) for m in (x, y, z, w, v))
        return Outcome(times, items, (out, *arrays))

    @staticmethod
    def check_repeat(ctx, out, first):
        if out.value[0].transcript.transforms != first.value[0].transcript.transforms:
            return "transcript differs from the first pass"
        return exact.check_solves(modulus(ctx), *out.value[1:])

    @staticmethod
    def check_transcript(ctx, dense, res):
        t = res.transcript
        p = modulus(ctx)

        def lh_times(c0, c1):
            e = DenseMatrix.zeros(ctx, t.n, c1 - c0)
            for j in range(c0, c1):
                e.set(j, j - c0, ctx.one)
            return exact.array(p, sparse.apply_transcript(t, e, LH_TIMES).to_lists(), c1 - c0)

        def l_times(x):
            xd = to_dense(ctx, x.tolist(), x.shape[1])
            return exact.array(p, sparse.apply_transcript(t, xd, L_TIMES).to_lists(), x.shape[1])

        order = list(res.order.fwd)
        return exact.check_transcript(
            p, dense[np.ix_(order, order)], d_tuples(t.dblocks), t.rank, t.peel_count,
            lh_times, l_times,
        )


def write_mtx(path, ctx, rows, symmetric=False):
    """Coordinate Matrix Market; Q entries use the p/q extension."""
    field = "rational" if ctx.kind == "rational" else "integer"
    lines = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row[: i + 1] if symmetric else row):
            if v:
                lines.append(f"{i + 1} {j + 1} {v}")
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} {'symmetric' if symmetric else 'general'}\n")
        fh.write(f"{len(rows)} {len(rows[0])} {len(lines)}\n")
        fh.write("".join(line + "\n" for line in lines))


def write_td(path, n, bags, tree):
    """PACE 2017 .td file."""
    with open(path, "w") as fh:
        fh.write(f"s td {len(bags)} {max(len(b) for b in bags)} {n}\n")
        for k, bag in enumerate(bags):
            fh.write(" ".join(["b", str(k + 1)] + [str(v + 1) for v in bag]) + "\n")
        for u, v in tree:
            fh.write(f"{u + 1} {v + 1}\n")


class CliBatch(Workload):
    """Small .mtx files for every CLI mode and field, run in-process through
    exldl.cli.main with --verify --stats, then re-verified from the JSON."""

    name = "cli-batch"
    RATES = {"cli_files_per_s": ("cli", ("cli", "reverify"), "files/s")}
    HEADLINE = "cli_files_per_s"
    FIELDS = (("gf2", "gf2"), ("gf7", "gfp:7"), ("gf1009", "gfp:1009"), ("q", "rational"))

    def build(self):
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"cli-{self.seed}-", dir=out_dir)
        s = 4 if self.tiny else 1
        for key, spec in self.FIELDS:
            ctx = self.fields[key]
            rng = self.rng(key)
            n = (24 if key == "q" else 40) // s
            self.file_job(f"{key}-dense-ldl", ctx, spec, "dense-ldl", {"matrix": (sym_rows(ctx, rng, n), True)})
            self.file_job(
                f"{key}-dense-lu", ctx, spec, "dense-lu", {"matrix": (rand_rows(ctx, rng, n, n + 8 // s), False)}
            )
            na, mb = 24 // s, 12 // s
            self.file_job(
                f"{key}-saddle", ctx, spec, "saddle",
                {"matrix": (sym_rows(ctx, rng, na), True), "matrix-b": (rand_rows(ctx, rng, mb, na, -2, 2), False)},
            )
            # The oracle's cost grows as nv**3 and a rational one is the slowest.
            nv = (48 if key == "q" else 120) // s
            entries, (bags, tree) = ktree(ctx, rng, nv, 3)
            entries.update({(v, v): nonzero_el(ctx, rng) for v in range(nv)})
            rows = dense_sym(ctx, nv, entries).tolist()
            self.file_job(f"{key}-sparse-ldl", ctx, spec, "sparse-ldl", {"matrix": (rows, True)}, (nv, bags, tree))
            self.file_job(
                f"{key}-sparse-lu", ctx, spec, "sparse-lu", {"matrix": (banded(ctx, rng, nv // 2, nv // 2), False)}
            )

    def file_job(self, name, ctx, spec, mode, mats, td=None):
        """One input through the CLI; sparse modes without `td` use --greedy-td."""
        argv = ["--field", spec, "--mode", mode]
        for flag, (rows, symmetric) in mats.items():
            path = os.path.join(self.dir, f"{name}.{flag}.mtx")
            write_mtx(path, ctx, rows, symmetric)
            argv += [f"--{flag}", path]
        if td is not None:
            path = os.path.join(self.dir, f"{name}.td")
            write_td(path, *td)
            argv += ["--td", path]
        elif mode.startswith("sparse"):
            argv.append("--greedy-td")
        out_path = os.path.join(self.dir, f"{name}.json")
        argv += ["--verify", "--stats", "--seed", str(self.seed), "--out", out_path]

        def run():
            times = {}
            code = timed(times, "cli", cli.main, argv)
            again = timed(times, "reverify", cli.reverify_json, out_path)
            with open(out_path, "rb") as fh:
                data = fh.read()
            return Outcome(times, {"cli": 1}, (code, again, data))

        def check(out, first):
            code, again, data = out.value
            if code != 0:
                return f"exldl exited with code {code}"
            if not json.loads(data)["report"]["verify"]["ok"] or not again:
                return "verification from the JSON failed"
            if first is not None and data != first.value[2]:
                return "JSON output differs from the first pass"
            return None

        self.add(name, (argv[:4], mats, td), run, check)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DenseLarge, SmallMixed, SparseTree, CliBatch)}


def quiet_corank_warnings():
    """sparse_ldl warns when it skips explicit recovery; the run reports it anyway."""
    warnings.filterwarnings("ignore", message="corank .* above the recovery threshold")
