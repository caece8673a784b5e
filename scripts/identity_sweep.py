"""Hash one fixed-seed sweep of the factorizations on a parent revision and
on this checkout, and say whether the two agree.

    python3 scripts/identity_sweep.py --parent HEAD~1

The parent is the tree of a git revision, exported with `git archive` into
a temporary directory as `scripts/bench_pairs.py` does; the change is this
checkout's working tree.  Each side runs the same sweep, this file's
`sweep_digest`, in its own Python process that imports `exldl` from that
side's `src/`.  The sweep runs, over GF(2), GF(3), GF(7), GF(1009) and Q
at Strassen cutoffs None, 1, 2, 3, 4, 7 and 8, with the op counter on (at
a cutoff c <= 7 the base rule `factor._flat` takes blocks of up to 2c + 1
rows, so 4 and 7 reach its edge at 9 and 15 rows):
  * `fast_ldl` and `fast_lu` on dense inputs of full and planted low rank
    and with zero diagonals, n <= 45;
  * `gamma_eliminate_partial` and `schilders_partial_ldl` on saddle
    systems with full-rank and rank-deficient constraints, each completed
    by `complete_saddle_ldl`, n + m <= 45;
  * `sparse_ldl` with explicit factors and `tree_ldl` with interfaces of
    0 to 3 vertices on banded symmetric matrices under a fixed relabeling,
    and `sparse_lu` with explicit factors on banded rectangles, n <= 45,
    and on square bands of rank below their size, m <= 22, whose case
    builder asserts that they peel both rows and columns;
  * `sparse_ldl` with explicit factors and `tree_ldl` with interfaces of
    0 to 3 vertices along random k-trees' own decompositions, k = 2..5 and
    n = 12 and 30, with a zero diagonal, with planted corank (vertices that
    are multiples of others) and with both, so flat bags with step-1
    peels, constraint pairs and step-4 peels all occur;
  * `peel_vertex` (once per field, as it takes no cutoff) on blocks of up
    to 10 rows whose columns are low-rank but for two, every column a
    target over a random basis of the others, so bases with dependent
    columns and targets in and out of their span all occur.
  * the symmetric elimination primitives (once per field): `vertex_eliminate`
    at every index, `edge_eliminate` at every ordered pair i != j (at
    i = j it raises ValueError, where older revisions raised
    `SingularPivot`, so those calls are left out) and `natural_order_ldl`,
    on symmetric inputs with nonzero and zero diagonals, sparse and of
    planted low rank, n <= 8, so `ZeroPivot`, `SingularPivot`, pairs split
    into two vertex steps, antidiagonal pairs and indices skipped to the
    tail all occur.
Inputs come from a `random.Random` seeded by the CRC-32 of the field's
name (the square `sparse_lu` cases from one of their own) and are built
from plain lists, not from the library's kernels.
Every result is hashed with the type of each element and matrix, so a
Python int turning into a numpy integer changes the digest: transcripts
transform by transform, S and F, P, L, D, U, Y and the op counts of each
call (an error is hashed by its type and message).  A `peel_vertex`
call is hashed without its op counts, and its `NotInSpan` without the
message: it runs `_peel_dependent`, the tree engine's peel solver, whose
counts the `sparse_ldl` and `tree_ldl` cases pin, where it once ran an
LU route of its own that metered differently and worded an empty basis
apart.  The script prints one SHA-256 per side and exits 1 when they
differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
FIELDS = ("gf2", "gfp:3", "gfp:7", "gfp:1009", "rational")
CUTOFFS = (None, 1, 2, 3, 4, 7, 8)


def canon(x):
    """A nested tuple of x's structure and every element's type and repr."""
    from exldl.dense import DenseMatrix, Permutation
    from exldl.sparse import Transcript

    if isinstance(x, DenseMatrix):
        return ("matrix", type(x).__name__, x.shape, canon(x.to_lists()))
    if isinstance(x, Permutation):
        return ("perm", tuple(x.fwd))
    if isinstance(x, Transcript):
        return ("transcript", x.n, canon(x.transforms))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple((f.name, canon(getattr(x, f.name)))
                                           for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__,) + tuple(canon(v) for v in x)
    if isinstance(x, (set, frozenset)):
        return ("set",) + tuple(sorted(x))
    return (type(x).__name__, repr(x))


def element(ctx, rng):
    if ctx.is_ordered():
        return ctx.el(f"{rng.randint(-4, 4)}/{rng.randint(1, 4)}")
    return ctx.el(rng.randrange(ctx.p or 2))


def product(ctx, g, h):
    """g @ h on lists of field elements."""
    out = []
    for row in g:
        acc = [ctx.zero] * len(h[0])
        for x, hrow in zip(row, h):
            if x:
                acc = [ctx.add(a, ctx.mul(x, y)) for a, y in zip(acc, hrow)]
        out.append(acc)
    return out


def rows(ctx, rng, m, n, density=1.0):
    return [[element(ctx, rng) if rng.random() < density else ctx.zero for _ in range(n)]
            for _ in range(m)]


def low_rank(ctx, rng, m, n, k):
    return product(ctx, rows(ctx, rng, m, k), rows(ctx, rng, k, n)) if k else rows(ctx, rng, m, n, 0)


def symmetric(ctx, rng, n, density=1.0, diagonal=True, band=None):
    out = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if diagonal else i + 1, min(n, i + band + 1) if band else n):
            if rng.random() < density:
                v = element(ctx, rng)
                out[i][j] = out[j][i] = v
    return out


def planted(ctx, rng, n, k):
    """G S G^H with a random symmetric k x k S."""
    if not k:
        return rows(ctx, rng, n, n, 0)
    g = rows(ctx, rng, n, k)
    gh = [list(col) for col in zip(*g)]
    return product(ctx, product(ctx, g, symmetric(ctx, rng, k)), gh)


def nonzero(ctx, rng):
    while not (v := element(ctx, rng)):
        pass
    return v


def ktree(ctx, rng, n, k, diagonal, twins):
    """A random k-tree on n vertices and its decomposition, then `twins`
    vertices, each a nonzero multiple of a distinct original one: row t =
    c row u, so each plants one unit of corank, and t joins every bag of u.
    Each k-tree edge is kept with probability 0.8 and, when `diagonal`,
    each diagonal entry with 0.5.  Returns (n + twins, entries (i, j, v)
    with i <= j, bags, tree edges)."""
    bags, tree, rows = [list(range(k + 1))], [], [{} for _ in range(n + twins)]

    def put(i, j, v):
        rows[i][j] = rows[j][i] = v

    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if rng.random() < 0.8:
                put(i, j, nonzero(ctx, rng))
    for v in range(k + 1, n):
        host = rng.randrange(len(bags))
        sub = rng.sample(bags[host], k)
        bags.append(sorted(sub + [v]))
        tree.append((host, len(bags) - 1))
        for u in sub:
            if rng.random() < 0.8:
                put(u, v, nonzero(ctx, rng))
    for v in range(n):
        if diagonal and rng.random() < 0.5:
            rows[v][v] = nonzero(ctx, rng)
    for t, u in zip(range(n, n + twins), rng.sample(range(n), twins)):
        c = nonzero(ctx, rng)
        for w, x in list(rows[u].items()):
            put(t, w, ctx.mul(c, x))
            if w == u:  # then t's diagonal entry is c^2 times u's
                rows[t][t] = ctx.mul(c, ctx.mul(c, x))
        bags = [b + [t] if u in b else b for b in bags]
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in row.items() if i <= j]
    return n + twins, entries, bags, tree


def cases(ctx, cutoff):
    """(name, thunk) for every call of the sweep at this field and cutoff."""
    from exldl.dense import DenseMatrix
    from exldl.factor import (
        edge_eliminate,
        fast_ldl,
        fast_lu,
        natural_order_ldl,
        vertex_eliminate,
    )
    from exldl.saddle import (
        SaddleSystem,
        complete_saddle_ldl,
        gamma_eliminate_partial,
        schilders_partial_ldl,
    )
    from exldl.sparse import SparseSym, peel_vertex, sparse_ldl, sparse_lu, tree_ldl
    from exldl.treedec import TreeDecomposition, greedy_td, normalize_td

    rng = random.Random(zlib.crc32(ctx.spec.encode()))
    # the square sparse_lu cases draw from their own generator, so the
    # inputs of every other case stay as they were before those were added
    sq_rng = random.Random(zlib.crc32(f"{ctx.spec} square".encode()))

    def mat(lists, ncols):
        return DenseMatrix.from_entries(ctx, lists, ncols)

    for n in (0, 1, 2, 5, 9, 16, 23, 33, 45):
        for kind, lists in (("full", symmetric(ctx, rng, n)),
                            ("planted", planted(ctx, rng, n, n // 4)),
                            ("sparse", symmetric(ctx, rng, n, 0.3)),
                            ("zero-diagonal", symmetric(ctx, rng, n, 0.5, diagonal=False))):
            a = mat(lists, n)
            yield f"fast_ldl {kind} {n}", lambda a=a: fast_ldl(a, cutoff)
        for m, kind, lists in ((n, "full", rows(ctx, rng, n, n)),
                               (n // 2 + 1, "wide", rows(ctx, rng, n // 2 + 1, n)),
                               (n, "low-rank", low_rank(ctx, rng, n, n, n // 3)),
                               (n, "sparse", rows(ctx, rng, n, n, 0.15))):
            a = mat(lists, n)
            yield f"fast_lu {kind} {m}x{n}", lambda a=a: fast_lu(a, cutoff)

    for n, m in ((3, 1), (4, 2), (9, 4), (16, 7), (30, 12), (30, 15)):
        for kind, b in (("full", rows(ctx, rng, m, n)),
                        ("deficient", low_rank(ctx, rng, m, n, m // 2)),
                        ("sparse", rows(ctx, rng, m, n, 0.2))):
            s = SaddleSystem(mat(symmetric(ctx, rng, n, 0.6), n), mat(b, n))
            for name, partial in (("gamma", lambda s=s: gamma_eliminate_partial(s)),
                                  ("schilders", lambda s=s: schilders_partial_ldl(s, cutoff))):
                yield f"{name} {kind} {n}+{m}", partial
                yield (f"complete {name} {kind} {n}+{m}",
                       lambda s=s, partial=partial: complete_saddle_ldl(s, partial()))

    for n in (6, 14, 27, 45):
        for band in (1, 2, 3):
            for diagonal in (True, False):
                lists = symmetric(ctx, rng, n, 0.7, diagonal=diagonal, band=band)
                relabel = list(range(n))
                rng.shuffle(relabel)
                a = SparseSym.from_entries(ctx, n, [
                    (relabel[i], relabel[j], lists[i][j])
                    for i in range(n) for j in range(i, n) if lists[i][j]])
                tag = f"{n} band {band} diagonal {diagonal}"
                yield f"sparse_ldl {tag}", lambda a=a: sparse_ldl(a, None, None, cutoff, True)
                ntd = normalize_td(greedy_td(n, a.edges()))
                apos = a.relabel(ntd.order)
                root = len(ntd.td.bags[ntd.td.root])
                for gamma in range(min(3, root) + 1):
                    yield (f"tree_ldl {tag} gamma {gamma}",
                           lambda apos=apos, ntd=ntd, gamma=gamma: tree_ldl(apos, ntd, gamma, cutoff))
        m = n // 2
        for band in (1, 3):
            b = [[element(ctx, rng) if abs(i - j) <= band and rng.random() < 0.7 else ctx.zero
                  for j in range(n - m)] for i in range(m)]
            yield f"sparse_lu {m}x{n - m} band {band}", lambda b=b, k=n - m: sparse_lu(
                mat(b, k), None, None, cutoff, True)
            # square, with a row and a column that repeat their neighbours
            # times a nonzero: both sides peel
            b = [[nonzero(ctx, sq_rng) if abs(i - j) <= band and sq_rng.random() < 0.7
                  else ctx.zero for j in range(m)] for i in range(m)]
            i, c = sq_rng.randrange(m - 1), nonzero(ctx, sq_rng)
            b[i + 1] = [ctx.mul(c, v) for v in b[i]]
            j, c = sq_rng.randrange(m - 1), nonzero(ctx, sq_rng)
            for row in b:
                row[j + 1] = ctx.mul(c, row[j])
            out = sparse_lu(mat(b, m), None, None, cutoff, True)
            assert out.row_peels and out.col_peels, (ctx.spec, cutoff, m, band)
            yield f"sparse_lu {m}x{m} band {band} deficient", lambda b=b: sparse_lu(
                mat(b, m), None, None, cutoff, True)

    for k in (2, 3, 4, 5):
        for n in (12, 30):
            for kind, diagonal, twins in (("zero-diagonal", False, 0),
                                          ("corank", True, n // 6),
                                          ("zero-diagonal corank", False, n // 6)):
                size, entries, bags, tree = ktree(ctx, rng, n, k, diagonal, twins)
                a = SparseSym.from_entries(ctx, size, entries)
                td = TreeDecomposition.build(size, [set(b) for b in bags], tree)
                tag = f"{k}-tree {n} {kind}"
                yield f"sparse_ldl {tag}", lambda a=a, td=td: sparse_ldl(a, td, None, cutoff, True)
                ntd = normalize_td(td)
                apos = a.relabel(ntd.order)
                for gamma in range(min(3, len(ntd.td.bags[ntd.td.root])) + 1):
                    yield (f"tree_ldl {tag} gamma {gamma}",
                           lambda apos=apos, ntd=ntd, gamma=gamma: tree_ldl(apos, ntd, gamma, cutoff))

    if cutoff is not None:
        return
    for m in (0, 1, 3, 6, 10):
        for n in (1, 4, 8):
            for density in (1.0, 0.3):
                # n columns of rank <= n // 2, then two random ones
                low = low_rank(ctx, rng, m, n, rng.randint(0, n // 2))
                a = mat([r + s for r, s in zip(low, rows(ctx, rng, m, 2, density))], n + 2)
                for target in range(n + 2):
                    others = [c for c in range(n + 2) if c != target]
                    basis = rng.sample(others, rng.randint(0, n + 1))
                    yield (f"peel_vertex {m}x{n + 2} density {density} target {target}",
                           lambda a=a, target=target, basis=basis: peel_vertex(a, target, basis))

    for n in (1, 2, 3, 5, 8):
        for kind, lists in (("full", symmetric(ctx, rng, n)),
                            ("zero-diagonal", symmetric(ctx, rng, n, 0.6, diagonal=False)),
                            ("sparse", symmetric(ctx, rng, n, 0.3)),
                            ("planted", planted(ctx, rng, n, n // 3))):
            a = mat(lists, n)
            for i in range(n):
                yield f"vertex_eliminate {kind} {n} at {i}", lambda a=a, i=i: vertex_eliminate(a, i)
                for j in [*range(i), *range(i + 1, n)]:
                    yield (f"edge_eliminate {kind} {n} at {i} {j}",
                           lambda a=a, i=i, j=j: edge_eliminate(a, i, j))
            yield f"natural_order_ldl {kind} {n}", lambda a=a: natural_order_ldl(a)


def sweep_digest() -> str:
    """SHA-256 over every call's result and op counts, field by field and
    cutoff by cutoff; then the number of calls and where exldl came from."""
    import exldl
    from exldl.cli import parse_field
    from exldl.fields import ExactLinAlgError

    h, calls = hashlib.sha256(), 0
    for spec in FIELDS:
        for cutoff in CUTOFFS:
            ctx = parse_field(spec)
            for name, thunk in cases(ctx, cutoff):
                peel = name.startswith("peel_vertex")
                counter = ctx.enable_counter()
                try:
                    result = canon(thunk())
                except ExactLinAlgError as err:
                    result = ("error", type(err).__name__, None if peel else str(err))
                finally:
                    ctx.disable_counter()
                ops = None if peel else counter.snapshot()
                h.update(repr((spec, cutoff, name, result, ops)).encode())
                calls += 1
    return f"{h.hexdigest()}\n{calls}\n{Path(exldl.__file__).resolve().parent}"


def side_digest(checkout: Path) -> tuple:
    """(digest, calls) of `sweep_digest` in a new process that imports
    exldl from checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(checkout / "src"), str(SCRIPTS)])}
    code = "import identity_sweep; print(identity_sweep.sweep_digest())"
    out = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env, check=True,
                         capture_output=True, text=True).stdout
    digest, calls, origin = out.split()
    if Path(origin) != (checkout / "src" / "exldl").resolve():
        raise SystemExit(f"the sweep imported exldl from {origin}, not from {checkout}")
    return digest, int(calls)


def main(argv=None) -> int:
    sys.path.insert(0, str(SCRIPTS))
    from bench_pairs import ROOT, export, git

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        export(args.parent, Path(tmp))
        sides = {"parent": side_digest(Path(tmp)), "change": side_digest(ROOT)}
    print(f"parent {git('rev-parse', args.parent).strip()}")
    for side, (digest, calls) in sides.items():
        print(f"{side} {digest} ({calls} calls)")
    same = sides["parent"] == sides["change"]
    print("equal" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
