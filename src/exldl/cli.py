"""Batch command-line front end.

Reads a Matrix Market matrix (and optionally a PACE-format tree
decomposition), runs the selected factorization, verifies it against the
reference checks on request, and writes the factors plus a statistics
report as JSON.  Identical inputs and flags produce byte-identical
output files.  `reverify_json` reads such a file back, rebuilds its
explicit LDL (P, L, D) or LU (P, Q, L, U), or for an implicit-only
sparse-ldl file the LDL its transcript states, and checks it once more
against the input matrix the file names.

Matrix Market support is the coordinate format with qualifiers
general|symmetric and fields integer|pattern, plus a "rational"
extension whose entries are p/q tokens (only valid with --field
rational).  Exit codes: 0 success, 1 input error (a bad flag, field
spec, header, size line or entry, or a matrix of the wrong shape),
2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dense import DenseMatrix, Permutation
from .factor import DBlock, LDLResult, LUResult, fast_ldl, fast_lu, inertia_from_D
from .fields import (
    EntryOutOfField,
    ExactLinAlgError,
    FieldContext,
    ParseError,
    op_count_snapshot,
)
from .oracle import (
    VerifyReport,
    oracle_verify_ldl,
    oracle_verify_lu,
    oracle_verify_partial_ldl,
)
from .saddle import SaddleSystem, complete_saddle_ldl, schilders_partial_ldl
from .sparse import (
    EdgeElim,
    Peel,
    SparseSym,
    Transcript,
    VertexElim,
    labelled_ldl,
    sparse_ldl,
    sparse_lu,
    transcript_ldl,
)
from .treedec import read_td


def parse_field(spec: str) -> FieldContext:
    if spec == "gf2":
        return FieldContext.gf2()
    if spec == "rational":
        return FieldContext.rational()
    if spec.startswith("gfp:"):
        try:
            return FieldContext.gfp(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ParseError(f"bad field spec {spec!r}: {exc}") from None
    raise ParseError(f"unknown field {spec!r} (use gf2, gfp:<p>, rational)")


# -- Matrix Market ------------------------------------------------------------


def read_matrix_market(path, ctx: FieldContext):
    """Parse a coordinate Matrix Market file into (rows, cols, entries,
    symmetric); entries are (i, j, value) with 0-based indices and exact
    field values."""
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].strip().split()
    if (
        len(header) < 5
        or header[0] != "%%MatrixMarket"
        or header[1].lower() != "matrix"
        or header[2].lower() != "coordinate"
    ):
        raise ParseError(f"{path}: line 1: expected a coordinate MatrixMarket header")
    mmfield = header[3].lower()
    symmetry = header[4].lower()
    if mmfield not in ("integer", "pattern", "rational"):
        raise ParseError(
            f"{path}: line 1: unsupported field {mmfield!r} (exact formats only)"
        )
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"{path}: line 1: unsupported symmetry {symmetry!r}")
    if mmfield == "rational" and ctx.mm_field != "rational":
        raise EntryOutOfField(
            f"{path}: rational entries need --field rational"
        )
    dims = None
    entries = []
    seen = set()  # coordinates read so far; (i, j) and (j, i) are one if symmetric
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if dims is None:
            if len(parts) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 'rows cols nnz'")
            try:
                dims = (int(parts[0]), int(parts[1]), int(parts[2]))
                if min(dims) < 0:
                    raise ValueError
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad size line") from None
            if symmetry == "symmetric" and dims[0] != dims[1]:
                raise ParseError(f"{path}: line {lineno}: a symmetric matrix must be square")
            continue
        want = 2 if mmfield == "pattern" else 3
        if len(parts) != want:
            raise ParseError(f"{path}: line {lineno}: expected {want} tokens")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad indices") from None
        if not (0 <= i < dims[0] and 0 <= j < dims[1]):
            raise ParseError(f"{path}: line {lineno}: index out of range")
        key = (max(i, j), min(i, j)) if symmetry == "symmetric" else (i, j)
        if key in seen:
            raise ParseError(f"{path}: line {lineno}: repeated coordinate ({i + 1}, {j + 1})")
        seen.add(key)
        if mmfield == "pattern":
            val = ctx.one
        else:
            tok = parts[2]
            if "/" in tok and ctx.mm_field != "rational":
                raise EntryOutOfField(f"{path}: line {lineno}: rational entry under {ctx.spec}")
            try:
                val = ctx.el(tok if "/" in tok else int(tok))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"{path}: line {lineno}: bad value {tok!r}") from None
        entries.append((i, j, val))
    if dims is None:
        raise ParseError(f"{path}: missing size line")
    if len(entries) != dims[2]:
        raise ParseError(
            f"{path}: expected {dims[2]} entries, found {len(entries)}"
        )
    return dims[0], dims[1], entries, symmetry == "symmetric"


def mm_to_dense(path, ctx: FieldContext) -> DenseMatrix:
    rows, cols, entries, symmetric = read_matrix_market(path, ctx)
    out = DenseMatrix.zeros(ctx, rows, cols)
    for i, j, v in entries:
        out.set(i, j, v)
        if symmetric and i != j:
            out.set(j, i, v)
    return out


def mm_to_sparse_sym(path, ctx: FieldContext) -> SparseSym:
    rows, cols, entries, symmetric = read_matrix_market(path, ctx)
    if rows != cols:
        raise ParseError(f"{path}: symmetric input must be square")
    out = SparseSym(ctx, rows)
    if not symmetric:
        given = {(i, j): v for i, j, v in entries}  # a missing mirror reads as zero
        if any(given.get((j, i), ctx.zero) != v for i, j, v in entries):
            raise ParseError(f"{path}: matrix is not symmetric")
        entries = [e for e in entries if e[0] <= e[1]]
    for i, j, v in entries:
        out.set(i, j, v)
    return out


def write_matrix_market(path, m: DenseMatrix, symmetric: bool = False):
    ctx = m.ctx
    symtag = "symmetric" if symmetric else "general"
    coo = [e for e in _coo(ctx, m) if not symmetric or e[1] <= e[0]]
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {ctx.mm_field} {symtag}\n")
        fh.write(f"{m.nrows} {m.ncols} {len(coo)}\n")
        for i, j, v in coo:
            fh.write(f"{i + 1} {j + 1} {v}\n")


# -- JSON factors -------------------------------------------------------------


def _coo(ctx, m: DenseMatrix):
    return [[i, j, ctx.fmt(v)] for i, row in enumerate(m.to_lists())
            for j, v in enumerate(row) if not ctx.is_zero(v)]


def _from_coo(ctx, coo, nrows: int, ncols: int) -> DenseMatrix:
    m = DenseMatrix.zeros(ctx, nrows, ncols)
    for i, j, s in coo:
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ParseError(f"factor entry ({i}, {j}) outside {nrows} x {ncols}")
        m.set(i, j, ctx.el(s))
    return m


def _dblock_json(ctx, blk: DBlock):
    if blk.kind == "scalar":
        return {"kind": "scalar", "d": ctx.fmt(blk.d)}
    return {"kind": "antidiag", "a12": ctx.fmt(blk.a12), "a21": ctx.fmt(blk.a21)}


def _dblock_from_json(ctx, b) -> DBlock:
    if b["kind"] == "scalar":
        return DBlock.scalar(ctx.el(b["d"]))
    if b["kind"] == "antidiag":
        return DBlock.antidiag(ctx.el(b["a12"]), ctx.el(b["a21"]))
    raise ParseError(f"unknown D block kind {b['kind']!r}")


def ldl_to_json(ctx, res: LDLResult, p_key: str = "P") -> dict:
    """{P, L, D} of an LDL; saddle mode writes its P as `P_full`."""
    return {
        p_key: list(res.P.fwd),
        "L": _coo(ctx, res.L),
        "D": [_dblock_json(ctx, b) for b in res.D],
    }


def ldl_from_json(ctx, factors: dict, r: int, p_key: str = "P") -> LDLResult:
    """Inverse of `ldl_to_json` for rank r; L has as many rows as P."""
    p = Permutation(factors[p_key])
    blocks = [_dblock_from_json(ctx, b) for b in factors["D"]]
    return LDLResult(p, _from_coo(ctx, factors["L"], len(p.fwd), r), blocks, r)


def lu_to_json(ctx, res: LUResult) -> dict:
    """{P, Q, L, U} of an LU."""
    return {
        "P": list(res.P.fwd),
        "Q": list(res.Q.fwd),
        "L": _coo(ctx, res.L),
        "U": _coo(ctx, res.U),
    }


def lu_from_json(ctx, factors: dict, r: int) -> LUResult:
    """Inverse of `lu_to_json` for rank r; L has len(P) rows, U len(Q) columns."""
    p, q = Permutation(factors["P"]), Permutation(factors["Q"])
    l = _from_coo(ctx, factors["L"], len(p.fwd), r)
    return LUResult(p, q, l, _from_coo(ctx, factors["U"], r, len(q.fwd)), r)


def _transform_json(ctx, tf):
    if isinstance(tf, VertexElim):
        return {
            "kind": "vertex_elim",
            "pivot": tf.pivot,
            "col": [[i, ctx.fmt(v)] for i, v in tf.col],
            "d": _dblock_json(ctx, tf.block),
        }
    if isinstance(tf, EdgeElim):
        return {
            "kind": "edge_elim",
            "pivots": list(tf.pivots),
            "col1": [[i, ctx.fmt(v)] for i, v in tf.col1],
            "col2": [[i, ctx.fmt(v)] for i, v in tf.col2],
            "d": _dblock_json(ctx, tf.block),
        }
    return {
        "kind": "peel",
        "target": tf.target,
        "coeffs": [[i, ctx.fmt(v)] for i, v in tf.coeffs],
    }


def _transform_from_json(ctx, tf):
    """Inverse of `_transform_json`."""
    def pairs(key):
        return tuple((i, ctx.el(v)) for i, v in tf[key])

    if tf["kind"] == "vertex_elim":
        return VertexElim(tf["pivot"], pairs("col"), _dblock_from_json(ctx, tf["d"]))
    if tf["kind"] == "edge_elim":
        return EdgeElim(tuple(tf["pivots"]), pairs("col1"), pairs("col2"),
                        _dblock_from_json(ctx, tf["d"]))
    if tf["kind"] == "peel":
        return Peel(tf["target"], pairs("coeffs"))
    raise ParseError(f"unknown transform kind {tf['kind']!r}")


def sparse_ldl_from_json(ctx, factors: dict, r: int) -> LDLResult:
    """The explicit LDL of a sparse-ldl file (`ldl_from_json`), or, in a
    file without L, the LDL its transcript states (`transcript_ldl`) in the
    labels of `order` (`labelled_ldl`); that transcript must give rank r
    and the file's D."""
    if "L" in factors:
        return ldl_from_json(ctx, factors, r)
    order = Permutation(factors["order"])
    t = Transcript(ctx, len(order.fwd))
    for tf in factors["transcript"]:
        t.append(_transform_from_json(ctx, tf))
    res = transcript_ldl(t)
    if res.r != r or res.D != [_dblock_from_json(ctx, b) for b in factors["D"]]:
        raise ValueError("the transcript states another rank or D")
    return labelled_ldl(res, order)


def write_factors_json(path, payload: dict):
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# -- pipeline -----------------------------------------------------------------


def _cutoff_arg(text: str) -> int:
    """A Strassen cutoff: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an int of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="exldl",
        description="Exact LDL/LU factorization over GF(2), GF(p), and the rationals.",
    )
    ap.add_argument("--field", required=True, help="gf2 | gfp:<p> | rational")
    ap.add_argument("--matrix", required=True, help="Matrix Market input (.mtx)")
    ap.add_argument("--matrix-b", help="constraint block for saddle mode (.mtx)")
    ap.add_argument("--mode", required=True, choices=MODES)
    ap.add_argument("--td", help="tree decomposition (.td, PACE format)")
    ap.add_argument("--greedy-td", action="store_true", help="build a greedy decomposition")
    ap.add_argument("--saddle-split", type=int, help="rows of A in a combined saddle file")
    ap.add_argument("--verify", action="store_true")
    ap.add_argument("--stats", action="store_true")
    ap.add_argument("--strassen-cutoff", type=_cutoff_arg, default=None)
    ap.add_argument("--out", help="output JSON path")
    ap.add_argument("--seed", type=int, default=0, help="seed recorded for reproducibility")
    return ap


def _load_symmetric(args, ctx) -> DenseMatrix:
    a = mm_to_dense(args.matrix, ctx)
    if a.nrows != a.ncols or a != a.conj_transpose():
        raise ParseError(f"{args.matrix}: dense-ldl needs a symmetric matrix")
    return a


def _load_general(args, ctx) -> DenseMatrix:
    return mm_to_dense(args.matrix, ctx)


def _load_sparse(args, ctx) -> SparseSym:
    return mm_to_sparse_sym(args.matrix, ctx)


def _load_saddle(args, ctx) -> SaddleSystem:
    if args.matrix_b:
        a = mm_to_dense(args.matrix, ctx)
        b = mm_to_dense(args.matrix_b, ctx)
    elif args.saddle_split is not None:
        combined = mm_to_dense(args.matrix, ctx)
        n = args.saddle_split
        if not 0 <= n <= combined.nrows or combined.ncols != n:
            raise ParseError("--saddle-split does not match the matrix shape")
        a = combined.block(0, n, 0, n)
        b = combined.block(n, combined.nrows, 0, n)
    else:
        raise ParseError("saddle mode needs --matrix-b or --saddle-split")
    if a.nrows != a.ncols or a != a.conj_transpose():
        raise ParseError("saddle mode needs a symmetric A block")
    return SaddleSystem(a, b)


def _load_td(args):
    """The --td decomposition; the pipeline checks it against the matrix."""
    if args.td:
        return read_td(args.td)
    if args.greedy_td:
        return None  # the pipeline builds one
    raise ParseError("sparse modes need --td or --greedy-td")


# Each mode's factor step takes (input, args, ctx, the mode's check of an
# explicit LDL or LU) and returns (report keys, nnz, factors, verify),
# where verify() gives a VerifyReport and runs only under --verify.


def _lens(factors: dict, *keys) -> dict:
    return {k: len(factors[k]) for k in keys}


def _dense_ldl(a, args, ctx, check):
    res = fast_ldl(a, args.strassen_cutoff)
    keys = {"n": a.nrows, "rank": res.r}
    if ctx.is_ordered():
        keys["inertia"] = list(inertia_from_D(res.D, a.nrows, ctx))
    factors = ldl_to_json(ctx, res)
    return keys, _lens(factors, "L", "D"), factors, lambda: check(a, res)


def _dense_lu(a, args, ctx, check):
    res = fast_lu(a, args.strassen_cutoff)
    factors = lu_to_json(ctx, res)
    keys = {"n": a.ncols, "m": a.nrows, "rank": res.r}
    return keys, _lens(factors, "L", "U"), factors, lambda: check(a, res)


def _transcript_parts(ctx, out):
    """Report keys, nnz and factors that both sparse modes share."""
    t = out.transcript
    keys = {"transform_blocks": t.kind_histogram(), "homogeneous_blocks": t.homogeneous_blocks()}
    factors = {
        "order": list(out.order.fwd),
        "transcript": [_transform_json(ctx, tf) for tf in t.transforms],
    }
    return keys, {"transcript": t.nnz()}, factors


def _sparse_ldl(a, args, ctx, check):
    out = sparse_ldl(a, _load_td(args), cutoff=args.strassen_cutoff)
    tkeys, nnz, factors = _transcript_parts(ctx, out)
    keys = {"n": a.n, "rank": out.rank, "peel_count": out.peel_count, **tkeys}
    factors["D"] = [_dblock_json(ctx, b) for b in out.transcript.dblocks]
    if out.explicit is not None:
        # The explicit D is the transcript's; update leaves "D" before P and L.
        factors.update(ldl_to_json(ctx, out.explicit))
        nnz.update(_lens(factors, "L"))
        return keys, nnz, factors, lambda: check(a, out.explicit)
    return keys, nnz, factors, lambda: check(
        a, labelled_ldl(transcript_ldl(out.transcript), out.order))


def _sparse_lu(b, args, ctx, check):
    m, n = b.nrows, b.ncols
    out = sparse_lu(b, _load_td(args), cutoff=args.strassen_cutoff)
    tkeys, nnz, factors = _transcript_parts(ctx, out)
    peels = out.row_peels + out.col_peels
    keys = {"m": m, "n": n, "rank": out.rank, "peel_count": peels,
            "row_peels": out.row_peels, "col_peels": out.col_peels, **tkeys}
    if out.explicit is not None:
        factors.update(lu_to_json(ctx, out.explicit))
        nnz.update(_lens(factors, "L", "U"))

    def verify():
        if out.explicit is None:
            raise ParseError("sparse-lu verification needs the explicit factors")
        return check(b, out.explicit)

    return keys, nnz, factors, verify


def _saddle(system, args, ctx, check):
    f = schilders_partial_ldl(system, args.strassen_cutoff)
    full = complete_saddle_ldl(system, f)
    keys = {"n": system.n, "m": system.m, "rank_b": f.r, "rank": full.r}
    if ctx.is_ordered():
        keys["inertia"] = list(inertia_from_D(full.D, system.n + system.m, ctx))
    factors = {
        "P": list(f.P.fwd),
        "Q": list(f.Q.fwd),
        "Y": _coo(ctx, f.Y),
        "L_partial": _coo(ctx, f.L),
        "U": _coo(ctx, f.U),
        "D_partial": [ctx.fmt(d) for d in f.D],
        **ldl_to_json(ctx, full, "P_full"),
    }

    def verify():
        rep1 = oracle_verify_partial_ldl(system, f)
        rep2 = check(system, full)
        ok = rep1.ok and rep2.ok
        return VerifyReport(ok, rep1.first_violation or rep2.first_violation if not ok else None)

    return keys, _lens(factors, "Y", "L_partial", "U", "L", "D"), factors, verify


# mode -> (loader, factor step, reader of the explicit factors, their check).
# The loaders and checks call mm_to_dense, mm_to_sparse_sym and the oracle
# by their module-level names, so rebinding those names reaches every call.
_MODES = {
    "dense-ldl": (_load_symmetric, _dense_ldl, ldl_from_json,
                  lambda a, res: oracle_verify_ldl(a, res)),
    "dense-lu": (_load_general, _dense_lu, lu_from_json,
                 lambda a, res: oracle_verify_lu(a, res)),
    "sparse-ldl": (_load_sparse, _sparse_ldl, sparse_ldl_from_json,
                   lambda a, res: oracle_verify_ldl(a, res)),
    "sparse-lu": (_load_general, _sparse_lu, lu_from_json,
                  lambda b, res: oracle_verify_lu(b, res, structural=False)),
    "saddle": (_load_saddle, _saddle, lambda ctx, f, r: ldl_from_json(ctx, f, r, "P_full"),
               lambda system, res: oracle_verify_ldl(system.dense(), res)),
}
MODES = tuple(_MODES)


def run(args) -> tuple[int, dict]:
    ctx = parse_field(args.field)
    load, factor, _, check = _MODES[args.mode]
    report = {"mode": args.mode, "field": ctx.spec, "seed": args.seed}
    if args.stats:
        ctx.enable_counter()
    keys, nnz, factors, verify = factor(load(args, ctx), args, ctx, check)
    report.update(keys)
    if args.stats:
        report["op_counts"] = op_count_snapshot(ctx)
    report["nnz"] = nnz
    code = 0
    if args.verify:
        rep = verify()
        report["verify"] = {"ok": bool(rep.ok)}
        if rep.first_violation:
            report["verify"]["first_violation"] = rep.first_violation
        code = 0 if rep.ok else 2
    payload = {
        "report": report,
        "inputs": {
            "matrix": args.matrix,
            "matrix_b": args.matrix_b,
            "td": args.td,
            "greedy_td": bool(args.greedy_td),
            "saddle_split": args.saddle_split,
            "strassen_cutoff": args.strassen_cutoff,
        },
        "factors": factors,
    }
    return code, payload


def reverify_json(json_path) -> bool:
    """Independent re-verification of an emitted factors file: reread the
    input with the mode's loader, rebuild the explicit LDL or LU with the
    reader that mirrors its writer, and run the mode's reference check.  A
    sparse-ldl file without L is checked as the LDL its transcript states.
    False for malformed factors, and for a sparse-lu file without them."""
    with open(json_path) as fh:
        payload = json.load(fh)
    report = payload["report"]
    factors = payload["factors"]
    if report["mode"] not in _MODES:
        raise ParseError(f"unknown mode {report['mode']!r} in {json_path}")
    load, _, read, check = _MODES[report["mode"]]
    ctx = parse_field(report["field"])
    x = load(argparse.Namespace(**payload["inputs"]), ctx)
    try:
        res = read(ctx, factors, report["rank"])
    except (IndexError, KeyError, TypeError, ValueError, ZeroDivisionError):  # a missing or bad factor
        return False
    return check(x, res).ok


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        code, payload = run(args)
    except (ExactLinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_factors_json(args.out, payload)
    else:
        print(json.dumps(payload["report"], indent=2))
    if code == 2:
        print("verification FAILED", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
