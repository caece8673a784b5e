"""Batch command-line front end.

Reads a Matrix Market matrix (and optionally a PACE-format tree
decomposition), runs the selected factorization, verifies it against the
reference checks on request, and writes the factors plus a statistics
report as JSON.  Identical inputs and flags produce byte-identical
output files.

Matrix Market support is the coordinate format with qualifiers
general|symmetric and fields integer|pattern, plus a "rational"
extension whose entries are p/q tokens (only valid with --field
rational).  Exit codes: 0 success, 1 input error, 2 verification
failure.
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
    VertexElim,
    sparse_ldl,
    sparse_lu,
    transcript_reconstruct,
)
from .treedec import read_td

MODES = ("dense-ldl", "dense-lu", "sparse-ldl", "sparse-lu", "saddle")


def parse_field(spec: str) -> FieldContext:
    if spec == "gf2":
        return FieldContext.gf2()
    if spec == "rational":
        return FieldContext.rational()
    if spec.startswith("gfp:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad field spec {spec!r}") from None
        return FieldContext.gfp(p)
    raise ParseError(f"unknown field {spec!r} (use gf2, gfp:<p>, rational)")


def field_name(ctx: FieldContext) -> str:
    if ctx.kind == "gf2":
        return "gf2"
    if ctx.kind == "gfp":
        return f"gfp:{ctx.p}"
    return "rational"


def fmt_el(ctx: FieldContext, v) -> str:
    if ctx.kind == "rational":
        num, den = v.numerator, v.denominator
        return str(num) if den == 1 else f"{num}/{den}"
    return str(int(v))


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
    if mmfield == "rational" and ctx.kind != "rational":
        raise EntryOutOfField(
            f"{path}: rational entries need --field rational"
        )
    dims = None
    entries = []
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
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad size line") from None
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
        if mmfield == "pattern":
            val = ctx.one
        else:
            tok = parts[2]
            try:
                if "/" in tok:
                    if ctx.kind != "rational":
                        raise EntryOutOfField(
                            f"{path}: line {lineno}: rational entry under {field_name(ctx)}"
                        )
                    val = ctx.el(tok)
                else:
                    val = ctx.el(int(tok))
            except ValueError:
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
            out.set(j, i, ctx.conj(v))
    return out


def mm_to_sparse_sym(path, ctx: FieldContext) -> SparseSym:
    rows, cols, entries, symmetric = read_matrix_market(path, ctx)
    if rows != cols:
        raise ParseError(f"{path}: symmetric input must be square")
    out = SparseSym(ctx, rows)
    for i, j, v in entries:
        if not symmetric and i > j:
            if out.get(j, i) != ctx.conj(v) and out.get(j, i) != ctx.zero:
                raise ParseError(f"{path}: entry ({i+1},{j+1}) breaks symmetry")
            continue
        out.set(i, j, v)
    if not symmetric:
        dense_check = out
        for i, j, v in entries:
            if dense_check.get(i, j) != v:
                raise ParseError(f"{path}: matrix is not symmetric")
    return out


def write_matrix_market(path, m: DenseMatrix, symmetric: bool = False):
    ctx = m.ctx
    mmfield = "rational" if ctx.kind == "rational" else "integer"
    symtag = "symmetric" if symmetric else "general"
    rows = []
    for i in range(m.nrows):
        jrange = range(i + 1) if symmetric else range(m.ncols)
        for j in jrange:
            v = m.get(i, j)
            if not ctx.is_zero(v):
                rows.append(f"{i + 1} {j + 1} {fmt_el(ctx, v)}")
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {mmfield} {symtag}\n")
        fh.write(f"{m.nrows} {m.ncols} {len(rows)}\n")
        for line in rows:
            fh.write(line + "\n")


# -- JSON factors -------------------------------------------------------------


def _coo(ctx, m: DenseMatrix):
    out = []
    for i in range(m.nrows):
        for j in range(m.ncols):
            v = m.get(i, j)
            if not ctx.is_zero(v):
                out.append([i, j, fmt_el(ctx, v)])
    return out


def _dblock_json(ctx, blk: DBlock):
    if blk.kind == "scalar":
        return {"kind": "scalar", "d": fmt_el(ctx, blk.d)}
    return {"kind": "antidiag", "a12": fmt_el(ctx, blk.a12), "a21": fmt_el(ctx, blk.a21)}


def _transform_json(ctx, tf):
    if isinstance(tf, VertexElim):
        return {
            "kind": "vertex_elim",
            "pivot": tf.pivot,
            "col": [[i, fmt_el(ctx, v)] for i, v in tf.col],
            "d": _dblock_json(ctx, tf.block),
        }
    if isinstance(tf, EdgeElim):
        return {
            "kind": "edge_elim",
            "pivots": list(tf.pivots),
            "col1": [[i, fmt_el(ctx, v)] for i, v in tf.col1],
            "col2": [[i, fmt_el(ctx, v)] for i, v in tf.col2],
            "d": _dblock_json(ctx, tf.block),
        }
    return {
        "kind": "peel",
        "target": tf.target,
        "coeffs": [[i, fmt_el(ctx, v)] for i, v in tf.coeffs],
    }


def nnz(m: DenseMatrix) -> int:
    count = 0
    for i in range(m.nrows):
        for j in range(m.ncols):
            if not m.ctx.is_zero(m.get(i, j)):
                count += 1
    return count


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


def _verify_block(status: bool, detail: str | None):
    out = {"ok": bool(status)}
    if detail:
        out["first_violation"] = detail
    return out


def run(args) -> tuple[int, dict]:
    ctx = parse_field(args.field)
    cutoff = args.strassen_cutoff
    report = {
        "mode": args.mode,
        "field": field_name(ctx),
        "seed": args.seed,
    }
    factors = {}
    if args.stats:
        ctx.enable_counter()
    verify_rep = None

    if args.mode == "dense-ldl":
        a = mm_to_dense(args.matrix, ctx)
        if a.nrows != a.ncols or a != a.conj_transpose():
            raise ParseError(f"{args.matrix}: dense-ldl needs a symmetric matrix")
        res = fast_ldl(a, cutoff)
        report["n"] = a.nrows
        report["rank"] = res.r
        if ctx.is_ordered():
            report["inertia"] = list(inertia_from_D(res.D, a.nrows, ctx))
        if args.stats:
            report["op_counts"] = op_count_snapshot(ctx)
        report["nnz"] = {"L": nnz(res.L), "D": len(res.D)}
        factors = {
            "P": list(res.P.fwd),
            "L": _coo(ctx, res.L),
            "D": [_dblock_json(ctx, b) for b in res.D],
        }
        if args.verify:
            verify_rep = oracle_verify_ldl(a, res)
    elif args.mode == "dense-lu":
        a = mm_to_dense(args.matrix, ctx)
        res = fast_lu(a, cutoff)
        report["n"] = a.ncols
        report["m"] = a.nrows
        report["rank"] = res.r
        if args.stats:
            report["op_counts"] = op_count_snapshot(ctx)
        report["nnz"] = {"L": nnz(res.L), "U": nnz(res.U)}
        factors = {
            "P": list(res.P.fwd),
            "Q": list(res.Q.fwd),
            "L": _coo(ctx, res.L),
            "U": _coo(ctx, res.U),
        }
        if args.verify:
            verify_rep = oracle_verify_lu(a, res)
    elif args.mode == "sparse-ldl":
        a = mm_to_sparse_sym(args.matrix, ctx)
        td = _load_td(args, a.n)
        out = sparse_ldl(a, td, cutoff=cutoff)
        report["n"] = a.n
        report["rank"] = out.rank
        report["peel_count"] = out.peel_count
        report["transform_blocks"] = out.transcript.kind_histogram()
        report["homogeneous_blocks"] = out.transcript.homogeneous_blocks()
        if args.stats:
            report["op_counts"] = op_count_snapshot(ctx)
        report["nnz"] = {"transcript": out.transcript.nnz()}
        factors = {
            "order": list(out.order.fwd),
            "transcript": [_transform_json(ctx, tf) for tf in out.transcript.transforms],
            "D": [_dblock_json(ctx, b) for b in out.transcript.dblocks],
        }
        if out.explicit is not None:
            report["nnz"]["L"] = nnz(out.explicit.L)
            factors["P"] = list(out.explicit.P.fwd)
            factors["L"] = _coo(ctx, out.explicit.L)
        if args.verify:
            if out.explicit is not None:
                verify_rep = oracle_verify_ldl(a.densify(), out.explicit)
            else:
                ok = transcript_reconstruct(out.transcript) == a.relabel(out.order).densify()
                verify_rep = VerifyReport(ok, None if ok else "transcript reconstruction mismatch")
    elif args.mode == "sparse-lu":
        b = mm_to_dense(args.matrix, ctx)
        td = _load_td(args, b.nrows + b.ncols)
        out = sparse_lu(b, td, cutoff=cutoff)
        report["m"] = b.nrows
        report["n"] = b.ncols
        report["rank"] = out.rank
        report["peel_count"] = out.row_peels + out.col_peels
        report["row_peels"] = out.row_peels
        report["col_peels"] = out.col_peels
        report["transform_blocks"] = out.transcript.kind_histogram()
        report["homogeneous_blocks"] = out.transcript.homogeneous_blocks()
        if args.stats:
            report["op_counts"] = op_count_snapshot(ctx)
        report["nnz"] = {"transcript": out.transcript.nnz()}
        factors = {
            "order": list(out.order.fwd),
            "transcript": [_transform_json(ctx, tf) for tf in out.transcript.transforms],
        }
        if out.explicit is not None:
            res = out.explicit
            report["nnz"]["L"] = nnz(res.L)
            report["nnz"]["U"] = nnz(res.U)
            factors.update(
                {
                    "P": list(res.P.fwd),
                    "Q": list(res.Q.fwd),
                    "L": _coo(ctx, res.L),
                    "U": _coo(ctx, res.U),
                }
            )
        if args.verify:
            if out.explicit is None:
                raise ParseError("sparse-lu verification needs the explicit factors")
            verify_rep = oracle_verify_lu(b, out.explicit, structural=False)
    elif args.mode == "saddle":
        a, bmat = _load_saddle(args, ctx)
        system = SaddleSystem(a, bmat)
        f = schilders_partial_ldl(system, cutoff)
        full = complete_saddle_ldl(system, f)
        report["n"] = system.n
        report["m"] = system.m
        report["rank_b"] = f.r
        report["rank"] = full.r
        if ctx.is_ordered():
            report["inertia"] = list(
                inertia_from_D(full.D, system.n + system.m, ctx)
            )
        if args.stats:
            report["op_counts"] = op_count_snapshot(ctx)
        report["nnz"] = {
            "Y": nnz(f.Y),
            "L_partial": nnz(f.L),
            "U": nnz(f.U),
            "L": nnz(full.L),
            "D": len(full.D),
        }
        factors = {
            "P": list(f.P.fwd),
            "Q": list(f.Q.fwd),
            "Y": _coo(ctx, f.Y),
            "L_partial": _coo(ctx, f.L),
            "U": _coo(ctx, f.U),
            "D_partial": [fmt_el(ctx, d) for d in f.D],
            "P_full": list(full.P.fwd),
            "L": _coo(ctx, full.L),
            "D": [_dblock_json(ctx, b) for b in full.D],
        }
        if args.verify:
            rep1 = oracle_verify_partial_ldl(system, f)
            rep2 = oracle_verify_ldl(system.dense(), full)
            ok = rep1.ok and rep2.ok
            verify_rep = VerifyReport(
                ok, rep1.first_violation or rep2.first_violation if not ok else None
            )
    if verify_rep is not None:
        report["verify"] = _verify_block(verify_rep.ok, verify_rep.first_violation)
    payload = {
        "report": report,
        "inputs": {
            "matrix": args.matrix,
            "matrix_b": args.matrix_b,
            "td": args.td,
            "greedy_td": bool(args.greedy_td),
            "saddle_split": args.saddle_split,
            "strassen_cutoff": cutoff,
        },
        "factors": factors,
    }
    code = 0
    if verify_rep is not None and not verify_rep.ok:
        code = 2
    return code, payload


def _load_td(args, n):
    if args.td:
        td = read_td(args.td)
        if td.n != n:
            raise ParseError(
                f"{args.td}: decomposition covers {td.n} vertices, expected {n}"
            )
        return td
    if args.greedy_td:
        return None  # the pipeline builds one
    raise ParseError("sparse modes need --td or --greedy-td")


def _load_saddle(args, ctx):
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
    return a, b


def reverify_json(json_path) -> bool:
    """Independent re-verification of an emitted factors file: reread the
    inputs, rebuild the factors from the JSON, and run the reference checks."""
    with open(json_path) as fh:
        payload = json.load(fh)
    report = payload["report"]
    inputs = payload["inputs"]
    factors = payload["factors"]
    ctx = parse_field(report["field"])
    mode = report["mode"]

    def parse_coo(key, shape):
        m = DenseMatrix.zeros(ctx, *shape)
        for i, j, s in factors[key]:
            m.set(i, j, ctx.el(s))
        return m

    def parse_blocks(key):
        out = []
        for b in factors[key]:
            if b["kind"] == "scalar":
                out.append(DBlock.scalar(ctx.el(b["d"])))
            else:
                out.append(DBlock.antidiag(ctx.el(b["a12"]), ctx.el(b["a21"])))
        return out

    if mode == "dense-ldl":
        a = mm_to_dense(inputs["matrix"], ctx)
        blocks = parse_blocks("D")
        from .factor import d_size

        res = LDLResult(
            Permutation(factors["P"]),
            parse_coo("L", (a.nrows, d_size(blocks))),
            blocks,
            report["rank"],
        )
        return oracle_verify_ldl(a, res).ok
    if mode == "dense-lu":
        a = mm_to_dense(inputs["matrix"], ctx)
        res = LUResult(
            Permutation(factors["P"]),
            Permutation(factors["Q"]),
            parse_coo("L", (a.nrows, report["rank"])),
            parse_coo("U", (report["rank"], a.ncols)),
            report["rank"],
        )
        return oracle_verify_lu(a, res).ok
    if mode == "sparse-ldl":
        a = mm_to_sparse_sym(inputs["matrix"], ctx)
        if "L" not in factors:
            return False
        blocks = parse_blocks("D")
        res = LDLResult(
            Permutation(factors["P"]),
            parse_coo("L", (a.n, report["rank"])),
            blocks,
            report["rank"],
        )
        return oracle_verify_ldl(a.densify(), res).ok
    if mode == "sparse-lu":
        b = mm_to_dense(inputs["matrix"], ctx)
        if "L" not in factors:
            return False
        res = LUResult(
            Permutation(factors["P"]),
            Permutation(factors["Q"]),
            parse_coo("L", (b.nrows, report["rank"])),
            parse_coo("U", (report["rank"], b.ncols)),
            report["rank"],
        )
        return oracle_verify_lu(b, res, structural=False).ok
    if mode == "saddle":
        ns = argparse.Namespace(
            matrix=inputs["matrix"],
            matrix_b=inputs["matrix_b"],
            saddle_split=inputs["saddle_split"],
        )
        a, bmat = _load_saddle(ns, ctx)
        system = SaddleSystem(a, bmat)
        full = LDLResult(
            Permutation(factors["P_full"]),
            parse_coo("L", (system.n + system.m, report["rank"])),
            parse_blocks("D"),
            report["rank"],
        )
        return oracle_verify_ldl(system.dense(), full).ok
    raise ParseError(f"unknown mode {mode!r} in {json_path}")


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
