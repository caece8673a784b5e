"""Spans around public exldl functions, and the per-layer metrics they give.

`Tracer.install` rebinds each traced function in every loaded exldl module
that holds it, so calls between exldl modules are traced as well as the
benchmark's own calls. A span records its name, job, start, end, parent,
field storage and the op-count delta of its field context. Spans stay in
memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# span name -> (defining module, function)
TRACED = {
    "dense.matmul": ("dense", "matmul"),
    "dense.tri_solve": ("dense", "tri_solve"),
    "factor.fast_ldl": ("factor", "fast_ldl"),
    "factor.fast_lu": ("factor", "fast_lu"),
    "saddle.gamma_eliminate_partial": ("saddle", "gamma_eliminate_partial"),
    "saddle.schilders_partial_ldl": ("saddle", "schilders_partial_ldl"),
    "saddle.complete_saddle_ldl": ("saddle", "complete_saddle_ldl"),
    "treedec.greedy_td": ("treedec", "greedy_td"),
    "treedec.normalize_td": ("treedec", "normalize_td"),
    "treedec.read_td": ("treedec", "read_td"),
    "sparse.sparse_ldl": ("sparse", "sparse_ldl"),
    "sparse.sparse_lu": ("sparse", "sparse_lu"),
    "sparse.tree_ldl": ("sparse", "tree_ldl"),
    "sparse.explicit_ldl_from_transcript": ("sparse", "explicit_ldl_from_transcript"),
    "sparse.apply_transcript": ("sparse", "apply_transcript"),
    "oracle.oracle_verify_ldl": ("oracle", "oracle_verify_ldl"),
    "oracle.oracle_verify_lu": ("oracle", "oracle_verify_lu"),
    "oracle.oracle_verify_partial_ldl": ("oracle", "oracle_verify_partial_ldl"),
    "cli.main": ("cli", "main"),
    "cli.run": ("cli", "run"),
    "cli.mm_to_dense": ("cli", "mm_to_dense"),
    "cli.mm_to_sparse_sym": ("cli", "mm_to_sparse_sym"),
    "cli.write_factors_json": ("cli", "write_factors_json"),
    "cli.reverify_json": ("cli", "reverify_json"),
}
# Spans whose return value feeds a metric.
KEEP_RESULT = {"treedec.normalize_td", "sparse.tree_ldl", "oracle.oracle_verify_ldl",
               "oracle.oracle_verify_lu", "oracle.oracle_verify_partial_ldl"}
PARSE = ("cli.mm_to_dense", "cli.mm_to_sparse_sym", "treedec.read_td")
STORAGE = {"gf2": "gf2", "gfp": "gfp", "rational": "q"}
KINDS = ("gf2", "gfp", "q")

PER_LAYER = (
    [("fields.ops_" + op, "count") for op in ("add", "mul", "inv")]
    + [(f"dense.matmul_s.{k}", "s") for k in KINDS]
    + [("dense.matmul_calls", "count"), ("dense.matmul_mul_per_s", "mul/s")]
    + [(f"dense.tri_solve_s.{k}", "s") for k in KINDS]
    + [("dense.tri_solve_calls", "count")]
    + [("factor.fast_ldl_self_s", "s"), ("factor.fast_lu_self_s", "s"), ("factor.calls", "count")]
    + [("saddle.partial_self_s", "s"), ("saddle.complete_self_s", "s")]
    + [("treedec.greedy_td_s", "s"), ("treedec.normalize_td_s", "s"),
       ("treedec.bags", "count"), ("treedec.max_bag", "count")]
    + [("sparse.tree_ldl_self_s", "s"), ("sparse.explicit_s", "s"), ("sparse.apply_s", "s"),
       ("sparse.transforms", "count"), ("sparse.peels", "count"), ("sparse.transcript_nnz", "count")]
    + [(f"oracle.verify_s.{k}", "s") for k in KINDS]
    + [("oracle.checks", "count"), ("oracle.checks_failed", "count")]
    + [("cli.parse_s", "s"), ("cli.run_self_s", "s"), ("cli.write_json_s", "s"),
       ("cli.reverify_s", "s"), ("cli.json_bytes", "bytes")]
    + [("trace.overhead_ratio", "ratio")]
)
# Counts that must repeat exactly from one traced pass to the next.
DETERMINISTIC = ("fields.ops_add", "fields.ops_mul", "fields.ops_inv",
                 "sparse.transforms", "sparse.peels", "treedec.max_bag")


def _ctx_of(args):
    if not args:
        return None
    x = args[0]
    ctx = getattr(x, "ctx", None)
    if ctx is None and hasattr(x, "A"):
        ctx = x.A.ctx
    return ctx


def _ops(ctx):
    c = ctx.counter if ctx is not None else None
    return None if c is None else (c.add, c.mul, c.inv)


class Span:
    __slots__ = ("name", "job", "start", "end", "parent", "kind", "ops", "result", "nbytes")

    def __init__(self, name, job, parent, kind):
        self.name = name
        self.job = job
        self.parent = parent
        self.kind = kind
        self.ops = None
        self.result = None
        self.nbytes = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = _ctx_of(args)
            span = Span(name, self.job, stack[-1] if stack else None, STORAGE.get(ctx.kind) if ctx else None)
            ops0 = _ops(ctx)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                ops1 = _ops(ctx)
                if ops1 is not None:
                    ops0 = ops0 or (0, 0, 0)  # counter enabled inside the call
                    span.ops = tuple(b - a for a, b in zip(ops0, ops1))
            if keep:
                span.result = result
            if name == "cli.write_factors_json":
                span.nbytes = os.path.getsize(args[0])
            return result

        return traced

    def install(self):
        loaded = [m for k, m in sys.modules.items() if k == "exldl" or k.startswith("exldl.")]
        for name, (mod, fn) in TRACED.items():
            orig = getattr(importlib.import_module(f"exldl.{mod}"), fn)
            wrapper = self._wrap(name, orig)
            for m in loaded:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass, every name of PER_LAYER but the
    overhead ratio."""
    m = {name: 0 for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
    child_s = {}
    for s in spans:
        if s.parent is not None:
            child_s[id(s.parent)] = child_s.get(id(s.parent), 0.0) + s.end - s.start
    matmul_muls = 0
    for s in spans:
        dur = s.end - s.start
        own = dur - child_s.get(id(s), 0.0)
        name = s.name
        if s.ops is not None and not _metered_ancestor(s):
            for op, v in zip(("add", "mul", "inv"), s.ops):
                m["fields.ops_" + op] += v
        if name == "dense.matmul":
            m[f"dense.matmul_s.{s.kind}"] += own
            m["dense.matmul_calls"] += 1
            matmul_muls += s.ops[1] if s.ops else 0
        elif name == "dense.tri_solve":
            m[f"dense.tri_solve_s.{s.kind}"] += own
            m["dense.tri_solve_calls"] += 1
        elif name in ("factor.fast_ldl", "factor.fast_lu"):
            m[name + "_self_s"] += own
            m["factor.calls"] += 1
        elif name in ("saddle.gamma_eliminate_partial", "saddle.schilders_partial_ldl"):
            m["saddle.partial_self_s"] += own
        elif name == "saddle.complete_saddle_ldl":
            m["saddle.complete_self_s"] += own
        elif name == "treedec.greedy_td":
            m["treedec.greedy_td_s"] += own
        elif name == "treedec.normalize_td":
            m["treedec.normalize_td_s"] += own
            m["treedec.bags"] += s.result.td.nbags
            m["treedec.max_bag"] = max(m["treedec.max_bag"], s.result.td.max_bag())
        elif name == "sparse.tree_ldl":
            t = s.result[0]
            m["sparse.tree_ldl_self_s"] += own
            m["sparse.transforms"] += len(t.transforms)
            m["sparse.peels"] += t.peel_count
            m["sparse.transcript_nnz"] += t.nnz()
        elif name == "sparse.explicit_ldl_from_transcript":
            m["sparse.explicit_s"] += dur
        elif name == "sparse.apply_transcript":
            m["sparse.apply_s"] += dur
        elif name.startswith("oracle."):
            m[f"oracle.verify_s.{s.kind}"] += dur
            m["oracle.checks"] += 1
            m["oracle.checks_failed"] += 0 if s.result.ok else 1
        elif name in PARSE:
            m["cli.parse_s"] += dur
        elif name == "cli.run":
            m["cli.run_self_s"] += own
        elif name == "cli.write_factors_json":
            m["cli.write_json_s"] += dur
            m["cli.json_bytes"] += s.nbytes
        elif name == "cli.reverify_json":
            m["cli.reverify_s"] += dur
    secs = sum(m[f"dense.matmul_s.{k}"] for k in KINDS)
    m["dense.matmul_mul_per_s"] = matmul_muls / secs if secs else 0.0
    return m


def _metered_ancestor(span):
    p = span.parent
    while p is not None:
        if p.ops is not None:
            return True
        p = p.parent
    return False


def write(path, passes):
    """One JSON line per span; parents are given by span number."""
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            ids = {id(s): i for i, s in enumerate(spans)}
            for i, s in enumerate(spans):
                rec = {
                    "pass": k, "id": i, "name": s.name, "job": s.job,
                    "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "kind": s.kind, "ops": s.ops,
                }
                fh.write(json.dumps(rec) + "\n")
