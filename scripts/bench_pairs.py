"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 20 \
        --run dense-large:1 --run dense-large:2 --run sparse-tree:1 --out BENCH.json

The parent is the tree of a git revision, exported with `git archive` into
a temporary directory; the change is this checkout's working tree.  Each
pair runs `perfbench/run.py --trace 0` once on each side, each in its own
process, the parent first in even pairs and the change first in odd ones.
For each `--run WORKLOAD:SEED` and each metric the JSON written to `--out`
gives both sides' runs, medians and quartiles, and the number of pairs the
change won by the metric's direction in BENCHMARK.json (ties count for
neither side); for each side it gives the `failed` count and the status
of each `known_failure` probe that `run.py` prints, pair by pair.  It also
records the stamp `run.py` prints, the parent commit, and for the change:
the commit this checkout is based on, the files that differ from it, as
`git status` lists them (none when the change is that commit), and a
digest of its `src/` files.  For both sides
it records the line count of `src/exldl/*.py`, as `wc -l` gives it, and
for each `--run` the traced op counts (`fields.ops_add`, `fields.ops_mul`,
`fields.ops_inv`) of one `perfbench/run.py --trace 1` run on each side,
and whether they are equal; and, as `ops.library` and
`ops.library_equal`, the same counts outside the oracle: summed over the
spans of that run's first traced pass (in the side's
`perfbench/out/spans-<workload>-seed<n>.jsonl`) that have no metered
ancestor, by the rule of `perfbench/spans.layer_metrics`, and are not
`oracle.*` spans.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout


def src_digest(checkout: Path) -> str:
    """SHA-256 over the paths and contents of the files under src/."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_lines(checkout: Path) -> int:
    """The lines of src/exldl/*.py, counted as `wc -l` does."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "exldl").glob("*.py"))


def export(rev: str, dest: Path) -> None:
    """The tree of rev, written under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """The stamp, the status of each known-failure probe, and the final
    JSON line of one `perfbench/run.py` run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    stamp = next(json.loads(line[6:]) for line in lines if line.startswith("stamp "))
    # "known_failure <workload> <instance> <status> (<s> s)"
    probes = dict(line.split()[2:4] for line in lines if line.startswith("known_failure "))
    return {"stamp": stamp, "known_failures": probes, **json.loads(lines[-1])}


def library_ops(checkout: Path, workload: str, seed: int) -> dict:
    """`fields.ops_*` of the first traced pass of a side's traced run,
    outside the oracle: summed over the spans that have no metered ancestor
    and are not `oracle.*` spans."""
    spans = {}
    with open(checkout / "perfbench" / "out" / f"spans-{workload}-seed{seed}.jsonl") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["pass"] == 0:
                spans[rec["id"]] = rec
    total = [0, 0, 0]
    for rec in spans.values():
        if rec["ops"] is None or rec["name"].startswith("oracle."):
            continue
        up = rec["parent"]
        while up is not None and spans[up]["ops"] is None:
            up = spans[up]["parent"]
        if up is None:
            total = [a + b for a, b in zip(total, rec["ops"])]
    return {"fields.ops_" + op: v for op, v in zip(("add", "mul", "inv"), total)}


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs, better: dict) -> dict:
    """Per metric: both sides' runs and quartiles, and the change's wins;
    per side: `failed` and each known-failure probe's status, pair by pair."""
    out = {}
    for name, direction in better.items():
        parent = [pair["parent"]["metrics"][name]["value"] for pair in runs]
        change = [pair["change"]["metrics"][name]["value"] for pair in runs]
        sign = 1 if direction == "higher" else -1
        out[name] = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "better": direction,
            "parent": {**quartiles(parent), "runs": parent},
            "change": {**quartiles(change), "runs": change},
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(runs),
        }
    out["failed"] = {side: [pair[side]["failed"] for pair in runs] for side in ("parent", "change")}
    out["known_failures"] = {
        side: {name: [pair[side]["known_failures"].get(name) for pair in runs]
               for name in runs[0][side]["known_failures"]}
        for side in ("parent", "change")
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {
        "parent": git("rev-parse", args.parent).strip(),
        "change": {
            "base_commit": git("rev-parse", "HEAD").strip(),
            "uncommitted_files": [line[3:] for line in git("status", "--porcelain").splitlines()],
            "src_sha256": src_digest(ROOT),
            "src_lines": src_lines(ROOT),
        },
        "pairs": args.pairs,
        "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "runs": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        report["parent_src_lines"] = src_lines(parent)
        for spec in args.run:
            workload, seed = spec.rsplit(":", 1)
            runs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {side: run_once(parent if side == "parent" else ROOT, workload, int(seed), args.seconds)
                        for side in order}
                runs.append(pair)
                head = pair["change"]["metrics"]["items_per_s"]["value"] / pair["parent"]["metrics"]["items_per_s"]["value"]
                print(f"{spec} pair {i + 1}/{args.pairs}: items_per_s change/parent {head:.3f}", flush=True)
            ops, library = {}, {}
            for side, checkout in (("parent", parent), ("change", ROOT)):
                metrics = run_once(checkout, workload, int(seed), args.seconds, trace=1)["metrics"]
                ops[side] = {name: metrics[name]["value"] for name in metrics
                             if name.startswith("fields.ops_")}
                library[side] = library_ops(checkout, workload, int(seed))
            report["stamp"] = runs[-1]["change"]["stamp"]
            report["runs"][spec] = {**summarise(runs, better), "ops": {
                **ops, "equal": ops["parent"] == ops["change"],
                "library": library, "library_equal": library["parent"] == library["change"]}}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
