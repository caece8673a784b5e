"""exldl benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload dense-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; exldl is imported from its `src` tree.
`--workload all` runs every workload in turn, each in its own process.
With `--trace 0` the timed loop repeats the workload's job list until
`--seconds` have passed and reports the end-to-end metrics. With
`--trace 1` it runs the job list once untraced and twice traced and
reports the per-layer metrics. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# The speed of this machine drifts by tens of percent over seconds when
# other tenants load it, and interpreter-bound and memory-bound code drift
# differently. Every timed section is therefore also reported in
# calibrated seconds: wall seconds times the geometric mean, over two
# reference loops (pure Python, and an int64 numpy product), of the loop's
# reference time over its median recent time. The reference times are the
# loops' medians on a 2-core Xeon with Python 3.11 and numpy 2.4, where
# calibrated and wall seconds agree.
CALIB_PY_ITERS = 50_000
CALIB_PY_REF_S = 0.0070
CALIB_NP_REPS = 2
CALIB_NP_REF_S = 0.0063
CALIB_WINDOW = 6
END_TO_END = (  # name, unit; every workload reports each of them
    ("items_per_s", "items/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
WORKLOAD_NAMES = ("dense-large", "small-mixed", "sparse-tree", "cli-batch")


# exldl computes on one thread. One BLAS thread (within nproc) also keeps
# the checker's float products from leaving a second core spinning while
# the next job is timed.
THREAD_CAP = 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(cap: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "thread_cap": cap,
        "commit": git_commit(),
    }


class Calibration:
    """Recent timings of the two reference loops."""

    def __init__(self):
        import numpy

        self.matrix = (numpy.arange(128 * 128, dtype=numpy.int64).reshape(128, 128) * 7919) % 1009
        self.py = []
        self.np = []

    def sample(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(CALIB_PY_ITERS):
            s = (s * 31 + i) % 1000003
        t1 = time.perf_counter()
        for _ in range(CALIB_NP_REPS):
            (self.matrix @ self.matrix) % 1009
        t2 = time.perf_counter()
        self.py = self.py[1 - CALIB_WINDOW:] + [t1 - t0]
        self.np = self.np[1 - CALIB_WINDOW:] + [t2 - t1]

    def scale(self):
        """Calibrated seconds per wall second, from the recent samples."""
        py = CALIB_PY_REF_S / statistics.median(self.py)
        np = CALIB_NP_REF_S / statistics.median(self.np)
        return (py * np) ** 0.5


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _betai(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of the order statistics. It leans on several jobs near
    the quantile rather than one, which matters when there are few jobs."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_betai(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


class Tally:
    """Jobs attempted and failed, with what failed and why."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def fail(self, job, kind, detail):
        self.failures.append({"workload": self.workload, "instance": job, "error": kind, "detail": detail})
        print(f"FAILED {self.workload} {job}: {kind}: {detail}", file=sys.stderr)


def run_pass(wl, tally, outcomes, first, calib, tracer=None):
    """Run every job once, each between two reference-loop samples; return
    the wall seconds spent in timed sections."""
    done = len(outcomes)
    for job in wl.jobs:
        tally.attempted += 1
        if tracer is not None:
            tracer.job = job.name
        # Start each job from a collected heap, with the long-lived inputs and
        # kept outputs frozen, so that collector work is the job's own.
        gc.collect()
        gc.freeze()
        calib.sample()
        try:
            out = job.run()
        except Exception as exc:  # a failing job is recorded and the run goes on
            traceback.print_exc(limit=-3)
            tally.fail(job.name, type(exc).__name__, str(exc)[:200])
            continue
        calib.sample()
        out.job, out.scale = job.name, calib.scale()
        msg = job.check(out, first.get(job.name))
        if msg:
            tally.fail(job.name, "WrongOutput", msg)
            continue
        if job.name in first:
            out.value = None
        else:
            first[job.name] = out
        outcomes.append(out)
    return sum(sum(o.times.values()) for o in outcomes[done:])


def setup(name, seed):
    """Build the inputs and warm up; repeated, and the median reported."""
    import workloads

    workloads.quiet_corank_warnings()
    cls = workloads.WORKLOADS[name]
    calib = Calibration()
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        calib.sample()
        t0 = time.perf_counter()
        wl = cls(seed)
        tiny = cls(seed, tiny=True)
        run_pass(tiny, Tally(name), [], {}, Calibration())
        tiny.close()
        times.append(time.perf_counter() - t0)
        calib.sample()
        times[-1] *= calib.scale()
    return wl, statistics.median(times), calib


def seconds(runs, calibrated, sections=None):
    """Median over one job's runs of its time in the given timed sections."""
    return statistics.median(
        sum(t for s, t in o.times.items() if sections is None or s in sections)
        * (o.scale if calibrated else 1.0)
        for o in runs
    )


def rates(wl, jobs, calibrated):
    """Each throughput: one pass's items over the sum of per-job medians."""
    out = {}
    for metric, (item, sections, unit) in wl.RATES.items():
        items = sum(runs[0].items.get(item, 0) for runs in jobs)
        secs = sum(seconds(runs, calibrated, sections) for runs in jobs)
        out[metric] = (items / secs if secs else 0.0, unit)
    return out


def timed_run(wl, seconds, tally, calib):
    outcomes, first = [], {}
    passes = 0
    t0 = time.perf_counter()
    while True:
        run_pass(wl, tally, outcomes, first, calib)
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return outcomes, passes, time.perf_counter() - t0


def traced_run(wl, tally, calib):
    """One untraced pass, then two traced passes with every counter on."""
    import spans

    outcomes, first = [], {}
    plain_s = run_pass(wl, tally, outcomes, first, calib)
    tracer = spans.Tracer()
    tracer.install()
    passes, per_pass, timed_s = [], [], []
    try:
        for _ in range(2):
            for ctx in wl.fields.values():
                ctx.enable_counter()
            timed_s.append(run_pass(wl, tally, outcomes, first, calib, tracer))
            for ctx in wl.fields.values():
                ctx.disable_counter()
            passes.append(tracer.take())
            per_pass.append(spans.layer_metrics(passes[-1]))
    finally:
        tracer.uninstall()
    mismatch = [k for k in spans.DETERMINISTIC if per_pass[0][k] != per_pass[1][k]]
    for k in mismatch:
        tally.fail("traced-passes", "CountMismatch", f"{k}: {per_pass[0][k]} then {per_pass[1][k]}")
    metrics = {
        k: (per_pass[0][k] if isinstance(per_pass[0][k], int) else (per_pass[0][k] + per_pass[1][k]) / 2)
        for k in per_pass[0]
    }
    metrics["trace.overhead_ratio"] = statistics.mean(timed_s) / plain_s
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl", passes)
    units = dict(spans.PER_LAYER)
    return {k: (metrics[k], units[k]) for k, _ in spans.PER_LAYER}


def run_probes(wl):
    """Instances known to fail at this commit: attempted, reported, not counted."""
    out = []
    for name, thunk in wl.probes:
        t0 = time.perf_counter()
        try:
            thunk()
            status = "completed"
        except Exception as exc:  # the probe records how the instance fails
            status = type(exc).__name__
        out.append({"instance": name, "status": status, "seconds": time.perf_counter() - t0})
    return out


def run_workload(args) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREAD_CAP)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import exldl
        import exldl.cli  # noqa: F401
        import exldl.oracle  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import exldl from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(exldl.__file__).resolve().parent != ROOT / "src" / "exldl":
        print(f"error: exldl imported from {exldl.__file__}, not this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    wl, setup_s, calib = setup(args.workload, args.seed)
    tally = Tally(args.workload)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "stamp": stamp(THREAD_CAP), "inputs_sha256": wl.digest, "jobs_per_pass": len(wl.jobs),
    }
    try:
        if args.trace:
            metrics = traced_run(wl, tally, calib)
        else:
            outcomes, passes, wall = timed_run(wl, args.seconds, tally, calib)
            report.update(passes=passes, wall_s=wall, samples=len(outcomes))
            report["known_failures"] = run_probes(wl)
            metrics, report["jobs"] = end_to_end(wl, outcomes, setup_s + import_s * calib.scale(), tally)
    finally:
        wl.close()
    failed = len(tally.failures)
    report.update(attempted=tally.attempted, failed=failed, failures=tally.failures, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("stamp " + json.dumps(report["stamp"]))
    print(f"inputs_sha256 {wl.digest}")
    for k in ("passes", "samples", "wall_s"):
        if k in report:
            print(f"{k} {report[k]}")
    for probe in report.get("known_failures", []):
        print(f"known_failure {args.workload} {probe['instance']} {probe['status']} ({probe['seconds']:.3f} s)")
    for fail in tally.failures:
        print(f"failure {fail['workload']} {fail['instance']} {fail['error']}: {fail['detail']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if args.trace or name in dict(END_TO_END)
        },
    }
    print(json.dumps(result))
    return 0


def end_to_end(wl, outcomes, setup_s, tally):
    """The workload's own throughputs, then the shared end-to-end metrics,
    in calibrated seconds; the `_wall` lines give the same in wall seconds.
    Each job counts once, with its median over the passes."""
    jobs = {}
    for o in outcomes:
        jobs.setdefault(o.job, []).append(o)
    jobs = list(jobs.values())
    metrics = rates(wl, jobs, calibrated=True)
    metrics.update({k + "_wall": v for k, v in rates(wl, jobs, calibrated=False).items()})
    job_ms = [1000 * seconds(runs, True) for runs in jobs] or [0.0]
    wall_ms = [1000 * seconds(runs, False) for runs in jobs] or [0.0]
    per_job = {
        runs[0].job: {"ms": ms, "wall_ms": w, "runs": [(sum(o.times.values()), o.scale) for o in runs]}
        for runs, ms, w in zip(jobs, job_ms, wall_ms)
    }
    metrics.update({
        "failed_ratio": (len(tally.failures) / max(tally.attempted, 1), "ratio"),
        "calibration_scale": (statistics.median(o.scale for o in outcomes) if outcomes else 0.0, "ratio"),
        "job_ms_p50_wall": (quantile(wall_ms, 0.5), "ms"),
        "job_ms_p90_wall": (quantile(wall_ms, 0.9), "ms"),
        "items_per_s": (metrics[wl.HEADLINE][0], "items/s"),
        "job_ms_p50": (quantile(job_ms, 0.5), "ms"),
        "job_ms_p90": (quantile(job_ms, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    })
    return metrics, per_job


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
