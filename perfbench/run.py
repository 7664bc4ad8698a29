"""mbrobust benchmark: one command per workload run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  The launcher writes the seeded inputs under ``.perfbench/``,
then runs the workload in a child process (so ``peak_rss_mb`` is that
process's own peak), relays its output and removes the inputs.  The child's
last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics under ``--trace 0`` and the
per-layer metrics under ``--trace 1``.  The line before it is the run record
(sample counts and tails, quality, versions, commit).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MIN_OPS = 2  # the first operation is the reference the others are checked against
BLAS_THREADS = 1  # one process per workload on a shared machine; see README
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it
    (when there are 11 or more samples), and the sample count."""
    xs = sorted(values)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None, "samples": values}
    if len(xs) > 10:
        out["tail_pct"] = 100.0 * (len(xs) - 10) / len(xs)
        out["tail"] = xs[len(xs) - 11]
    return out


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# Child: runs one workload and prints the result
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, wl, args, work):
        self.wl, self.args, self.work = wl, args, work
        self.ref = None
        self.ctx = None
        self.attempted = 0
        self.failures: list[str] = []

    def setup(self) -> float:
        self.ctx = None  # let the previous set-up's output go first
        t0 = time.perf_counter()
        self.ctx = self.wl.setup(self.work)
        return time.perf_counter() - t0

    def op(self) -> float:
        """Run and check one operation; return its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.op(self.ctx, self.args.seed, self.work)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failures.append(traceback.format_exc())
            return time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        problems = self.wl.check(self.ctx, out, self.ref)
        if self.ref is None and not problems:
            self.ref = self.wl.reference(out)
        if problems:
            self.failures.append("; ".join(problems))
        return seconds


def run_child(args) -> int:
    import mbrobust

    if not os.path.abspath(mbrobust.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported mbrobust from {mbrobust.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    run = Run(wl, args, args.child)
    tracer = tracing.Tracer()
    # Each unit is a set-up followed by an operation, so set-up samples are
    # spread over the whole window like operation samples.  Traced runs
    # alternate untraced and traced units; their difference is the tracing
    # overhead.
    setup_times, op_times, units_plain, units_traced, layer_units = [], [], [], [], []
    first_spans = None
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(op_times) < MIN_OPS
           or (args.trace and not layer_units)):
        if args.trace and len(units_traced) < len(units_plain):
            with tracer.installed():
                units_traced.append(run.setup() + run.op())
            layer_units.append(tracing.per_layer(tracer.spans))
            first_spans = first_spans or tracer.spans
            continue
        setup_times.append(run.setup())
        op_times.append(run.op())
        units_plain.append(setup_times[-1] + op_times[-1])

    quality = {}
    if run.ref is not None:
        problems, quality = wl.final_check(run.ctx, run.ref, args.seed, args.child)
        if problems:
            run.failures.append("; ".join(problems))
    failed = min(len(run.failures), run.attempted)
    for f in run.failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": summary(setup_times),
        "op_s": summary(op_times),
        "failed_frac": failed / run.attempted,
        "hr10": quality.get("hr10"),
        "ndcg10": quality.get("ndcg10"),
        "sizes": dataclasses.asdict(wl.spec),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s": (statistics.median(op_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        layers = tracing.median_metrics(layer_units)
        layers["trace.overhead_frac"] = (
            statistics.median(units_traced) / statistics.median(units_plain) - 1.0
        )
        layers["evaluation.hr10"] = quality.get("hr10", 0.0)
        layers["evaluation.ndcg10"] = quality.get("ndcg10", 0.0)
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        out_path = os.path.join(ROOT, ".perfbench", f"trace-{wl.name}-s{args.seed}.jsonl")
        tracing.write_spans(first_spans, out_path)
        record["spans"] = os.path.relpath(out_path, ROOT)
    print(json.dumps({"run_record": record}))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("_gbytes"):
        return "GB"
    if name.endswith(("_frac", "_yield", "hr10", "ndcg10")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Launcher: writes inputs, runs the child, cleans up
# ---------------------------------------------------------------------------


def run_launcher(args, argv) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        WORKLOADS[args.workload].inputs(args.seed, work)
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        cmd = [sys.executable, os.path.abspath(__file__), *argv, "--child", work]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        sys.stdout.write(proc.stdout)
        return proc.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mbrobust", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/mbrobust; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    if args.child:
        return run_child(args)
    return run_launcher(args, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
