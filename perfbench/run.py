"""semispec benchmark: one seeded workload per process, checked outputs, JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload ineq_mix --seed 1 --seconds 25 --trace 0

A run builds the workload's inputs from the seed, runs one untimed warm-up
job, then repeats the job while the next repeat is expected to end within
``--seconds`` (at least once), and checks every output outside the timed
region.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count checked outputs (``failed / attempted`` is
the workload's failed fraction); the line before it carries provenance and
the sample count behind each metric.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh processes that import semispec and
  build the inputs (what a CLI user pays on every call);
* ``job_s``: median wall time of one complete job;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates traced and untraced jobs and reports per-layer
metrics: calls and self time of each wrapped public function (see
``tracer.TARGETS``), computed counts, the process CPU time of an untraced
job and the tracing overhead.  Spans are written to
``.bench_build/perfbench/`` at exit.  Traced and untraced outputs must be
byte-identical.

The exit code is 0 when every output checks, 1 when one does not, and 2
when the semispec sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
from statistics import median
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ineq_mix", "simon_2d", "growth_1d"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="only import semispec and build the inputs")
    return p.parse_args(argv)


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import semispec and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def provenance(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout that is not a git repository
    digest = hashlib.sha256()
    for path in sorted((SRC / "semispec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs and checks jobs of one workload; counts attempted and failed outputs."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.inputs = workload.build(seed)
        self.oracle = workload.oracle(self.inputs)
        self.reference = None  # repr of the warm-up job's outputs
        self.attempted = self.failed = 0

    def run(self, tracer=None) -> tuple[float, float]:
        """One job; returns (wall seconds, process CPU seconds)."""
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            outputs = self.wl.job(self.inputs)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        except Exception:
            traceback.print_exc()
            self.attempted += self.wl.n_outputs + 1
            self.failed += self.wl.n_outputs + 1
            return float("nan"), float("nan")
        finally:
            if tracer is not None:
                tracer.uninstall()
        ok = self.wl.check(self.inputs, self.oracle, outputs)
        text = repr(outputs)
        if self.reference is None:
            self.reference = text
        ok.append(text == self.reference)  # deterministic, and unchanged by tracing
        self.attempted += len(ok)
        self.failed += ok.count(False)
        return wall, cpu


def timed_loop(seconds: float, step, min_steps: int = 1) -> None:
    """Call ``step(k)`` for k = 0, 1, ... while the next call is expected to end within ``seconds``.

    The expected length of a call is the longest one so far; at least
    ``min_steps`` calls are made.
    """
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while k < min_steps or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        step(k)
        longest = max(longest, time.perf_counter() - t0)
        k += 1


def end_to_end(args, runner, setup, samples) -> dict:
    runner.run()  # warm-up
    jobs = []
    timed_loop(args.seconds, lambda k: jobs.append(runner.run()[0]))
    samples.update(setup_s=len(setup), job_s=len(jobs), peak_rss_mb=1, job_walls=jobs)
    return {
        "setup_s": {"value": median(setup), "unit": "s"},
        "job_s": {"value": median(jobs), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(args, runner, samples) -> dict:
    from tracer import NAMES, Tracer

    tracer = Tracer()
    runner.run()  # warm-up, untraced: the reference outputs
    traced, plain, first_span = [], [], []

    def step(k):
        if k % 2 == 0:
            first_span.append(len(tracer.spans))
            wall, _ = runner.run(tracer)
            traced.append((wall, tracer.summarize(first_span[-1])))
        else:
            plain.append(runner.run())

    timed_loop(args.seconds, step, min_steps=2)

    def per_job(name, field):  # field 0: calls, 1: self ns, 2: work
        return median([summary.get(name, (0, 0, 0))[field] for _, summary in traced])

    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = {"value": per_job(name, 0), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": per_job(name, 1) * 1e-9, "unit": "s"}
    counting = "schrodinger.counting_function"
    node_shifts = per_job(counting, 2)
    partial = getattr(runner.wl, "partial_trials", 0)
    metrics.update({
        "linalg.eig_hermitian.dim3_sum": {"value": per_job("linalg.eig_hermitian", 2), "unit": "count"},
        "bipartite.compress.per_partial_trial": {
            "value": per_job("bipartite.compress", 0) / partial if partial else 0.0, "unit": "count"},
        f"{counting}.node_shifts": {"value": node_shifts, "unit": "count"},
        f"{counting}.ns_per_node_shift": {
            "value": per_job(counting, 1) / node_shifts if node_shifts else 0.0, "unit": "ns"},
        "proc.cpu_s": {"value": median([cpu for _, cpu in plain]), "unit": "s"},
        "trace.overhead_frac": {
            "value": median([wall for wall, _ in traced]) / median([wall for wall, _ in plain]) - 1.0,
            "unit": "ratio"},
    })
    samples.update({"traced_jobs": len(traced), "untraced_jobs": len(plain)})
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path, first_span)
    samples["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semispec" / "__init__.py").is_file():
        print(f"perfbench: no semispec sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads BLAS; inherited by probes
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    if args.probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].build(args.seed)
        return 0

    samples: dict = {}
    setup = [] if args.trace else setup_seconds(args)  # before this process loads numpy
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = per_layer(args, runner, samples)
    else:
        metrics = end_to_end(args, runner, setup, samples)
    correct = runner.failed == 0
    print(json.dumps({"provenance": provenance(args), "samples": samples}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
