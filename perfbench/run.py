"""segre-secant benchmark: four workloads, end-to-end metrics, a per-layer trace.

Run from the root of a source checkout (the package is imported from src/):

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  sweep         default `verify` grid minus the large cells, 3 trials x 2
                primes, serial (the traced run adds a pass at
                jobs = min(2, nproc) for the pool speed-up)
  large-cells   n in {3, 4}, a in {4, 5}, b <= 5 to q*+1, 1 trial, serial
  cross-check   criterion-3 specs through both dimension paths, plus
                computed e / e* on m = 1 cells
  certificates  replay_main_theorem(8, 10, 8) and check_corollary(5, 6)

With --trace 0 every repetition (one full pass) runs in a fresh interpreter,
serially, so no cache survives from one pass to the next.  Passes run in
one process because on a host with two shared cores a pass at jobs 2 waits
for whichever worker a neighbour slows down, and its wall time spreads about
four times as much as a serial pass's.  Repetitions are started
until --seconds would be exceeded (at least one), and the run reports the
median over repetitions of

  wall_s       wall time of a pass
  cpu_s        user + system CPU of a pass, reaped worker processes included
  setup_s      interpreter start until segre_secant is imported and the
               inputs are built (extra set-up-only interpreters are started
               so that the median has at least SETUP_SAMPLES samples)
  peak_rss_mb  largest resident set of any process of a pass

With --trace 1 the workload runs once untraced and once traced, serially
(plus once untraced at jobs 2 for `sweep`), and the per-layer metrics of the
traced pass are reported; its spans go to .perfbench_out/.

Every result is checked (closed form, agreement of the two paths, and the
item hashes in perfbench/digests.json); the last stdout line is one JSON
object with "correct", "attempted", "failed" and "metrics".  The failed
share of the run is failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SRC = "src"
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 7
#: A run must end within 180 s; children get what is left of this.
RUN_DEADLINE_S = 170.0
MATMUL_SHAPE = (30, 400, 700)


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": _nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def matmul_rates() -> dict:
    """Multiply-adds per second of int64 and float64 matmul at the 30x400 @ 400x700 shape."""
    m, k, n = MATMUL_SHAPE
    rng = np.random.default_rng(0)
    rates = {}
    for dtype in ("int64", "float64"):
        a = rng.integers(0, 2**15, size=(m, k)).astype(dtype)
        b = rng.integers(0, 2**15, size=(k, n)).astype(dtype)
        times = []
        budget = time.perf_counter() + 0.3
        while len(times) < 5 or time.perf_counter() < budget:
            t0 = time.perf_counter()
            a @ b
            times.append(time.perf_counter() - t0)
        rates[dtype] = m * k * n / statistics.median(times)
    return rates


class Run:
    """Starts child interpreters within the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def child(self, mode: str, jobs: int = 1, spans: str | None = None) -> dict:
        """Runs one child; returns its JSON result plus setup_s (and elapsed_s)."""
        cmd = [sys.executable, CHILD, "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--jobs", str(jobs)]
        if spans:
            cmd += ["--spans", spans]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, bufsize=0)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(self.deadline - t0, 0.0))
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - t0
            if line.strip() != b"ready":
                raise BenchError(f"{mode} child did not get ready (exit {proc.poll()})")
            out, _ = proc.communicate(timeout=max(self.deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the run deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        result = json.loads(out.decode().strip().splitlines()[-1]) if mode != "setup" else {}
        result["setup_s"] = setup_s
        result["elapsed_s"] = time.perf_counter() - t0
        return result


def untraced(run: Run, seconds: float):
    """Serial repetitions until the time is used; returns (reps, setup samples)."""
    start = time.perf_counter()
    reps, setups = [], []
    while True:
        rep = run.child("pass")
        reps.append(rep)
        setups.append(rep["setup_s"])
        used = time.perf_counter() - start
        if used + statistics.median([r["elapsed_s"] for r in reps]) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.child("setup")["setup_s"])
    return reps, setups


def _report_counts(reps):
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        if r["failed"]:
            print(f"failed items: {r['failed_items']}", file=sys.stderr)
    return attempted, failed


def _describe(name, values, unit):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"{name:<12} median {statistics.median(values):.4f} {unit}  "
            f"q1 {q[0]:.4f}  q3 {q[2]:.4f}  min {min(values):.4f}  max {max(values):.4f}  n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "segre_secant", "__init__.py")):
        print(f"perfbench: no {SRC}/segre_secant here; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    fp = fingerprint()
    print("machine: " + json.dumps(fp))
    jobs = min(2, fp["nproc"])
    run = Run(args.workload, args.seed)
    try:
        run.child("setup")  # writes bytecode caches, so measured set-ups all start alike
        if args.trace:
            metrics, attempted, failed = traced(run, jobs)
        else:
            metrics, attempted, failed = end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"items attempted {attempted}, failed {failed}, failed_share {failed / attempted:.6f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end(run: Run, seconds: float):
    reps, setups = untraced(run, seconds)
    wall = [r["wall_s"] for r in reps]
    cpu = [r["cpu_s"] for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]
    print(f"workload {run.workload}  seed {run.seed}  jobs 1  "
          f"digest {reps[0]['digest'][:16]}")
    print(_describe("wall_s", wall, "s"))
    print(_describe("cpu_s", cpu, "s"))
    print(_describe("setup_s", setups, "s"))
    print(_describe("peak_rss_mb", rss, "MB"))
    attempted, failed = _report_counts(reps)
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return metrics, attempted, failed


def traced(run: Run, jobs: int):
    from tracing import LAYERS

    rates = matmul_rates()
    serial = run.child("pass", jobs=1)
    reps = [serial]
    spans = os.path.join(OUT_DIR, f"spans-{run.workload}-seed{run.seed}.npz")
    tr = run.child("trace", jobs=1, spans=spans)
    reps.append(tr)
    metrics = {name: tuple(v) for name, v in tr["layers"].items()}
    metrics["trace.untraced_wall_s"] = (serial["wall_s"], "s")
    metrics["trace.overhead_s"] = (tr["wall_s"] - serial["wall_s"], "s")
    speedup = cpu_overhead = 0.0
    if run.workload == "sweep" and jobs > 1:
        par = run.child("pass", jobs=jobs)
        reps.append(par)
        speedup = serial["wall_s"] / par["wall_s"]
        cpu_overhead = par["cpu_s"] - serial["cpu_s"]
    metrics["cli.pool.speedup"] = (speedup, "ratio")
    metrics["cli.pool.cpu_overhead_s"] = (cpu_overhead, "s")
    metrics["ref.int64_matmul.madd_per_s"] = (rates["int64"], "madd/s")
    metrics["ref.float64_matmul.madd_per_s"] = (rates["float64"], "madd/s")

    wall = tr["wall_s"]
    unattributed = metrics["trace.unattributed_s"][0]
    layers = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS}
    top = max(layers, key=layers.get)
    print(f"workload {run.workload}  seed {run.seed}  traced serially; spans in {spans}")
    print(f"traced wall {wall:.3f} s, untraced {serial['wall_s']:.3f} s, "
          f"overhead {wall - serial['wall_s']:.3f} s, unattributed {unattributed:.3f} s "
          f"({unattributed / wall:.1%} of traced wall)")
    for name in sorted(layers, key=layers.get, reverse=True):
        print(f"  layer {name:<11} self {layers[name]:8.3f} s  {layers[name] / wall:6.1%}")
    print(f"dominant layer: {top}")
    print(f"int64 matmul {rates['int64']:.3e} madd/s, float64 {rates['float64']:.3e} madd/s "
          f"({rates['float64'] / rates['int64']:.1f}x); absorb reached "
          f"{metrics['field.absorb.ops_per_s'][0]:.3e} madd/s")
    if tr["missed"]:
        print(f"trace coverage: entry points left untraced: {tr['missed']}", file=sys.stderr)
    if unattributed > 0.05 * wall:
        print(f"trace coverage: {unattributed:.3f} s of {wall:.3f} s is outside every layer span; "
              "a layer entry point is probably not rebound", file=sys.stderr)
    attempted, failed = _report_counts(reps)
    return metrics, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
