"""One repetition of a workload in a fresh interpreter (started by run.py).

Prints "ready" once segre_secant is imported and the inputs are built, so
the parent can time set-up from interpreter start.  In "pass" and "trace"
mode it then runs one pass and prints one JSON line with the pass's wall
time, CPU time including reaped worker processes, peak resident set over
this process and its workers, and the item counts of the correctness check.

    PYTHONPATH=src python3 perfbench/child.py --workload sweep --seed 0 --mode pass --jobs 2
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _cpu_and_rss():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--spans", default=None, help="file for the spans of a traced pass")
    args = parser.parse_args(argv)

    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed, args.jobs)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    cpu0, _ = _cpu_and_rss()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            results = workloads.run_pass(inputs)
        else:
            with tracer.span(tracing.ROOT):
                results = workloads.run_pass(inputs)
    except Exception:  # the pass failed as a whole: every reference item fails
        traceback.print_exc()
        results = None
    wall = time.perf_counter() - t0
    cpu1, rss = _cpu_and_rss()

    out = {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss}
    if tracer is not None:
        missed = tracer.missed_entry_points(extra_modules=[workloads])
        tracer.uninstall()
        cache_entries = workloads.ss.numerology.classify.cache_info().currsize
    if results is None:
        items = {}
    else:
        items = workloads.canonical_items(args.workload, results)
    attempted, failed = workloads.check(args.workload, args.seed, items)
    if results is None:
        attempted = max(attempted, 1)
        failed = failed or ["the pass raised"]
    out.update(attempted=attempted, failed=len(failed), failed_items=failed[:20],
               digest=workloads.workload_digest(items))
    if tracer is not None:
        layers = tracer.metrics(wall, cache_entries)
        layers["induction.cells"] = (sum(k.startswith("replay:") for k in items), "count")
        layers["grassmann.cells"] = (sum(k.startswith("corollary:") for k in items), "count")
        layers["trace.missed_entry_points"] = (len(missed), "count")
        out["layers"] = layers
        out["missed"] = missed
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.write_spans(args.spans, args.workload)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
