"""sqindex benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload golden-thue --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its src/.
With --trace 0 the run times whole passes over the workload's items, for
about --seconds (at least one pass), and prints the end-to-end metrics.
With --trace 1 it runs one untraced and one traced pass and prints the
per-layer metrics; the spans are written to .bench_trace/.  The last line
of standard output is one JSON object.  Exit status: 0 when every answer
checked out, 1 when any item failed, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import sqbench
import sqtrace

SETUP_REPEATS = 3
UNBOUNDED_BOX = 2 ** 63 - 1  # certified_box when every answer is proven


def set_up(workload: str):
    """Fresh import, golden tables and one warm-up call, timed SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = sqbench.import_library(fresh=True)
        lib.goldens.tables()
        sqbench.warm_up(lib, workload)
        times.append(time.perf_counter() - t0)
    return lib, statistics.median(times)


def timed_pass(lib, workload, items, tracer=None):
    t0 = time.perf_counter()
    tally = sqbench.run_pass(lib, workload, items, tracer)
    return tally, time.perf_counter() - t0


def end_to_end(lib, workload, items, seconds, setup_s):
    # The host's speed drifts by tens of percent over seconds, so wall_s is the
    # mean pass time over the whole window (total / passes): a median of
    # passes jumps between the fast and the slow speed, a mean does not.
    tally, walls = sqbench.Tally(), []
    start = time.perf_counter()
    while True:
        one, wall = timed_pass(lib, workload, items)
        tally.add(one)
        walls.append(wall)
        if time.perf_counter() - start + statistics.fmean(walls) > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.fmean(walls), "s"),
        "setup_s": (setup_s, "s"),
        "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "certified_box": (UNBOUNDED_BOX if tally.min_box is None else tally.min_box, "coord"),
        "proven_share": (tally.proven / tally.attempted, "ratio"),
    }
    return tally, metrics


def per_layer(lib, workload, items, seed):
    plain, plain_wall = timed_pass(lib, workload, items)
    tracer = sqtrace.Tracer()
    tracer.install(lib)
    try:
        traced, traced_wall = timed_pass(lib, workload, items, tracer)
    finally:
        tracer.uninstall()
    tracer.write(sqbench.ROOT / ".bench_trace" / f"{workload}-seed{seed}.json")
    plain.add(traced)
    metrics = {name: (value, "s" if sqtrace.is_timing(name) else "count")
               for name, value in tracer.layer_metrics().items()}
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return plain, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sqbench.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        lib, setup_s = set_up(args.workload)
    except sqbench.MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    items = sqbench.make_items(args.workload, args.seed)
    if args.trace:
        tally, metrics = per_layer(lib, args.workload, items, args.seed)
    else:
        tally, metrics = end_to_end(lib, args.workload, items, args.seconds, setup_s)
    for what in tally.errors[:20]:
        print(f"FAILED {what}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
