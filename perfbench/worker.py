"""One fresh-interpreter benchmark process (started by ``run.py``).

``--mode setup`` builds the workload's inputs, prints ``ready`` and
exits: the parent times it from process start, which is the set-up a
user pays.  ``--mode pass`` does the same set-up and then one timed pass,
and prints the pass record as JSON on its last line.  With ``--trace 1``
the layer entry points are wrapped before set-up and the record carries
per-layer calls and self times; spans go to ``--trace-stem``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

import workloads  # the benchmark's own module: the script's directory is on sys.path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--order", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace-stem", type=Path)
    parser.add_argument("--reference-check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.perf.counters import COUNTERS

    baseline = COUNTERS.snapshot()
    inputs = workloads.setup(args.workload, args.seed, args.order)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = workloads.run(args.workload, inputs, args.scratch)
    record = {
        "wall_s": result.wall_s,
        "store_bytes": result.store_bytes,
        "counters": COUNTERS.since(baseline),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_totals()
        record["bind_sites"] = tracer.bind_sites
        if args.trace_stem is not None:
            tracer.write(args.trace_stem)
    workloads.check(args.workload, inputs, result, bool(args.reference_check))
    record["jobs"] = [asdict(job) for job in result.jobs]
    record["failures"] = result.failures
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
