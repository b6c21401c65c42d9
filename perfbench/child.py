"""One round of a workload in a fresh interpreter.

usage: python3 child.py WORKLOAD SEED ROUND OUTDIR SPAWNED TRACE

SPAWNED is the parent's `time.monotonic()` just before it started this
interpreter, so set-up time counts interpreter start, imports and input
making.  The round's figures go to OUTDIR/round.json; the program's own
outputs stay in OUTDIR for the parent to check.
"""

import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads


def direct(name, fn, *args):
    return fn(*args)


def main() -> None:
    workload, seed, round_index, outdir, spawned, trace = sys.argv[1:7]
    outdir = Path(outdir)
    tracer = tracing.Tracer() if trace == "1" else None
    site = tracer.call if tracer else direct
    run = workloads.prepare(workload, int(seed), int(round_index), outdir, site)
    setup_s = time.monotonic() - float(spawned)
    if tracer:
        tracing.install(tracer)
    start = time.perf_counter()
    run()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "program": sys.modules["turynseq"].__file__,
    }
    if tracer:
        index = workloads.seed_index(workload, outdir)
        record["layers"] = tracing.layer_metrics(tracer, index)
    (outdir / "round.json").write_text(json.dumps(record))


if __name__ == "__main__":
    main()
