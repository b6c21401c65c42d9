"""Benchmark of the turynseq package: one workload per run, figures as JSON.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of the workload, each in a fresh interpreter with its own
temporary directory, until S seconds have passed (at least three rounds,
four when traced).  Every round's outputs are checked apart from the
program.  The last line of standard output is one JSON object:

- with --trace 0, the end-to-end metrics `setup_s`, `wall_s` and
  `peak_rss_mb`, each the median over the rounds;
- with --trace 1, untraced and traced rounds alternate; the per-layer
  metrics are medians over the traced rounds, and `trace.overhead_s` is
  the traced median wall time minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
ROUND_TIMEOUT_S = 120
# One BLAS/OpenMP thread: at two, numpy's OpenBLAS spins a second thread
# during pool and join matmuls for no gain in wall time.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_round(workload: str, seed: int, index: int, traced: bool) -> dict:
    """Run one round in a fresh interpreter, check its outputs, return its figures."""
    outdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(index), str(outdir)]
        spawned = time.monotonic()
        proc = subprocess.run(
            argv + [repr(spawned), "1" if traced else "0"],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} round {index} failed:\n{proc.stderr[-4000:]}")
        record = json.loads((outdir / "round.json").read_text())
        program = Path(record["program"]).resolve()
        if SRC.resolve() not in program.parents:
            raise RuntimeError(f"round imported turynseq from {program}, not from {SRC}")
        try:
            workloads.check(workload, seed, index, outdir)
        except checks.CheckFailed as exc:
            record["check_failed"] = str(exc)
        return record
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "turynseq" / "__init__.py").is_file():
        print(f"error: no turynseq package under {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    min_rounds = 4 if args.trace else 3
    deadline = time.monotonic() + args.seconds
    rounds: list[tuple[bool, dict]] = []
    correct = True
    while len(rounds) < min_rounds or time.monotonic() < deadline:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        record = run_round(args.workload, args.seed, len(rounds), traced)
        rounds.append((traced, record))
        if "check_failed" in record:
            print(f"check failed: {record['check_failed']}", file=sys.stderr)
            correct = False
            break
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still holds a round directory here

    plain = [r for t, r in rounds if not t]
    if args.trace:
        traced_rounds = [r for t, r in rounds if t]
        values = {
            name: median(r["layers"][name] for r in traced_rounds)
            for name in LAYER_UNITS
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = median(r["wall_s"] for r in traced_rounds) - median(
            r["wall_s"] for r in plain
        )
        units = LAYER_UNITS
    else:
        values = {name: median(r[name] for r in plain) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": len(rounds) * workloads.ops_per_round(args.workload),
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
