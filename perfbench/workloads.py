"""The benchmark's workloads: their inputs, their timed call and their checks.

Every workload makes its inputs in `prepare`, inside a fresh interpreter,
and returns the call that is timed.  `check` reads what the call left in
the round's directory and raises `checks.CheckFailed` on a wrong output;
it runs in the parent process and does not import the program.

Sizes are chosen so that one round takes one to three seconds, which lets
a run of the benchmark take the median of several rounds:

- enumerate: `turynseq enumerate --n 10`, the full-DFS enumeration (43 classes).
- sweep: `turynseq search` on a config setting only n = 12, the two-phase
  sweep over every row-sum target (127 classes).
- hunt: `turynseq search` for one target at n = 16 with `--stop-after 1`,
  a checkpoint and a results file: the time to the first TT(16).
- classify: seeded random group images of the seven published codes for
  n = 26..38, each decoded, canonicalised, verified, encoded and carried
  through the base-sequence and T-sequence constructions.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import checks

ENUMERATE_N = 10
SWEEP_N = 12
HUNT_N = 16
# The signed row sums of the first class in the n=16 listing.
HUNT_TARGET = (8, -2, 2, 3)


def cli_argv(workload: str, outdir: Path) -> list[str]:
    if workload == "enumerate":
        return ["enumerate", "--n", str(ENUMERATE_N), "--jobs", "1", "--out", str(outdir / "listing.txt")]
    cfg = outdir / "run.cfg"
    if workload == "sweep":
        cfg.write_text(f"n = {SWEEP_N}\n")
        return ["search", str(cfg), "--jobs", "1", "--out", str(outdir / "listing.txt")]
    cfg.write_text(f"n = {HUNT_N}\nsquares = {', '.join(map(str, HUNT_TARGET))}\n")
    resume = ["--resume", str(outdir / "checkpoint.txt"), "--out", str(outdir / "hits.txt")]
    return ["search", str(cfg), "--jobs", "1", "--stop-after", "1"] + resume


def classify_inputs(seed: int, round_index: int) -> list[tuple[int, str]]:
    """One random group image of each published code, as (n, full-form code)."""
    rng = random.Random(seed * 1_000_003 + round_index)
    images = []
    for n, code in sorted(checks.PUBLISHED_CODES.items()):
        bits = [rng.randrange(2) for _ in range(10)]
        images.append((n, checks.encode_full(checks.group_image(checks.decode_rows(code, n), bits))))
    return images


def ops_per_round(workload: str) -> int:
    return len(checks.PUBLISHED_CODES) if workload == "classify" else 1


def prepare(workload: str, seed: int, round_index: int, outdir: Path, site):
    """Import the program, make the inputs, and return the call to time.

    `site(name, fn, *args)` makes each call into the program at the call
    site; the traced run passes one that records a span.
    """
    if workload != "classify":
        from turynseq import cli

        argv = cli_argv(workload, outdir)

        def run():
            rc = site("main@site", cli.main, argv)
            if rc != 0:
                raise RuntimeError(f"turynseq {' '.join(argv)} exited with {rc}")

        return run

    from turynseq import base_to_t, canonicalize, decode, encode, tt_to_base, verify_t, verify_tt

    images = classify_inputs(seed, round_index)

    def run():
        found = []
        for n, code in images:
            quad = site("decode@site", decode, code, n)
            canon = site("canonicalize@site", canonicalize, quad)
            valid = site("verify_tt@site", verify_tt, quad)
            canon_code = site("encode@site", encode, canon, "compact")
            base = site("tt_to_base@site", tt_to_base, quad)
            tseq = site("base_to_t@site", base_to_t, base)
            t_valid = site("verify_t@site", verify_t, tseq)
            found.append((n, code, canon_code, tseq, valid, t_valid))
        records = [
            [n, code, canon_code, [str(row) for row in tseq.rows], [valid, t_valid]]
            for n, code, canon_code, tseq, valid, t_valid in found
        ]
        (outdir / "classified.json").write_text(json.dumps(records))

    return run


def seed_index(workload: str, outdir: Path) -> int:
    """The hunt checkpoint's seed index, 0 for the other workloads."""
    path = outdir / "checkpoint.txt"
    if workload != "hunt" or not path.exists():
        return 0
    return int(checks.checkpoint_fields(path.read_text()).get("seed_index", "0"))


def check(workload: str, seed: int, round_index: int, outdir: Path) -> None:
    """Check the outputs a round left in `outdir`, apart from the program."""
    if workload == "enumerate":
        checks.check_listing((outdir / "listing.txt").read_text(), ENUMERATE_N)
    elif workload == "sweep":
        checks.check_listing((outdir / "listing.txt").read_text(), SWEEP_N)
    elif workload == "hunt":
        checks.check_hunt(
            (outdir / "hits.txt").read_text(),
            (outdir / "checkpoint.txt").read_text(),
            HUNT_N,
            HUNT_TARGET,
        )
    else:
        records = json.loads((outdir / "classified.json").read_text())
        images = [(n, code) for n, code, *_ in records]
        checks.require(images == classify_inputs(seed, round_index), "classify ran other images")
        for n, code, canon_code, t_rows, flags in records:
            checks.check_classified(n, code, canon_code, t_rows, flags)
