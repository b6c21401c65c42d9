"""Enumeration of equivalence classes and small-n cross-checks.

`enumerate_canonical` lists the canonical representative of every
equivalence class at length n, as sorted compact codes.  It runs the
two-phase search of `search.search` over every row-sum target
(boundary seeds, spectrally filtered C/D buckets, and the A/B middle
join), which keeps every canonical quadruple.  `brute_force_classes` recomputes the same classes
for tiny n by raw constraint filtering over all 2^(4n-1) quadruples
(meet-in-the-middle over the defining identity), entirely independent
of the search, the group-action code path being the only shared
ingredient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codec import decode, encode, write_listing
from .core import TurynQuad, g_apply, is_canonical, orbit, verify_tt, ALTERNATE
from .seqs import BinarySeq, naf_rows


class FeasibilityError(ValueError):
    """Raised when an exhaustive run would exceed a size cap."""


class Decomposition(NamedTuple):
    """Solution of a^2 + b^2 + 2 c^2 + 2 d^2 = 6n - 2 with a >= b >= 0, c, d >= 0."""

    a: int
    b: int
    c: int
    d: int


def decompositions(n: int) -> list[Decomposition]:
    """All row-sum decompositions for length n, sorted lexicographically.

    Row sums of a valid quadruple satisfy
    r_A^2 + r_B^2 + 2 r_C^2 + 2 r_D^2 = 6n - 2 with r_A, r_B, r_C = n (mod 2)
    and r_D = n - 1 (mod 2); entries are listed as (a, b, c, d) with
    a >= b >= 0 and c, d >= 0.
    """
    if n < 2 or n % 2:
        raise ValueError(f"decompositions need even n >= 2, got {n}")
    target = 6 * n - 2
    out = []
    for a in range(n % 2, math.isqrt(target) + 1, 2):
        for b in range(n % 2, a + 1, 2):
            rest = target - a * a - b * b
            if rest < 0:
                break
            for c in range(n % 2, math.isqrt(rest // 2) + 1, 2):
                rest2 = rest - 2 * c * c
                if rest2 < 0:
                    break
                d, r = divmod(rest2, 2)
                ds = math.isqrt(d)
                if r == 0 and ds * ds == d and ds % 2 == (n - 1) % 2:
                    out.append(Decomposition(a, b, c, ds))
    out.sort()
    return out


@dataclass(frozen=True)
class ClassListing:
    """Sorted compact codes of the canonical representatives for one length."""

    n: int
    codes: tuple[str, ...]

    def __post_init__(self):
        for prev, cur in itertools.pairwise(self.codes):
            if prev >= cur:
                raise ValueError(f"codes out of order: {prev!r} >= {cur!r}")

    def __len__(self):
        return len(self.codes)

    def to_text(self) -> str:
        return write_listing(
            list(enumerate(self.codes, start=1)), header=f"n={self.n}"
        )


# The largest n `enumerate_canonical` (one uncheckpointed sweep) and
# `brute_force_classes` (2^(4n-1) quadruples) run.
_ENUMERATE_MAX_N, _BRUTE_MAX_N = 20, 8
# `enumerate --n N --jobs 1` wall times measured 2026-10-19 on a 2-core
# machine with Python 3.11 and one BLAS thread: n = 18 took 31-35 s and
# n = 20 991 s.  The step grows with n, so the last one (about 30x) is used.
_MEASURED_N, _MEASURED_S, _STEP_RATIO = 20, 991.0, 30.0


def _runtime_estimate(n: int) -> str:
    hours = _MEASURED_S / 3600.0 * _STEP_RATIO ** ((n - _MEASURED_N) / 2)
    if hours < 48:
        return f"roughly {hours:.1f} hours"
    return f"roughly {hours / 24:.0f} days"


def enumerate_canonical(n: int, jobs: int = 1) -> ClassListing:
    """All canonical representatives of length n as a sorted listing.

    Runs the two-phase search over every row-sum target with `jobs`
    processes; n = 2 has no boundary seeds, so its one class comes from
    `brute_force_classes`.  Refuses n above 20 (n = 20 takes about 17
    minutes, and the sweep grows about 30x per length step there); the
    same sweep runs, and resumes, as `search(SearchConfig(n=N))`.
    """
    if n < 2 or n % 2:
        raise ValueError(f"enumeration needs even n >= 2, got {n}")
    if n > _ENUMERATE_MAX_N:
        raise FeasibilityError(
            f"full enumeration at n={n} exceeds the cap ({_ENUMERATE_MAX_N}); "
            f"estimated runtime {_runtime_estimate(n)}. "
            f"Run search(SearchConfig(n={n})) with a checkpoint to sweep it in resumable slices."
        )
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if n == 2:
        return brute_force_classes(2)[1]
    from .search import SearchConfig, search  # search imports this module

    return search(SearchConfig(n=n), jobs=jobs)


def _pm_rows(length: int) -> np.ndarray:
    """All 2^length rows over {-1, +1} as an int8 matrix, index = bit pattern."""
    ints = np.arange(1 << length, dtype=np.uint32)
    bits = (ints[:, None] >> np.arange(length, dtype=np.uint32)) & 1
    return (1 - 2 * bits).astype(np.int8)


def brute_force_classes(n: int) -> tuple[int, ClassListing]:
    """Classes of length n by raw filtering over all 2^(4n-1) quadruples.

    Completely independent of the pairwise walk: enumerate every (C, D)
    profile, index by the required A/B profile sum, and scan all (A, B)
    pairs.  Valid quadruples are then partitioned into orbits under the
    full transformation group.  Only practical for n <= 8.
    """
    if n < 2:
        raise ValueError(f"brute force needs n >= 2, got {n}")
    if n > _BRUTE_MAX_N:
        raise ValueError(f"brute force over 2^{4 * n - 1} quadruples refused (n > {_BRUTE_MAX_N})")
    rows_n = _pm_rows(n)
    rows_d = _pm_rows(n - 1)
    prof_n = naf_rows(rows_n)
    # A trailing zero makes D's missing lag n - 1 read 0.
    prof_d = naf_rows(np.pad(rows_d, ((0, 0), (0, 1))))
    cd_index: dict[bytes, list[tuple[int, int]]] = {}
    for ic in range(rows_n.shape[0]):
        needs = -2 * (prof_n[ic][None, :] + prof_d)
        for idx in range(rows_d.shape[0]):
            cd_index.setdefault(needs[idx].tobytes(), []).append((ic, idx))
    quads = []
    for ia in range(rows_n.shape[0]):
        have = prof_n[ia][None, :] + prof_n
        for ib in range(rows_n.shape[0]):
            for ic, idx in cd_index.get(have[ib].tobytes(), ()):
                rows = (rows_n[ia], rows_n[ib], rows_n[ic], rows_d[idx])
                quads.append(TurynQuad(*map(BinarySeq, rows)))
    for quad in quads:
        if not verify_tt(quad):
            raise RuntimeError(f"profile index produced an invalid quadruple: {quad}")
    if n % 2:
        if quads:
            raise RuntimeError(f"odd n={n} unexpectedly admits valid quadruples")
        return 0, ClassListing(n, ())
    seen: set[TurynQuad] = set()
    codes = []
    for quad in quads:
        if quad in seen:
            continue
        orb = orbit(quad)
        seen.update(orb)
        canon = [member for member in orb if is_canonical(member)]
        if len(canon) != 1:
            raise RuntimeError(f"orbit of {quad} has {len(canon)} canonical members")
        codes.append(encode(canon[0], form="compact"))
    codes.sort()
    return len(codes), ClassListing(n, tuple(codes))


def _sum_profile(quad: TurynQuad) -> Decomposition:
    ra, rb, rc, rd = (abs(r) for r in quad.row_sums())
    return Decomposition(max(ra, rb), min(ra, rb), rc, rd)


def class_sum_profiles(quad: TurynQuad) -> set[Decomposition]:
    """Row-sum decompositions realized across a quadruple's class.

    Negation and swap only permute/negate the row sums, and reversal fixes
    them, so up to absolute values the class realizes exactly the profiles
    of the quadruple and of its image under the alternation generator.
    """
    return {_sum_profile(quad), _sum_profile(g_apply(ALTERNATE, quad))}


def realizability_report(
    n: int, listing: ClassListing | None = None, jobs: int = 1
) -> dict[Decomposition, bool]:
    """Which row-sum decompositions are realized by actual classes at length n."""
    if listing is None:
        listing = enumerate_canonical(n, jobs=jobs)
    realized: set[Decomposition] = set()
    for code in listing.codes:
        realized.update(class_sum_profiles(decode(code, n)))
    report = {dec: dec in realized for dec in decompositions(n)}
    extra = realized.difference(report)
    if extra:
        raise RuntimeError(f"realized profiles {extra} are not valid decompositions")
    return report


def max_initial_zeros(listing: ClassListing) -> int:
    """Largest run of leading zero digits over the listing's compact codes."""
    return max((len(code) - len(code.lstrip("0")) for code in listing.codes), default=0)
