"""Two-phase search for large lengths.

Phase one enumerates boundary seeds: the first and last `head_len`
entries of A, B, C and the first and last head_len - 1 entries of D,
exactly the assignments that satisfy every boundary-determined lag
constraint (the combined lag sum vanishes for s >= n - head_len) and
every prefix-decidable canonical condition.  D's width is derived, not
chosen: head_len - 1 is the narrowest D boundary that settles every lag
s >= n - head_len, and a wider one settles no further lag.

Phase two pairs each seed with full candidate rows for C and D drawn
from buckets.  A bucket holds the full-length rows extending one
boundary, of each signed row sum the run's targets give that sequence,
that pass their own canonical clauses ((i) and (iv) for C, (i) and (v)
for D) and whose spectrum

    f(theta) = N(0) + 2 sum_s N(s) cos(s theta)

stays within the bound (6n - 2)/2 on the fixed grid theta = j*pi/600,
j = 1..600 (`_GRID_POINTS`).  No solution is lost: the C and D of every
canonical quadruple pass those clauses, so a dropped row takes with it
only completions `is_canonical` rejects; and since every f is
nonnegative and the four spectra of a valid quadruple sum pointwise to
6n - 2, no valid row is ever excluded by the bound (6n - 2)/2, nor any
valid (C, D) pair by f_C + f_D <= (6n - 2)/2.  The bound is derived
from n, not chosen: a lower one loses solutions and a higher one only
costs time.  The clauses are tested first, so a dropped row costs no
spectrum.  A bucket is built, from its middle entries alone, when a
seed first names its boundary, and keeps each row's NAF and its
spectrum on every 16th grid point only.

The (C, D) pairs of a bucket pair are screened in fixed-size blocks:
first by their sums, then on the coarse points, then on the full grid
by the spectrum of N_C + N_D with N(0) = 2n - 1.  No solution is lost:
any TT has a^2 + b^2 + 2c^2 + 2d^2 = 6n - 2, so its (c, d) is a
target of the run; the coarse values are those of the full grid, so a
coarse reject is a full-grid reject; and f is linear in the NAF, so the
spectrum of the integer NAF sum is f_C + f_D up to rounding near 1e-12,
far inside the tolerance, while a valid pair's exact maximum is at most
(6n - 2)/2.  That NAF sum also gives the join its target.

The A and B middles are then completed by a join.  Once C and D are
fixed, A and B are independent: the quadruple is valid exactly when

    N_A(s) + N_B(s) = T(s) = -2 (N_C(s) + N_D(s))   for s = 1..n-1.

For each A (or B) boundary, a table holds the rows over the 2^m middles
(m = n - 2 head_len) that pass the row's own clauses and have one of
its sums in the run's targets, with their NAFs and an integer hash of
each under a fixed linear projection, sorted by hash; A and B share a
table when their sums match.  Seed by seed, hash(T) - hash(N_B) is
looked up among A's hashes for all (C, D) pairs at once, and every
match is confirmed by exact NAF equality.  No solution is lost: every
canonical quadruple passes the clauses; every TT's row sums form a
signed target; the projection is linear, so each exact solution has
matching hashes, and a hash collision fails the exact equality.

The join serves m <= 16 (n <= 28 at the default head_len).  Longer
middles (m = 24 at n = 38) are filled by the pairwise walk, with the
remaining lag constraints and the canonical prefix pruning, which also
keeps every canonical completion.  Both paths end in one tail per
(C, D) group of seeds: it keeps the A and B rows of the run's sums,
orders seed by seed in the walk's order, checks all the group's
completions at once by the identity `verify_tt` tests (weights 1, 1,
2, 2, D padded by a trailing zero), raising on a failure, and then
applies the canonical test.

`search` is the one driver.  A hunt (a config with `squares`) streams
its seeds lazily in generation order, one seed per run.  A sweep (no
`squares`; `enumerate_canonical` runs it) sorts its seeds by their
(C, D) bucket keys, and each key's seeds form one run, whose pairs are
screened once.  One `_SeedWork` per process holds every bucket and
table the run builds.  The run yields one hit list per seed, and its
checkpoint counts the seeds done in that order, so a sweep stops,
resumes and slices like a hunt.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codec import _hex_code, read_listing, write_listing
from .core import TurynQuad, _canonical_entries, _clause_mask
from .engine import PairDfs, fill_plan, seed_plan
from .enumeration import (
    ClassListing,
    Decomposition,
    FeasibilityError,
    _pm_rows,
    decompositions,
)
from .seqs import BinarySeq, naf_rows, naf_vanishes, spectrum_nafs

_SPECTRAL_TOL = 1e-6
# Bucket spectra are sampled at theta = j*pi/_GRID_POINTS, j = 1.._GRID_POINTS.
_GRID_POINTS = 600
_BATCH_SEEDS = 256
_CAP_ROWS = 5_000_000
# Middles of up to this many entries are completed by the NAF join; its
# A and B tables hold 2^m rows each, so longer middles are walked.
_JOIN_MAX_MIDDLE = 16
# The (C, D) pair screen: pairs per block, and the stride of the coarse
# sub-grid tried before the full one.
_PAIR_BLOCK = 512
_COARSE_STEP = 16
# (C, D) pairs x B rows looked up at once in the A/B join.
_JOIN_BLOCK = 1 << 16


class CheckpointError(ValueError):
    """Raised when a checkpoint file is unreadable or belongs to another run."""


def default_head_len(n: int) -> int:
    """ceil(n/5) clamped to [2, 7] and below n/2."""
    return max(1, min(7, max(2, -(-n // 5)), n // 2 - 1))


@dataclass(frozen=True)
class SearchConfig:
    """The inputs of one search run; every pruning parameter derives from them.

    `squares` carries the signed row-sum target (a, b, c, d): the run
    keeps only rows of A, B, C and D with the signed sums a, b, c and d.
    It must be a signed decomposition of 6n - 2 (see `decompositions`).
    None, the default, means every signed target: the run lists every
    class at length n.  `head_len` is the boundary width of A, B and C
    (default `default_head_len(n)`); D's width `d_head_len` is
    head_len - 1 and the row bound `spectral_bound` is (6n - 2)/2, both
    read-only.
    """

    n: int
    squares: Decomposition | None = None
    head_len: int | None = None
    stop_after: int | None = None

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError(f"search needs even n >= 4, got {self.n}")
        if self.squares is not None:
            squares = Decomposition(*self.squares)
            if squares not in _signed_squares(self.n):
                raise ValueError(
                    f"squares {squares.a},{squares.b},{squares.c},{squares.d} is not a "
                    f"row-sum target at n={self.n}: need a^2 + b^2 + 2c^2 + 2d^2 = "
                    f"{6 * self.n - 2} with a, b, c even and d odd"
                )
            object.__setattr__(self, "squares", squares)
        if self.head_len is None:
            object.__setattr__(self, "head_len", default_head_len(self.n))
        if not 1 <= self.head_len < self.n / 2:
            raise ValueError(f"head_len must be in [1, n/2), got {self.head_len}")
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError("stop_after must be >= 1 or None")

    @property
    def d_head_len(self) -> int:
        return self.head_len - 1

    @property
    def spectral_bound(self) -> float:
        return (6 * self.n - 2) / 2

    def describe(self) -> str:
        squares = "all" if self.squares is None else ",".join(map(str, self.squares))
        return (
            f"n={self.n};squares={squares};head={self.head_len};"
            f"d_head={self.d_head_len};grid={_GRID_POINTS};bound={self.spectral_bound!r}"
        )

    def run_hash(self) -> str:
        # CPython's built-in sha256 (_sha2 from 3.12, _sha256 before) gives
        # the digest of hashlib's without loading OpenSSL.
        for module in ("_sha2", "_sha256", "hashlib"):
            try:
                sha256 = __import__(module).sha256
                break
            except ImportError:
                pass
        return sha256(self.describe().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SeedQuad:
    """Boundary-determined part of a quadruple; 0 marks undetermined entries.

    Rows a, b, c carry their first and last `head_len` entries, d its
    first and last `d_head_len` = head_len - 1 entries.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]
    head_len: int

    def __post_init__(self):
        n = len(self.a)
        if n % 2 or n < 4:
            raise ValueError(f"seed length must be even and >= 4, got {n}")
        if (len(self.b), len(self.c), len(self.d)) != (n, n, n - 1):
            raise ValueError("seed rows must have lengths (n, n, n, n-1)")
        if not 1 <= self.head_len < n / 2:
            raise ValueError(f"seed head_len must be in [1, n/2), got {self.head_len}")
        widths = (self.head_len,) * 3 + (self.d_head_len,)
        for row, h in zip((self.a, self.b, self.c, self.d), widths):
            tail = len(row) - h
            # Whole slices first; the walk below only names the first bad entry.
            if {*row[:h], *row[tail:]} <= {1, -1} and row[h:tail].count(0) == tail - h:
                continue
            for j, v in enumerate(row):
                boundary = j < h or j >= tail
                if boundary and v not in (-1, 1):
                    raise ValueError(f"boundary entry {j} must be +-1, got {v}")
                if not boundary and v != 0:
                    raise ValueError(f"middle entry {j} must be undetermined, got {v}")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def d_head_len(self) -> int:
        return self.head_len - 1

    @classmethod
    def from_quad(cls, quad: TurynQuad, head_len: int) -> "SeedQuad":
        def mask(seq, h):
            e = seq.entries
            return e[:h] + (0,) * (len(e) - 2 * h) + e[len(e) - h :]

        rows = (quad.a, quad.b, quad.c, quad.d)
        return cls(*map(mask, rows, (head_len,) * 3 + (head_len - 1,)), head_len)

    def key(self, kind: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (first, last) boundary entries of row `kind`, "A".."D": its row-store key."""
        row = getattr(self, kind.lower())
        h = self.d_head_len if kind == "D" else self.head_len
        return row[:h], row[len(row) - h :]


def generate_seeds(cfg: SearchConfig):
    """Stream every boundary seed exactly once, in a fixed deterministic order."""
    eng = PairDfs(cfg.n, seed_plan(cfg.head_len))
    for _ in eng.walk():
        a, b, c, d = eng.snapshot()
        yield SeedQuad(a, b, c, d, cfg.head_len)


def _group_key(seed: SeedQuad):
    """A seed's (C key, D key): seeds sharing it share their (C, D) pairs."""
    return seed.key("C"), seed.key("D")


@dataclass(frozen=True)
class PoolBucket:
    """Candidate rows sharing one boundary pattern, with their NAFs and coarse spectra."""

    rows: np.ndarray  # (count, length) of +-1, int8
    nafs: np.ndarray  # (count, length - 1) of N(1)..N(length-1), int16
    coarse: np.ndarray  # (count, 38) of f(theta_j), j = 1, 17, ..., 593, float64

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.nafs.nbytes + self.coarse.nbytes


@functools.cache
def _cos_table(length: int) -> np.ndarray:
    """cos(s theta_j) for the lags s = 0..length-1 (rows) on the fixed grid (columns)."""
    grid = np.arange(1, _GRID_POINTS + 1) * (np.pi / _GRID_POINTS)
    return np.cos(np.arange(length)[:, None] * grid)


def fill_middle(seed: SeedQuad, c: BinarySeq, d: BinarySeq):
    """Stream the verified completions of the A and B middles.

    Every completion has A and B rows that pass their own canonical
    clauses and have row sums of a target at length n, so every
    canonical completion is among them.  C and D must
    extend the seed's boundary entries; the caller is expected to have
    applied the pair bound f_C + f_D <= (6n - 2)/2.
    """
    if len(c) != seed.n or len(d) != seed.n - 1:
        raise ValueError("C and D must be full rows of lengths n and n-1")
    for name, row, seed_row in (("C", c.entries, seed.c), ("D", d.entries, seed.d)):
        for j in np.flatnonzero(seed_row):
            if row[j] != seed_row[j]:
                raise ValueError(f"{name} boundary entry {j} differs from the seed")
    pairs = _pair_block(np.array([c.entries], np.int8), np.array([d.entries], np.int8))
    _, quads = _SeedWork(SearchConfig(seed.n, head_len=seed.head_len))._completions([seed], pairs)
    return (TurynQuad(*map(BinarySeq, rows)) for rows in zip(*(q.tolist() for q in quads)))


def _walk(seed: SeedQuad, c_rows, d_rows):
    """(pair index, A rows, B rows) of the canonical-pruned middle walk of each (C, D) pair.

    The class of every valid completion is still represented: a class's
    canonical member extends its own boundary seed and survives the
    pruning.  Rows come pair by pair, each pair's in the walk's order.
    """
    n = seed.n
    plan = fill_plan(n, seed.head_len)
    found, rows = [], []
    for i, (c_row, d_row) in enumerate(zip(c_rows, d_rows)):
        eng = PairDfs(n, plan, preset=(seed.a, seed.b, c_row, d_row))
        for _ in eng.walk():
            found.append(i)
            rows.append(eng.rows[0] + eng.rows[1])
    ab = np.array(rows, np.int8).reshape(-1, 2 * n)
    return np.array(found, np.intp), ab[:, :n], ab[:, n:]


class _Pairs(NamedTuple):
    """(C, D) row pairs with the A/B NAF sum each one requires."""

    c_rows: np.ndarray  # (P, n) int8
    d_rows: np.ndarray  # (P, n - 1) int8
    target: np.ndarray  # (P, n - 1) int16: -2 (N_C + N_D) at lags 1..n-1
    target_hash: np.ndarray  # (P,) int64


def _hash_weights(count: int) -> np.ndarray:
    """The fixed projection that hashes a NAF vector: `count` int64 weights.

    Built by integer arithmetic (importing numpy.random costs start-up
    time and memory).  int64 array arithmetic wraps modulo 2^64, which
    keeps the hash linear whatever the length.
    """
    return np.array(
        [((s + 1) * 0x9E3779B97F4A7C15 >> 2) & ((1 << 62) - 1) for s in range(count)],
        dtype=np.int64,
    )


def _pair_block(c_rows: np.ndarray, d_rows: np.ndarray, nafs=None) -> _Pairs:
    # `nafs`, N_C + N_D at lags 1..n-1, is computed unless the screen gave it.
    if nafs is None:
        # D lacks lag n - 1, as if padded by a trailing zero.
        nafs = naf_rows(c_rows)
        nafs[:, :-1] += naf_rows(d_rows)
    target = -2 * nafs
    return _Pairs(c_rows, d_rows, target, target @ _hash_weights(target.shape[1]))


def _spectral_pairs(c_bucket: PoolBucket, d_bucket: PoolBucket, live: np.ndarray, limit: float):
    """Row indices (ic, id) of the bucket pairs kept for the join, row-major, and N_C + N_D.

    A pair is kept when its (sum C, sum D) is marked in `live` (indexed
    by sum + n) and f_C + f_D <= `limit` at every grid point: first on
    the coarse points, then as the spectrum of N_C + N_D (D padded by a
    trailing zero), in blocks of `_PAIR_BLOCK` pairs.
    """
    n = c_bucket.rows.shape[1]
    count_d = len(d_bucket.rows)
    total = len(c_bucket.rows) * count_d
    offset = live.shape[0] // 2
    sums_c = c_bucket.rows.sum(axis=1) + offset
    sums_d = d_bucket.rows.sum(axis=1) + offset
    kept = []
    for start in range(0, total, _PAIR_BLOCK):
        ic, id_ = np.divmod(np.arange(start, min(start + _PAIR_BLOCK, total)), count_d)
        keep = live[sums_c[ic], sums_d[id_]]
        ic, id_ = ic[keep], id_[keep]
        coarse = c_bucket.coarse[ic]
        coarse += d_bucket.coarse[id_]
        keep = coarse.max(axis=1) <= limit
        ic, id_ = ic[keep], id_[keep]
        nafs = c_bucket.nafs[ic]
        nafs[:, :-1] += d_bucket.nafs[id_]
        keep = spectrum_nafs(2 * n - 1, nafs, _cos_table(n)).max(axis=1) <= limit
        kept.append((ic[keep], id_[keep], nafs[keep]))
    return tuple(np.concatenate(parts) for parts in zip(*kept))


class _SeedWork:
    """One process's rows and state for the hits of runs of seeds.

    The run's targets are `cfg.squares`, or every signed target when it
    is None.  `sums` maps each kind "A".."D" to the sorted row sums they
    give that sequence, and `live` marks their (c, d) by (c + n, d + n).
    Every target's rows can pass: 2c^2 <= 6n - 2 keeps c^2 within the
    bound, and c and d have the parity of their lengths.  `store` is the
    run's one row store: it holds the C and D buckets by (kind, boundary)
    and the A and B join tables by (sums, boundary), so A and B share a
    table when their sums match (a sweep, or a hunt with a = b); each is
    built on first use, None when no row passes, and kept for the run.
    """

    def __init__(self, cfg: SearchConfig):
        n = cfg.n
        targets = [cfg.squares] if cfg.squares is not None else _signed_squares(n)
        self.cfg = cfg
        self.sums = {kind: tuple(sorted({t[i] for t in targets})) for i, kind in enumerate("ABCD")}
        self.limit = cfg.spectral_bound + _SPECTRAL_TOL
        self.live = np.zeros((2 * n + 1, 2 * n + 1), bool)
        for t in targets:
            self.live[t.c + n, t.d + n] = True
        self.store: dict = {}
        self.pair_cache: dict = {}

    def rows(self, kind: str, key):
        """The store's entry for `kind` and (first, last) boundary `key`, built on first use."""
        entry = (kind, key) if kind in ("C", "D") else (self.sums[kind], key)
        if entry not in self.store:
            build = self._build_bucket if kind in ("C", "D") else self._build_table
            self.store[entry] = build(kind, key)
        return self.store[entry]

    def _build_bucket(self, kind: str, key) -> PoolBucket | None:
        """The C (length n) or D (length n - 1) rows extending `key`, or None.

        Keeps the rows of each of the kind's sums that pass their own
        canonical clauses (`core._clause_mask`; a canonical quadruple's C
        and D always do) and the spectral bound on the fixed grid, sum by
        sum in ascending order; within a sum, rows come in the
        lexicographic order of their middle's -1 positions.  Each sum's
        part may have at most `_CAP_ROWS` candidate rows, counted before
        either filter.
        """
        # Only the middle varies.  Its combinations of -1 positions come in
        # the lexicographic order the full-row scan has within a bucket.
        head, tail = key
        h = len(head)
        length = self.cfg.n - (kind == "D")
        middle = length - 2 * h
        template = np.array(head + (1,) * middle + tail, np.int8)
        kept = []
        for row_sum in self.sums[kind]:
            negatives = (length - row_sum) // 2 - (head + tail).count(-1)
            if not 0 <= negatives <= middle:
                continue
            count = math.comb(middle, negatives)
            if count > _CAP_ROWS:
                raise FeasibilityError(
                    f"{kind} bucket {key} with sum {row_sum} has {count} "
                    f"candidate rows (cap {_CAP_ROWS})"
                )
            combos = itertools.combinations(range(h, h + middle), negatives)
            while chunk := list(itertools.islice(combos, 4096)):
                rows = np.repeat(template[None], len(chunk), axis=0)
                positions = np.array(chunk, np.intp).reshape(len(chunk), negatives)
                rows[np.arange(len(chunk))[:, None], positions] = -1
                rows = rows[_clause_mask(rows, kind)]
                if not len(rows):
                    continue
                nafs = naf_rows(rows)
                spectra = spectrum_nafs(length, nafs, _cos_table(length))
                mask = spectra.max(axis=1) <= self.limit
                # Copies: the chunk's full spectra are freed with it.
                kept.append((rows[mask], nafs[mask], spectra[mask, ::_COARSE_STEP]))
        if not kept:
            return None
        bucket = PoolBucket(*(np.concatenate(parts) for parts in zip(*kept)))
        return bucket if len(bucket.rows) else None

    def _build_table(self, kind: str, key):
        """A (or B) rows over every middle between `key`'s head and tail, sorted by NAF hash.

        Keeps the rows that pass the row's own canonical clauses
        (`core._clause_mask`) and have one of the kind's sums, with
        their NAFs and hashes; None when no row passes.
        """
        head, tail = key
        n, h = self.cfg.n, len(head)
        middles = _pm_rows(n - 2 * h)
        # A row's sum is its boundary's plus its middle's.
        wanted = np.subtract(self.sums[kind], sum(head + tail))
        middles = middles[(middles.sum(axis=1)[:, None] == wanted).any(axis=1)]
        rows = np.empty((len(middles), n), np.int8)
        rows[:, :h], rows[:, h : n - h], rows[:, n - h :] = head, middles, tail
        rows = rows[_clause_mask(rows, kind)]
        nafs = naf_rows(rows)
        hashes = nafs @ _hash_weights(n - 1)
        order = np.argsort(hashes, kind="stable")
        return (rows[order], nafs[order], hashes[order]) if len(rows) else None

    def _pairs(self, c_key, d_key) -> _Pairs | None:
        c_bucket = self.rows("C", c_key)
        d_bucket = None if c_bucket is None else self.rows("D", d_key)
        if d_bucket is None:
            return None
        ic, id_, nafs = _spectral_pairs(c_bucket, d_bucket, self.live, self.limit)
        return _pair_block(c_bucket.rows[ic], d_bucket.rows[id_], nafs)

    def _join(self, seed: SeedQuad, pairs: _Pairs):
        """(pair index, A rows, B rows) of every table join hit, in no set order.

        hash(N_A) must equal hash(T) - hash(N_B), since the projection is
        linear, and each hash match is confirmed by exact NAF equality.
        """
        table_a = self.rows("A", seed.key("A")) if len(pairs.target) else None
        table_b = None if table_a is None else self.rows("B", seed.key("B"))
        if table_b is None:
            empty = np.empty((0, seed.n), np.int8)
            return np.empty(0, np.intp), empty, empty
        (rows_a, nafs_a, hash_a), (rows_b, nafs_b, hash_b) = table_a, table_b
        found = []
        # Blocks of pairs keep the (pairs x B rows) lookups near a fixed size.
        step = max(1, _JOIN_BLOCK // len(hash_b))
        for start in range(0, len(pairs.target), step):
            wanted = pairs.target_hash[start : start + step, None] - hash_b[None, :]
            lo = np.searchsorted(hash_a, wanted)
            ip, ib = np.nonzero(hash_a[np.minimum(lo, len(hash_a) - 1)] == wanted)
            lo = lo[ip, ib]
            counts = np.searchsorted(hash_a, wanted[ip, ib], side="right") - lo
            # One candidate per A row in each run of equal hashes.
            ip, ib = np.repeat(ip + start, counts), np.repeat(ib, counts)
            ia = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            exact = np.all(nafs_a[ia] + nafs_b[ib] == pairs.target[ip], axis=1)
            found.append((ip[exact], ia[exact], ib[exact]))
        ip, ia, ib = map(np.concatenate, zip(*found))
        return ip, rows_a[ia], rows_b[ib]

    def _completions(self, seeds, pairs: _Pairs):
        """(seed slot, [A, B, C, D rows]) of the verified completions of seeds sharing `pairs`.

        Middles of up to `_JOIN_MAX_MIDDLE` entries are joined, longer ones
        walked, seed by seed; one tail serves the run.  It keeps only A and
        B rows of the kinds' sums (the tables hold no others), sorts seed
        by seed into the walk's order (pair by pair), so results and
        `stop_after` do not depend on the path, and checks every completion
        in one `naf_vanishes` call with the weights of `verify_tt`.  Without
        a completion it returns no slots and no rows.
        """
        h, n = seeds[0].head_len, seeds[0].n
        parts = []
        for slot, seed in enumerate(seeds):
            if n - 2 * h > _JOIN_MAX_MIDDLE:
                ip, a, b = _walk(seed, pairs.c_rows, pairs.d_rows)
            else:
                ip, a, b = self._join(seed, pairs)
            if len(ip):
                parts.append((np.full(len(ip), slot, np.intp), ip, a, b))
        if parts:
            slot, ip, a, b = (np.concatenate(part) for part in zip(*parts))
            keep = (a.sum(axis=1)[:, None] == self.sums["A"]).any(axis=1)
            keep &= (b.sum(axis=1)[:, None] == self.sums["B"]).any(axis=1)
            slot, ip, a, b = slot[keep], ip[keep], a[keep], b[keep]
        if not parts or not len(ip):
            return np.empty(0, np.intp), []
        # Seed by seed, pair by pair, then the walk's order: the middles of A and
        # B from the outside in, +1 before -1 (np.lexsort's last key leads).
        k = np.arange(h, n // 2)
        steps = np.stack([a[:, k], a[:, -1 - k], b[:, k], b[:, -1 - k]], axis=2)
        steps = steps.reshape(len(ip), -1)
        order = np.lexsort([*(-steps.T[::-1]), ip, slot])
        quads = [a[order], b[order], pairs.c_rows[ip[order]], pairs.d_rows[ip[order]]]
        valid = naf_vanishes(quads, (1, 1, 2, 2))
        if not valid.all():
            bad = TurynQuad(*(BinarySeq(rows[np.argmin(valid)].tolist()) for rows in quads))
            raise RuntimeError(f"A/B middle completion is not a Turyn-type quadruple: {bad}")
        return slot[order], quads

    def hits(self, run) -> list[list[str]]:
        """Compact codes of the canonical hits of each seed of a run, in bucket order.

        A run's seeds share one (C, D) key.  A sweep meets each key once, so
        it caches only the current key's pairs; a hunt caches every key's.
        """
        key = _group_key(run[0])
        if key not in self.pair_cache:
            if self.cfg.squares is None:
                self.pair_cache.clear()
            self.pair_cache[key] = self._pairs(*key)
        pairs = self.pair_cache[key]
        codes: list[list[str]] = [[] for _ in run]
        if pairs is None:
            return codes
        slots, quads = self._completions(run, pairs)
        for slot, *rows in zip(slots.tolist(), *(q.tolist() for q in quads)):
            if _canonical_entries(*rows):
                codes[slot].append(_hex_code(*rows, compact=True))
        return codes


_WORKER_STATE: dict = {}


def _init_worker(cfg):
    _WORKER_STATE["work"] = _SeedWork(cfg)


def _worker_hits(run):
    return _WORKER_STATE["work"].hits(run)


def _hit_stream(runs, cfg, jobs, chunksize):
    """Yield the hit list of each seed of `runs`, in seed order.

    With `jobs == 1` a run is pulled only when its hits are wanted;
    otherwise one pool of worker processes, each with its own
    `_SeedWork(cfg)`, takes runs in chunks of `chunksize`.
    """
    if jobs == 1:
        yield from itertools.chain.from_iterable(map(_SeedWork(cfg).hits, runs))
        return
    from multiprocessing import Pool  # only parallel runs need it

    with Pool(jobs, initializer=_init_worker, initargs=(cfg,)) as pool:
        yield from itertools.chain.from_iterable(pool.imap(_worker_hits, runs, chunksize))


def _write_checkpoint(path, cfg, seed_index, done, stopped_after=None):
    stop = "" if stopped_after is None else f"stopped_after={stopped_after}\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(f"config={cfg.run_hash()}\nseed_index={seed_index}\ndone={int(done)}\n{stop}")
    os.replace(tmp, path)


def _read_checkpoint(path, cfg) -> tuple[int, bool]:
    fields = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"bad checkpoint line: {line!r}")
        fields[key] = value
    try:
        config_hash = fields["config"]
        seed_index = int(fields["seed_index"])
        done = fields["done"]
        # A run that stopped at its K-th hit is finished only for stop_after <= K.
        stopped_after = int(fields.get("stopped_after", 0))
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if done not in ("0", "1"):
        raise CheckpointError(f"done must be 0 or 1 in {path}, got {done!r}")
    if config_hash != cfg.run_hash():
        raise CheckpointError(
            f"checkpoint {path} belongs to config {config_hash}, "
            f"current config is {cfg.run_hash()}"
        )
    if seed_index < 0:
        raise CheckpointError(f"negative seed index in {path}")
    if stopped_after and (cfg.stop_after or math.inf) > stopped_after:
        raise CheckpointError(
            f"checkpoint {path} stopped after {stopped_after} hits; "
            f"it cannot resume with stop_after={cfg.stop_after}"
        )
    return seed_index, done == "1"


def _work_items(cfg: SearchConfig, jobs: int, start: int, stop: int | None):
    """The runs of seeds `start` to `stop` in checkpoint order, and their chunk size.

    One target streams its seeds lazily in generation order, one seed per
    run.  Every target sorts the seeds by their (C, D) bucket keys and
    takes each key's consecutive seeds as one run, so each bucket pair is
    screened once and its seeds end in one completion tail.
    """
    if cfg.squares is not None:
        seeds = itertools.islice(generate_seeds(cfg), start, stop)
        return ([seed] for seed in seeds), _BATCH_SEEDS
    seeds = sorted(generate_seeds(cfg), key=_group_key)[start:stop]
    runs = [list(run) for _, run in itertools.groupby(seeds, key=_group_key)]
    # About four chunks per worker, so no worker waits long for the last.
    chunksize = max(1, -(-len(runs) // (4 * jobs)))
    return runs, chunksize


def search(
    cfg: SearchConfig,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    results_path: str | None = None,
    max_seeds_per_run: int | None = None,
) -> ClassListing:
    """Run one configured search; returns the canonical hits as a sorted listing.

    Without `cfg.squares` the run sweeps every target, and the listing
    holds every class at length n.  Hits are taken seed by seed, so
    `cfg.stop_after` ends the run at the seed that yields the last hit
    wanted; the checkpoint records that stop, and a resume with no
    `stop_after`, or a larger one, is refused.  New hits are appended to `results_path` in listing
    format, in the order found.  With `checkpoint_path`, which needs
    `results_path`, the run records progress after every 256 seeds, at
    each seed with a new hit and at the end, always after the hits it
    covers are written; a later call resumes where it stopped (the
    checkpoint is bound to the config hash, and the resume needs the
    results file, which holds the hits found so far).
    `max_seeds_per_run` caps how many seeds this call processes, leaving
    the rest for a resumed call.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if checkpoint_path and not results_path:
        raise ValueError("a checkpointed search needs a results path, which holds its hits")
    found: dict[str, None] = {}
    start = 0
    done = False
    resuming = bool(checkpoint_path) and os.path.exists(checkpoint_path)
    if resuming:
        start, done = _read_checkpoint(checkpoint_path, cfg)
        try:
            text = Path(results_path).read_text()
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} covers hits of results file "
                f"{results_path}, which is missing"
            ) from None
        for _, code in read_listing(text):
            found[code] = None
    if done:
        # A finished run builds no rows.
        return ClassListing(cfg.n, tuple(sorted(found)))
    if results_path and not resuming:
        Path(results_path).write_text(write_listing([], header=f"search {cfg.describe()}"))

    stop = None if max_seeds_per_run is None else start + max_seeds_per_run
    runs, chunksize = _work_items(cfg, jobs, start, stop)
    processed = start
    new_codes: list[str] = []

    def save(done):
        # Hits first, so a checkpoint never covers a hit the file lacks.
        if results_path and new_codes:
            base = len(found) - len(new_codes)
            with open(results_path, "a") as fh:
                fh.write(write_listing(list(enumerate(new_codes, start=base + 1))))
        new_codes.clear()
        if checkpoint_path:
            stopped_after = cfg.stop_after if stopped else None
            _write_checkpoint(checkpoint_path, cfg, processed, done, stopped_after)

    stopped = False
    for hits in _hit_stream(runs, cfg, jobs, chunksize):
        processed += 1
        for code in hits:
            if code not in found and not stopped:
                found[code] = None
                new_codes.append(code)
                stopped = cfg.stop_after is not None and len(found) >= cfg.stop_after
        if stopped:
            break
        if new_codes or (processed - start) % _BATCH_SEEDS == 0:
            save(done=False)
    # A stop or a full pass marks completion; the end of this call's slice does not.
    save(done=stopped or stop is None or processed < stop)
    return ClassListing(cfg.n, tuple(sorted(found)))


@functools.cache
def _signed_squares(n: int) -> tuple[Decomposition, ...]:
    """Every signed, ordered row-sum target (a, b, c, d) at length n, sorted."""
    variants = set()
    for a, b, c, d in decompositions(n):
        for ordered in {(a, b, c, d), (b, a, c, d)}:
            for signs in itertools.product((1, -1), repeat=4):
                variants.add(Decomposition(*(s * v for s, v in zip(signs, ordered))))
    return tuple(sorted(variants))
