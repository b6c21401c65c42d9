"""Tests for the two-phase search: seeds, row store, fill-in, orchestration."""

import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import turynseq.search as search_module
from conftest import (
    PUBLISHED_CODES,
    REFERENCE_COUNTS,
    TT38_A,
    TT38_B,
    TT38_C,
    TT38_D,
    TT38_CODE,
    ROW_ORACLES,
    ab_clause,
    c_clause,
    child_env,
    d_clause,
    grid_spectra,
    load_reference_codes,
    per_row_pairs,
    seed_lag_sum,
    single_flips,
)
from turynseq.codec import decode, encode
from turynseq.engine import PairDfs, fill_plan, full_plan, seed_plan
from turynseq.core import TurynQuad, is_canonical, verify_tt
from turynseq.enumeration import (
    Decomposition,
    FeasibilityError,
    _pm_rows,
    decompositions,
    enumerate_canonical,
)
from turynseq.search import (
    CheckpointError,
    SearchConfig,
    SeedQuad,
    default_head_len,
    fill_middle,
    generate_seeds,
    search,
)
from turynseq.seqs import BinarySeq, spectrum_value

SIGNED_SQUARES = search_module._signed_squares


def tt38_quad() -> TurynQuad:
    return TurynQuad(*(BinarySeq.from_pm(s) for s in (TT38_A, TT38_B, TT38_C, TT38_D)))


def cfg10(**kw) -> SearchConfig:
    kw.setdefault("squares", Decomposition(0, 0, 2, 5))
    return SearchConfig(n=10, **kw)


def sweep(n: int, **kw):
    """Every class at length n, through `search` without a row-sum target."""
    return search(SearchConfig(n=n), **kw)


def walked(seed: SeedQuad, c_rows, d_rows) -> list[TurynQuad]:
    """`_walk`'s completions in its own order, before the tail's sum filter, sort and check."""
    ip, a, b = search_module._walk(seed, c_rows, d_rows)
    rows = (a.tolist(), b.tolist(), c_rows[ip].tolist(), d_rows[ip].tolist())
    return [TurynQuad(*map(BinarySeq, entries)) for entries in zip(*rows)]


def as_quads(completions) -> list[TurynQuad]:
    """The quadruples of a `_completions` result, in its order."""
    _, quads = completions
    return [TurynQuad(*map(BinarySeq, rows)) for rows in zip(*(q.tolist() for q in quads))]


def every_bucket(work, kind: str) -> dict:
    """Build every C or D bucket of a run's row store; returns the non-empty ones by key."""
    h = work.cfg.head_len if kind == "C" else work.cfg.d_head_len
    boundary = list(itertools.product((1, -1), repeat=h))
    buckets = {key: work.rows(kind, key) for key in itertools.product(boundary, repeat=2)}
    return {key: bucket for key, bucket in buckets.items() if bucket is not None}


def bucket_rows(work, kind: str) -> int:
    return sum(len(bucket.rows) for bucket in every_bucket(work, kind).values())


def one_sum_work(n: int, kind: str, row_sum: int):
    """A hunt's row store whose `kind` rows have the one sum `row_sum`."""
    squares = next(sq for sq in SIGNED_SQUARES(n) if sq["ABCD".index(kind)] == row_sum)
    work = search_module._SeedWork(SearchConfig(n=n, squares=squares))
    assert work.sums[kind] == (row_sum,)
    return work


def spectral_full_rows(length: int, h: int, row_sum: int, cfg: SearchConfig) -> dict:
    """Every +-1 row of this length and sum within the spectral bound, by bucket key.

    Rows come in the combinations order of their -1 positions, each with
    its grid spectrum from an FFT; no canonical clause is applied.
    """
    found: dict[tuple, list] = {}
    for negs in itertools.combinations(range(length), (length - row_sum) // 2):
        row = np.ones(length, np.int8)
        row[list(negs)] = -1
        spectrum = grid_spectra(row[None], search_module._GRID_POINTS)[0]
        if spectrum.max() <= cfg.spectral_bound + 1e-6:
            key = (tuple(row[:h].tolist()), tuple(row[length - h :].tolist()))
            found.setdefault(key, []).append((row, spectrum))
    return found


def assert_store_bound_keeps_hits(monkeypatch, cfg, blocks):
    """Check that a store bound which drops entries changes no seed's hits; returns its run.

    The bound is set above every entry and every bucket pass the blocks
    can make (a kind's buckets of all keys a block names), so no pass is
    refused, and below the unbounded run's whole store, so entries are
    dropped and built again.  After every block the store holds at most
    the bound, and `store_bytes` counts exactly its entries.
    """
    nbytes = search_module._nbytes
    built = []
    real = search_module._SeedWork._build_buckets

    def counting(work, kind, keys):
        built.extend(keys)
        return real(work, kind, keys)

    monkeypatch.setattr(search_module._SeedWork, "_build_buckets", counting)
    unbounded = search_module._SeedWork(cfg)
    expected = [unbounded.hits(block) for block in blocks]
    store = unbounded.store
    sizes = sorted(map(nbytes, store.values()))
    passes = [
        sum(nbytes(store.get((kind, key))) for key in {seed.key(kind) for seed in block})
        for block in blocks
        for kind in "CD"
    ]
    bound = max(sizes[-1] + sizes[-2], *passes)
    assert bound < unbounded.store_bytes == sum(sizes)
    monkeypatch.setattr(search_module, "_STORE_BYTES", bound)
    unbounded_builds = len(built)
    work = search_module._SeedWork(cfg)
    for block, hits in zip(blocks, expected):
        assert work.hits(block) == hits
        assert work.store_bytes == sum(map(nbytes, work.store.values())) <= bound
    assert len(built) - unbounded_builds > unbounded_builds
    assert len(work.store) < len(store)
    assert any(map(any, expected))
    return work


def checkpoint_fields(path) -> dict[str, str]:
    """key=value fields of a checkpoint file; empty while it does not exist."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return {}
    return dict(line.split("=", 1) for line in text.split())


def test_module_path_binds_the_module():
    import turynseq.search as m

    assert isinstance(m, types.ModuleType)
    assert m.search is search


class TestSearchConfig:
    def test_paper_defaults_at_n38(self):
        cfg = SearchConfig(n=38, squares=Decomposition(8, -4, 8, -3))
        assert cfg.head_len == 7
        assert cfg.d_head_len == 6
        assert cfg.spectral_bound == 113.0
        assert search_module._GRID_POINTS == 600
        # The widths, grid and bound are derived, not settable.
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "n",
            "squares",
            "head_len",
            "stop_after",
        ]

    def test_default_head_len_clamps(self):
        assert default_head_len(4) == 1
        assert default_head_len(6) == 2
        assert default_head_len(10) == 2
        assert default_head_len(20) == 4
        assert default_head_len(38) == 7
        assert default_head_len(100) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=7, squares=Decomposition(0, 0, 2, 5))
        with pytest.raises(ValueError):
            cfg10(head_len=5)  # head_len must stay below n/2
        with pytest.raises(ValueError):
            cfg10(stop_after=0)

    def test_run_hash_separates_configs(self):
        base = cfg10()
        assert base.run_hash() == cfg10().run_hash()
        assert base.run_hash() != cfg10(squares=Decomposition(2, 2, 0, 5)).run_hash()
        assert base.run_hash() != cfg10(head_len=3).run_hash()

    def test_run_hash_is_stable(self):
        # Existing checkpoints carry this hash and must still resume, and
        # it is hashlib's sha256 whichever module computes it.
        pinned = {
            SearchConfig(n=16, squares=Decomposition(8, -2, 2, 3)): "dc4ae9817529cceb",
            SearchConfig(n=38, squares=Decomposition(8, -4, 8, -3)): "afae115d97c7b568",
            SearchConfig(n=12): "a7c90e1dd985ae94",
        }
        for cfg, run_hash in pinned.items():
            assert cfg.run_hash() == run_hash
            assert hashlib.sha256(cfg.describe().encode()).hexdigest()[:16] == run_hash

    def test_no_squares_means_every_target(self):
        cfg = SearchConfig(n=10)
        assert cfg.squares is None
        assert cfg.describe() == "n=10;squares=all;head=2;d_head=1;grid=600;bound=29.0"
        one_target = {SearchConfig(n=10, squares=sq).run_hash() for sq in SIGNED_SQUARES(10)}
        assert cfg.run_hash() not in one_target

    def test_squares_must_be_a_signed_decomposition(self):
        # 64 + 4 + 8 + 8 = 84, not 6n - 2 = 94: no seed could ever hit it.
        with pytest.raises(ValueError, match="not a row-sum target at n=16"):
            SearchConfig(n=16, squares=Decomposition(8, -2, 2, 2))
        # 25 + 1 + 0 + 32 = 58 = 6n - 2 at n = 10, but a and b must be
        # even and d odd.
        with pytest.raises(ValueError, match="row-sum target"):
            cfg10(squares=Decomposition(5, 1, 0, 4))
        for squares in SIGNED_SQUARES(10):
            assert SearchConfig(n=10, squares=tuple(squares)) == cfg10(squares=squares)


class TestSeedQuad:
    def test_from_quad_masks_middles(self):
        seed = SeedQuad.from_quad(tt38_quad(), 7)
        assert seed.n == 38
        assert seed.a[:7] == tuple(tt38_quad().a.entries[:7])
        assert seed.a[7:31] == (0,) * 24
        assert seed.d[6:31] == (0,) * 25
        # One key per row, its (first, last) boundary entries: 7 each for
        # A, B and C and 6 for D.  A sweep sorts its items by the C and D
        # keys, and its checkpoint counts items in that order.
        quad = tt38_quad()
        for kind, row, h in zip("ABCD", (quad.a, quad.b, quad.c, quad.d), (7, 7, 7, 6)):
            entries = tuple(row.entries)
            assert seed.key(kind) == (entries[:h], entries[len(entries) - h :]), kind

    def test_validation_rejects_bad_rows(self):
        good = SeedQuad.from_quad(tt38_quad(), 7)
        with pytest.raises(ValueError, match="lengths"):
            SeedQuad(good.a, good.b, good.c, good.d[:10], 7)
        # D's boundary is 6 entries wide at each end of its 37.
        with pytest.raises(ValueError, match=r"^boundary entry 33 must be \+-1, got 0$"):
            SeedQuad(good.a, good.b, good.c, good.d[:33] + (0,) + good.d[34:], 7)
        with pytest.raises(ValueError, match=r"^boundary entry 31 must be \+-1, got 2$"):
            SeedQuad(good.a, good.b[:31] + (2,) + good.b[32:], good.c, good.d, 7)
        with pytest.raises(ValueError, match=r"^boundary entry 0 must be \+-1, got 0$"):
            SeedQuad(good.a, good.b, (0,) + good.c[1:], good.d, 7)
        bad_mid = good.a[:19] + (1,) + good.a[20:]
        with pytest.raises(ValueError, match=r"^middle entry 19 must be undetermined, got 1$"):
            SeedQuad(bad_mid, good.b, good.c, good.d, 7)
        # The first bad entry is named: rows in the order A, B, C, D, and
        # entries in index order across the boundary and the middle.
        bad_a = good.a[:10] + (-1,) + good.a[11:35] + (0,) + good.a[36:]
        with pytest.raises(ValueError, match=r"^middle entry 10 must be undetermined, got -1$"):
            SeedQuad(bad_a, (0,) + good.b[1:], good.c, good.d, 7)
        with pytest.raises(ValueError, match=r"^middle entry 7 must be undetermined, got 1$"):
            SeedQuad(good.a[:7] + (1,) * 24 + good.a[31:], good.b, good.c, (0,) * 37, 7)

    def test_boundary_lag_sums_vanish(self):
        # Lags s >= n - head_len are fully boundary-determined, so the
        # defining sum must already be zero there.
        cfg = cfg10(head_len=2)
        for seed in itertools.islice(generate_seeds(cfg), 25):
            for s in range(seed.n - seed.head_len, seed.n):
                assert seed_lag_sum(seed, s) == 0


class TestGenerateSeeds:
    @pytest.mark.parametrize("n, head_len", [(10, 2), (12, 3), (14, 3)])
    def test_seeds_match_exhaustive_boundary_filter(self, n, head_len):
        # Independent oracle: scan every boundary assignment under clause
        # (i)'s pins (2^16 of them at head_len 3) and keep those whose lags
        # s >= n - head_len vanish and that pass each row's clause and
        # clause (vi) as far as the boundary decides them.  A row's
        # boundary, head then tail, pairs its entries as the full row
        # does, so the paper's clause on it is the part the boundary
        # decides, vacuous past it.
        lengths, widths = (n, n, n, n - 1), (head_len,) * 3 + (head_len - 1,)
        # Clause (i) pins x_1 = +1 in every row and x_L = +1 in A and B.
        slots = [
            [*range(1, w), *range(length - w, length - (r < 2))]
            for r, (length, w) in enumerate(zip(lengths, widths))
        ]
        bits = np.array(list(itertools.product((1, -1), repeat=sum(map(len, slots)))))
        rows, start = [], 0
        for r, (length, positions) in enumerate(zip(lengths, slots)):
            row = np.zeros((len(bits), length), np.int64)
            row[:, 0] = row[:, length - 1] = 1
            row[:, positions] = bits[:, start : start + len(positions)]
            start += len(positions)
            rows.append(row)
        vanish = np.ones(len(bits), bool)
        for s in range(n - head_len, n):
            lag_sum = sum(
                weight * (row[:, : row.shape[1] - s] * row[:, s:]).sum(axis=1)
                for row, weight in zip(rows, (1, 1, 2, 2))
            )
            vanish &= lag_sum == 0
        expected = set()
        for quad in zip(*(row[vanish].tolist() for row in rows)):
            boundaries = [tuple(x[:w] + x[len(x) - w :]) for x, w in zip(quad, widths)]
            if not all(clause(x) for clause, x in zip(ROW_ORACLES.values(), boundaries)):
                continue
            a, b = quad[:2]
            # Clause (vi), decided by the boundary for head_len >= 2.
            if (a[1] != b[1] and a[1] != 1) or (a[1] == b[1] and (a[n - 2], b[n - 2]) != (1, -1)):
                continue
            expected.add(tuple(map(tuple, quad)))
        seeds = [(s.a, s.b, s.c, s.d) for s in generate_seeds(SearchConfig(n=n, head_len=head_len))]
        assert len(set(seeds)) == len(seeds)
        assert set(seeds) == expected

    def test_deterministic_order(self):
        cfg = cfg10()
        assert list(generate_seeds(cfg)) == list(generate_seeds(cfg))

    def test_seeds_unique_and_canonically_constrained(self):
        cfg = cfg10()
        seeds = list(generate_seeds(cfg))
        assert len(set(seeds)) == len(seeds)
        n = cfg.n
        for seed in seeds:
            assert seed.a[0] == seed.a[n - 1] == 1
            assert seed.b[0] == seed.b[n - 1] == 1
            assert seed.c[0] == 1
            assert seed.d[0] == 1

    def test_seed_count_independent_of_squares(self):
        a = list(generate_seeds(cfg10(squares=Decomposition(0, 0, 2, 5))))
        b = list(generate_seeds(cfg10(squares=Decomposition(2, 2, 0, 5))))
        assert a == b


class TestWalkStartState:
    """`PairDfs` reads its canonical scan state off the preset pairs."""

    def test_no_preset_starts_every_scan_open(self):
        for n in (4, 10, 38):
            assert PairDfs(n, full_plan(n))._fl[0] == (1, 1, 1, 1)

    @pytest.mark.parametrize("n", [10, 12])
    def test_seed_preset_resumes_the_seed_walk(self, n):
        # Read off a seed, the start state equals the state the seed walk
        # itself reached at that seed: all four scan bits, and P and U at
        # every lag.
        h = default_head_len(n)
        eng = PairDfs(n, seed_plan(h))
        count = 0
        for _ in eng.walk():
            seed = SeedQuad(*eng.snapshot(), h)
            resumed = PairDfs(n, fill_plan(n, h), preset=(seed.a, seed.b, seed.c, seed.d))
            assert resumed._fl[0] == eng._fl[-1]
            assert (resumed._P, resumed._U) == (eng._P, eng._U)
            count += 1
        assert count == len(list(generate_seeds(SearchConfig(n=n))))

    def test_engines_of_one_shape_share_one_schedule(self):
        # The touch schedule depends only on n, the plan and the preset's
        # filled positions: every fill engine of a run shares one, and a
        # preset with other filled positions gets its own.
        n, h = 12, default_head_len(12)
        plan = fill_plan(n, h)
        seeds = list(generate_seeds(SearchConfig(n=n)))
        engines = [PairDfs(n, plan, preset=(s.a, s.b, s.c, s.d)) for s in seeds]
        assert all(eng._plan is engines[0]._plan for eng in engines)
        full_cd = (seeds[0].a, seeds[0].b, (1,) * n, (1,) * (n - 1))
        assert PairDfs(n, plan, preset=full_cd)._plan is not engines[0]._plan

    @pytest.mark.parametrize("n", [10, 12, 30, 32, 34, 36, 38])
    def test_fill_start_is_the_boundary_symmetry_of_a_and_b(self, n):
        # The A and B slots of a fill engine, C and D full rows, are the
        # end-symmetry of the seed's A and B boundary.
        h = default_head_len(n)
        if n in PUBLISHED_CODES:
            quad = decode(PUBLISHED_CODES[n], n)
            fills = [(SeedQuad.from_quad(quad, h), quad.c.entries, quad.d.entries)]
        else:
            # Every seed of the sweep; C and D keep only their boundary.
            fills = [(seed, seed.c, seed.d) for seed in generate_seeds(SearchConfig(n=n))]
        for seed, c_row, d_row in fills:
            eng = PairDfs(n, fill_plan(n, h), preset=(seed.a, seed.b, c_row, d_row))
            symmetric = [int(all(r[i] == r[n - 1 - i] for i in range(h))) for r in (seed.a, seed.b)]
            assert list(eng._fl[0][:2]) == symmetric

    def test_complete_preset_is_checked_as_a_tt(self, reference_codes):
        # With an empty plan every product term is preset, so U = 0 and
        # `preset_ok` is the TT condition itself: the walk yields once for
        # every TT and never for a single-entry flip of one.
        def leaves(rows):
            eng = PairDfs(len(rows[0]), [], preset=[row.entries for row in rows])
            return sum(1 for _ in eng.walk())

        quads = [decode(code, 10) for code in reference_codes[10]]
        quads += [decode(code, n) for n, code in PUBLISHED_CODES.items()]
        assert len(quads) == 43 + 7
        for quad in quads:
            rows = (quad.a, quad.b, quad.c, quad.d)
            assert leaves(rows) == 1, encode(quad, "full")
            for r, k, flipped in single_flips(rows):
                assert leaves(flipped) == 0, (encode(quad, "full"), r, k)


class TestBuildPool:
    """C and D buckets of a run's row store, built one boundary at a time as `search` does."""

    def test_matches_brute_filter_n10(self):
        work = one_sum_work(10, "C", 0)
        # Independent filter: every +-1 row of length 10 with zero sum
        # that passes C's own canonical clause and whose spectrum stays
        # within the bound on the whole grid.
        g = search_module._GRID_POINTS
        thetas = [j * np.pi / g for j in range(1, g + 1)]
        expected = set()
        for bits in itertools.product((1, -1), repeat=10):
            if sum(bits) != 0 or not c_clause(bits):
                continue
            seq = BinarySeq(bits)
            if all(spectrum_value(seq, t) <= work.cfg.spectral_bound + 1e-6 for t in thetas):
                expected.add(bits)
        pooled = set()
        for bucket in every_bucket(work, "C").values():
            for row in bucket.rows:
                pooled.add(tuple(int(v) for v in row))
        assert pooled == expected
        assert bucket_rows(work, "C") == len(expected)

    def test_bucket_membership_is_partition(self):
        work = search_module._SeedWork(cfg10())
        assert work.sums["C"] == (2,)
        seen = set()
        for (head, tail), bucket in every_bucket(work, "C").items():
            assert len(head) == len(tail) == work.cfg.head_len
            for row in bucket.rows:
                key = tuple(int(v) for v in row)
                assert key not in seen
                seen.add(key)
                assert sum(key) == 2
                assert tuple(key[:2]) == head
                assert tuple(key[-2:]) == tail
        assert seen and len(seen) == bucket_rows(work, "C")

    def test_sum_square_above_bound_gives_empty_pool(self):
        # f(0) = (row sum)^2, so a row of sum 6 fails the bound 29 at
        # n=10.  No target gives such a sum: 2c^2 <= 6n - 2 keeps every
        # target's c^2 and d^2 within (6n - 2)/2, so the store never
        # enumerates a sum whose rows all fail.
        for n in range(4, 41, 2):
            work = search_module._SeedWork(SearchConfig(n=n))
            for kind in "CD":
                assert all(s * s <= work.cfg.spectral_bound for s in work.sums[kind]), n
        assert search_module._SeedWork(SearchConfig(n=10)).sums["C"] == (-4, -2, 0, 2, 4)

    def test_parity_mismatch_gives_empty_pool(self):
        # C rows of length n have sums of n's parity and D rows of length
        # n - 1 sums of the other; every target's c and d have them.
        for n in range(4, 41, 2):
            work = search_module._SeedWork(SearchConfig(n=n))
            assert all(c % 2 == 0 and abs(c) <= n for c in work.sums["C"]), n
            assert all(d % 2 == 1 and abs(d) <= n - 1 for d in work.sums["D"]), n
        work = search_module._SeedWork(SearchConfig(n=10))
        assert 3 not in work.sums["C"] and 2 not in work.sums["D"]

    def test_d_pool_uses_d_head_len_buckets(self):
        work = search_module._SeedWork(cfg10())
        assert work.sums["D"] == (5,)
        buckets = every_bucket(work, "D")
        assert buckets
        for (head, tail), bucket in buckets.items():
            assert len(head) == len(tail) == 1
            assert bucket.rows.shape[1] == 9

    def test_store_bound_refuses_a_whole_pass(self, monkeypatch):
        # The bound counts the kept rows of one pass over several keys,
        # each of which alone fits.  A refused pass leaves the store as
        # it was; a pass at the bound builds, dropping the oldest entry.
        cfg = SearchConfig(n=12)
        keys = [((1, 1, 1), (1, 1, -1)), ((1, 1, 1), (1, -1, 1)), ((1, 1, 1), (1, -1, -1))]
        sizes = [search_module._SeedWork(cfg).rows("C", key).nbytes for key in keys]
        monkeypatch.setattr(search_module, "_STORE_BYTES", sizes[1] + sizes[2] - 1)
        assert max(sizes) <= search_module._STORE_BYTES
        work = search_module._SeedWork(cfg)
        with pytest.raises(FeasibilityError, match=r"C buckets \[.*\] keep at least \d+ bytes"):
            work._buckets("C", keys)
        assert work.store == {} and work.store_bytes == 0
        work.rows("C", keys[0])
        before = list(work.store.items())
        with pytest.raises(FeasibilityError, match="over the store bound"):
            work._buckets("C", keys)
        assert list(work.store.items()) == before and work.store_bytes == sizes[0]
        monkeypatch.setattr(search_module, "_STORE_BYTES", sizes[1] + sizes[2])
        built = work._buckets("C", keys)
        assert [bucket.nbytes for bucket in built.values()] == sizes
        assert list(work.store) == [("C", keys[1]), ("C", keys[2])]
        assert work.store_bytes == sizes[1] + sizes[2]
        work.rows("C", keys[1])
        assert list(work.store) == [("C", keys[2]), ("C", keys[1])]

    @pytest.mark.parametrize("n", [10, 12])
    def test_lazy_buckets_equal_filtered_full_rows(self, n):
        # Expected buckets come from scanning every full row of the sum in
        # combinations order, with spectra from an FFT on the same grid,
        # and keeping those that pass the row's own canonical clause; a
        # bucket keeps every 16th grid point and the rows' NAFs.  Each
        # sum the sweep's targets give C or D is checked in a hunt whose
        # target gives that sum alone; the sweep's bucket then holds, per
        # boundary, the one-sum buckets concatenated in ascending order.
        sweep_work = search_module._SeedWork(SearchConfig(n=n))
        for kind, length, h, clause in (
            ("C", n, sweep_work.cfg.head_len, c_clause),
            ("D", n - 1, sweep_work.cfg.d_head_len, d_clause),
        ):
            boundary = list(itertools.product((1, -1), repeat=h))
            one_sum_works = []
            for target_sum in sweep_work.sums[kind]:
                expected = {}
                for key, found in spectral_full_rows(length, h, target_sum, sweep_work.cfg).items():
                    kept = [entry for entry in found if clause(tuple(entry[0].tolist()))]
                    if kept:
                        expected[key] = kept
                work = one_sum_work(n, kind, target_sum)
                one_sum_works.append(work)
                for key in itertools.product(boundary, repeat=2):
                    bucket = work.rows(kind, key)
                    if key not in expected:
                        assert bucket is None, (kind, target_sum, key)
                        continue
                    rows, spectra = zip(*expected[key])
                    assert np.array_equal(bucket.rows, np.array(rows, np.int8))
                    np.testing.assert_allclose(
                        bucket.coarse, np.array(spectra)[:, ::16], rtol=0, atol=1e-9
                    )
                    nafs = [np.correlate(row, row, "full")[length:] for row in rows]
                    assert bucket.nafs.dtype == np.int16
                    assert np.array_equal(bucket.nafs, np.array(nafs))
                assert bucket_rows(work, kind) == sum(map(len, expected.values()))
            assert sweep_work.sums[kind] == tuple(sorted(sweep_work.sums[kind]))
            for key in itertools.product(boundary, repeat=2):
                parts = [work.store[kind, key] for work in one_sum_works]
                parts = [part for part in parts if part is not None]
                bucket = sweep_work.rows(kind, key)
                if not parts:
                    assert bucket is None, (kind, key)
                    continue
                for field in ("rows", "nafs", "coarse"):
                    assert np.array_equal(
                        getattr(bucket, field),
                        np.concatenate([getattr(p, field) for p in parts]),
                    )

    @pytest.mark.skipif(
        os.environ.get("TURYNSEQ_LONG") != "1", reason="set TURYNSEQ_LONG=1 to run"
    )
    def test_tt38_seed_buckets_are_compact(self):
        # The C and D buckets the TT(38) seed names: 168,879 and 232,490
        # rows, each with its int8 row, int16 NAF and 38 coarse floats.
        cfg = SearchConfig(n=38, squares=Decomposition(8, -4, 8, -3))
        quad = tt38_quad()
        seed = SeedQuad.from_quad(quad, cfg.head_len)
        work = search_module._SeedWork(cfg)
        for kind, key, row, count in (
            ("C", seed.key("C"), quad.c, 168_879),
            ("D", seed.key("D"), quad.d, 232_490),
        ):
            bucket = work.rows(kind, key)
            length = len(row)
            assert len(bucket.rows) == count
            assert np.all(bucket.rows == np.array(row.entries), axis=1).any()
            assert bucket.nbytes == count * (length + 2 * (length - 1) + 38 * 8)

    def test_bucket_store_bound_refusal(self, monkeypatch):
        # Middle of 6 entries with 4 of them -1: comb(6, 4) = 15 candidates,
        # of which 8 are kept, at 10 + 18 + 38 * 8 = 332 bytes a row.
        key = ((1, 1), (1, 1))
        monkeypatch.setattr(search_module, "_STORE_BYTES", 8 * 332 - 1)
        work = search_module._SeedWork(cfg10())
        with pytest.raises(FeasibilityError) as exc:
            work.rows("C", key)
        assert str(exc.value) == (
            f"C buckets [{key}] keep at least 2656 bytes of rows, over the store bound of 2655"
        )
        assert work.store == {}
        monkeypatch.setattr(search_module, "_STORE_BYTES", 8 * 332)
        assert len(work.rows("C", key).rows) == 8
        assert work.store_bytes == 2656

    def test_bucket_store_bound_counts_every_sum(self, monkeypatch):
        # The same middle in the sweep: sums -2, 0, 2 and 4 have 1, 6, 15
        # and 20 candidates (sum -4 would need 7 of the 6 entries), and
        # the bound counts the kept rows of all of them together.
        key = ((1, 1), (1, 1))
        rows = len(search_module._SeedWork(SearchConfig(n=10)).rows("C", key).rows)
        assert 8 < rows <= 42
        monkeypatch.setattr(search_module, "_STORE_BYTES", rows * 332)
        assert len(search_module._SeedWork(SearchConfig(n=10)).rows("C", key).rows) == rows
        monkeypatch.setattr(search_module, "_STORE_BYTES", rows * 332 - 1)
        with pytest.raises(FeasibilityError, match=f"at least {rows * 332} bytes"):
            search_module._SeedWork(SearchConfig(n=10)).rows("C", key)

    @pytest.mark.skipif(
        os.environ.get("TURYNSEQ_LONG") != "1", reason="set TURYNSEQ_LONG=1 to run"
    )
    def test_tt38_seed_named_d_bucket_builds(self):
        # The TT(38) target names this D bucket of sum -3 at seed index
        # 126,898.  Its 25-entry middle has 13 of its entries -1:
        # comb(25, 13) = 5,200,300 candidates, of which 133,907 rows of
        # 413 bytes are kept.
        work = search_module._SeedWork(SearchConfig(n=38, squares=Decomposition(8, -4, 8, -3)))
        bucket = work.rows("D", ((1, 1, 1, -1, -1, -1), (-1, -1, -1, -1, 1, 1)))
        assert len(bucket.rows) == 133_907
        assert bucket.nbytes == work.store_bytes == 133_907 * (37 + 2 * 36 + 38 * 8)


class TestJoinTables:
    @pytest.mark.parametrize(
        "cfg",
        [SearchConfig(n=10), SearchConfig(n=10, squares=Decomposition(2, -2, 4, 3))]
        + [SearchConfig(n=10, squares=Decomposition(2, 2, 4, 3))]
        + [SearchConfig(n=12), SearchConfig(n=12, squares=Decomposition(4, -2, 4, 3))],
        ids=["sweep10", "hunt10", "hunt10_a_eq_b", "sweep12", "hunt12"],
    )
    def test_tables_equal_brute_filter(self, cfg):
        # For every A and B boundary the seeds name, the table holds
        # exactly the full rows extending it that pass the scalar clause
        # and have a sum the run's targets give that row, each with its
        # NAF, sorted by hash, or is None when no row does.  A sweep's
        # sums are every signed a and b of the decompositions; a hunt's
        # are its own a and b.  A and B share one table per boundary when
        # their sums match.
        n, h = cfg.n, cfg.head_len
        if cfg.squares is None:
            sums_a = sums_b = {s * v for sq in decompositions(n) for v in sq[:2] for s in (1, -1)}
        else:
            sums_a, sums_b = {cfg.squares.a}, {cfg.squares.b}
        work = search_module._SeedWork(cfg)
        all_rows = _pm_rows(n)
        weights = search_module._hash_weights(n - 1)
        compared = 0
        for seed in generate_seeds(cfg):
            for kind, sums in (("A", sums_a), ("B", sums_b)):
                head, tail = seed.key(kind)
                table = work.rows(kind, (head, tail))
                other = work.rows("AB".replace(kind, ""), (head, tail))
                assert (table is other) == (sums_a == sums_b)
                expected = {
                    tuple(row)
                    for row in all_rows.tolist()
                    if tuple(row[:h]) == head
                    and tuple(row[n - h :]) == tail
                    and sum(row) in sums
                    and ab_clause(row)
                }
                if table is None:
                    assert not expected
                    continue
                rows, nafs, hashes = table
                assert {tuple(row) for row in rows.tolist()} == expected
                assert len(rows) == len(expected)
                correlations = [np.correlate(row, row, "full")[n:] for row in rows]
                assert np.array_equal(nafs, np.array(correlations).reshape(len(rows), n - 1))
                assert np.array_equal(hashes, nafs @ weights)
                # Sorted; np.diff would wrap on hashes across the int64 range.
                assert np.all(hashes[1:] >= hashes[:-1])
                # Distinct NAFs get distinct hashes, so a lookup meets few
                # rows that the exact check then drops.
                assert len(np.unique(hashes)) == len(np.unique(nafs, axis=0))
                compared += len(rows)
        assert compared


    @pytest.mark.parametrize(
        "cfg, tables, kind_keys",
        [
            (SearchConfig(n=12), 10, 14),
            (SearchConfig(n=16), 36, 52),
            (SearchConfig(n=10, squares=Decomposition(2, 2, 4, 3)), 3, 4),
        ],
        ids=["sweep12", "sweep16", "hunt10_a_eq_b"],
    )
    def test_one_table_per_boundary(self, cfg, tables, kind_keys, monkeypatch):
        # A and B keep the same sums in a sweep and in a hunt with a = b,
        # so they share one table per (head, tail) boundary: `tables`
        # builds, against `kind_keys` when each kind had its own.
        built = []
        real_build = search_module._SeedWork._build_table

        def counting(work, kind, key):
            built.append(key)
            return real_build(work, kind, key)

        monkeypatch.setattr(search_module._SeedWork, "_build_table", counting)
        assert search(cfg)
        seeds = list(generate_seeds(cfg))
        assert len({seed.key(kind) for seed in seeds for kind in "AB"}) == tables
        assert len({(kind, seed.key(kind)) for seed in seeds for kind in "AB"}) == kind_keys
        assert len(built) == len(set(built)) == tables


    def test_projection_and_middles_are_cached_read_only(self):
        # Every table build and pair block reads them; none may write them.
        for build, length in (
            (search_module._hash_weights, 15),
            (_pm_rows, 6),
            (search_module._cos_table, 12),
        ):
            table = build(length)
            assert build(length) is table
            assert not table.flags.writeable


class TestSpectralSoundness:
    def test_pointwise_identity_on_all_tt10(self, reference_codes):
        # f_A + f_B + 2 f_C + 2 f_D = 6n - 2 at every theta: every TT(10)
        # class, then the published codes for n = 26..38.
        rng = random.Random(20240817)
        thetas = [rng.uniform(0.0, np.pi) for _ in range(1000)]
        quads = [decode(code, 10) for code in reference_codes[10]]
        quads += [decode(code, n) for n, code in sorted(PUBLISHED_CODES.items())]
        for quad in quads:
            for theta in rng.sample(thetas, 25):
                total = (
                    spectrum_value(quad.a, theta)
                    + spectrum_value(quad.b, theta)
                    + 2 * spectrum_value(quad.c, theta)
                    + 2 * spectrum_value(quad.d, theta)
                )
                assert abs(total - (6 * quad.n - 2)) < 1e-6

    def test_valid_members_never_pruned(self, reference_codes):
        # Nonnegativity of each spectrum plus the identity caps every
        # f_C and f_C + f_D by (6n-2)/2, so the bucket filters are sound.
        rng = random.Random(11)
        bound = 29.0
        for code in reference_codes[10]:
            quad = decode(code, 10)
            for _ in range(40):
                theta = rng.uniform(0.0, np.pi)
                fc = spectrum_value(quad.c, theta)
                fd = spectrum_value(quad.d, theta)
                assert -1e-9 <= fc <= bound + 1e-6
                assert fc + fd <= bound + 1e-6


class TestFillMiddle:
    @pytest.mark.parametrize("n", sorted(PUBLISHED_CODES))
    def test_recovers_published_tt38(self, n):
        # Middles of 14 and 16 entries (n = 26, 28) are joined; the longer
        # ones of n = 30..38 are walked.
        quad = decode(PUBLISHED_CODES[n], n)
        head_len = default_head_len(n)
        seed = SeedQuad.from_quad(quad, head_len)
        fills = list(fill_middle(seed, quad.c, quad.d))
        assert all(verify_tt(q) for q in fills)
        assert encode(quad, form="full") in {encode(q, form="full") for q in fills}

    @pytest.mark.parametrize("code", load_reference_codes("reference_n10.txt"))
    def test_every_output_extends_seed_and_verifies(self, code):
        # The canonical pruning may drop completions, but never the
        # class's own canonical member.
        cfg = cfg10()
        quad = decode(code, 10)
        seed = SeedQuad.from_quad(quad, cfg.head_len)
        outputs = list(fill_middle(seed, quad.c, quad.d))
        assert quad in outputs
        for out in outputs:
            assert verify_tt(out)
            assert out.c == quad.c and out.d == quad.d
            assert SeedQuad.from_quad(out, cfg.head_len) == seed
            assert tuple(out.a.entries[:2]) == seed.a[:2]
            assert tuple(out.b.entries[-2:]) == seed.b[-2:]

    def test_boundary_mismatch_rejected(self):
        cfg = cfg10()
        quad = decode(enumerate_canonical(10).codes[0], 10)
        seed = SeedQuad.from_quad(quad, cfg.head_len)
        with pytest.raises(ValueError, match="boundary"):
            fill_middle(seed, quad.c.negate(), quad.d)
        with pytest.raises(ValueError, match="full rows"):
            next(fill_middle(seed, quad.d, quad.d))


class TestJoin:
    @pytest.mark.parametrize(
        "n, code",
        [(10, code) for code in load_reference_codes("reference_n10.txt")]
        + [(12, code) for code in load_reference_codes("reference_first12_n12.txt")]
        # The longest middles the join serves: 14 and 16 entries.
        + [(n, PUBLISHED_CODES[n]) for n in (26, 28)],
    )
    def test_join_equals_walk_on_reference_rows(self, n, code):
        quad = decode(code, n)
        head_len = default_head_len(n)
        seed = SeedQuad.from_quad(quad, head_len)
        c_rows, d_rows = (np.array([row.entries], np.int8) for row in (quad.c, quad.d))
        pairs = search_module._pair_block(c_rows, d_rows)
        work = search_module._SeedWork(SearchConfig(n=n, head_len=head_len))
        joined = as_quads(work._completions([seed], pairs))
        assert quad in joined
        assert joined == walked(seed, c_rows, d_rows)

    def test_join_keeps_walk_order_over_every_pair_of_a_seed(self):
        # Results files and stop_after follow the emission order, so the
        # join must emit in the walk's order across all pairs of a seed.
        # The C and D rows are every spectrum-passing full row of each
        # bucket key, including those the buckets drop by their clauses.
        cfg = cfg10()
        work = search_module._SeedWork(SearchConfig(n=10))
        seeds = list(generate_seeds(cfg))
        compared = 0
        for c_sum, d_sum in sorted({(sq.c, sq.d) for sq in SIGNED_SQUARES(10)}):
            c_full = spectral_full_rows(10, cfg.head_len, c_sum, cfg)
            d_full = spectral_full_rows(9, cfg.d_head_len, d_sum, cfg)
            for seed in seeds:
                c_found = c_full.get(seed.key("C"))
                d_found = d_full.get(seed.key("D"))
                if c_found is None or d_found is None:
                    continue
                c_full_rows = np.array([row for row, _ in c_found])
                d_full_rows = np.array([row for row, _ in d_found])
                c_rows = np.repeat(c_full_rows, len(d_full_rows), axis=0)
                d_rows = np.tile(d_full_rows, (len(c_full_rows), 1))
                pairs = search_module._pair_block(c_rows, d_rows)
                joined = as_quads(work._completions([seed], pairs))
                assert joined == walked(seed, c_rows, d_rows)
                compared += len(joined)
        # 116 completions; 17 share their (C, D) pair with an earlier one.
        assert compared == 116

    @pytest.mark.parametrize("n", [10, 12])
    def test_sweep_joins_only_canonical_quadruples(self, n, monkeypatch):
        # Buckets and A/B tables drop every row that fails its own clause,
        # and the seeds settle clause (vi), so every completion the sweep
        # joins is canonical: as many as the listing has classes.  Buckets
        # that kept those rows made 116 completions at n=10 and 191 at 12.
        joined = []
        real_completions = search_module._SeedWork._completions

        def recording(*args):
            result = real_completions(*args)
            joined.extend(as_quads(result))
            return result

        monkeypatch.setattr(search_module._SeedWork, "_completions", recording)
        assert len(sweep(n)) == REFERENCE_COUNTS[n]
        assert len(joined) == REFERENCE_COUNTS[n]
        assert all(is_canonical(quad) for quad in joined)

    def test_join_raises_when_the_batched_check_fails(self, monkeypatch):
        # The join and the walk share one check: a 6-entry middle is joined,
        # the 18-entry middle of the published n=30 code is walked.
        monkeypatch.setattr(
            search_module, "naf_vanishes", lambda rows, weights: np.zeros(len(rows[0]), bool)
        )
        message = "A/B middle completion is not a Turyn-type quadruple"
        with pytest.raises(RuntimeError, match=message):
            sweep(10)
        quad = decode(PUBLISHED_CODES[30], 30)
        seed = SeedQuad.from_quad(quad, default_head_len(30))
        assert 30 - 2 * seed.head_len > search_module._JOIN_MAX_MIDDLE
        c_rows, d_rows = (np.array([row.entries], np.int8) for row in (quad.c, quad.d))
        pairs = search_module._pair_block(c_rows, d_rows)
        work = search_module._SeedWork(SearchConfig(30, squares=quad.row_sums()))
        with pytest.raises(RuntimeError, match=message):
            work._completions([seed], pairs)

    def test_hash_collisions_are_settled_exactly(self, monkeypatch, reference_codes):
        # An all-zero projection makes every pair and row collide.
        monkeypatch.setattr(
            search_module, "_hash_weights", lambda count: np.zeros(count, np.int64)
        )
        assert list(sweep(10).codes) == reference_codes[10]

    def test_short_middles_never_walk(self, monkeypatch, reference_codes):
        def no_walk(*args):
            raise AssertionError("a middle of 6 entries must be joined")

        monkeypatch.setattr(search_module, "_walk", no_walk)
        assert list(sweep(10).codes) == reference_codes[10]

    @pytest.mark.parametrize("n, flipped", [(30, (-8, 8, 4, 3)), (32, (-2, 8, 6, 5))])
    def test_walk_keeps_only_the_run_sums(self, n, flipped):
        # Middles of 18 entries are walked, not joined; the walk's output
        # is filtered by the run's A and B sums as the tables are.
        quad = decode(PUBLISHED_CODES[n], n)
        seed = SeedQuad.from_quad(quad, default_head_len(n))
        assert n - 2 * seed.head_len > search_module._JOIN_MAX_MIDDLE
        c_rows, d_rows = (np.array([row.entries], np.int8) for row in (quad.c, quad.d))
        pairs = search_module._pair_block(c_rows, d_rows)
        for squares, expected in ((quad.row_sums(), [quad]), (flipped, [])):
            work = search_module._SeedWork(SearchConfig(n, squares=squares))
            assert as_quads(work._completions([seed], pairs)) == expected, squares

    def test_row_sum_targets_filter_before_verify(self, monkeypatch):
        # With (c, d) = (4, 3) the sums of A and B are fixed only up to
        # sign: without the filter, 4 of the 7 completions found have
        # other signed sums.  Every join hit goes through one batched
        # check per seed, with the weights of `verify_tt`.
        checked = []
        real_naf_vanishes = search_module.naf_vanishes

        def checking(rows, weights):
            assert tuple(weights) == (1, 1, 2, 2)
            checked.extend(zip(rows[0].sum(axis=1).tolist(), rows[1].sum(axis=1).tolist()))
            return real_naf_vanishes(rows, weights)

        monkeypatch.setattr(search_module, "naf_vanishes", checking)
        assert search(cfg10(squares=Decomposition(2, 2, 4, 3)))
        assert checked
        assert set(checked) == {(2, 2)}


class TestPairScreen:
    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("n", [10, 12])
    def test_equals_per_row_loop_on_every_bucket_pair(self, n, block, monkeypatch):
        # The sweep's buckets hold every target's sum; a one-target
        # search's hold one.  In both, one screen of every bucket pair
        # keeps exactly the pairs the full-grid per-row loop keeps among
        # those with a live (c, d), bucket pair by bucket pair, in its
        # order.  Blocks of 7 pairs split bucket pairs and C rows at odd
        # places, and full-grid batches of 3 split what the coarse points keep.
        if block is not None:
            monkeypatch.setattr(search_module, "_PAIR_BLOCK", block)
            monkeypatch.setattr(search_module, "_SPECTRUM_ROWS", 3)
        cfg = SearchConfig(n=n)
        limit = cfg.spectral_bound + search_module._SPECTRAL_TOL
        grid = search_module._GRID_POINTS
        one_per_target = {(sq.c, sq.d): sq for sq in SIGNED_SQUARES(n)}
        works = [search_module._SeedWork(cfg)]
        works += [
            search_module._SeedWork(SearchConfig(n=n, squares=sq))
            for _, sq in sorted(one_per_target.items())
        ]
        compared = kept = 0
        for work in works:
            (c_stack, c_at), (d_stack, d_at) = (
                search_module._stack(every_bucket(work, kind)) for kind in "CD"
            )
            keys = [(c, d) for c in c_at for d in d_at]
            spans = [(*c_at[c], *d_at[d]) for c, d in keys]
            got_c, got_d, nafs, bounds = search_module._spectral_pairs(
                c_stack, d_stack, spans, work.live, limit
            )
            assert bounds[0] == 0 and bounds[-1] == len(got_c) and np.all(np.diff(bounds) >= 0)
            for index, ((c_key, d_key), (c_start, _, d_start, _)) in enumerate(zip(keys, spans)):
                c_bucket, d_bucket = work.rows("C", c_key), work.rows("D", d_key)
                ic, id_ = per_row_pairs(c_bucket, d_bucket, limit, grid)
                sums_c = c_bucket.rows.sum(axis=1)[ic] + n
                sums_d = d_bucket.rows.sum(axis=1)[id_] + n
                live = work.live[sums_c, sums_d]
                mine = slice(bounds[index], bounds[index + 1])
                assert np.array_equal(got_c[mine] - c_start, ic[live])
                assert np.array_equal(got_d[mine] - d_start, id_[live])
                # The last part is N_C + N_D, D padded by a trailing zero.
                pairs = search_module._pair_block(
                    c_bucket.rows[ic[live]], d_bucket.rows[id_[live]]
                )
                assert np.array_equal(-2 * nafs[mine], pairs.target)
                compared += 1
                kept += int(live.sum())
        assert compared and kept

    def test_sweep_screens_each_bucket_pair_once(self, monkeypatch):
        # n=12 has 72 seeds naming 24 (C, D) bucket pairs and 12 (A, B)
        # table pairs.  A pass per target made 864 joins and 288 pair
        # blocks, a tail per seed 72 tails, and a tail per (C, D) group 24
        # screens, 24 tails and 72 joins.  Now each block of seeds has one
        # bucket pass per kind, one screen and one tail, and each of its
        # (A, B) table pairs one join: one block by default, and blocks of
        # whole groups closed at 10 seeds.
        owners = {
            "_build_buckets": search_module._SeedWork,
            "_spectral_pairs": search_module,
            "_pair_block": search_module,
            "_join": search_module._SeedWork,
            "_completions": search_module._SeedWork,
        }
        calls = dict.fromkeys(owners, 0)
        for name, owner in owners.items():
            real = getattr(owner, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counting)
        for batch in (search_module._BATCH_SEEDS, 10):
            monkeypatch.setattr(search_module, "_BATCH_SEEDS", batch)
            blocks, _ = search_module._work_items(SearchConfig(n=12), 1, 0, None)
            tables = sum(len({(s.key("A"), s.key("B")) for s in block}) for block in blocks)
            calls.update(dict.fromkeys(calls, 0))
            assert len(sweep(12)) == 127
            assert (len(blocks) == 1) == (batch > 72)
            assert calls["_build_buckets"] <= 2 * len(blocks)
            assert calls["_spectral_pairs"] == calls["_pair_block"] == len(blocks)
            assert calls["_completions"] == len(blocks)
            assert calls["_join"] == tables <= 12 * len(blocks)
            assert tables == 12 or len(blocks) > 1


class TestSearch:
    def test_finds_exactly_the_classes_with_target_sums(self, reference_codes):
        # Derived oracle: the canonical representatives with row sums
        # exactly (0, 0, 2, 5), taken from the reference listing.
        expected = sorted(
            code
            for code in reference_codes[10]
            if decode(code, 10).row_sums() == (0, 0, 2, 5)
        )
        hits = search(cfg10())
        assert list(hits.codes) == expected

    def test_stop_after_limits_output(self):
        hits = search(cfg10(stop_after=1))
        assert len(hits) == 1

    def test_jobs_deterministic(self):
        serial = search(cfg10())
        parallel = search(cfg10(), jobs=2)
        assert serial.codes == parallel.codes

    def test_sliced_runs_resume_to_same_result(self, tmp_path):
        # One target at n=10, then every target at n=12 (72 seeds).
        for cfg in (cfg10(), SearchConfig(n=12)):
            run_dir = tmp_path / f"n{cfg.n}"
            run_dir.mkdir()
            full_rs = run_dir / "uninterrupted.txt"
            one_shot = search(cfg, results_path=str(full_rs))
            ck = run_dir / "checkpoint.txt"
            rs = run_dir / "results.txt"
            sliced = None
            for _ in range(1000):
                sliced = search(
                    cfg,
                    checkpoint_path=str(ck),
                    results_path=str(rs),
                    max_seeds_per_run=3,
                )
                if "done=1" in ck.read_text():
                    break
            assert one_shot
            assert sliced == one_shot
            assert rs.read_bytes() == full_rs.read_bytes()
            # A further call is a no-op returning the same set.
            again = search(cfg, checkpoint_path=str(ck), results_path=str(rs))
            assert again == one_shot

    def test_sweep_slices_that_cut_groups_resume_to_the_same_files(self, tmp_path):
        # Slices of 5 seeds end inside (C, D) groups and inside the one
        # block, whose seeds otherwise share one screen and one tail.
        cfg = SearchConfig(n=14)
        blocks, _ = search_module._work_items(cfg, 1, 0, None)
        assert len(blocks) == 1
        total = len(blocks[0])
        groups = itertools.groupby(blocks[0], key=search_module._group_key)
        ends = set(itertools.accumulate(len(list(run)) for _, run in groups))
        assert any(cut not in ends for cut in range(5, total, 5))
        whole_ck, whole_rs = tmp_path / "whole.ckpt", tmp_path / "whole.txt"
        whole = search(cfg, checkpoint_path=str(whole_ck), results_path=str(whole_rs))
        ck, rs = tmp_path / "sliced.ckpt", tmp_path / "sliced.txt"
        for calls in range(1, total):
            sliced = search(
                cfg, checkpoint_path=str(ck), results_path=str(rs), max_seeds_per_run=5
            )
            if checkpoint_fields(ck)["done"] == "1":
                break
        assert calls == -(-total // 5)
        assert len(whole) == REFERENCE_COUNTS[14]
        assert sliced == whole
        assert rs.read_bytes() == whole_rs.read_bytes()
        assert ck.read_bytes() == whole_ck.read_bytes()

    def test_stopped_hunt_resumes_only_with_a_stop_no_larger(self, tmp_path):
        # A stop once wrote done=1 alone, so a resume with stop_after 3
        # returned the 1 hit found as if the run had finished.
        squares = Decomposition(8, -2, 2, 3)
        ck, rs = tmp_path / "checkpoint.txt", tmp_path / "results.txt"
        paths = {"checkpoint_path": str(ck), "results_path": str(rs)}
        first = search(SearchConfig(n=16, squares=squares, stop_after=1), **paths)
        assert len(first) == 1
        assert checkpoint_fields(ck) == {
            "config": SearchConfig(n=16, squares=squares).run_hash(),
            "seed_index": "65",
            "done": "1",
            "stopped_after": "1",
        }
        before = (ck.read_bytes(), rs.read_bytes())
        for stop_after in (3, None):
            with pytest.raises(CheckpointError, match="stopped after 1 hits"):
                search(SearchConfig(n=16, squares=squares, stop_after=stop_after), **paths)
            assert (ck.read_bytes(), rs.read_bytes()) == before
        assert search(SearchConfig(n=16, squares=squares, stop_after=1), **paths) == first
        fresh = search(SearchConfig(n=16, squares=squares, stop_after=3))
        assert len(fresh) == 3
        assert set(first.codes) < set(fresh.codes)

    def test_checkpoint_is_not_rewritten_after_every_seed(self, tmp_path, monkeypatch):
        # Hits not yet saved once kept every later seed saving when there
        # was no results file (1,483 writes for 1,546 seeds, against 24);
        # a checkpoint now needs a results file.
        writes = []
        real_write = search_module._write_checkpoint

        def counting(path, cfg, seed_index, *rest):
            writes.append(seed_index)
            real_write(path, cfg, seed_index, *rest)

        monkeypatch.setattr(search_module, "_write_checkpoint", counting)
        cfg = SearchConfig(n=16, squares=Decomposition(8, -2, 2, 3))
        ck, rs = tmp_path / "checkpoint.txt", tmp_path / "results.txt"
        assert len(search(cfg, checkpoint_path=str(ck), results_path=str(rs))) == 17
        assert writes[-1] == 1546
        assert len(writes) == 24

    def test_resume_of_finished_run_builds_no_pool(self, tmp_path, monkeypatch):
        cfg = cfg10()
        ck = tmp_path / "checkpoint.txt"
        rs = tmp_path / "results.txt"
        first = search(cfg, checkpoint_path=str(ck), results_path=str(rs))
        assert "done=1" in ck.read_text()

        def no_rows(*args, **kwargs):
            raise AssertionError("a finished run must build no rows")

        monkeypatch.setattr(search_module._SeedWork, "rows", no_rows)
        again = search(cfg, checkpoint_path=str(ck), results_path=str(rs))
        assert first
        assert again == first

    def test_stop_after_pulls_no_seed_past_the_hit(self, tmp_path, monkeypatch):
        # Seeds were once filled in batches of 256 before stop_after was
        # checked, so the run pulled (and filled) seeds past its hit.
        pulled = 0
        real_generate_seeds = search_module.generate_seeds

        def counting(cfg):
            nonlocal pulled
            for seed in real_generate_seeds(cfg):
                pulled += 1
                yield seed

        monkeypatch.setattr(search_module, "generate_seeds", counting)
        cfg = SearchConfig(n=16, squares=Decomposition(8, -2, 2, 3), stop_after=1)
        ck = tmp_path / "checkpoint.txt"
        hits = search(cfg, checkpoint_path=str(ck), results_path=str(tmp_path / "results.txt"))
        assert len(hits) == 1
        fields = checkpoint_fields(ck)
        assert fields["done"] == "1"
        # The hit is at seed 65; the batched driver pulled 256.
        assert pulled == int(fields["seed_index"])

    def test_hunt_builds_only_the_buckets_its_seeds_name(self, monkeypatch):
        pulled = []
        real_generate_seeds = search_module.generate_seeds

        def recording(cfg):
            for seed in real_generate_seeds(cfg):
                pulled.append(seed)
                yield seed

        built = []
        real_buckets = search_module._SeedWork._build_buckets
        real_table = search_module._SeedWork._build_table

        def buckets(work, kind, keys):
            built.extend((kind, key) for key in keys)
            return real_buckets(work, kind, keys)

        def table(work, kind, key):
            built.append((kind, key))
            return real_table(work, kind, key)

        monkeypatch.setattr(search_module._SeedWork, "_build_buckets", buckets)
        monkeypatch.setattr(search_module._SeedWork, "_build_table", table)
        monkeypatch.setattr(search_module, "generate_seeds", recording)
        cfg = SearchConfig(n=16, squares=Decomposition(8, -2, 2, 3), stop_after=1)
        assert len(search(cfg)) == 1
        c_keys = {seed.key("C") for seed in pulled}
        d_keys = {seed.key("D") for seed in pulled}
        assert len(built) == len(set(built))
        assert {key for kind, key in built if kind == "C"} <= c_keys
        assert {key for kind, key in built if kind == "D"} <= d_keys
        assert {key for kind, key in built if kind == "A"} <= {s.key("A") for s in pulled}
        assert {key for kind, key in built if kind == "B"} <= {s.key("B") for s in pulled}
        # 65 seeds name 6 of the 235 non-empty C buckets and 3 of the 61 D.
        assert (len(c_keys), len(d_keys)) == (6, 3)

    def test_hunt_pair_cache_is_bounded_by_bytes(self, monkeypatch):
        # A hunt's one-seed blocks meet a (C, D) key again in later runs,
        # so the store keeps its screened pairs by key, beside the buckets
        # and tables; past the byte bound the least recently used go
        # first, and the hits do not change.
        cfg = SearchConfig(n=16, squares=Decomposition(8, -2, 2, 3))
        seeds = itertools.islice(generate_seeds(cfg), 200)
        work = assert_store_bound_keeps_hits(monkeypatch, cfg, [[seed] for seed in seeds])
        assert any(key[0] == "pairs" for key in work.store)

    @pytest.mark.parametrize("n", [12, 14])
    def test_store_bound_keeps_sweep_hits(self, monkeypatch, n):
        # Blocks closed at 10 seeds meet C buckets, D buckets and tables
        # again in later blocks; a sweep keeps no pairs.
        monkeypatch.setattr(search_module, "_BATCH_SEEDS", 10)
        blocks, _ = search_module._work_items(SearchConfig(n=n), 1, 0, None)
        work = assert_store_bound_keeps_hits(monkeypatch, SearchConfig(n=n), blocks)
        assert not any(key[0] == "pairs" for key in work.store)

    def test_paper_scale_target_runs(self, tmp_path):
        # The whole C pool of sum 8 at n=28 has comb(28, 10) = 13,123,110
        # candidate rows; one bucket's middle has at most comb(16, 8).
        cfg = SearchConfig(n=28, squares=Decomposition(4, 2, 8, -3))
        ck, rs = tmp_path / "checkpoint.txt", tmp_path / "results.txt"
        listing = search(cfg, checkpoint_path=str(ck), results_path=str(rs), max_seeds_per_run=8)
        assert listing.codes == ()
        assert checkpoint_fields(ck) == {
            "config": cfg.run_hash(),
            "seed_index": "8",
            "done": "0",
        }

    def test_checkpoint_config_mismatch_rejected(self, tmp_path):
        ck, rs = tmp_path / "checkpoint.txt", tmp_path / "results.txt"
        search(cfg10(), checkpoint_path=str(ck), results_path=str(rs), max_seeds_per_run=2)
        with pytest.raises(CheckpointError, match="config"):
            search(
                cfg10(squares=Decomposition(2, 2, 0, 5)),
                checkpoint_path=str(ck),
                results_path=str(rs),
            )

    def test_resume_refused_when_results_file_is_gone(self, tmp_path):
        # The results file holds the hits found before the stop; resuming
        # without it once finished with 2 of the 4 hits and marked done.
        # A checkpoint without any results path is refused up front: an
        # n=12 sweep sliced at 30 seeds once resumed to 40, then 87, then
        # 0 of its 127 classes.
        ck = tmp_path / "checkpoint.txt"
        rs = tmp_path / "results.txt"
        with pytest.raises(ValueError, match="needs a results path"):
            search(cfg10(), checkpoint_path=str(ck), max_seeds_per_run=2)
        assert not ck.exists()
        search(cfg10(), checkpoint_path=str(ck), results_path=str(rs), max_seeds_per_run=2)
        before = ck.read_text()
        assert len(search_module.read_listing(rs.read_text())) == 2
        with pytest.raises(ValueError, match="needs a results path"):
            search(cfg10(), checkpoint_path=str(ck))
        rs.unlink()
        with pytest.raises(CheckpointError, match="missing"):
            search(cfg10(), checkpoint_path=str(ck), results_path=str(rs))
        assert ck.read_text() == before
        assert not rs.exists()

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        ck, rs = tmp_path / "checkpoint.txt", str(tmp_path / "results.txt")
        ck.write_text("config=abc\nseed_index=not_a_number\ndone=0\n")
        with pytest.raises(CheckpointError):
            search(cfg10(), checkpoint_path=str(ck), results_path=rs)
        ck.write_text("seed_index=3\n")
        with pytest.raises(CheckpointError):
            search(cfg10(), checkpoint_path=str(ck), results_path=rs)
        ck.write_text(f"config={cfg10().run_hash()}\nseed_index=0\ndone=1\nstopped_after=x\n")
        with pytest.raises(CheckpointError, match="unreadable"):
            search(cfg10(stop_after=1), checkpoint_path=str(ck), results_path=rs)
        # A done flag other than 0 or 1 must not read as a finished run.
        (tmp_path / "results.txt").write_text("")
        for done in ("7", "-1"):
            ck.write_text(f"config={cfg10().run_hash()}\nseed_index=0\ndone={done}\n")
            with pytest.raises(CheckpointError, match="done must be 0 or 1"):
                search(cfg10(), checkpoint_path=str(ck), results_path=rs)


class TestKillAndResume:
    # One n=16 target with 1,546 seeds and 17 hits: long enough to kill
    # partway, short enough for the default suite.
    CONFIG = "n = 16\nsquares = 8, -2, 2, 3\n"
    # Every target at n=16: the same 1,546 seeds, sorted by bucket keys.
    SWEEP_CONFIG = "n = 16\n"

    def command(self, tmp_path, name, config=CONFIG):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        ck, out = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.txt"
        argv = [sys.executable, "-m", "turynseq.cli", "search", str(cfg)]
        return argv + ["--resume", str(ck), "--out", str(out)], ck, out

    def run(self, argv):
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=child_env(), timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def kill_and_resume(self, tmp_path, config) -> tuple[str, str]:
        """Kill a run past seed 256, resume it to the end, and run it again whole.

        Returns the stdout of the last resumed call and of the whole run,
        after checking that their results files are byte-identical.
        """
        argv, ck, out = self.command(tmp_path, "killed", config)
        child = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=child_env()
        )
        killed = False
        try:
            deadline = time.monotonic() + 600
            while child.poll() is None and time.monotonic() < deadline:
                fields = checkpoint_fields(ck)
                if fields.get("done") == "0" and int(fields["seed_index"]) >= 256:
                    child.kill()
                    killed = True
                    break
                time.sleep(0.01)
        finally:
            if child.poll() is None:
                child.kill()
            child.wait(timeout=60)
        assert killed, "the search finished before it could be killed"

        resumed = ""
        for _ in range(10):
            resumed = self.run(argv)
            if checkpoint_fields(ck)["done"] == "1":
                break
        assert checkpoint_fields(ck)["done"] == "1"

        full_argv, _, full_out = self.command(tmp_path, "uninterrupted", config)
        full = self.run(full_argv)
        assert out.read_bytes() == full_out.read_bytes()
        return resumed, full

    def test_killed_run_resumes_to_the_uninterrupted_listing(self, tmp_path):
        resumed, full = self.kill_and_resume(tmp_path, self.CONFIG)
        assert ": 17 found" in resumed
        assert ": 17 found" in full

    def test_killed_sweep_resumes_to_the_uninterrupted_listing(self, tmp_path):
        resumed, full = self.kill_and_resume(tmp_path, self.SWEEP_CONFIG)
        assert f"n=16: {REFERENCE_COUNTS[16]} classes" in resumed
        assert f"n=16: {REFERENCE_COUNTS[16]} classes" in full


class TestSweep:
    @pytest.mark.parametrize("n", [12, 14])
    def test_a_run_hits_as_its_seeds_one_by_one(self, n, monkeypatch):
        # One screen and one completion tail per block gives each seed the
        # codes, in the order, that a block of its own gives it: for the
        # one block of every seed, and for blocks closed at 10 seeds, each
        # spanning several (C, D) groups and (A, B) table pairs.
        cfg = SearchConfig(n=n)
        for batch in (search_module._BATCH_SEEDS, 10):
            monkeypatch.setattr(search_module, "_BATCH_SEEDS", batch)
            blocks, _ = search_module._work_items(cfg, 1, 0, None)
            work = search_module._SeedWork(cfg)
            hits = 0
            for block in blocks:
                by_block = work.hits(block)
                assert by_block == [work.hits([seed])[0] for seed in block]
                hits += sum(map(len, by_block))
                assert len({search_module._group_key(seed) for seed in block}) > 1
                assert len({(seed.key("A"), seed.key("B")) for seed in block}) > 1
            seeds = [seed for block in blocks for seed in block]
            assert seeds == sorted(generate_seeds(cfg), key=search_module._group_key)
            assert (len(blocks) == 1) == (batch > len(seeds))
            assert hits == REFERENCE_COUNTS[n]

    def test_parallel_sweep_writes_the_serial_files(self, tmp_path):
        # Two workers take blocks of about a quarter of each one's share;
        # the results file and the checkpoint are those of one process.
        cfg = SearchConfig(n=14)
        files = {}
        for jobs in (1, 2):
            ck, rs = tmp_path / f"jobs{jobs}.ckpt", tmp_path / f"jobs{jobs}.txt"
            listing = search(cfg, jobs=jobs, checkpoint_path=str(ck), results_path=str(rs))
            assert len(listing) == REFERENCE_COUNTS[14]
            files[jobs] = (ck.read_bytes(), rs.read_bytes())
        assert files[2] == files[1]
        blocks, chunksize = search_module._work_items(cfg, 2, 0, None)
        assert chunksize == 1 and len(blocks) >= 4

    def test_config_sweep_covers_signed_variants(self):
        squares = SIGNED_SQUARES(38)
        assert Decomposition(8, -4, 8, -3) in squares
        assert all(SearchConfig(n=38, squares=sq).squares == sq for sq in squares)
        # Deterministic order.
        assert list(squares) == sorted(set(squares))

    @pytest.mark.parametrize("n", [8, 10])
    def test_reproduces_enumeration(self, n, reference_codes):
        assert list(sweep(n).codes) == reference_codes[n]

    def test_reproduces_enumeration_n12(self, dfs_oracle):
        assert list(sweep(12).codes) == dfs_oracle(12)

    def test_jobs_deterministic(self):
        for n in (8, 10, 12):
            assert sweep(n, jobs=2).codes == sweep(n).codes, f"n={n}"

    def test_rejects_jobs_below_one(self):
        with pytest.raises(ValueError, match="jobs"):
            sweep(8, jobs=0)

    def test_union_of_configured_searches_matches_sweep(self):
        # The per-config searches pin A's and B's signed sums as well;
        # their union over the full signed sweep is the same class set.
        codes = set()
        for squares in SIGNED_SQUARES(8):
            codes.update(search(SearchConfig(n=8, squares=squares)).codes)
        assert sorted(codes) == list(sweep(8).codes)
