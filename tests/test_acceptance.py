"""Acceptance gate: one test per headline claim, one PASS/FAIL line each.

Run with -s to see the ACCEPTANCE lines as they complete.  Criteria
marked long (the n=20 class count, the n=38 seed count, the n=8 oracle
cross-check) only run with TURYNSEQ_LONG=1 in the environment; they
take minutes to hours and reproduce the paper rather than guard
against regressions.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    KNOWN_LARGE_CODES,
    REFERENCE_COUNTS,
    TT38_CODE,
    load_reference_codes,
    load_reference_text,
    seed_lag_sum,
)
from turynseq.codec import decode
from turynseq.constructions import base_to_t, tt_to_base, verify_base, verify_t
from turynseq.core import (
    GENERATORS,
    g_apply,
    g_mul,
    is_canonical,
    orbit,
    verify_tt,
)
from turynseq.enumeration import (
    brute_force_classes,
    decompositions,
    realizability_report,
)
from turynseq.search import SearchConfig, generate_seeds
from turynseq.seqs import naf_all

LONG = os.environ.get("TURYNSEQ_LONG") == "1"
long_only = pytest.mark.skipif(not LONG, reason="set TURYNSEQ_LONG=1 to run")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS", flush=True)


class TestAcceptance:
    def test_01_class_counts(self, listing_cache):
        with criterion(1, "class counts 1,1,4,6,43,127 for n<=12"):
            t0 = time.monotonic()
            for n in (2, 4, 6, 8, 10, 12):
                assert len(listing_cache(n)) == REFERENCE_COUNTS[n]
            small = time.monotonic() - t0
            assert small < 120.0, f"n<=12 took {small:.1f}s, budget 120s"

    def test_01_class_count_n14(self, listing_cache):
        with criterion(1, "n=14 class count 186"):
            t0 = time.monotonic()
            assert len(listing_cache(14)) == REFERENCE_COUNTS[14]
            big = time.monotonic() - t0
            assert big < 900.0, f"n=14 took {big:.1f}s, budget 900s"

    def test_01_stretch_n16(self, listing_cache):
        with criterion("1-stretch", "n=16 count 739 and first 12 codes"):
            t0 = time.monotonic()
            assert len(listing_cache(16)) == REFERENCE_COUNTS[16]
            assert time.monotonic() - t0 < 7200.0
            first12 = load_reference_codes("reference_first12_n16.txt")
            assert list(listing_cache(16).codes[:12]) == first12

    @long_only
    def test_01_class_count_n20(self, listing_cache):
        with criterion("1-long", "n=20 class count 913"):
            assert len(listing_cache(20)) == REFERENCE_COUNTS[20]

    def test_02_representative_listings(self, listing_cache):
        with criterion(2, "byte-exact representative listings for n<=12"):
            for n in (2, 4, 6, 8, 10):
                assert listing_cache(n).to_text() == load_reference_text(
                    f"reference_n{n}.txt"
                )
            first12 = load_reference_codes("reference_first12_n12.txt")
            assert list(listing_cache(12).codes[:12]) == first12

    def test_02_representative_listing_n14(self, listing_cache):
        with criterion(2, "first 12 codes at n=14"):
            first12 = load_reference_codes("reference_first12_n14.txt")
            assert list(listing_cache(14).codes[:12]) == first12

    def test_03_oracle_equivalence(self, listing_cache):
        with criterion(3, "brute-force oracle equals enumeration"):
            t0 = time.monotonic()
            for n in (2, 4, 6):
                count, listing = brute_force_classes(n)
                assert count == len(listing_cache(n))
                assert listing.codes == listing_cache(n).codes
            assert time.monotonic() - t0 < 60.0
            if LONG:
                count, listing = brute_force_classes(8)
                assert listing.codes == listing_cache(8).codes

    def test_04_unique_canonical_member_per_orbit(self, listing_cache):
        with criterion(4, "exactly one canonical member per orbit"):
            for n in (2, 4, 6):
                for code in listing_cache(n).codes:
                    members = orbit(decode(code, n))
                    assert sum(1 for m in members if is_canonical(m)) == 1

    def test_05_odd_n_emptiness(self):
        with criterion(5, "no valid quadruples at n=3,5"):
            for n in (3, 5):
                count, listing = brute_force_classes(n)
                assert count == 0
                assert len(listing) == 0

    def test_06_known_sequence_verification(self):
        with criterion(6, "published n=26..38 codes verify"):
            t0 = time.monotonic()
            codes = dict(KNOWN_LARGE_CODES)
            codes[38] = TT38_CODE
            for n, code in codes.items():
                quad = decode(code, n)
                assert verify_tt(quad)
                assert is_canonical(quad)
            assert time.monotonic() - t0 < 1.0

    def test_07_construction_chain(self):
        with criterion(7, "base sequences 75,75,38,38 and T-sequences 113"):
            quad = decode(TT38_CODE, 38)
            bs = tt_to_base(quad)
            assert bs.lengths == (75, 75, 38, 38)
            assert verify_base(bs)
            ts = base_to_t(bs)
            assert len(ts) == 113
            assert verify_t(ts)

    def test_08_spectral_identity(self, listing_cache):
        with criterion(8, "f_A+f_B+2f_C+2f_D = 6n-2 within 1e-6"):
            rng = random.Random(58)
            thetas = np.array([rng.uniform(0.0, np.pi) for _ in range(1000)])
            for code in listing_cache(10).codes:
                quad = decode(code, 10)
                total = np.zeros_like(thetas)
                for seq, w in ((quad.a, 1), (quad.b, 1), (quad.c, 2), (quad.d, 2)):
                    prof = np.array(naf_all(seq), dtype=float)
                    js = np.arange(1, len(prof))
                    f = prof[0] + 2.0 * (prof[1:] @ np.cos(np.outer(js, thetas)))
                    total += w * f
                assert np.max(np.abs(total - 58.0)) < 1e-6

    def test_09_group_sanity(self, listing_cache):
        with criterion(9, "generator closure is 1024; action respects product"):
            closure = set(GENERATORS)
            frontier = list(closure)
            while frontier:
                nxt = []
                for g in frontier:
                    for gen in GENERATORS:
                        h = g_mul(g, gen)
                        if h not in closure:
                            closure.add(h)
                            nxt.append(h)
                frontier = nxt
            assert len(closure) == 1024
            elements = sorted(closure, key=lambda g: g.bits)
            rng = random.Random(1024)
            reps = [decode(c, 8) for c in listing_cache(8).codes]
            for _ in range(100):
                g, h = rng.choice(elements), rng.choice(elements)
                s = g_apply(rng.choice(elements), rng.choice(reps))
                assert g_apply(g_mul(g, h), s) == g_apply(g, g_apply(h, s))

    def test_10_every_decomposition_realized(self, listing_cache):
        with criterion(10, "all row-sum decompositions realized for n<=12"):
            for n in (2, 4, 6, 8, 10, 12):
                report = realizability_report(n, listing=listing_cache(n))
                assert set(report) == set(decompositions(n))
                assert all(report.values())

    @long_only
    def test_11_seed_count_reproduction(self):
        with criterion(11, "n=38 boundary seed count 23,472,940"):
            cfg = SearchConfig(n=38, squares=(8, -4, 8, -3), head_len=7)
            count = sum(1 for _ in generate_seeds(cfg))
            assert count == 23_472_940

    def test_11_seed_generation_starts_when_not_long(self):
        # The full n=38 seed count is a multi-hour run (long mode only);
        # the default gate still proves the generator works at that size.
        if LONG:
            pytest.skip("covered by the full count in long mode")
        with criterion(11, "n=38 seed stream starts (count gated long)"):
            cfg = SearchConfig(n=38, squares=(8, -4, 8, -3), head_len=7)
            sample = list(itertools.islice(generate_seeds(cfg), 100))
            assert len(sample) == 100
            for seed in sample:
                for s in range(seed.n - seed.head_len, seed.n):
                    assert seed_lag_sum(seed, s) == 0
