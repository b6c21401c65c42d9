"""Tests for class enumeration, decompositions, and brute-force cross-checks."""

import re

import pytest

from conftest import REFERENCE_COUNTS, load_reference_codes
from turynseq.codec import decode
from turynseq.core import is_canonical, orbit, verify_tt
from turynseq.engine import PairDfs, full_plan
from turynseq.enumeration import (
    ClassListing,
    Decomposition,
    FeasibilityError,
    brute_force_classes,
    class_sum_profiles,
    decompositions,
    enumerate_canonical,
    max_initial_zeros,
    realizability_report,
)


class TestDecompositions:
    def test_n2(self):
        assert decompositions(2) == [
            Decomposition(0, 0, 2, 1),
            Decomposition(2, 2, 0, 1),
        ]

    def test_n10(self):
        assert decompositions(10) == [
            Decomposition(0, 0, 2, 5),
            Decomposition(2, 2, 0, 5),
            Decomposition(2, 2, 4, 3),
            Decomposition(4, 4, 2, 3),
            Decomposition(6, 2, 0, 3),
        ]

    def test_every_solution_satisfies_identity(self):
        for n in range(2, 41, 2):
            decs = decompositions(n)
            assert decs, f"no decompositions at n={n}"
            for a, b, c, d in decs:
                assert a * a + b * b + 2 * c * c + 2 * d * d == 6 * n - 2
                assert a >= b >= 0 and c >= 0 and d >= 0
                assert a % 2 == b % 2 == c % 2 == n % 2
                assert d % 2 == (n - 1) % 2

    def test_exhaustive_against_direct_scan(self):
        # Independent quadruple loop over the full coordinate box.
        for n in (2, 6, 12, 38):
            target = 6 * n - 2
            bound = int(target**0.5) + 1
            direct = sorted(
                Decomposition(a, b, c, d)
                for a in range(bound)
                for b in range(a + 1)
                for c in range(bound)
                for d in range(bound)
                if a * a + b * b + 2 * c * c + 2 * d * d == target
                and a % 2 == b % 2 == c % 2 == n % 2
                and d % 2 == (n - 1) % 2
            )
            assert decompositions(n) == direct

    def test_published_row_sum_magnitudes_are_listed(self):
        # |row sums| (8, 4, 8, 3) of the published length-38 quadruple.
        assert Decomposition(8, 4, 8, 3) in decompositions(38)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            decompositions(7)
        with pytest.raises(ValueError):
            decompositions(0)


class TestClassListing:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ClassListing(6, ("01396", "006d6"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ClassListing(6, ("006d6", "006d6"))

    def test_to_text_roundtrip(self, tmp_path):
        listing = enumerate_canonical(6)
        path = tmp_path / "n6.txt"
        path.write_text(listing.to_text())
        assert path.read_text() == (
            "# n=6\n1 006d6\n2 01396\n3 045ec\n4 0608d\n"
        )


class TestEnumerate:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_matches_reference_listing(self, n, reference_codes):
        listing = enumerate_canonical(n)
        assert list(listing.codes) == reference_codes[n]

    def test_counts_small(self):
        for n in (2, 4, 6, 8, 10):
            assert len(enumerate_canonical(n)) == REFERENCE_COUNTS[n]

    def test_n12_count_and_prefix(self, listing_cache):
        listing = listing_cache(12)
        assert len(listing) == REFERENCE_COUNTS[12]
        assert list(listing.codes[:12]) == load_reference_codes("reference_first12_n12.txt")

    def test_every_representative_is_valid_and_canonical(self):
        for code in enumerate_canonical(8).codes:
            quad = decode(code, 8)
            assert verify_tt(quad)
            assert is_canonical(quad)

    @pytest.mark.parametrize("n", [10, 12])
    def test_equals_full_dfs_oracle(self, n, dfs_oracle, listing_cache):
        assert list(listing_cache(n).codes) == dfs_oracle(n)

    def test_never_walks_the_full_plan(self, monkeypatch, reference_codes):
        real_init = PairDfs.__init__

        def guarded(self, n, plan, *args, **kwargs):
            if list(plan) == full_plan(n):
                raise AssertionError("enumeration built a full-plan walk")
            real_init(self, n, plan, *args, **kwargs)

        monkeypatch.setattr(PairDfs, "__init__", guarded)
        assert list(enumerate_canonical(10).codes) == reference_codes[10]

    def test_jobs_deterministic(self):
        single = enumerate_canonical(10)
        assert enumerate_canonical(10, jobs=2).codes == single.codes
        assert enumerate_canonical(10, jobs=3).codes == single.codes

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            enumerate_canonical(7)
        with pytest.raises(ValueError):
            enumerate_canonical(0)
        with pytest.raises(ValueError):
            enumerate_canonical(10, jobs=0)

    def test_cap_refusal_mentions_estimate(self):
        with pytest.raises(FeasibilityError, match="cap"):
            enumerate_canonical(22)
        with pytest.raises(FeasibilityError, match="roughly"):
            enumerate_canonical(40)
        # The refusal names the sweep that takes a checkpoint and resumes.
        with pytest.raises(FeasibilityError, match=r"search\(SearchConfig\(n=22\)\)"):
            enumerate_canonical(22)

    def test_cap_refusal_estimate_uses_measured_growth(self):
        # About 30x per length step from the sweep's 991 s at n = 20 puts
        # n = 22 at hours; the full walk's growth said two years.
        with pytest.raises(FeasibilityError, match=r"roughly [\d.]+ hours") as exc:
            enumerate_canonical(22)
        hours = float(re.search(r"roughly ([\d.]+) hours", str(exc.value)).group(1))
        assert 1 <= hours < 48


class TestBruteForce:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_agrees_with_walk(self, n, reference_codes):
        count, listing = brute_force_classes(n)
        assert count == REFERENCE_COUNTS[n]
        assert list(listing.codes) == reference_codes[n]

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_lengths_are_empty(self, n):
        count, listing = brute_force_classes(n)
        assert count == 0
        assert listing.codes == ()

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            brute_force_classes(10)


def sum_profile(quad) -> Decomposition:
    """(max |a|, min |a|, |c|, |d|) of a quadruple's row sums, by definition."""
    a, b, c, d = (abs(sum(row.entries)) for row in (quad.a, quad.b, quad.c, quad.d))
    return Decomposition(max(a, b), min(a, b), c, d)


class TestRealizability:
    def test_profile_shortcut_matches_full_orbit(self):
        for n in (2, 4, 6):
            for code in enumerate_canonical(n).codes:
                quad = decode(code, n)
                assert class_sum_profiles(quad) == {
                    sum_profile(member) for member in orbit(quad)
                }

    def test_n6_report(self):
        report = realizability_report(6)
        assert set(report) == set(decompositions(6))
        # The four n=6 classes between them realize every decomposition.
        assert all(report.values())

    def test_n10_all_decompositions_realized(self, listing_cache):
        report = realizability_report(10, listing=listing_cache(10))
        assert all(report.values()), f"unrealized: {[k for k, v in report.items() if not v]}"

    def test_profiles_come_from_orbit_row_sums(self):
        quad = decode("006d6", 6)
        profiles = class_sum_profiles(quad)
        seen = set()
        for member in orbit(quad):
            ra, rb, rc, rd = (abs(r) for r in member.row_sums())
            seen.add(Decomposition(max(ra, rb), min(ra, rb), rc, rd))
        assert profiles == seen


class TestMaxInitialZeros:
    def test_known_small_values(self):
        assert max_initial_zeros(enumerate_canonical(6)) == 2
        assert max_initial_zeros(enumerate_canonical(8)) == 2

    def test_monotone_data(self, listing_cache):
        # At n=12 some representative has at least three leading zero digits.
        assert max_initial_zeros(listing_cache(12)) >= 3
