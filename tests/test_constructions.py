"""Tests for the base-sequence and T-sequence derivation chain."""

import pytest

from conftest import PUBLISHED_CODES, TT38_A, TT38_B, TT38_C, TT38_D, single_flips
from turynseq.codec import decode
from turynseq.constructions import (
    BaseSequences,
    TSequences,
    base_to_t,
    tt_to_base,
    verify_base,
    verify_t,
)
from turynseq.core import TurynQuad
from turynseq.seqs import BinarySeq, TernarySeq, naf_all


def tt2() -> TurynQuad:
    return TurynQuad.from_pm("++", "++", "+-", "+")


class TestTtToBase:
    def test_tt2_rows_and_lengths(self):
        bs = tt_to_base(tt2())
        assert bs.lengths == (3, 3, 2, 2)
        assert bs.p.entries == (1, -1, 1)
        assert bs.q.entries == (1, -1, -1)
        assert bs.r.entries == (1, 1)
        assert bs.s.entries == (1, 1)

    def test_tt2_lag_sums_by_hand(self):
        bs = tt_to_base(tt2())
        profs = [naf_all(x) for x in (bs.p, bs.q, bs.r, bs.s)]
        assert [p[1] for p in profs] == [-2, 0, 1, 1]
        assert [p[2] if len(p) > 2 else 0 for p in profs] == [1, -1, 0, 0]

    def test_tt38_lengths(self):
        quad = TurynQuad.from_pm(TT38_A, TT38_B, TT38_C, TT38_D)
        bs = tt_to_base(quad)
        assert bs.lengths == (75, 75, 38, 38)
        assert verify_base(bs)

    def test_invalid_quad_rejected(self):
        broken = TurynQuad.from_pm("+-", "++", "+-", "+")
        with pytest.raises(ValueError, match="lag"):
            tt_to_base(broken)


class TestVerifyBase:
    def test_lag0_counts_entries(self):
        bs = tt_to_base(tt2())
        total0 = sum(naf_all(x)[0] for x in (bs.p, bs.q, bs.r, bs.s))
        assert total0 == 2 * (3 + 2)

    def test_single_sign_swap_breaks(self):
        bs = tt_to_base(tt2())
        swapped = BaseSequences(
            p=BinarySeq((-1, -1, 1)), q=bs.q, r=bs.r, s=bs.s
        )
        assert not verify_base(swapped)

    @pytest.mark.parametrize("n", sorted(PUBLISHED_CODES))
    def test_every_single_flip_of_published_base_fails(self, n):
        bs = tt_to_base(decode(PUBLISHED_CODES[n], n))
        for r, k, rows in single_flips((bs.p, bs.q, bs.r, bs.s)):
            assert not verify_base(BaseSequences(*rows)), (r, k)

    def test_pair_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            BaseSequences(
                p=BinarySeq((1, 1)),
                q=BinarySeq((1,)),
                r=BinarySeq((1,)),
                s=BinarySeq((1,)),
            )


class TestBaseToT:
    def test_tt2_rows_frozen(self):
        ts = base_to_t(tt_to_base(tt2()))
        assert ts.t1.entries == (1, -1, 0, 0, 0)
        assert ts.t2.entries == (0, 0, 1, 0, 0)
        assert ts.t3.entries == (0, 0, 0, 1, 1)
        assert ts.t4.entries == (0, 0, 0, 0, 0)
        assert verify_t(ts)

    def test_tt38_length(self):
        quad = TurynQuad.from_pm(TT38_A, TT38_B, TT38_C, TT38_D)
        ts = base_to_t(tt_to_base(quad))
        assert len(ts) == 113
        assert verify_t(ts)

    def test_support_partition_layout(self):
        quad = TurynQuad.from_pm(TT38_A, TT38_B, TT38_C, TT38_D)
        ts = base_to_t(tt_to_base(quad))
        m = 75
        for row in (ts.t1, ts.t2):
            assert all(v == 0 for v in row.entries[m:])
        for row in (ts.t3, ts.t4):
            assert all(v == 0 for v in row.entries[:m])

    def test_invalid_base_rejected(self):
        bad = BaseSequences(
            p=BinarySeq((1, 1, 1)),
            q=BinarySeq((1, 1, 1)),
            r=BinarySeq((1, 1)),
            s=BinarySeq((1, 1)),
        )
        with pytest.raises(ValueError, match="base-sequence"):
            base_to_t(bad)


class TestVerifyT:
    def test_overlapping_support_fails(self):
        ts = base_to_t(tt_to_base(tt2()))
        bumped = TSequences(
            t1=ts.t1,
            t2=ts.t2,
            t3=ts.t3,
            t4=TernarySeq((0, 0, 0, 0, 1)),
        )
        assert not verify_t(bumped)

    def test_uncovered_position_fails(self):
        ts = TSequences(
            t1=TernarySeq((1, 0)),
            t2=TernarySeq((0, 0)),
            t3=TernarySeq((0, 0)),
            t4=TernarySeq((0, 0)),
        )
        assert not verify_t(ts)

    def test_bad_autocorrelation_fails(self):
        # Positions are covered exactly once, but lag 1 sums to +1.
        ts = TSequences(
            t1=TernarySeq((1, 1)),
            t2=TernarySeq((0, 0)),
            t3=TernarySeq((0, 0)),
            t4=TernarySeq((0, 0)),
        )
        assert not verify_t(ts)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            TSequences(
                t1=TernarySeq((1,)),
                t2=TernarySeq((0, 1)),
                t3=TernarySeq((0, 0)),
                t4=TernarySeq((0, 0)),
            )


class TestSweeps:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_full_chain_over_all_classes(self, n, listing_cache):
        for code in listing_cache(n).codes:
            quad = decode(code, n)
            bs = tt_to_base(quad)
            assert bs.lengths == (2 * n - 1, 2 * n - 1, n, n)
            assert verify_base(bs)
            ts = base_to_t(bs)
            assert len(ts) == 3 * n - 1
            assert verify_t(ts)
            nonzeros = sum(
                sum(1 for v in row.entries if v != 0) for row in ts.rows
            )
            assert nonzeros == len(ts)
