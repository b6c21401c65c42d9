"""Sequence kernel tests.

Expected NAF values come from a literal zero-padded summation oracle,
and spectral values are cross-checked against a complex-exponential
evaluation of |A(e^{i*theta})|^2; neither oracle shares code with the
implementation.
"""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turynseq import (
    BinarySeq,
    TernarySeq,
    naf_all,
    spectrum_value,
)
from turynseq.seqs import concat, half_combine, naf_rows


def naf_oracle(entries, i):
    # Literal definition: N(i) = sum_j a_j a_{i+j} with zero padding.
    m = len(entries)
    padded = {j: entries[j - 1] for j in range(1, m + 1)}
    return sum(padded.get(j, 0) * padded.get(j + i, 0) for j in range(-2 * m, 2 * m + 1))


def spectrum_oracle(entries, theta):
    # |A(e^{i*theta})|^2 with A(x) = sum_k a_k x^(k-1).
    z = cmath.exp(1j * theta)
    return abs(sum(v * z**k for k, v in enumerate(entries))) ** 2


def row_matrices(m, values):
    """Strategy: (count, m) int8 matrices over `values`, count up to 6."""
    row = st.lists(st.sampled_from(values), min_size=m, max_size=m)
    return st.lists(row, max_size=6).map(
        lambda rows: np.array(rows, np.int8).reshape(len(rows), m)
    )


def kernel_inputs(m):
    """Strategy: {-1, +1} or {-1, 0, +1} matrices with m columns."""
    return st.one_of(row_matrices(m, (1, -1)), row_matrices(m, (1, 0, -1)))


def random_binary(rng, m):
    return BinarySeq(tuple(rng.choice((1, -1)) for _ in range(m)))


class TestConstruction:
    def test_entries_validated(self):
        with pytest.raises(ValueError):
            BinarySeq((1, 0, -1))
        with pytest.raises(ValueError):
            BinarySeq((2,))
        with pytest.raises(ValueError):
            BinarySeq(())
        with pytest.raises(ValueError):
            TernarySeq((1, 2))

    def test_empty_ternary_allowed(self):
        assert len(TernarySeq(())) == 0

    def test_pm_roundtrip(self):
        s = BinarySeq.from_pm("++-+")
        assert s.entries == (1, 1, -1, 1)
        assert str(s) == "++-+"
        t = TernarySeq.from_pm("+0-")
        assert t.entries == (1, 0, -1)
        assert str(t) == "+0-"

    def test_pm_parse_error_reports_position(self):
        with pytest.raises(ValueError, match="position 3"):
            BinarySeq.from_pm("++x+")
        with pytest.raises(ValueError, match="position 2"):
            BinarySeq.from_pm("+0+")  # zero not allowed in a binary sequence


class TestNaf:
    def test_constant_sequence(self):
        assert naf_all(BinarySeq((1, 1, 1, 1))) == (4, 3, 2, 1)

    def test_frozen_example(self):
        assert naf_all(BinarySeq.from_pm("++-+")) == (4, -1, 0, 1)

    def test_last_lag_is_endpoint_product(self):
        a = BinarySeq.from_pm("++-+-+-+")
        assert naf_all(a)[7] == a.entries[0] * a.entries[7] == 1

    def test_matches_oracle_on_random_sequences(self):
        rng = random.Random(12345)
        for _ in range(200):
            s = random_binary(rng, rng.randrange(1, 20))
            prof = naf_all(s)
            for i in range(len(s)):
                assert prof[i] == naf_oracle(s.entries, i)

    def test_ternary_naf_matches_oracle(self):
        rng = random.Random(777)
        for _ in range(50):
            m = rng.randrange(1, 15)
            t = TernarySeq(tuple(rng.choice((-1, 0, 1)) for _ in range(m)))
            prof = naf_all(t)
            for i in range(m):
                assert prof[i] == naf_oracle(t.entries, i)

    def test_profile_invariants(self):
        rng = random.Random(99)
        for _ in range(50):
            m = rng.randrange(1, 16)
            s = random_binary(rng, m)
            prof = naf_all(s)
            assert prof[0] == m
            for i in range(m):
                assert abs(prof[i]) <= m - i
                assert (prof[i] - (m - i)) % 2 == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            naf_all(TernarySeq(()))

    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 40).flatmap(kernel_inputs))
    def test_row_matrix_kernel_matches_oracle(self, rows):
        nafs = naf_rows(rows)
        assert nafs.dtype == np.int16
        assert nafs.shape == (rows.shape[0], rows.shape[1] - 1)
        for row, prof in zip(rows.tolist(), nafs.tolist()):
            assert prof == [naf_oracle(row, i) for i in range(1, len(row))]
        # One trailing zero column keeps lags 1..L-1 and adds a lag L
        # that reads 0; D in a Turyn quadruple is padded this way.
        padded = naf_rows(np.pad(rows, ((0, 0), (0, 1))))
        assert np.array_equal(padded[:, :-1], nafs)
        assert not padded[:, -1].any()


class TestTransforms:
    def test_frozen_examples(self):
        assert BinarySeq.from_pm("+-+").reverse() == BinarySeq.from_pm("+-+")
        assert BinarySeq.from_pm("++++").alternate() == BinarySeq.from_pm("+-+-")
        assert BinarySeq.from_pm("++-+").negate() == BinarySeq.from_pm("--+-")
        # Oracles by index: -A, A' and A* entry by entry.
        s = BinarySeq.from_pm("++-+--+")
        m = len(s)
        assert s.negate().entries == tuple(-s.entries[i] for i in range(m))
        assert s.reverse().entries == tuple(s.entries[m - 1 - i] for i in range(m))
        assert s.alternate().entries == tuple((-1) ** i * s.entries[i] for i in range(m))

    def test_involutions(self):
        rng = random.Random(4242)
        for _ in range(50):
            s = random_binary(rng, rng.randrange(1, 20))
            for move in (BinarySeq.negate, BinarySeq.reverse, BinarySeq.alternate):
                assert move(move(s)) == s

    def test_naf_invariance_under_negate_and_reverse(self):
        rng = random.Random(2024)
        for _ in range(50):
            s = random_binary(rng, rng.randrange(1, 20))
            prof = naf_all(s)
            assert naf_all(s.negate()) == prof
            assert naf_all(s.reverse()) == prof

    def test_alternation_flips_odd_lags(self):
        rng = random.Random(31337)
        for _ in range(50):
            s = random_binary(rng, rng.randrange(1, 20))
            prof = naf_all(s)
            alt = naf_all(s.alternate())
            for i in range(len(s)):
                assert alt[i] == (-1) ** i * prof[i]


class TestRowSum:
    def test_frozen_examples(self):
        assert sum(BinarySeq.from_pm("++").entries) == 2
        assert sum(BinarySeq.from_pm("+-").entries) == 0

    def test_parity(self):
        rng = random.Random(5)
        for _ in range(50):
            s = random_binary(rng, rng.randrange(1, 20))
            assert sum(s.entries) % 2 == len(s) % 2


class TestSpectrum:
    def test_theta_zero_is_squared_row_sum(self):
        rng = random.Random(8)
        for _ in range(20):
            s = random_binary(rng, rng.randrange(1, 20))
            assert spectrum_value(s, 0.0) == pytest.approx(sum(s.entries) ** 2)

    def test_plus_plus_vanishes_at_pi(self):
        assert spectrum_value(BinarySeq.from_pm("++"), math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_quarter_turn_value(self):
        # N = [4,-1,0,1]; f(pi/2) = 4 + 2*(-1)*0 + 2*0*(-1) + 2*1*0 = 4,
        # which agrees with |1 + i - i^2 + i^3|^2 = |2|^2.
        assert spectrum_value(BinarySeq.from_pm("++-+"), math.pi / 2) == pytest.approx(4.0)

    def test_matches_complex_oracle(self):
        rng = random.Random(271828)
        for _ in range(100):
            s = random_binary(rng, rng.randrange(1, 24))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            got = spectrum_value(s, theta)
            want = spectrum_oracle(s.entries, theta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_nonnegative_within_tolerance(self):
        rng = random.Random(161803)
        for _ in range(100):
            m = rng.randrange(1, 24)
            s = random_binary(rng, m)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            assert spectrum_value(s, theta) >= -1e-9 * m


class TestHalfCombine:
    def test_frozen_examples(self):
        p = BinarySeq.from_pm("++")
        assert half_combine(p, p, 1) == TernarySeq((1, 1))
        assert half_combine(p, p, -1) == TernarySeq((0, 0))
        a = BinarySeq.from_pm("+-+")
        b = BinarySeq.from_pm("+--")
        assert half_combine(a, b, -1) == TernarySeq((0, 0, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            half_combine(BinarySeq.from_pm("++"), BinarySeq.from_pm("+"), 1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            half_combine(BinarySeq.from_pm("+"), BinarySeq.from_pm("+"), 0)


class TestConcat:
    def test_binary_concat(self):
        assert concat(BinarySeq.from_pm("+"), BinarySeq.from_pm("-")) == BinarySeq.from_pm("+-")
        got = concat(BinarySeq.from_pm("+-+"), BinarySeq.from_pm("+--"))
        assert len(got) == 6

    def test_empty_identity(self):
        t = TernarySeq.from_pm("+0-")
        assert concat(t, TernarySeq(())) == t
        assert concat(TernarySeq(()), t) == t

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            concat(BinarySeq.from_pm("+"), TernarySeq.from_pm("+"))
