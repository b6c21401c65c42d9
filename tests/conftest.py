"""Shared regression data.

Reference listings live in tests/data as plain listing files.  The
constants below are independently published values used as oracles:
the per-n class counts, six known canonical codes for n = 26..36, and
one fully displayed TT(38) together with its compact code and row sums.
The per-row canonical clauses are written out here as the paper states
them, one function per row kind, as the oracle of the program's single
sign-parametrised clause.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import turynseq
from turynseq.codec import encode, read_listing
from turynseq.core import TurynQuad, is_canonical, verify_tt
from turynseq.engine import PairDfs, full_plan
from turynseq.seqs import BinarySeq, TernarySeq, naf_all

DATA_DIR = Path(__file__).parent / "data"

# Number of equivalence classes for each even n up to 32.
REFERENCE_COUNTS = {
    2: 1,
    4: 1,
    6: 4,
    8: 6,
    10: 43,
    12: 127,
    14: 186,
    16: 739,
    18: 675,
    20: 913,
    22: 3105,
    24: 3523,
    26: 3753,
    28: 4161,
    30: 4500,
    32: 6226,
}

# Known canonical compact codes for n = 26, 28, 30, 32, 34, 36.
KNOWN_LARGE_CODES = {
    26: "0560110f0f9ec89d54a6867dc",
    28: "0005189b4d2e583e5571efc9196",
    30: "00788193c52741c99e060a73a22d5",
    32: "005088b3dc4d69db0a13438a6c2e916",
    34: "052351540cf016cfbe5809958b32825bc",
    36: "000f0f51c9bbd750cb048e3902185ca6a96",
}

# A fully displayed TT(38): sign rows, compact code, and row sums (8, -4, 8, -3).
TT38_A = "++++--+++++-+++---+-++-+++++-++------+"
TT38_B = "+-+++----++-+-++--------+---+++-+-++-+"
TT38_C = "+++-+-+++++-+++-+----+++-+--+--+++-++-"
TT38_D = "+--++---++--++-+----+-+---+-++++-+--+"
TT38_CODE = "05128f55401f041adf7f65c53567822c9cb9c"
TT38_ROW_SUMS = (8, -4, 8, -3)

# The seven published codes for n = 26, 28, ..., 38, by n.
PUBLISHED_CODES = {**KNOWN_LARGE_CODES, 38: TT38_CODE}


def ab_clause(x: tuple[int, ...]) -> bool:
    """Clause (i) for an A or B row (x_1 = x_n = +1), then clause (ii)/(iii)."""
    n = len(x)
    if x[0] != 1 or x[n - 1] != 1:
        return False
    for i in range(n):
        if x[i] != x[n - 1 - i]:
            return x[i] == 1
    return True


def c_clause(c: tuple[int, ...]) -> bool:
    """Clause (i) for C (c_1 = +1), then clause (iv)."""
    n = len(c)
    if c[0] != 1:
        return False
    for i in range(n):
        if c[i] == c[n - 1 - i]:
            return c[i] == 1
    return True


def d_clause(d: tuple[int, ...]) -> bool:
    """Clause (i) for D (d_1 = +1), then clause (v); D has length n - 1."""
    m = len(d)
    if d[0] != 1:
        return False
    eps = d[m - 1]
    for i in range(1, m + 1):  # 1-based scan over positions of D
        if d[i - 1] * d[m - i] != eps:
            return d[i - 1] == 1
    return True


# The oracle clause of each row kind.
ROW_ORACLES = {"A": ab_clause, "B": ab_clause, "C": c_clause, "D": d_clause}


def load_reference_text(name: str) -> str:
    return (DATA_DIR / name).read_text()


def load_reference_codes(name: str) -> list[str]:
    return [code for _, code in read_listing(load_reference_text(name))]


def seed_lag_sum(seed, s: int) -> int:
    """N_A + N_B + 2 N_C + 2 N_D at lag s over a seed's determined entries.

    Undetermined entries are 0, so they add nothing; D (length n - 1)
    has no lag n - 1.
    """
    total = 0
    for row, weight in zip((seed.a, seed.b, seed.c, seed.d), (1, 1, 2, 2)):
        nafs = naf_all(TernarySeq(row))
        if s < len(nafs):
            total += weight * nafs[s]
    return total


def pm_quads(n: int):
    """Hypothesis strategy: +-1 quadruples of lengths (n, n, n, n - 1), valid or not."""
    row = lambda m: st.tuples(*[st.sampled_from((1, -1))] * m).map(BinarySeq)
    return st.builds(TurynQuad, row(n), row(n), row(n), row(n - 1))


def single_flips(rows):
    """(row, entry, rows with that one entry negated) for every entry of `rows`.

    Negating x_k moves N_X(s) by -2 x_k (x_{k-s} + x_{k+s}), with x zero
    outside X.  Unless k is the centre of an odd-length row, the lag
    s = max(k, len(X) - 1 - k) gives x_k exactly one partner, so N_X moves
    by ±2 there and a vanishing weighted lag sum no longer vanishes.  The
    centre entry has two partners at every lag; its flip is checked, not
    implied.
    """
    for r, row in enumerate(rows):
        e = row.entries
        for k in range(len(e)):
            changed = list(rows)
            changed[r] = BinarySeq(e[:k] + (-e[k],) + e[k + 1 :])
            yield r, k, changed


def full_dfs_codes(n: int) -> list[str]:
    """Sorted codes of the full-plan pairwise walk, the enumeration oracle.

    With the full plan the walk's leaves are exactly the canonical
    quadruples; each is checked with `verify_tt` and `is_canonical`.
    """
    eng = PairDfs(n, full_plan(n))
    codes = []
    for _ in eng.walk():
        quad = TurynQuad(*(BinarySeq(row) for row in eng.snapshot()))
        assert verify_tt(quad), f"full walk produced an invalid quadruple: {quad}"
        assert is_canonical(quad), f"full walk produced a non-canonical quadruple: {quad}"
        codes.append(encode(quad, form="compact"))
    return sorted(codes)


def grid_spectra(rows, grid_points):
    """f(theta_j) = |X(e^{i theta_j})|^2 of every row at theta_j = j*pi/grid_points, j >= 1.

    An FFT, independent of the search's NAF-based spectra.
    """
    return np.abs(np.fft.rfft(rows, 2 * grid_points, axis=1)[:, 1 : grid_points + 1]) ** 2


def per_row_pairs(c_bucket, d_bucket, limit, grid_points):
    """(ic, id) of the bucket pairs with f_C + f_D <= limit on the full grid, row-major.

    The per-C-row loop the search once ran, kept as the oracle of its
    vectorised pair screen; the spectra come from the bucket rows.
    """
    d_spectra = grid_spectra(d_bucket.rows, grid_points)
    partners = [
        np.nonzero((spectrum + d_spectra).max(axis=1) <= limit)[0]
        for spectrum in grid_spectra(c_bucket.rows, grid_points)
    ]
    ic = np.repeat(np.arange(len(partners)), [ids.size for ids in partners])
    return ic, np.concatenate(partners)


def child_env():
    """Environment for a child interpreter that imports this checkout's turynseq."""
    env = os.environ.copy()
    src = str(Path(turynseq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def reference_codes():
    """Full reference listings keyed by length, for n <= 10."""
    return {n: load_reference_codes(f"reference_n{n}.txt") for n in (2, 4, 6, 8, 10)}


@pytest.fixture(scope="session")
def dfs_oracle():
    """Memoized `full_dfs_codes`, shared across tests (n = 12 takes ~12 s)."""
    cache = {}

    def get(n: int) -> list[str]:
        if n not in cache:
            cache[n] = full_dfs_codes(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def listing_cache():
    """Memoized `enumerate_canonical`, shared across tests (n = 16 takes ~3 s)."""
    from turynseq.enumeration import enumerate_canonical

    cache = {}

    def get(n: int):
        if n not in cache:
            cache[n] = enumerate_canonical(n)
        return cache[n]

    return get
