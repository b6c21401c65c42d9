"""Sequences over {+1,-1} and {0,+1,-1} with nonperiodic autocorrelation.

The nonperiodic autocorrelation function (NAF) of a finite sequence
A = a_1, ..., a_m is

    N_A(i) = sum_j a_j * a_{i+j},

where entries outside 1..m count as zero.  Only the lags 0..m-1 are
stored: N_A(-i) = N_A(i), and N_A(i) = 0 for i >= m, are implied and
never materialized.

Three elementary transforms act on binary sequences: negation -A,
reversal A', and alternation A* (the sign of every second entry is
flipped).  Negation and reversal preserve the NAF; alternation flips
the sign of every odd lag:

    N_{-A} = N_{A'} = N_A,        N_{A*}(i) = (-1)^i N_A(i).

The spectral value

    f_A(theta) = N_A(0) + 2 sum_{j>=1} N_A(j) cos(j*theta)

equals |A(e^{i*theta})|^2 where A(x) = sum_k a_k x^{k-1}, so it is
nonnegative up to floating rounding.

`naf_rows` is the one NAF kernel: every autocorrelation in the package,
from `naf_all` and the lag conditions of `naf_vanishes` to the pool
spectra, is computed by it.  `naf_sums` is the one weighting of several
rows' NAFs: `verify_tt`, the batched check of the search's completions
and the start state of the pairwise walk all read it.  `spectrum_nafs`
is the one spectrum formula.  A sequence shorter than the others (D in
a Turyn quadruple) is padded with trailing zeros, which leaves its NAF
unchanged and makes the lags it lacks read 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PM_CHARS = {"+": 1, "-": -1, "0": 0}


@dataclass(frozen=True)
class BinarySeq:
    """Immutable sequence with entries in {+1, -1}, length >= 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(v) for v in self.entries)
        if len(entries) < 1:
            raise ValueError("binary sequence needs at least one entry")
        for v in entries:
            if v != 1 and v != -1:
                raise ValueError(f"binary sequence entries must be +1 or -1, got {v}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_pm(cls, text: str) -> "BinarySeq":
        """Parse a '+'/'-' display string, e.g. '++-+'."""
        return cls(tuple(_parse_pm(text, allow_zero=False)))

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self.entries)

    def negate(self) -> "BinarySeq":
        return BinarySeq(tuple(-v for v in self.entries))

    def reverse(self) -> "BinarySeq":
        return BinarySeq(self.entries[::-1])

    def alternate(self) -> "BinarySeq":
        # a_1, -a_2, a_3, -a_4, ...: odd positions (1-based) keep their sign.
        return BinarySeq(tuple(v if i % 2 == 0 else -v for i, v in enumerate(self.entries)))


@dataclass(frozen=True)
class TernarySeq:
    """Immutable sequence with entries in {0, +1, -1}; may be empty."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(v) for v in self.entries)
        for v in entries:
            if v != 0 and v != 1 and v != -1:
                raise ValueError(f"ternary sequence entries must be 0, +1 or -1, got {v}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_pm(cls, text: str) -> "TernarySeq":
        """Parse a '+'/'-'/'0' display string, e.g. '+0-'."""
        return cls(tuple(_parse_pm(text, allow_zero=True)))

    @classmethod
    def zeros(cls, m: int) -> "TernarySeq":
        return cls((0,) * m)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in self.entries)


def _parse_pm(text: str, allow_zero: bool) -> list[int]:
    values = []
    for pos, ch in enumerate(text, start=1):
        if ch not in _PM_CHARS or (ch == "0" and not allow_zero):
            raise ValueError(f"bad sequence character {ch!r} at position {pos}")
        values.append(_PM_CHARS[ch])
    return values


Seq = BinarySeq | TernarySeq


def naf_all(seq: Seq) -> tuple[int, ...]:
    """All stored NAF values N(0), N(1), ..., N(m-1) of a length-m sequence."""
    e = seq.entries
    if not e:
        raise ValueError("NAF needs a nonempty sequence")
    return (sum(v * v for v in e), *naf_rows(np.array([e], np.int8))[0].tolist())


def naf_rows(rows: np.ndarray) -> np.ndarray:
    """N(1), ..., N(L-1) of every row of a (count, L) {0, -1, +1} matrix, as int16."""
    count, length = rows.shape
    padded = np.zeros((count, 2 * length - 1), np.int16)
    padded[:, :length] = rows
    # windows[c, s, j] = padded[c, s + j], a strided view: nothing is copied,
    # and windows[:, 0] is the row itself.  It is built directly: on small
    # matrices, sliding_window_view's argument handling costs about ten
    # times as much as the view.
    row_stride, entry_stride = padded.strides
    windows = np.ndarray(
        (count, length, length), np.int16, padded, 0, (row_stride, entry_stride, entry_stride)
    )
    return np.einsum("cj,csj->cs", windows[:, 0], windows[:, 1:])


def naf_sums(rows, weights) -> np.ndarray:
    """sum_k weights[k] * N_{rows[k][i]}(s) for every member i of a batch and lag s = 1..L-1.

    `rows[k]` holds the k-th sequence of every member: a (count, L_k)
    {0, -1, +1} matrix, or `count` entry tuples.  Shorter sequences are
    padded with trailing zeros.  Returns a (count, L - 1) int array.
    """
    length = max(len(seqs[0]) for seqs in rows)
    count = len(rows[0])
    padded = np.zeros((len(rows), count, length), np.int8)
    for k, seqs in enumerate(rows):
        padded[k, :, : len(seqs[0])] = seqs
    nafs = naf_rows(padded.reshape(-1, length)).reshape(len(rows), -1)
    return (np.asarray(weights) @ nafs).reshape(count, length - 1)


def naf_vanishes(rows, weights) -> np.ndarray:
    """Per member of a batch: does every weighted lag sum of `naf_sums` vanish?

    Returns a (count,) bool array.
    """
    return ~np.any(naf_sums(rows, weights), axis=1)


def spectrum_nafs(n0, nafs: np.ndarray, cos_table: np.ndarray) -> np.ndarray:
    """f(theta_j) = N(0) + 2 sum_s N(s) cos(s theta_j) from N(0) and the rows of `nafs`.

    `nafs` is a (count, L - 1) matrix of N(1), ..., N(L-1), `n0` the N(0)
    of all rows or of each, and `cos_table[s, j]` holds cos(s theta_j)
    for the lags s = 0..L-1; one matrix product of
    (N(0), 2 N(1), ..., 2 N(L-1)) with the table sums them.  f is linear
    in the NAF, so a NAF sum gives the sum of the spectra.
    """
    count = len(nafs)
    # numpy multiplies a single row by gemv, which rounds differently from
    # gemm in the last bits; a second copy of it keeps every row's values
    # the same whatever rows share its product.
    weighted = np.empty((count + (count == 1), nafs.shape[1] + 1))
    weighted[:, 0] = n0
    weighted[:, 1:] = nafs
    weighted[:, 1:] *= 2
    return (weighted @ cos_table)[:count]


def spectrum_value(seq: Seq, theta: float) -> float:
    """Evaluate f(theta) = N(0) + 2 sum_{j>=1} N(j) cos(j*theta).

    One row of `spectrum_nafs`, so it agrees with the pool spectra; equals
    |A(e^{i*theta})|^2 up to rounding, hence nonnegative.
    """
    n0, *nafs = naf_all(seq)
    cos_column = np.cos(np.arange(len(seq))[:, None] * theta)
    return float(spectrum_nafs(n0, np.array([nafs]), cos_column)[0, 0])


def half_combine(a: BinarySeq, b: BinarySeq, sign: int) -> TernarySeq:
    """Entrywise (a_i + sign*b_i)/2, a {0,+1,-1} sequence; sign is +1 or -1."""
    if sign != 1 and sign != -1:
        raise ValueError("sign must be +1 or -1")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return TernarySeq(tuple((x + sign * y) // 2 for x, y in zip(a.entries, b.entries)))


def concat(a, b):
    """Concatenate two sequences of the same kind."""
    if type(a) is not type(b):
        raise TypeError(f"cannot concatenate {type(a).__name__} with {type(b).__name__}")
    return type(a)(a.entries + b.entries)
