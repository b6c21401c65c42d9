"""Derivation chain from TT(n) to base sequences to T-sequences.

A verified quadruple (A; B; C; D) of lengths (n, n, n, n-1) yields base
sequences (C~D, C~-D; A; B) of lengths (2n-1, 2n-1, n, n), and any base
sequences (P, Q; R, S) of lengths (m, m, n2, n2) yield the four ternary
sequences ((P+Q)/2~0, (P-Q)/2~0, 0~(R+S)/2, 0~(R-S)/2) of length m+n2
with exactly one nonzero entry per position.  Each stage has a verifier
checking the defining vanishing-autocorrelation condition.
"""

from dataclasses import dataclass

from .core import TurynQuad, verify_tt
from .seqs import BinarySeq, TernarySeq, concat, half_combine, naf_vanishes


@dataclass(frozen=True)
class BaseSequences:
    """Quadruple (P, Q; R, S) whose combined autocorrelations vanish.

    P and Q share one length and R and S another; the combined lag-0
    value is forced to 2*(len(P) + len(R)) by counting entries, so only
    positive lags carry a condition (see verify_base).
    """

    p: BinarySeq
    q: BinarySeq
    r: BinarySeq
    s: BinarySeq

    def __post_init__(self):
        if len(self.p) != len(self.q) or len(self.r) != len(self.s):
            raise ValueError("P/Q and R/S must come in equal-length pairs")

    @property
    def lengths(self) -> tuple[int, int, int, int]:
        return (len(self.p), len(self.q), len(self.r), len(self.s))


@dataclass(frozen=True)
class TSequences:
    """Four equal-length {0,+1,-1} sequences, at most one nonzero per slot."""

    t1: TernarySeq
    t2: TernarySeq
    t3: TernarySeq
    t4: TernarySeq

    def __post_init__(self):
        lens = {len(self.t1), len(self.t2), len(self.t3), len(self.t4)}
        if len(lens) != 1:
            raise ValueError("T-sequences must share one length")

    def __len__(self) -> int:
        return len(self.t1)

    @property
    def rows(self) -> tuple[TernarySeq, TernarySeq, TernarySeq, TernarySeq]:
        return (self.t1, self.t2, self.t3, self.t4)


def tt_to_base(quad: TurynQuad) -> BaseSequences:
    """Base sequences (C~D, C~-D; A; B) from a verified quadruple."""
    if not verify_tt(quad):
        raise ValueError("input quadruple fails the defining lag conditions")
    return BaseSequences(
        p=concat(quad.c, quad.d),
        q=concat(quad.c, quad.d.negate()),
        r=quad.a,
        s=quad.b,
    )


def verify_base(bs: BaseSequences) -> bool:
    """True iff N_P(s) + N_Q(s) + N_R(s) + N_S(s) = 0 for every s >= 1."""
    return bool(naf_vanishes([[x.entries] for x in (bs.p, bs.q, bs.r, bs.s)], (1, 1, 1, 1))[0])


def base_to_t(bs: BaseSequences) -> TSequences:
    """T-sequences ((P+Q)/2~0, (P-Q)/2~0, 0~(R+S)/2, 0~(R-S)/2).

    The output length is len(P) + len(R); the left halves carry the P/Q
    information and the right halves the R/S information, so exactly one
    of the four rows is nonzero at each position.
    """
    if not verify_base(bs):
        raise ValueError("input does not satisfy the base-sequence conditions")
    m, n2 = len(bs.p), len(bs.r)
    left_pad = TernarySeq.zeros(m)
    right_pad = TernarySeq.zeros(n2)
    return TSequences(
        t1=concat(half_combine(bs.p, bs.q, 1), right_pad),
        t2=concat(half_combine(bs.p, bs.q, -1), right_pad),
        t3=concat(left_pad, half_combine(bs.r, bs.s, 1)),
        t4=concat(left_pad, half_combine(bs.r, bs.s, -1)),
    )


def verify_t(ts: TSequences) -> bool:
    """True iff the rows partition the positions and combined NAF vanishes.

    Exactly one row must be nonzero at each position (an all-zero row is
    fine as long as the others cover every slot), and the four nonperiodic
    autocorrelations must sum to zero at every positive lag.
    """
    for i in range(len(ts)):
        nonzero = sum(1 for row in ts.rows if row.entries[i] != 0)
        if nonzero != 1:
            return False
    return bool(naf_vanishes([[row.entries] for row in ts.rows], (1, 1, 1, 1))[0])
