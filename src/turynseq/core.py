"""Turyn-type quadruples, their symmetry group, and canonical forms.

A TT(n) is a quadruple S = (A; B; C; D) of {+1,-1} sequences with
lengths (n, n, n, n-1) such that

    N_A(s) + N_B(s) + 2 N_C(s) + 2 N_D(s) = 0   for all s >= 1.

The lag-0 sum is automatic: n + n + 2n + 2(n-1) = 6n - 2.

Equivalence of quadruples is generated by four elementary moves:
negating or reversing any one sequence, alternating all four, and
swapping A with B.  These moves generate a group of order 1024 acting
on quadruples (for even n); its orbits are the equivalence classes.
Each class contains exactly one member in canonical form, a set of six
sign conditions pinning down signs, orientations and the A/B order:
clause (i) pins end entries, clauses (ii)-(v) are one scan rule with a
sign per row (`_ROW_CLAUSES`, `_row_clause`, `_clause_mask`), and
clause (vi) orders A and B (`_ab_order`).  The pairwise walk in
`engine` reads the same definitions.

Group elements are kept in the normal form

    n1^e1 r1^f1 n2^e2 r2^f2 n3^e3 r3^f3 n4^e4 r4^f4 sg^w al^t

where n_i negates sequence i, r_i reverses it, sg swaps A and B, and
al alternates all four sequences.  The n_i, r_i generate an elementary
abelian group of order 2^8.  The remaining relations: sg swaps the
(n1, r1) and (n2, r2) generator pairs and commutes with the rest;
al r_i al = r_i n_i for i = 1, 2, 3, and al commutes with r4, sg and
every n_i.  (Alternation commutes with negation as a sequence map,
which settles n4; it commutes with reversal exactly for odd lengths,
which settles r4 since D has odd length n-1.)

The normal form also gives the canonical member without listing the
orbit: every member is a per-sequence negate/reverse applied to
sg^w al^t S, so the orbit is covered by the 2 x 2 choices of (t, w)
and, for each of A, B, C, D independently, its four images x, x', -x,
-x'.  `canonicalize` keeps, for each (t, w), only the images that pass
their own sequence's canonical clauses (necessary conditions, so no
canonical member is lost) and runs the full test on the few products
that remain.  `orbit` stays as the explicit closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .seqs import BinarySeq, naf_vanishes


@dataclass(frozen=True)
class TurynQuad:
    """Quadruple (A; B; C; D) of binary sequences, lengths (n, n, n, n-1)."""

    a: BinarySeq
    b: BinarySeq
    c: BinarySeq
    d: BinarySeq

    def __post_init__(self):
        n = len(self.a)
        if n < 2:
            raise ValueError("quadruple needs n >= 2")
        if len(self.b) != n or len(self.c) != n or len(self.d) != n - 1:
            raise ValueError(
                f"bad shape: lengths {(len(self.a), len(self.b), len(self.c), len(self.d))}, "
                f"expected {(n, n, n, n - 1)}"
            )

    @property
    def n(self) -> int:
        return len(self.a)

    @classmethod
    def from_pm(cls, a: str, b: str, c: str, d: str) -> "TurynQuad":
        return cls(
            BinarySeq.from_pm(a), BinarySeq.from_pm(b), BinarySeq.from_pm(c), BinarySeq.from_pm(d)
        )

    def row_sums(self) -> tuple[int, int, int, int]:
        return tuple(sum(x.entries) for x in (self.a, self.b, self.c, self.d))

    def __str__(self) -> str:
        return f"({self.a}; {self.b}; {self.c}; {self.d})"


def verify_tt(s: TurynQuad) -> bool:
    """True iff N_A + N_B + 2 N_C + 2 N_D vanishes at every positive lag."""
    return bool(naf_vanishes([[x.entries] for x in (s.a, s.b, s.c, s.d)], (1, 1, 2, 2))[0])


# --- the symmetry group -------------------------------------------------

# Bit layout of the normal form: (e1, f1, e2, f2, e3, f3, e4, f4, w, t).
_NBITS = 10


@dataclass(frozen=True)
class GroupElement:
    """Symmetry-group element in 10-bit normal form."""

    bits: tuple[int, int, int, int, int, int, int, int, int, int]

    def __post_init__(self):
        bits = tuple(int(v) for v in self.bits)
        if len(bits) != _NBITS or any(v not in (0, 1) for v in bits):
            raise ValueError("group element needs 10 bits in {0,1}")
        object.__setattr__(self, "bits", bits)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return g_mul(self, other)


IDENTITY = GroupElement((0,) * _NBITS)


def _gen(i: int) -> GroupElement:
    bits = [0] * _NBITS
    bits[i] = 1
    return GroupElement(tuple(bits))


# The ten involutory generators, in normal-form bit order.
NEGATE_A, REVERSE_A = _gen(0), _gen(1)
NEGATE_B, REVERSE_B = _gen(2), _gen(3)
NEGATE_C, REVERSE_C = _gen(4), _gen(5)
NEGATE_D, REVERSE_D = _gen(6), _gen(7)
SWAP_AB = _gen(8)
ALTERNATE = _gen(9)

GENERATORS = (
    NEGATE_A,
    REVERSE_A,
    NEGATE_B,
    REVERSE_B,
    NEGATE_C,
    REVERSE_C,
    NEGATE_D,
    REVERSE_D,
    SWAP_AB,
    ALTERNATE,
)


def g_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Normal-form product g*h.

    Push h's negate/reverse part left through g's trailing sg^w al^t:
    conjugation by al maps r_i -> r_i n_i (i = 1, 2, 3), so e_i picks up
    f_i; conjugation by sg swaps the (e1, f1) and (e2, f2) pairs.
    """
    eg = g.bits[:8]
    wg, tg = g.bits[8], g.bits[9]
    eh = list(h.bits[:8])
    wh, th = h.bits[8], h.bits[9]
    if tg:
        for i in (0, 2, 4):
            eh[i] ^= eh[i + 1]
    if wg:
        eh[0], eh[1], eh[2], eh[3] = eh[2], eh[3], eh[0], eh[1]
    bits = tuple(eg[i] ^ eh[i] for i in range(8)) + (wg ^ wh, tg ^ th)
    return GroupElement(bits)


def g_apply(g: GroupElement, s: TurynQuad) -> TurynQuad:
    """Act on a quadruple; defined only for even n.

    The normal form is applied right to left: alternate, then swap,
    then the per-sequence negations and reversals.
    """
    if s.n % 2:
        raise ValueError(f"group action needs even n, got {s.n}")
    rows = [s.a, s.b, s.c, s.d]
    if g.bits[9]:
        rows = [row.alternate() for row in rows]
    if g.bits[8]:
        rows[0], rows[1] = rows[1], rows[0]
    # Bits 2i and 2i + 1 negate and reverse row i; the reversal applies first.
    for i, row in enumerate(rows):
        if g.bits[2 * i + 1]:
            row = row.reverse()
        rows[i] = row.negate() if g.bits[2 * i] else row
    return TurynQuad(*rows)


def all_elements():
    """Iterate all 1024 group elements."""
    for bits in product((0, 1), repeat=_NBITS):
        yield GroupElement(bits)


def _generator_images(s: TurynQuad) -> list[TurynQuad]:
    """Images of s under the ten generators, built directly."""
    a, b, c, d = s.a, s.b, s.c, s.d
    return [
        TurynQuad(a.negate(), b, c, d),
        TurynQuad(a.reverse(), b, c, d),
        TurynQuad(a, b.negate(), c, d),
        TurynQuad(a, b.reverse(), c, d),
        TurynQuad(a, b, c.negate(), d),
        TurynQuad(a, b, c.reverse(), d),
        TurynQuad(a, b, c, d.negate()),
        TurynQuad(a, b, c, d.reverse()),
        TurynQuad(b, a, c, d),
        TurynQuad(a.alternate(), b.alternate(), c.alternate(), d.alternate()),
    ]


def orbit(s: TurynQuad) -> set[TurynQuad]:
    """Closure of {s} under the ten generators; the equivalence class of s."""
    if not verify_tt(s):
        raise ValueError("orbit needs a valid quadruple")
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for q in frontier:
            for img in _generator_images(q):
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


# --- canonical form ------------------------------------------------------


# Clause (i) pins x_1 = +1 in every row and x_L = +1 in A and B.  Clauses
# (ii)-(v) are one scan: at the least i where x_i x_{L+1-i} differs from the
# row's sign sigma, x_i = +1 (vacuous when there is no such i).  Per row A,
# B, C, D: (sigma, whether x_L is pinned), with sigma 0 standing for D's own
# last entry d_{n-1}.
_ROW_CLAUSES = ((1, True), (1, True), (-1, False), (0, False))


def _row_clause(x: tuple[int, ...], clause: tuple[int, bool]) -> bool:
    """Clause (i) and the scan clause of one row; `clause` is its `_ROW_CLAUSES` entry."""
    sign, pin_last = clause
    if x[0] != 1 or (pin_last and x[-1] != 1):
        return False
    sign = sign or x[-1]
    # x[i] is the partner of u; a range or enumerate loop made
    # `is_canonical` about 1.3x slower.
    i = -1
    for u in x:
        if u * x[i] != sign:
            return u == 1
        i -= 1
    return True


def _ab_order(a2: int, b2: int, a_last2: int, b_last2: int) -> bool:
    """Clause (vi) on a_2, b_2, a_{n-1}, b_{n-1}: the order of A and B."""
    if a2 != b2:
        return a2 == 1
    return a_last2 == 1 and b_last2 == -1


def _clause_mask(rows: np.ndarray, kind: str) -> np.ndarray:
    """Which rows of a (count, L) +-1 matrix pass `_row_clause` as row `kind`, "A".."D"."""
    sign, pin_last = _ROW_CLAUSES["ABCD".index(kind)]
    decisive = rows * rows[:, ::-1] != (sign or rows[:, -1:])
    index = np.arange(len(rows)), decisive.argmax(axis=1)
    keep = (rows[:, 0] == 1) & ((rows[index] == 1) | ~decisive[index])
    if pin_last:
        keep &= rows[:, -1] == 1
    return keep


def is_canonical(s: TurynQuad) -> bool:
    """The six canonical sign conditions.

    (i)   a_1 = a_n = b_1 = b_n = c_1 = d_1 = +1;
    (ii)-(v) for each row X of length L and sign sigma (+1 for A and B,
          -1 for C, d_{n-1} for D): at the least i with
          x_i x_{L+1-i} != sigma, x_i = +1; vacuous when no such i exists;
    (vi)  for n > 2: if a_2 != b_2 then a_2 = +1, and if a_2 = b_2
          then a_{n-1} = +1 and b_{n-1} = -1.

    Clauses (i)-(v) split into one test per sequence (`_row_clause`);
    only (vi) ties two sequences together (`_ab_order`).
    """
    return _canonical_entries(s.a.entries, s.b.entries, s.c.entries, s.d.entries)


def _canonical_entries(a, b, c, d) -> bool:
    """`is_canonical` on the entry sequences of A, B, C and D."""
    # Unrolled: a loop over the rows made the test about 1.2x slower.
    clause_a, clause_b, clause_c, clause_d = _ROW_CLAUSES
    if not (
        _row_clause(a, clause_a)
        and _row_clause(b, clause_b)
        and _row_clause(c, clause_c)
        and _row_clause(d, clause_d)
    ):
        return False
    return len(a) == 2 or _ab_order(a[1], b[1], a[-2], b[-2])


def _passing_images(x: BinarySeq, clause: tuple[int, bool]) -> list[BinarySeq]:
    """The distinct images x, x', -x, -x' of one sequence that pass `_row_clause`."""
    e = x.entries
    neg = tuple(-v for v in e)
    images = dict.fromkeys((e, e[::-1], neg, neg[::-1]))
    return [BinarySeq(img) for img in images if _row_clause(img, clause)]


def canonicalize(s: TurynQuad) -> TurynQuad:
    """The unique canonical member of the orbit of s.

    Built directly instead of by scanning the orbit.  In normal form
    every orbit member is a per-sequence negate/reverse applied to
    sg^w al^t s, so for each of the four (t, w) the candidates are the
    product of the four images x, x', -x, -x' of each sequence.  Images
    failing their own sequence's clauses of `is_canonical` are dropped
    first; those clauses are necessary, so no canonical member is lost,
    and the full test on the remaining products settles clause (vi) and
    the A/B order.  Uniqueness of the canonical member is relied on and
    double-checked, so a zero or double hit raises instead of being
    silently resolved.
    """
    if not verify_tt(s):
        raise ValueError("canonicalize needs a valid quadruple")
    hits: dict[TurynQuad, None] = {}
    for quad in (s, g_apply(ALTERNATE, s)):
        # A and B share one clause, so the swap w only exchanges their roles.
        rows = (quad.a, quad.b, quad.c, quad.d)
        images_a, images_b, images_c, images_d = map(_passing_images, rows, _ROW_CLAUSES)
        for first, second in ((images_a, images_b), (images_b, images_a)):
            for a, b, c, d in product(first, second, images_c, images_d):
                q = TurynQuad(a, b, c, d)
                if is_canonical(q):
                    hits[q] = None
    if len(hits) != 1:
        raise RuntimeError(
            f"orbit of {s} contains {len(hits)} canonical members; expected exactly 1"
        )
    return next(iter(hits))


def phi(s: TurynQuad) -> int:
    """The endpoint product a_1 * a_n.

    Alternation flips it (n is even); every other generator preserves
    it, since the lag n-1 identity forces a_1 a_n = b_1 b_n.
    """
    return s.a.entries[0] * s.a.entries[-1]
