"""Two-ended pairwise depth-first search over partial quadruples.

Positions are assigned in symmetric pairs: step k (1-based) decides
positions k and n+1-k of A, B and C and positions k and n-k of D.
Since D has odd length n-1, its step-n/2 "pair" is the single middle
entry.  Filling from both ends makes each high lag fully determined as
early as possible: after step k every lag s >= n-k of the combined sum

    F(s) = N_A(s) + N_B(s) + 2 N_C(s) + 2 N_D(s)

is complete, and the last step completes all remaining lags at once.

The running state keeps, per lag s, the partial weighted sum P[s] of
determined product terms and the weighted count U[s] of undetermined
terms (weights 1, 1, 2, 2).  Both start from one `seqs.naf_sums` call
on the preset: P is the weighted NAF of its rows (0 for unset entries),
U that of all-ones rows minus that of their supports.  Undetermined
terms can move the final sum by at most U[s] in either direction, so a
branch stays viable only while |P[s]| <= U[s] for every lag; when U[s]
hits zero this forces the exact condition F(s) = 0.  (P[s] + U[s] is
invariant mod 2 and starts even, so no parity check is needed.)  Every
branch cut this way violates a necessary condition, hence no completion
is lost to it.

The walk also restricts choices to the prefix-decidable parts of the
canonical-form conditions, read from `core`:

  * step 1 pins a_1 = a_n = b_1 = b_n = c_1 = d_1 = +1 (clause (i));
  * one scan per row: while every pair so far has x_k x_{L+1-k} equal
    to the row's sign (+1 for A and B, -1 for C, d_{n-1} for D), a pair
    that differs must start with +1 and ends the scan (clauses
    (ii)-(v); D's lone middle entry has product +1, and D's first pair
    places d_{n-1}, so it matches);
  * once a_2, b_2, a_{n-1}, b_{n-1} are known, clause (vi) on them.

These are exactly the six canonical conditions restricted to decided
entries, so with the full plan the leaves are precisely the canonical
quadruples; a plan that resumes after a preset partial quadruple
keeps every canonical completion of it, since the walk reads its start
scan state off the preset pairs.

Engines are single-use: build one, run `walk` once.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import _ROW_CLAUSES, _ab_order
from .seqs import naf_sums

_PAIR_ALL = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# Step 1 under clause (i): x_1 = +1, and x_L = +1 where the row pins it.
_PINNED, _PINNED_FIRST = ((1, 1),), ((1, 1), (1, -1))
_WEIGHT = (1, 1, 2, 2)


def full_plan(n: int) -> list[tuple[int, int]]:
    """(seq, step) items for complete enumeration: steps 1..n/2, all four rows."""
    return [(seq, k) for k in range(1, n // 2 + 1) for seq in range(4)]


def seed_plan(head_len: int) -> list[tuple[int, int]]:
    """Boundary-only items: steps 1..head_len for A, B, C; 1..head_len-1 for D."""
    plan = []
    for k in range(1, head_len + 1):
        plan.extend((seq, k) for seq in range(3))
        if k < head_len:
            plan.append((3, k))
    return plan


def fill_plan(n: int, head_len: int) -> list[tuple[int, int]]:
    """Middle items for A and B only: steps head_len+1..n/2."""
    return [(seq, k) for k in range(head_len + 1, n // 2 + 1) for seq in (0, 1)]


@functools.lru_cache(maxsize=64)
def _schedule(n, plan, filled):
    """Plan items (seq, k, pairs) and schedules (seq, weight, j1, touches1, j2, touches2).

    `pairs` are the step's candidate (v1, v2) under clause (i)'s step-1
    pins, with v1 = v2 at D's lone middle entry, marked j2 = -1; touches
    are the (partner, lag) pairs a new entry meets, given `filled`, each
    row's preset positions.
    """
    filled = [list(row) for row in filled]

    def touches(seq, j):
        # High lags complete first and bind tightest, so check them first.
        found = tuple(sorted(((p, abs(j - p)) for p in filled[seq]), key=lambda ps: -ps[1]))
        filled[seq].append(j)
        return found

    items, sched = [], []
    for seq, k in plan:
        j1 = k - 1
        j2 = n - k if seq < 3 else n - k - 1
        # Clause (i) pins step 1; a lone middle entry is its own partner.
        pairs = _PAIR_ALL if k > 1 else _PINNED if _ROW_CLAUSES[seq][1] else _PINNED_FIRST
        if seq == 3 and j2 == j1:
            j2 = -1
            pairs = tuple((v1, v2) for v1, v2 in pairs if v1 == v2)
        items.append((seq, k, pairs))
        touches1 = touches(seq, j1)
        sched.append((seq, _WEIGHT[seq], j1, touches1, j2, touches(seq, j2) if j2 >= 0 else ()))
    return tuple(items), tuple(sched)


class PairDfs:
    """One depth-first walk over a plan of symmetric-pair assignments."""

    def __init__(self, n, plan, preset=()):
        """`preset`: rows A, B, C, D of a partial quadruple, 0 marking entries left to walk."""
        if n < 2 or n % 2:
            raise ValueError(f"pairwise walk needs even n >= 2, got {n}")
        self.n = n
        self.rows = [[0] * n, [0] * n, [0] * n, [0] * (n - 1)]
        for seq, row in enumerate(preset):
            self.rows[seq] = [int(v) for v in row]
        # P[s] is the weighted NAF of the preset (0 = unset) at lag s >= 1; U[s],
        # that of all ones minus that of the support, counts the product terms
        # with an unset factor.  Each term set moves P[s] by w and lowers U[s]
        # by w, so a lag dead partway through the preset stays dead.
        members = [(r, abs(r), np.ones_like(r)) for r in map(np.array, self.rows)]
        P, support, ones = naf_sums(members, _WEIGHT)
        U = ones - support
        self._P, self._U = [0, *P.tolist()], [0, *U.tolist()]
        self.preset_ok = bool(np.all(abs(P) <= U))
        # The filled positions at each depth depend only on the plan and the
        # preset's positions, so every engine of the same shape shares one
        # schedule; each binds its own rows to it.
        filled = tuple(tuple(j for j, v in enumerate(row) if v) for row in self.rows)
        self._plan, sched = _schedule(n, tuple(plan), filled)
        self._sched = [(self.rows[seq], *rest) for seq, *rest in sched]
        # Flags: one scan-open bit per row, one tuple per depth.  They start
        # as the scan of the preset pairs with both entries set; D's lone
        # middle entry, zipped with itself, has product +1.
        start = (
            int(all(x * y == (sign or row[-1]) for x, y in zip(row, row[::-1]) if x and y))
            for row, (sign, _) in zip(self.rows, _ROW_CLAUSES)
        )
        self._fl = [tuple(start)] + [None] * len(self._plan)

    # -- state updates ----------------------------------------------------

    def _roll_back(self, row, w, j, touches, upto):
        """Reverse the first `upto` touch updates of one entry and clear it."""
        P, U = self._P, self._U
        wv = w if row[j] == 1 else -w
        for p, s in touches[:upto]:
            U[s] += w
            P[s] -= wv * row[p]
        row[j] = 0

    def _apply(self, t, opt):
        """Try one option; on a dead lag, roll back immediately and return False.

        A failed `_apply` leaves the state untouched; `_undo` is only for
        fully applied items.
        """
        row, w, j1, touches1, j2, touches2 = self._sched[t]
        v1, v2, nf = opt
        P, U = self._P, self._U
        row[j1] = v1
        wv = w if v1 == 1 else -w
        done = 0
        for p, s in touches1:
            U[s] -= w
            x = P[s] + wv * row[p]
            P[s] = x
            if x < 0:
                x = -x
            done += 1
            if x > U[s]:
                self._roll_back(row, w, j1, touches1, done)
                return False
        if j2 >= 0:
            row[j2] = v2
            wv = w if v2 == 1 else -w
            done = 0
            for p, s in touches2:
                U[s] -= w
                x = P[s] + wv * row[p]
                P[s] = x
                if x < 0:
                    x = -x
                done += 1
                if x > U[s]:
                    self._roll_back(row, w, j2, touches2, done)
                    self._roll_back(row, w, j1, touches1, len(touches1))
                    return False
        self._fl[t + 1] = nf
        return True

    def _undo(self, t):
        row, w, j1, touches1, j2, touches2 = self._sched[t]
        if j2 >= 0:
            self._roll_back(row, w, j2, touches2, len(touches2))
        self._roll_back(row, w, j1, touches1, len(touches1))

    # -- option lists -----------------------------------------------------

    def _options(self, t):
        seq, k, pairs = self._plan[t]
        fl = self._fl[t]
        if fl[seq]:
            # The open scan: a pair matching the sign keeps it open, and the
            # first other pair must start with +1.  D's sign d_{n-1} reads 0
            # until D's first pair places it as v2, so that pair matches.
            sign = _ROW_CLAUSES[seq][0] or self.rows[seq][-1]
            closed = fl[:seq] + (0,) + fl[seq + 1 :]
            opts = []
            for v1, v2 in pairs:
                if v1 * v2 == (sign or v2):
                    opts.append((v1, v2, fl))
                elif v1 == 1:
                    opts.append((v1, v2, closed))
        else:
            opts = [(v1, v2, fl) for v1, v2 in pairs]
        if seq == 1 and k == 2:
            # a_2, a_{n-1} are already placed; this pair is (b_2, b_{n-1}).
            a = self.rows[0]
            opts = [opt for opt in opts if _ab_order(a[1], opt[0], a[self.n - 2], opt[1])]
        return opts

    # -- walks --------------------------------------------------------

    def walk(self):
        """Depth-first over the whole plan.

        Yields once per surviving complete assignment; read the state of
        `rows` at each yield.  Single use.
        """
        if not self.preset_ok:
            return
        t_end = len(self._plan)
        if t_end == 0:
            yield
            return
        oi = [0] * t_end
        opts = [None] * t_end
        opts[0] = self._options(0)
        t = 0
        while True:
            if oi[t] == len(opts[t]):
                if t == 0:
                    return
                t -= 1
                self._undo(t)
                oi[t] += 1
                continue
            if self._apply(t, opts[t][oi[t]]):
                if t == t_end - 1:
                    yield
                    self._undo(t)
                    oi[t] += 1
                else:
                    t += 1
                    oi[t] = 0
                    opts[t] = self._options(t)
            else:
                oi[t] += 1

    def snapshot(self):
        """Current rows as tuples (A, B, C, D entries; 0 marks unassigned)."""
        return tuple(tuple(row) for row in self.rows)
