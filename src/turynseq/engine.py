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
canonical-form conditions:

  * step 1 pins a_1 = a_n = b_1 = b_n = c_1 = d_1 = +1;
  * while A (or B) is end-symmetric so far, the first asymmetric pair
    must start with +1;
  * while C is end-antisymmetric so far, the first symmetric pair must
    start with +1;
  * the first D pair whose product d_k d_{n-k} differs from d_{n-1}
    must start with +1 (the lone middle entry counts as product +1);
  * once a_2, b_2, a_{n-1}, b_{n-1} are known: a_2 != b_2 forces
    a_2 = +1, and a_2 = b_2 forces a_{n-1} = +1, b_{n-1} = -1.

These are exactly the six canonical conditions restricted to decided
entries, so with the full plan the leaves are precisely the canonical
quadruples; a plan that resumes after a preset partial quadruple
keeps every canonical completion of it, since the walk reads its start
scan state off the preset pairs.

Engines are single-use: build one, run `walk` once.
"""

from __future__ import annotations

import numpy as np

from .seqs import naf_sums

_PAIR_ALL = ((1, 1), (1, -1), (-1, 1), (-1, -1))


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
        self._weight = (1, 1, 2, 2)
        # P[s] is the weighted NAF of the preset (0 = unset) at lag s >= 1; U[s],
        # that of all ones minus that of the support, counts the product terms
        # with an unset factor.  Each term set moves P[s] by w and lowers U[s]
        # by w, so a lag dead partway through the preset stays dead.
        members = [(r, abs(r), np.ones_like(r)) for r in map(np.array, self.rows)]
        P, support, ones = naf_sums(members, self._weight)
        U = ones - support
        self._P, self._U = [0, *P.tolist()], [0, *U.tolist()]
        self.preset_ok = bool(np.all(abs(P) <= U))
        # Plan items: (seq, step k, j1, j2) with j2 = -1 for the D middle entry.
        # The filled positions at each depth depend only on the plan, so the
        # (partner position, lag) pairs each new entry touches are precomputed.
        self._plan = []
        self._sched = []
        filled = [[j for j, v in enumerate(row) if v] for row in self.rows]
        for seq, k in plan:
            j1 = k - 1
            j2 = n - k if seq < 3 else n - k - 1
            if seq == 3 and j2 == j1:
                j2 = -1
            self._plan.append((seq, k, j1, j2))
            # High lags complete first and bind tightest, so check them first.
            touches1 = tuple(sorted(((p, abs(j1 - p)) for p in filled[seq]), key=lambda ps: -ps[1]))
            filled[seq].append(j1)
            touches2 = ()
            if j2 >= 0:
                touches2 = tuple(
                    sorted(((p, abs(j2 - p)) for p in filled[seq]), key=lambda ps: -ps[1])
                )
                filled[seq].append(j2)
            self._sched.append((self.rows[seq], self._weight[seq], j1, touches1, j2, touches2))
        # Flags: (sym_a, sym_b, antisym_c, d_scan_open, d_eps); one slot per
        # depth.  They start as the scan of the preset pairs with both entries
        # set; D's lone middle entry, zipped with itself, has product +1.
        eps = self.rows[3][-1]
        start = (
            int(all(x * y == sign for x, y in zip(row, row[::-1]) if x and y))
            for row, sign in zip(self.rows, (1, 1, -1, eps))
        )
        self._fl = [(*start, eps)] + [None] * len(self._plan)

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
        seq, k, j1, j2 = self._plan[t]
        fl = self._fl[t]
        sa, sb, ac, don, eps = fl
        if seq < 2:
            # One rule on A's or B's own symmetry slot; B adds clause (vi) at k = 2.
            if k == 1:
                opts = [(1, 1, fl)]
            elif fl[seq]:
                off = fl[:seq] + (0,) + fl[seq + 1 :]
                opts = [(1, 1, fl), (1, -1, off), (-1, -1, fl)]
            else:
                opts = [(v1, v2, fl) for v1, v2 in _PAIR_ALL]
            if seq == 1 and k == 2:
                # a_2, a_{n-1} are already placed; this pair is (b_2, b_{n-1}).
                a2 = self.rows[0][1]
                an1 = self.rows[0][self.n - 2]
                kept = []
                for v1, v2, nf in opts:
                    if a2 != v1:
                        if a2 == 1:
                            kept.append((v1, v2, nf))
                    elif an1 == 1 and v2 == -1:
                        kept.append((v1, v2, nf))
                opts = kept
            return opts
        if seq == 2:
            if k == 1:
                off = (sa, sb, 0, don, eps)
                return [(1, 1, off), (1, -1, fl)]
            if ac:
                off = (sa, sb, 0, don, eps)
                return [(1, 1, off), (1, -1, fl), (-1, 1, fl)]
            return [(v1, v2, fl) for v1, v2 in _PAIR_ALL]
        # seq == 3
        if j2 < 0:
            # Lone middle entry; its self-product is +1.
            if k == 1:
                return [(1, 0, fl)]  # d_1 = +1
            if don and eps == -1:
                off = (sa, sb, ac, 0, eps)
                return [(1, 0, off)]
            return [(1, 0, fl), (-1, 0, fl)]
        if k == 1:
            return [(1, 1, (sa, sb, ac, 1, 1)), (1, -1, (sa, sb, ac, 1, -1))]
        if don:
            off = (sa, sb, ac, 0, eps)
            opts = []
            for v1, v2 in _PAIR_ALL:
                if v1 * v2 == eps:
                    opts.append((v1, v2, fl))
                elif v1 == 1:
                    opts.append((v1, v2, off))
            return opts
        return [(v1, v2, fl) for v1, v2 in _PAIR_ALL]

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
