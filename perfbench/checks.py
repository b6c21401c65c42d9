"""Output checks made apart from the program under test.

Nothing here imports turynseq.  Codes are decoded from the bit layout
documented for the hex codec (position i < n packs a, b, c, d into
8a + 4b + 2c + d with -1 -> 1; the last position packs a, b, c into
4a + 2b + c; the compact form of a canonical quadruple drops the final
digit, which is always 1).  The defining identity is checked with
numpy's correlation, and the six canonical sign conditions with code
written from their statement in the paper.
"""

from __future__ import annotations

import re

import numpy as np

# Class counts of the paper for the lengths the benchmark enumerates.
PAPER_COUNTS = {10: 43, 12: 127, 14: 186}

# The published canonical compact codes for n = 26..38.
PUBLISHED_CODES = {
    26: "0560110f0f9ec89d54a6867dc",
    28: "0005189b4d2e583e5571efc9196",
    30: "00788193c52741c99e060a73a22d5",
    32: "005088b3dc4d69db0a13438a6c2e916",
    34: "052351540cf016cfbe5809958b32825bc",
    36: "000f0f51c9bbd750cb048e3902185ca6a96",
    38: "05128f55401f041adf7f65c53567822c9cb9c",
}

_HEX = "0123456789abcdef"


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# --- codes and sign rows -------------------------------------------------


def decode_rows(code: str, n: int) -> tuple[list[int], ...]:
    """Sign rows (A, B, C, D) of a full (n digits) or compact (n-1) code."""
    if len(code) == n - 1:
        code += "1"
    require(len(code) == n, f"code {code!r} has the wrong length for n={n}")
    require(all(ch in _HEX for ch in code), f"code {code!r} is not lowercase hex")
    vals = [_HEX.index(ch) for ch in code]
    require(vals[-1] <= 7, f"code {code!r} ends in a digit above 7")
    a = [1 - 2 * (v >> 3 & 1) for v in vals[:-1]] + [1 - 2 * (vals[-1] >> 2 & 1)]
    b = [1 - 2 * (v >> 2 & 1) for v in vals[:-1]] + [1 - 2 * (vals[-1] >> 1 & 1)]
    c = [1 - 2 * (v >> 1 & 1) for v in vals[:-1]] + [1 - 2 * (vals[-1] & 1)]
    d = [1 - 2 * (v & 1) for v in vals[:-1]]
    return a, b, c, d


def encode_full(rows) -> str:
    """Full-form hex code of sign rows (A, B, C, D)."""
    a, b, c, d = rows
    n = len(a)
    digits = [
        8 * (a[i] < 0) + 4 * (b[i] < 0) + 2 * (c[i] < 0) + (d[i] < 0) for i in range(n - 1)
    ]
    digits.append(4 * (a[-1] < 0) + 2 * (b[-1] < 0) + (c[-1] < 0))
    return "".join(_HEX[v] for v in digits)


def naf(row) -> np.ndarray:
    """Nonperiodic autocorrelation N(0), ..., N(m-1) of one row."""
    x = np.asarray(row, dtype=np.int64)
    return np.correlate(x, x, mode="full")[len(x) - 1 :]


def is_tt(rows) -> bool:
    """N_A + N_B + 2 N_C + 2 N_D vanishes at every lag 1..n-1."""
    a, b, c, d = rows
    n = len(a)
    if (len(b), len(c), len(d)) != (n, n, n - 1):
        return False
    if any(v not in (1, -1) for row in rows for v in row):
        return False
    total = naf(a) + naf(b) + 2 * naf(c)
    total[: n - 1] += 2 * naf(d)
    return not total[1:].any()


def canonical_conditions(rows) -> bool:
    """The six canonical sign conditions, indices 1-based as in the paper."""
    a, b, c, d = rows
    n = len(a)

    def at(x, i):
        return x[i - 1]

    if not all(v == 1 for v in (at(a, 1), at(a, n), at(b, 1), at(b, n), at(c, 1), at(d, 1))):
        return False
    for x in (a, b):  # first asymmetric pair starts with +1
        firsts = [i for i in range(1, n + 1) if at(x, i) != at(x, n + 1 - i)]
        if firsts and at(x, firsts[0]) != 1:
            return False
    firsts = [i for i in range(1, n + 1) if at(c, i) == at(c, n + 1 - i)]
    if firsts and at(c, firsts[0]) != 1:
        return False
    firsts = [i for i in range(1, n) if at(d, i) * at(d, n - i) != at(d, n - 1)]
    if firsts and at(d, firsts[0]) != 1:
        return False
    if n > 2:
        if at(a, 2) != at(b, 2):
            return at(a, 2) == 1
        return at(a, n - 1) == 1 and at(b, n - 1) == -1
    return True


# --- the symmetry group on sign rows ------------------------------------


def group_image(rows, bits) -> tuple[list[int], ...]:
    """Apply alternate, swap A/B, then per-row reverse and negate, as set in 10 bits.

    bits = (neg A, rev A, neg B, rev B, neg C, rev C, neg D, rev D, swap, alternate).
    """
    rows = [list(r) for r in rows]
    if bits[9]:
        rows = [[v if i % 2 == 0 else -v for i, v in enumerate(r)] for r in rows]
    if bits[8]:
        rows[0], rows[1] = rows[1], rows[0]
    for k in range(4):
        if bits[2 * k + 1]:
            rows[k] = rows[k][::-1]
        if bits[2 * k]:
            rows[k] = [-v for v in rows[k]]
    return tuple(rows)


# --- per-workload checks -------------------------------------------------


def check_listing(text: str, n: int) -> int:
    """A complete class listing: paper count, distinct sorted valid canonical codes."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    codes = []
    for idx, line in enumerate(lines, start=1):
        parts = line.split()
        require(len(parts) == 2 and parts[0] == str(idx), f"bad listing line {line!r}")
        codes.append(parts[1])
    require(
        len(codes) == PAPER_COUNTS[n],
        f"n={n}: {len(codes)} classes listed, the paper counts {PAPER_COUNTS[n]}",
    )
    require(all(p < q for p, q in zip(codes, codes[1:])), "codes not distinct and sorted")
    for code in codes:
        rows = decode_rows(code, n)
        require(is_tt(rows), f"listed code {code} is not a TT({n})")
        require(canonical_conditions(rows), f"listed code {code} is not canonical")
    return len(codes)


_HASH = re.compile(r"[0-9a-f]{16}")


def checkpoint_fields(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.split() if "=" in line)


def check_hunt(results_text: str, checkpoint_text: str, n: int, target) -> int:
    """One valid canonical hit with the target row sums; a finished checkpoint."""
    records = [ln.split() for ln in results_text.splitlines() if ln.strip() and not ln.startswith("#")]
    require(len(records) == 1, f"hunt listed {len(records)} hits, expected exactly 1")
    require(records[0][0] == "1" and len(records[0]) == 2, f"bad results line {records[0]}")
    rows = decode_rows(records[0][1], n)
    require(is_tt(rows), f"hit {records[0][1]} is not a TT({n})")
    require(canonical_conditions(rows), f"hit {records[0][1]} is not canonical")
    sums = tuple(sum(r) for r in rows)
    require(sums == tuple(target), f"hit row sums {sums} differ from the target {target}")
    fields = checkpoint_fields(checkpoint_text)
    require(bool(_HASH.fullmatch(fields.get("config", ""))), "checkpoint lacks the config hash")
    require(fields.get("done") == "1", "checkpoint is not marked done")
    seed_index = int(fields.get("seed_index", "0"))
    require(seed_index >= 1, "checkpoint seed_index is below 1")
    return seed_index


def check_classified(n: int, image_code: str, canon_code: str, t_rows, flags) -> None:
    """The canonical form of a group image is the published code; T-sequences hold."""
    require(is_tt(decode_rows(image_code, n)), f"benchmark image {image_code} is not a TT({n})")
    require(
        canon_code == PUBLISHED_CODES[n],
        f"n={n}: image {image_code} canonicalised to {canon_code}, published {PUBLISHED_CODES[n]}",
    )
    require(all(flags), f"n={n}: the program rejected a valid quadruple or its T-sequences")
    length = 3 * n - 1
    require(len(t_rows) == 4 and all(len(r) == length for r in t_rows), "T-sequence shape")
    vals = [[{"+": 1, "-": -1, "0": 0}[ch] for ch in r] for r in t_rows]
    require(
        all(sum(1 for r in vals if r[i]) == 1 for i in range(length)),
        "T-sequences need exactly one nonzero row per position",
    )
    total = sum(naf(r) for r in vals)
    require(not total[1:].any(), "T-sequence autocorrelations do not vanish")

