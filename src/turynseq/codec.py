"""Hexadecimal wire encoding of quadruples and listing files.

Position i < n of a quadruple packs the four signs into one hex digit
via the substitution +1 -> 0, -1 -> 1:

    h_i = 8*[a_i = -1] + 4*[b_i = -1] + 2*[c_i = -1] + [d_i = -1],

and the final position packs the three remaining signs:

    h_n = 4*[a_n = -1] + 2*[b_n = -1] + [c_n = -1]  (so h_n <= 7).

Digits are lowercase.  The full form has n digits.  Canonical
quadruples always have h_1 = 0 and h_n = 1, so their compact form
drops the trailing 1 and keeps n-1 digits (the leading 0 is kept).
Compact codes sort lexicographically in the same order as the
underlying sign sequences.

Listing files hold one record per line, "INDEX HEXDIGITS", with
'#' comment lines ignored; lowercase hex, LF line endings.
"""

from __future__ import annotations

from .core import TurynQuad, is_canonical
from .seqs import BinarySeq

_HEX = "0123456789abcdef"
_HEX_VAL = {ch: i for i, ch in enumerate(_HEX)}


class CodecError(ValueError):
    """Malformed hex code or listing text."""


def encode(s: TurynQuad, form: str = "full") -> str:
    """Encode a quadruple as a hex string, in 'full' or 'compact' form."""
    if form not in ("full", "compact"):
        raise ValueError(f"unknown form {form!r}")
    compact = form == "compact"
    if compact and not is_canonical(s):
        raise ValueError("compact form is defined for canonical quadruples only")
    return _hex_code(s.a.entries, s.b.entries, s.c.entries, s.d.entries, compact)


def _hex_code(a, b, c, d, compact: bool = False) -> str:
    """`encode` on the entry sequences of A, B, C and D; `compact` needs a canonical quadruple."""
    # zip stops at D's end; the last position packs A, B and C only.
    code = "".join(
        [_HEX[8 * (w < 0) + 4 * (x < 0) + 2 * (y < 0) + (z < 0)] for w, x, y, z in zip(a, b, c, d)]
    )
    code += _HEX[4 * (a[-1] < 0) + 2 * (b[-1] < 0) + (c[-1] < 0)]
    if compact:
        if code[-1] != "1":  # canonical quadruples end in digit 1
            raise AssertionError(f"canonical quadruple encoded with h_n={code[-1]!r}")
        return code[:-1]
    return code


def decode(code: str, n: int, form: str | None = None) -> TurynQuad:
    """Decode a hex code of known n; form is auto-detected when omitted.

    The decoded quadruple is shape-valid; whether it is a valid TT(n)
    is a separate check.
    """
    if n < 2:
        raise CodecError(f"n must be at least 2, got {n}")
    lengths = {"full": n, "compact": n - 1}
    if form is None:
        form = {n: "full", n - 1: "compact"}.get(len(code))
        if form is None:
            raise CodecError(f"code has {len(code)} digits; expected {n} (full) or {n - 1} (compact)")
    elif form not in lengths:
        raise ValueError(f"unknown form {form!r}")
    elif len(code) != lengths[form]:
        raise CodecError(f"{form}-form code has {len(code)} digits; expected {lengths[form]}")
    for pos, ch in enumerate(code, start=1):
        if ch not in _HEX_VAL:
            raise CodecError(f"bad hex digit {ch!r} at position {pos}")
    if form == "compact":
        code = code + "1"  # restore the forced trailing digit
    last = _HEX_VAL[code[n - 1]]
    if last > 7:
        raise CodecError(f"final digit {code[n - 1]!r} at position {n} exceeds 7")
    a, b, c, d = [], [], [], []
    for i in range(n - 1):
        v = _HEX_VAL[code[i]]
        a.append(1 - 2 * (v >> 3 & 1))
        b.append(1 - 2 * (v >> 2 & 1))
        c.append(1 - 2 * (v >> 1 & 1))
        d.append(1 - 2 * (v & 1))
    a.append(1 - 2 * (last >> 2 & 1))
    b.append(1 - 2 * (last >> 1 & 1))
    c.append(1 - 2 * (last & 1))
    return TurynQuad(BinarySeq(tuple(a)), BinarySeq(tuple(b)), BinarySeq(tuple(c)), BinarySeq(tuple(d)))


def read_listing(text: str) -> list[tuple[int, str]]:
    """Parse listing text into (index, code) pairs, preserving order."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CodecError(f"line {lineno}: expected 'INDEX HEXDIGITS', got {raw!r}")
        idx_text, code = parts
        if not idx_text.isdigit():
            raise CodecError(f"line {lineno}: bad index {idx_text!r}")
        for pos, ch in enumerate(code, start=1):
            if ch not in _HEX_VAL:
                raise CodecError(f"line {lineno}: bad hex digit {ch!r} at position {pos}")
        records.append((int(idx_text), code))
    return records


def write_listing(records: list[tuple[int, str]], header: str | None = None) -> str:
    """Render (index, code) pairs as listing text; header becomes a comment."""
    lines = []
    if header is not None:
        lines.append(f"# {header}")
    for idx, code in records:
        lines.append(f"{idx} {code}")
    return "\n".join(lines) + "\n" if lines else ""
