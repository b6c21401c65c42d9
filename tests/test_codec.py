"""Hex codec and listing-file tests.

The worked n=8 example, the n=2 instance, and the displayed TT(38) give
fixed encode/decode pairs; roundtrips cover random shape-valid
quadruples and every bundled reference representative.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turynseq.codec import CodecError, _hex_code, decode, encode, read_listing, write_listing
from turynseq.core import (
    TurynQuad,
    _canonical_entries,
    all_elements,
    g_apply,
    is_canonical,
    verify_tt,
)

from conftest import (
    KNOWN_LARGE_CODES,
    TT38_A,
    TT38_B,
    TT38_C,
    TT38_D,
    TT38_CODE,
    load_reference_codes,
    load_reference_text,
    pm_quads,
    single_flips,
)

def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


N8_EXAMPLE = TurynQuad.from_pm("++-+-+-+", "+------+", "+--++++-", "+++-++-")
TT2 = TurynQuad.from_pm("++", "++", "+-", "+")


class TestEncode:
    def test_worked_example(self):
        assert encode(N8_EXAMPLE, "full") == "06e5c4d1"

    def test_smallest_instance(self):
        assert encode(TT2, "full") == "01"
        assert encode(TT2, "compact") == "0"

    def test_displayed_large_instance(self):
        quad = TurynQuad.from_pm(TT38_A, TT38_B, TT38_C, TT38_D)
        assert encode(quad, "compact") == TT38_CODE

    def test_compact_requires_canonical(self):
        noncanonical = TurynQuad.from_pm("--", "++", "+-", "+")
        with pytest.raises(ValueError, match="canonical"):
            encode(noncanonical, "compact")

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            encode(TT2, "short")

    def test_entry_rules_equal_is_canonical_and_encode(self):
        # The search tests and encodes its hits from entry lists, through
        # the same two functions that `is_canonical` and `encode` call:
        # here on every group image of every TT(10) class and on every
        # single-entry flip of the classes.
        reps = [decode(code, 10) for code in load_reference_codes("reference_n10.txt")]
        quads = []
        for rep in reps:
            quads += [g_apply(g, rep) for g in all_elements()]
            rows = (rep.a, rep.b, rep.c, rep.d)
            quads += [TurynQuad(*flipped) for _, _, flipped in single_flips(rows)]
        canonical = set()
        for quad in quads:
            rows = [list(x.entries) for x in (quad.a, quad.b, quad.c, quad.d)]
            assert _canonical_entries(*rows) == is_canonical(quad)
            assert _hex_code(*rows) == encode(quad, "full")
            if is_canonical(quad):
                # A flip of c_n keeps the sign conditions but is no TT, and
                # both refuse its compact code.
                compact = outcome(_hex_code, *rows, compact=True)
                assert compact == outcome(encode, quad, "compact")
                canonical.add(quad)
        assert {q for q in canonical if verify_tt(q)} == set(reps)


class TestDecode:
    def test_smallest_instance(self):
        assert decode("01", 2) == TT2
        assert decode("0", 2) == TT2  # compact, trailing 1 restored

    def test_worked_example(self):
        assert decode("06e5c4d1", 8) == N8_EXAMPLE

    def test_displayed_large_instance(self):
        quad = decode(TT38_CODE, 38)
        assert str(quad.a) == TT38_A
        assert str(quad.b) == TT38_B
        assert str(quad.c) == TT38_C
        assert str(quad.d) == TT38_D

    @settings(derandomize=True, deadline=None)
    @given(st.integers(2, 40).flatmap(pm_quads))
    def test_roundtrip_on_random_quads(self, q):
        assert decode(encode(q, "full"), q.n) == q

    def test_compact_roundtrip_on_references(self):
        for n in (2, 4, 6, 8, 10):
            for code in load_reference_codes(f"reference_n{n}.txt"):
                q = decode(code, n)
                assert verify_tt(q) and is_canonical(q)
                assert encode(q, "compact") == code

    def test_known_large_codes_decode_and_verify(self):
        for n, code in KNOWN_LARGE_CODES.items():
            q = decode(code, n)
            assert verify_tt(q)
            assert is_canonical(q)
            assert encode(q, "compact") == code

    def test_explicit_form_overrides_autodetect(self):
        assert decode("0", 2, form="compact") == TT2
        with pytest.raises(CodecError, match="expected 2"):
            decode("0", 2, form="full")

    def test_bad_digit_count(self):
        with pytest.raises(CodecError, match="expected 4 .full. or 3 .compact."):
            decode("0", 4)

    def test_bad_character_reports_position(self):
        with pytest.raises(CodecError, match="position 3"):
            decode("01x6", 4)
        with pytest.raises(CodecError, match="'E' at position 3"):
            decode("06E5c4d1", 8)

    def test_final_digit_range(self):
        with pytest.raises(CodecError, match="position 2"):
            decode("09", 2)
        # The same digits parse as a compact prefix for n=3.
        assert decode("09", 3).n == 3


class TestListings:
    def test_single_record(self):
        assert read_listing("1 016\n") == [(1, "016")]

    def test_empty_text(self):
        assert read_listing("") == []

    def test_comments_and_blanks_skipped(self):
        text = "# n=6\n\n1 006d6\n2 01396\n"
        assert read_listing(text) == [(1, "006d6"), (2, "01396")]

    def test_roundtrip_on_reference_file(self):
        text = load_reference_text("reference_n6.txt")
        records = read_listing(text)
        assert write_listing(records, header="n=6") == text

    def test_malformed_line_reports_number(self):
        with pytest.raises(CodecError, match="line 2"):
            read_listing("1 006d6\n2\n")
        with pytest.raises(CodecError, match="line 1: bad index"):
            read_listing("one 006d6\n")
        with pytest.raises(CodecError, match="line 3.*'g'"):
            read_listing("1 00\n2 01\n3 0g\n")

    def test_reference_files_are_lexicographically_sorted(self):
        for name in (
            "reference_n2.txt",
            "reference_n4.txt",
            "reference_n6.txt",
            "reference_n8.txt",
            "reference_n10.txt",
            "reference_first12_n12.txt",
            "reference_first12_n14.txt",
            "reference_first12_n16.txt",
        ):
            records = read_listing(load_reference_text(name))
            codes = [code for _, code in records]
            assert codes == sorted(codes)
            assert [idx for idx, _ in records] == list(range(1, len(records) + 1))
