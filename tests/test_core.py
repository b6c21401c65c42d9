"""Quadruple verification, symmetry group, and canonical-form tests.

Group facts (order 1024, the defining relations, orbit closure) are
checked by explicit closure computations; canonical-form facts are
checked against decoded reference representatives.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import turynseq.core as core
from turynseq.codec import decode
from turynseq.core import (
    ALTERNATE,
    GENERATORS,
    IDENTITY,
    NEGATE_A,
    NEGATE_B,
    NEGATE_C,
    REVERSE_A,
    SWAP_AB,
    GroupElement,
    TurynQuad,
    all_elements,
    canonicalize,
    g_apply,
    g_mul,
    is_canonical,
    orbit,
    phi,
    verify_tt,
)
from turynseq.seqs import BinarySeq, naf_vanishes

from conftest import (
    KNOWN_LARGE_CODES,
    PUBLISHED_CODES,
    TT38_A,
    TT38_B,
    TT38_C,
    TT38_D,
    load_reference_codes,
    pm_quads,
    single_flips,
)

TT2 = TurynQuad.from_pm("++", "++", "+-", "+")
TT38 = TurynQuad.from_pm(TT38_A, TT38_B, TT38_C, TT38_D)

N8_EXAMPLE = TurynQuad.from_pm("++-+-+-+", "+------+", "+--++++-", "+++-++-")


def random_element(rng):
    return list(all_elements())[rng.randrange(1024)]


GROUP_ELEMENTS = st.tuples(*[st.integers(0, 1)] * 10).map(GroupElement)


def orbit_scan_canonical(s):
    """Reference canonical form: every orbit member that passes is_canonical."""
    return [q for q in orbit(s) if is_canonical(q)]


# Canonical representatives for the property test: the n = 10 listing,
# the published n = 26..36 codes and the displayed TT(38).
PROPERTY_REPS = (
    [decode(code, 10) for code in load_reference_codes("reference_n10.txt")]
    + [decode(code, n) for n, code in sorted(KNOWN_LARGE_CODES.items())]
    + [TT38]
)


class TestTurynQuad:
    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="bad shape"):
            TurynQuad.from_pm("++", "++", "++", "++")
        with pytest.raises(ValueError, match="bad shape"):
            TurynQuad.from_pm("++", "+++", "++", "+")
        with pytest.raises(ValueError):
            TurynQuad.from_pm("+", "+", "+", "")

    def test_row_sums(self):
        assert TT2.row_sums() == (2, 2, 0, 1)
        assert TT38.row_sums() == (8, -4, 8, -3)


class TestVerify:
    def test_smallest_instance(self):
        assert verify_tt(TT2)

    def test_displayed_large_instance(self):
        assert verify_tt(TT38)

    def test_all_plus_fails(self):
        assert not verify_tt(TurynQuad.from_pm("++", "++", "++", "+"))

    @pytest.mark.parametrize("n", sorted(PUBLISHED_CODES))
    def test_every_single_flip_of_a_published_code_fails(self, n):
        quad = decode(PUBLISHED_CODES[n], n)
        flips = list(single_flips((quad.a, quad.b, quad.c, quad.d)))
        assert len(flips) == 4 * n - 1  # every entry, D's last one included
        for r, k, rows in flips:
            assert not verify_tt(TurynQuad(*rows)), (r, k)
        # One batched check, as the pair join makes it, agrees member by member.
        batch = [(quad.a, quad.b, quad.c, quad.d)] + [rows for _, _, rows in flips]
        columns = [np.array([members[j].entries for members in batch], np.int8) for j in range(4)]
        assert naf_vanishes(columns, (1, 1, 2, 2)).tolist() == [True] + [False] * len(flips)

    def test_lag_identity_holds_entrywise(self):
        # Recompute the combined lag sums directly for the n=8 example.
        from turynseq.seqs import naf_all

        assert verify_tt(N8_EXAMPLE)
        na, nb = naf_all(N8_EXAMPLE.a), naf_all(N8_EXAMPLE.b)
        nc, nd = naf_all(N8_EXAMPLE.c), naf_all(N8_EXAMPLE.d)
        for s in range(1, 8):
            total = na[s] + nb[s] + 2 * nc[s] + 2 * (nd[s] if s < 7 else 0)
            assert total == 0


class TestGroup:
    def test_generators_are_involutions(self):
        for g in GENERATORS:
            assert g_mul(g, g) == IDENTITY

    def test_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_element(rng)
            assert g_mul(IDENTITY, g) == g
            assert g_mul(g, IDENTITY) == g

    def test_defining_relations(self):
        # Swapping A and B conjugates the A-moves into B-moves.
        assert g_mul(SWAP_AB, NEGATE_A) == g_mul(NEGATE_B, SWAP_AB)
        # Alternation twists reversal by a negation.
        lhs = g_mul(g_mul(ALTERNATE, REVERSE_A), ALTERNATE)
        assert lhs == g_mul(REVERSE_A, NEGATE_A)

    def test_closure_has_exactly_1024_elements(self):
        seen = {IDENTITY}
        frontier = [IDENTITY]
        while frontier:
            nxt = []
            for g in frontier:
                for gen in GENERATORS:
                    h = g_mul(g, gen)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        assert len(seen) == 1024
        assert seen == set(all_elements())

    def test_associativity_on_random_triples(self):
        rng = random.Random(271)
        for _ in range(200):
            g, h, k = (random_element(rng) for _ in range(3))
            assert g_mul(g_mul(g, h), k) == g_mul(g, g_mul(h, k))


class TestAction:
    def test_generator_actions(self):
        s = N8_EXAMPLE
        assert g_apply(NEGATE_A, s) == TurynQuad(s.a.negate(), s.b, s.c, s.d)
        assert g_apply(SWAP_AB, s) == TurynQuad(s.b, s.a, s.c, s.d)
        alt = g_apply(ALTERNATE, s)
        assert alt == TurynQuad(
            s.a.alternate(), s.b.alternate(), s.c.alternate(), s.d.alternate()
        )

    def test_generator_actions_are_involutions(self):
        for g in GENERATORS:
            assert g_apply(g, g_apply(g, N8_EXAMPLE)) == N8_EXAMPLE

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        g=GROUP_ELEMENTS,
        h=GROUP_ELEMENTS,
        s=st.one_of(
            st.sampled_from([decode(code, 8) for code in load_reference_codes("reference_n8.txt")]),
            # Any +-1 quadruple of even length, not only Turyn-type ones.
            st.integers(1, 20).flatmap(lambda half: pm_quads(2 * half)),
        ),
    )
    def test_action_respects_multiplication(self, g, h, s):
        assert g_apply(g_mul(g, h), s) == g_apply(g, g_apply(h, s))

    def test_action_preserves_validity(self):
        for g in all_elements():
            assert verify_tt(g_apply(g, N8_EXAMPLE))

    def test_odd_length_rejected(self):
        odd = TurynQuad.from_pm("+++", "+++", "+++", "++")
        with pytest.raises(ValueError, match="even"):
            g_apply(ALTERNATE, odd)


class TestOrbit:
    def test_orbit_is_closed_and_valid(self):
        orb = orbit(TT2)
        assert 1024 % len(orb) == 0
        for q in orb:
            assert verify_tt(q)
        for g in GENERATORS:
            assert {g_apply(g, q) for q in orb} == orb

    def test_orbit_equals_image_of_all_elements(self):
        rep = decode("006d6", 6)
        assert orbit(rep) == {g_apply(g, rep) for g in all_elements()}

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            orbit(TurynQuad.from_pm("++", "++", "++", "+"))


class TestCanonicalForm:
    def test_displayed_examples_are_canonical(self):
        assert is_canonical(decode("06e5c4d1", 8))
        assert is_canonical(TT38)

    def test_negating_a_breaks_condition_one(self):
        assert not is_canonical(g_apply(NEGATE_A, decode("06e5c4d1", 8)))

    def test_canonicalize_is_idempotent(self):
        for code in load_reference_codes("reference_n6.txt"):
            rep = decode(code, 6)
            assert canonicalize(rep) == rep

    def test_canonicalize_is_constant_on_orbits(self):
        rng = random.Random(11)
        rep = decode("06e5c4d1", 8)
        for _ in range(20):
            g = random_element(rng)
            assert canonicalize(g_apply(g, rep)) == rep

    def test_recovers_representative_from_scrambled_member(self):
        rep = decode("06e5c4d1", 8)
        scrambled = g_apply(ALTERNATE, g_apply(NEGATE_C, g_apply(REVERSE_A, rep)))
        assert scrambled != rep
        assert canonicalize(scrambled) == rep

    def test_each_small_orbit_has_one_canonical_member(self):
        for code in load_reference_codes("reference_n6.txt"):
            orb = orbit(decode(code, 6))
            assert sum(1 for q in orb if is_canonical(q)) == 1

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(TurynQuad.from_pm("++", "++", "++", "+"))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_orbit_scan_on_every_image(self, n):
        for code in load_reference_codes(f"reference_n{n}.txt"):
            rep = decode(code, n)
            oracle = orbit_scan_canonical(rep)
            assert oracle == [rep]
            for g in all_elements():
                assert canonicalize(g_apply(g, rep)) == oracle[0]

    @settings(derandomize=True, deadline=None)
    @given(
        bits=st.tuples(*[st.integers(0, 1)] * 10),
        rep=st.sampled_from(PROPERTY_REPS),
    )
    def test_recovers_representative_from_any_group_image(self, bits, rep):
        assert canonicalize(g_apply(GroupElement(bits), rep)) == rep

    def test_does_not_scan_the_orbit(self, monkeypatch):
        def no_orbit(s):
            raise AssertionError("canonicalize must not build the orbit")

        monkeypatch.setattr(core, "orbit", no_orbit)
        scrambled = g_apply(g_mul(ALTERNATE, g_mul(SWAP_AB, REVERSE_A)), TT38)
        assert canonicalize(scrambled) == TT38

    def test_last_c_entry_forced_negative(self):
        for n in (2, 4, 6, 8, 10):
            for code in load_reference_codes(f"reference_n{n}.txt"):
                assert decode(code, n).c.entries[-1] == -1


SCALAR_CLAUSES = {
    "A": core._ab_clause,
    "B": core._ab_clause,
    "C": core._c_clause,
    "D": core._d_clause,
}


def pm_rows(length: int):
    """Lists of `length` entries of +-1, for hypothesis."""
    return st.lists(st.sampled_from((1, -1)), min_size=length, max_size=length)


class TestClauseMask:
    """The vectorised clause mask of the pools and A/B tables, against the scalar clauses."""

    @pytest.mark.parametrize("length", range(2, 13))
    def test_equals_scalar_clauses_on_every_row(self, length):
        rows = np.array(list(itertools.product((1, -1), repeat=length)), np.int8)
        for kind, clause in SCALAR_CLAUSES.items():
            expected = [clause(tuple(row)) for row in rows.tolist()]
            assert core._clause_mask(rows, kind).tolist() == expected, kind

    @settings(derandomize=True, deadline=None)
    @given(
        rows=st.integers(1, 38).flatmap(
            lambda length: st.lists(pm_rows(length), min_size=1, max_size=16)
        ),
        kind=st.sampled_from("ABCD"),
    )
    def test_equals_scalar_clauses_on_random_rows(self, rows, kind):
        expected = [SCALAR_CLAUSES[kind](tuple(row)) for row in rows]
        assert core._clause_mask(np.array(rows, np.int8), kind).tolist() == expected


class TestEquivalence:
    # Two quadruples are equivalent iff one lies in the orbit of the other.
    def test_reflexive_and_single_moves(self):
        assert TT2 in orbit(TT2)
        assert g_apply(NEGATE_C, TT2) in orbit(TT2)
        assert canonicalize(g_apply(NEGATE_C, TT2)) == canonicalize(TT2)

    def test_distinct_classes(self):
        first, second = decode("006d6", 6), decode("01396", 6)
        assert second not in orbit(first)
        assert canonicalize(first) != canonicalize(second)


class TestPhi:
    def test_canonical_members_have_phi_one(self):
        for code in load_reference_codes("reference_n8.txt"):
            assert phi(decode(code, 8)) == 1

    def test_alternation_flips_phi(self):
        rng = random.Random(17)
        for code in load_reference_codes("reference_n8.txt"):
            s = g_apply(random_element(rng), decode(code, 8))
            assert phi(g_apply(ALTERNATE, s)) == -phi(s)

    def test_swap_free_part_preserves_phi(self):
        rng = random.Random(18)
        rep = decode("06e054d", 8)
        for g in all_elements():
            if g.bits[9] == 0:  # no alternation factor
                assert phi(g_apply(g, rep)) == phi(rep)

    def test_endpoint_products_agree_across_a_and_b(self):
        for q in orbit(decode("045ec", 6)):
            assert q.a.entries[0] * q.a.entries[-1] == q.b.entries[0] * q.b.entries[-1]
