"""Tests for repro.core.distances — DL, fat-finger, and visual distances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    classify_edit,
    damerau_levenshtein,
    fat_finger_distance,
    is_dl1,
    is_ff1,
    visual_distance,
    within_one_edit,
)


class TestDamerauLevenshtein:
    def test_identity(self):
        assert damerau_levenshtein("gmail", "gmail") == 0

    def test_empty_strings(self):
        assert damerau_levenshtein("", "") == 0
        assert damerau_levenshtein("abc", "") == 3
        assert damerau_levenshtein("", "abc") == 3

    def test_single_substitution(self):
        assert damerau_levenshtein("gmail", "gmaul") == 1

    def test_single_deletion(self):
        assert damerau_levenshtein("gmail", "gmal") == 1

    def test_single_addition(self):
        assert damerau_levenshtein("gmail", "gmaail") == 1

    def test_transposition_counts_one(self):
        assert damerau_levenshtein("gmail", "gmial") == 1

    def test_symmetry(self):
        pairs = [("outlook", "ohtlook"), ("verizon", "evrizon"), ("a", "ba")]
        for a, b in pairs:
            assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)

    def test_full_damerau_not_osa(self):
        # full DL("ca","abc") == 2 (transpose then insert); OSA would give 3
        assert damerau_levenshtein("ca", "abc") == 2

    def test_distance_two(self):
        assert damerau_levenshtein("gmail", "gmual") == 2

    def test_triangle_inequality_spot(self):
        a, b, c = "outlook", "ohtlook", "ohtluok"
        assert damerau_levenshtein(a, c) <= (
            damerau_levenshtein(a, b) + damerau_levenshtein(b, c))

    def test_is_dl1(self):
        assert is_dl1("gmail", "gmial")
        assert not is_dl1("gmail", "gmail")
        assert not is_dl1("gmail", "gmual")


#: a small alphabet (with non-ASCII) so random pairs often share text
SHORT_TEXT = st.text(alphabet="ab0-éм", max_size=8)


@st.composite
def edited_pairs(draw):
    """``(a, b)`` with ``b`` up to two random edits away from ``a``."""
    a = draw(st.text(max_size=10))
    b = a
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["ins", "del", "sub", "swap"]))
        k = draw(st.integers(0, len(b)))
        char = draw(st.characters())
        if op == "ins":
            b = b[:k] + char + b[k:]
        elif op == "del" and k < len(b):
            b = b[:k] + b[k + 1:]
        elif op == "sub" and k < len(b):
            b = b[:k] + char + b[k + 1:]
        elif op == "swap" and k + 1 < len(b):
            b = b[:k] + b[k + 1] + b[k] + b[k + 2:]
    return a, b


class TestWithinOneEdit:
    """The O(len) predicate must agree with the DL kernel at threshold 1."""

    @settings(max_examples=300, deadline=None)
    @given(edited_pairs())
    def test_matches_kernel_on_edited_unicode(self, pair):
        a, b = pair
        assert within_one_edit(a, b) == (damerau_levenshtein(a, b) <= 1)
        assert within_one_edit(b, a) == within_one_edit(a, b)

    @settings(max_examples=300, deadline=None)
    @given(SHORT_TEXT, SHORT_TEXT)
    def test_matches_kernel_on_random_pairs(self, a, b):
        assert within_one_edit(a, b) == (damerau_levenshtein(a, b) <= 1)

    @pytest.mark.parametrize("a, b, expected", [
        ("", "", True),
        ("é", "é", True),
        ("gmail", "gmail", True),
        ("", "x", True),
        ("", "xy", False),
        ("gmail", "gma", False),
        ("ab", "abcd", False),
        ("gmail", "gmial", True),
        ("gmail", "gmaill", True),
        ("gmail", "gmali", True),
        ("ab", "ba", True),
        ("abc", "cba", False),
        ("gmail", "gmuil", True),
        ("gmail", "gmuul", False),
        ("abcd123", "abcd1x23", True),
    ])
    def test_edge_cases(self, a, b, expected):
        assert within_one_edit(a, b) is expected
        assert within_one_edit(b, a) is expected
        assert (damerau_levenshtein(a, b) <= 1) is expected


class TestClassifyEdit:
    def test_substitution(self):
        assert classify_edit("outlook", "ohtlook") == ("substitution", 1)

    def test_deletion(self):
        assert classify_edit("zohomail", "zohomil") == ("deletion", 5)

    def test_addition(self):
        assert classify_edit("gmail", "gmaail") == ("addition", 2)

    def test_transposition(self):
        assert classify_edit("gmail", "gmial") == ("transposition", 2)

    def test_identity_returns_none(self):
        assert classify_edit("gmail", "gmail") is None

    def test_distance_two_returns_none(self):
        assert classify_edit("gmail", "gmual") is None

    def test_length_gap_two_returns_none(self):
        assert classify_edit("gmail", "gma") is None

    def test_double_char_deletion_any_valid_index(self):
        # deleting either 'o' of "oo" yields the same string
        result = classify_edit("outlook", "utlook")
        assert result == ("deletion", 0)


class TestFatFinger:
    def test_adjacent_substitution_is_ff1(self):
        # u and h neighbour on QWERTY
        assert fat_finger_distance("outlook", "ohtlook") == 1

    def test_nonadjacent_substitution_not_ff1(self):
        # p is far from a
        assert fat_finger_distance("gmail", "gmpil", max_interesting=1) > 1

    def test_deletion_always_ff1(self):
        assert fat_finger_distance("gmail", "gmal") == 1

    def test_transposition_always_ff1(self):
        assert fat_finger_distance("gmail", "gmial") == 1

    def test_doubling_insertion_ff1(self):
        assert fat_finger_distance("gmail", "gmaail") == 1

    def test_adjacent_insertion_ff1(self):
        # q neighbours a -> inserting q next to a is a fat-finger slip
        assert fat_finger_distance("gmail", "gmaqil") == 1

    def test_identity_zero(self):
        assert fat_finger_distance("gmail", "gmail") == 0

    def test_ff1_implies_dl1(self):
        pairs = [("outlook", "ohtlook"), ("gmail", "gmial"), ("gmail", "gmal")]
        for a, b in pairs:
            if is_ff1(a, b):
                assert is_dl1(a, b)

    def test_far_pairs_capped(self):
        distance = fat_finger_distance("gmail", "yahoo", max_interesting=2)
        assert distance == 3  # sentinel max_interesting + 1


class TestVisualDistance:
    def test_identity_zero(self):
        assert visual_distance("gmail", "gmail") == 0.0

    def test_confusable_glyph_cheap(self):
        # o -> 0 is nearly invisible
        assert visual_distance("outlook", "outlo0k") < 0.3

    def test_distinct_letter_swap_expensive(self):
        assert visual_distance("outlook", "ohtlook") > visual_distance(
            "outlook", "outlo0k")

    def test_transposition_moderate(self):
        trans = visual_distance("gmail", "gmial")
        sub = visual_distance("gmail", "gmxil")
        assert trans < sub

    def test_doubled_letter_deletion_cheap(self):
        doubled = visual_distance("outlook", "outlok")   # drop one 'o' of "oo"
        plain = visual_distance("outlook", "utlook")     # drop leading 'o'
        assert doubled < plain

    def test_edge_positions_more_visible(self):
        first = visual_distance("verizon", "xerizon")
        middle = visual_distance("verizon", "verxzon")
        assert first > middle

    def test_rn_m_digram_confusion(self):
        assert visual_distance("corn", "com") < 0.5

    def test_non_dl1_fallback_total(self):
        # function must be total even for distance-2 pairs
        assert visual_distance("gmail", "gmual") >= 0

    def test_nonnegative(self):
        pairs = [("gmail", "gmial"), ("a", "b"), ("chase", "chsse")]
        for a, b in pairs:
            assert visual_distance(a, b) >= 0

    def test_paper_finding_visible_vs_invisible(self):
        """outlo0k (invisible) should be far 'closer' than outmook (visible)."""
        assert visual_distance("outlook", "outlo0k") * 3 < visual_distance(
            "outlook", "outmook")
