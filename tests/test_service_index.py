"""The resident typo-risk index: retrieval parity with brute force.

The tentpole guarantee of the service layer is that the precomputed
candidate index is *pure acceleration*: for any query string whatsoever
— clean, typo, unicode, junk, over-long — :meth:`candidate_ranks`
returns exactly the set a brute-force DL scan over every materialized
target would, and never raises.  These tests pin that with hypothesis
over arbitrary text plus crafted adversarial shapes (digit-boundary
filler edits, deletion bridges between neighbouring head targets).
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EMAIL_TARGETS
from repro.core.distances import classify_edit
from repro.core.typogen import apply_edit, enumerate_edit_ops, split_domain
from repro.ecosystem.delta import ChurnSchedule
from repro.service import RiskEngine, TypoRiskIndex, normalize_query
from repro.service.workload import _EDGE_QUERIES, LookupWorkload, WorkloadMix
from repro.util.errors import ConfigError
from repro.util.rand import SeededRng

SEED = 606
MAX_RANK = 1200
FIRST_FILLER = len(EMAIL_TARGETS) + 1


@pytest.fixture(scope="module")
def index():
    return TypoRiskIndex(SEED, MAX_RANK)


# text that exercises the parser and both retrieval layers: plain
# labels, dots, digits, hyphens, the "@" address form, unicode
QUERY_ALPHABET = string.ascii_lowercase + string.digits + ".-@" + "AZ" \
    + "áñм"
QUERIES = st.text(alphabet=QUERY_ALPHABET, min_size=0, max_size=24)

#: characters a single random edit of a filler-shaped query may use
EDIT_ALPHABET = string.ascii_lowercase + string.digits + "-é"


def _filler_parts(index, filler_index):
    """(stem, digits) of the filler at ``filler_index`` — also past the
    end of the universe, where the name law still defines one."""
    label = index.world.target_domain(FIRST_FILLER + filler_index)[:-4]
    stem = label.rstrip(string.digits)
    return stem, label[len(stem):]


@st.composite
def filler_shaped(draw, index):
    """Traffic-shaped text: 3-10 letters, then 0-7 digits, then at most
    one random edit.  The letters and digits are either random or a real
    filler's stem and index, so the query often sits within an edit or
    two of a filler — the regime the filler retrieval serves."""
    stem, digits = _filler_parts(
        index, draw(st.integers(0, MAX_RANK - FIRST_FILLER + 1)))
    letters = draw(st.one_of(
        st.just(stem),
        st.text(alphabet=string.ascii_lowercase, min_size=3, max_size=10)))
    digits = draw(st.one_of(
        st.just(digits),
        st.text(alphabet=string.digits, min_size=0, max_size=7)))
    label = letters + digits
    op = draw(st.sampled_from(["none", "ins", "del", "sub", "swap"]))
    k = draw(st.integers(0, len(label)))
    char = draw(st.sampled_from(EDIT_ALPHABET))
    if op == "ins":
        label = label[:k] + char + label[k:]
    elif op == "del" and k < len(label):
        label = label[:k] + label[k + 1:]
    elif op == "sub" and k < len(label):
        label = label[:k] + char + label[k + 1:]
    elif op == "swap" and k + 1 < len(label):
        label = label[:k] + label[k + 1] + label[k] + label[k + 2:]
    return label + ".com"


class TestRetrievalParity:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(QUERIES)
    def test_arbitrary_text(self, index, query):
        assert index.candidate_ranks(query) == \
            index.brute_force_candidate_ranks(query)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=MAX_RANK),
           st.randoms(use_true_random=False))
    def test_single_edits_of_targets(self, index, rank, rnd):
        """One random DL-1 edit of any target must retrieve that target."""
        label, suffix = index.world.target_parts(rank)
        ops = enumerate_edit_ops(label)
        op, edit_index, char = ops[rnd.randrange(len(ops))]
        typo = f"{apply_edit(label, op, edit_index, char)}.{suffix}"
        ranks = index.candidate_ranks(typo)
        assert ranks == index.brute_force_candidate_ranks(typo)
        # the edited rank is itself within one edit, so it must appear
        # (unless the edit produced another target exactly — then the
        # exact rank is still included, distance 0)
        assert rank in ranks

    def test_edge_queries_never_raise(self, index):
        for query in _EDGE_QUERIES:
            assert index.candidate_ranks(query) == \
                index.brute_force_candidate_ranks(query)

    def test_exact_targets_retrieve_themselves(self, index):
        rng = SeededRng(7)
        ranks = {1, 2, len(EMAIL_TARGETS), len(EMAIL_TARGETS) + 1,
                 MAX_RANK} | {rng.randint(1, MAX_RANK) for _ in range(24)}
        for rank in sorted(ranks):
            domain = index.world.target_domain(rank)
            assert rank in index.candidate_ranks(domain)
            assert index.target_rank(domain) == rank

    def test_digit_boundary_filler_edits(self, index):
        """Edits in the numeric tail hop between filler indexes."""
        first_filler = len(EMAIL_TARGETS) + 1
        for rank in (first_filler, first_filler + 9, first_filler + 99,
                     MAX_RANK - 1, MAX_RANK):
            label, suffix = index.world.target_parts(rank)
            stem = label.rstrip(string.digits)
            digits = label[len(stem):]
            # substitute every digit position with every digit — these
            # are the collisions most likely to hit *other* fillers
            for position in range(len(digits)):
                for digit in "0123456789":
                    typo = (f"{stem}{digits[:position]}{digit}"
                            f"{digits[position + 1:]}.{suffix}")
                    assert index.candidate_ranks(typo) == \
                        index.brute_force_candidate_ranks(typo), typo

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_filler_shaped_text(self, index, data):
        query = data.draw(filler_shaped(index))
        assert index.candidate_ranks(query) == \
            index.brute_force_candidate_ranks(query), query

    def test_lookup_workload_pool(self):
        """Every query a typo-heavy stream can emit, on a 2k universe."""
        mix = WorkloadMix(clean=0.10, gtypo=0.50, ctypo=0.30, junk=0.10)
        workload = LookupWorkload(SEED, 2000, pool_size=256, mix=mix)
        index = TypoRiskIndex(SEED, 2000)
        mismatches = [
            query for query in workload.pool_entries()
            if index.candidate_ranks(query)
            != index.brute_force_candidate_ranks(query)]
        assert mismatches == []

    def test_overlong_and_empty_labels_are_empty(self, index):
        for query in ("", ".", "com", "a" * 70 + ".com",
                      "b" * 200, "@@@", "x.y.z." + "q" * 64):
            assert index.candidate_ranks(query) == ()


class TestFillerEdgeCases:
    """Digit-run shapes the filler retrieval must get exactly right."""

    @staticmethod
    def _assert_parity(index, labels, expected_rank=None):
        for label in labels:
            query = label + ".com"
            ranks = index.candidate_ranks(query)
            assert ranks == index.brute_force_candidate_ranks(query), query
            if expected_rank is not None:
                assert expected_rank in ranks, query

    def test_one_digit_index_by_bare_stem(self, index):
        # deleting the only digit leaves a query with no digits at all
        for filler_index in range(10):
            stem, digits = _filler_parts(index, filler_index)
            assert len(digits) == 1
            self._assert_parity(index, [stem, stem[:-1] + digits],
                                FIRST_FILLER + filler_index)

    def test_leading_zero_queries(self, index):
        for filler_index in (0, 5, 123, 1000):
            stem, digits = _filler_parts(index, filler_index)
            self._assert_parity(index, [f"{stem}0{digits}"],
                                FIRST_FILLER + filler_index)
            self._assert_parity(index, [f"{stem}00{digits}",
                                        f"{stem[:-1]}0{digits}"])

    def test_letter_digit_swap_at_boundary(self, index):
        for filler_index in (3, 42, 777):
            stem, digits = _filler_parts(index, filler_index)
            swapped = stem[:-1] + digits[0] + stem[-1] + digits[1:]
            self._assert_parity(index, [swapped],
                                FIRST_FILLER + filler_index)

    def test_first_digit_replaced_by_letter(self, index):
        for filler_index in (7, 64, 1100):
            stem, digits = _filler_parts(index, filler_index)
            labels = [stem + letter + digits[1:] for letter in "aqz"]
            self._assert_parity(index, labels, FIRST_FILLER + filler_index)

    def test_digit_run_split_by_letter(self, index):
        stem, digits = _filler_parts(index, 123)
        assert digits == "123"
        self._assert_parity(index, [f"{stem}1x23", f"{stem}12x3"],
                            FIRST_FILLER + 123)
        self._assert_parity(index, ["abcd1x23", f"{stem}1x2x3"])

    def test_last_filler_and_one_past_it(self, index):
        last = MAX_RANK - FIRST_FILLER
        stem, digits = _filler_parts(index, last)
        self._assert_parity(index, [stem + digits, stem + digits + "0"],
                            MAX_RANK)
        # one past the universe: the name law defines it, the index must
        # not retrieve it (only neighbours inside the universe)
        past_stem, past_digits = _filler_parts(index, last + 1)
        past = past_stem + past_digits
        self._assert_parity(index, [past, past_stem + past_digits[:-1],
                                    past[:-1]])
        assert MAX_RANK + 1 not in index.candidate_ranks(past + ".com")

    def test_exactly_one_foreign_character(self, index):
        stem, digits = _filler_parts(index, 321)
        rank = FIRST_FILLER + 321
        self._assert_parity(index, [
            f"{stem}-{digits}",
            f"é{stem}{digits}",
            f"{stem[:-1]}é{digits}",
            f"{stem}{digits[:-1]}é",
            f"{stem}{digits}-",
        ], rank)
        # two foreign characters are always beyond one edit of a filler
        self._assert_parity(index, [f"{stem}-{digits}-",
                                    f"é{stem}é{digits}"])


#: a universe where 2-syllable stems repeat (80**2 of them over ~10k
#: two-syllable fillers), so one stem probe returns several fillers
STEM_RANKS = 20_000


@pytest.fixture(scope="module")
def stem_index():
    return TypoRiskIndex(SEED, STEM_RANKS)


def _filler_edits(stem, digits):
    """One edit of each class of the filler ``stem + digits``: a digit
    substituted, inserted, deleted or swapped at every position, the
    last letter swapped with the first digit, a letter over a digit and
    a foreign character over a digit at every digit position, and a
    digit over a letter at every stem position."""
    label = stem + digits
    n = len(stem)
    edits = [stem[:-1] + digits[0] + stem[-1] + digits[1:]]
    for k, digit in enumerate(digits):
        head, tail = stem + digits[:k], digits[k + 1:]
        edits += [head + other + tail
                  for other in {str((int(digit) + 1) % 10), "0"} - {digit}]
        edits += [head + tail, head + "7" + digit + tail,
                  head + "q" + tail, head + "é" + tail]
        if tail:
            edits.append(head + tail[0] + digit + tail[1:])
    edits.append(label + "7")
    edits += [label[:k] + "5" + label[k + 1:] for k in range(n)]
    return edits


class TestStemRetrieval:
    """Every edit class against brute force, for fillers whose stem
    other fillers share, so the stem probes return several indices."""

    def test_edits_of_fillers_with_shared_stems(self, stem_index):
        count = STEM_RANKS - FIRST_FILLER + 1
        by_stem = {}
        for filler in range(count):
            stem, digits = _filler_parts(stem_index, filler)
            by_stem.setdefault(stem, []).append(filler)
        shared = [fillers for fillers in by_stem.values()
                  if len(fillers) >= 3]
        assert len(shared) > 100
        for fillers in shared[:3]:
            filler = fillers[-1]
            stem, digits = _filler_parts(stem_index, filler)
            assert stem_index.world.filler_indices(stem, count) == fillers
            TestFillerEdgeCases._assert_parity(
                stem_index, _filler_edits(stem, digits),
                FIRST_FILLER + filler)

    def test_bare_stem_last_filler_and_one_past(self, stem_index):
        stem, digits = _filler_parts(stem_index, 4)
        TestFillerEdgeCases._assert_parity(stem_index, [stem],
                                           FIRST_FILLER + 4)
        last = STEM_RANKS - FIRST_FILLER
        stem, digits = _filler_parts(stem_index, last)
        TestFillerEdgeCases._assert_parity(
            stem_index, [stem + digits, stem + digits[:-1] + "9"],
            STEM_RANKS)
        stem, digits = _filler_parts(stem_index, last + 1)
        TestFillerEdgeCases._assert_parity(
            stem_index, [stem + digits, stem + digits[1:]])
        assert STEM_RANKS + 1 not in stem_index.candidate_ranks(
            stem + digits + ".com")


class TestServingBuildsNoChunk:
    """Serving reads filler names from the stem draws, never from a
    built 1,024-name chunk: a chunk built on the hot path is a ~0.5 ms
    stall inside one lookup."""

    def test_pool_and_hot_swap_build_no_chunk(self):
        mix = WorkloadMix(clean=0.10, gtypo=0.50, ctypo=0.30, junk=0.10)
        pool = LookupWorkload(SEED, 5_000, pool_size=256,
                              mix=mix).pool_entries()
        engine = RiskEngine(TypoRiskIndex(SEED, 5_000))
        schedule = ChurnSchedule(SEED, 5_000)
        filler_targets = 0
        for day in (0, 1):
            if day:
                assert engine.hot_swap(schedule, day) > 0
            for query in pool:
                verdict = engine.lookup(query)
                filler_targets += (verdict.target_rank or 0) > FIRST_FILLER
                assert not engine.index.world._chunks, query
        assert filler_targets > 100

    def test_brute_force_reads_materialized_names(self):
        index = TypoRiskIndex(SEED, 3_000)
        index.brute_force_candidate_ranks("abcd12.com")
        assert sorted(index.world._chunks) == [0, 1, 2]


class TestNormalization:
    def test_normalize_query_strips_case_dot_and_address(self):
        assert normalize_query(" GMAIL.COM. ") == "gmail.com"
        assert normalize_query("User@Gmial.Com") == "gmial.com"
        assert normalize_query("a@b@gmail.com") == "gmail.com"

    def test_candidates_see_through_address_form(self, index):
        assert index.candidate_ranks("someone@gmail.com") == \
            index.candidate_ranks("gmail.com")


class TestRegisteredGroundTruth:
    def test_registered_labels_match_rank_states(self, index):
        """The index's registration answers are the world's own ground
        truth: exactly the rank's ctypos, out of every one-edit typo."""
        for rank in (1, 3, len(EMAIL_TARGETS) + 1, 40):
            states = index.world.rank_states(rank)
            label, suffix = index.world.target_parts(rank)
            expected = {split_domain(state.domain)[0] for state in states}
            assert all(state.domain.endswith("." + suffix)
                       for state in states)
            typos = {apply_edit(label, *op)
                     for op in enumerate_edit_ops(label)}
            assert {typo for typo in typos
                    if index.is_registered_typo(
                        typo, rank, classify_edit(label, typo))} == expected


class TestConstruction:
    def test_max_rank_must_be_positive(self):
        with pytest.raises(ConfigError):
            TypoRiskIndex(SEED, 0)

    def test_head_only_world_has_no_filler_probes(self, index):
        tiny = TypoRiskIndex(SEED, 5)
        assert tiny.candidate_ranks("gmial.com") == \
            tiny.brute_force_candidate_ranks("gmial.com")
        # a filler-shaped query cannot match anything in a 5-rank world
        assert tiny.candidate_ranks("abcd123.com") == ()
        # nor in any universe of heads only, even the first filler's name
        stem, digits = _filler_parts(index, 0)
        for max_rank in (1, 5, len(EMAIL_TARGETS)):
            tiny = TypoRiskIndex(SEED, max_rank)
            TestFillerEdgeCases._assert_parity(tiny, [
                stem + digits, stem, stem + "0" + digits, "gmial",
                "hotmial", "abcd1x23"])
            assert tiny.candidate_ranks(stem + digits + ".com") == ()

    def test_build_is_fast_and_counted(self, index):
        assert index.build_seconds < 1.0
        assert index.head_bucket_count > len(EMAIL_TARGETS)
