"""The merge algebra behind serial == sharded == delta byte-identity.

Every scale claim in the scan engine reduces to one algebraic fact:
:meth:`ScanAggregates.merge` is exact integer addition, so folds over
any partition of the rank space — serial, sharded, per-baseline-range —
commute and associate to the same canonical digest.  This module proves
the algebra with hypothesis, checks the flat-tally fast path against
the per-record reference fold, and pins the scan digests themselves as
a regression anchor for the whole pipeline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecosystem import ScanAggregates, WorldModel
from repro.ecosystem.internet import OwnerType, SmtpSupport
from repro.ecosystem.delta import _width_ranges
from repro.experiment import run_sharded_scan

SUPPORTS = list(SmtpSupport)
OWNERS = list(OwnerType)

#: the scan-scale digests (seed 606) — any change to the draw law, the
#: probe emulation, the fold, or canonical serialization moves these
DIGEST_1K = "21a52173e63dbaaaa8c7ee5f0e528640e637df1e77ce0efa240ca5fc1c1d16e3"
DIGEST_10K = "4afe9151d5a1064a39e3c22f5253452221133fc43749045bcb74516b72a248bb"
DIGEST_100K = ("d482c72faa7aa6a38a6cd737ab9df562"
               "5aadb5d2a694053b225f9cd6db67f2ac")


def observations():
    """One synthetic registered-ctypo observation per draw."""
    return st.tuples(
        st.sampled_from(["gmail.com", "hotmail.com", "mail.ru"]),
        st.sampled_from(["owner-a", "owner-b", "owner-c"]),
        st.sampled_from(OWNERS),
        st.sampled_from(SUPPORTS),
        st.sampled_from(SUPPORTS),
        st.one_of(st.none(), st.sampled_from(["mx1.example", "mx2.example"])),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )


def fold(obs_list):
    aggregates = ScanAggregates()
    aggregates.add_generated(len(obs_list) * 3)
    for (target, owner, owner_type, truth, seen,
         mx, implicit, private, track) in obs_list:
        aggregates.add_result(target, owner, owner_type, truth, seen,
                              mx, implicit, private, track)
    return aggregates


class TestMergeAlgebra:
    @given(st.lists(observations(), max_size=40), st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_partition_merges_to_the_same_digest(self, obs, data):
        """Chopping the observation stream anywhere yields one digest."""
        cut = data.draw(st.integers(min_value=0, max_value=len(obs)))
        whole = fold(obs)
        split = fold(obs[:cut]).merge(fold(obs[cut:]))
        assert split.digest() == whole.digest()

    @given(st.lists(observations(), max_size=24), st.data())
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative(self, obs, data):
        i = data.draw(st.integers(min_value=0, max_value=len(obs)))
        j = data.draw(st.integers(min_value=i, max_value=len(obs)))
        a, b, c = obs[:i], obs[i:j], obs[j:]
        left = fold(a).merge(fold(b)).merge(fold(c))
        right = fold(a).merge(fold(b).merge(fold(c)))
        assert left.digest() == right.digest()

    @given(st.lists(observations(), max_size=24), st.data())
    @settings(max_examples=50, deadline=None)
    def test_merge_is_commutative(self, obs, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(obs)))
        a, b = obs[:cut], obs[cut:]
        assert (fold(a).merge(fold(b)).digest()
                == fold(b).merge(fold(a)).digest())

    @given(st.lists(observations(), max_size=24))
    @settings(max_examples=50, deadline=None)
    def test_empty_is_the_identity(self, obs):
        folded = fold(obs)
        reference = folded.digest()
        assert fold(obs).merge(ScanAggregates()).digest() == reference
        assert ScanAggregates().merge(fold(obs)).digest() == reference

    @given(st.lists(observations(), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_canonical_round_trip_preserves_digest(self, obs):
        folded = fold(obs)
        round_tripped = ScanAggregates.from_canonical_dict(
            folded.canonical_dict())
        assert round_tripped.digest() == folded.digest()


class TestFoldFlatEquivalence:
    @given(st.lists(observations(), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_fold_flat_matches_add_result(self, obs):
        """The flat-tally fast path is byte-identical to the reference
        per-record fold it replaced in the scan hot loop."""
        support_by_code = [support.value for support in SUPPORTS]
        owner_by_code = [owner.value for owner in OWNERS] + ["unknown"]
        support_code = {value: i for i, value in enumerate(support_by_code)}
        owner_code = {value: i for i, value in enumerate(owner_by_code)}

        support_l = [0] * len(support_by_code)
        truth_l = [0] * len(support_by_code)
        owner_l = [0] * len(owner_by_code)
        mx_counts, owner_counts, target_counts = {}, {}, {}
        registered = private_n = implicit_n = 0
        for (target, owner, owner_type, truth, seen,
             mx, implicit, private, track) in obs:
            registered += 1
            support_l[support_code[seen.value]] += 1
            truth_l[support_code[truth.value]] += 1
            owner_l[owner_code[owner_type.value]] += 1
            if mx is not None:
                mx_counts[mx] = mx_counts.get(mx, 0) + 1
            if track:
                owner_counts[owner] = owner_counts.get(owner, 0) + 1
            target_counts[target] = target_counts.get(target, 0) + 1
            private_n += private
            implicit_n += implicit

        flat = ScanAggregates().fold_flat(
            len(obs) * 3, registered, support_l, truth_l, owner_l,
            support_by_code, owner_by_code, mx_counts, owner_counts,
            target_counts, private_n, implicit_n)
        assert flat.digest() == fold(obs).digest()


class TestScanDigestRegression:
    """The end-to-end anchors: these digests moved never, only faster."""

    def test_1k_digest_pinned(self):
        assert run_sharded_scan(606, 1_000).digest() == DIGEST_1K

    def test_10k_digest_pinned(self):
        assert run_sharded_scan(606, 10_000).digest() == DIGEST_10K

    @pytest.mark.slow
    def test_100k_digest_pinned(self):
        assert run_sharded_scan(606, 100_000).digest() == DIGEST_100K

    def test_shard_partition_invariance(self):
        """Every range width merges to the pinned digest."""
        world = WorldModel(606)
        for width in (143, 334, 500):
            merged = ScanAggregates()
            for start, stop in _width_ranges(1_000, width):
                merged.merge(world.scan_ranks(start, stop, max_rank=1_000))
            assert merged.digest() == DIGEST_1K
