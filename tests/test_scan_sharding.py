"""The paper-scale lazy world model and sharded streaming scan.

Pins the properties the sharded pipeline is built on: the vectorised
registration grid reproduces the typo generator slot for slot, the lazy
per-rank states agree with the eagerly materialized Internet, shards
merge to byte-identical digests regardless of the partition, and the
streaming path retains nothing per-result.
"""

import tracemalloc

import pytest

from repro.core.typogen import apply_edit, enumerate_edit_ops, split_domain
from repro.ecosystem import (
    InternetConfig,
    ScanAggregates,
    WorldModel,
    build_internet,
)
from repro.ecosystem.internet import _typo_quality
from repro.ecosystem.world import (
    _generated_count,
    _grid_draw,
    _grid_masks,
    _rank_uniforms,
    _RankKeyedStream,
    _registration_grid,
)
from repro.ecosystem.delta import _width_ranges
from repro.experiment import run_sharded_scan
from repro.experiment.parallel import RangeTask, run_range, scan_range
from repro.util.rand import SeededRng

GRID_LABELS = ["gmail", "hotmail", "aa", "abba", "zz-top", "a-b-c", "q",
               "bra5", "10minutemail", "mmm"]


class TestRegistrationGrid:
    @pytest.mark.parametrize("label", GRID_LABELS)
    def test_valid_mask_matches_enumerator(self, label):
        """Decoding every valid slot reproduces enumerate_edit_ops exactly."""
        valid, _, sections = _grid_masks(label)
        grid = _registration_grid(label, seed=1, rank=1,
                                  config=InternetConfig())
        decoded = [grid.decode(flat) for flat in range(valid.shape[0])
                   if valid[flat]]
        assert decoded == list(enumerate_edit_ops(label))
        assert grid.generated == len(enumerate_edit_ops(label))
        assert sum(sections) == valid.shape[0]

    @pytest.mark.parametrize("label", ["gmail", "hotmail", "zz-top", "bra5"])
    def test_quality_matches_scalar_law(self, label):
        """The vectorised quality equals internet._typo_quality per slot."""
        from repro.core.distances import (
            fat_finger_for_edit,
            visual_distance_for_edit,
        )
        from repro.core.typogen import TypoCandidate

        valid, quality, _ = _grid_masks(label)
        grid = _registration_grid(label, seed=1, rank=1,
                                  config=InternetConfig())
        for flat in range(valid.shape[0]):
            if not valid[flat]:
                continue
            op, index, char = grid.decode(flat)
            candidate = TypoCandidate(
                domain=f"{apply_edit(label, op, index, char)}.com",
                target=f"{label}.com", edit_type=op, edit_index=index,
                fat_finger=fat_finger_for_edit(label, op, index, char),
                visual=visual_distance_for_edit(label, op, index, char))
            assert quality[flat] == pytest.approx(
                _typo_quality(candidate), abs=1e-12)

    def test_registration_draw_is_rank_keyed(self):
        a = _registration_grid("gmail", seed=5, rank=1,
                               config=InternetConfig())
        b = _registration_grid("gmail", seed=5, rank=1,
                               config=InternetConfig())
        c = _registration_grid("gmail", seed=5, rank=9,
                               config=InternetConfig())
        assert list(a.registered) == list(b.registered)
        assert list(a.registered) != list(c.registered)


class TestGridFastPaths:
    """The closed-form count and the sparse draw agree with the dense law."""

    COUNT_LABELS = GRID_LABELS + ["aabbcc", "x9-9x", "ooo-ooo", "ab"]

    @pytest.mark.parametrize("label", COUNT_LABELS)
    def test_generated_count_closed_form(self, label):
        valid, _, _ = _grid_masks(label)
        assert _generated_count(label) == len(enumerate_edit_ops(label))
        assert _generated_count(label) == int(valid.sum())

    @pytest.mark.parametrize("rank", [200, 1_000, 17_500, 90_000])
    @pytest.mark.parametrize("label", ["gmail", "zz-top", "10minutemail"])
    def test_sparse_draw_matches_dense_law(self, label, rank):
        """Above the dense cutoff the preselect+confirm path must still
        pick exactly the slots the full-mask law would."""
        import numpy as np

        config = InternetConfig()
        reg_p = (config.peak_registration_probability
                 / (rank ** config.rank_decay))
        valid, quality, _ = _grid_masks(label)
        uniforms = _rank_uniforms(606, "reg", rank, valid.shape[0])
        probability = np.minimum(0.95, reg_p * quality)
        expected = np.nonzero(valid & (uniforms < probability))[0].tolist()
        generated, registered = _grid_draw(label, reg_p, uniforms)
        assert registered == expected
        assert generated == len(enumerate_edit_ops(label))

    def test_repositioned_stream_matches_fresh_generator(self):
        """Reused-bitgen seeking is byte-identical to fresh construction,
        including revisits and out-of-order ranks."""
        stream = _RankKeyedStream(42, "wild")
        for rank in (5, 1, 100_000, 5, 77):
            got = stream.uniforms(rank, 131)
            want = _rank_uniforms(42, "wild", rank, 131)
            assert got.tolist() == want.tolist()

    def test_purposes_are_independent_streams(self):
        a = _rank_uniforms(42, "reg", 3, 16)
        b = _rank_uniforms(42, "wild", 3, 16)
        assert a.tolist() != b.tolist()


class TestPartitionRanks:
    """The runner's fixed-width partition; ``jobs`` never enters it."""

    def test_covers_every_rank_exactly_once(self):
        for max_rank in (1, 2, 7, 100, 101):
            for width in (1, 2, 3, 8, 200):
                ranges = _width_ranges(max_rank, width)
                covered = [rank for start, stop in ranges
                           for rank in range(start, stop)]
                assert covered == list(range(1, max_rank + 1)), (
                    max_rank, width)

    def test_ranges_are_contiguous_and_balanced(self):
        ranges = _width_ranges(103, 25)
        assert ranges[0][0] == 1 and ranges[-1][1] == 104
        sizes = [stop - start for start, stop in ranges]
        # every range but the last is exactly the width
        assert sizes == [25, 25, 25, 25, 3]
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            _width_ranges(0, 2)
        with pytest.raises(ValueError):
            _width_ranges(10, 0)


class TestShardDeterminism:
    @pytest.mark.parametrize("seed", [7, 99])
    def test_serial_and_sharded_digests_identical(self, seed):
        serial = run_sharded_scan(seed, 300, jobs=1)
        two = run_sharded_scan(seed, 300, jobs=2, range_width=64)
        four = run_sharded_scan(seed, 300, jobs=4, range_width=40)
        assert serial.digest() == two.digest() == four.digest()
        assert serial.registered_count > 0

    def test_manual_shard_merge_matches_whole_scan(self):
        """Any split of the rank space merges to the whole scan's counts."""
        seed, max_rank = 13, 240
        whole = WorldModel(seed).scan_ranks(1, max_rank + 1,
                                            max_rank=max_rank)
        merged = ScanAggregates()
        for start, stop in ((1, 60), (60, 170), (170, max_rank + 1)):
            aggregates, _ = run_range(RangeTask(
                seed=seed, start_rank=start, stop_rank=stop,
                max_rank=max_rank, consume=scan_range))
            merged.merge(aggregates)
        assert merged.digest() == whole.digest()

    def test_different_seeds_differ(self):
        assert (run_sharded_scan(7, 120, jobs=1).digest()
                != run_sharded_scan(8, 120, jobs=1).digest())

    def test_exclusion_removes_domains(self):
        base = run_sharded_scan(7, 60, jobs=1)
        world = WorldModel(7)
        victim = world.rank_states(1)[0].domain
        excluded = run_sharded_scan(7, 60, jobs=1, exclude=(victim,))
        assert excluded.registered_count == base.registered_count - 1


class TestLazyMatchesMaterialized:
    def test_states_agree_with_built_internet(self):
        """The lazy law and the eager builder produce the same ground truth."""
        config = InternetConfig(num_filler_targets=20)
        seed = 555
        internet = build_internet(SeededRng(seed), config)
        world = WorldModel(seed, config)
        num_targets = len(internet.alexa)

        target_set = world.target_names(num_targets)
        states = {}
        for rank in range(1, num_targets + 1):
            for state in world.rank_states(rank):
                # first occurrence wins, matching the registry's behaviour
                if state.domain in target_set or state.domain in states:
                    continue
                states[state.domain] = state

        wild = {w.domain: w for w in internet.wild_domains}
        assert set(states) == set(wild)
        for domain, state in states.items():
            truth = wild[domain]
            assert truth.target == state.target
            assert truth.owner_id == state.owner_id
            assert truth.owner_type == state.owner_type
            assert truth.support == state.support
            assert truth.mx_domain == state.mx_domain
            assert truth.nameserver == state.nameserver
            assert truth.private_whois == state.private_whois
            assert truth.candidate == state.candidate()
            assert (truth.ip is not None) == state.has_address

    def test_alexa_list_matches_builder(self):
        config = InternetConfig(num_filler_targets=15)
        internet = build_internet(SeededRng(9), config)
        world = WorldModel(9, config)
        assert world.alexa_entries(len(internet.alexa)) == internet.alexa


class TestStreamingMemory:
    def test_retention_is_opt_in(self):
        world = WorldModel(3)
        sink = []
        world.scan_ranks(1, 40, max_rank=39, retain=sink)
        assert sink and all(len(pair) == 2 for pair in sink)
        aggregates = world.scan_ranks(1, 40, max_rank=39)
        assert aggregates.registered_count == len(sink)

    def test_streaming_scan_peak_memory_is_flat(self):
        """The streaming path's peak stays far below one-object-per-ctypo."""
        world = WorldModel(11)
        world.scan_ranks(1, 5, max_rank=1000)  # warm caches off the ledger
        tracemalloc.start()
        aggregates = world.scan_ranks(5, 1001, max_rank=1000)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert aggregates.registered_count > 30_000
        # retained ScanResults would need hundreds of bytes per ctypo;
        # the streaming fold holds counters plus one rank's grid only
        assert peak < 8 * 1024 * 1024

    @pytest.mark.slow
    def test_paper_scale_scan_streams_100k_ranks(self):
        """100k ranks stream through bounded memory (the ISSUE's bar)."""
        world = WorldModel(2016)
        world.scan_ranks(1, 5, max_rank=100_000)
        tracemalloc.start()
        aggregates = world.scan_ranks(5, 100_001, max_rank=100_000)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert aggregates.registered_count > 200_000
        assert peak < 64 * 1024 * 1024
