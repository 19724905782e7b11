"""The columnar walk's kernels against the scalar law they vectorise.

``WorldModel``'s walk evaluates the registration confirm, the wild-state
law and the probe over blocks of ranks as numpy columns, while the
one-rank entry points (``registered_slots``, ``rank_states``) run the
scalar law (``_confirm``, ``_wild_words``).  This suite pins kernel ==
scalar:

* registration: seeded random labels (lengths 1-63, with hyphens, digits
  and repeated letters) in dense, sparse and mixed batches, plain and
  churned, drawn from the streams and with uniforms placed exactly on,
  and one ulp under, each slot's threshold, so a ``reg_p`` one ulp off
  the scalar ``peak / r ** decay`` shows;
* the wild-state law, from one slot a rank up to several hundred;
* the probe, every row kind and support code against the scalar attempt
  loop;
* the walk: each rank's rows, slot and collision counts equal the
  scalar per-rank derivation, and scan and featurize digests of a head,
  a mid-filler and a chunk-boundary window equal values pinned from the
  scalar walk;
* the seeked filler stem equals the drawn chunk's at every offset mod 4
  and at both chunk edges;
* the collision pre-check flags every filler edit that is a target.
"""

from __future__ import annotations

import numpy as np
import pytest

from grid_reference import grid_masks
from repro.core.typogen import DOMAIN_ALPHABET, apply_edit, enumerate_edit_ops
from repro.ecosystem.world import (
    _FILLER_CHUNK,
    WorldModel,
    _confirm,
    _filler_syllables,
    _grid_total,
    _label_codes,
    _label_indices,
    _may_collide,
    _rank_uniforms,
    _spell,
)
from repro.features import featurize_domains

HEAD_N = 21


def _random_labels(rng: np.random.Generator, count: int):
    """Labels of 1-63 alphabet characters built from runs of 1-3 equal
    characters, hyphens and digits over-weighted (hyphens may lead or
    trail: the law is total over the alphabet)."""
    weights = np.ones(len(DOMAIN_ALPHABET))
    weights[DOMAIN_ALPHABET.index("-")] = 4.0
    weights[[DOMAIN_ALPHABET.index(d) for d in "0123456789"]] = 2.0
    weights /= weights.sum()
    labels = []
    for _ in range(count):
        length = int(rng.integers(1, 64))
        label = ""
        while len(label) < length:
            char = DOMAIN_ALPHABET[rng.choice(len(DOMAIN_ALPHABET),
                                              p=weights)]
            label += char * int(rng.integers(1, 4))
        labels.append(label[:length])
    return labels


def _reg_p(world: WorldModel, rank: int) -> float:
    config = world.config
    return config.peak_registration_probability / (rank ** config.rank_decay)


def _scalar_slots(label: str, reg_p: float, uniforms: np.ndarray):
    """The scalar registration law over every raw-grid slot: ``(slot
    word, visual cost)`` per registered slot, in grid order."""
    return [(word, vis) for _, word, vis in _confirm(
        _label_indices(label), reg_p, list(range(uniforms.shape[0])),
        uniforms.tolist())]


def _kernel_slots(world: WorldModel, rb0: int, labels):
    lengths = np.array([len(label) for label in labels])
    row, words, vis = world._registered(rb0, _label_codes(labels), lengths)
    return [list(zip(words[row == p].tolist(), vis[row == p].tolist()))
            for p in range(len(labels))]


#: (first rank, churn offsets): dense ranks (reg_p * 14.4 >= 0.95 up to
#: rank 161), a batch across the regime edge, and sparse ranks
BATCHES = [(1, ()), (140, (3, 11)), (200_000, ()), (200_000, (0, 5, 29))]


class TestRegistrationKernel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("rb0,churned", BATCHES)
    def test_stream_draws_match_the_scalar_law(self, seed, rb0, churned):
        rng = np.random.default_rng(seed * 7919 + rb0)
        labels = _random_labels(rng, 40)
        world = WorldModel(seed, churn={rb0 + k: 1 + k % 3 for k in churned})
        kernel = _kernel_slots(world, rb0, labels)
        for p, label in enumerate(labels):
            rank = rb0 + p
            uniforms = world._stream(world._rank_purpose("reg", rank)) \
                .uniforms(rank, _grid_total(len(label)))
            assert kernel[p] == _scalar_slots(
                label, _reg_p(world, rank), uniforms), (rank, label)
        counts = [len(slots) for slots in kernel]
        if rb0 == 1:
            assert min(counts) > 0 and max(counts) > 100
        if rb0 == 200_000:
            assert min(counts) == 0 < max(counts)

    @pytest.mark.parametrize("rb0", [1, 140, 5_000])
    def test_uniforms_on_the_threshold(self, rb0, monkeypatch):
        """Each valid slot's uniform sits exactly on ``min(0.95, reg_p *
        quality)`` (not registered) or one ulp under it (registered), so
        the kernel must use the scalar law's ``reg_p`` bit for bit."""
        rng = np.random.default_rng(rb0)
        labels = _random_labels(rng, 60)
        world = WorldModel(9)
        drawn = {}
        for p, label in enumerate(labels):
            rank = rb0 + p
            valid, quality, _ = grid_masks(label)
            threshold = np.minimum(0.95, _reg_p(world, rank) * quality)
            uniforms = rng.random(valid.shape[0])
            on = np.flatnonzero(valid)
            below = rng.random(on.size) < 0.5
            uniforms[on] = np.where(
                below, np.nextafter(threshold[on], 0.0), threshold[on])
            drawn[rank] = uniforms

        def draw(base, ranks, out, starts, sizes):
            assert base == "reg"
            for rank, start, size in zip(ranks, starts, sizes):
                out[start:start + size] = drawn[rank]

        monkeypatch.setattr(world, "_draw", draw)
        kernel = _kernel_slots(world, rb0, labels)
        for p, label in enumerate(labels):
            rank = rb0 + p
            assert kernel[p] == _scalar_slots(
                label, _reg_p(world, rank), drawn[rank]), (rank, label)


class TestWildStateKernel:
    @pytest.mark.parametrize("churn", [None, {7: 1, 8: 2, 30: 5}],
                             ids=["plain", "churned"])
    def test_matches_the_scalar_law(self, churn):
        rng = np.random.default_rng(12)
        world = WorldModel(77, churn=churn)
        ranks = np.arange(5, 45)
        counts = rng.integers(1, 12, size=ranks.size)
        counts[[0, 9, 17]] = (1, 400, 2_500)     # one slot up to many
        kernel = world._wild_block(ranks, counts)
        scalar = [w for rank, n in zip(ranks.tolist(), counts.tolist())
                  for w in world._wild_words(rank, [0] * n)]
        assert kernel.tolist() == scalar


def _scalar_probe(world: WorldModel, rank: int, slots: int, rows):
    """The scan's per-row probe loop, one rank: observed support code per
    ``(class, support)`` row, in row order."""
    attempts = world.probe_attempts
    config = world.config
    pu = _rank_uniforms(world.seed, world._rank_purpose("probe", rank), rank,
                        2 * attempts * slots + 2)
    pi = 0
    out = []
    for cls, support in rows:
        if support == 0:
            out.append(0)
            continue
        if cls == 0:
            out.append(5)
            continue
        if support == 2 or (cls not in (1, 4) and support == 1):
            out.append(support)
            continue
        if cls == 1:
            timeout_p, neterr_p, listener = 0.05, 0.03, True
            seen = 5
        elif cls != 4:
            timeout_p, neterr_p, listener = 0.03, 0.02, True
            seen = 4 if support == 4 else 5
        elif support == 1:
            timeout_p, neterr_p, listener = 0.97, 0.03, False
        else:
            timeout_p = config.longtail_timeout_probability
            neterr_p = config.longtail_network_error_probability
            listener = True
            seen = 4 if support == 4 else (3 if support == 3 else 5)
        observed, refused = -1, False
        for _ in range(attempts):
            if pu[pi] < timeout_p:
                pi += 1
                continue
            pi += 1
            if pu[pi] < neterr_p:
                pi += 1
                continue
            pi += 1
            if not listener:
                refused = True
                continue
            observed = seen
            break
        out.append(observed if observed >= 0 else (2 if refused else 1))
    return out


class TestProbeKernel:
    @pytest.mark.parametrize("attempts", [1, 3])
    def test_matches_the_scalar_attempt_loop(self, attempts):
        rng = np.random.default_rng(attempts)
        world = WorldModel(31, probe_attempts=attempts, churn={12: 1})
        ranks = np.arange(10, 70)
        rows = rng.integers(0, 60, size=ranks.size)
        rows[[3, 4]] = (0, 500)
        slots = rows + rng.integers(0, 5, size=ranks.size)
        cls = rng.integers(0, 5, size=int(rows.sum()))
        support = rng.integers(0, 6, size=cls.size)
        row_rank = np.repeat(np.arange(ranks.size), rows)
        kernel = world._probe_block(ranks, slots, row_rank, cls, support)
        scalar = []
        for j, rank in enumerate(ranks.tolist()):
            mine = row_rank == j
            scalar += _scalar_probe(world, rank, int(slots[j]),
                                    zip(cls[mine].tolist(),
                                        support[mine].tolist()))
        assert kernel.tolist() == scalar


CHURN = {3: 1, 40: 2, 50_050: 1, HEAD_N + 2 * _FILLER_CHUNK + 5: 3}
#: (first, stop) rank windows: the head, mid-filler, across the second
#: filler chunk boundary
WINDOWS = {"head": (1, 121), "mid": (50_000, 50_160),
           "boundary": (HEAD_N + 2 * _FILLER_CHUNK - 80,
                        HEAD_N + 2 * _FILLER_CHUNK + 80)}
#: (scan digest, featurize digest) of each window at seed 41 and
#: max_rank 10**6, plain then churned, as the scalar walk produced them
PINNED = {
    ("head", False): (
        "4906d287afa24beb6152702f98fbfc01abce5bca0d331f77dc277095054b92f4",
        "2cce8de622f4c25da047f193d285a7be9e92e8abcece18e46d00cba6e587c511"),
    ("mid", False): (
        "5f44787d50909c13e8916e3e67348ef8b59ac4f109b1bb83d76d134cfb746a4c",
        "36d12018fd14e9a43d47dd17312d20e8692d3f778c30efc3df6f6c5aaadd2104"),
    ("boundary", False): (
        "435f9ebb8280186a86e13795e22e0c9f931bd000821f1220d95a640709926036",
        "37cc068baa11cd4ad195733b0d79470b430c354c50e4c898a4f216015231847c"),
    ("head", True): (
        "b38844dff91b361624272f302e539150156ce82039a33209774eea33c2ffc692",
        "2f18588b164b881b868791bd5887460ca1f470d3714896900d8f0d068da23f64"),
    ("mid", True): (
        "5fa0b1797672b4423e8b55a717dbccc5b6ff8db8d866bd6666c57075b11dbcb5",
        "8e5372e75c246a465628f801e970f146b717740a5b18faad4409661c5e6c9735"),
    ("boundary", True): (
        "6d3f04a6db5796954cc81edf6b0e085a9f8af02082950a4b25c94831d3eb2e5b",
        "7d36454857aa17b8748fc9932dec57d786401f99376bb425edc218f81e84909f"),
}


def _scalar_walk(world: WorldModel, start: int, stop: int, max_rank: int):
    """Per rank with a registered slot: ``(rank, slots, collided, rows)``
    from the one-rank scalar law, ``rows`` as ``(word, visual cost)``."""
    out = []
    for rank in range(start, stop):
        slots = world.registered_slots(rank)
        if not slots:
            continue
        label, suffix = world.target_parts(rank)
        rows = [(word, vis) for word, (_, _, vis)
                in zip(world._wild_words(rank, [w for _, w, _ in slots]), slots)
                if world.target_rank(f"{_spell(label, word)}.{suffix}",
                                     max_rank) is None]
        out.append((rank, len(slots), len(slots) - len(rows), rows))
    return out


class TestWalk:
    @pytest.mark.parametrize("churned", [False, True],
                             ids=["plain", "churned"])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_rows_match_the_scalar_law(self, window, churned):
        start, stop = WINDOWS[window]
        churn = CHURN if churned else None
        world = WorldModel(41, churn=churn)
        walked = []
        for block in world._walk(start, stop, 10**6, [0]):
            ends = np.cumsum(block.nrows)
            for j, rank in enumerate(block.ranks.tolist()):
                row0 = int(ends[j - 1]) if j else 0
                rows = slice(row0, int(ends[j]))
                walked.append((rank, int(block.slots[j]),
                               int(block.collided[j]),
                               list(zip(block.words[rows].tolist(),
                                        block.vis[rows].tolist()))))
        assert walked == _scalar_walk(WorldModel(41, churn=churn), start,
                                      stop, 10**6)

    @pytest.mark.parametrize("churned", [False, True],
                             ids=["plain", "churned"])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_digests_match_the_scalar_walk(self, window, churned):
        start, stop = WINDOWS[window]
        churn = CHURN if churned else None
        scan = WorldModel(41, churn=churn).scan_ranks(
            start, stop, max_rank=10**6).digest()
        sweep = featurize_domains(41, start, stop, max_rank=10**6,
                                  world=WorldModel(41, churn=churn)).digest()
        assert (scan, sweep) == PINNED[window, churned]


class TestSeekedStem:
    @pytest.mark.parametrize("chunk", [0, 3, 977])
    def test_equals_the_drawn_chunk(self, chunk):
        flat_i, third = _filler_syllables(
            _rank_uniforms(17, "fillers", chunk, _FILLER_CHUNK * 7))
        drawn = WorldModel(17)
        drawn._stems[chunk] = (flat_i, third)
        offsets = [0, 1, 2, 3, 4, 5, 6, 7, 514, 1021, 1022, _FILLER_CHUNK - 1]
        for offset in offsets:
            index = chunk * _FILLER_CHUNK + offset
            seeked = WorldModel(17)
            stem = seeked._filler_stem(index)
            assert not seeked._stems and not seeked._chunks
            assert stem == drawn._filler_stem(index), offset
            name = drawn.target_domain(HEAD_N + index + 1)
            assert name == f"{stem}{index}.com"


class TestCollisionPrecheck:
    @pytest.mark.parametrize("seed,first", [(5, 1_895), (11, 40_000)])
    def test_flags_every_colliding_edit(self, seed, first):
        """Every DL-1 edit at or past the last stem letter of a filler
        label whose typo is a target is flagged (the walk spells no
        other edit, and none before that letter)."""
        world = WorldModel(seed)
        colliding = 0
        for rank in range(first, first + 60):
            label = world.target_domain(rank)[:-4]
            digits = len(str(rank - HEAD_N - 1))
            edits = [(op, i, c) for op, i, c in enumerate_edit_ops(label)
                     if i >= len(label) - digits - 1]
            words = np.array([
                ("deletion", "transposition", "substitution",
                 "addition").index(op) | (i << 2)
                | ((DOMAIN_ALPHABET.index(c) if c else 0) << 8)
                for op, i, c in edits])
            flags = _may_collide(words, np.full(len(words), len(label)),
                                 np.full(len(words), digits))
            for flag, (op, i, c) in zip(flags.tolist(), edits):
                typo = apply_edit(label, op, i, c) + ".com"
                if world.target_rank(typo, 10**6) is not None:
                    colliding += 1
                    assert flag, (rank, typo)
        if seed == 5:
            assert colliding > 0        # stetri1881 -> stetri18281 (1903)
