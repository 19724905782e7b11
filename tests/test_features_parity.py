"""Parity suite for the columnar feature engine.

Every vectorized featurizer has a scalar twin, and this suite pins them
against each other row-for-row:

* :func:`message_feature_matrix` vs :func:`message_feature_row` over
  hypothesis-generated messages — unicode subjects, junk headers, empty
  bodies, archive attachments;
* :func:`block_matrix` (packed-word unpacking) vs
  :func:`state_feature_row` (plain strings + public distance kernels)
  over lazy-world windows, shallow and deep;
* the sweep digest: serial == sharded at any job count, and sensitive
  to the seed;
* bounded memory: featurization never retains raw messages
  (``retain_original=False``) or unbounded per-domain state.
"""

from __future__ import annotations

import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features import (
    DOMAIN_FEATURES,
    MESSAGE_FEATURES,
    block_matrix,
    block_ranks,
    domain_feature_row,
    featurize_domains,
    message_feature_matrix,
    message_feature_row,
    run_sharded_featurize,
    state_feature_row,
)
from repro.ecosystem.world import WorldModel
from repro.pipeline.tokenizer import tokenize
from repro.smtpsim import Attachment, EmailMessage
from repro.spamfilter.funnel import FilterFunnel

FUNNEL_DOMAINS = ("workplace.example",)

#: header text: printable ascii, unicode, and whitespace junk
HEADER_TEXT = st.text(max_size=40)
ADDRESSISH = st.one_of(
    st.text(max_size=30),
    st.builds("{}@{}".format,
              st.text(alphabet=string.ascii_lowercase + "0123456789.",
                      min_size=1, max_size=12),
              st.sampled_from(["workplace.example", "other.example",
                               "typo.example", ""])))


@st.composite
def email_messages(draw):
    headers = []
    for name in ("From", "To", "Subject", "Reply-To", "Return-Path",
                 "Sender", "List-Unsubscribe"):
        if draw(st.booleans()):
            headers.append((name, draw(HEADER_TEXT)))
    for _ in range(draw(st.integers(0, 3))):
        headers.append(("Received", draw(HEADER_TEXT)))
    if draw(st.booleans()):
        headers.append((draw(st.text(min_size=1, max_size=10)),
                        draw(HEADER_TEXT)))
    attachments = [
        Attachment(filename=draw(st.text(max_size=8)) + draw(
            st.sampled_from(["", ".zip", ".rar", ".pdf", ".txt"])),
            content=draw(st.binary(max_size=16)))
        for _ in range(draw(st.integers(0, 2)))]
    return EmailMessage(
        headers=headers,
        body=draw(st.text(max_size=200)),
        attachments=attachments,
        envelope_from=draw(st.one_of(st.none(), ADDRESSISH)),
        envelope_to=draw(st.lists(ADDRESSISH, max_size=3)),
        received_at=draw(st.floats(0, 1e7, allow_nan=False,
                                   allow_infinity=False)),
    )


class TestMessageLaneParity:
    @given(st.lists(email_messages(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matrix_matches_scalar_rows(self, messages):
        funnel = FilterFunnel(FUNNEL_DOMAINS, enabled_layers=())
        pairs = []
        for message in messages:
            tok = tokenize(message, retain_original=False)
            assert tok.original is None
            pairs.append((tok, funnel.summarize(tok)))
        X = message_feature_matrix(pairs)
        assert X.shape == (len(pairs), len(MESSAGE_FEATURES))
        assert np.isfinite(X).all()
        for i, (tok, summary) in enumerate(pairs):
            ref = message_feature_row(tok, summary)
            assert np.array_equal(X[i], ref), (
                f"row {i} diverged: {dict(zip(MESSAGE_FEATURES, X[i]))}"
                f" vs {dict(zip(MESSAGE_FEATURES, ref))}")

    @given(st.lists(email_messages(), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_preallocated_out_is_filled_in_place(self, messages):
        funnel = FilterFunnel(FUNNEL_DOMAINS, enabled_layers=())
        pairs = [(tok, funnel.summarize(tok))
                 for tok in (tokenize(m, retain_original=False)
                             for m in messages)]
        out = np.full((len(pairs), len(MESSAGE_FEATURES)), -1.0)
        result = message_feature_matrix(pairs, out=out)
        assert result is out
        assert np.array_equal(out, message_feature_matrix(pairs))

    def test_summary_parity_with_full_funnel_summaries(self):
        """Rows are identical whether summaries come from the no-layer
        funnel or the full one — featurization reads only the stage-A
        projection fields, never the layer verdicts."""
        from repro.util import SeededRng, derive_seed
        from repro.workloads.datasets import DATASET_PROFILES, build_dataset

        root = SeededRng(derive_seed(1207, "parity-mail"))
        name, profile = next(iter(DATASET_PROFILES.items()))
        emails = build_dataset(profile, 40, root.child(name)).emails
        plain = FilterFunnel(FUNNEL_DOMAINS, enabled_layers=())
        full = FilterFunnel(FUNNEL_DOMAINS)
        X_plain = message_feature_matrix(
            [(tok, plain.summarize(tok)) for tok in emails])
        X_full = message_feature_matrix(
            [(tok, full.summarize(tok)) for tok in emails])
        assert np.array_equal(X_plain, X_full)


LABELS = st.text(alphabet=string.ascii_lowercase + "0123456789-",
                 min_size=1, max_size=20)
JUNK_LABELS = st.one_of(LABELS, st.text(min_size=1, max_size=20))


class TestDomainScalarReference:
    @given(JUNK_LABELS,
           st.one_of(st.text(alphabet=string.ascii_lowercase + "0123456789-",
                             min_size=2, max_size=20),
                     st.text(min_size=2, max_size=20)),
           st.integers(1, 10**6),
           st.sampled_from(["deletion", "transposition", "substitution",
                            "addition"]),
           st.integers(0, 25), st.text(min_size=1, max_size=1))
    @settings(max_examples=80, deadline=None)
    def test_row_tolerates_arbitrary_labels(self, typo, target, rank,
                                            op, index, char):
        # any index valid for every op: < len-1 covers transposition too
        index %= len(target) - 1
        row = domain_feature_row(typo, target, rank, op, index, char,
                                 registered=True)
        assert row.shape == (len(DOMAIN_FEATURES),)
        assert np.isfinite(row).all()
        op_cols = [DOMAIN_FEATURES.index(f"op_{name}")
                   for name in ("deletion", "transposition",
                                "substitution", "addition")]
        assert row[op_cols].sum() == 1.0

    @given(JUNK_LABELS, JUNK_LABELS, st.integers(1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_unregistered_rows_zero_the_registration_block(
            self, typo, target, rank):
        row = domain_feature_row(typo, target, rank, "deletion", 0, "",
                                 registered=False)
        assert row[DOMAIN_FEATURES.index("registered")] == 0.0
        for name in ("mx_none", "mx_parked", "mx_web", "mx_pool",
                     "mx_self", "mx_target", "has_address",
                     "ns_cesspool", "ns_normal", "ns_target",
                     "private_whois", "whois_fields_frac"):
            assert row[DOMAIN_FEATURES.index(name)] == 0.0


#: (seed, start, stop, max_rank) — shallow head window, filler window,
#: and a window inside a much larger universe (max_rank matters for the
#: wildness rule)
WINDOWS = [
    (909, 1, 40, 39),
    (909, 37, 61, 200),
    (2016, 150, 190, 5_000),
]


class TestDomainWindowParity:
    @pytest.mark.parametrize("seed,start,stop,max_rank", WINDOWS)
    def test_sweep_matches_scalar_state_rows(self, seed, start, stop,
                                             max_rank):
        sweep = featurize_domains(seed, start, stop, max_rank=max_rank)
        parts = [block_matrix(b) for b in sweep.blocks]
        X = (np.vstack([p[0] for p in parts]) if parts
             else np.zeros((0, len(DOMAIN_FEATURES))))
        y = (np.concatenate([p[1] for p in parts]) if parts
             else np.zeros(0))
        ranks = (np.concatenate([block_ranks(b) for b in sweep.blocks])
                 if sweep.blocks else np.zeros(0, dtype=np.int64))

        world = WorldModel(seed)
        ref_rows = []
        ref_squat = []
        ref_ranks = []
        for rank in range(start, stop):
            for state in world.iter_rank_states(rank,
                                                world.rank_grid(rank)):
                ref_rows.append(state_feature_row(state))
                ref_squat.append(
                    1.0 if "squatter" in state.owner_type.value else 0.0)
                ref_ranks.append(rank)
        # target-collision exclusions are possible but rare in these
        # windows; the parity claim needs identical row streams
        assert sweep.n_excluded == 0
        assert X.shape[0] == sweep.n_rows == len(ref_rows) > 0
        assert np.array_equal(ranks, np.asarray(ref_ranks))
        assert np.array_equal(y, np.asarray(ref_squat))
        diff = np.abs(X - np.vstack(ref_rows)).max()
        assert diff == 0.0, f"max row divergence {diff}"

    def test_sweep_digest_serial_equals_sharded(self):
        # 1,100 ranks are two 1,024-wide ranges, so the workers split
        serial = run_sharded_featurize(909, 1_100, jobs=1)
        sharded = run_sharded_featurize(909, 1_100, jobs=3)
        assert serial.n_rows == sharded.n_rows > 0
        assert serial.digest() == sharded.digest()
        assert run_sharded_featurize(910, 1_100, jobs=1).digest() != \
            serial.digest()

    def test_digest_invariant_to_block_size(self):
        coarse = featurize_domains(909, 1, 301, max_rank=300)
        fine = featurize_domains(909, 1, 301, max_rank=300,
                                 block_records=512)
        assert len(fine.blocks) > len(coarse.blocks)
        assert fine.digest() == coarse.digest()


class TestBoundedMemory:
    def test_domain_featurize_memory_stays_bounded(self):
        """A 3k-rank walk peaks well under the retained-state footprint.

        Blocks are ~16 bytes/row; retaining ``DomainState`` objects for
        the same window costs >10x this bound.
        """
        tracemalloc.start()
        try:
            sweep = featurize_domains(707, 1, 3_001, max_rank=3_000,
                                      block_records=2_048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sweep.n_rows > 50_000
        assert peak < 24 * 1024 * 1024, (
            f"domain featurize peaked at {peak/1e6:.1f}MB for a 3k-rank "
            "window — per-domain state is being retained")

    def test_message_featurize_releases_raw_messages(self):
        """Chunked featurization over retain_original=False tokens never
        holds more than one chunk of raw mail."""
        from repro.util import SeededRng, derive_seed
        from repro.workloads.datasets import DATASET_PROFILES, build_dataset

        root = SeededRng(derive_seed(707, "memguard-mail"))
        name, profile = next(iter(DATASET_PROFILES.items()))
        emails = build_dataset(profile, 400, root.child(name)).emails
        funnel = FilterFunnel(FUNNEL_DOMAINS, enabled_layers=())

        tracemalloc.start()
        try:
            out = np.empty((256, len(MESSAGE_FEATURES)))
            total = 0
            for lo in range(0, len(emails), 256):
                chunk = emails[lo:lo + 256]
                pairs = [(tok, funnel.summarize(tok)) for tok in chunk]
                X = message_feature_matrix(
                    pairs, out=out[:len(pairs)] if len(pairs) <= 256
                    else None)
                total += X.shape[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == len(emails)
        assert peak < 8 * 1024 * 1024, (
            f"message featurize peaked at {peak/1e6:.1f}MB for a "
            "400-message stream — summaries or rows are accumulating")
