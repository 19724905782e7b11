"""Columnar feature engineering for the learned-detector lane.

Two lanes, mirroring the two pipelines they ride:

* :mod:`repro.features.domains` — per-domain matrices extracted from the
  scan pipeline's world walk (packed rows from
  :meth:`WorldModel.featurize_ranks`, unpacked with vector shifts).
* :mod:`repro.features.messages` — per-message matrices built from the
  classify pipeline's stage-A summaries, so featurization fans over the
  existing day-chunk workers.

:mod:`repro.features.schema` is the single source of truth for column
meaning and order on both lanes.
"""

from repro.features.domains import (
    DomainBlock,
    DomainSweep,
    block_matrix,
    block_ranks,
    domain_feature_row,
    featurize_domains,
    run_sharded_featurize,
    state_feature_row,
)
from repro.features.messages import (
    message_feature_matrix,
    message_feature_row,
)
from repro.features.schema import (
    DOMAIN_FEATURES,
    FEATURE_SCHEMA_VERSION,
    MESSAGE_FEATURES,
)

__all__ = [
    "DOMAIN_FEATURES",
    "MESSAGE_FEATURES",
    "FEATURE_SCHEMA_VERSION",
    "DomainBlock",
    "DomainSweep",
    "block_matrix",
    "block_ranks",
    "domain_feature_row",
    "state_feature_row",
    "featurize_domains",
    "run_sharded_featurize",
    "message_feature_matrix",
    "message_feature_row",
]
