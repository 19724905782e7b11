"""The ``repro-typo-model@1`` artifact: two lane models, one digest.

A :class:`TypoModel` bundles one :class:`LaneModel` per lane (``domain``,
``message``).  Each lane is a standardized logistic-regression margin plus
a gradient-boosted-stump correction; scoring a batch is one matmul and
one fused ``np.where`` pass per stump — no per-row Python anywhere.

Persistence goes through the shared artifact envelope
(:mod:`repro.util.artifact`): an atomic save and an SHA-256 self-digest
over the canonical payload.  Loading re-verifies the digest (corruption →
:class:`CheckpointCorruptError`, exit 3) and the feature-schema version
(mismatch → :class:`ConfigError`, exit 2 — a model trained against a
different column layout must never silently score garbage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.features.schema import (
    DOMAIN_FEATURES,
    FEATURE_SCHEMA_VERSION,
    MESSAGE_FEATURES,
)
from repro.util.artifact import (
    ArtifactFormat,
    json_digest,
    load_artifact,
    save_artifact,
)
from repro.util.errors import CheckpointCorruptError, ConfigError

__all__ = ["LEARNED_MODEL_FORMAT", "Stump", "LaneModel", "TypoModel",
           "save_model", "load_model", "model_digest"]

LEARNED_MODEL_FORMAT = "repro-typo-model@1"

_ARTIFACT = ArtifactFormat(LEARNED_MODEL_FORMAT, "typo model",
                           "retrain the model")

_LANE_FEATURES = {"domain": DOMAIN_FEATURES, "message": MESSAGE_FEATURES}


@dataclass(frozen=True)
class Stump:
    """One boosted decision stump over a standardized feature column."""

    feature: int         # column index into the lane's feature list
    threshold: float     # split point in standardized units
    left: float          # margin contribution when x <= threshold
    right: float         # margin contribution when x > threshold


@dataclass
class LaneModel:
    """One lane's scorer: logistic margin + boosted-stump correction."""

    lane: str                      # "domain" | "message"
    features: Tuple[str, ...]
    mean: np.ndarray               # (d,) standardization means
    scale: np.ndarray              # (d,) standardization scales (>0)
    weights: np.ndarray            # (d,) logistic weights
    bias: float
    stumps: Tuple[Stump, ...]

    def margins(self, X: np.ndarray) -> np.ndarray:
        """Raw decision margins for a feature batch — fully vectorized."""
        Xs = (X - self.mean) / self.scale
        z = Xs @ self.weights + self.bias
        for stump in self.stumps:
            z += np.where(Xs[:, stump.feature] <= stump.threshold,
                          stump.left, stump.right)
        return z

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Spam/squat probabilities in ``[0, 1]`` for a feature batch."""
        z = self.margins(X)
        # numerically stable sigmoid
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def to_payload(self) -> Dict:
        return {
            "lane": self.lane,
            "features": list(self.features),
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "stumps": [[s.feature, s.threshold, s.left, s.right]
                       for s in self.stumps],
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "LaneModel":
        features = tuple(payload["features"])
        d = len(features)
        mean = np.asarray(payload["mean"], dtype=np.float64)
        scale = np.asarray(payload["scale"], dtype=np.float64)
        weights = np.asarray(payload["weights"], dtype=np.float64)
        if not (mean.shape == scale.shape == weights.shape == (d,)):
            raise CheckpointCorruptError(
                f"lane {payload.get('lane')!r} parameter shapes disagree "
                f"with its {d}-column feature list")
        return cls(
            lane=payload["lane"], features=features, mean=mean,
            scale=scale, weights=weights, bias=float(payload["bias"]),
            stumps=tuple(Stump(int(f), float(t), float(lv), float(rv))
                         for f, t, lv, rv in payload["stumps"]))


@dataclass
class TypoModel:
    """The persisted artifact: both lane models plus provenance."""

    seed: int
    schema_version: int
    domain: LaneModel
    message: LaneModel
    provenance: Dict

    def lane(self, name: str) -> LaneModel:
        if name == "domain":
            return self.domain
        if name == "message":
            return self.message
        raise ConfigError(f"unknown model lane {name!r}")

    def to_payload(self) -> Dict:
        return {
            "format": LEARNED_MODEL_FORMAT,
            "schema_version": self.schema_version,
            "seed": self.seed,
            "domain": self.domain.to_payload(),
            "message": self.message.to_payload(),
            "provenance": self.provenance,
        }

    def digest(self) -> str:
        return model_digest(self.to_payload())


def model_digest(payload: Dict) -> str:
    """SHA-256 over the canonical JSON payload (digest field excluded)."""
    return json_digest({k: v for k, v in payload.items() if k != "digest"})


def save_model(model: TypoModel, path: str) -> str:
    """Atomically persist the model; returns its self-digest."""
    return save_artifact(path, model.to_payload())


def load_model(path: str) -> TypoModel:
    """Load and verify a ``repro-typo-model@1`` artifact.

    * unreadable / torn JSON, wrong self-digest, broken parameter shapes
      → :class:`CheckpointCorruptError` (exit 3);
    * a different artifact format →
      :class:`~repro.util.errors.CheckpointMismatchError` (exit 3);
    * an unknown feature-schema version or drifted feature lists →
      :class:`ConfigError` (exit 2): the artifact is intact but this
      build cannot interpret its columns.
    """
    def decode(payload: Dict) -> TypoModel:
        version = payload.get("schema_version")
        if version != FEATURE_SCHEMA_VERSION:
            raise ConfigError(
                f"typo model {path} uses feature schema v{version}; this "
                f"build speaks v{FEATURE_SCHEMA_VERSION} — retrain the "
                f"model")
        model = TypoModel(
            seed=int(payload["seed"]), schema_version=int(version),
            domain=LaneModel.from_payload(payload["domain"]),
            message=LaneModel.from_payload(payload["message"]),
            provenance=dict(payload.get("provenance") or {}))
        for lane in (model.domain, model.message):
            expected = _LANE_FEATURES.get(lane.lane)
            if expected is None:
                raise CheckpointCorruptError(
                    f"typo model {path} names unknown lane {lane.lane!r}")
            if lane.features != expected:
                raise ConfigError(
                    f"typo model {path} lane {lane.lane!r} was trained on "
                    "a different feature list than this build — retrain")
        return model

    return load_artifact(path, _ARTIFACT, decode)
