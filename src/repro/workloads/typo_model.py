"""The typing-mistake model: Pt and Pc (paper Section 6.1).

The paper's projection model is

    E_ij = E_i * Pt_ij * (1 - Pc_ij)

where ``E_i`` is the yearly email volume destined for target domain ``i``,
``Pt_ij`` the probability of typing typo ``j`` instead of ``i``, and
``Pc_ij`` the probability the user notices and corrects the mistake before
sending.  The paper cannot observe Pt/Pc directly; here they are the
*ground truth* of the simulated world — the traffic generator draws from
them, and the regression experiment (Section 6) must recover the resulting
volumes from features, exactly as the paper's regression does.

The model encodes the paper's three empirical findings:

* deletion and transposition mistakes are more frequent than addition and
  substitution (Figure 9);
* fat-finger (adjacent-key) substitutions/insertions are far more likely
  than random ones;
* visually obvious mistakes get corrected (high Pc), nearly invisible
  ones (``outlo0k``) slip through — "visual distance seems more important
  than keyboard distance".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.distances import fat_finger_for_edit
from repro.core.targets import TargetDomain
from repro.core.typogen import (
    TypoCandidate,
    TypoGenerator,
    enumerate_edit_ops,
    split_domain,
)

__all__ = ["TypoModelConfig", "TypingMistakeModel", "calibrate_global_volume"]


@dataclass(frozen=True)
class TypoModelConfig:
    """Knobs of the generative typing model."""

    #: probability that a typed domain name contains some uncorrected-at-
    #: keystroke-time mistake (before the verification step).
    base_typo_probability: float = 0.004

    #: relative frequency of mistake types (Figure 9 ordering: deletion and
    #: transposition dominate).
    #: Figure 9 spans roughly an order of magnitude between deletion and
    #: addition mistakes on Alexa's popularity estimates.
    edit_type_weights: Mapping[str, float] = field(default_factory=lambda: {
        "deletion": 3.5,
        "transposition": 3.0,
        "substitution": 0.9,
        "addition": 0.35,
    })

    #: multiplier for substitutions/additions of QWERTY-adjacent keys.
    fat_finger_multiplier: float = 4.0

    #: correction probability floor/ceiling as visual distance grows.
    correction_floor: float = 0.45
    correction_ceiling: float = 0.995
    #: how fast Pc saturates with normalised visual distance.
    correction_steepness: float = 14.0


class TypingMistakeModel:
    """Computes Pt, Pc, and expected typo-email volume per candidate."""

    def __init__(self, config: Optional[TypoModelConfig] = None,
                 generator: Optional[TypoGenerator] = None) -> None:
        self.config = config or TypoModelConfig()
        self._generator = generator or TypoGenerator()
        self._weight_totals: Dict[str, float] = {}

    # -- raw weights -----------------------------------------------------------

    def _edit_weight(self, edit_type: str, fat_finger: bool) -> float:
        weight = self.config.edit_type_weights.get(edit_type, 1.0)
        if edit_type in ("substitution", "addition") and fat_finger:
            weight *= self.config.fat_finger_multiplier
        return weight

    def _raw_weight(self, candidate: TypoCandidate) -> float:
        return self._edit_weight(candidate.edit_type, candidate.is_fat_finger)

    def _total_weight(self, target: str) -> float:
        """Sum of :meth:`_raw_weight` over ``target``'s candidates, in
        generation order, from the edit ops alone (no candidate, and so
        no visual distance, is built)."""
        cached = self._weight_totals.get(target)
        if cached is not None:
            return cached
        generator = self._generator
        label, _ = split_domain(target)
        total = 0
        for op, index, ch in enumerate_edit_ops(label, generator.alphabet,
                                                generator.fat_finger_only):
            total += self._edit_weight(
                op, fat_finger_for_edit(label, op, index, ch) == 1)
        self._weight_totals[target] = total
        return total

    # -- the model -------------------------------------------------------------

    def mistype_probability(self, candidate: TypoCandidate) -> float:
        """Pt_ij: probability of typing this candidate instead of the target."""
        total = self._total_weight(candidate.target)
        if total == 0:
            return 0.0
        share = self._raw_weight(candidate) / total
        return self.config.base_typo_probability * share

    def correction_probability(self, candidate: TypoCandidate) -> float:
        """Pc_ij: probability the user notices before hitting send.

        A saturating exponential in normalised visual distance: invisible
        edits sit at the floor, clearly visible ones at the ceiling.
        """
        config = self.config
        visibility = 1.0 - math.exp(
            -config.correction_steepness * candidate.normalized_visual)
        return (config.correction_floor
                + (config.correction_ceiling - config.correction_floor)
                * visibility)

    def expected_yearly_emails(self, target_yearly_volume: float,
                               candidate: TypoCandidate) -> float:
        """E_ij = E_i * Pt * (1 - Pc)."""
        pt = self.mistype_probability(candidate)
        pc = self.correction_probability(candidate)
        return target_yearly_volume * pt * (1.0 - pc)


def calibrate_global_volume(candidates: Iterable[TypoCandidate],
                            targets: Mapping[str, TargetDomain],
                            model: TypingMistakeModel,
                            desired_total_yearly: float,
                            global_volume_guess: float = 1e9) -> float:
    """Find the global email volume that makes the corpus receive
    ``desired_total_yearly`` true typo emails per year.

    ``E_i = global_volume * email_share_i``; expected corpus volume is
    linear in the global volume, so calibration is a single rescale.
    """
    expected = 0.0
    for candidate in candidates:
        target = targets.get(candidate.target)
        if target is None:
            continue
        yearly = global_volume_guess * target.email_share
        expected += model.expected_yearly_emails(yearly, candidate)
    if expected <= 0:
        raise ValueError("corpus has zero expected volume; cannot calibrate")
    return global_volume_guess * desired_total_yearly / expected
