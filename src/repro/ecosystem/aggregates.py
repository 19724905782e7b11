"""Mergeable streaming aggregates for the ecosystem scan (paper §5.1).

At paper scale the scan enumerates hundreds of millions of gtypos; holding
a :class:`~repro.ecosystem.scanner.ScanResult` per registered ctypo is the
memory wall.  The streaming pipeline folds every observation into a
:class:`ScanAggregates` instead — the counts behind Table 4 (SMTP support
mix), Table 6 (MX-provider concentration), and the Figure 8 ownership
analysis — and shards merge by exact integer addition, so the fold is
associative and the serial and sharded scans produce byte-identical
digests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.ecosystem.internet import OwnerType, SmtpSupport
from repro.util.artifact import json_digest

__all__ = ["ScanAggregates"]


@dataclass
class ScanAggregates:
    """Counts folded over a scan; merge is exact integer addition."""

    generated_count: int = 0   # gtypos enumerated (after dedup/validity)
    registered_count: int = 0  # ctypos found registered
    #: Table 4 — SMTP support as *observed* by the probes
    support_counts: Counter = field(default_factory=Counter)
    #: ground-truth support of the same domains (what a perfect scan sees)
    truth_support_counts: Counter = field(default_factory=Counter)
    #: Table 6 — ctypos per MX operator (registrable domain of best MX)
    mx_domain_counts: Counter = field(default_factory=Counter)
    #: Figure 8 — ctypos per bulk/medium registrant (bounded key space);
    #: the long tail of one-domain owners is kept as class totals below
    owner_domain_counts: Counter = field(default_factory=Counter)
    #: ctypos per owner class (bulk/medium/small/defensive/legitimate)
    owner_type_counts: Counter = field(default_factory=Counter)
    #: registered ctypos per target domain
    per_target_counts: Counter = field(default_factory=Counter)
    whois_private_count: int = 0
    implicit_mx_count: int = 0

    # -- folding -----------------------------------------------------------

    def add_generated(self, count: int = 1) -> None:
        self.generated_count += count

    def add_result(self, target: str, owner_id: str,
                   owner_type: Optional[OwnerType],
                   truth_support: SmtpSupport, observed_support: SmtpSupport,
                   mx_domain: Optional[str], used_implicit_mx: bool,
                   whois_private: bool, track_owner_id: bool) -> None:
        """Fold one registered-ctypo observation into the counts.

        ``owner_type=None`` marks a registered domain with no wild-domain
        ground truth (e.g. a DL-1 coincidence with infrastructure hosts).
        """
        self.registered_count += 1
        self.support_counts[observed_support.value] += 1
        self.truth_support_counts[truth_support.value] += 1
        if mx_domain is not None:
            self.mx_domain_counts[mx_domain] += 1
        if track_owner_id:
            self.owner_domain_counts[owner_id] += 1
        self.owner_type_counts[
            owner_type.value if owner_type else "unknown"] += 1
        self.per_target_counts[target] += 1
        if whois_private:
            self.whois_private_count += 1
        if used_implicit_mx:
            self.implicit_mx_count += 1

    def fold_flat(self, generated: int, registered: int,
                  support_l, truth_l, owner_type_l,
                  support_value_by_code, owner_value_by_code,
                  mx_counts: Dict[str, int],
                  owner_domain_counts: Dict[str, int],
                  per_target_counts: Dict[str, int],
                  whois_private: int, implicit_mx: int) -> "ScanAggregates":
        """Fold one scan window's pre-sized flat tallies in one pass.

        ``WorldModel.scan_ranks`` accumulates the closed categorical
        codes into flat index lists and the open key spaces (MX
        operators, owners, targets) into plain dicts; this folds them
        with the same exact-addition semantics as :meth:`merge`, keeping
        Counter hashing out of the per-record hot path.
        """
        self.generated_count += generated
        self.registered_count += registered
        self.support_counts.update(
            {support_value_by_code[i]: v
             for i, v in enumerate(support_l) if v})
        self.truth_support_counts.update(
            {support_value_by_code[i]: v
             for i, v in enumerate(truth_l) if v})
        self.mx_domain_counts.update(mx_counts)
        self.owner_domain_counts.update(owner_domain_counts)
        self.owner_type_counts.update(
            {owner_value_by_code[i]: v
             for i, v in enumerate(owner_type_l) if v})
        self.per_target_counts.update(per_target_counts)
        self.whois_private_count += whois_private
        self.implicit_mx_count += implicit_mx
        return self

    def merge(self, other: "ScanAggregates") -> "ScanAggregates":
        """Fold ``other`` into this aggregate (exact, associative)."""
        self.generated_count += other.generated_count
        self.registered_count += other.registered_count
        self.support_counts.update(other.support_counts)
        self.truth_support_counts.update(other.truth_support_counts)
        self.mx_domain_counts.update(other.mx_domain_counts)
        self.owner_domain_counts.update(other.owner_domain_counts)
        self.owner_type_counts.update(other.owner_type_counts)
        self.per_target_counts.update(other.per_target_counts)
        self.whois_private_count += other.whois_private_count
        self.implicit_mx_count += other.implicit_mx_count
        return self

    # -- views -------------------------------------------------------------

    def support_table(self) -> Dict[SmtpSupport, int]:
        """Table 4: observed count of ctypos per SMTP support category."""
        return {support: self.support_counts.get(support.value, 0)
                for support in SmtpSupport}

    def support_percentages(self) -> Dict[SmtpSupport, float]:
        """Table 4 as percentages of all scanned ctypos."""
        total = self.registered_count
        if total == 0:
            return {support: 0.0 for support in SmtpSupport}
        return {support: 100.0 * count / total
                for support, count in self.support_table().items()}

    def accepting_count(self) -> int:
        """Observed ctypos whose support class can accept mail."""
        return sum(count for support, count in self.support_table().items()
                   if support.can_accept_mail)

    # -- determinism -------------------------------------------------------

    def canonical_dict(self) -> Dict:
        """A canonical (sorted, JSON-clean) projection of every count."""
        return {
            "generated_count": self.generated_count,
            "registered_count": self.registered_count,
            "support_counts": dict(sorted(self.support_counts.items())),
            "truth_support_counts": dict(
                sorted(self.truth_support_counts.items())),
            "mx_domain_counts": dict(sorted(self.mx_domain_counts.items())),
            "owner_domain_counts": dict(
                sorted(self.owner_domain_counts.items())),
            "owner_type_counts": dict(sorted(self.owner_type_counts.items())),
            "per_target_counts": dict(sorted(self.per_target_counts.items())),
            "whois_private_count": self.whois_private_count,
            "implicit_mx_count": self.implicit_mx_count,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical counts — the serial==sharded bar."""
        return json_digest(self.canonical_dict())

    @classmethod
    def from_canonical_dict(cls, data: Dict) -> "ScanAggregates":
        """Inverse of :meth:`canonical_dict` (checkpoint/resume round-trip).

        Round-tripping preserves the digest exactly, so resumed shards
        are indistinguishable from freshly scanned ones.
        """
        return cls(
            generated_count=int(data["generated_count"]),
            registered_count=int(data["registered_count"]),
            support_counts=Counter(data.get("support_counts", {})),
            truth_support_counts=Counter(data.get("truth_support_counts", {})),
            mx_domain_counts=Counter(data.get("mx_domain_counts", {})),
            owner_domain_counts=Counter(data.get("owner_domain_counts", {})),
            owner_type_counts=Counter(data.get("owner_type_counts", {})),
            per_target_counts=Counter(data.get("per_target_counts", {})),
            whois_private_count=int(data.get("whois_private_count", 0)),
            implicit_mx_count=int(data.get("implicit_mx_count", 0)),
        )
