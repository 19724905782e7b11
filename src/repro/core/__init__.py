"""Core typosquatting analysis: distances, typo generation, taxonomy, targets."""

from repro.core.distances import (
    classify_edit,
    clear_distance_caches,
    damerau_levenshtein,
    distance_cache_stats,
    fat_finger_distance,
    is_dl1,
    is_ff1,
    visual_distance,
    within_one_edit,
)
from repro.core.keyboard import are_adjacent, key_position, qwerty_adjacency
from repro.core.targets import (
    EMAIL_TARGETS,
    RegisteredTypoDomain,
    StudyCorpus,
    TargetDomain,
    build_study_corpus,
)
from repro.core.taxonomy import (
    DomainClass,
    DomainVerdict,
    TypoEmailKind,
    classify_domain,
)
from repro.core.typogen import (
    DOMAIN_ALPHABET,
    TypoCandidate,
    TypoGenerator,
    clear_typogen_cache,
    split_domain,
    typogen_cache_stats,
)


def clear_kernel_caches() -> None:
    """Drop all memoized kernel results (distances + typogen)."""
    clear_distance_caches()
    clear_typogen_cache()


def kernel_cache_stats() -> dict:
    """Hit/miss/size counters for every kernel cache, by cache name."""
    stats = dict(distance_cache_stats())
    stats["typogen_candidates"] = typogen_cache_stats()
    return stats


__all__ = [
    "damerau_levenshtein",
    "is_dl1",
    "within_one_edit",
    "fat_finger_distance",
    "is_ff1",
    "visual_distance",
    "classify_edit",
    "qwerty_adjacency",
    "are_adjacent",
    "key_position",
    "TypoGenerator",
    "TypoCandidate",
    "DOMAIN_ALPHABET",
    "split_domain",
    "DomainClass",
    "DomainVerdict",
    "TypoEmailKind",
    "classify_domain",
    "TargetDomain",
    "RegisteredTypoDomain",
    "StudyCorpus",
    "EMAIL_TARGETS",
    "build_study_corpus",
    "clear_kernel_caches",
    "kernel_cache_stats",
    "clear_distance_caches",
    "distance_cache_stats",
    "clear_typogen_cache",
    "typogen_cache_stats",
]
