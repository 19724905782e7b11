"""Distance metrics between domain names (paper Section 3).

Three metrics drive the study:

* **Damerau-Levenshtein (DL)** — minimum number of single-character
  insertions, deletions, substitutions, or transpositions of adjacent
  characters.  Typosquatting work conventionally uses DL-1.
* **Fat-finger (FF)** — Moore & Edelman's restriction of the same
  operations to keys adjacent on a QWERTY keyboard.  FF-1 implies DL-1.
* **Visual distance** — a heuristic score of how *visually different* the
  typo looks from the original; confusing ``o`` with ``0`` is far less
  noticeable than confusing ``o`` with ``x``.  The paper finds visual
  distance matters more than keyboard distance for how much traffic a typo
  domain receives.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.keyboard import qwerty_adjacency

__all__ = [
    "damerau_levenshtein",
    "is_dl1",
    "within_one_edit",
    "fat_finger_distance",
    "fat_finger_for_edit",
    "is_ff1",
    "visual_distance",
    "visual_distance_for_edit",
    "char_visual_cost",
    "position_weight",
    "classify_edit",
    "EditOperation",
    "clear_distance_caches",
    "distance_cache_stats",
]


# -- kernel memoization -------------------------------------------------------
#
# All three metrics are pure functions of their string arguments, so their
# results can be shared across every caller in the process — the typo
# generator recomputes the same fat-finger neighbourhood for each of a
# target's ~500 candidates, and the study/sweep harnesses revisit the same
# ~20 target labels run after run.  Caches are explicit dicts (faster than
# ``functools.lru_cache`` for these tiny keys), size-bounded by wholesale
# clearing when full (eviction order is irrelevant for pure functions), and
# seed-independent.

_CACHE_MAX_ENTRIES = 1 << 16

_FF_NEIGHBOURS_CACHE: Dict[str, Tuple[str, ...]] = {}
_FF_NEIGHBOUR_SET_CACHE: Dict[str, frozenset] = {}
_FF_DISTANCE_CACHE: Dict[Tuple[str, str, int], int] = {}
_VISUAL_CACHE: Dict[Tuple[str, str], float] = {}
_DL_CACHE: Dict[Tuple[str, str], int] = {}

_ALL_CACHES = {
    "ff_neighbours": _FF_NEIGHBOURS_CACHE,
    "ff_neighbour_sets": _FF_NEIGHBOUR_SET_CACHE,
    "ff_distance": _FF_DISTANCE_CACHE,
    "visual": _VISUAL_CACHE,
    "damerau_levenshtein": _DL_CACHE,
}

_CACHE_HITS: Dict[str, int] = {name: 0 for name in _ALL_CACHES}
_CACHE_MISSES: Dict[str, int] = {name: 0 for name in _ALL_CACHES}


def clear_distance_caches() -> None:
    """Drop every memoized result and zero the hit/miss counters.

    Counters reset alongside the entries so a hit rate computed from
    :func:`distance_cache_stats` always describes the run since the last
    clear, not the whole process lifetime.
    """
    for name, cache in _ALL_CACHES.items():
        cache.clear()
        _CACHE_HITS[name] = 0
        _CACHE_MISSES[name] = 0


def distance_cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-cache ``{"hits", "misses", "size"}`` counters."""
    return {name: {"hits": _CACHE_HITS[name],
                   "misses": _CACHE_MISSES[name],
                   "size": len(cache)}
            for name, cache in _ALL_CACHES.items()}


def _bounded_store(cache: dict, key, value) -> None:
    if len(cache) >= _CACHE_MAX_ENTRIES:
        cache.clear()
    cache[key] = value


def damerau_levenshtein(a: str, b: str) -> int:
    """Unrestricted Damerau-Levenshtein distance.

    Implements the full (not "optimal string alignment") variant with a
    dynamic program over the alphabet of characters seen, so transposed
    characters can be edited again afterwards.
    """
    if a == b:
        return 0
    cached = _DL_CACHE.get((a, b))
    if cached is not None:
        _CACHE_HITS["damerau_levenshtein"] += 1
        return cached
    _CACHE_MISSES["damerau_levenshtein"] += 1
    result = _damerau_levenshtein_uncached(a, b)
    _bounded_store(_DL_CACHE, (a, b), result)
    return result


def _damerau_levenshtein_uncached(a: str, b: str) -> int:
    len_a, len_b = len(a), len(b)
    if len_a == 0:
        return len_b
    if len_b == 0:
        return len_a

    max_dist = len_a + len_b
    # last row in which each character was seen in `a`
    last_seen: Dict[str, int] = {}
    # (len_a + 2) x (len_b + 2) table with a sentinel row/column of max_dist
    table = [[max_dist] * (len_b + 2) for _ in range(len_a + 2)]
    for i in range(len_a + 1):
        table[i + 1][1] = i
    for j in range(len_b + 1):
        table[1][j + 1] = j

    for i in range(1, len_a + 1):
        last_match_col = 0
        for j in range(1, len_b + 1):
            row_of_last_match = last_seen.get(b[j - 1], 0)
            col_of_last_match = last_match_col
            if a[i - 1] == b[j - 1]:
                cost = 0
                last_match_col = j
            else:
                cost = 1
            table[i + 1][j + 1] = min(
                table[i][j] + cost,                      # substitution / match
                table[i + 1][j] + 1,                     # insertion
                table[i][j + 1] + 1,                     # deletion
                table[row_of_last_match][col_of_last_match]
                + (i - row_of_last_match - 1) + 1
                + (j - col_of_last_match - 1),           # transposition
            )
        last_seen[a[i - 1]] = i
    return table[len_a + 1][len_b + 1]


def is_dl1(a: str, b: str) -> bool:
    """True when the two strings are at Damerau-Levenshtein distance one."""
    return damerau_levenshtein(a, b) == 1


def within_one_edit(a: str, b: str) -> bool:
    """``damerau_levenshtein(a, b) <= 1`` in O(len), without the DP.

    Two strings are within one edit iff they are equal or, past their
    common prefix, the rest differs by exactly one substitution,
    insertion/deletion, or adjacent transposition.  The full and the
    restricted Damerau-Levenshtein variants agree at this threshold.
    """
    if a == b:
        return True
    len_a, len_b = len(a), len(b)
    if len_a < len_b:
        a, b, len_a, len_b = b, a, len_b, len_a
    if len_a - len_b > 1:
        return False
    i = 0
    while i < len_b and a[i] == b[i]:
        i += 1
    if len_a != len_b:
        return a[i + 1:] == b[i:]                # one deletion from ``a``
    return (a[i + 1:] == b[i + 1:]               # substitution
            or (a[i + 1:i + 2] == b[i:i + 1]     # adjacent transposition
                and a[i:i + 1] == b[i + 1:i + 2]
                and a[i + 2:] == b[i + 2:]))


EditOperation = str  # "addition" | "deletion" | "substitution" | "transposition"


def classify_edit(original: str, typo: str) -> Optional[Tuple[EditOperation, int]]:
    """Classify a DL-1 pair into (operation, index-in-original).

    Returns ``None`` when the pair is not at DL distance exactly one.  The
    index is where the edit happens in ``original`` (for an addition, the
    position in ``original`` *before* which the extra character appears in
    ``typo``).
    """
    if original == typo:
        return None
    len_o, len_t = len(original), len(typo)

    if len_t == len_o + 1:  # addition
        for i in range(len_o + 1):
            if original[:i] + typo[i] + original[i:] == typo:
                return ("addition", i)
        return None
    if len_t == len_o - 1:  # deletion
        for i in range(len_o):
            if original[:i] + original[i + 1:] == typo:
                return ("deletion", i)
        return None
    if len_t == len_o:
        diffs = [i for i in range(len_o) if original[i] != typo[i]]
        if len(diffs) == 1:
            return ("substitution", diffs[0])
        if (len(diffs) == 2 and diffs[1] == diffs[0] + 1
                and original[diffs[0]] == typo[diffs[1]]
                and original[diffs[1]] == typo[diffs[0]]):
            return ("transposition", diffs[0])
        return None
    return None


def fat_finger_distance(a: str, b: str, max_interesting: int = 3) -> int:
    """Fat-finger distance: DL operations restricted to QWERTY-adjacent keys.

    Substitutions must swap QWERTY-adjacent keys; insertions must insert a
    character adjacent to one of its string neighbours (the slip that
    produces doubled/neighbour keys); deletions and transpositions are
    always allowed (dropping or swapping characters needs no specific key
    geometry).  Computed by BFS over the edit graph up to
    ``max_interesting``; beyond that the function returns
    ``max_interesting + 1`` as an "effectively far" sentinel, which keeps
    the metric cheap for the bulk-generation workloads.
    """
    if a == b:
        return 0
    key = (a, b, max_interesting)
    cached = _FF_DISTANCE_CACHE.get(key)
    if cached is not None:
        _CACHE_HITS["ff_distance"] += 1
        return cached
    _CACHE_MISSES["ff_distance"] += 1
    result = _fat_finger_distance_uncached(a, b, max_interesting)
    _bounded_store(_FF_DISTANCE_CACHE, key, result)
    return result


def _fat_finger_distance_uncached(a: str, b: str, max_interesting: int) -> int:
    if max_interesting == 1:
        # depth-1 BFS is exactly a membership test; the set form turns the
        # typo generator's ~500 probes per target label into O(1) lookups
        return 1 if b in _ff_neighbour_set(a) else 2
    frontier = {a}
    seen = {a}
    for depth in range(1, max_interesting + 1):
        next_frontier = set()
        for s in frontier:
            for neighbour in _ff_neighbours(s):
                if neighbour == b:
                    return depth
                if neighbour not in seen and abs(len(neighbour) - len(b)) <= (
                        max_interesting - depth):
                    seen.add(neighbour)
                    next_frontier.add(neighbour)
        frontier = next_frontier
        if not frontier:
            break
    return max_interesting + 1


def _ff_neighbours(s: str):
    """All strings one fat-finger operation away from ``s``.

    Returns an immutable (cacheable) sequence; the BFS in
    :func:`fat_finger_distance` re-visits the same strings constantly, and
    the typo generator probes one root label per candidate batch.
    """
    cached = _FF_NEIGHBOURS_CACHE.get(s)
    if cached is not None:
        _CACHE_HITS["ff_neighbours"] += 1
        return cached
    _CACHE_MISSES["ff_neighbours"] += 1
    result = tuple(_ff_neighbours_uncached(s))
    _bounded_store(_FF_NEIGHBOURS_CACHE, s, result)
    return result


def _ff_neighbour_set(s: str) -> frozenset:
    """The fat-finger neighbourhood of ``s`` as a set, for membership tests."""
    cached = _FF_NEIGHBOUR_SET_CACHE.get(s)
    if cached is None:
        cached = frozenset(_ff_neighbours(s))
        _bounded_store(_FF_NEIGHBOUR_SET_CACHE, s, cached)
    return cached


def _ff_neighbours_uncached(s: str) -> List[str]:
    out: List[str] = []
    # substitutions by an adjacent key
    for i, ch in enumerate(s):
        for adj in sorted(_adjacent_chars(ch)):
            out.append(s[:i] + adj + s[i + 1:])
    # insertions of a key adjacent to either string-neighbour (or a repeat)
    for i in range(len(s) + 1):
        candidates = set()
        if i > 0:
            candidates.add(s[i - 1])
            candidates.update(_adjacent_chars(s[i - 1]))
        if i < len(s):
            candidates.add(s[i])
            candidates.update(_adjacent_chars(s[i]))
        for ch in sorted(candidates):
            out.append(s[:i] + ch + s[i:])
    # deletions
    for i in range(len(s)):
        out.append(s[:i] + s[i + 1:])
    # transpositions of neighbours
    for i in range(len(s) - 1):
        if s[i] != s[i + 1]:
            out.append(s[:i] + s[i + 1] + s[i] + s[i + 2:])
    return out


def _adjacent_chars(ch: str):
    return qwerty_adjacency(ch)


def is_ff1(a: str, b: str) -> bool:
    """True when the two strings are at fat-finger distance one."""
    edit = classify_edit(a, b) or classify_edit(b, a)
    if edit is None:
        return False
    return fat_finger_distance(a, b, max_interesting=1) == 1


# -- visual distance -------------------------------------------------------

#: Pairs of characters that look nearly identical in common typefaces.
#: Scores are the perceptual cost of the swap: 0 is indistinguishable.
_VISUAL_CONFUSION: Dict[frozenset, float] = {}


def _add_confusions(pairs, cost: float) -> None:
    for a, b in pairs:
        _VISUAL_CONFUSION[frozenset((a, b))] = cost


# Nearly indistinguishable glyph pairs (letter/digit and letter/letter).
_add_confusions([("o", "0"), ("l", "1"), ("i", "1"), ("i", "l"),
                 ("rn", "m"), ("vv", "w")], 0.1)
# Easily confused but distinguishable on inspection.
_add_confusions([("e", "c"), ("a", "o"), ("u", "v"), ("n", "m"),
                 ("g", "q"), ("b", "d"), ("s", "5"), ("b", "8"),
                 ("z", "2"), ("g", "9"), ("q", "9"), ("i", "j"),
                 ("t", "f"), ("h", "b"), ("u", "y")], 0.35)


def _char_visual_cost(a: str, b: str) -> float:
    """Visual cost of substituting ``a`` by ``b`` (both single chars)."""
    if a == b:
        return 0.0
    key = frozenset((a.lower(), b.lower()))
    if key in _VISUAL_CONFUSION:
        return _VISUAL_CONFUSION[key]
    both_digits = a.isdigit() and b.isdigit()
    both_letters = a.isalpha() and b.isalpha()
    if both_digits:
        return 0.8
    if both_letters:
        return 1.0
    # mixing classes (letter vs digit vs punctuation) is the most visible,
    # except for the known confusable pairs handled above
    return 1.4


def visual_distance(original: str, typo: str) -> float:
    """Heuristic visual distance between a target name and its DL-1 typo.

    The paper's heuristic captures two effects: *what* changed (confusable
    glyph swaps are nearly invisible) and *where* (edits in the middle of a
    long name are harder to notice than edits at either end, where readers
    fixate).  For multi-glyph confusions (``rn``/``m``), the digram rule
    applies.  Non-DL-1 pairs get the sum of per-position substitution costs
    as a fallback, so the function is total.
    """
    if original == typo:
        return 0.0
    key = (original, typo)
    cached = _VISUAL_CACHE.get(key)
    if cached is not None:
        _CACHE_HITS["visual"] += 1
        return cached
    _CACHE_MISSES["visual"] += 1
    result = _visual_distance_uncached(original, typo)
    _bounded_store(_VISUAL_CACHE, key, result)
    return result


def _visual_distance_uncached(original: str, typo: str) -> float:
    digram_cost = _digram_confusion_cost(original, typo)
    edit = classify_edit(original, typo)
    if edit is None:
        # rn<->m style confusions are DL-2 but nearly invisible
        if digram_cost is not None:
            return digram_cost
        # Fallback: align character-wise, charging length difference fully.
        base = sum(_char_visual_cost(a, b) for a, b in zip(original, typo))
        return base + 1.2 * abs(len(original) - len(typo))

    op, index = edit
    position_weight = _position_weight(index, len(original))

    if op == "substitution":
        cost = _char_visual_cost(original[index], typo[index])
    elif op == "transposition":
        # Swapped neighbours barely change the word shape.
        cost = 0.5
    elif op == "deletion":
        removed = original[index]
        doubled = (index + 1 < len(original)
                   and original[index + 1] == removed) or (
                       index > 0 and original[index - 1] == removed)
        cost = 0.3 if doubled else 0.9
        # deleting a character out of "rn" might leave something that reads
        # the same; handled by the digram table below
    else:  # addition
        added = typo[index]
        doubles = (index < len(original) and original[index] == added) or (
            index > 0 and original[index - 1] == added)
        cost = 0.3 if doubles else 1.0

    # Digram confusions: check whether the edit produced an rn<->m style swap.
    if digram_cost is not None:
        cost = min(cost, digram_cost)

    return cost * position_weight


# The handful of multi-glyph confusions (rn/m, vv/w), extracted once from
# the confusion table so the per-call loop doesn't re-sort every pair.
_DIGRAM_CONFUSIONS: Tuple[Tuple[str, str, float], ...] = tuple(
    (items[0], items[1], pair_cost)
    for pair, pair_cost in _VISUAL_CONFUSION.items()
    for items in (sorted(pair, key=len),)
    if len(items) == 2 and len(items[0]) != len(items[1]))


def _digram_confusion_cost(original: str, typo: str) -> Optional[float]:
    for short, long, pair_cost in _DIGRAM_CONFUSIONS:
        if original.replace(long, short) == typo or typo.replace(long, short) == original:
            return pair_cost
        if original.replace(short, long) == typo or typo.replace(short, long) == original:
            return pair_cost
    return None


def _position_weight(index: int, length: int) -> float:
    """Weight edits by position: first/last characters are most visible."""
    if length <= 1:
        return 1.0
    if index == 0:
        return 1.3
    if index >= length - 1:
        return 1.15
    # Interior positions: mild bowl shape, minimum mid-word.
    rel = index / (length - 1)
    return 0.85 + 0.3 * abs(rel - 0.5)


def position_weight(index: int, length: int) -> float:
    """Public form of the positional visibility weight (paper §3)."""
    return _position_weight(index, length)


def char_visual_cost(a: str, b: str) -> float:
    """Public form of the single-character substitution cost table."""
    return _char_visual_cost(a, b)


# -- direct per-edit kernels --------------------------------------------------
#
# When the caller already knows *which* DL-1 edit produced a typo (the typo
# generator does), the general metrics above waste most of their time
# rediscovering it: ``visual_distance`` re-classifies the edit and probes
# the digram table, ``fat_finger_distance`` materializes the whole
# neighbourhood of the source string.  These kernels compute the identical
# values straight from ``(operation, index, char)``.  The digram confusions
# (rn/m, vv/w) change string length by the number of occurrences replaced,
# which no single DL-1 edit can reproduce, so they never apply to generated
# candidates — an equivalence the typo-generator parity tests pin down.


def visual_distance_for_edit(label: str, op: EditOperation, index: int,
                             char: str = "") -> float:
    """``visual_distance(label, typo)`` for a known DL-1 edit of ``label``.

    ``char`` is the substituted/inserted character (ignored for deletions
    and transpositions).  ``index`` follows :func:`classify_edit`: the
    position of the edit in ``label`` (for additions, the position the new
    character is inserted *before*, in ``0..len(label)``).
    """
    length = len(label)
    if op == "substitution":
        cost = _char_visual_cost(label[index], char)
    elif op == "transposition":
        cost = 0.5
    elif op == "deletion":
        removed = label[index]
        doubled = (index + 1 < length and label[index + 1] == removed) or (
            index > 0 and label[index - 1] == removed)
        cost = 0.3 if doubled else 0.9
    elif op == "addition":
        doubles = (index < length and label[index] == char) or (
            index > 0 and label[index - 1] == char)
        cost = 0.3 if doubles else 1.0
    else:
        raise ValueError(f"unknown edit operation {op!r}")
    return cost * _position_weight(index, length)


def fat_finger_for_edit(label: str, op: EditOperation, index: int,
                        char: str = "") -> int:
    """``fat_finger_distance(label, typo, max_interesting=1)`` for a known edit.

    Mirrors :func:`_ff_neighbours_uncached`: deletions and transpositions
    need no key geometry (always distance 1); substitutions must swap
    QWERTY-adjacent keys; insertions must repeat a string-neighbour or hit
    a key adjacent to one.
    """
    if op in ("deletion", "transposition"):
        return 1
    if op == "substitution":
        return 1 if char in qwerty_adjacency(label[index]) else 2
    if op == "addition":
        if index > 0 and (char == label[index - 1]
                          or char in qwerty_adjacency(label[index - 1])):
            return 1
        if index < len(label) and (char == label[index]
                                   or char in qwerty_adjacency(label[index])):
            return 1
        return 2
    raise ValueError(f"unknown edit operation {op!r}")
