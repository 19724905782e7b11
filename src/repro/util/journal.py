"""Delta encoding of a nested state tree for an append-only journal.

A state tree is a JSON-ready nested dict except at the leaves that only
ever grow.  Those are handed over live, wrapped in a field marker, so a
save encodes only what was added since the last one:

* :class:`Appended` — a sequence that only gains items at its end (a
  list, or the keys or items of an insertion-ordered dict), plus the
  encoder that turns one item into JSON.  Its JSON form is the list of
  encoded items, and a segment holds only the new ones.
* :class:`Counted` — a dict of JSON scalars whose keys are only added or
  changed, never removed.  A segment holds the entries that differ from
  what the journal already holds.

Every other leaf is written whole in every segment.  A
:class:`JournalCursor` remembers what the journal holds of each field;
:meth:`JournalCursor.delta` against a fresh cursor is the base segment,
so one encoder writes both kinds.  :class:`Replay` folds segments back
into the full JSON state, the same value :func:`materialize` gives for
the live tree, and primes a cursor for the next append.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.util.artifact import canonical_json

__all__ = [
    "Appended",
    "Counted",
    "Delta",
    "JournalCursor",
    "Replay",
    "materialize",
]

Path = Tuple[str, ...]


class Appended:
    """An append-only sequence and the encoder of one of its items."""

    __slots__ = ("items", "encode")

    def __init__(self, items, encode: Optional[Callable[[Any], Any]] = None
                 ) -> None:
        self.items = items
        self.encode = encode

    def encoded(self, start: int) -> List:
        """The encoded items from index ``start`` on."""
        items = self.items
        count = len(items) - start
        if count < 0:
            raise RuntimeError("an append-only journal field shrank")
        if isinstance(items, list):
            new = items[start:]
        else:
            # dict views only run forwards from the front; the tail is
            # the first ``count`` entries of the reversed view
            new = list(islice(reversed(items), count))
            new.reverse()
        encode = self.encode
        return new if encode is None else [encode(item) for item in new]


class Counted:
    """A dict of JSON scalars whose keys are only added or changed."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Dict[str, Any]) -> None:
        self.mapping = mapping


_FIELDS = (Appended, Counted)


def materialize(node):
    """The full JSON value of a state tree (what a replay rebuilds)."""
    if isinstance(node, dict):
        return {key: materialize(value) for key, value in node.items()}
    if isinstance(node, Appended):
        return node.encoded(0)
    if isinstance(node, Counted):
        return dict(node.mapping)
    return node


def _holds_fields(node: Dict) -> bool:
    return any(isinstance(value, _FIELDS)
               or (isinstance(value, dict) and _holds_fields(value))
               for value in node.values())


@dataclass
class Delta:
    """One segment's state tree plus what writing it commits."""

    state: Dict
    #: paths of the Appended / Counted fields (the rest is written whole)
    appended: List[List[str]] = field(default_factory=list)
    counted: List[List[str]] = field(default_factory=list)
    #: encoded bytes of the whole-written leaves, which the next segment
    #: supersedes
    whole_bytes: int = 0
    #: encoded bytes of Counted entries that replace earlier values
    rewritten_bytes: int = 0
    _lengths: Dict[Path, int] = field(default_factory=dict)
    _changes: Dict[Path, Dict] = field(default_factory=dict)


class JournalCursor:
    """What a journal already holds of each field of a state tree."""

    def __init__(self) -> None:
        self._lengths: Dict[Path, int] = {}
        self._values: Dict[Path, Dict] = {}

    def delta(self, state: Dict) -> Delta:
        """The segment that brings the journal up to ``state``."""
        delta = Delta(state={})
        skeleton: Dict = {}
        self._walk(state, (), delta.state, skeleton, delta)
        delta.whole_bytes = len(canonical_json(skeleton))
        return delta

    def commit(self, delta: Delta) -> None:
        """Record that ``delta`` is now durably in the journal."""
        self._lengths.update(delta._lengths)
        for path, changed in delta._changes.items():
            self._values.setdefault(path, {}).update(changed)

    def _walk(self, node: Dict, path: Path, out: Dict, skeleton: Dict,
              delta: Delta) -> None:
        for key, value in node.items():
            here = path + (key,)
            if isinstance(value, Appended):
                out[key] = value.encoded(self._lengths.get(here, 0))
                skeleton[key] = []
                delta.appended.append(list(here))
                delta._lengths[here] = len(value.items)
            elif isinstance(value, Counted):
                out[key] = self._changed(here, value.mapping, delta)
                skeleton[key] = {}
                delta.counted.append(list(here))
            elif isinstance(value, dict) and _holds_fields(value):
                out[key] = {}
                skeleton[key] = {}
                self._walk(value, here, out[key], skeleton[key], delta)
            else:
                out[key] = skeleton[key] = value

    def _changed(self, path: Path, mapping: Dict, delta: Delta) -> Dict:
        held = self._values.get(path, {})
        missing = object()
        changed = {key: value for key, value in mapping.items()
                   if held.get(key, missing) != value}
        rewritten = {key: value for key, value in changed.items()
                     if key in held}
        if len(held) + len(changed) - len(rewritten) != len(mapping):
            raise RuntimeError(
                f"journal field {'/'.join(path)} lost keys; a Counted "
                f"field may only add or change entries")
        if rewritten:
            delta.rewritten_bytes += len(canonical_json(rewritten))
        delta._changes[path] = changed
        return changed


class Replay:
    """Folds segments, in order, back into the full JSON state."""

    def __init__(self) -> None:
        self.state: Dict = {}
        self._appended: frozenset = frozenset()
        self._counted: frozenset = frozenset()

    def add(self, segment: Dict) -> None:
        """Apply one segment payload (``state``, ``appended``, ``counted``)."""
        self._appended = frozenset(map(tuple, segment["appended"]))
        self._counted = frozenset(map(tuple, segment["counted"]))
        inner = frozenset(path[:depth]
                          for path in self._appended | self._counted
                          for depth in range(1, len(path)))
        _merge(self.state, segment["state"], (), self._appended,
               self._counted, inner)

    def cursor(self) -> JournalCursor:
        """A cursor that appends after the segments replayed so far."""
        cursor = JournalCursor()
        cursor._lengths = {path: len(_at(self.state, path))
                           for path in self._appended}
        cursor._values = {path: dict(_at(self.state, path))
                          for path in self._counted}
        return cursor


def _merge(target: Dict, delta: Dict, path: Path, appended: frozenset,
           counted: frozenset, inner: frozenset) -> None:
    for key, value in delta.items():
        here = path + (key,)
        if here in appended:
            if not isinstance(value, list):
                raise TypeError(f"appended field {here} is not a list")
            target.setdefault(key, []).extend(value)
        elif here in counted:
            if not isinstance(value, dict):
                raise TypeError(f"counted field {here} is not an object")
            target.setdefault(key, {}).update(value)
        elif here in inner:
            _merge(target.setdefault(key, {}), value, here, appended,
                   counted, inner)
        else:
            target[key] = value


def _at(state: Dict, path: Path):
    for key in path:
        state = state[key]
    return state
