"""Persisted artifacts: one encoding, one envelope, one load taxonomy.

Every durable file the reproduction writes — study and scan
checkpoints, risk indexes, typo models, scenarios — is a flat JSON
object carrying a ``format`` tag and a ``digest``, the
SHA-256 of the canonical JSON of every other key.  This module is the
only code that encodes, digests, writes and reads those files; a
format contributes just its :class:`ArtifactFormat` and a decode step.

A reader of a file written through :func:`write_atomic` sees either the
previous content or the complete new content, never a torn mix: the
bytes go to a sibling temp file, are flushed and fsync'd, and only then
``os.replace``d over the destination.  Any failure on the way removes
the temp file and leaves the destination untouched.

A *journal* is a file of such envelopes, one per line, each carrying a
``prev`` key with the previous segment's digest (``None`` on the base
segment).  :func:`write_segment` replaces the file with a base segment
or appends one more line; :func:`read_journal` verifies the chain.  A
final line without its newline is a torn tail — an append the writer
did not finish — and is dropped, so a reader resumes from the last
complete segment and the next append cuts the tail first.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar, Union

from repro.util.errors import CheckpointCorruptError, CheckpointMismatchError

__all__ = [
    "ArtifactFormat",
    "JournalRead",
    "canonical_json",
    "json_digest",
    "load_artifact",
    "read_journal",
    "read_json",
    "save_artifact",
    "write_atomic",
    "write_segment",
]

T = TypeVar("T")


def canonical_json(payload: Any) -> str:
    """The one JSON encoding used for digests and artifact bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def json_digest(payload: Any) -> str:
    """SHA-256 (hex) of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


Chunk = Union[str, bytes, memoryview]


def _write_chunks(handle, chunks) -> None:
    """Write ``chunks`` to an open binary file: the one byte sink."""
    for chunk in chunks:
        handle.write(chunk.encode("utf-8") if isinstance(chunk, str)
                     else chunk)


def write_atomic(path: Union[str, Path], *chunks: Chunk) -> None:
    """Replace ``path`` with the concatenated ``chunks`` atomically.

    ``str`` chunks are written as UTF-8, byte chunks as they are.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            _write_chunks(handle, chunks)
            handle.flush()
            # fsync before the rename: without it a crash can publish
            # the rename while the data blocks are still unwritten
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


@dataclass(frozen=True)
class ArtifactFormat:
    """One persisted format: its tag and how a failed load reads.

    ``noun`` names the artifact in messages ("scan checkpoint") and
    ``remedy`` tells the operator what to do with a refused file.
    ``digest_optional`` admits hand-written files that carry no digest
    (a digest that *is* present must still match).
    """

    tag: str
    noun: str
    remedy: str
    digest_optional: bool = False


def _envelope(payload: Dict) -> Tuple[str, Tuple[Chunk, ...]]:
    """``payload``'s digest and its enveloped bytes, encoded once.

    The bytes are ``{"digest":"<hex>",`` followed by the canonical
    encoding minus its opening brace, streamed without building a
    concatenated copy (readers parse JSON, so the digest's position is
    immaterial).  The encoding is ASCII with no raw newline, so an
    envelope is always exactly one line.
    """
    body = canonical_json(payload).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    return digest, (f'{{"digest":"{digest}",', memoryview(body)[1:])


def save_artifact(path: Union[str, Path], payload: Dict) -> str:
    """Atomically write ``payload`` inside the envelope; return its digest.

    ``payload`` holds the ``format`` tag and every other key but the
    digest.
    """
    digest, chunks = _envelope(payload)
    write_atomic(path, *chunks)
    return digest


def write_segment(path: Union[str, Path], payload: Dict,
                  at: Optional[int] = None) -> Tuple[str, int]:
    """Write one journal segment; return its digest and its byte length.

    With ``at=None`` the file is atomically replaced by this segment
    alone (a base segment, or a compaction).  Otherwise the segment is
    appended at byte offset ``at`` — the end of the last complete
    segment, so a torn tail past it is cut first — and fsync'd.
    """
    digest, chunks = _envelope(payload)
    chunks += (b"\n",)
    # the digest prefix is ASCII, so its length in characters is bytes
    size = sum(len(chunk) for chunk in chunks)
    if at is None:
        write_atomic(path, *chunks)
        return digest, size
    with open(path, "r+b") as handle:
        handle.truncate(at)
        handle.seek(at)
        _write_chunks(handle, chunks)
        handle.flush()
        os.fsync(handle.fileno())
    return digest, size


def read_json(path: Union[str, Path], noun: str, remedy: str = "") -> Dict:
    """Parse ``path`` as a JSON object, or raise :class:`CheckpointCorruptError`.

    An ``OSError`` is chained as the error's ``__cause__``, which lets the
    doctor tell an unreadable path from unreadable bytes.
    """
    suffix = f"; {remedy}" if remedy else ""
    try:
        data = json.loads(Path(path).read_bytes())
    except FileNotFoundError as error:
        raise CheckpointCorruptError(f"{noun} {path} does not exist") \
            from error
    except OSError as error:
        raise CheckpointCorruptError(
            f"{noun} {path} is unreadable ({error}){suffix}") from error
    except ValueError as error:
        raise CheckpointCorruptError(
            f"{noun} {path} is unreadable ({error}); the file is torn or "
            f"truncated{suffix}") from error
    if not isinstance(data, dict):
        raise CheckpointCorruptError(
            f"{noun} {path} is unreadable (its JSON root is not an "
            f"object){suffix}")
    return data


def load_artifact(path: Union[str, Path], fmt: ArtifactFormat,
                  decode: Callable[[Dict], T]) -> T:
    """Read, verify and decode one artifact written by :func:`save_artifact`.

    The one load taxonomy every format shares:

    * unreadable path or bytes, bad JSON, a non-object root, a missing
      or wrong digest → :class:`CheckpointCorruptError` (exit 3);
    * a tag other than ``fmt.tag`` → :class:`CheckpointMismatchError`
      (exit 3), which is also how files of an older layout are refused;
    * ``KeyError``/``TypeError``/``ValueError``/``AttributeError``
      raised by ``decode`` → :class:`CheckpointCorruptError`;
    * any :class:`~repro.util.errors.ReproError` ``decode`` raises
      (a ``ConfigError`` for schema drift, exit 2) passes through.

    ``decode`` receives the payload without its ``digest`` key.
    """
    data = read_json(path, fmt.noun, fmt.remedy)
    _check_tag(data, fmt, f"{fmt.noun} {path}")
    _check_digest(data, fmt, f"{fmt.noun} {path}")
    return _decoded(decode, data, fmt, f"{fmt.noun} {path}")


def _check_tag(data: Dict, fmt: ArtifactFormat, where: str) -> None:
    tag = data.get("format")
    if tag != fmt.tag:
        raise CheckpointMismatchError(
            f"{where} has format {tag!r}, this build reads {fmt.tag!r}; "
            f"{fmt.remedy}")


def _check_digest(data: Dict, fmt: ArtifactFormat, where: str) -> str:
    """Pop and verify ``data``'s digest; return it."""
    stored = data.pop("digest", None)
    if stored is not None or not fmt.digest_optional:
        actual = json_digest(data)
        if stored != actual:
            raise CheckpointCorruptError(
                f"{where} failed its digest check (stored "
                f"{str(stored)[:12]}…, computed {actual[:12]}…); the file "
                f"is corrupt — {fmt.remedy}")
    return stored


def _decoded(decode: Callable[[Dict], T], data: Dict, fmt: ArtifactFormat,
             where: str) -> T:
    try:
        return decode(data)
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointCorruptError(
            f"{where} is corrupt ({error!r}); {fmt.remedy}") from error


@dataclass(frozen=True)
class JournalRead:
    """What :func:`read_journal` found besides the segments themselves."""

    #: complete, verified segments
    segments: int
    #: digest of the last of them (the next segment's ``prev``)
    head: str
    #: byte offset just past the last complete segment
    end: int
    #: a final line without its newline was found and dropped
    torn_tail: bool


def read_journal(path: Union[str, Path], fmt: ArtifactFormat,
                 fold: Callable[[Dict], None]) -> JournalRead:
    """Verify the journal at ``path`` and hand each segment to ``fold``.

    Segments reach ``fold`` in file order, without their ``digest`` key,
    one at a time (a long journal is never held parsed in full).  The
    load taxonomy is :func:`load_artifact`'s, applied per line: a
    complete line that does not parse, fails its digest or does not
    chain to the line before it is corrupt, and a first line with
    another tag is a foreign format.  A torn tail is dropped; when it is
    the only line there is no base segment and the journal is corrupt.
    """
    noun = fmt.noun
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError as error:
        raise CheckpointCorruptError(f"{noun} {path} does not exist") \
            from error
    except OSError as error:
        raise CheckpointCorruptError(
            f"{noun} {path} is unreadable ({error}); {fmt.remedy}") \
            from error
    count = 0
    head: Optional[str] = None
    start = 0
    while True:
        stop = raw.find(b"\n", start)
        if stop < 0:
            break
        count += 1
        where = f"{noun} {path} segment {count}"
        data = _parse_line(raw[start:stop], where, fmt)
        if count == 1:
            _check_tag(data, fmt, f"{noun} {path}")
        elif data.get("format") != fmt.tag:
            raise CheckpointCorruptError(
                f"{where} has format {data.get('format')!r} inside a "
                f"{fmt.tag!r} journal; {fmt.remedy}")
        digest = _check_digest(data, fmt, where)
        if data.get("prev") != head:
            raise CheckpointCorruptError(
                f"{where} does not chain to the segment before it; the "
                f"journal is corrupt — {fmt.remedy}")
        _decoded(fold, data, fmt, where)
        head = digest
        start = stop + 1
    if head is None:
        _refuse_lone_line(raw, f"{noun} {path}", fmt)
    return JournalRead(segments=count, head=head, end=start,
                       torn_tail=start < len(raw))


def _parse_line(line: bytes, where: str, fmt: ArtifactFormat) -> Dict:
    try:
        data = json.loads(line)
    except ValueError as error:
        raise CheckpointCorruptError(
            f"{where} is unreadable ({error}); {fmt.remedy}") from error
    if not isinstance(data, dict):
        raise CheckpointCorruptError(
            f"{where} is unreadable (not a JSON object); {fmt.remedy}")
    return data


def _refuse_lone_line(raw: bytes, where: str, fmt: ArtifactFormat) -> None:
    """Raise the most specific reason a file has no complete segment.

    A file of another format (a single envelope, which has no newline)
    is a mismatch; otherwise the one line is torn, and its own defect —
    unparseable, or a failed digest — names the damage best.
    """
    try:
        data = json.loads(raw)
    except ValueError as error:
        raise CheckpointCorruptError(
            f"{where} is unreadable ({error}); the file is torn or "
            f"truncated; {fmt.remedy}") from error
    if not isinstance(data, dict):
        raise CheckpointCorruptError(
            f"{where} is unreadable (its JSON root is not an object); "
            f"{fmt.remedy}")
    _check_tag(data, fmt, where)
    _check_digest(data, fmt, where)
    raise CheckpointCorruptError(
        f"{where} is unreadable: its only segment lacks the trailing "
        f"newline, so the base segment is torn; {fmt.remedy}")
