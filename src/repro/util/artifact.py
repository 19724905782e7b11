"""Persisted artifacts: one encoding, one envelope, one load taxonomy.

Every durable file the reproduction writes — study and scan
checkpoints, scan baselines, risk indexes, typo models, scenarios — is
a flat JSON object carrying a ``format`` tag and a ``digest``, the
SHA-256 of the canonical JSON of every other key.  This module is the
only code that encodes, digests, writes and reads those files; a
format contributes just its :class:`ArtifactFormat` and a decode step.

A reader of a file written through :func:`write_atomic` sees either the
previous content or the complete new content, never a torn mix: the
bytes go to a sibling temp file, are flushed and fsync'd, and only then
``os.replace``d over the destination.  Any failure on the way removes
the temp file and leaves the destination untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, TypeVar, Union

from repro.util.errors import CheckpointCorruptError, CheckpointMismatchError

__all__ = [
    "ArtifactFormat",
    "canonical_json",
    "json_digest",
    "load_artifact",
    "read_json",
    "save_artifact",
    "write_atomic",
]

T = TypeVar("T")


def canonical_json(payload: Any) -> str:
    """The one JSON encoding used for digests and artifact bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def json_digest(payload: Any) -> str:
    """SHA-256 (hex) of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def write_atomic(path: Union[str, Path],
                 *chunks: Union[str, bytes, memoryview]) -> None:
    """Replace ``path`` with the concatenated ``chunks`` atomically.

    ``str`` chunks are written as UTF-8, byte chunks as they are.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk.encode("utf-8")
                             if isinstance(chunk, str) else chunk)
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

    ``noun`` names the artifact in messages ("scan baseline") and
    ``remedy`` tells the operator what to do with a refused file.
    ``digest_optional`` admits hand-written files that carry no digest
    (a digest that *is* present must still match).
    """

    tag: str
    noun: str
    remedy: str
    digest_optional: bool = False


def save_artifact(path: Union[str, Path], payload: Dict) -> str:
    """Atomically write ``payload`` inside the envelope; return its digest.

    ``payload`` holds the ``format`` tag and every other key but the
    digest.  It is encoded once; the file is ``{"digest":"<hex>",``
    followed by that encoding minus its opening brace, streamed without
    building a concatenated copy (readers parse JSON, so the digest's
    position is immaterial).
    """
    body = canonical_json(payload).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    write_atomic(path, f'{{"digest":"{digest}",', memoryview(body)[1:])
    return digest


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
    tag = data.get("format")
    if tag != fmt.tag:
        raise CheckpointMismatchError(
            f"{fmt.noun} {path} has format {tag!r}, this build reads "
            f"{fmt.tag!r}; {fmt.remedy}")
    stored = data.pop("digest", None)
    if stored is not None or not fmt.digest_optional:
        actual = json_digest(data)
        if stored != actual:
            raise CheckpointCorruptError(
                f"{fmt.noun} {path} failed its digest check (stored "
                f"{str(stored)[:12]}…, computed {actual[:12]}…); the file "
                f"is corrupt — {fmt.remedy}")
    try:
        return decode(data)
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointCorruptError(
            f"{fmt.noun} {path} is corrupt ({error!r}); {fmt.remedy}") \
            from error
