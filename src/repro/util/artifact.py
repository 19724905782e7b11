"""Crash-safe file writes shared by every persisted artifact.

A reader of a file written through :func:`write_atomic` sees either the
previous content or the complete new content, never a torn mix: the
text goes to a sibling temp file, is flushed and fsync'd, and only then
``os.replace``d over the destination.  Any failure on the way removes
the temp file and leaves the destination untouched.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

__all__ = ["write_atomic"]


def write_atomic(path: Union[str, Path], text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) atomically."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
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
