"""Crash-safe filesystem primitives shared by every persistence layer.

The plan cache, the plan store, and the tuning job queue all persist
load-bearing JSON.  A torn write — a process killed (or a disk full)
halfway through ``write_text`` — must never leave a half-written file
where a reader expects an artifact: readers would see valid-prefix JSON
garbage, and at fleet scale some worker *will* die mid-write.

:func:`atomic_write_text` gives all of them the same guarantee: the
payload is written to a ``*.tmp`` sibling and moved into place with
:func:`os.replace`, which is atomic on POSIX (and on Windows for same-
volume moves).  After a crash the target path holds either the old
complete content or the new complete content — never a mixture — and
at worst an orphaned ``*.tmp`` file is left behind for
:func:`sweep_tmp_files` to collect.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import List, Union

#: Suffix of in-flight writes; readers must ignore these.
TMP_SUFFIX = ".tmp"


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp sibling + rename).

    The temporary file lives in the same directory as the target so the
    final :func:`os.replace` never crosses a filesystem boundary.  The
    data is flushed and fsynced before the rename, and the directory is
    fsynced after it, so the rename itself is on disk too: a crash
    after return cannot roll the content back.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + TMP_SUFFIX)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        # Leave no half-written tmp behind when *this* writer survives
        # its own failure (a killed process still may; see sweep).
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return path


def sweep_tmp_files(directory: Union[str, Path]) -> List[Path]:
    """Delete orphaned ``*.tmp`` files under ``directory`` (one level).

    These are the corpses of writers killed mid-:func:`atomic_write_text`;
    the corresponding target files are intact, so the tmp files are pure
    garbage.  Returns what was removed.
    """
    directory = Path(directory)
    removed: List[Path] = []
    if not directory.is_dir():
        return removed
    for tmp in sorted(directory.glob(f"*{TMP_SUFFIX}")):
        try:
            tmp.unlink()
        except OSError:
            continue
        removed.append(tmp)
    return removed


def sha256_text(text: str) -> str:
    """Hex content digest of ``text`` (UTF-8)."""
    return hashlib.sha256(text.encode()).hexdigest()


__all__ = ["TMP_SUFFIX", "atomic_write_text", "sha256_text", "sweep_tmp_files"]
