"""Durable filesystem primitives for the crash-safe stores.

The profile store and the campaign manifest both follow the same
protocol: write the payload to a tmp sibling, fsync it, ``os.replace``
it over the target, then fsync the containing directory so the rename
itself survives a power cut. These helpers keep that protocol in one
place; fsync failures on filesystems that do not support it (some CI
overlays) are tolerated — atomicity still holds, only durability
degrades.

Tmp siblings are named ``<target>.<pid>.<n>.tmp`` — unique per writer
process and per write — so two processes durably writing the same
target (the reference-checksum sidecar's read-merge-write, concurrent
campaigns racing a stale lock) can never clobber each other's
in-flight tmp; the losing ``os.replace`` is simply overwritten by the
winner's, which is the documented last-wins semantics. Orphaned tmps
(a crash between tmp write and replace) are swept by ``fsck``.

Every step of the protocol is also a registered crash point
(:mod:`repro.faults`): ``fsio.before-tmp-write``,
``fsio.after-tmp-fsync`` (torn-write capable), ``fsio.before-replace``,
``fsio.after-replace``, and ``fsio.before-dir-fsync``. The hooks are
no-ops unless a fault plan is installed.

:func:`create_exclusive` is the create-once twin (job records, lease
files): the same synced tmp sibling, ``os.link``-ed into place instead
of replaced, so an existing target is refused and a reader never sees
a half-written file. It carries no crash points of its own.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

from repro.faults import fault_point

_tmp_counter = itertools.count()

#: glob matching this module's tmp siblings (fsck's orphan sweep)
TMP_GLOB = "*.tmp"


def tmp_sibling(target: str | Path) -> Path:
    """A collision-free tmp path next to ``target`` (pid + counter)."""
    out = Path(target)
    return out.with_name(f"{out.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a completed rename inside it is durable."""
    fault_point("fsio.before-dir-fsync", path=path)
    _fsync_dir(path)


def _fsync_dir(path: str | Path) -> None:
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def durable_replace(tmp: str | Path, target: str | Path) -> None:
    """``os.replace`` + directory fsync (the tmp must already be synced)."""
    fault_point("fsio.before-replace", path=target, torn_file=tmp)
    os.replace(tmp, target)
    fault_point("fsio.after-replace", path=target)
    fsync_dir(Path(target).parent)


def back_up(path: str | Path) -> Path | None:
    """Move a damaged file aside as ``<name>.bak`` (forensics first).

    Returns the backup path, or None when the move failed and the
    damaged file is still in place.
    """
    path = Path(path)
    backup = path.with_name(path.name + ".bak")
    try:
        os.replace(path, backup)
    except OSError:
        return None
    return backup


def create_exclusive(target: str | Path, data: bytes) -> Path:
    """Create ``target`` holding ``data``; ``FileExistsError`` if it exists.

    The whole payload is written and fsynced to a tmp sibling first and
    then ``os.link``-ed into place, so a concurrent reader sees either no
    file or the complete one, never the empty file an ``O_EXCL`` open
    leaves until its write lands. ``os.link`` refuses an existing
    target, which keeps the create exclusive.
    """
    out = Path(target)
    tmp = tmp_sibling(out)
    _write_synced(tmp, data)
    try:
        os.link(tmp, out)
    finally:
        os.unlink(tmp)
    _fsync_dir(out.parent)
    return out


def _write_synced(path: Path, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        try:
            os.fsync(handle.fileno())
        except OSError:  # pragma: no cover - fs without fsync
            pass


def write_durable_text(target: str | Path, text: str) -> Path:
    """Crash-safe whole-file write: tmp sibling + fsync + atomic replace."""
    return write_durable_bytes(target, text.encode("utf-8"))


def write_durable_bytes(target: str | Path, data: bytes) -> Path:
    """:func:`write_durable_text` for binary payloads (the ingest cache)."""
    out = Path(target)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = tmp_sibling(out)
    fault_point("fsio.before-tmp-write", path=out)
    _write_synced(tmp, data)
    fault_point("fsio.after-tmp-fsync", path=out, torn_file=tmp)
    durable_replace(tmp, out)
    return out
