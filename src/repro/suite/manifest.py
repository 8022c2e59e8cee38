"""Campaign checkpointing: the manifest that makes sweeps resumable.

A campaign writing ``.cali`` files also maintains a manifest next to
them, recording the status of every (machine, variant, tuning, trial)
cell as it completes. A crashed or degraded campaign re-invoked with
``--resume`` skips the cells the manifest marks ``ok`` and re-runs only
failed or missing ones.

The manifest lives in two files:

``campaign_manifest.json``
    The compacted snapshot: format, version, run-configuration
    fingerprint and every cell entry, written crash-safely (fsynced tmp
    sibling + ``os.replace`` + directory fsync).
``campaign_manifest.ledger``
    An append-only journal of the mutations since the last compaction.
    Its first line carries the fingerprint (``{"fingerprint": {...}}``);
    every other line is one full cell entry
    (``{"key": ..., "entry": {...}}``).

The per-cell checkpoint (:meth:`CampaignManifest.save`) appends the
entries recorded since the last save and fsyncs once, so a campaign's
checkpoints cost O(cells) bytes instead of rewriting the whole ledger
per cell. Readers replay the snapshot and then the ledger's lines in
order as full-entry overwrites. A line is committed by its newline; the
first line that is unterminated or does not decode ends the replay (a
torn tail, the in-flight cell of a crash), and the next append cuts the
file back to the last good line. A crash therefore loses at most the
in-flight cell. :meth:`CampaignManifest.compact` folds the ledger into
the snapshot and unlinks it; replay is idempotent, so a crash between
the snapshot replace and the unlink replays to the same state. A
completed campaign compacts once, and so does the next writer that
finds a ledger left behind.

Concurrent campaigns must not interleave writes to one ledger, so the
output directory carries an advisory :class:`CampaignLock`: a lockfile
holding a PID lease. A second campaign against a locked directory fails
loudly with :class:`~repro.suite.errors.CampaignLockedError`; a lease
whose holder PID is dead is taken over automatically (crashed campaigns
do not wedge the directory).
"""

from __future__ import annotations

import json
import os
import socket
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.faults import fault_point
from repro.suite.errors import CampaignLockedError
from repro.util.fsio import (
    back_up,
    create_exclusive,
    fsync_dir,
    write_durable_text,
)

MANIFEST_NAME = "campaign_manifest.json"
LEDGER_SUFFIX = ".ledger"
MANIFEST_VERSION = 1
LOCK_NAME = "campaign_manifest.lock"


def pid_alive(pid: Any) -> bool:
    """Whether ``pid`` names a live process we could signal.

    A zombie (exited, not yet reaped — an orphan whose new parent never
    waits, say) is dead: it holds nothing and can do nothing.
    """
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        pass
    except OSError:  # pragma: no cover - exotic platforms
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # no procfs: the signal probe is all we have
        return True
    return stat.rpartition(")")[2].split()[:1] != ["Z"]


def _read_lease(path: str | Path) -> dict[str, Any]:
    """A PID lease's payload; empty when absent or unreadable."""
    try:
        lease = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    return lease if isinstance(lease, dict) else {}


def lease_pid(path: str | Path) -> int | None:
    """The pid a PID lease records — a campaign lock, a job's scheduler
    lease or a takeover token (None: absent, or unreadable)."""
    pid = _read_lease(path).get("pid")
    return pid if isinstance(pid, int) else None


def campaign_is_live(directory: str | Path) -> bool:
    """Whether a live campaign other than this process holds the
    directory's lock: the one liveness test for campaign directories
    (fsck, ``shard-status``, the chaos harness)."""
    pid = lease_pid(Path(directory) / LOCK_NAME)
    return pid_alive(pid) and pid != os.getpid()


def manifest_cells(path: str | Path) -> dict[str, dict[str, Any]]:
    """The cells of the campaign manifest at ``path``, ledger replayed;
    empty when it is missing or unreadable (the tolerant reader for
    progress, cost and invariant queries)."""
    try:
        manifest = CampaignManifest.read(path)
    except (OSError, ValueError):
        return {}
    if manifest is None:
        return {}
    return {k: v for k, v in manifest.cells.items() if isinstance(v, dict)}


@dataclass
class CampaignLock:
    """Advisory PID-lease lock on a campaign output directory.

    ``acquire`` creates ``campaign_manifest.lock`` exclusively; if it
    already exists and its holder PID is alive, acquisition raises
    :class:`CampaignLockedError` with a diagnostic. A stale lease (dead
    holder, or a leak from this very process) is taken over in place.
    The lock is advisory: it guards cooperating campaign runners, not
    arbitrary writers.
    """

    path: Path
    acquired: bool = False

    @classmethod
    def acquire(cls, output_dir: str | Path) -> "CampaignLock":
        return cls.acquire_path(Path(output_dir) / LOCK_NAME)

    @classmethod
    def acquire_path(cls, path: str | Path) -> "CampaignLock":
        """Acquire an arbitrary PID-lease lock file (same protocol).

        The campaign service's per-job lease tokens are ordinary
        instances of this lock living under ``jobs/`` instead of inside
        a campaign directory; the exclusive create and the exclusive
        stale-lease takeover work identically.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lease = json.dumps(
            {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "acquired_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            indent=1,
        )
        try:
            # Created whole: a contender never reads a lease so empty it
            # looks stale while its owner believes it holds the lock.
            create_exclusive(path, lease.encode())
        except FileExistsError:
            holder = _read_lease(path)  # unreadable: treat as stale
            holder_pid = holder.get("pid")
            if pid_alive(holder_pid) and holder_pid != os.getpid():
                raise CampaignLockedError(
                    str(path), holder_pid, holder.get("acquired_at")
                ) from None
            # Stale lease: the holder is gone (or is us). Two contenders
            # can reach this branch for the same expired lease, so the
            # takeover itself must be exclusive: create a takeover token
            # exclusively first. Exactly one contender wins; the loser
            # fails with the same clean CampaignLockedError a live lease
            # produces. A token orphaned by a crash mid-takeover is
            # cleared once its claimant is dead, so it cannot wedge the
            # directory.
            token = path.with_name(path.name + ".takeover")
            claim = json.dumps({"pid": os.getpid()}).encode()
            try:
                create_exclusive(token, claim)
            except FileExistsError:
                claimant = lease_pid(token)
                if not pid_alive(claimant):
                    token.unlink(missing_ok=True)
                raise CampaignLockedError(
                    str(path), claimant, holder.get("acquired_at")
                ) from None
            try:
                # The staleness verdict predates the claim: another
                # contender may have taken over (and released the token)
                # in between. Take over only the lease judged stale.
                current = _read_lease(path)
                if current != holder:
                    raise CampaignLockedError(
                        str(path), current.get("pid"), current.get("acquired_at")
                    )
                write_durable_text(path, lease)
            finally:
                token.unlink(missing_ok=True)
        return cls(path=path, acquired=True)

    def release(self) -> None:
        if not self.acquired:
            return
        self.acquired = False
        try:
            self.path.unlink()
        except FileNotFoundError:  # pragma: no cover - external cleanup
            pass

    def __enter__(self) -> "CampaignLock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


@dataclass
class CampaignManifest:
    """Completed-cell ledger for one campaign output directory."""

    path: Path
    fingerprint: dict[str, Any] = field(default_factory=dict)
    #: cell key -> {"status": "ok"|"failed", "file": str|None,
    #:              "failed_kernels": [...]}
    cells: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: ledger lines the last replay dropped (an undecodable tail)
    torn_lines: int = field(default=0, compare=False)
    #: keys recorded since the last save (insertion-ordered set)
    _dirty: dict[str, None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: offset just past the ledger's last good line; None = not known
    _ledger_end: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def ledger_path(self) -> Path:
        return self.path.with_suffix(LEDGER_SUFFIX)

    # -------------------------------------------------------------- load
    @classmethod
    def read(cls, path: str | Path) -> "CampaignManifest | None":
        """Replay the snapshot at ``path`` and its ledger, read-only.

        The one reader of a campaign manifest. Returns None when neither
        file exists; raises ``ValueError`` (or ``OSError``) when the
        snapshot exists but does not parse. A torn ledger tail is not an
        error: replay stops before it and :attr:`torn_lines` counts it.
        """
        manifest = cls(path=Path(path))
        try:
            payload = json.loads(manifest.path.read_text())
        except FileNotFoundError:
            return manifest if manifest._replay() else None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("cells", {}), dict
        ):
            raise ValueError(f"{manifest.path} is not a campaign manifest")
        manifest.fingerprint = payload.get("fingerprint", {})
        manifest.cells = dict(payload.get("cells", {}))
        manifest._replay()
        return manifest

    def _replay(self) -> bool:
        """Apply the ledger over the current state; False without one."""
        try:
            data = self.ledger_path.read_bytes()
        except FileNotFoundError:
            return False
        end = 0
        while (newline := data.find(b"\n", end)) >= 0:
            try:
                line = json.loads(data[end:newline])
                if "fingerprint" in line:
                    self.fingerprint = dict(line["fingerprint"])
                elif isinstance(line["entry"], dict):
                    self.cells[str(line["key"])] = line["entry"]
                else:
                    break
            except (ValueError, TypeError, KeyError):
                break
            end = newline + 1
        self._ledger_end = end
        self.torn_lines = len(data[end:].splitlines())
        return True

    @classmethod
    def load_or_create(
        cls, output_dir: str | Path, fingerprint: dict[str, Any]
    ) -> "CampaignManifest":
        """Load the directory's manifest, or start an empty one.

        An unreadable snapshot is backed up as
        ``campaign_manifest.json.bak`` before a fresh one takes its place
        — forensic state is preserved, never silently destroyed. A
        fingerprint mismatch (the resumed campaign was configured
        differently) warns rather than fails: resuming with, say, more
        trials legitimately extends an existing manifest. A ledger left
        behind by a crash is compacted into the snapshot.
        """
        path = Path(output_dir) / MANIFEST_NAME
        try:
            manifest = cls.read(path)
        except (OSError, ValueError) as exc:
            backup = back_up(path)
            saved = (
                f"; corrupt file backed up as {backup.name}"
                if backup is not None
                else "; backup failed, corrupt file left in place"
            )
            warnings.warn(
                f"unreadable campaign manifest {path} ({exc}); "
                f"starting fresh{saved}",
                stacklevel=2,
            )
            manifest = cls(path=path)
            manifest._replay()
        if manifest is None:
            return cls(path=path, fingerprint=dict(fingerprint))
        recorded = manifest.fingerprint
        if recorded and recorded != fingerprint:
            changed = sorted(
                k
                for k in set(recorded) | set(fingerprint)
                if recorded.get(k) != fingerprint.get(k)
            )
            warnings.warn(
                f"campaign manifest {path} was recorded with a different "
                f"configuration (changed: {changed}); resuming anyway",
                stacklevel=2,
            )
        manifest.fingerprint = dict(fingerprint)
        if manifest.ledger_path.exists():
            manifest.compact()
        return manifest

    # ------------------------------------------------------------ queries
    def is_complete(self, key: str) -> bool:
        """Whether ``--resume`` may skip this cell."""
        return self.cells.get(key, {}).get("status") == "ok"

    def record(
        self,
        key: str,
        status: str,
        file: str | None = None,
        failed_kernels: list[str] | None = None,
        elapsed_s: float | None = None,
        rerun_reason: str | None = None,
    ) -> None:
        entry = {
            "status": status,
            "file": file,
            "failed_kernels": list(failed_kernels or []),
        }
        if elapsed_s is not None:
            # Measured wall time feeds the scheduler's cost model on a
            # later run (``--cost-from``); absent for model-only cells.
            entry["elapsed_s"] = elapsed_s
        if rerun_reason is not None:
            entry["rerun_reason"] = rerun_reason
        self.cells[key] = entry
        self._dirty[key] = None

    def mark_for_rerun(self, key: str, reason: str) -> None:
        """Demote a cell so ``--resume`` re-runs it (fsck healing)."""
        entry = self.cells.get(key, {})
        self.record(
            key,
            "failed",
            file=entry.get("file"),
            failed_kernels=entry.get("failed_kernels"),
            elapsed_s=entry.get("elapsed_s"),
            rerun_reason=reason,
        )

    # -------------------------------------------------------------- save
    def save(self) -> Path:
        """Checkpoint: append the cells recorded since the last save.

        One write and one fsync of the ledger; the directory is fsynced
        only when the ledger file is created. Returns the ledger path.
        """
        fault_point("manifest.pre-save", path=self.path)
        ledger = self.ledger_path
        if not self._dirty:
            return ledger
        with open(ledger, "ab") as handle:
            size = handle.tell()
            if self._ledger_end is not None and size > self._ledger_end:
                # A torn tail past the last good line: cut it off so the
                # next line does not fuse with it.
                handle.truncate(self._ledger_end)
                size = self._ledger_end
            lines = [] if size else [{"fingerprint": self.fingerprint}]
            lines += [{"key": k, "entry": self.cells[k]} for k in self._dirty]
            data = "".join(
                json.dumps(line, sort_keys=True) + "\n" for line in lines
            ).encode("utf-8")
            handle.write(data)
            handle.flush()
            fault_point(
                "manifest.mid-append", path=ledger, torn_file=ledger,
                torn_base=size,
            )
            try:
                os.fsync(handle.fileno())
            except OSError:  # pragma: no cover - fs without fsync
                pass
        if not size:
            fsync_dir(ledger.parent)
        self._ledger_end = size + len(data)
        self._dirty.clear()
        return ledger

    def compact(self) -> Path:
        """Fold the ledger into a durable snapshot, then unlink it.

        Cells recorded since the last save reach the ledger first, so
        the unlink needs no directory fsync: a crash before it leaves a
        ledger whose replay over the new snapshot is a no-op.
        """
        if self._dirty and self.ledger_path.exists():
            self.save()
        payload = {
            "format": "rajaperf-campaign-manifest",
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "cells": self.cells,
        }
        write_durable_text(
            self.path, json.dumps(payload, indent=1, sort_keys=True)
        )
        self.ledger_path.unlink(missing_ok=True)
        self._dirty.clear()
        self._ledger_end = None
        return self.path
