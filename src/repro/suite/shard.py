"""The shard supervisor: one shared-nothing slice of a sharded campaign.

A sharded campaign (:mod:`repro.suite.coordinator`) partitions its cells
across N shard supervisors. Each shard owns ``shards/shard-K/`` under
the campaign output directory — a complete, self-contained campaign
directory with its own :class:`~repro.suite.manifest.CampaignLock`,
manifest, packed archive, and (when the shard runs a worker pool) its
own ``segments/worker-*.calipack``. Nothing is shared between shards,
so every crash-safety property PRs 1-4 established for one campaign
directory holds per shard unchanged; the coordinator's job reduces to
process supervision plus a final merge.

``shard_main`` is the shard process entry point. Each shard

* ignores SIGINT (campaign shutdown is the coordinator's decision);
* runs a :class:`ShardLease` thread that refreshes a lease file so the
  coordinator can tell "busy" from "wedged", and that watches for
  re-parenting — a shard whose coordinator died exits with
  :data:`SHARD_ORPHANED` rather than running headless forever;
* rebuilds its assigned cells from their
  :class:`~repro.suite.worker.CellTask` wire form and executes them
  through the ordinary :class:`~repro.suite.executor.SuiteExecutor`
  (serial loop, or a supervised pool when ``workers > 1``), appending
  profiles to the shard archive with member refs that already point at
  the campaign-level archive the coordinator will merge into;
* exits 0 when its run *completed* (even with failed cells — those are
  recorded in the shard manifest and surface in the campaign report),
  :data:`~repro.cli.exitcodes.CAMPAIGN_LOCKED` when the shard directory
  is still locked (a not-yet-reaped predecessor), and anything else on
  an abnormal death the coordinator must heal.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cli.exitcodes import CAMPAIGN_LOCKED, SHARD_ORPHANED, UNCLEAN_RUN
from repro.suite.errors import CampaignLockedError
from repro.suite.run_params import RunParams
from repro.suite.worker import CellTask
from repro.util.fsio import tmp_sibling

#: subdirectory of the campaign output dir holding the shard dirs
SHARD_DIR = "shards"

#: the per-shard liveness lease, inside each shard directory
LEASE_NAME = "shard_lease.json"

#: how often a shard re-checks that its coordinator still exists
_ORPHAN_POLL_S = 0.2


def shard_dir_name(index: int) -> str:
    return f"shard-{index}"


def shard_path(output_dir: str | Path, index: int) -> Path:
    return Path(output_dir) / SHARD_DIR / shard_dir_name(index)


def parse_shard_index(name: str) -> int | None:
    """``shard-7`` -> 7; None for anything that is not a shard dir name."""
    if not name.startswith("shard-"):
        return None
    tail = name[len("shard-"):]
    return int(tail) if tail.isdigit() else None


# ---------------------------------------------------------------- lease
def write_lease(shard_dir: Path, payload: dict) -> None:
    """Refresh the shard's lease (tmp + rename; liveness, not durability).

    The lease is an advisory heartbeat, so it skips the fsync protocol —
    losing one refresh to a power cut only makes the shard look a little
    staler, and the atomic rename keeps readers from ever seeing a torn
    lease.
    """
    target = shard_dir / LEASE_NAME
    tmp = tmp_sibling(target)
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, target)
    except OSError:  # pragma: no cover - lease refresh is best-effort
        tmp.unlink(missing_ok=True)


def read_lease(shard_dir: Path) -> dict | None:
    try:
        payload = json.loads((shard_dir / LEASE_NAME).read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def lease_age(lease: dict | None, now: float | None = None) -> float | None:
    """Seconds since the lease was refreshed (None when unreadable).

    Prefers the lease's ``mono`` stamp against ``time.monotonic()``:
    CLOCK_MONOTONIC is shared by every process on the host, and unlike
    wall clock it cannot jump backwards (NTP step, manual reset) and
    make a wedged shard look freshly alive — or jump forwards and get a
    healthy shard killed. The wall-clock ``time`` stamp remains for
    display and as a fallback for leases written by older shards.
    """
    if lease is None:
        return None
    mono = lease.get("mono")
    if isinstance(mono, (int, float)) and now is None:
        return time.monotonic() - mono
    stamp = lease.get("time")
    if not isinstance(stamp, (int, float)):
        return None
    return (now if now is not None else time.time()) - stamp


class ShardLease(threading.Thread):
    """Daemon thread: refresh the lease file, watch for orphaning.

    The coordinator reads the lease's wall-clock stamp to distinguish a
    busy shard from a wedged one (no refresh within the lease timeout).
    The same loop polls ``os.getppid()``: if the coordinator died, this
    shard has no one to report to, to be healed by, or to be merged by —
    it exits immediately with :data:`SHARD_ORPHANED` and lets the
    *resumed* coordinator fsck and re-run whatever it was doing.
    """

    def __init__(
        self, shard_dir: Path, index: int, interval: float, coordinator_pid: int
    ) -> None:
        super().__init__(name=f"shard-lease-{index}", daemon=True)
        self.shard_dir = shard_dir
        self.index = index
        self.interval = max(interval, _ORPHAN_POLL_S)
        self.coordinator_pid = coordinator_pid
        self._stop = threading.Event()
        self._seq = 0

    def refresh(self) -> None:
        self._seq += 1
        write_lease(
            self.shard_dir,
            {
                "shard": self.index,
                "pid": os.getpid(),
                "seq": self._seq,
                # monotonic for liveness math, wall clock for humans
                "mono": time.monotonic(),
                "time": time.time(),
            },
        )

    def run(self) -> None:
        next_refresh = 0.0
        while not self._stop.is_set():
            now = time.monotonic()
            if now >= next_refresh:
                self.refresh()
                next_refresh = now + self.interval
            if os.getppid() != self.coordinator_pid:
                os._exit(SHARD_ORPHANED)  # our coordinator is gone
            self._stop.wait(_ORPHAN_POLL_S)

    def stop(self) -> None:
        self._stop.set()


# ----------------------------------------------------------- entry point
def shard_main(
    index: int,
    params: RunParams,
    tasks: list[CellTask],
    write_files: bool,
    resume: bool,
    coordinator_pid: int,
    model_plan=None,
) -> None:
    """Shard process entry point (must stay importable for ``spawn``).

    ``params.output_dir`` is the *campaign* directory; the shard derives
    its own. The process never returns — it ``os._exit``\\ s so no
    inherited coordinator state (signal handlers, atexit hooks) runs.
    """
    from repro.suite.executor import SuiteExecutor

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass

    shard_dir = shard_path(params.output_dir, index)
    shard_dir.mkdir(parents=True, exist_ok=True)
    # This process owns one shard: no recursive sharding, and the shard
    # directory is its campaign directory. Everything else — pack mode,
    # worker pool size, retry policy, execution settings — is inherited.
    sparams = dataclasses.replace(
        params,
        output_dir=str(shard_dir),
        shards=0,
        resume=resume,
    )
    lease = ShardLease(
        shard_dir,
        index,
        interval=max(params.shard_lease_timeout / 5.0, 0.02),
        coordinator_pid=coordinator_pid,
    )
    lease.start()

    executor = SuiteExecutor(sparams, model_plan=model_plan)
    if write_files and sparams.pack and sparams.workers == 1:
        from repro.caliper.calipack import ARCHIVE_NAME, ArchiveSink

        # Profiles land in the shard archive, but their recorded member
        # refs point at the campaign archive the coordinator merges into
        # (same trick as the supervised workers' segment refs).
        executor.profile_sink = ArchiveSink(
            shard_dir / ARCHIVE_NAME,
            ref_archive=Path(params.output_dir) / ARCHIVE_NAME,
        )

    try:
        result = executor._execute([task.cell() for task in tasks], write_files)
    except CampaignLockedError:
        # A not-yet-reaped predecessor (or its orphan poll) still holds
        # the shard lock. Not a crash: the coordinator retries shortly
        # without charging the respawn budget.
        os._exit(CAMPAIGN_LOCKED)
    except BaseException:
        os._exit(UNCLEAN_RUN)  # abnormal completion: the coordinator heals
    finally:
        lease.stop()
    # Completion — clean or with recorded cell failures — is exit 0: the
    # shard had its chance, the manifest holds the verdicts.
    os._exit(0 if result is not None else UNCLEAN_RUN)


# ------------------------------------------------------------- progress
@dataclass
class ShardProgress:
    """A coordinator- or CLI-side snapshot of one shard's state."""

    index: int
    assigned: int
    ok: int = 0
    failed: int = 0
    lease_age: float | None = None
    lease_pid: int | None = None
    retired: bool = False

    @property
    def pending(self) -> int:
        return max(0, self.assigned - self.ok - self.failed)


def shard_progress(
    output_dir: str | Path, index: int, assigned_keys: list[str]
) -> ShardProgress:
    """Read one shard's manifest + lease into a :class:`ShardProgress`."""
    from repro.suite.manifest import MANIFEST_NAME, CampaignManifest

    shard_dir = shard_path(output_dir, index)
    progress = ShardProgress(index=index, assigned=len(assigned_keys))
    try:
        manifest = CampaignManifest.read(shard_dir / MANIFEST_NAME)
    except (OSError, ValueError):
        manifest = None
    cells = manifest.cells if manifest is not None else {}
    assigned = set(assigned_keys)
    for key, entry in cells.items():
        if key not in assigned or not isinstance(entry, dict):
            continue
        if entry.get("status") == "ok":
            progress.ok += 1
        elif entry.get("status") == "failed":
            progress.failed += 1
    lease = read_lease(shard_dir)
    progress.lease_age = lease_age(lease)
    if lease is not None and isinstance(lease.get("pid"), int):
        progress.lease_pid = lease["pid"]
    return progress
