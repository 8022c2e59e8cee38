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

``shard_main`` is the shard process entry point, a
:func:`repro.util.child.spawn` child: SIGINT ignored (campaign shutdown
is the coordinator's decision), SIGTERM at its default, and a thread
blocked on its pipe that exits :data:`SHARD_ORPHANED` on EOF — a shard
whose coordinator died has no one to report to, to be healed by, or to
be merged by, so it leaves the resumed coordinator to fsck and re-run
whatever it was doing rather than running headless. Each shard

* beats up its pipe through a
  :class:`~repro.suite.heartbeat.HeartbeatEmitter`, so the coordinator
  can tell "busy" from "wedged";
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
import os
from dataclasses import dataclass
from pathlib import Path

from repro.cli.exitcodes import CAMPAIGN_LOCKED, UNCLEAN_RUN
from repro.suite.errors import CampaignLockedError
from repro.suite.run_params import RunParams
from repro.suite.worker import CellTask

#: subdirectory of the campaign output dir holding the shard dirs
SHARD_DIR = "shards"


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


# ----------------------------------------------------------- entry point
def shard_main(
    index: int,
    params: RunParams,
    tasks: list[CellTask],
    write_files: bool,
    resume: bool,
    conn,
    model_plan=None,
) -> None:
    """Shard process entry point (must stay importable for ``spawn``).

    ``params.output_dir`` is the *campaign* directory; the shard derives
    its own. ``conn`` is the shard's end of its pipe to the coordinator.
    The process never returns — it ``os._exit``\\ s so no inherited
    coordinator state (atexit hooks) runs.
    """
    from repro.suite.executor import SuiteExecutor
    from repro.suite.heartbeat import HeartbeatEmitter

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
    beats = HeartbeatEmitter(
        conn.send, max(params.shard_lease_timeout / 5.0, 0.02)
    )
    beats.start()

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
        # A not-yet-reaped predecessor still holds the shard lock. Not a
        # crash: the coordinator retries shortly without charging the
        # respawn budget.
        os._exit(CAMPAIGN_LOCKED)
    except BaseException:
        os._exit(UNCLEAN_RUN)  # abnormal completion: the coordinator heals
    finally:
        beats.stop()
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
    #: the pid in the shard directory's campaign lock (None: no lock)
    lock_pid: int | None = None
    #: whether that pid is a live process other than this one
    live: bool = False

    @property
    def pending(self) -> int:
        return max(0, self.assigned - self.ok - self.failed)


def shard_progress(
    output_dir: str | Path, index: int, assigned_keys: list[str]
) -> ShardProgress:
    """Read one shard's manifest + lock into a :class:`ShardProgress`."""
    from repro.suite.manifest import (
        MANIFEST_NAME,
        CampaignManifest,
        campaign_is_live,
        lock_holder,
    )

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
    progress.lock_pid = lock_holder(shard_dir)
    progress.live = campaign_is_live(shard_dir)
    return progress
