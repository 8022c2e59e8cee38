"""One campaign's bookkeeping: lock, resume skips, records, result.

Three loops run campaign cells — the serial loop
(:meth:`~repro.suite.executor.SuiteExecutor.run`), the supervised
worker pool (:class:`~repro.suite.supervisor.CampaignSupervisor`) and
the shard coordinator (:class:`~repro.suite.coordinator.ShardCoordinator`).
Each owns only its scheduling: in order in-process; across workers
with batching, liveness and retry; across shard processes with healing
and a merge. Everything they have in common is a
:class:`CampaignSession`:

* ``open()`` acquires the directory's :class:`CampaignLock`, salvages
  packed segments a crashed predecessor stranded, and loads (or starts)
  the campaign manifest. An in-memory run (``write_files=False``) that
  resumes only reads the manifest — it never writes to the directory;
* ``pending(cells)`` drops the cells a ``--resume`` may skip and marks
  them ``skipped`` in the report;
* ``record(outcome)`` books one finished cell: its kernel records and
  cell status into the :class:`~repro.suite.report.RunReport`, its
  profile and written path into the result, and — when files are
  written — its manifest entry, checkpointed to the ledger before the
  call returns;
* ``finalize()`` seals a completed run: fold remaining segments and
  rewrite the packed archive into its canonical, name-sorted form, so
  the final ``campaign.calipack`` is a pure function of its entry set —
  the property that makes serial, supervised, and sharded runs of one
  campaign byte-identical — then compact the manifest's ledger into its
  snapshot;
* ``result()`` builds the :class:`RunResult`, and refuses to when an
  uninterrupted run left a pending cell unrecorded; ``close()`` always
  runs and releases the lock.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.caliper.records import CaliProfile
from repro.faults import fault_point
from repro.suite.manifest import MANIFEST_NAME, CampaignLock, CampaignManifest
from repro.suite.report import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    KernelRunRecord,
    RunReport,
)
from repro.suite.run_params import RunParams


@dataclass
class RunResult:
    """Executor output: profiles, written .cali paths, per-run outcomes."""

    profiles: list[CaliProfile]
    cali_paths: list[Path]
    report: RunReport = field(default_factory=RunReport)


@dataclass
class CellOutcome:
    """Everything one finished cell produced, whichever loop ran it.

    ``profile`` is None when the cell never produced one (a worker that
    failed outside the executor's isolation, a worker that crashed out
    of retries).
    """

    cell_key: str
    profile: CaliProfile | None
    records: list[KernelRunRecord]
    written: Path | None = None
    write_error: str | None = None
    #: measured wall time of the whole cell (kernels + profile write) —
    #: recorded in the manifest to feed a later run's ``--cost-from``
    elapsed_s: float | None = None

    @property
    def failed(self) -> bool:
        return self.write_error is not None or any(
            r.status == STATUS_FAILED for r in self.records
        )

    @property
    def status(self) -> str:
        return STATUS_FAILED if self.failed else STATUS_OK

    @property
    def failed_kernels(self) -> list[str]:
        return [r.kernel for r in self.records if r.status == STATUS_FAILED]


@dataclass
class CampaignSession:
    """One runner's lease on a campaign output directory and its tally.

    ``open()`` raises :class:`~repro.suite.errors.CampaignLockedError`
    if another campaign owns the directory; ``finalize()`` is called
    only on a normally-completed run; ``close()`` always runs.
    """

    params: RunParams
    write_files: bool
    lock: CampaignLock | None = None
    manifest: CampaignManifest | None = None
    report: RunReport = field(default_factory=RunReport)
    profiles: list[CaliProfile] = field(default_factory=list)
    paths: list[Path] = field(default_factory=list)
    #: keys ``pending()`` handed to the loop; each must be recorded
    expected: set[str] = field(default_factory=set)

    def open(self) -> "CampaignSession":
        params = self.params
        if self.write_files:
            self.lock = CampaignLock.acquire(params.output_dir)
        try:
            if self.write_files:
                if params.pack:
                    from repro.caliper.calipack import merge_segments

                    # Salvage segments stranded by a crashed run
                    # (footer-less segments go through the recovery scan).
                    merge_segments(params.output_dir)
                self.manifest = CampaignManifest.load_or_create(
                    params.output_dir, params.fingerprint()
                )
            elif params.resume:
                # Read-only: an in-memory run leaves a ledger uncompacted
                # and an unreadable snapshot in place (it skips nothing).
                path = Path(params.output_dir) / MANIFEST_NAME
                try:
                    self.manifest = CampaignManifest.read(path)
                except (OSError, ValueError) as exc:
                    warnings.warn(
                        f"unreadable campaign manifest {path} ({exc}); "
                        "resuming nothing",
                        stacklevel=2,
                    )
        except BaseException:
            self.close()
            raise
        return self

    # ---------------------------------------------------------- bookkeeping
    def pending(self, cells: list) -> list:
        """``cells`` minus those a ``--resume`` skips (marked skipped)."""
        out = []
        for cell in cells:
            if (
                self.params.resume
                and self.manifest is not None
                and self.manifest.is_complete(cell.key)
            ):
                self.report.mark_cell(cell.key, STATUS_SKIPPED)
            else:
                out.append(cell)
        self.expected.update(cell.key for cell in out)
        return out

    def record(self, outcome: CellOutcome, point: str | None = None) -> None:
        """Book one finished cell; with files written, checkpoint it.

        ``point`` names the crash point the calling loop arms between
        two cells' durable records; it fires after the checkpoint.
        """
        self.report.records.extend(outcome.records)
        self.report.mark_cell(outcome.cell_key, outcome.status)
        if outcome.profile is not None:
            self.profiles.append(outcome.profile)
        if outcome.written is not None:
            self.paths.append(outcome.written)
        if not self.write_files:
            return
        self.manifest.record(
            outcome.cell_key,
            outcome.status,
            file=str(outcome.written) if outcome.written is not None else None,
            failed_kernels=outcome.failed_kernels,
            elapsed_s=outcome.elapsed_s,
        )
        self.manifest.save()
        if point is not None:
            fault_point(point, path=self.manifest.path)

    def result(self, interrupted: bool = False) -> RunResult:
        """The run's result; a completed run must have booked every
        pending cell (a cell a loop lost would otherwise read as clean).
        """
        self.report.interrupted = interrupted
        missing = sorted(self.expected - self.report.cells.keys())
        if missing and not interrupted:
            raise RuntimeError(
                f"campaign loop finished with {len(missing)} pending "
                f"cell(s) never recorded: {', '.join(missing)}"
            )
        return RunResult(
            profiles=self.profiles, cali_paths=self.paths, report=self.report
        )

    # ------------------------------------------------------------ lifecycle
    def finalize(self) -> None:
        """Seal a completed run: fold segments, compact the manifest.

        The packed archive is sealed by exactly one canonical rewrite:
        the segment merge when there were segments (it already writes
        the name-sorted form), else a canonicalize of the archive the
        serial loop appended to. Idempotent — an already-canonical
        archive rewrites to the same bytes and compaction replays to the
        same manifest — so a crash anywhere in here just repeats this
        step on resume.
        """
        if not self.write_files:
            return
        if self.params.pack:
            from repro.caliper.calipack import (
                ARCHIVE_NAME,
                canonicalize_archive,
                merge_segments,
            )

            if merge_segments(self.params.output_dir) is None:
                canonicalize_archive(
                    Path(self.params.output_dir) / ARCHIVE_NAME
                )
        if self.manifest is not None:
            self.manifest.compact()

    def close(self) -> None:
        if self.lock is not None:
            self.lock.release()
            self.lock = None

    def __enter__(self) -> "CampaignSession":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
