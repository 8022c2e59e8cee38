"""The lease-based job scheduler: claims, runs, heals, drains.

One scheduler loop owns the whole service lifecycle of a job after
submission. Ownership is a per-job *lease* — the same exclusively
created PID-lease file (with exclusive stale-lease takeover) that
guards campaign directories, living at ``jobs/<job_id>.lease`` — so
two schedulers pointed at one root cannot both run a job, and a
scheduler that dies leaves a lease any successor can take over exactly
once.

Each claimed job runs as a **forked child process** (a
:func:`repro.util.child.spawn` child) executing an ordinary campaign
into ``campaigns/<job_id>/``; all the campaign-level crash safety
(durable manifest checkpoints, archive seals, fsck) is inherited
rather than reimplemented. The fork is warm: on its first
claim the scheduler imports every kernel and the modules a campaign
imports lazily (:data:`WARM_MODULES`), once, and each job runner
inherits them copy-on-write. A warm-up that raises only warns, and the
runners import on their own. :meth:`JobScheduler.children` lets a
caller block until a runner exits instead of polling. The scheduler
heartbeats job progress by reading the child's campaign manifest,
applies cancel markers (reading only the records they name), and
reaps exits:

* exit 0 — SUCCEEDED;
* unclean run — FAILED (the campaign itself kept what it could);
* campaign directory locked — requeued *uncharged* after a short delay
  (the lock holder is transient);
* anything else (including signals and chaos kills) — **healed**: fsck
  the campaign directory, requeue with ``resume=True`` so completed
  cells are never re-run, until ``max_job_attempts`` is exhausted and
  the job parks as ORPHANED for a human.

``recover()`` is the restart path: promote SUBMITTED strays, take over
dead RUNNING leases, heal. ``drain()`` is the graceful-shutdown path:
stop every child and requeue its job so a restarted daemon resumes it.

The inverse failure — a scheduler that dies *under* its jobs — is EOF
on the runner's end of its pipe: the runner exits with the distinct
``JOB_ORPHANED`` status instead of running on as unaccounted work.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Any

from repro.cli import exitcodes
from repro.faults import fault_point
from repro.service.jobstore import (
    STATE_CANCELLED,
    STATE_FAILED,
    STATE_ORPHANED,
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_SUBMITTED,
    STATE_SUCCEEDED,
    JobRecord,
    JobStore,
    params_from_spec,
)
from repro.suite import registry
from repro.suite.errors import CampaignLockedError
from repro.suite.manifest import MANIFEST_NAME, manifest_cells
from repro.util import child
from repro.util.diskstat import STATE_HARD, DiskWatermarks

#: modules a campaign otherwise imports lazily on its first cell; the
#: scheduler's warm-up imports them (and every kernel) once before its
#: first fork, so each job runner inherits them copy-on-write.
#: ``numpy.random`` stays lazy: warming it saves a job runner ~8 ms but
#: keeps 2 MB resident in the scheduler for good.
WARM_MODULES = ("repro.perfmodel.noise", "repro.perfmodel.calibrated")


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler tuning knobs (defaults suit tests and small services)."""

    #: concurrently RUNNING jobs this scheduler will hold
    max_parallel: int = 1
    #: RUNNING attempts before a job parks as ORPHANED
    max_job_attempts: int = 3
    #: minimum seconds between durable progress-heartbeat saves
    progress_interval: float = 0.5
    #: delay before retrying a job whose campaign directory was locked
    lock_retry_delay: float = 0.2
    #: seconds a reaped child gets to die after terminate() before kill()
    child_grace: float = 10.0
    #: disk watermarks; at the *hard* watermark the scheduler stops
    #: claiming queued jobs (running ones finish) until space returns
    watermarks: DiskWatermarks | None = None


class JobScheduler:
    """Runs the job store's QUEUED work; the single writer of records."""

    def __init__(self, store: JobStore, config: SchedulerConfig | None = None):
        self.store = store
        self.config = config or SchedulerConfig()
        self._children: dict[str, child.Child] = {}
        self._leases: dict[str, Any] = {}  # job_id -> held CampaignLock
        self._retry_at: dict[str, float] = {}  # job_id -> monotonic deadline
        self._totals: dict[str, int] = {}  # job_id -> campaign cell count
        self._last_progress: dict[str, float] = {}
        self._draining = False
        self._warmed = False

    # ------------------------------------------------------------- recovery
    def recover(self) -> list[str]:
        """Converge every non-terminal record after a (re)start.

        Returns the ids the pass touched. SUBMITTED strays (a crash
        between record creation and the first durable save) are promoted
        to QUEUED. RUNNING jobs whose lease holder is dead are taken
        over — through the exclusive lease-takeover protocol, so a live
        competing scheduler can never be raced — and healed.
        """
        touched = []
        for record in self.store.list_jobs():
            if record.job_id in self._children:
                continue
            if record.state == STATE_SUBMITTED:
                record.transition(STATE_QUEUED)
                self.store.save(record)
                touched.append(record.job_id)
            elif record.state == STATE_RUNNING:
                if self.store.lease_holder_alive(record.job_id):
                    continue  # another live scheduler owns it
                try:
                    lease = self.store.claim(record.job_id)
                except CampaignLockedError:
                    continue  # lost the takeover race to a live peer
                self._heal(record, "scheduler died while job ran", lease)
                touched.append(record.job_id)
        return touched

    def _heal(self, record: JobRecord, reason: str, lease: Any) -> None:
        """Fsck the job's campaign, then requeue-with-resume or orphan.

        Called holding the job's lease; always releases it. The
        campaign's own fsck quarantines torn profiles and demotes their
        manifest cells, so the resumed run re-executes exactly the lost
        work and nothing else.
        """
        try:
            self._fsck_campaign(record.job_id)
            if self.store.cancel_requested(record.job_id):
                record.transition(STATE_CANCELLED, reason="cancel requested")
                self.store.save(record)
                self.store.clear_cancel(record.job_id)
            elif record.attempts >= self.config.max_job_attempts:
                record.transition(
                    STATE_ORPHANED,
                    reason=f"{reason}; attempt budget "
                    f"({self.config.max_job_attempts}) exhausted",
                )
                self.store.save(record)
            else:
                record.resume = True
                record.transition(STATE_QUEUED, reason=reason)
                self.store.save(record)
        finally:
            lease.release()

    def _fsck_campaign(self, job_id: str) -> None:
        from repro.suite.fsck import fsck_directory

        campaign = self.store.campaign_dir(job_id)
        if campaign.is_dir():
            fsck_directory(campaign, quarantine=True)

    # ----------------------------------------------------------------- tick
    def tick(self) -> None:
        """One scheduler heartbeat: reap, cancel, progress, claim."""
        self._reap()
        self._apply_cancels()
        self._progress()
        if not self._draining:
            self._claim_next()

    def _reap(self) -> None:
        for job_id, runner in list(self._children.items()):
            if runner.is_alive():
                continue
            runner.hang_up()
            del self._children[job_id]
            lease = self._leases.pop(job_id, None)
            try:
                record = self.store.load(job_id)
                if record is None or record.state != STATE_RUNNING:
                    continue  # damaged record: fsck's problem, not ours
                self._record_progress(record, force=True)
                code = runner.exitcode
                if code == exitcodes.OK:
                    record.transition(STATE_SUCCEEDED, reason="")
                    self.store.save(record)
                    self.store.clear_cancel(job_id)
                elif code == exitcodes.UNCLEAN_RUN:
                    record.transition(
                        STATE_FAILED, reason="campaign completed unclean"
                    )
                    self.store.save(record)
                    self.store.clear_cancel(job_id)
                elif code == exitcodes.CAMPAIGN_LOCKED:
                    # A transient directory lock is not the job's fault:
                    # requeue without charging the attempt, after a delay.
                    record.attempts = max(0, record.attempts - 1)
                    record.transition(
                        STATE_QUEUED, reason="campaign directory locked"
                    )
                    self.store.save(record)
                    self._retry_at[job_id] = (
                        time.monotonic() + self.config.lock_retry_delay
                    )
                elif self.store.cancel_requested(job_id):
                    record.transition(STATE_CANCELLED, reason="cancelled")
                    self.store.save(record)
                    self.store.clear_cancel(job_id)
                else:
                    # Crashed, killed, interrupted, orphaned: heal. The
                    # lease is still ours, so hand it to _heal directly.
                    if lease is None:  # pragma: no cover - defensive
                        lease = self.store.claim(job_id)
                    held, lease = lease, None
                    self._heal(
                        record, f"job runner exited with status {code}", held
                    )
            finally:
                if lease is not None:
                    lease.release()

    def _apply_cancels(self) -> None:
        """Apply cancel markers; only the scheduler transitions records.

        Starts from the markers, so a tick with none reads no record.
        """
        for job_id in self.store.list_cancel_ids():
            if job_id in self._children:
                # Reap turns the killed child into CANCELLED.
                self._children[job_id].terminate()
                continue
            record = self.store.load(job_id)
            if record is None:
                continue
            if record.state in (STATE_SUBMITTED, STATE_QUEUED):
                record.transition(STATE_CANCELLED, reason="cancelled")
                self.store.save(record)
                self.store.clear_cancel(job_id)
            elif record.terminal:
                self.store.clear_cancel(job_id)

    # ------------------------------------------------------------- progress
    def _campaign_total(self, record: JobRecord) -> int:
        total = self._totals.get(record.job_id)
        if total is None:
            from repro.suite.executor import SuiteExecutor

            try:
                params = params_from_spec(
                    record.spec, self.store.campaign_dir(record.job_id)
                )
                total = len(SuiteExecutor(params).build_cells())
            except ValueError:
                total = 0
            self._totals[record.job_id] = total
        return total

    def _record_progress(self, record: JobRecord, force: bool = False) -> None:
        """Heartbeat one RUNNING job's progress from its campaign manifest."""
        now = time.monotonic()
        last = self._last_progress.get(record.job_id, 0.0)
        if not force and now - last < self.config.progress_interval:
            return
        cells = manifest_cells(
            self.store.campaign_dir(record.job_id) / MANIFEST_NAME
        )
        ok = sum(1 for c in cells.values() if c.get("status") == "ok")
        failed = len(cells) - ok
        progress = {
            "ok": ok,
            "failed": failed,
            "total": self._campaign_total(record),
        }
        self._last_progress[record.job_id] = now
        if progress != record.progress:
            record.progress = progress
            self.store.save(record)

    def _progress(self) -> None:
        for job_id in self._children:
            record = self.store.load(job_id)
            if record is not None and record.state == STATE_RUNNING:
                self._record_progress(record)

    # ---------------------------------------------------------------- claim
    def claims_paused(self) -> bool:
        """True while the hard disk watermark forbids new claims.

        Running jobs are left to finish (stopping them mid-write risks
        exactly the torn state the watermark exists to prevent); only
        *new* work is paused until free space recovers.
        """
        wm = self.config.watermarks
        return (
            wm is not None
            and wm.enabled
            and wm.state(self.store.root) == STATE_HARD
        )

    def _claim_next(self) -> None:
        if self.claims_paused():
            return
        now = time.monotonic()
        for record in self.store.list_jobs(states={STATE_QUEUED}):
            if len(self._children) >= self.config.max_parallel:
                return
            if record.job_id in self._children:
                continue
            if self._retry_at.get(record.job_id, 0.0) > now:
                continue
            try:
                lease = self.store.claim(record.job_id)
            except CampaignLockedError:
                continue  # another scheduler beat us to it
            try:
                fault_point(
                    "service.post-claim",
                    path=self.store.record_path(record.job_id),
                )
                if self.store.cancel_requested(record.job_id):
                    record.transition(STATE_CANCELLED, reason="cancelled")
                    self.store.save(record)
                    self.store.clear_cancel(record.job_id)
                    lease.release()
                    continue
                record.attempts += 1
                record.transition(STATE_RUNNING, reason="")
                self.store.save(record)
            except BaseException:
                lease.release()
                raise
            self._warm()
            self._children[record.job_id] = child.spawn(
                _job_main,
                record.spec,
                str(self.store.campaign_dir(record.job_id)),
                record.resume,
                name=f"job-runner-{record.job_id}",
                # Not a daemon: a job with --workers forks its own pool.
                daemon=False,
                orphan_exit=exitcodes.JOB_ORPHANED,
            )
            self._leases[record.job_id] = lease

    def _warm(self) -> None:
        """Import the kernels and a campaign's lazy modules, once.

        Runs on the first claim rather than at construction, so a
        daemon starts as fast as it did cold. A warm-up that raises
        only warns: each job runner then imports on its own, so a
        broken kernel module fails the job, not the scheduler.
        """
        if self._warmed:
            return
        self._warmed = True
        try:
            registry.load_all_kernels()
            for name in WARM_MODULES:
                importlib.import_module(name)
        except Exception as exc:
            warnings.warn(
                f"scheduler warm-up failed ({exc!r}); "
                "job runners import the kernels themselves",
                stacklevel=2,
            )

    # ----------------------------------------------------------------- loop
    def children(self) -> list[child.Child]:
        """The running job runners (for :func:`repro.util.child.wait`)."""
        return list(self._children.values())

    def run_until_idle(self, timeout: float = 300.0, poll: float = 0.05) -> bool:
        """Tick until every job is terminal (True) or ``timeout`` (False).

        Between ticks it waits up to ``poll`` seconds, and wakes early
        when a child exits.
        """
        deadline = time.monotonic() + timeout
        while True:
            self.tick()
            if not self._children and all(
                r.terminal for r in self.store.list_jobs()
            ):
                return True
            if time.monotonic() >= deadline:
                return False
            child.wait(self.children(), timeout=poll)

    # ---------------------------------------------------------------- drain
    def drain(self) -> list[str]:
        """Gracefully stop: requeue every running job, release its lease.

        The requeued record carries ``resume=True`` and the attempt is
        uncharged — a drain is the operator's doing, not the job's — so
        a restarted daemon picks the job up exactly where the campaign
        manifest left it.
        """
        self._draining = True
        drained = []
        for job_id, runner in list(self._children.items()):
            fault_point(
                "service.mid-drain", path=self.store.record_path(job_id)
            )
            child.kill(runner, grace=self.config.child_grace)
            del self._children[job_id]
            lease = self._leases.pop(job_id, None)
            try:
                record = self.store.load(job_id)
                if record is None or record.state != STATE_RUNNING:
                    continue
                if self.store.cancel_requested(job_id):
                    record.transition(STATE_CANCELLED, reason="cancelled")
                    self.store.save(record)
                    self.store.clear_cancel(job_id)
                else:
                    record.attempts = max(0, record.attempts - 1)
                    record.resume = True
                    record.transition(STATE_QUEUED, reason="daemon drained")
                    self.store.save(record)
                drained.append(job_id)
            finally:
                if lease is not None:
                    lease.release()
        return drained


# ------------------------------------------------------------ the job child
def _job_main(spec: dict[str, Any], campaign_dir: str, resume: bool) -> None:
    """Entry point of the forked job runner: one ordinary campaign.

    Exits with the same statuses the CLI ``run`` command uses; the spawn
    bootstrap adds ``JOB_ORPHANED`` for a scheduler that disappears. The
    scheduler maps the status back onto the job state machine.
    """
    from repro.suite.executor import SuiteExecutor

    try:
        params = params_from_spec(spec, campaign_dir, resume=resume)
        result = SuiteExecutor(params).run(write_files=True)
    except CampaignLockedError:
        os._exit(exitcodes.CAMPAIGN_LOCKED)
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        os._exit(exitcodes.UNCLEAN_RUN)
    if result.report.interrupted:
        os._exit(exitcodes.INTERRUPTED)
    os._exit(
        exitcodes.OK if result.report.clean else exitcodes.UNCLEAN_RUN
    )
