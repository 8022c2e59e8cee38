"""The lease-based job scheduler: claims, runs, heals, drains.

One scheduler loop owns the whole service lifecycle of a job after
submission. Ownership is a per-job *lease* — the same O_EXCL PID-lease
file (with exclusive stale-lease takeover) that guards campaign
directories, living at ``jobs/<job_id>.lease`` — so two schedulers
pointed at one root cannot both run a job, and a scheduler that dies
leaves a lease any successor can take over exactly once.

Each claimed job runs as a **forked child process** executing an
ordinary campaign into ``campaigns/<job_id>/``; all the campaign-level
crash safety (durable manifest checkpoints, archive seals, fsck) is
inherited rather than reimplemented. The scheduler heartbeats job
progress by reading the child's campaign manifest, applies cancel
markers, and reaps exits:

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

The child guards against the inverse failure — a scheduler that dies
*under* its jobs — with an orphan watch: when the child is re-parented
it exits with the distinct ``JOB_ORPHANED`` status instead of running
on as unaccounted work.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback
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
from repro.suite.errors import CampaignLockedError
from repro.suite.manifest import MANIFEST_NAME, CampaignManifest
from repro.util.diskstat import STATE_HARD, DiskWatermarks


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
        self._children: dict[str, multiprocessing.process.BaseProcess] = {}
        self._leases: dict[str, Any] = {}  # job_id -> held CampaignLock
        self._retry_at: dict[str, float] = {}  # job_id -> monotonic deadline
        self._totals: dict[str, int] = {}  # job_id -> campaign cell count
        self._last_progress: dict[str, float] = {}
        self._draining = False

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
        for job_id, child in list(self._children.items()):
            if child.is_alive():
                continue
            del self._children[job_id]
            lease = self._leases.pop(job_id, None)
            try:
                record = self.store.load(job_id)
                if record is None or record.state != STATE_RUNNING:
                    continue  # damaged record: fsck's problem, not ours
                self._record_progress(record, force=True)
                code = child.exitcode
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
        """Apply cancel markers; only the scheduler transitions records."""
        for record in self.store.list_jobs():
            if not self.store.cancel_requested(record.job_id):
                continue
            if record.job_id in self._children:
                # Reap turns the killed child into CANCELLED.
                self._children[record.job_id].terminate()
            elif record.state in (STATE_SUBMITTED, STATE_QUEUED):
                record.transition(STATE_CANCELLED, reason="cancelled")
                self.store.save(record)
                self.store.clear_cancel(record.job_id)
            elif record.terminal:
                self.store.clear_cancel(record.job_id)

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
        try:
            manifest = CampaignManifest.read(
                self.store.campaign_dir(record.job_id) / MANIFEST_NAME
            )
        except (OSError, ValueError):
            manifest = None
        cells = manifest.cells if manifest is not None else {}
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
            child = multiprocessing.get_context("fork").Process(
                target=_job_main,
                args=(
                    record.spec,
                    str(self.store.campaign_dir(record.job_id)),
                    record.resume,
                    os.getpid(),
                ),
                name=f"job-runner-{record.job_id}",
            )
            child.start()
            self._children[record.job_id] = child
            self._leases[record.job_id] = lease

    # ----------------------------------------------------------------- loop
    def run_until_idle(self, timeout: float = 300.0, poll: float = 0.05) -> bool:
        """Tick until every job is terminal (True) or ``timeout`` (False)."""
        deadline = time.monotonic() + timeout
        while True:
            self.tick()
            if not self._children and all(
                r.terminal for r in self.store.list_jobs()
            ):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll)

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
        for job_id, child in list(self._children.items()):
            fault_point(
                "service.mid-drain", path=self.store.record_path(job_id)
            )
            child.terminate()
            child.join(self.config.child_grace)
            if child.is_alive():  # pragma: no cover - stuck child
                child.kill()
                child.join(self.config.child_grace)
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
class _OrphanWatch(threading.Thread):
    """Exit ``JOB_ORPHANED`` the moment our scheduler stops being our parent.

    A forked job runner whose scheduler dies is re-parented (to init or
    a subreaper). Running on would produce campaign work no record
    accounts for; dying with a distinct status keeps the ledger honest
    and gives the healed, resumed job a clean directory takeover.
    """

    def __init__(self, scheduler_pid: int, poll: float = 0.2) -> None:
        super().__init__(name="job-orphan-watch", daemon=True)
        self.scheduler_pid = scheduler_pid
        self.poll = poll

    def run(self) -> None:  # pragma: no cover - exercised via subprocess
        while True:
            if os.getppid() != self.scheduler_pid:
                os._exit(exitcodes.JOB_ORPHANED)
            time.sleep(self.poll)


def _job_main(
    spec: dict[str, Any], campaign_dir: str, resume: bool, scheduler_pid: int
) -> None:
    """Entry point of the forked job runner: one ordinary campaign.

    Exits with the same statuses the CLI ``run`` command uses, plus
    ``JOB_ORPHANED`` when the scheduler disappears; the scheduler maps
    the status back onto the job state machine.
    """
    from repro.suite.executor import SuiteExecutor

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _OrphanWatch(scheduler_pid).start()
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
