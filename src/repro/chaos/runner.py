"""The chaos trial runner: crash everywhere, prove recovery converges.

For every registered crash point (and campaign mode it applies to) the
runner executes the full production loop against a small but real
campaign:

1. **run (armed)** — a forked child installs an ``exit``
   :class:`~repro.faults.Fault` at the point and runs
   the campaign; the strike is a genuine ``os._exit`` mid-write — no
   ``finally`` blocks, no atexit, locks left held, tmp files left
   behind. A token file scoped to the trial makes the strike fire
   exactly once even when a supervised pool respawns the crashed
   worker.
2. **post-crash audit** — whatever the crash left on disk must already
   satisfy the atomicity half of the contract: the manifest parses,
   loose profiles verify sealed (in-flight writes may only ever leave
   tmp siblings or an unsealed archive tail).
3. **fsck** — quarantine damage, demote damaged cells
   (:func:`~repro.suite.fsck.fsck_directory`).
4. **resume (unarmed)** — a second child re-runs the campaign with
   ``resume=True``; it must exit cleanly and leave a second ``fsck``
   with nothing to repair.
5. **analyze** — the recovered campaign is composed into Thicket frames
   over four independent ingest paths (serial, parallel pool,
   packed/unpacked complement, cold-store + warm-load cache) and each
   must be :meth:`~repro.dataframe.Frame.equals`-identical to the
   frames of an uncrashed golden campaign.

Invariant definitions live in :mod:`repro.chaos.invariants`. Every
trial is replayable: its schedule is a pure function of
``(seed, point, mode, trial index)``.

The runner also carries the harness :meth:`ChaosRunner.self_test` —
it stages a loss with one repair deliberately suppressed and asserts
the invariant checks *catch* it, proving the harness can fail.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.caliper import calipack
from repro.chaos import invariants
from repro.cli.exitcodes import CHAOS_KILL
from repro.faults import (
    CRASH_POINTS,
    SITES,
    Fault,
    FaultPlan,
    Site,
    install,
)
from repro.suite.fsck import fsck_directory
from repro.suite.run_params import RunParams

MODES = ("serial", "supervised", "sharded", "service")

#: how long one child campaign may take before the trial is abandoned
CHILD_TIMEOUT_S = 180.0


def _effective_pack(mode: str, spec: Site) -> bool:
    """Sharded campaigns always pack: the shard merge needs archives."""
    return spec.pack or mode == "sharded"


def _trial_params(output_dir: Path, mode: str, spec: Site) -> RunParams:
    """The trial campaign: 4 cells, small, deterministic, fast to re-run."""
    return RunParams(
        problem_size=1024,
        reps=1,
        machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY", "Stream_TRIAD"),
        trials=2,
        execute=spec.execute,
        pack=_effective_pack(mode, spec),
        output_dir=str(output_dir),
        workers=2 if mode == "supervised" else 1,
        shards=2 if mode == "sharded" else 0,
        shard_lease_timeout=10.0,
        max_attempts=3,
        retry_base_delay=0.0,
        retry_max_delay=0.0,
        retry_jitter=0.0,
        heartbeat_timeout=10.0,
    )


def _run_armed_campaign(params: RunParams, schedule: Fault) -> None:
    """Child body: install the strike, run the campaign, exit normally.

    When the armed point is reached the process dies *inside* the hook
    (``os._exit``); reaching the end means the point either never came
    due in this process or was healed in-flight (a supervised worker
    crashed and the supervisor finished the campaign anyway).
    """
    from repro.suite.executor import SuiteExecutor

    install(FaultPlan([schedule]))
    SuiteExecutor(params).run(write_files=True)


def _run_resume_campaign(params: RunParams) -> None:
    from repro.suite.executor import SuiteExecutor

    result = SuiteExecutor(
        dataclasses.replace(params, resume=True)
    ).run(write_files=True)
    if not result.report.clean:
        raise RuntimeError(
            f"resume left unclean cells: {result.report.cell_counts()}"
        )


def _run_armed_analyze(
    sources: list[str], cache_dir: str, schedule: Fault
) -> None:
    from repro.thicket import Thicket

    install(FaultPlan([schedule]))
    Thicket.from_caliperreader(sources, cache=cache_dir)


# ------------------------------------------------------------ service mode
CHAOS_JOB_ID = "chaos-job"


def _service_job_spec() -> dict:
    """The service trial's job spec — must mirror :func:`_trial_params`
    (serial flavor) exactly, so the job's campaign is frame-identical to
    the golden campaign."""
    return {
        "problem_size": 1024,
        "reps": 1,
        "machines": ["SPR-DDR"],
        "variants": ["Base_Seq", "RAJA_Seq"],
        "kernels": ["Basic_DAXPY", "Stream_TRIAD"],
        "trials": 2,
        "execute": False,
        "pack": False,
        "workers": 1,
        "max_attempts": 3,
        "heartbeat_timeout": 10.0,
        "retry_base_delay": 0.0,
        "retry_max_delay": 0.0,
        "retry_jitter": 0.0,
    }


def _run_armed_service(root: str, schedule: Fault, drain: bool) -> None:
    """Child body for a service trial: submit, schedule, (maybe) drain.

    With ``drain`` the scheduler waits for the job to reach RUNNING and
    then drains — the ``service.mid-drain`` point fires inside the drain
    loop, simulating a daemon killed halfway through graceful shutdown.
    If the armed point never comes due, the loop runs the job to
    completion and exits 0 (an ``unreached`` verdict, not a failure).
    """
    from repro.service.jobstore import STATE_RUNNING, JobStore
    from repro.service.scheduler import JobScheduler, SchedulerConfig

    install(FaultPlan([schedule]))
    store = JobStore(root)
    store.submit(_service_job_spec(), tenant="chaos", job_id=CHAOS_JOB_ID)
    scheduler = JobScheduler(
        store, SchedulerConfig(progress_interval=0.05)
    )
    scheduler.recover()
    if drain:
        deadline = time.monotonic() + CHILD_TIMEOUT_S / 2
        while time.monotonic() < deadline:
            scheduler.tick()
            record = store.load(CHAOS_JOB_ID)
            if record is not None and record.state == STATE_RUNNING:
                break
            if record is not None and record.terminal:
                return  # finished before we could drain
            time.sleep(0.02)
        scheduler.drain()
        # The drain survived (point unreached): finish the job so the
        # trial still converges without a recovery phase doing the work.
        scheduler = JobScheduler(store)
        scheduler.recover()
    scheduler.run_until_idle(timeout=CHILD_TIMEOUT_S / 2)


def _retention_job_spec() -> dict:
    """The retention trial's job spec: the service spec, packed.

    Packed because retention trials also exercise archive compaction —
    ``retention.pre-compact-swap`` needs a sealed ``campaign.calipack``
    to rebuild."""
    spec = dict(_service_job_spec())
    spec["pack"] = True
    return spec


#: the retention trial's jobs, submission order = age order (the ids
#: also sort that way: created_at has one-second granularity, and the
#: deterministic tie-break inside a second is the job id)
RETENTION_JOBS = ("gc-old", "gc-young")


def _build_retention_seed(root: str) -> None:
    """Child body: a service root with two SUCCEEDED packed jobs."""
    from repro.service.jobstore import STATE_SUCCEEDED, JobStore
    from repro.service.scheduler import JobScheduler

    store = JobStore(root)
    store.ensure_layout()
    for job_id in RETENTION_JOBS:
        store.submit(_retention_job_spec(), tenant="chaos", job_id=job_id)
    scheduler = JobScheduler(store)
    scheduler.recover()
    scheduler.run_until_idle(timeout=CHILD_TIMEOUT_S / 2)
    for job_id in RETENTION_JOBS:
        record = store.load(job_id)
        state = record.state if record is not None else "<no record>"
        if state != STATE_SUCCEEDED:
            raise RuntimeError(f"seed job {job_id} is {state}")


def _run_armed_retention(root: str, schedule: Fault) -> None:
    """Child body: a GC + compaction pass with the strike armed.

    The policy condemns the oldest of the two terminal jobs
    (``max_terminal_jobs=1``); the survivor's archive is then compacted.
    ``retention.pre-tombstone`` fires before the condemnation lands,
    ``retention.mid-delete`` inside the tree removal, and
    ``retention.pre-compact-swap`` between the scratch seal and the swap.
    """
    from repro.caliper.calipack import ARCHIVE_NAME
    from repro.service.jobstore import JobStore
    from repro.service.retention import (
        RetentionPolicy,
        compact_archive,
        gc,
    )

    install(FaultPlan([schedule]))
    store = JobStore(root)
    gc(store, RetentionPolicy(max_terminal_jobs=1))
    archive = store.campaign_dir(RETENTION_JOBS[-1]) / ARCHIVE_NAME
    if archive.is_file():
        compact_archive(archive)


def _run_retention_recovery(root: str) -> None:
    """Child body: the unarmed converging pass a restarted daemon runs."""
    from repro.caliper.calipack import ARCHIVE_NAME
    from repro.service.jobstore import JobStore
    from repro.service.retention import (
        RetentionPolicy,
        compact_archive,
        gc,
    )

    store = JobStore(root)
    report = gc(store, RetentionPolicy(max_terminal_jobs=1))
    if store.list_tombstone_ids():
        raise RuntimeError(
            f"tombstones survived recovery gc: {report.summary()}"
        )
    archive = store.campaign_dir(RETENTION_JOBS[-1]) / ARCHIVE_NAME
    if archive.is_file():
        compact_archive(archive)


def _run_service_recovery(root: str) -> None:
    """Child body: what a restarted daemon does — recover and converge.

    Also retries the submission exactly like a client whose acknowledgment
    was lost would: with the caller-chosen job id, a duplicate submit is
    idempotent, so this never double-queues the campaign.
    """
    from repro.service.jobstore import STATE_SUCCEEDED, JobStore
    from repro.service.scheduler import JobScheduler

    store = JobStore(root)
    store.submit(_service_job_spec(), tenant="chaos", job_id=CHAOS_JOB_ID)
    scheduler = JobScheduler(store)
    scheduler.recover()
    converged = scheduler.run_until_idle(timeout=CHILD_TIMEOUT_S / 2)
    record = store.load(CHAOS_JOB_ID)
    state = record.state if record is not None else "<no record>"
    if not converged or state != STATE_SUCCEEDED:
        raise RuntimeError(
            f"service recovery did not converge: job is {state}"
        )


@dataclass
class TrialVerdict:
    """One (point, mode, trial) run of the full loop."""

    point: str
    mode: str
    trial: int
    seed: int
    hit: int
    torn: bool
    applicable: bool = True
    fired: bool = False  # the strike token was claimed somewhere
    killed: bool = False  # a process actually died with the chaos code
    violations: list[str] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        if not self.applicable:
            return "skipped"
        if self.violations:
            return "violated"
        if not self.fired:
            return "unreached"
        return "ok"

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "mode": self.mode,
            "trial": self.trial,
            "seed": self.seed,
            "hit": self.hit,
            "torn": self.torn,
            "status": self.status,
            "fired": self.fired,
            "killed": self.killed,
            "violations": self.violations,
            "duration_s": round(self.duration_s, 3),
            "replay": (
                f"rajaperf-sim chaos --seed {self.seed} "
                f"--points {self.point} --modes {self.mode} "
                f"--trials-per-point {self.trial + 1}"
            ),
        }


@dataclass
class ChaosReport:
    """Every trial's verdict plus the per-point coverage rollup."""

    seed: int
    trials_per_point: int
    verdicts: list[TrialVerdict] = field(default_factory=list)

    @property
    def violations(self) -> list[TrialVerdict]:
        return [v for v in self.verdicts if v.violations]

    def uncovered_points(self) -> list[str]:
        """(point, mode) combos that were applicable but never struck."""
        out = []
        combos = {(v.point, v.mode) for v in self.verdicts if v.applicable}
        for point, mode in sorted(combos):
            if not any(
                v.fired
                for v in self.verdicts
                if v.point == point and v.mode == mode
            ):
                out.append(f"{point} [{mode}]")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations and not self.uncovered_points()

    def to_dict(self) -> dict:
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            counts[verdict.status] = counts.get(verdict.status, 0) + 1
        return {
            "seed": self.seed,
            "trials_per_point": self.trials_per_point,
            "ok": self.ok,
            "counts": counts,
            "uncovered_points": self.uncovered_points(),
            "trials": [v.to_dict() for v in self.verdicts],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


class ChaosRunner:
    """Enumerate kill points, run the loop, check the invariants."""

    def __init__(
        self,
        seed: int = 0,
        trials_per_point: int = 1,
        points: list[str] | None = None,
        modes: list[str] | None = None,
        workdir: str | Path | None = None,
        keep: bool = False,
        progress=None,
    ) -> None:
        unknown = [p for p in (points or []) if p not in CRASH_POINTS]
        if unknown:
            raise ValueError(
                f"unknown crash points {unknown}; "
                f"registered: {list(CRASH_POINTS)}"
            )
        bad_modes = [m for m in (modes or []) if m not in MODES]
        if bad_modes:
            raise ValueError(f"unknown modes {bad_modes}; have {list(MODES)}")
        self.seed = seed
        self.trials_per_point = trials_per_point
        self.points = list(points) if points else list(CRASH_POINTS)
        self.modes = list(modes) if modes else list(MODES)
        self.keep = keep
        self.progress = progress or (lambda _msg: None)
        self._own_workdir = workdir is None
        self.workdir = Path(
            workdir
            if workdir is not None
            else tempfile.mkdtemp(prefix="rajaperf-chaos-")
        )
        self._goldens: dict[tuple[bool, bool], tuple[Path, object]] = {}
        self._retention_seed_dir: Path | None = None
        self._ctx = multiprocessing.get_context("fork")

    # ------------------------------------------------------------- plumbing
    def _spawn(self, target, *args) -> int:
        """Run ``target(*args)`` in a forked child; return its exit code."""
        child = self._ctx.Process(target=target, args=args)
        child.start()
        child.join(CHILD_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
            return -1
        return child.exitcode if child.exitcode is not None else -1

    def _sources(self, directory: Path, pack: bool) -> list[str]:
        """The campaign's ingest sources, ordered by profile name.

        Archive entries append in completion order, which resume
        legitimately permutes — sorting by name on both the golden and
        the recovered side makes frame comparison order-insensitive.
        """
        if pack:
            archive = directory / calipack.ARCHIVE_NAME
            names = sorted(e.name for e in calipack.load_entries(archive))
            return [calipack.member_ref(archive, n) for n in names]
        return sorted(str(p) for p in directory.glob("*.cali"))

    def _golden(self, spec: Site) -> tuple[Path, object]:
        """The uncrashed reference campaign + Thicket for this config."""
        from repro.thicket import Thicket

        key = (spec.execute, spec.pack)
        if key in self._goldens:
            return self._goldens[key]
        outdir = (
            self.workdir
            / "golden"
            / f"exec{int(spec.execute)}-pack{int(spec.pack)}"
        )
        params = _trial_params(outdir, "serial", spec)
        from repro.suite.executor import SuiteExecutor

        result = SuiteExecutor(params).run(write_files=True)
        if not result.report.clean:
            raise RuntimeError(
                f"golden campaign failed: {result.report.cell_counts()}"
            )
        thicket = Thicket.from_caliperreader(self._sources(outdir, spec.pack))
        self._goldens[key] = (outdir, thicket)
        return self._goldens[key]

    def _expected_cells(self, params: RunParams) -> set[str]:
        from repro.suite.executor import SuiteExecutor

        return {cell.key for cell in SuiteExecutor(params).build_cells()}

    def _schedule(self, spec: Site, trial: int, token: Path) -> Fault:
        """The trial's deterministic strike plan.

        Trial 0 always strikes the first occurrence; later trials strike
        torn (for torn-capable points) or deeper occurrences, which may
        legitimately never come due (``unreached``).
        """
        if trial == 0:
            hit, torn = 1, False
        elif spec.torn:
            hit, torn = 1 + (trial - 1) // 2, trial % 2 == 1
        else:
            hit, torn = trial + 1, False
        return Fault(
            site=spec.name,
            hit=hit,
            action="exit",
            torn=torn,
            seed=self.seed + trial,
            token=str(token),
        )

    def _seed_stranded_segments(
        self, outdir: Path, golden_dir: Path, count: int
    ) -> None:
        """Plant footer-less worker segments so a serial campaign's
        startup salvage has something to merge (serial runs never create
        segments on their own). ``count > 1`` gives the post-merge-unlink
        point a genuinely *partial* deletion to strike between."""
        archive = golden_dir / calipack.ARCHIVE_NAME
        entries = calipack.load_entries(archive)
        for i in range(count):
            seg = (
                outdir
                / calipack.SEGMENT_DIR
                / (f"worker-{9 + i}" + calipack.ARCHIVE_SUFFIX)
            )
            seg.parent.mkdir(parents=True, exist_ok=True)
            writer = calipack.CalipackWriter(seg)
            entry = entries[i % len(entries)]
            writer.append_bytes(
                entry.name, calipack.read_entry_bytes(archive, entry)
            )
            writer.abort()  # no index, no footer: exactly a crashed worker

    @staticmethod
    def _wait_shards_quiesce(outdir: Path, timeout_s: float = 10.0) -> None:
        """Wait for orphaned shard processes to read their coordinator's
        death as EOF and exit, so the post-crash audit reads a quiescent
        store."""
        from repro.suite.manifest import campaign_is_live
        from repro.suite.shard import SHARD_DIR

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not any(
                campaign_is_live(d) for d in (outdir / SHARD_DIR).glob("*")
            ):
                return
            time.sleep(0.1)

    # ---------------------------------------------------------------- trials
    def run(self) -> ChaosReport:
        report = ChaosReport(
            seed=self.seed, trials_per_point=self.trials_per_point
        )
        try:
            for name in self.points:
                spec = SITES[name]
                for mode in self.modes:
                    for trial in range(self.trials_per_point):
                        verdict = self._run_trial(spec, mode, trial)
                        report.verdicts.append(verdict)
                        self.progress(
                            f"{verdict.status:>9s}  {name} [{mode}] "
                            f"trial {trial}"
                            + (
                                f": {'; '.join(verdict.violations)}"
                                if verdict.violations
                                else ""
                            )
                        )
        finally:
            if not self.keep and self._own_workdir:
                shutil.rmtree(self.workdir, ignore_errors=True)
        return report

    def _run_trial(self, spec: Site, mode: str, trial: int) -> TrialVerdict:
        start = time.monotonic()
        verdict = TrialVerdict(
            point=spec.name,
            mode=mode,
            trial=trial,
            seed=self.seed,
            hit=1,
            torn=False,
        )
        if mode not in spec.modes:
            verdict.applicable = False
            return verdict
        trialdir = self.workdir / f"{spec.name.replace('.', '-')}-{mode}-{trial}"
        trialdir.mkdir(parents=True, exist_ok=True)
        token = trialdir / "strike.token"
        schedule = self._schedule(spec, trial, token)
        verdict.hit, verdict.torn = schedule.hit, schedule.torn
        try:
            if spec.phase == "analyze":
                self._analyze_phase_trial(spec, mode, trialdir, schedule, verdict)
            elif spec.phase == "service":
                self._service_phase_trial(spec, trialdir, schedule, verdict)
            elif spec.phase == "retention":
                self._retention_phase_trial(spec, trialdir, schedule, verdict)
            else:
                self._run_phase_trial(spec, mode, trialdir, schedule, verdict)
        except Exception as exc:  # noqa: BLE001 - a broken trial is a verdict
            verdict.violations.append(
                f"trial harness error: {type(exc).__name__}: {exc}"
            )
        verdict.fired = token.exists()
        verdict.duration_s = time.monotonic() - start
        if not self.keep:
            shutil.rmtree(trialdir, ignore_errors=True)
        return verdict

    def _run_phase_trial(
        self,
        spec: Site,
        mode: str,
        trialdir: Path,
        schedule: Fault,
        verdict: TrialVerdict,
    ) -> None:
        golden_dir, golden_thicket = self._golden(spec)
        outdir = trialdir / "campaign"
        outdir.mkdir()
        params = _trial_params(outdir, mode, spec)
        pack = _effective_pack(mode, spec)
        if mode == "serial" and spec.name in (
            "calipack.mid-merge",
            "calipack.post-merge-unlink",
        ):
            self._seed_stranded_segments(
                outdir,
                golden_dir,
                count=2 if spec.name == "calipack.post-merge-unlink" else 1,
            )

        # Phase 1: the armed run. Exit 0 = completed (point unreached, or
        # a worker/shard crash the supervising process healed in-flight).
        code = self._spawn(_run_armed_campaign, params, schedule)
        verdict.killed = code == CHAOS_KILL
        if code not in (0, CHAOS_KILL):
            verdict.violations.append(
                f"armed campaign died with unexpected exit code {code}"
            )
            return
        if mode == "sharded":
            # A killed coordinator leaves shard processes to read EOF
            # on their pipes and exit; audit only a quiescent store.
            self._wait_shards_quiesce(outdir)

        # Phase 2: post-crash atomicity — targets are never torn.
        snap = invariants.snapshot_store(outdir)
        verdict.violations += self._check_target_atomicity(outdir)

        # Phase 3: fsck heals; completed cells must survive it.
        fsck_directory(outdir)
        verdict.violations += [
            f"post-fsck: {v}"
            for v in invariants.check_completed_cells_remembered(snap, outdir)
        ]

        # Phase 4: resume must finish the campaign and leave it clean.
        code = self._spawn(_run_resume_campaign, params)
        if code != 0:
            verdict.violations.append(
                f"resume campaign failed with exit code {code}"
            )
            return
        verdict.violations += [
            f"post-resume: {v}"
            for v in invariants.check_full_cell_set(
                self._expected_cells(params), outdir
            )
        ]
        verdict.violations += [
            f"post-resume: {v}"
            for v in invariants.check_sealed_preserved(
                snap, outdir, check_crc=not spec.execute
            )
        ]
        if mode == "sharded":
            verdict.violations += [
                f"post-resume: {v}"
                for v in invariants.check_shard_campaign(
                    self._expected_cells(params), outdir
                )
            ]
        recheck = fsck_directory(outdir)
        if not recheck.clean:
            verdict.violations.append(
                "post-resume fsck still found damage: " + recheck.summary()
            )

        # Phase 5: analysis equivalence on all four ingest paths.
        verdict.violations += self._check_analysis(
            outdir, trialdir, spec, golden_thicket, pack=pack
        )

    def _service_phase_trial(
        self,
        spec: Site,
        trialdir: Path,
        schedule: Fault,
        verdict: TrialVerdict,
    ) -> None:
        """Kill the job service mid-transition, restart it, check I6.

        Phase 1 runs a scheduler (armed) over a one-job store; the
        strike kills it mid-save, mid-claim, or mid-drain. Phase 2
        audits atomicity on the quiesced store (records parse sealed,
        campaign targets untorn). Phase 3 fscks the whole service root.
        Phase 4 restarts the service unarmed — recovery plus a client's
        idempotent resubmit — and requires convergence to SUCCEEDED.
        Phase 5 checks I6 and analysis equivalence against the golden.
        """
        golden_dir, golden_thicket = self._golden(spec)
        root = trialdir / "service"
        root.mkdir()
        campaign = root / "campaigns" / CHAOS_JOB_ID

        # Phase 1: the armed service run.
        code = self._spawn(
            _run_armed_service,
            str(root),
            schedule,
            spec.name == "service.mid-drain",
        )
        verdict.killed = code == CHAOS_KILL
        if code not in (0, CHAOS_KILL):
            verdict.violations.append(
                f"armed service died with unexpected exit code {code}"
            )
            return
        # A killed scheduler leaves its job runner to notice the
        # re-parenting and exit (JOB_ORPHANED); audit a quiescent store.
        self._wait_jobs_quiesce(root)

        # Phase 2: post-crash atomicity.
        verdict.violations += [
            f"post-crash: {v}"
            for v in invariants.check_job_records_parse(root)
        ]
        snap = None
        if campaign.is_dir():
            snap = invariants.snapshot_store(campaign)
            verdict.violations += self._check_target_atomicity(campaign)

        # Phase 3: fsck the whole service root (records, leases,
        # campaigns) — completed cells must survive it.
        fsck_directory(root)
        if snap is not None:
            verdict.violations += [
                f"post-fsck: {v}"
                for v in invariants.check_completed_cells_remembered(
                    snap, campaign
                )
            ]

        # Phase 4: the restarted daemon (unarmed) must converge.
        code = self._spawn(_run_service_recovery, str(root))
        if code != 0:
            verdict.violations.append(
                f"service recovery failed with exit code {code}"
            )
            return

        # Phase 5: I6, fsck-clean, and analysis equivalence.
        expected = self._expected_cells(
            _trial_params(campaign, "serial", spec)
        )
        verdict.violations += [
            f"post-recovery: {v}"
            for v in invariants.check_job_service(
                root, {CHAOS_JOB_ID: expected}
            )
        ]
        recheck = fsck_directory(root)
        if not recheck.clean:
            verdict.violations.append(
                "post-recovery fsck still found damage: " + recheck.summary()
            )
        verdict.violations += self._check_analysis(
            campaign, trialdir, spec, golden_thicket, pack=False
        )

    def _retention_seed(self) -> Path:
        """A converged two-job service root, built once, copied per trial."""
        if self._retention_seed_dir is not None:
            return self._retention_seed_dir
        seed_root = self.workdir / "retention-seed"
        code = self._spawn(_build_retention_seed, str(seed_root))
        if code != 0:
            raise RuntimeError(f"retention seed build exited {code}")
        self._retention_seed_dir = seed_root
        return seed_root

    def _retention_phase_trial(
        self,
        spec: Site,
        trialdir: Path,
        schedule: Fault,
        verdict: TrialVerdict,
    ) -> None:
        """Kill GC/compaction mid-destruction, recover, check I7.

        Phase 1 copies a converged two-SUCCEEDED-job root and runs an
        armed GC pass (policy condemns the older job) plus a compaction
        of the survivor's archive; the strike lands before the tombstone,
        inside the tree removal, or between the compaction seal and
        swap. Phase 2 audits atomicity (records parse; the survivor's
        store is untorn). Phase 3 fscks the root — finishing any
        interrupted reclamation the sealed tombstone proves and sweeping
        orphan compaction scratch. Phase 4 runs the unarmed converging
        pass a restarted daemon would. Phase 5 checks I7: the condemned
        job is fully reclaimed, the survivor fully live with every
        pre-GC sealed profile byte-identical, and the survivor's
        campaign analysis-equivalent to the golden.
        """
        golden_dir, golden_thicket = self._golden(spec)
        seed = self._retention_seed()
        root = trialdir / "service"
        shutil.copytree(seed, root)
        survivor = root / "campaigns" / RETENTION_JOBS[-1]

        pre = {
            job_id: invariants.snapshot_store(root / "campaigns" / job_id)
            for job_id in RETENTION_JOBS
        }

        # Phase 1: the armed GC + compaction pass.
        code = self._spawn(_run_armed_retention, str(root), schedule)
        verdict.killed = code == CHAOS_KILL
        if code not in (0, CHAOS_KILL):
            verdict.violations.append(
                f"armed retention pass died with unexpected exit code {code}"
            )
            return

        # Phase 2: post-crash atomicity — a GC crash must never tear a
        # record, and never touch the surviving job's store at all.
        verdict.violations += [
            f"post-crash: {v}"
            for v in invariants.check_job_records_parse(root)
        ]
        verdict.violations += [
            f"post-crash survivor: {v}"
            for v in self._check_target_atomicity(survivor)
        ]

        # Phase 3: fsck finishes what the tombstone proves.
        fsck_directory(root)

        # Phase 4: the unarmed converging pass.
        code = self._spawn(_run_retention_recovery, str(root))
        if code != 0:
            verdict.violations.append(
                f"retention recovery failed with exit code {code}"
            )
            return

        # Phase 5: I7 plus fsck-clean plus analysis equivalence.
        verdict.violations += [
            f"post-recovery: {v}"
            for v in invariants.check_retention(root, pre)
        ]
        old_id = RETENTION_JOBS[0]
        if (root / "campaigns" / old_id).exists():
            verdict.violations.append(
                f"post-recovery: condemned job {old_id} was not reclaimed"
            )
        recheck = fsck_directory(root)
        if not recheck.clean:
            verdict.violations.append(
                "post-recovery fsck still found damage: " + recheck.summary()
            )
        verdict.violations += self._check_analysis(
            survivor, trialdir, spec, golden_thicket, pack=True
        )

    @staticmethod
    def _wait_jobs_quiesce(root: Path, timeout_s: float = 15.0) -> None:
        """Wait for orphaned job runners to read their scheduler's death
        as EOF and exit, so the post-crash audit reads a quiescent
        store."""
        from repro.suite.manifest import _pid_alive, campaign_is_live

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            live = any(
                campaign_is_live(c) for c in (root / "campaigns").glob("*")
            )
            for lease in sorted((root / "jobs").glob("*.lease")):
                try:
                    holder = json.loads(lease.read_text()).get("pid")
                except (OSError, ValueError):
                    holder = None
                if _pid_alive(holder):
                    live = True
            if not live:
                return
            time.sleep(0.1)

    def _analyze_phase_trial(
        self,
        spec: Site,
        mode: str,
        trialdir: Path,
        schedule: Fault,
        verdict: TrialVerdict,
    ) -> None:
        """Crash mid-analyze (the ingest-cache store), then re-analyze."""
        golden_dir, golden_thicket = self._golden(spec)
        outdir = trialdir / "campaign"
        outdir.mkdir()
        params = _trial_params(outdir, mode, spec)
        code = self._spawn(_run_resume_campaign, params)
        if code != 0:
            verdict.violations.append(
                f"setup campaign failed with exit code {code}"
            )
            return
        snap = invariants.snapshot_store(outdir)
        sources = self._sources(outdir, spec.pack)
        cache_dir = trialdir / "cache"
        code = self._spawn(
            _run_armed_analyze, sources, str(cache_dir), schedule
        )
        verdict.killed = code == CHAOS_KILL
        if code not in (0, CHAOS_KILL):
            verdict.violations.append(
                f"armed analyze died with unexpected exit code {code}"
            )
            return
        # The campaign store is read-only to analysis: nothing changes.
        verdict.violations += [
            f"post-crash: {v}"
            for v in invariants.check_sealed_preserved(snap, outdir)
        ]
        fsck_directory(outdir)
        verdict.violations += self._check_analysis(
            outdir, trialdir, spec, golden_thicket, cache_dir=cache_dir
        )

    # ---------------------------------------------------------------- checks
    def _check_target_atomicity(self, outdir: Path) -> list[str]:
        """No durable *target* may ever be left torn by a crash.

        In-flight state lives in tmp siblings, unsealed archive tails
        and the manifest ledger's last line — all recoverable. A loose
        ``.cali`` under its final name that does not verify, a manifest
        snapshot that does not parse, or an undecodable ledger line
        before the last one means a write was not atomic.
        """
        from repro.caliper.cali import STATUS_OK, verify_cali
        from repro.suite.manifest import MANIFEST_NAME, CampaignManifest

        violations = []
        manifests = [outdir / MANIFEST_NAME]
        shard_map = outdir / "shard_map.json"
        if shard_map.exists():
            try:
                json.loads(shard_map.read_text())
            except ValueError as exc:
                violations.append(f"post-crash: shard map torn: {exc}")
        shard_root = outdir / "shards"
        if shard_root.is_dir():
            manifests += [
                shard_dir / MANIFEST_NAME
                for shard_dir in sorted(shard_root.iterdir())
                if shard_dir.is_dir()
            ]
        for path in manifests:
            try:
                manifest = CampaignManifest.read(path)
            except ValueError as exc:
                violations.append(
                    f"post-crash: manifest {path.name} torn: {exc}"
                )
                continue
            if manifest is not None and manifest.torn_lines > 1:
                violations.append(
                    f"post-crash: ledger {manifest.ledger_path.name} has "
                    f"{manifest.torn_lines} undecodable lines; only the "
                    "last may be torn"
                )
        for path in sorted(outdir.glob("*.cali")):
            status, detail = verify_cali(path)
            if status != STATUS_OK:
                violations.append(
                    f"post-crash: loose profile {path.name} is {status} "
                    f"({detail}) — the durable write was not atomic"
                )
        return violations

    def _check_analysis(
        self,
        outdir: Path,
        trialdir: Path,
        spec: Site,
        golden_thicket,
        cache_dir: Path | None = None,
        pack: bool | None = None,
    ) -> list[str]:
        from repro.thicket import Thicket

        if pack is None:
            pack = spec.pack
        sources = self._sources(outdir, pack)
        violations = []

        def compare(label: str, thicket) -> None:
            violations.extend(
                f"analyze[{label}]: {v}"
                for v in invariants.thickets_match(
                    golden_thicket, thicket, volatile=spec.execute
                )
            )

        compare("serial", Thicket.from_caliperreader(sources, workers=1))
        compare("parallel", Thicket.from_caliperreader(sources, workers=2))

        # Complement path: flip the storage representation and re-ingest.
        flipdir = trialdir / "flip"
        flipdir.mkdir(exist_ok=True)
        if pack:
            archive = outdir / calipack.ARCHIVE_NAME
            calipack.unpack_archive(archive, flipdir, remove=False)
            flip_sources = sorted(str(p) for p in flipdir.glob("*.cali"))
        else:
            flip_archive = flipdir / ("flip" + calipack.ARCHIVE_SUFFIX)
            calipack.pack_directory(outdir, flip_archive, remove=False)
            names = sorted(
                e.name for e in calipack.load_entries(flip_archive)
            )
            flip_sources = [
                calipack.member_ref(flip_archive, n) for n in names
            ]
        compare("flipped", Thicket.from_caliperreader(flip_sources))

        # Cache path: a cold store then a warm hit must agree too.
        cache = cache_dir if cache_dir is not None else trialdir / "cache"
        compare("cache-cold", Thicket.from_caliperreader(sources, cache=str(cache)))
        compare("cache-warm", Thicket.from_caliperreader(sources, cache=str(cache)))
        return violations

    # -------------------------------------------------------------- self-test
    def self_test(self) -> dict:
        """Prove the invariant checks can fail (a harness that cannot
        detect a loss proves nothing).

        Two repairs are deliberately suppressed and the checks must
        flag the damage:

        * **silent corruption, fsck suppressed** — a sealed profile of a
          clean campaign is bit-rotted in place and *no* fsck runs; I1
          must report the alteration.
        * **resume suppressed** — a campaign is crashed between two
          cells and never resumed; I3 must report the missing cells.
        """
        spec = SITES["executor.post-cell"]
        scenarios = []
        try:
            # --- scenario 1: rot a sealed profile, suppress fsck ---------
            outdir = self.workdir / "selftest-corruption"
            params = _trial_params(outdir, "serial", spec)
            code = self._spawn(_run_resume_campaign, params)
            if code != 0:
                raise RuntimeError(f"setup campaign exited {code}")
            snap = invariants.snapshot_store(outdir)
            victim = sorted(outdir.glob("*.cali"))[0]
            raw = bytearray(victim.read_bytes())
            raw[len(raw) // 4] ^= 0xFF  # payload bit-rot; footer now lies
            victim.write_bytes(bytes(raw))
            found = invariants.check_sealed_preserved(snap, outdir)
            scenarios.append(
                {
                    "name": "silent-corruption-without-fsck",
                    "detected": bool(found),
                    "violations": found,
                }
            )

            # --- scenario 2: crash between cells, suppress resume --------
            outdir = self.workdir / "selftest-noresume"
            outdir.mkdir(parents=True, exist_ok=True)
            params = _trial_params(outdir, "serial", spec)
            schedule = Fault(
                site=spec.name,
                hit=1,
                action="exit",
                seed=self.seed,
                token=str(self.workdir / "selftest-noresume.token"),
            )
            code = self._spawn(_run_armed_campaign, params, schedule)
            if code != CHAOS_KILL:
                raise RuntimeError(
                    f"armed campaign exited {code}, expected a chaos kill"
                )
            fsck_directory(outdir)  # fsck alone cannot finish the campaign
            found = invariants.check_full_cell_set(
                self._expected_cells(params), outdir
            )
            scenarios.append(
                {
                    "name": "crash-without-resume",
                    "detected": bool(found),
                    "violations": found,
                }
            )
        finally:
            if not self.keep and self._own_workdir:
                shutil.rmtree(self.workdir, ignore_errors=True)
        return {
            "ok": all(s["detected"] for s in scenarios),
            "scenarios": scenarios,
        }
