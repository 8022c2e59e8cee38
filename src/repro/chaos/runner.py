"""The chaos trial runner: crash everywhere, prove recovery converges.

Every registered crash point names, as its :class:`~repro.faults.Site`
``phase``, the process it arms. :data:`PHASES` gives each phase one row
— a seed step, an armed child body, a quiesce rule, a recovery body and
the phase's own invariants — and one skeleton
(:meth:`ChaosRunner._trial`) drives every row, for every point and
campaign mode it applies to, through the same loop against a small but
real campaign:

1. **seed** — the row builds the store the armed child works on: an
   empty campaign directory (``run``), an empty job-service root
   (``service``), a copy of a converged service root holding two
   SUCCEEDED packed jobs (``retention``), or a finished campaign
   (``analyze``).
2. **armed child** — a forked child installs an ``exit``
   :class:`~repro.faults.Fault` at the point and runs the row's body:
   the campaign; a scheduler over one submitted job (drained, for
   ``service.mid-drain``); a retention GC pass that condemns the older
   job, then a compaction of the survivor's archive; or an analysis
   through the ingest cache. The strike is a genuine ``os._exit``
   mid-write — no ``finally`` blocks, no atexit, locks left held, tmp
   files left behind. A token file scoped to the trial makes the strike
   fire exactly once even when a supervised pool respawns the crashed
   worker. The child must exit 0 (the point never came due, or the
   crash was healed in flight) or with the chaos code.
3. **quiesce** — a killed coordinator or scheduler leaves its shard
   supervisors or job runners to read its death as EOF and exit; the
   row names the campaign locks and job leases whose holders must be
   dead. A store still live after the row's timeout ends the trial
   with a violation: an audit of a store that is still being written
   would blame the wrong thing.
4. **post-crash audit** — whatever the crash left on disk must already
   satisfy the atomicity half of the contract: job records parse
   sealed, the manifest parses, loose profiles verify sealed (in-flight
   writes may only ever leave tmp siblings or an unsealed archive
   tail).
5. **fsck** — quarantine damage, demote damaged cells, finish a
   reclamation a tombstone proves
   (:func:`~repro.suite.fsck.fsck_directory`); I2: no completed cell
   is forgotten.
6. **recovery (unarmed)** — a second child does what a restart does:
   resume the campaign, restart the service (with a client's
   idempotent resubmit), or rerun the GC and compaction pass. It must
   exit 0. The ``analyze`` row has none: step 7 reruns the analysis.
7. **invariants** — the row's own (``run``: I3 and I1, plus I5 when
   sharded; ``service``: I6; ``retention``: I7; ``analyze``: I1 against
   the store before the crash), then a second fsck must find nothing
   to repair, and I4: the campaign is composed into Thicket frames over
   four independent ingest paths (serial, parallel pool,
   packed/unpacked complement, cold-store + warm-load cache) and each
   must be :meth:`~repro.dataframe.Frame.equals`-identical to the
   frames of an uncrashed golden campaign.

Every child — seed builds included — is spawned, waited for and killed
through :mod:`repro.util.child`: one that outlives
:data:`CHILD_TIMEOUT_S` is killed and the trial says so, and its own
workers read its death as EOF. Invariant definitions live in
:mod:`repro.chaos.invariants`. Every trial is replayable: its schedule
is a pure function of ``(seed, point, mode, trial index)``.

The runner also carries the harness :meth:`ChaosRunner.self_test` —
it stages a loss with one repair deliberately suppressed and asserts
the invariant checks *catch* it, proving the harness can fail.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

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
from repro.service.jobstore import params_from_spec
from repro.suite.fsck import fsck_directory
from repro.suite.manifest import campaign_is_live, lease_pid, pid_alive
from repro.suite.run_params import RunParams
from repro.suite.shard import SHARD_DIR
from repro.util import child

MODES = ("serial", "supervised", "sharded", "service")

#: how long one child campaign may take before the trial is abandoned
CHILD_TIMEOUT_S = 180.0

#: the trial campaign, as a job spec: 4 cells, small, deterministic,
#: fast to re-run (:func:`_trial_spec` sets the mode's knobs)
TRIAL_SPEC = {
    "problem_size": 1024,
    "reps": 1,
    "machines": ["SPR-DDR"],
    "variants": ["Base_Seq", "RAJA_Seq"],
    "kernels": ["Basic_DAXPY", "Stream_TRIAD"],
    "trials": 2,
    "shard_lease_timeout": 10.0,
    "max_attempts": 3,
    "retry_base_delay": 0.0,
    "retry_max_delay": 0.0,
    "retry_jitter": 0.0,
    "heartbeat_timeout": 10.0,
}

#: the service trial's job
CHAOS_JOB_ID = "chaos-job"

#: the retention trial's jobs, submission order = age order (the ids
#: also sort that way: created_at has one-second granularity, and the
#: deterministic tie-break inside a second is the job id)
RETENTION_JOBS = ("gc-old", "gc-young")


def _trial_spec(mode: str, execute: bool = False, pack: bool = False) -> dict:
    """The trial campaign in ``mode`` (a sharded one always packs:
    :func:`~repro.service.jobstore.params_from_spec` forces it)."""
    return {
        **TRIAL_SPEC,
        "execute": execute,
        "pack": pack,
        "workers": 2 if mode == "supervised" else 1,
        "shards": 2 if mode == "sharded" else 0,
    }


def _sources(directory: Path, pack: bool) -> list[str]:
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


def _expected_cells(params: RunParams) -> set[str]:
    from repro.suite.executor import SuiteExecutor

    return {cell.key for cell in SuiteExecutor(params).build_cells()}


def _spawn(target: Callable, *args) -> int | None:
    """Run ``target(*args)`` in a child; its exit code, or None when it
    outlived :data:`CHILD_TIMEOUT_S` (it is then killed and reaped).

    Not a daemon: an armed campaign forks workers and shards."""
    proc = child.spawn(target, *args, name="chaos-trial", daemon=False)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        child.wait([proc], timeout=CHILD_TIMEOUT_S)
        proc.join(max(0.0, deadline - time.monotonic()))  # EOF precedes exit
        return None if proc.is_alive() else proc.exitcode
    finally:
        child.kill(proc)


def _failed(what: str, code: int | None) -> str:
    if code is None:
        return f"{what} timed out after {CHILD_TIMEOUT_S} s"
    return f"{what} failed with exit code {code}"


# ------------------------------------------------------------ the trial table
@dataclass
class Trial:
    """One trial's store, as its phase's steps see it."""

    site: Site
    mode: str
    dir: Path  # the trial's scratch directory
    root: Path  # what fsck repairs: the campaign, or the service root
    campaign: Path  # the campaign the trial audits and analyzes
    spec: dict  # that campaign, as a job spec
    pre: Any = None  # what the seed step kept for the invariants

    @property
    def params(self) -> RunParams:
        return params_from_spec(self.spec, self.campaign)


@dataclass(frozen=True)
class Phase:
    """One row of the trial table (see the module docstring).

    ``seed(runner, trial)`` runs in the runner; ``armed(trial,
    schedule)`` and ``recover(trial)`` are child bodies; ``check(trial,
    snap)`` returns the phase's violations after recovery, ``snap``
    being the post-crash snapshot of the campaign. The quiesce rule:
    every campaign directory matching ``locks`` and every job lease
    matching ``leases`` (globs under the root) is held by no live
    process within ``quiesce_s``. ``job`` is the job whose campaign the
    trial audits (None: the root is the campaign); ``pack`` packs the
    campaign whatever the point needs.
    """

    seed: Callable[[ChaosRunner, Trial], None]
    armed: Callable[[Trial, Fault], None]
    check: Callable[[Trial, invariants.StoreSnapshot | None], list[str]]
    recover: Callable[[Trial], None] | None = None
    locks: tuple[str, ...] = ()
    leases: tuple[str, ...] = ()
    quiesce_s: float = 10.0
    job: str | None = None
    pack: bool = False


def _quiesce(root: Path, row: Phase) -> str | None:
    """Wait until no live process holds a campaign lock or job lease the
    row names (orphans read their parent's death as EOF and exit); what
    is still live after ``row.quiesce_s``, or None once quiescent."""
    deadline = time.monotonic() + row.quiesce_s
    while True:
        live = [
            f"campaign lock of {d.relative_to(root)}"
            for pattern in row.locks
            for d in sorted(root.glob(pattern))
            if campaign_is_live(d)
        ] + [
            f"job lease {lease.relative_to(root)}"
            for pattern in row.leases
            for lease in sorted(root.glob(pattern))
            if pid_alive(lease_pid(lease))
        ]
        if not live or time.monotonic() >= deadline:
            return ", ".join(live) or None
        time.sleep(0.1)


def _new_trial(site: Site, mode: str, trialdir: Path) -> Trial:
    row = PHASES[site.phase]  # an unknown phase fails loudly
    root = trialdir / ("campaign" if row.job is None else "service")
    campaign = root if row.job is None else root / "campaigns" / row.job
    spec = _trial_spec(mode, site.execute, site.pack or row.pack)
    return Trial(site, mode, trialdir, root, campaign, spec)


# ---- run: the campaign itself
def _seed_run(runner: ChaosRunner, trial: Trial) -> None:
    """An empty campaign directory. For a serial merge point, plus
    footer-less worker segments, so the startup salvage has something to
    merge (serial runs never create segments on their own); two give
    ``calipack.post-merge-unlink`` a genuinely *partial* deletion to
    strike between."""
    trial.campaign.mkdir()
    count = {"calipack.mid-merge": 1, "calipack.post-merge-unlink": 2}.get(
        trial.site.name, 0
    )
    if trial.mode != "serial" or not count:
        return
    archive = runner._golden(trial.site)[0] / calipack.ARCHIVE_NAME
    entries = calipack.load_entries(archive)
    for i in range(count):
        seg = (
            trial.campaign
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


def _run_armed(trial: Trial, schedule: Fault) -> None:
    """Child body: install the strike, run the campaign, exit normally.

    When the armed point is reached the process dies *inside* the hook
    (``os._exit``); reaching the end means the point either never came
    due in this process or was healed in-flight (a supervised worker
    crashed and the supervisor finished the campaign anyway).
    """
    from repro.suite.executor import SuiteExecutor

    install(FaultPlan([schedule]))
    SuiteExecutor(trial.params).run(write_files=True)


def _resume(trial: Trial) -> None:
    """Child body: resume the campaign; it must finish clean."""
    from repro.suite.executor import SuiteExecutor

    result = SuiteExecutor(
        dataclasses.replace(trial.params, resume=True)
    ).run(write_files=True)
    if not result.report.clean:
        raise RuntimeError(
            f"resume left unclean cells: {result.report.cell_counts()}"
        )


def _check_run(trial: Trial, snap) -> list[str]:
    expected = _expected_cells(trial.params)
    found = invariants.check_full_cell_set(expected, trial.campaign)
    found += invariants.check_sealed_preserved(
        snap, trial.campaign, check_crc=not trial.site.execute
    )
    if trial.mode == "sharded":
        found += invariants.check_shard_campaign(expected, trial.campaign)
    return found


# ---- service: a job-service daemon over one job
def _seed_service(runner: ChaosRunner, trial: Trial) -> None:
    trial.root.mkdir()


def _service_armed(trial: Trial, schedule: Fault) -> None:
    """Child body: submit, schedule, (maybe) drain.

    For ``service.mid-drain`` the scheduler waits for the job to reach
    RUNNING and then drains — the point fires inside the drain loop,
    simulating a daemon killed halfway through graceful shutdown. If
    the armed point never comes due, the loop runs the job to
    completion and exits 0 (an ``unreached`` verdict, not a failure).
    """
    from repro.service.jobstore import STATE_RUNNING, JobStore
    from repro.service.scheduler import JobScheduler, SchedulerConfig

    install(FaultPlan([schedule]))
    store = JobStore(trial.root)
    store.submit(trial.spec, tenant="chaos", job_id=CHAOS_JOB_ID)
    scheduler = JobScheduler(
        store, SchedulerConfig(progress_interval=0.05)
    )
    scheduler.recover()
    if trial.site.name == "service.mid-drain":
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


def _serve(root: Path, jobs: dict[str, dict]) -> None:
    """Child body: what a (re)started daemon does — recover, converge.

    Submits every job first, exactly like a client whose acknowledgment
    was lost would retry: with the caller-chosen job id a duplicate
    submit is idempotent, so this never double-queues a campaign.
    Every job must end SUCCEEDED.
    """
    from repro.service.jobstore import STATE_SUCCEEDED, JobStore
    from repro.service.scheduler import JobScheduler

    store = JobStore(root)
    for job_id, spec in jobs.items():
        store.submit(spec, tenant="chaos", job_id=job_id)
    scheduler = JobScheduler(store)
    scheduler.recover()
    converged = scheduler.run_until_idle(timeout=CHILD_TIMEOUT_S / 2)
    states = {}
    for job_id in jobs:
        record = store.load(job_id)
        states[job_id] = record.state if record is not None else "<no record>"
    if not converged or set(states.values()) != {STATE_SUCCEEDED}:
        raise RuntimeError(f"service did not converge: {states}")


def _service_recover(trial: Trial) -> None:
    _serve(trial.root, {CHAOS_JOB_ID: trial.spec})


def _check_service(trial: Trial, snap) -> list[str]:
    return invariants.check_job_service(
        trial.root, {CHAOS_JOB_ID: _expected_cells(trial.params)}
    )


# ---- retention: GC + compaction over a converged service root
def _seed_retention(runner: ChaosRunner, trial: Trial) -> None:
    shutil.copytree(runner._retention_seed(trial.spec), trial.root)
    trial.pre = {
        job_id: invariants.snapshot_store(trial.root / "campaigns" / job_id)
        for job_id in RETENTION_JOBS
    }


def _retention_pass(trial: Trial, schedule: Fault | None = None) -> None:
    """Child body: a GC + compaction pass, armed or (a restarted
    daemon's) unarmed; either must leave no tombstone when it finishes.

    The policy condemns the older of the two terminal jobs
    (``max_terminal_jobs=1``); the survivor's archive is then compacted.
    ``retention.pre-tombstone`` fires before the condemnation lands,
    ``retention.mid-delete`` inside the tree removal, and
    ``retention.pre-compact-swap`` between the scratch seal and the swap.
    """
    from repro.service.jobstore import JobStore
    from repro.service.retention import (
        RetentionPolicy,
        compact_archive,
        gc,
    )

    if schedule is not None:
        install(FaultPlan([schedule]))
    store = JobStore(trial.root)
    report = gc(store, RetentionPolicy(max_terminal_jobs=1))
    if store.list_tombstone_ids():
        raise RuntimeError(f"tombstones survived gc: {report.summary()}")
    archive = trial.campaign / calipack.ARCHIVE_NAME
    if archive.is_file():
        compact_archive(archive)


def _check_retention(trial: Trial, snap) -> list[str]:
    found = invariants.check_retention(trial.root, trial.pre)
    old_id = RETENTION_JOBS[0]
    if (trial.root / "campaigns" / old_id).exists():
        found.append(f"condemned job {old_id} was not reclaimed")
    return found


# ---- analyze: the ingest of a finished campaign
def _seed_analyze(runner: ChaosRunner, trial: Trial) -> None:
    trial.campaign.mkdir()
    code = _spawn(_resume, trial)
    if code != 0:
        raise RuntimeError(_failed("setup campaign", code))
    trial.pre = invariants.snapshot_store(trial.campaign)


def _analyze_armed(trial: Trial, schedule: Fault) -> None:
    from repro.thicket import Thicket

    install(FaultPlan([schedule]))
    Thicket.from_caliperreader(
        _sources(trial.campaign, trial.params.pack),
        cache=str(trial.dir / "cache"),
    )


def _check_analyze(trial: Trial, snap) -> list[str]:
    # The campaign store is read-only to analysis: nothing changes.
    return invariants.check_sealed_preserved(trial.pre, trial.campaign)


#: the trial table, keyed by :attr:`Site.phase <repro.faults.Site.phase>`
PHASES: dict[str, Phase] = {
    "run": Phase(
        seed=_seed_run,
        armed=_run_armed,
        locks=(f"{SHARD_DIR}/*",),
        recover=_resume,
        check=_check_run,
    ),
    "service": Phase(
        seed=_seed_service,
        armed=_service_armed,
        locks=("campaigns/*",),
        leases=("jobs/*.lease",),
        quiesce_s=15.0,
        recover=_service_recover,
        check=_check_service,
        job=CHAOS_JOB_ID,
    ),
    "retention": Phase(
        seed=_seed_retention,
        armed=_retention_pass,
        recover=_retention_pass,
        check=_check_retention,
        job=RETENTION_JOBS[-1],
        pack=True,
    ),
    "analyze": Phase(
        seed=_seed_analyze,
        armed=_analyze_armed,
        check=_check_analyze,
    ),
}


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

    # ------------------------------------------------------------- plumbing
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
        params = params_from_spec(
            _trial_spec("serial", spec.execute, spec.pack), outdir
        )
        from repro.suite.executor import SuiteExecutor

        result = SuiteExecutor(params).run(write_files=True)
        if not result.report.clean:
            raise RuntimeError(
                f"golden campaign failed: {result.report.cell_counts()}"
            )
        thicket = Thicket.from_caliperreader(_sources(outdir, spec.pack))
        self._goldens[key] = (outdir, thicket)
        return self._goldens[key]

    def _retention_seed(self, spec: dict) -> Path:
        """A converged service root holding the retention jobs (each
        with campaign ``spec``), built once, copied per trial."""
        if self._retention_seed_dir is not None:
            return self._retention_seed_dir
        seed_root = self.workdir / "retention-seed"
        code = _spawn(
            _serve, seed_root, {job_id: spec for job_id in RETENTION_JOBS}
        )
        if code != 0:
            raise RuntimeError(_failed("retention seed build", code))
        self._retention_seed_dir = seed_root
        return seed_root

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

    def _run_trial(self, spec: Site, mode: str, index: int) -> TrialVerdict:
        start = time.monotonic()
        verdict = TrialVerdict(
            point=spec.name,
            mode=mode,
            trial=index,
            seed=self.seed,
            hit=1,
            torn=False,
        )
        trial = _new_trial(
            spec,
            mode,
            self.workdir / f"{spec.name.replace('.', '-')}-{mode}-{index}",
        )
        if mode not in spec.modes:
            verdict.applicable = False
            return verdict
        trial.dir.mkdir(parents=True, exist_ok=True)
        token = trial.dir / "strike.token"
        schedule = self._schedule(spec, index, token)
        verdict.hit, verdict.torn = schedule.hit, schedule.torn
        try:
            self._trial(trial, schedule, verdict)
        except Exception as exc:  # noqa: BLE001 - a broken trial is a verdict
            verdict.violations.append(
                f"trial harness error: {type(exc).__name__}: {exc}"
            )
        verdict.fired = token.exists()
        verdict.duration_s = time.monotonic() - start
        if not self.keep:
            shutil.rmtree(trial.dir, ignore_errors=True)
        return verdict

    def _trial(
        self, trial: Trial, schedule: Fault, verdict: TrialVerdict
    ) -> None:
        """The one trial loop, over the row of the trial's phase."""
        phase = trial.site.phase
        row = PHASES[phase]
        violations = verdict.violations
        golden = self._golden(trial.site)[1]
        row.seed(self, trial)

        # The armed child. Exit 0 = completed (point unreached, or a
        # worker/shard crash the supervising process healed in-flight).
        code = _spawn(row.armed, trial, schedule)
        verdict.killed = code == CHAOS_KILL
        if code not in (0, CHAOS_KILL):
            violations.append(_failed(f"armed {phase} child", code))
            return
        live = _quiesce(trial.root, row)
        if live is not None:
            violations.append(
                f"post-crash: {live} still live after {row.quiesce_s} s"
            )
            return

        # Post-crash atomicity — targets are never torn.
        if row.job is not None:
            violations += [
                f"post-crash: {v}"
                for v in invariants.check_job_records_parse(trial.root)
            ]
        snap = None
        if trial.campaign.is_dir():
            snap = invariants.snapshot_store(trial.campaign)
            violations += self._check_target_atomicity(trial.campaign)

        # fsck heals; completed cells must survive it.
        fsck_directory(trial.root)
        if snap is not None:
            violations += [
                f"post-fsck: {v}"
                for v in invariants.check_completed_cells_remembered(
                    snap, trial.campaign
                )
            ]

        # The unarmed recovery must converge.
        if row.recover is not None:
            code = _spawn(row.recover, trial)
            if code != 0:
                violations.append(_failed(f"{phase} recovery", code))
                return
        violations += [
            f"post-recovery: {v}" for v in row.check(trial, snap)
        ]
        recheck = fsck_directory(trial.root)
        if not recheck.clean:
            violations.append(
                "post-recovery fsck still found damage: " + recheck.summary()
            )
        violations += self._check_analysis(trial, golden)

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

    def _check_analysis(self, trial: Trial, golden_thicket) -> list[str]:
        from repro.thicket import Thicket

        pack = trial.params.pack
        outdir = trial.campaign
        sources = _sources(outdir, pack)
        violations = []

        def compare(label: str, thicket) -> None:
            violations.extend(
                f"analyze[{label}]: {v}"
                for v in invariants.thickets_match(
                    golden_thicket, thicket, volatile=trial.site.execute
                )
            )

        compare("serial", Thicket.from_caliperreader(sources, workers=1))
        compare("parallel", Thicket.from_caliperreader(sources, workers=2))

        # Complement path: flip the storage representation and re-ingest.
        flipdir = trial.dir / "flip"
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

        # Cache path: a cold store then a warm hit must agree too (the
        # analyze row's crashed store left its debris in this cache).
        cache = str(trial.dir / "cache")
        compare("cache-cold", Thicket.from_caliperreader(sources, cache=cache))
        compare("cache-warm", Thicket.from_caliperreader(sources, cache=cache))
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
            trial = _new_trial(
                spec, "serial", self.workdir / "selftest-corruption"
            )
            trial.campaign.mkdir(parents=True, exist_ok=True)
            code = _spawn(_resume, trial)
            if code != 0:
                raise RuntimeError(_failed("setup campaign", code))
            outdir = trial.campaign
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
            trial = _new_trial(
                spec, "serial", self.workdir / "selftest-noresume"
            )
            trial.campaign.mkdir(parents=True, exist_ok=True)
            schedule = Fault(
                site=spec.name,
                hit=1,
                action="exit",
                seed=self.seed,
                token=str(self.workdir / "selftest-noresume.token"),
            )
            code = _spawn(_run_armed, trial, schedule)
            if code != CHAOS_KILL:
                raise RuntimeError(
                    f"armed campaign exited {code}, expected a chaos kill"
                )
            fsck_directory(trial.campaign)  # fsck cannot finish a campaign
            found = invariants.check_full_cell_set(
                _expected_cells(trial.params), trial.campaign
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
