"""The suite executor: runs kernels and emits Caliper profiles.

Mirrors the paper's data-collection pipeline: one RAJAPerf run = one
(machine, variant, tuning) combination = one Caliper profile whose region
tree is ``group -> kernel`` and whose region metrics are

* the predicted node-level execution time from the performance model
  (the substitute for measured wall time on the paper's machines);
* the analytic metrics (bytes read/written, FLOPs, FLOPs/byte);
* on CPU machines, the PAPI-style top-down slot counters;
* on GPU machines, the NCU-style roofline counters;
* when real execution is enabled, the actual NumPy wall time and
  checksum at a capped problem size.

Adiak-style run metadata (variant, tuning, machine, problem size, ranks)
lands in the profile globals, which Thicket later surfaces as its
metadata table.

The executor is a *campaign runner*: a multi-machine sweep takes hours
on the paper's systems, so one bad kernel must not lose the rest. Each
kernel runs inside an isolation boundary with bounded retry (exponential
backoff + seeded jitter) for transient faults, a per-kernel deadline
watchdog, and cross-variant checksum verification against the Base_Seq
reference when real execution is on. Outcomes land in a
:class:`~repro.suite.report.RunReport`; completed cells are checkpointed
to a campaign manifest so an interrupted sweep resumes where it stopped
(``RunParams.resume``) — both through the
:class:`~repro.suite.session.CampaignSession` every campaign loop
shares. ``RunParams.fail_fast`` restores abort-on-first-
error. Faults are plantable at the ``executor.*`` and ``profile.seal``
sites of :mod:`repro.faults` for testing.

Trials of one (machine, variant, tuning) differ only in the noise on
``Avg time/rank``, so the machine model runs once per kernel and cell
shape: a campaign-scoped :class:`ModelPlan` memoizes everything else and
the executor replays it per trial.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro import adiak
from repro.caliper.annotation import CaliperSession
from repro.caliper.cali import write_cali
from repro.caliper.records import CaliProfile
from repro.cpusim.counters import slot_counters
from repro.faults import DeadlineClock, InjectedKernelFault, Where, fault_point
from repro.gpusim.ncu import ncu_counters
from repro.machines.model import MachineKind, MachineModel
from repro.machines.registry import get_machine
from repro.perfmodel.cpu_time import CpuTimeModel
from repro.perfmodel.traits import KernelTraits
from repro.perfmodel.work import WorkProfile
from repro.suite.checksum import checksums_match
from repro.suite.errors import (
    ChecksumMismatchError,
    KernelExecutionError,
    ProfileWriteError,
    RETRYABLE_ERRORS,
    RunTimeoutError,
    SuiteError,
)
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import all_kernel_classes
from repro.suite.report import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    KernelRunRecord,
    cell_key,
)
from repro.suite.run_params import TABLE3, RunParams
from repro.suite.session import CampaignSession, CellOutcome, RunResult
from repro.suite.state_pool import KernelStatePool
from repro.suite.variants import Variant, get_variant


@dataclass(frozen=True)
class _Cell:
    """One campaign cell: a (machine, variant, tuning, trial) run."""

    machine: MachineModel
    variant: Variant
    block: int
    trial: int
    fname: str

    @property
    def tuning(self) -> str:
        return f"block_{self.block}" if self.block else "default"

    @property
    def key(self) -> str:
        return cell_key(
            self.machine.shorthand, self.variant.name, self.tuning, self.trial
        )


@dataclass(frozen=True)
class PlanEntry:
    """One kernel's trial-invariant model output for one cell shape.

    ``metrics`` and ``counters`` are the ``set_metric`` rows in the
    order the executor records them. CPU machines precompute their slot
    counters; GPU machines keep one device's work and the traits,
    because ``ncu_counters`` takes the cell's noisy total.
    """

    #: predicted node time over all reps, before any trial noise
    total: float
    metrics: tuple[tuple[str, float], ...]
    counters: tuple[tuple[str, float], ...] = ()
    per_gpu: WorkProfile | None = None
    traits: KernelTraits | None = None


def _plan_entry(
    kernel: KernelBase,
    reps: int,
    machine: MachineModel,
    variant: Variant,
    block: int,
) -> PlanEntry:
    """Evaluate the machine model for one (kernel, cell shape)."""
    work = kernel.work_profile(reps=reps)
    traits = kernel.effective_traits()
    breakdown = kernel.predict(machine, variant, block_size=block or None)
    metrics = (
        *work.per_iteration().items(),
        ("iterations", work.iterations),
        ("reps", float(reps)),
    )
    total = breakdown.total_seconds * reps
    if machine.kind is MachineKind.CPU:
        cpu_breakdown = CpuTimeModel(machine).predict(work, traits)
        counters = slot_counters(cpu_breakdown, machine, work.instructions)
        return PlanEntry(total, metrics, tuple(counters.items()))
    # NCU profiles a single device: scale the node totals down to one
    # GPU's share (time is the same — ranks run concurrently).
    per_gpu = work.scaled(1.0 / machine.units_per_node)
    return PlanEntry(total, metrics, per_gpu=per_gpu, traits=traits)


class ModelPlan:
    """Campaign-scoped memo of each kernel's trial-invariant model output.

    Keyed on (kernel class, problem size, reps, machine, variant, GPU
    block) — the frozen machine and variant values, never their names.
    A miss builds the kernel at the model size and evaluates the model;
    a failing evaluation raises without storing anything, so every
    retry attempt re-evaluates. The supervisor's and shard
    coordinator's cost models fill the plan before forking, so their
    workers inherit it warm.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, PlanEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entry(
        self,
        cls: type[KernelBase],
        params: RunParams,
        machine: MachineModel,
        variant: Variant,
        block: int,
    ) -> PlanEntry:
        key = (cls, params.problem_size, params.reps, machine, variant, block)
        hit = self._entries.get(key)
        if hit is None:
            kernel = cls(problem_size=params.problem_size)
            hit = _plan_entry(kernel, params.reps, machine, variant, block)
            self._entries[key] = hit
        return hit


def _variant_compatible(variant: Variant, machine: MachineModel) -> bool:
    """Whether a variant's backend runs on a machine kind.

    CPU machines run Seq/OpenMP variants; GPU machines run the offload
    backends (CUDA on V100, HIP on MI250X, plus OMPTarget/SYCL on either).
    """
    if machine.kind is MachineKind.CPU:
        return variant.backend.value in ("Seq", "OpenMP")
    allowed = {"OMPTarget", "SYCL"}
    if machine.architecture.startswith("NVIDIA"):
        allowed.add("CUDA")
    if machine.architecture.startswith("AMD"):
        allowed.add("HIP")
    return variant.backend.value in allowed


class SuiteExecutor:
    """Runs a configured sweep and produces one profile per run.

    Faults reach it only through the installed
    :class:`~repro.faults.FaultPlan`; ``sleep_fn`` replaces the real
    backoff sleep so retry tests run instantly. ``model_plan`` is the campaign's :class:`ModelPlan`
    when a supervisor or shard hands its warm one down; otherwise the
    executor owns a fresh one.
    """

    def __init__(
        self,
        params: RunParams,
        sleep_fn: Callable[[float], None] | None = None,
        model_plan: ModelPlan | None = None,
    ) -> None:
        self.params = params
        self.sleep_fn = sleep_fn if sleep_fn is not None else time.sleep
        self.model_plan = model_plan if model_plan is not None else ModelPlan()
        self._reference_checksums: dict[tuple[type[KernelBase], int], float | None] = {}
        #: one set-up instance per (class, size) reused across the whole
        #: campaign — variants, tunings, trials (None = --no-state-pool)
        self.state_pool = KernelStatePool() if params.state_pool else None
        #: when set, profiles stream into a .calipack instead of loose files
        self.profile_sink = None  # repro.caliper.calipack.ArchiveSink
        #: when set, Base_Seq references are shared across processes
        self.refstore = None  # repro.suite.refchecksums.ReferenceChecksumStore

    def selected_kernels(self) -> list[type[KernelBase]]:
        return [cls for cls in all_kernel_classes() if self.params.selects(cls)]

    # ----------------------------------------------------- cell enumeration
    def build_cells(self) -> list[_Cell]:
        """The configured sweep's cells, in deterministic sweep order."""
        cells: list[_Cell] = []
        for machine_name in self.params.machines:
            machine = get_machine(machine_name)
            for variant_name in self.params.variants:
                variant = get_variant(variant_name)
                if not _variant_compatible(variant, machine):
                    continue
                tunings = self.params.gpu_block_sizes if variant.is_gpu else (0,)
                for block in tunings:
                    for trial in range(self.params.trials):
                        tuning = f"block_{block}" if block else "default"
                        trial_tag = (
                            f"_trial{trial}" if self.params.trials > 1 else ""
                        )
                        fname = (
                            f"rajaperf_{machine.shorthand}_{variant.name}"
                            f"_{tuning}{trial_tag}.cali"
                        )
                        cells.append(_Cell(machine, variant, block, trial, fname))
        return cells

    def build_paper_cells(self) -> list[_Cell]:
        """Exactly Table III: the paper's per-machine variant choices."""
        cells: list[_Cell] = []
        for config in TABLE3.values():
            machine = get_machine(config.machine)
            variant = get_variant(config.variant)
            block = 256 if variant.is_gpu else 0
            for trial in range(self.params.trials):
                trial_tag = f"_trial{trial}" if self.params.trials > 1 else ""
                fname = f"rajaperf_{machine.shorthand}_{variant.name}{trial_tag}.cali"
                cells.append(_Cell(machine, variant, block, trial, fname))
        return cells

    # ----------------------------------------------------------- execution
    def run(self, write_files: bool = False) -> RunResult:
        return self._execute(self.build_cells(), write_files)

    def run_paper_configuration(self, write_files: bool = False) -> RunResult:
        """Run exactly Table III: the paper's per-machine variant choices."""
        return self._execute(self.build_paper_cells(), write_files)

    def _execute(self, cells: list[_Cell], write_files: bool) -> RunResult:
        if self.params.shards > 0 and write_files:
            from repro.suite.coordinator import ShardCoordinator

            coordinator = ShardCoordinator(self.params, model_plan=self.model_plan)
            return coordinator.run(cells, write_files)
        if self.params.workers > 1:
            from repro.suite.supervisor import CampaignSupervisor

            supervisor = CampaignSupervisor(
                self.params, model_plan=self.model_plan
            )
            return supervisor.run(cells, write_files)
        return self._run_cells(cells, write_files)

    # -------------------------------------------------------- campaign loop
    def _run_cells(self, cells: list[_Cell], write_files: bool) -> RunResult:
        params = self.params
        session = CampaignSession(params, write_files).open()
        try:
            if write_files and params.pack and self.profile_sink is None:
                from repro.caliper.calipack import ARCHIVE_NAME, ArchiveSink

                self.profile_sink = ArchiveSink(
                    Path(params.output_dir) / ARCHIVE_NAME
                )
            if write_files and params.execute:
                from repro.suite.refchecksums import ReferenceChecksumStore

                self.refstore = ReferenceChecksumStore(params.output_dir)
            for cell in session.pending(cells):
                session.record(
                    self.run_cell(cell, write_files), point="executor.post-cell"
                )
            # The loop completed: seal the archive in canonical form so
            # every execution mode converges on the same bytes. The sink
            # must close first — finalize rewrites the file it holds open.
            if self.profile_sink is not None:
                self.profile_sink.close()
                self.profile_sink = None
            session.finalize()
        finally:
            if self.profile_sink is not None:
                self.profile_sink.close()
                self.profile_sink = None
            session.close()
        return session.result()

    # ----------------------------------------------------------- one cell
    def run_cell(self, cell: _Cell, write_files: bool) -> CellOutcome:
        """Run one cell end to end (kernels + profile write + CSV).

        The shared primitive behind both the serial campaign loop and
        the supervised worker: everything the cell produced comes back
        as a :class:`CellOutcome` for the loop's
        :meth:`CampaignSession.record`.
        """
        params = self.params
        cell_start = time.perf_counter()
        profile, records = self._run_one_cell(cell)
        written: Path | None = None
        write_error: str | None = None
        if write_files:
            target = Path(params.output_dir) / cell.fname
            try:
                written = self._write_profile(profile, target, cell)
            except ProfileWriteError as err:
                if params.fail_fast:
                    raise
                write_error = str(err)
                records.append(
                    KernelRunRecord(
                        kernel="<profile write>",
                        machine=cell.machine.shorthand,
                        variant=cell.variant.name,
                        tuning=cell.tuning,
                        trial=cell.trial,
                        status=STATUS_FAILED,
                        attempts=params.max_attempts,
                        error=write_error,
                    )
                )
        self._maybe_write_csv(
            profile, cell.machine, cell.variant, cell.block, cell.trial
        )
        return CellOutcome(
            cell_key=cell.key,
            profile=profile,
            records=records,
            written=written,
            write_error=write_error,
            elapsed_s=time.perf_counter() - cell_start,
        )

    def _write_profile(self, profile: CaliProfile, target: Path, cell: _Cell) -> Path:
        """Write one profile with the same bounded retry as kernels.

        Loose-file mode writes a sealed ``.cali``; packed mode appends
        the same sealed bytes to the campaign archive (returning the
        member ref as the recorded path).
        """
        policy = self.params.retry_policy()
        delays = policy.delays(salt=cell.key)
        attempt = 1
        while True:
            try:
                if self.profile_sink is not None:
                    return Path(self.profile_sink.append(cell.fname, profile))
                return write_cali(profile, target)
            except OSError as exc:
                if attempt >= policy.max_attempts:
                    raise ProfileWriteError(str(target), exc) from exc
                self.sleep_fn(next(delays))
                attempt += 1

    def _maybe_write_csv(self, profile, machine, variant, block, trial) -> None:
        """RAJAPerf-style per-run CSV: one row per kernel, one column per
        metric ("Various text-based files can be generated for each run
        for processing with common plotting and other tools")."""
        if not self.params.write_csv:
            return
        from repro.dataframe import Frame, frame_to_csv

        records = []
        for node in profile.walk():
            if node.depth == 3:  # RAJAPerf / group / kernel
                rec = {"kernel": node.name}
                rec.update(node.metrics)
                records.append(rec)
        tuning = f"block_{block}" if block else "default"
        trial_tag = f"_trial{trial}" if self.params.trials > 1 else ""
        path = Path(self.params.output_dir) / (
            f"rajaperf_{machine.shorthand}_{variant.name}_{tuning}{trial_tag}.csv"
        )
        frame_to_csv(Frame.from_records(records), path)

    # --------------------------------------------------------- single run
    def _run_one_cell(
        self, cell: _Cell
    ) -> tuple[CaliProfile, list[KernelRunRecord]]:
        params = self.params
        machine, variant, block, trial = (
            cell.machine,
            cell.variant,
            cell.block,
            cell.trial,
        )
        session = CaliperSession(collect_time=False)

        adiak.init()
        adiak.value("variant", variant.name)
        adiak.value("tuning", cell.tuning)
        adiak.value("trial", trial)
        adiak.value("machine", machine.shorthand)
        adiak.value("architecture", machine.architecture)
        adiak.value("problem_size", params.problem_size)
        adiak.value("reps", params.reps)
        adiak.value("mpi_ranks", machine.mpi.ranks_per_node)
        adiak.value("programming_model", variant.backend.value)
        for key, val in adiak.fini().items():
            session.set_global(key, val)

        cell_records: list[KernelRunRecord] = []
        with session.region("RAJAPerf"):
            for cls in self.selected_kernels():
                if not any(v.name == variant.name for v in cls.class_variants()):
                    continue
                record = KernelRunRecord(
                    kernel=cls.class_full_name(),
                    machine=machine.shorthand,
                    variant=variant.name,
                    tuning=cell.tuning,
                    trial=trial,
                )
                with session.region(cls.GROUP.value):
                    with session.region(cls.class_full_name()):
                        self._run_kernel_isolated(
                            session, cls, machine, variant, block, trial, record
                        )
                cell_records.append(record)
        return session.close(), cell_records

    def _run_kernel_isolated(
        self,
        session: CaliperSession,
        cls: type[KernelBase],
        machine: MachineModel,
        variant: Variant,
        block: int,
        trial: int,
        record: KernelRunRecord,
    ) -> None:
        """Run one kernel with retry; a permanent failure marks the record
        ``failed`` and the sweep moves on (unless ``fail_fast``)."""
        params = self.params
        policy = params.retry_policy()
        where = Where(
            kernel=cls.class_full_name(),
            variant=variant.name,
            trial=trial,
            machine=machine.shorthand,
        )
        delays = policy.delays(
            salt=f"{where.machine}|{where.kernel}|{where.variant}|{where.trial}"
        )
        attempt = 1
        while True:
            try:
                self._attempt_kernel(
                    session, cls, machine, variant, block, trial, where, record
                )
            except RETRYABLE_ERRORS as err:
                if params.fail_fast:
                    raise
                if attempt >= policy.max_attempts:
                    record.status = STATUS_FAILED
                    record.attempts = attempt
                    record.error = str(err)
                    session.set_metric("failed", 1.0, accumulate=False)
                    return
                self.sleep_fn(next(delays))
                attempt += 1
            else:
                record.attempts = attempt
                record.status = STATUS_OK if attempt == 1 else STATUS_RETRIED
                return

    def _attempt_kernel(
        self,
        session: CaliperSession,
        cls: type[KernelBase],
        machine: MachineModel,
        variant: Variant,
        block: int,
        trial: int,
        where: Where,
        record: KernelRunRecord,
    ) -> None:
        """One attempt: the ``executor.kernel`` fault site + deadline
        watchdog around the actual model/execution work; raises the
        structured taxonomy."""
        params = self.params
        clock = DeadlineClock()
        start = clock.now()
        try:
            fault = fault_point("executor.kernel", where=where)
            if fault is not None:
                if fault.action == "hang":
                    clock.advance(fault.hang_seconds)
                else:
                    raise InjectedKernelFault(
                        f"injected kernel fault at {where.kernel}/"
                        f"{where.variant}/trial{where.trial} "
                        f"(firing {fault.fired})"
                    )
            self._record_kernel(
                session, cls, machine, variant, block, trial, where, record
            )
        except SuiteError:
            raise
        except Exception as exc:
            raise KernelExecutionError(
                cls.class_full_name(), variant.name, trial, exc
            ) from exc
        if params.kernel_deadline_s is not None:
            elapsed = clock.now() - start
            if elapsed > params.kernel_deadline_s:
                raise RunTimeoutError(
                    cls.class_full_name(),
                    variant.name,
                    trial,
                    elapsed,
                    params.kernel_deadline_s,
                )

    def _record_kernel(
        self,
        session: CaliperSession,
        cls: type[KernelBase],
        machine: MachineModel,
        variant: Variant,
        block: int,
        trial: int = 0,
        where: Where | None = None,
        record: KernelRunRecord | None = None,
    ) -> None:
        """Record one kernel's metrics: the planned model rows, with the
        trial's noise on ``Avg time/rank`` and the GPU counters it feeds,
        then (when executing) the measured run."""
        from repro.perfmodel.noise import noisy_time

        params = self.params
        entry = self.model_plan.entry(cls, params, machine, variant, block)
        total = entry.total
        if params.trials > 1:
            total = noisy_time(
                total,
                cls.class_full_name(),
                machine.shorthand,
                trial,
                params.noise_sigma,
            )

        session.set_metric("Avg time/rank", total, accumulate=False)
        for name, value in entry.metrics:
            session.set_metric(name, value, accumulate=False)
        if entry.per_gpu is None:
            for name, value in entry.counters:
                session.set_metric(name, value, accumulate=False)
        else:
            counters = ncu_counters(entry.per_gpu, entry.traits, machine, total)
            for name, value in counters.items():
                session.set_metric(name, value, accumulate=False)

        if params.execute:
            # Setup (allocation + RNG init — or a pooled snapshot restore)
            # is explicit and timed separately: "wall time (executed)"
            # must cover only the variant run, not state preparation.
            setup_start = time.perf_counter()
            exec_kernel = self._exec_kernel(cls)
            session.set_metric(
                "setup time (executed)",
                time.perf_counter() - setup_start,
                accumulate=False,
            )
            policy = variant.policy()
            if variant.is_gpu and block:
                policy = policy.with_block_size(block)
            start = time.perf_counter()
            checksum = exec_kernel.run_variant_prepared(variant, policy)
            session.set_metric(
                "wall time (executed)", time.perf_counter() - start, accumulate=False
            )
            if where is not None:
                fault = fault_point("executor.checksum", where=where)
                if fault is not None:
                    checksum = fault.corrupt(checksum)
            session.set_metric("checksum", checksum, accumulate=False)
            self._verify_checksum(session, cls, variant, trial, checksum, record)

    def _exec_kernel(self, cls: type[KernelBase]) -> KernelBase:
        """A set-up instance of ``cls`` at the execution size, ready for
        ``run_variant_prepared`` — pooled (snapshot-restored) when the
        state pool is on, freshly allocated otherwise."""
        size = self.params.execution_size
        if self.state_pool is not None:
            return self.state_pool.acquire(cls, size)
        kernel = cls(problem_size=size)
        kernel.ensure_setup()
        return kernel

    # ------------------------------------------------- checksum verification
    def _verify_checksum(
        self,
        session: CaliperSession,
        cls: type[KernelBase],
        variant: Variant,
        trial: int,
        checksum: float,
        record: KernelRunRecord | None,
    ) -> None:
        """Cross-variant verification: every executed variant must agree
        with the Base_Seq reference checksum (RAJAPerf's tripwire)."""
        reference = self._reference_checksum(cls)
        if reference is None:
            return
        ok = checksums_match(reference, checksum)
        session.set_metric("checksum_ok", 1.0 if ok else 0.0, accumulate=False)
        if record is not None:
            record.checksum_ok = ok
        if not ok:
            raise ChecksumMismatchError(
                cls.class_full_name(), variant.name, trial, reference, checksum
            )

    def _reference_checksum(self, cls: type[KernelBase]) -> float | None:
        """The kernel's Base_Seq checksum at the execution size (cached).

        Computed by an internal, fault-free Base_Seq run so it stays
        trustworthy even when the campaign's own Base_Seq cell was
        corrupted. Kernels without a Base_Seq variant opt out (None).
        Memoized in-process; when a :class:`ReferenceChecksumStore`
        sidecar is attached (supervised campaigns), references are also
        shared across worker processes — the first worker to need one
        computes and publishes it, everyone else loads it.
        """
        size = self.params.execution_size
        key = (cls, size)
        if key in self._reference_checksums:
            return self._reference_checksums[key]
        name = cls.class_full_name()
        if self.refstore is not None:
            from repro.suite.refchecksums import MISSING

            stored = self.refstore.get(name, size)
            if stored is not MISSING:
                self._reference_checksums[key] = stored
                return stored
        base_seq = get_variant("Base_Seq")
        if not any(v.name == base_seq.name for v in cls.class_variants()):
            value = None
        else:
            value = self._exec_kernel(cls).run_variant_prepared(base_seq)
        self._reference_checksums[key] = value
        if self.refstore is not None:
            self.refstore.put(name, size, value)
        return value
