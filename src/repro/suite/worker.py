"""The supervised campaign worker: one process, one cell at a time.

``worker_main`` is the entry point the supervisor spawns. Each worker

* ignores SIGINT (campaign shutdown is the supervisor's decision — the
  terminal's SIGINT goes to the whole foreground process group, and a
  worker that died on Ctrl-C would defeat the graceful drain);
* runs a daemon :class:`~repro.suite.heartbeat.HeartbeatEmitter` so the
  supervisor can tell "busy" from "wedged";
* installs its own :class:`~repro.faults.FaultInjector` built from the
  supervisor's specs (budgets are per-process; worker-level faults
  match on the cell's attempt number so scenarios survive respawns);
* pulls :class:`CellTask` items off its private task queue, executes
  them through :meth:`SuiteExecutor.run_cell`, and reports a
  :class:`CellResult` on the shared result queue. ``None`` is the
  poison pill.

A ``WORKER_CRASH`` fault fires *before* the cell runs and calls
``os._exit`` — no result, no cleanup, no atexit: the closest a Python
process gets to a segfault. The supervisor must recover from exactly
this.
"""

from __future__ import annotations

import dataclasses
import os
import queue as queue_mod
import signal
import time
from dataclasses import dataclass, field

from repro.chaos.points import ChaosCrash
from repro.cli.exitcodes import WORKER_CRASH
from repro.faults import FaultInjector, FaultSite, FaultSpec
from repro.machines.registry import get_machine
from repro.suite.heartbeat import HeartbeatEmitter
from repro.suite.report import STATUS_FAILED, KernelRunRecord, cell_key
from repro.suite.run_params import RunParams
from repro.suite.variants import get_variant

#: Exit code of an injected worker crash (visible in the supervisor's log).
#: Canonically defined in :mod:`repro.cli.exitcodes`; re-exported here
#: because the supervisor and its tests historically import it from us.
WORKER_CRASH_EXITCODE = WORKER_CRASH

#: How often an idle worker re-checks that its supervisor still exists.
_ORPHAN_POLL_S = 1.0


@dataclass(frozen=True)
class CellTask:
    """A serializable cell assignment (machine/variant by name)."""

    machine: str
    variant: str
    block: int
    trial: int
    fname: str
    attempt: int = 1

    @property
    def tuning(self) -> str:
        return f"block_{self.block}" if self.block else "default"

    @property
    def key(self) -> str:
        return cell_key(self.machine, self.variant, self.tuning, self.trial)

    def next_attempt(self) -> "CellTask":
        return dataclasses.replace(self, attempt=self.attempt + 1)


@dataclass(frozen=True)
class CellBatch:
    """Several small cells in one dispatch message.

    The scheduler (:func:`repro.suite.schedule.plan_batch`) groups cells
    whose estimated cost is small so a sweep pays O(batches), not
    O(cells), queue round-trips. The worker still executes and reports
    cell by cell — one :class:`CellResult` each — so heartbeat, retry,
    and resume semantics are identical to single-cell dispatch.
    """

    tasks: tuple[CellTask, ...]


@dataclass
class CellResult:
    """What a worker sends back for one completed (or failed) cell."""

    worker_id: int
    key: str
    status: str  # "ok" | "failed"
    records: list[KernelRunRecord] = field(default_factory=list)
    file: str | None = None
    profile: object | None = None  # CaliProfile (picklable region tree)
    failed_kernels: list[str] = field(default_factory=list)
    elapsed_s: float | None = None  # measured cell wall time (cost model feed)
    shm_slot: int | None = None  # profile parked in the shm ring, not pickled


def _rebuild_cell(task: CellTask):
    """Reconstitute the executor's cell from the task's names."""
    from repro.suite.executor import _Cell

    return _Cell(
        machine=get_machine(task.machine),
        variant=get_variant(task.variant),
        block=task.block,
        trial=task.trial,
        fname=task.fname,
    )


def run_cell_task(
    executor, task: CellTask, write_files: bool, shm_ring=None
) -> CellResult:
    """Execute one task through the shared cell primitive."""
    outcome = executor.run_cell(_rebuild_cell(task), write_files)
    result = CellResult(
        worker_id=-1,  # stamped by the caller
        key=task.key,
        status=outcome.status,
        records=outcome.records,
        file=str(outcome.written) if outcome.written is not None else None,
        profile=outcome.profile,
        failed_kernels=outcome.failed_kernels,
        elapsed_s=outcome.elapsed_s,
    )
    _offload_profile(result, shm_ring, outcome.payload)
    return result


def _offload_profile(result: CellResult, shm_ring, payload: bytes | None) -> None:
    """Park the result's profile bytes in the shm ring when possible.

    ``payload`` is the sealed entry the archive sink already wrote for
    this profile; only loose-file mode and corrupt-CRC entries pay for a
    second serialization. On success the pickled result crosses the
    queue without its region tree; the supervisor rebuilds it from the
    slot. Any failure (no ring, oversize payload, slot exhaustion)
    leaves the profile in the result — the queue path always works.
    """
    if shm_ring is None or result.profile is None:
        return
    from repro.caliper.cali import serialize_cali

    try:
        if payload is None:
            payload = serialize_cali(result.profile)
        slot = shm_ring.try_write(payload)
    except Exception:  # noqa: BLE001 - transport is best-effort
        slot = None
    if slot is not None:
        result.profile = None
        result.shm_slot = slot


def worker_main(
    worker_id: int,
    params: RunParams,
    task_queue,
    result_queue,
    heartbeat_queue,
    fault_specs: list[FaultSpec],
    write_files: bool,
    shm_ring=None,
    model_plan=None,
) -> None:
    """Worker process entry point (must stay importable for ``spawn``).

    ``model_plan`` is the supervisor's :class:`~repro.suite.executor.ModelPlan`,
    inherited warm from its cost-model pass.
    """
    from repro.suite.executor import SuiteExecutor

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass

    # This process runs exactly one cell at a time: no nested pools.
    params = dataclasses.replace(params, workers=1)

    injector: FaultInjector | None = None
    if fault_specs:
        injector = FaultInjector([dataclasses.replace(s) for s in fault_specs])
        injector.reset()  # fresh per-process budgets

    emitter = HeartbeatEmitter(
        worker_id, heartbeat_queue, params.effective_heartbeat_interval()
    )
    emitter.start()
    executor = SuiteExecutor(params, injector=injector, model_plan=model_plan)
    if write_files and params.pack:
        from pathlib import Path

        from repro.caliper.calipack import (
            ARCHIVE_NAME,
            ARCHIVE_SUFFIX,
            SEGMENT_DIR,
            ArchiveSink,
        )

        # Each worker appends to its own segment (no cross-process file
        # contention); refs point at the campaign archive the supervisor
        # merges the segments into on drain.
        executor.profile_sink = ArchiveSink(
            Path(params.output_dir)
            / SEGMENT_DIR
            / f"worker-{worker_id}{ARCHIVE_SUFFIX}",
            ref_archive=Path(params.output_dir) / ARCHIVE_NAME,
        )
    if write_files and params.execute:
        from repro.suite.refchecksums import ReferenceChecksumStore

        executor.refstore = ReferenceChecksumStore(params.output_dir)

    # If the supervisor dies abruptly (kill -9, a chaos os._exit) it can
    # never send poison pills, and a worker blocked on task_queue.get()
    # would idle forever. Poll with a timeout and exit when reparented.
    supervisor_pid = os.getppid()

    while True:
        try:
            item = task_queue.get(timeout=_ORPHAN_POLL_S)
        except queue_mod.Empty:
            if os.getppid() != supervisor_pid:
                break  # orphaned: our supervisor is gone
            continue
        if item is None:
            break
        tasks = item.tasks if isinstance(item, CellBatch) else (item,)
        for task in tasks:
            site = FaultSite(
                kernel="*", variant=task.variant, trial=task.trial,
                machine=task.machine,
            )
            if injector is not None:
                if injector.worker_crash(site, task.attempt) is not None:
                    os._exit(WORKER_CRASH_EXITCODE)  # the segfault equivalent
                stall = injector.stale_seconds(site, task.attempt)
                if stall:
                    emitter.suppress()
                    time.sleep(stall)  # wedged: the supervisor must kill us
            try:
                result = run_cell_task(executor, task, write_files, shm_ring)
            except ChaosCrash:  # a simulated crash must stay a crash
                raise
            except BaseException as exc:  # noqa: BLE001 - cell never dies silently
                result = CellResult(
                    worker_id=worker_id,
                    key=task.key,
                    status=STATUS_FAILED,
                    records=[
                        KernelRunRecord(
                            kernel="<worker>",
                            machine=task.machine,
                            variant=task.variant,
                            tuning=task.tuning,
                            trial=task.trial,
                            status=STATUS_FAILED,
                            attempts=task.attempt,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    ],
                    failed_kernels=["<worker>"],
                )
            result.worker_id = worker_id
            result_queue.put(result)
    if executor.profile_sink is not None:
        executor.profile_sink.close()  # seal the segment's index
    emitter.stop()
