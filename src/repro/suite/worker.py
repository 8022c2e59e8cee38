"""The supervised campaign worker: one process, one cell at a time.

``worker_main`` is the entry point the supervisor spawns through
:func:`repro.util.child.spawn`, whose bootstrap ignores SIGINT (campaign
shutdown is the supervisor's decision — the terminal's SIGINT goes to
the whole foreground process group, and a worker that died on Ctrl-C
would defeat the graceful drain) and leaves SIGTERM at its default, so
a kill is immediate. Each worker

* runs a daemon :class:`~repro.suite.heartbeat.HeartbeatEmitter` so the
  supervisor can tell "busy" from "wedged";
* inherits the installed :class:`~repro.faults.FaultPlan` by fork (or
  adopts ``$REPRO_FAULTS`` when spawned) and zeroes its cell-site
  budgets, so worker-level faults match on the cell's attempt number
  and scenarios survive respawns;
* talks to the supervisor over one private duplex pipe: it receives
  :class:`CellTask` / :class:`CellBatch` items (``None`` is the poison
  pill), executes them through :meth:`SuiteExecutor.run_cell`, and sends
  back each :class:`~repro.suite.session.CellOutcome` — profile
  included, as one pickle — interleaved with the emitter's beats. One
  lock serializes the two sending threads, so every message is whole
  unless the process dies mid-send, which the supervisor reads as this
  worker's death alone. The worker blocks in ``recv`` between cells, so
  a supervisor that dies outright is EOF there, and the worker ends.

An ``exit`` fault at the ``worker.pre-cell`` site fires *before* the
cell runs and calls ``os._exit`` with the worker-crash status — no
result, no cleanup, no atexit: the closest a Python process gets to a
segfault. The supervisor must recover from exactly this.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from dataclasses import dataclass

from repro import faults
from repro.cli.exitcodes import WORKER_CRASH
from repro.machines.registry import get_machine
from repro.suite.heartbeat import HeartbeatEmitter
from repro.suite.report import STATUS_FAILED, KernelRunRecord, cell_key
from repro.suite.run_params import RunParams
from repro.suite.session import CellOutcome
from repro.suite.variants import get_variant


@dataclass(frozen=True)
class CellTask:
    """A serializable cell (machine/variant by name): the one wire
    format a supervisor or shard coordinator sends a cell in."""

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

    @classmethod
    def of(cls, cell) -> "CellTask":
        """Serialize an executor ``_Cell``."""
        return cls(
            machine=cell.machine.shorthand,
            variant=cell.variant.name,
            block=cell.block,
            trial=cell.trial,
            fname=cell.fname,
        )

    def cell(self):
        """Reconstitute the executor's ``_Cell`` from the names."""
        from repro.suite.executor import _Cell

        return _Cell(
            machine=get_machine(self.machine),
            variant=get_variant(self.variant),
            block=self.block,
            trial=self.trial,
            fname=self.fname,
        )


@dataclass(frozen=True)
class CellBatch:
    """Several small cells in one dispatch message.

    The scheduler (:func:`repro.suite.schedule.plan_batch`) groups cells
    whose estimated cost is small so a sweep pays O(batches), not
    O(cells), queue round-trips. The worker still executes and reports
    cell by cell — one outcome each — so heartbeat, retry,
    and resume semantics are identical to single-cell dispatch.
    """

    tasks: tuple[CellTask, ...]


def worker_main(
    worker_id: int,
    params: RunParams,
    conn,
    write_files: bool,
    model_plan=None,
) -> None:
    """Worker process entry point (must stay importable for ``spawn``).

    ``model_plan`` is the supervisor's :class:`~repro.suite.executor.ModelPlan`,
    inherited warm from its cost-model pass.
    """
    from repro.suite.executor import SuiteExecutor

    # This process runs exactly one cell at a time: no nested pools.
    params = dataclasses.replace(params, workers=1)

    faults.fresh_cell_budgets()

    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:  # the heartbeat thread sends on the same pipe
            conn.send(message)

    emitter = HeartbeatEmitter(send, params.effective_heartbeat_interval())
    emitter.start()
    executor = SuiteExecutor(params, model_plan=model_plan)
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

    try:
        while True:
            item = conn.recv()  # EOF once the supervisor is gone
            if item is None:
                break
            tasks = item.tasks if isinstance(item, CellBatch) else (item,)
            for task in tasks:
                fault = faults.fault_point(
                    "worker.pre-cell",
                    where=faults.Where(
                        variant=task.variant, trial=task.trial, machine=task.machine
                    ),
                    attempt=task.attempt,
                )
                if fault is not None:
                    if fault.action == "exit":
                        os._exit(WORKER_CRASH)  # the segfault equivalent
                    emitter.suppress()
                    time.sleep(fault.hang_seconds)  # wedged: the supervisor kills us
                try:
                    outcome = executor.run_cell(task.cell(), write_files)
                except faults.ChaosCrash:  # a simulated crash must stay a crash
                    raise
                except BaseException as exc:  # noqa: BLE001 - cell never dies silently
                    outcome = CellOutcome(
                        cell_key=task.key,
                        profile=None,
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
                    )
                send(outcome)
    except (EOFError, OSError):
        pass  # the supervisor closed its end of the pipe, or died
    if executor.profile_sink is not None:
        executor.profile_sink.close()  # seal the segment's index
    emitter.stop()
