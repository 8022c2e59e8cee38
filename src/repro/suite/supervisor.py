"""Supervised multi-process campaign execution.

The serial executor made one *kernel* failure survivable; this module
makes one *process* failure survivable. A campaign's (machine, variant,
tuning, trial) cells fan out to a pool of ``multiprocessing`` workers
(:mod:`repro.suite.worker`), and a single supervisor loop owns every
piece of shared state — the manifest, the report, the retry budgets —
so workers stay crash-only: they either deliver a result or die, and
either way the campaign continues.

Supervision model (the worker lifecycle state machine):

::

    spawned -> idle -> busy(cell) -> idle -> ... -> drained(poison pill)
                 |         |
                 |         +-- process exit  -> DEAD  (requeue cell, respawn)
                 |         +-- missed beats  -> STALE (kill, requeue, respawn)
                 +-- process exit -> DEAD (respawn while work remains)

* **Dead worker**: the process exited (an injected ``WORKER_CRASH``
  does ``os._exit`` — the segfault equivalent). Detected via
  ``Process.is_alive``; its in-flight cell is requeued with the next
  attempt number under the campaign's :class:`RetryPolicy` (per-cell
  backoff, jitter salted by cell key), and a replacement worker is
  spawned. A cell that exhausts ``max_attempts`` is marked failed —
  the campaign never is.
* **Stale worker**: the process is alive but its heartbeats stopped
  (wedged I/O, a hung driver, an injected ``STALE_HEARTBEAT``).
  Detected by the :class:`HeartbeatMonitor` deadline; the worker is
  killed and handled exactly like a dead one.
* **Graceful shutdown**: SIGINT/SIGTERM flip a drain flag — no new
  cells are dispatched, in-flight cells finish and are recorded, the
  manifest is flushed, workers get poison pills, and the run returns
  with ``report.interrupted`` so ``--resume`` can finish the job.

Exactly one campaign may own an output directory: the supervisor holds
the manifest's :class:`CampaignLock` (PID lease; stale leases from dead
campaigns are taken over automatically).

Scheduling (PR 10): pending cells are ordered longest-first by the
:class:`~repro.suite.costmodel.CellCostModel` estimate (``--schedule
lpt``; ``fifo`` preserves sweep order), small cells coalesce into
:class:`~repro.suite.worker.CellBatch` dispatch messages that shrink
toward single cells as the tail drains (``--batch-cells``), result
payloads ride a shared-memory ring instead of the pickled queue
(``--no-shm`` to disable), and the loop blocks on a single select-style
wait over the result/heartbeat queues and worker sentinels — it wakes
O(events), not O(elapsed/50ms). None of it changes what a campaign
produces: results are keyed by cell and the packed archive is
canonicalized, so outputs are byte-identical across every knob setting.
The cost-model pass also fills the campaign's
:class:`~repro.suite.executor.ModelPlan`, which every worker inherits, so
workers replay model output instead of evaluating the machine model.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import signal
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.points import crash_point
from repro.faults import FaultInjector, FaultSpec, active_injector
from repro.suite.costmodel import CellCostModel
from repro.suite.executor import ModelPlan
from repro.suite.heartbeat import HeartbeatMonitor
from repro.suite.schedule import (
    SCHEDULE_LPT,
    ReadyHeap,
    order_lpt,
    plan_batch,
    resolve_batch_cap,
)
from repro.suite.session import CampaignSession
from repro.suite.shm_transport import create_ring
from repro.suite.report import (
    STATUS_FAILED,
    STATUS_RETRIED,
    STATUS_SKIPPED,
    KernelRunRecord,
    RunReport,
)
from repro.suite.run_params import RunParams
from repro.suite.worker import CellBatch, CellResult, CellTask, worker_main


def _mp_context():
    """Prefer fork (cheap, Linux default); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        return multiprocessing.get_context("spawn")


@dataclass
class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    worker_id: int
    process: multiprocessing.Process
    task_queue: object  # per-worker queue: exactly-once assignment tracking
    #: in-flight cells, dispatch order. Workers execute and report in
    #: order, so after a death tasks[0] is the one that was running.
    tasks: deque = field(default_factory=deque)

    @property
    def busy(self) -> bool:
        return bool(self.tasks)

    def finish(self, key: str) -> None:
        """Drop the in-flight task a result just settled."""
        for task in self.tasks:
            if task.key == key:
                self.tasks.remove(task)
                return


class CampaignSupervisor:
    """Fan a campaign's cells out to a supervised worker pool.

    ``on_cell_complete`` is a test hook called (with the cell key) after
    each result is recorded — deterministic mid-campaign intervention
    points (e.g. raising SIGINT after the first completion) without
    sleeping against the race.
    """

    #: how long a drain waits for in-flight cells before terminating them
    DRAIN_GRACE_FACTOR = 2.0

    #: longest the event wait sleeps with nothing to wake it (a worker's
    #: first heartbeat after a long cell, say); 0.05 while draining so a
    #: shutdown stays as responsive as the seed loop
    MAX_WAIT_S = 0.5
    DRAIN_WAIT_S = 0.05

    def __init__(
        self,
        params: RunParams,
        injector: FaultInjector | None = None,
        on_cell_complete: Callable[[str], None] | None = None,
        model_plan: ModelPlan | None = None,
    ) -> None:
        if params.workers < 2:
            raise ValueError("CampaignSupervisor requires params.workers >= 2")
        self.params = params
        self.injector = injector if injector is not None else active_injector()
        self.on_cell_complete = on_cell_complete
        #: the campaign's model plan: the cost model fills it before any
        #: worker forks, so workers inherit every entry warm
        self.model_plan = model_plan if model_plan is not None else ModelPlan()
        self._shutdown = False
        self._ctx = _mp_context()
        self._next_worker_id = 0
        #: loop telemetry (asserted by tests: the loop is O(events), not
        #: O(elapsed / poll interval))
        self.loop_iterations = 0
        self.results_handled = 0

    # ------------------------------------------------------------- signals
    def _install_signal_handlers(self):
        """Route SIGINT/SIGTERM to the drain flag (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return []
        previous = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous.append((sig, signal.signal(sig, self._on_signal)))
            except (ValueError, OSError):  # pragma: no cover
                pass
        return previous

    def _on_signal(self, signum, frame) -> None:
        self._shutdown = True

    # -------------------------------------------------------------- workers
    def _spawn_worker(self, result_queue, heartbeat_queue, write_files: bool,
                      specs: list[FaultSpec], monitor: HeartbeatMonitor,
                      shm_ring=None) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                self.params,
                task_queue,
                result_queue,
                heartbeat_queue,
                specs,
                write_files,
                # fork-inherited, never pickled/re-attached (see
                # shm_transport); None under spawn or --no-shm
                shm_ring,
                self.model_plan,
            ),
            name=f"campaign-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        monitor.register(worker_id)
        return _WorkerHandle(worker_id, process, task_queue)

    @staticmethod
    def _kill(handle: _WorkerHandle) -> None:
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=2.0)

    # ------------------------------------------------------------------ run
    def run(self, cells, write_files: bool = False):
        """Execute ``cells`` on the pool; returns the executor's RunResult."""
        from repro.suite.executor import RunResult

        params = self.params
        report = RunReport()
        profiles: list = []
        paths: list[Path] = []
        session = CampaignSession(params, write_files).open()
        manifest = session.manifest
        try:
            pending: list[CellTask] = []
            for cell in cells:
                if (
                    params.resume
                    and manifest is not None
                    and manifest.is_complete(cell.key)
                ):
                    report.mark_cell(cell.key, STATUS_SKIPPED)
                    continue
                pending.append(
                    CellTask(
                        machine=cell.machine.shorthand,
                        variant=cell.variant.name,
                        block=cell.block,
                        trial=cell.trial,
                        fname=cell.fname,
                    )
                )
            costs = CellCostModel.for_params(params, self.model_plan)
            if params.schedule == SCHEDULE_LPT:
                # Longest first: the expensive cells start immediately
                # instead of landing on one worker after everyone else
                # drained, which is what strands a FIFO campaign's tail.
                pending = order_lpt(pending, costs.cost_of_task)
            if pending:
                self._run_pool(
                    pending, costs, report, profiles, paths, manifest,
                    write_files,
                )
                if manifest is not None and write_files:
                    manifest.save()
            session.finalize()
        finally:
            session.close()
        report.interrupted = self._shutdown
        return RunResult(profiles=profiles, cali_paths=paths, report=report)

    # ------------------------------------------------------------ the loop
    def _run_pool(self, pending, costs, report, profiles, paths, manifest,
                  write_files):
        params = self.params
        policy = params.retry_policy()
        specs = list(self.injector.specs) if self.injector is not None else []
        result_queue = self._ctx.Queue()
        heartbeat_queue = self._ctx.Queue()
        monitor = HeartbeatMonitor(params.heartbeat_timeout)
        # The shm ring must exist before any worker forks: workers use
        # the inherited mapping and never attach by name.
        shm_ring = create_ring(self._ctx) if params.shm else None
        batch_cap = resolve_batch_cap(params.batch_cells)
        #: cell key -> precomputed backoff waits (salted, deterministic)
        backoffs: dict[str, list[float]] = {}
        workers: dict[int, _WorkerHandle] = {}
        drain_deadline: float | None = None

        queue = ReadyHeap()
        remaining_cost = 0.0
        for task in pending:
            queue.push(task)
            remaining_cost += costs.cost_of_task(task)

        def resolve_transport(result: CellResult) -> None:
            """Rebuild a shm-parked profile (and recycle its slot)."""
            if result.shm_slot is None:
                return
            slot, result.shm_slot = result.shm_slot, None
            if shm_ring is None:  # pragma: no cover - worker had a ring, we lost it
                return
            payload = shm_ring.read(slot)
            if payload is None:
                return  # damaged slot: metadata survives, profile is lost
            from repro.caliper.cali import parse_cali_payload, profile_from_payload

            try:
                result.profile = profile_from_payload(
                    parse_cali_payload(payload, f"<shm slot {slot}>")
                )
            except ValueError:  # pragma: no cover - CRC passed, parse failed
                result.profile = None

        def record_result(result: CellResult) -> None:
            for rec in result.records:
                report.add(rec)
            report.mark_cell(result.key, result.status)
            if result.profile is not None:
                profiles.append(result.profile)
            if result.file is not None:
                paths.append(Path(result.file))
            if manifest is not None and write_files:
                manifest.record(
                    result.key,
                    result.status,
                    file=result.file,
                    failed_kernels=result.failed_kernels,
                    elapsed_s=result.elapsed_s,
                )
                manifest.save()
                crash_point("supervisor.post-record", path=manifest.path)
            if self.on_cell_complete is not None:
                self.on_cell_complete(result.key)

        def handle_worker_death(handle: _WorkerHandle, reason: str) -> None:
            """Requeue the dead/stale worker's cells under the retry policy.

            Only the in-progress cell (``tasks[0]`` — workers execute a
            batch in dispatch order) is charged an attempt; cells queued
            behind it never started and requeue verbatim.
            """
            nonlocal remaining_cost
            monitor.forget(handle.worker_id)
            workers.pop(handle.worker_id, None)
            tasks = list(handle.tasks)
            if not tasks or self._shutdown:
                return  # idle death, or draining: --resume will finish it
            task, unstarted = tasks[0], tasks[1:]
            for t in unstarted:
                queue.push(t)
                remaining_cost += costs.cost_of_task(t)
            key = task.key
            if task.attempt >= policy.max_attempts:
                report.add(
                    KernelRunRecord(
                        kernel="<worker crash>",
                        machine=task.machine,
                        variant=task.variant,
                        tuning=task.tuning,
                        trial=task.trial,
                        status=STATUS_FAILED,
                        attempts=task.attempt,
                        error=reason,
                    )
                )
                report.mark_cell(key, STATUS_FAILED)
                if manifest is not None and write_files:
                    manifest.record(
                        key, STATUS_FAILED, failed_kernels=["<worker crash>"]
                    )
                    manifest.save()
                return
            report.add(
                KernelRunRecord(
                    kernel="<worker crash>",
                    machine=task.machine,
                    variant=task.variant,
                    tuning=task.tuning,
                    trial=task.trial,
                    status=STATUS_RETRIED,
                    attempts=task.attempt,
                    error=reason,
                )
            )
            waits = backoffs.setdefault(key, list(policy.delays(salt=key)))
            wait = waits[task.attempt - 1] if task.attempt - 1 < len(waits) else 0.0
            queue.push(task.next_attempt(), ready_time=time.monotonic() + wait)
            remaining_cost += costs.cost_of_task(task)

        def wait_timeout(now: float) -> float:
            """How long the event wait may sleep: until the next thing
            the loop itself must initiate (a backoff expiry when a worker
            sits idle, a stale verdict, the drain deadline)."""
            timeout = self.DRAIN_WAIT_S if self._shutdown else self.MAX_WAIT_S
            if queue and any(not h.busy for h in workers.values()):
                next_ready = queue.next_ready_at()
                if next_ready is not None:
                    timeout = min(timeout, max(next_ready - now, 0.0))
            for handle in workers.values():
                if handle.busy:
                    seen = monitor.last_seen(handle.worker_id)
                    if seen is not None:
                        timeout = min(
                            timeout,
                            max(seen + params.heartbeat_timeout - now, 0.0),
                        )
            if drain_deadline is not None:
                timeout = min(timeout, max(drain_deadline - now, 0.0))
            return max(timeout, 0.01)

        previous_handlers = self._install_signal_handlers()
        try:
            for _ in range(min(params.workers, len(queue))):
                handle = self._spawn_worker(
                    result_queue, heartbeat_queue, write_files, specs, monitor,
                    shm_ring,
                )
                workers[handle.worker_id] = handle

            while queue or any(h.busy for h in workers.values()):
                self.loop_iterations += 1
                now = time.monotonic()
                if self._shutdown:
                    queue.drain()
                    remaining_cost = 0.0
                    if drain_deadline is None:
                        drain_deadline = now + max(
                            self.DRAIN_GRACE_FACTOR * params.heartbeat_timeout, 5.0
                        )
                    if now > drain_deadline:
                        break  # in-flight cells forfeited; --resume reruns them
                    if not any(h.busy for h in workers.values()):
                        break

                # Dispatch: a batch of ready cells per idle worker.
                for handle in workers.values():
                    if handle.busy or not queue:
                        continue
                    batch = plan_batch(
                        queue, now, costs.cost_of_task, remaining_cost,
                        params.workers, batch_cap,
                    )
                    if not batch:
                        break  # everything left is still backing off
                    remaining_cost -= sum(costs.cost_of_task(t) for t in batch)
                    handle.tasks.extend(batch)
                    monitor.beat(handle.worker_id)  # dispatch restarts the clock
                    handle.task_queue.put(
                        batch[0] if len(batch) == 1 else CellBatch(tuple(batch))
                    )

                # One blocking wait for anything that needs the loop:
                # a result, a heartbeat, a worker death (its sentinel),
                # or a deadline the supervisor must act on. O(events)
                # wakeups — an idle supervisor sleeps, it does not poll.
                self._wait_events(
                    result_queue, heartbeat_queue, workers, wait_timeout(now)
                )

                # Heartbeats: drain and stamp with the supervisor's clock.
                while True:
                    try:
                        worker_id, _seq = heartbeat_queue.get_nowait()
                    except queue_mod.Empty:
                        break
                    monitor.beat(worker_id)

                # Results: drain everything available, then re-dispatch
                # the freed workers before any liveness verdicts.
                got_result = False
                while True:
                    try:
                        result = result_queue.get_nowait()
                    except queue_mod.Empty:
                        break
                    got_result = True
                    self.results_handled += 1
                    resolve_transport(result)
                    handle = workers.get(result.worker_id)
                    if handle is not None:
                        handle.finish(result.key)
                    record_result(result)
                if got_result:
                    continue

                # Liveness: loud deaths first, then quiet (stale) ones.
                for handle in list(workers.values()):
                    if not handle.process.is_alive():
                        handle.process.join(timeout=0.5)
                        code = handle.process.exitcode
                        handle_worker_death(
                            handle, f"worker process died (exit code {code})"
                        )
                    elif handle.busy and monitor.is_stale(handle.worker_id):
                        self._kill(handle)
                        handle_worker_death(
                            handle,
                            f"worker missed heartbeat deadline "
                            f"({params.heartbeat_timeout:.3g}s)",
                        )
                # Respawn up to the pool size while work remains.
                while not self._shutdown and queue and len(workers) < min(
                    params.workers, len(queue) + sum(
                        1 for h in workers.values() if h.busy
                    )
                ):
                    handle = self._spawn_worker(
                        result_queue, heartbeat_queue, write_files, specs,
                        monitor, shm_ring,
                    )
                    workers[handle.worker_id] = handle
        finally:
            for sig, handler in previous_handlers:
                signal.signal(sig, handler)
            for handle in workers.values():
                if handle.process.is_alive():
                    try:
                        handle.task_queue.put(None)  # poison pill
                    except (OSError, ValueError):  # pragma: no cover
                        pass
            deadline = time.monotonic() + 2.0
            for handle in workers.values():
                handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
                if handle.process.is_alive():
                    self._kill(handle)
            for q in (result_queue, heartbeat_queue):
                q.cancel_join_thread()
                q.close()
            if shm_ring is not None:
                shm_ring.close()

    @staticmethod
    def _wait_events(result_queue, heartbeat_queue, workers, timeout: float) -> None:
        """Block until a queue has data, a worker dies, or ``timeout``.

        ``multiprocessing.connection.wait`` selects over the queues'
        reader pipes and every worker's process sentinel, so results,
        heartbeats, and deaths all wake the loop immediately; with
        nothing to report the supervisor just sleeps out the timeout.
        Falls back to a bounded sleep if the pipe internals are missing
        (non-CPython queue implementations).
        """
        sentries = []
        for q in (result_queue, heartbeat_queue):
            reader = getattr(q, "_reader", None)
            if reader is not None:
                sentries.append(reader)
        for handle in workers.values():
            try:
                sentries.append(handle.process.sentinel)
            except ValueError:  # pragma: no cover - process already closed
                pass
        if not sentries:  # pragma: no cover - defensive fallback
            time.sleep(min(timeout, 0.05))
            return
        try:
            from multiprocessing.connection import wait

            wait(sentries, timeout)
        except (ImportError, OSError):  # pragma: no cover - raced close
            time.sleep(min(timeout, 0.05))
