"""Supervised multi-process campaign execution.

The serial executor made one *kernel* failure survivable; this module
makes one *process* failure survivable. A campaign's (machine, variant,
tuning, trial) cells fan out to a pool of ``multiprocessing`` workers
(:mod:`repro.suite.worker`), and a single supervisor loop owns every
piece of shared state — the retry budgets here, the manifest and the
report through its :class:`~repro.suite.session.CampaignSession` — so
workers stay crash-only: they either deliver a result or die, and
either way the campaign continues.

Supervision model (the worker lifecycle state machine):

::

    spawned -> idle -> busy(cell) -> idle -> ... -> drained(poison pill)
                 |         |
                 |         +-- process exit  -> DEAD  (requeue cell, respawn)
                 |         +-- missed beats  -> STALE (kill, requeue, respawn)
                 +-- process exit -> DEAD (respawn while work remains)

* **Dead worker**: the process exited (an ``exit`` fault at the
  ``worker.pre-cell`` site does ``os._exit`` — the segfault
  equivalent). Detected via its process sentinel and
  ``Process.is_alive``, or as EOF (a message torn mid-send included)
  on its private pipe; its in-flight cell
  is requeued with the next attempt number under the campaign's
  :class:`RetryPolicy` (per-cell backoff, jitter salted by cell key),
  and a replacement worker is spawned. A cell that exhausts ``max_attempts`` is marked failed —
  the campaign never is.
* **Stale worker**: the process is alive but its heartbeats stopped
  (wedged I/O, a hung driver, a ``hang`` fault at ``worker.pre-cell``).
  Detected by the :class:`HeartbeatMonitor` deadline; the worker is
  killed and handled exactly like a dead one.
* **Graceful shutdown**: SIGINT/SIGTERM flip a drain flag — no new
  cells are dispatched, in-flight cells finish and are recorded, the
  manifest is flushed, workers get poison pills, and the run returns
  with ``report.interrupted`` so ``--resume`` can finish the job.

Workers inherit the installed :class:`~repro.faults.FaultPlan` by fork
(a spawned worker adopts ``$REPRO_FAULTS``); the supervisor hands them
no fault specs of its own.

Exactly one campaign may own an output directory: the supervisor holds
the manifest's :class:`CampaignLock` (PID lease; stale leases from dead
campaigns are taken over automatically).

Scheduling (PR 10): pending cells are ordered longest-first by the
:class:`~repro.suite.costmodel.CellCostModel` estimate (``--schedule
lpt``; ``fifo`` preserves sweep order), small cells coalesce into
:class:`~repro.suite.worker.CellBatch` dispatch messages that shrink
toward single cells as the tail drains (``--batch-cells``), and the
loop blocks in one ``multiprocessing.connection.wait`` over the workers'
pipes and process sentinels — it wakes O(events), not O(elapsed/50ms).
None of it changes what a campaign produces: results are keyed by cell
and the packed archive is canonicalized, so outputs are byte-identical
across every knob setting.

Transport: each worker owns one private duplex ``Pipe``. Cells and the
poison pill go down it; heartbeats and each
:class:`~repro.suite.session.CellOutcome`, profile included, come back
as one pickle apiece (unpickling a region tree costs the supervisor less
than re-parsing the profile's sealed ``.cali`` bytes would). Every
message read is stamped as a beat. Nothing is shared between workers —
no queue, no cross-process lock, no feeder thread — so a worker killed
mid-send breaks its own pipe and no other worker's results.
The cost-model pass also fills the campaign's
:class:`~repro.suite.executor.ModelPlan`, which every worker inherits, so
workers replay model output instead of evaluating the machine model.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing.connection import wait

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
from repro.suite.report import STATUS_FAILED, STATUS_RETRIED, KernelRunRecord
from repro.suite.run_params import RunParams
from repro.suite.session import CampaignSession, CellOutcome
from repro.suite.worker import CellBatch, CellTask, worker_main


def _mp_context():
    """Prefer fork (cheap, Linux default); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        return multiprocessing.get_context("spawn")


def _install_signal_handlers(on_signal):
    """Route SIGINT/SIGTERM to a drain flag (main thread only).

    Returns the ``(signal, previous handler)`` pairs to restore.
    """
    if threading.current_thread() is not threading.main_thread():
        return []
    previous = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous.append((sig, signal.signal(sig, on_signal)))
        except (ValueError, OSError):  # pragma: no cover
            pass
    return previous


def _drain(conn):
    """Yield every message waiting on ``conn``; close it once it breaks
    (EOF, or a message torn by its writer's death)."""
    try:
        while conn.poll():  # OSError once closed
            yield conn.recv()
    except (EOFError, OSError):
        conn.close()


def _kill(process) -> None:
    """Terminate a child process, escalating to SIGKILL (None: no-op)."""
    if process is None:
        return
    if process.is_alive():
        process.terminate()
        process.join(timeout=2.0)
    if process.is_alive():  # pragma: no cover - SIGTERM ignored
        process.kill()
        process.join(timeout=2.0)


@dataclass
class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    worker_id: int
    process: multiprocessing.Process
    #: the supervisor's end of the worker's private pipe; closed once it
    #: breaks (EOF, a torn message), after which the worker is dead to us
    conn: object
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
        on_cell_complete: Callable[[str], None] | None = None,
        model_plan: ModelPlan | None = None,
    ) -> None:
        if params.workers < 2:
            raise ValueError("CampaignSupervisor requires params.workers >= 2")
        self.params = params
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

    def _on_signal(self, signum, frame) -> None:
        self._shutdown = True

    # -------------------------------------------------------------- workers
    def _spawn_worker(self, write_files: bool,
                      monitor: HeartbeatMonitor) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.params, child_conn, write_files, self.model_plan),
            name=f"campaign-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Only the worker may hold its end: then its death reads as EOF
        # on this pipe, and workers forked later never inherit it.
        child_conn.close()
        monitor.register(worker_id)
        return _WorkerHandle(worker_id, process, conn)

    # ------------------------------------------------------------------ run
    def run(self, cells, write_files: bool = False):
        """Execute ``cells`` on the pool; returns the executor's RunResult."""
        params = self.params
        session = CampaignSession(params, write_files).open()
        try:
            pending = [CellTask.of(cell) for cell in session.pending(cells)]
            costs = CellCostModel.for_params(params, self.model_plan)
            if params.schedule == SCHEDULE_LPT:
                # Longest first: the expensive cells start immediately
                # instead of landing on one worker after everyone else
                # drained, which is what strands a FIFO campaign's tail.
                pending = order_lpt(pending, costs.cost_of_task)
            if pending:
                self._run_pool(pending, costs, session, write_files)
            session.finalize()
        finally:
            session.close()
        return session.result(interrupted=self._shutdown)

    # ------------------------------------------------------------ the loop
    def _run_pool(self, pending, costs, session, write_files):
        params = self.params
        policy = params.retry_policy()
        monitor = HeartbeatMonitor(params.heartbeat_timeout)
        batch_cap = resolve_batch_cap(params.batch_cells)
        workers: dict[int, _WorkerHandle] = {}
        drain_deadline: float | None = None

        queue = ReadyHeap()
        remaining_cost = 0.0
        for task in pending:
            queue.push(task)
            remaining_cost += costs.cost_of_task(task)

        def handle_worker_death(handle: _WorkerHandle, reason: str) -> None:
            """Requeue the dead/stale worker's cells under the retry policy.

            Only the in-progress cell (``tasks[0]`` — workers execute a
            batch in dispatch order) is charged an attempt; cells queued
            behind it never started and requeue verbatim.
            """
            nonlocal remaining_cost
            monitor.forget(handle.worker_id)
            handle.conn.close()
            workers.pop(handle.worker_id, None)
            tasks = list(handle.tasks)
            if not tasks or self._shutdown:
                return  # idle death, or draining: --resume will finish it
            task, unstarted = tasks[0], tasks[1:]
            for t in unstarted:
                queue.push(t)
                remaining_cost += costs.cost_of_task(t)
            exhausted = task.attempt >= policy.max_attempts
            record = KernelRunRecord(
                kernel="<worker crash>",
                machine=task.machine,
                variant=task.variant,
                tuning=task.tuning,
                trial=task.trial,
                status=STATUS_FAILED if exhausted else STATUS_RETRIED,
                attempts=task.attempt,
                error=reason,
            )
            if exhausted:
                session.record(CellOutcome(task.key, None, [record]))
                return
            session.report.add(record)
            delay = policy.delay(task.attempt, salt=task.key)
            queue.push(task.next_attempt(), ready_time=time.monotonic() + delay)
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

        previous_handlers = _install_signal_handlers(self._on_signal)
        try:
            for _ in range(min(params.workers, len(queue))):
                handle = self._spawn_worker(write_files, monitor)
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
                    if handle.busy or handle.conn.closed or not queue:
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
                    try:
                        handle.conn.send(
                            batch[0] if len(batch) == 1 else CellBatch(tuple(batch))
                        )
                    except OSError:  # the worker is gone: liveness requeues
                        handle.conn.close()

                # One blocking wait for anything that needs the loop:
                # a message on a worker's pipe, a worker death (EOF on
                # its pipe, its sentinel), or a deadline the supervisor
                # must act on. O(events) wakeups — an idle supervisor
                # sleeps, it does not poll.
                wait(
                    [h.conn for h in workers.values() if not h.conn.closed]
                    + [h.process.sentinel for h in workers.values()],
                    wait_timeout(now),
                )
                # Exits seen before the drain: their last messages are
                # already in their pipes, so none is lost to the verdict.
                exited = {
                    h.worker_id for h in workers.values() if not h.process.is_alive()
                }

                # Drain every pipe: each message is a beat, stamped with
                # the supervisor's clock; a CellOutcome is also a result.
                # Then re-dispatch the freed workers before any liveness
                # verdicts.
                got_result = False
                for handle in list(workers.values()):
                    for message in _drain(handle.conn):
                        monitor.beat(handle.worker_id)
                        if not isinstance(message, CellOutcome):
                            continue  # a heartbeat
                        got_result = True
                        self.results_handled += 1
                        handle.finish(message.cell_key)
                        session.record(message, point="supervisor.post-record")
                        if self.on_cell_complete is not None:
                            self.on_cell_complete(message.cell_key)
                if got_result:
                    continue

                # Liveness: loud deaths (the process exited or its pipe
                # broke) first, then quiet (stale) ones.
                for handle in list(workers.values()):
                    if handle.conn.closed or handle.worker_id in exited:
                        _kill(handle.process)  # a live one can no longer report
                        code = handle.process.exitcode
                        handle_worker_death(
                            handle, f"worker process died (exit code {code})"
                        )
                    elif handle.busy and monitor.is_stale(handle.worker_id):
                        _kill(handle.process)
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
                    handle = self._spawn_worker(write_files, monitor)
                    workers[handle.worker_id] = handle
        finally:
            for sig, handler in previous_handlers:
                signal.signal(sig, handler)
            for handle in workers.values():
                try:
                    handle.conn.send(None)  # poison pill
                except OSError:  # its pipe is closed or broken
                    pass
            deadline = time.monotonic() + 2.0
            for handle in workers.values():
                handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
                if handle.process.is_alive():
                    _kill(handle.process)
                handle.conn.close()
