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
* **Graceful shutdown**: SIGINT/SIGTERM flip a drain flag and end the
  loop's wait through its self-pipe — no new cells are dispatched,
  in-flight cells finish and are recorded, the manifest is flushed,
  workers get poison pills, and the run returns with
  ``report.interrupted`` so ``--resume`` can finish the job.

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
loop blocks in one :func:`repro.util.child.wait` over the workers'
pipes, their process sentinels and its self-pipe — it wakes O(events),
not O(elapsed/50ms).
None of it changes what a campaign produces: results are keyed by cell
and the packed archive is canonicalized, so outputs are byte-identical
across every knob setting.

Transport: each worker is a :func:`repro.util.child.spawn` child with
one private duplex pipe. Cells and the poison pill go down it;
heartbeats and each :class:`~repro.suite.session.CellOutcome`, profile
included, come back as one pickle apiece (unpickling a region tree
costs the supervisor less than re-parsing the profile's sealed ``.cali``
bytes would). Every
message read is stamped as a beat. Nothing is shared between workers —
no queue, no cross-process lock, no feeder thread — so a worker killed
mid-send breaks its own pipe and no other worker's results, and a
supervisor killed outright is EOF in every worker's blocking ``recv``.
The cost-model pass also fills the campaign's
:class:`~repro.suite.executor.ModelPlan`, which every worker inherits, so
workers replay model output instead of evaluating the machine model.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

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
from repro.util import child


@dataclass
class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    worker_id: int
    #: the worker process; its ``conn`` (the supervisor's end of its
    #: pipe) is closed once it breaks (EOF, a torn message), after which
    #: the worker is dead to us
    process: child.Child
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
    #: first heartbeat after a long cell, say)
    MAX_WAIT_S = 0.5

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
        #: ends the loop's wait on SIGINT/SIGTERM (exists while it runs)
        self._wake: child.SelfPipe | None = None
        self._next_worker_id = 0
        #: loop telemetry (asserted by tests: the loop is O(events), not
        #: O(elapsed / poll interval))
        self.loop_iterations = 0
        self.results_handled = 0

    def _on_signal(self, signum, frame) -> None:
        self._shutdown = True
        if self._wake is not None:
            self._wake.wake()

    # -------------------------------------------------------------- workers
    def _spawn_worker(self, write_files: bool,
                      monitor: HeartbeatMonitor) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = child.spawn(
            worker_main, worker_id, self.params, child.PIPE, write_files,
            self.model_plan, name=f"campaign-worker-{worker_id}",
        )
        monitor.register(worker_id)
        return _WorkerHandle(worker_id, process)

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
                with child.signals_to(self._on_signal):
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
            handle.process.hang_up()
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
            timeout = self.MAX_WAIT_S
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

        wake = self._wake = child.SelfPipe()
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
                    conn = handle.process.conn
                    if handle.busy or conn.closed or not queue:
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
                        conn.send(
                            batch[0] if len(batch) == 1 else CellBatch(tuple(batch))
                        )
                    except OSError:  # the worker is gone: liveness requeues
                        handle.process.hang_up()

                # One blocking wait for anything that needs the loop:
                # a message on a worker's pipe, a worker death (EOF on
                # its pipe, its sentinel), a signal, or a deadline the
                # supervisor must act on. O(events) wakeups — an idle
                # supervisor sleeps, it does not poll.
                if wake in child.wait(
                    [h.process for h in workers.values()], wake,
                    timeout=wait_timeout(now),
                ):
                    wake.clear()
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
                    for message in child.drain(handle.process):
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
                    if handle.process.conn.closed or handle.worker_id in exited:
                        child.kill(handle.process)  # a live one can no longer report
                        code = handle.process.exitcode
                        handle_worker_death(
                            handle, f"worker process died (exit code {code})"
                        )
                    elif handle.busy and monitor.is_stale(handle.worker_id):
                        child.kill(handle.process)
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
            self._wake = None
            wake.close()
            for handle in workers.values():
                try:
                    handle.process.conn.send(None)  # poison pill
                except OSError:  # its pipe is closed or broken
                    pass
            deadline = time.monotonic() + 2.0
            for handle in workers.values():
                handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
                child.kill(handle.process)
