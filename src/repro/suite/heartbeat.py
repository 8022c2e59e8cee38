"""Worker liveness: heartbeat emission and staleness detection.

A supervised campaign worker can die two ways: *loudly* (the process
exits — a segfault equivalent) or *quietly* (the process is alive but
wedged — a driver hang, an NFS stall). Process exit is visible to the
supervisor directly; quiet death is only visible through missed
heartbeats. Each worker runs a daemon :class:`HeartbeatEmitter` thread
that sends a beat down the worker's private pipe on a fixed cadence;
the supervisor stamps every message it reads off that pipe (a beat or a
result) on its :class:`HeartbeatMonitor` with its *own* clock (worker
clocks are never trusted) and reports workers whose last message is
older than the deadline.

The emitter beats even while the worker's main thread is busy in a
kernel, so a long cell is not mistaken for a hang — only a genuinely
wedged or suspended process (or one whose ``STALE_HEARTBEAT`` fault
suppressed the emitter) goes stale. Shards beat up their pipe to the
shard coordinator through the same pair, keyed by shard index.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable


def beat_interval(timeout: float) -> float:
    """How often a child beats: a fifth of its staleness deadline."""
    return max(timeout / 5.0, 0.02)


class HeartbeatEmitter:
    """Daemon thread that calls ``send(seq)`` every ``interval`` seconds.

    ``send`` must be safe to call alongside the worker's own sends (the
    worker passes a lock-guarded ``Connection.send``).

    ``suppress()`` stops beats without stopping the thread — the hook
    the ``STALE_HEARTBEAT`` fault uses to simulate a wedged worker.
    """

    def __init__(self, send: Callable[[int], None], interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {interval}")
        self.send = send
        self.interval = interval
        self._stop = threading.Event()
        self._suppressed = threading.Event()
        self._seq = 0
        self._thread = threading.Thread(
            target=self._run, name="heartbeat", daemon=True
        )

    def start(self) -> None:
        self._beat()  # immediate first beat: announce liveness at startup
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._beat()

    def _beat(self) -> None:
        if self._suppressed.is_set():
            return
        self._seq += 1
        try:
            self.send(self._seq)
        except OSError:  # pipe closed: the supervisor is gone
            self._stop.set()

    def suppress(self) -> None:
        """Stop emitting (the worker now *looks* wedged to the supervisor)."""
        self._suppressed.set()

    def stop(self) -> None:
        self._stop.set()


class HeartbeatMonitor:
    """Supervisor-side staleness tracker.

    Arrival times come from the monitor's own ``clock`` — a worker's
    notion of time never enters the deadline arithmetic, so clock skew
    or a worker lying about timestamps cannot mask a hang.
    """

    def __init__(
        self, timeout: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"heartbeat timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self.clock = clock
        self._last_seen: dict[int, float] = {}

    def register(self, worker_id: int) -> None:
        """Start tracking a worker; registration counts as a beat."""
        self._last_seen[worker_id] = self.clock()

    def beat(self, worker_id: int) -> None:
        self._last_seen[worker_id] = self.clock()

    def forget(self, worker_id: int) -> None:
        self._last_seen.pop(worker_id, None)

    def last_seen(self, worker_id: int) -> float | None:
        return self._last_seen.get(worker_id)

    def is_stale(self, worker_id: int) -> bool:
        last = self._last_seen.get(worker_id)
        if last is None:
            return False
        return (self.clock() - last) > self.timeout

    def stale_workers(self) -> list[int]:
        now = self.clock()
        return [
            wid
            for wid, last in self._last_seen.items()
            if (now - last) > self.timeout
        ]
