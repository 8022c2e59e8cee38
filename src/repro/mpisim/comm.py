"""An in-process simulated MPI communicator.

The Comm kernels need real message-passing semantics (pack -> send ->
recv -> unpack must move the right bytes) without an MPI runtime.
``SimComm`` runs all ranks in one process: each rank owns a mailbox;
``isend`` deposits a copy, ``irecv`` returns a request that completes when
a matching message arrives. The analytic *cost* of communication is
charged by the timing model; this class provides the *functional*
behaviour so checksums validate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SimRequest:
    """A pending nonblocking operation."""

    kind: str  # "send" or "recv"
    peer: int
    tag: int
    buffer: np.ndarray | None = None
    completed: bool = False
    payload: np.ndarray | None = None

    def test(self) -> bool:
        return self.completed


@dataclass
class _Message:
    source: int
    tag: int
    data: np.ndarray


@dataclass
class SimComm:
    """A communicator over ``size`` simulated ranks."""

    size: int
    _mailboxes: list[deque] = field(default_factory=list)
    bytes_sent: int = 0
    messages_sent: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"communicator size must be > 0, got {self.size}")
        if not self._mailboxes:
            self._mailboxes = [deque() for _ in range(self.size)]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")

    # -------------------------------------------------------- point-to-point
    def isend(self, source: int, dest: int, data: np.ndarray, tag: int = 0) -> SimRequest:
        """Nonblocking send: the payload is copied immediately."""
        self._check_rank(source)
        self._check_rank(dest)
        payload = np.array(data, copy=True)
        self._mailboxes[dest].append(_Message(source=source, tag=tag, data=payload))
        self.bytes_sent += payload.nbytes
        self.messages_sent += 1
        return SimRequest(kind="send", peer=dest, tag=tag, completed=True)

    def irecv(self, dest: int, source: int, buffer: np.ndarray, tag: int = 0) -> SimRequest:
        """Nonblocking receive into ``buffer``; complete via :meth:`wait`."""
        self._check_rank(dest)
        self._check_rank(source)
        req = SimRequest(kind="recv", peer=source, tag=tag, buffer=buffer)
        self._try_complete(dest, req)
        if not req.completed:
            req.payload = None
            req._dest = dest  # type: ignore[attr-defined]
        return req

    def _try_complete(self, dest: int, req: SimRequest) -> None:
        box = self._mailboxes[dest]
        for i, msg in enumerate(box):
            if msg.source == req.peer and msg.tag == req.tag:
                if req.buffer is None or msg.data.shape != req.buffer.shape:
                    raise ValueError(
                        f"receive buffer shape {None if req.buffer is None else req.buffer.shape}"
                        f" does not match message shape {msg.data.shape}"
                    )
                req.buffer[:] = msg.data
                del box[i]
                req.completed = True
                return

    def wait(self, dest: int, req: SimRequest) -> None:
        """Complete a pending request (all sends complete eagerly)."""
        if req.completed:
            return
        self._try_complete(dest, req)
        if not req.completed:
            raise RuntimeError(
                f"deadlock: rank {dest} waiting on message from {req.peer} "
                f"tag {req.tag} that was never sent"
            )

    # ------------------------------------------------------------ collectives
    def allreduce_sum(self, contributions: list[float]) -> float:
        """Sum across ranks (used by reduction kernels under MPI)."""
        if len(contributions) != self.size:
            raise ValueError(
                f"expected {self.size} contributions, got {len(contributions)}"
            )
        self.messages_sent += 2 * (self.size - 1)
        return float(np.sum(contributions))

    def barrier(self) -> None:
        """No-op in-process barrier (cost handled by the timing model)."""
        self.messages_sent += self.size
