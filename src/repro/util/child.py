"""One protocol for every child process: workers, shards, job runners.

:func:`spawn` forks a child with one private duplex pipe; the parent
keeps ``Child.conn`` and closes its copy of the child's end. Every
parent end is closed in *every* forked process (``os.register_at_fork``)
— the new child, its later siblings, its own children, any fork — so
only the parent ever holds one: the child's death is EOF on ``conn``,
and the parent's death is EOF on the child's end. The child bootstrap
ignores SIGINT (shutdown is the parent's decision), puts SIGTERM back
to its default (a fork copies the parent's Python handler, which would
turn every kill into a grace-period wait and a SIGKILL) and, with
``orphan_exit``, runs one daemon thread that exits with that status on
EOF. A parent blocks in one :func:`wait` over its children's pipes and
sentinels plus a :class:`SelfPipe` its signal handlers write to. See
"Child processes" in docs/architecture.md.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from multiprocessing.connection import wait as _wait

CONTEXT = multiprocessing.get_context("fork")

#: where the child's end of its pipe goes in :func:`spawn`'s args
PIPE = object()

#: every parent end (and self-pipe) this process holds; a forked child
#: closes them all before it runs a line of its own
_ENDS: set = set()

#: set by the child bootstrap: signal routing stays the parent's
_in_child = False


def _close_inherited() -> None:
    for end in list(_ENDS):
        end.close()
    _ENDS.clear()


os.register_at_fork(after_in_child=_close_inherited)


class Child(CONTEXT.Process):
    """A process started by :func:`spawn`; ``conn`` is the parent's end
    of its private pipe (EOF once the child is dead)."""

    conn = None
    _end = None
    _orphan_exit: int | None = None

    def run(self) -> None:
        """The child bootstrap (runs after the at-fork close)."""
        global _in_child
        _in_child = True
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _ENDS.add(self._end)  # our own children must not hold it
        if self._orphan_exit is not None:
            _exit_on_eof(self._end, self._orphan_exit)
        args = [self._end if arg is PIPE else arg for arg in self._args]
        self._target(*args, **self._kwargs)

    def hang_up(self) -> None:
        """Close the parent's end: the child reads EOF."""
        _ENDS.discard(self.conn)
        self.conn.close()


def spawn(target: Callable, *args, name: str, daemon: bool = True,
          orphan_exit: int | None = None, **kwargs) -> Child:
    """Start ``target(*args, **kwargs)`` in a forked child.

    :data:`PIPE` in ``args`` stands for the child's end of its pipe.
    ``orphan_exit`` is the status the child exits with once its parent
    is gone (None: the target notices EOF in its own ``recv``). A child
    that forks children of its own must not be a ``daemon``.
    """
    process = Child(target=target, args=args, kwargs=kwargs, name=name,
                    daemon=daemon)
    process.conn, process._end = CONTEXT.Pipe()
    process._orphan_exit = orphan_exit
    _ENDS.add(process.conn)  # before the fork: the child must not hold it
    try:
        process.start()
    finally:
        process._end.close()  # only the child holds its end
    return process


def _exit_on_eof(conn, status: int) -> None:
    """Start a daemon thread that ``os._exit(status)``\\ s once ``conn``
    reads EOF (other threads may keep sending on ``conn``)."""

    def watch() -> None:
        try:
            while True:
                conn.recv_bytes()
        except (EOFError, OSError):
            os._exit(status)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def wait(children, *others, timeout: float | None = None) -> list:
    """Block until a child's pipe is readable (a message, or EOF), a
    child exits, one of ``others`` is ready, or ``timeout`` passes."""
    objects = [c.conn for c in children if not c.conn.closed]
    return _wait(objects + [c.sentinel for c in children] + list(others),
                 timeout)


def drain(process: Child) -> Iterator:
    """Yield every message waiting on the child's pipe; hang up once it
    breaks (EOF, or a message torn by its writer's death)."""
    try:
        while process.conn.poll():  # OSError once closed
            yield process.conn.recv()
    except (EOFError, OSError):
        process.hang_up()


def kill(process, grace: float = 2.0) -> None:
    """Terminate a process, escalating to SIGKILL after ``grace``
    seconds, and hang up its pipe (None: no-op)."""
    if process is None:
        return
    if process.is_alive():
        process.terminate()
        process.join(grace)
    if process.is_alive():  # pragma: no cover - SIGTERM ignored
        process.kill()
        process.join(grace)
    if isinstance(process, Child):
        process.hang_up()


class SelfPipe:
    """A wait object that any thread or signal handler can make ready."""

    def __init__(self) -> None:
        self._r, self._w = socket.socketpair()
        self._r.setblocking(False)
        self._w.setblocking(False)
        _ENDS.add(self)

    def fileno(self) -> int:
        return self._r.fileno()

    def wake(self) -> None:
        try:
            self._w.send(b"\0")
        except OSError:  # full: a wake is already pending; closed: done
            pass

    def clear(self) -> None:
        """Consume pending wakes, so the next wait blocks again."""
        try:
            while self._r.recv(4096):
                pass
        except OSError:  # drained
            pass

    def close(self) -> None:
        _ENDS.discard(self)
        self._r.close()
        self._w.close()


@contextmanager
def signals_to(handler: Callable):
    """Route SIGINT/SIGTERM to ``handler`` for the block — in a
    top-level process's main thread only: a child keeps the bootstrap's
    dispositions, so its own parent can always stop it."""
    previous = []
    if not _in_child and threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous.append((sig, signal.signal(sig, handler)))
    try:
        yield
    finally:
        for sig, old in previous:
            signal.signal(sig, old)
