"""Thread-safe, compute-once values keyed by what they derive from."""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from typing import Any

_MISSING = object()


class Derived:
    """One value per key, built on first request and kept.

    The build runs outside the lock, so a slow build never blocks
    readers of other keys; two threads racing on one key may both
    build, and the first stored value is the one every caller gets.
    Builds must therefore be pure functions of what the owner holds.
    """

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values: dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            value = build()
            with self._lock:
                value = self._values.setdefault(key, value)
        return value
