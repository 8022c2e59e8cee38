"""Bounded retry with exponential backoff + deterministic jitter.

Transient faults (a wobbly filesystem, a one-off kernel exception, a
corrupted checksum) deserve a few more attempts before a cell is written
off; correlated retries across a campaign's many cells deserve jitter.
The jitter stream is seeded so a replayed campaign backs off identically
— determinism is what makes the fault-injection tests assertable.

Each call site passes its own ``salt`` (the cell/kernel key) to
``delays``, or to ``delay`` for one attempt's wait: the stream seed is
derived from ``seed ^ crc32(salt)``, so two cells failing at the same
moment back off *differently* (no thundering-herd retries against a
shared filesystem) while a replayed campaign still sees identical waits
per site.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a kernel/write gets and how long to wait between.

    ``delays(salt)`` yields ``max_attempts - 1`` waits: ``base_delay``
    doubled per attempt (capped at ``max_delay``), plus a uniformly
    drawn jitter of up to ``jitter`` times the delay, from a stream
    seeded with ``seed ^ crc32(salt)`` — per-site decorrelation,
    per-replay determinism.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 20240

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def stream_seed(self, salt: object = None) -> int:
        """The jitter-stream seed for one call site (``None`` = base seed)."""
        if salt is None:
            return self.seed
        return self.seed ^ (zlib.crc32(str(salt).encode("utf-8")) & 0xFFFFFFFF)

    def delays(self, salt: object = None) -> Iterator[float]:
        rng = random.Random(self.stream_seed(salt))
        for attempt in range(self.max_attempts - 1):
            delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
            yield delay + (rng.uniform(0.0, self.jitter * delay) if self.jitter else 0.0)

    def delay(self, attempt: int, salt: object = None) -> float:
        """The wait after failed ``attempt`` (1-based) at one call site:
        ``delays(salt)``'s entry for it, 0.0 past the last."""
        return next(islice(self.delays(salt), attempt - 1, None), 0.0)
