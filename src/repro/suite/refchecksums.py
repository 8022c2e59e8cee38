"""Shared Base_Seq reference-checksum sidecar.

Cross-variant verification needs the kernel's Base_Seq checksum at the
execution size. The executor memoizes it in-process, but a supervised
campaign runs many worker *processes*, and each one used to recompute
every reference from scratch — pure duplicated work that grows with the
pool size. This sidecar persists the references in the campaign
directory, keyed by ``(kernel, execution size)``: the first worker to
need a reference computes and publishes it, everyone else (including a
later ``--resume``) loads it.

Writes are read-merge-write through the durable tmp+replace protocol,
so concurrent publishers cannot tear the file; collisions are benign
because the values are deterministic (a fault-free Base_Seq run).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.faults import fault_point
from repro.util.fsio import write_durable_text

SIDECAR_NAME = ".reference_checksums.json"

#: distinguishes "not stored" from a stored None (kernel without Base_Seq)
MISSING = object()


class ReferenceChecksumStore:
    """(kernel, size) -> Base_Seq checksum, persisted in the campaign dir."""

    def __init__(self, directory: str | Path) -> None:
        self.path = Path(directory) / SIDECAR_NAME

    @staticmethod
    def _key(kernel: str, size: int) -> str:
        return f"{kernel}@{size}"

    def _read(self) -> dict[str, float | None]:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def get(self, kernel: str, size: int):
        """The stored checksum, or :data:`MISSING` when never published."""
        return self._read().get(self._key(kernel, size), MISSING)

    def put(self, kernel: str, size: int, value: float | None) -> None:
        """Publish one reference (merging concurrent publishers' entries)."""
        data = self._read()
        data[self._key(kernel, size)] = value
        fault_point("refchecksums.pre-publish", path=self.path)
        try:
            write_durable_text(
                self.path, json.dumps(data, sort_keys=True, indent=0)
            )
        except OSError:  # pragma: no cover - read-only campaign dir
            pass
