"""Per-run status reporting for a campaign sweep.

The executor records one :class:`KernelRunRecord` per (kernel, cell)
with its outcome — ``ok`` on the first attempt, ``retried`` when a
transient fault was absorbed, ``failed`` when attempts ran out — plus a
per-cell status map (``skipped`` marks cells a resumed campaign did not
re-run). The report rides on :class:`~repro.suite.executor.RunResult` so
callers can tell a clean sweep from a degraded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STATUS_OK = "ok"
STATUS_RETRIED = "retried"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"

ALL_STATUSES = (STATUS_OK, STATUS_RETRIED, STATUS_FAILED, STATUS_SKIPPED)


@dataclass
class KernelRunRecord:
    """Outcome of one kernel inside one campaign cell."""

    kernel: str
    machine: str
    variant: str
    tuning: str
    trial: int
    status: str = STATUS_OK
    attempts: int = 1
    error: str | None = None
    checksum_ok: bool | None = None

    @property
    def cell(self) -> str:
        return cell_key(self.machine, self.variant, self.tuning, self.trial)


def cell_key(machine: str, variant: str, tuning: str, trial: int) -> str:
    """Canonical manifest/report key for one campaign cell."""
    return f"{machine}|{variant}|{tuning}|trial{trial}"


@dataclass
class RunReport:
    """All per-kernel outcomes of one executor invocation."""

    records: list[KernelRunRecord] = field(default_factory=list)
    #: cell key -> ok | failed | skipped
    cells: dict[str, str] = field(default_factory=dict)
    #: a SIGINT/SIGTERM drained the campaign before every cell ran
    interrupted: bool = False

    def add(self, record: KernelRunRecord) -> None:
        self.records.append(record)

    def mark_cell(self, key: str, status: str) -> None:
        if status not in ALL_STATUSES:
            raise ValueError(f"unknown cell status {status!r}")
        self.cells[key] = status

    # ------------------------------------------------------------ queries
    def counts(self) -> dict[str, int]:
        """Per-kernel status -> count (statuses with zero hits omitted)."""
        out: dict[str, int] = {}
        for record in self.records:
            out[record.status] = out.get(record.status, 0) + 1
        return out

    def cell_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for status in self.cells.values():
            out[status] = out.get(status, 0) + 1
        return out

    def with_status(self, status: str) -> list[KernelRunRecord]:
        return [r for r in self.records if r.status == status]

    @property
    def retried(self) -> list[KernelRunRecord]:
        return self.with_status(STATUS_RETRIED)

    @property
    def failed(self) -> list[KernelRunRecord]:
        return self.with_status(STATUS_FAILED)

    def checksum_mismatches(self) -> list[KernelRunRecord]:
        return [r for r in self.records if r.checksum_ok is False]

    def failed_cells(self) -> list[str]:
        return [key for key, status in self.cells.items() if status == STATUS_FAILED]

    @property
    def clean(self) -> bool:
        """True when nothing failed (retries and skips are tolerated)."""
        return not self.failed and not self.failed_cells()

    def summary(self) -> str:
        """One-paragraph human summary for CLI output."""
        if self.cells and not self.records:
            # A shard coordinator books cells; its shards ran the kernels.
            counts = self.cell_counts()
            head = f"{len(self.cells)} cells: "
        else:
            counts = self.counts()
            head = f"{len(self.records)} kernel runs across {len(self.cells)} cells: "
        parts = [f"{counts[s]} {s}" for s in ALL_STATUSES if counts.get(s)]
        lines = [head + (", ".join(parts) if parts else "nothing ran")]
        for record in self.failed:
            lines.append(
                f"  FAILED {record.kernel} [{record.cell}] "
                f"after {record.attempts} attempt(s): {record.error}"
            )
        for record in self.checksum_mismatches():
            if record.status != STATUS_FAILED:
                lines.append(
                    f"  CHECKSUM MISMATCH {record.kernel} [{record.cell}]"
                )
        skipped = self.cell_counts().get(STATUS_SKIPPED, 0)
        if skipped:
            lines.append(f"  {skipped} cell(s) skipped (already complete in manifest)")
        if self.interrupted:
            lines.append(
                "  campaign interrupted: in-flight cells drained, manifest "
                "flushed; re-invoke with --resume to finish"
            )
        return "\n".join(lines)
