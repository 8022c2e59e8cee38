"""Crash-safe retention: tombstoned GC of terminal jobs + compaction.

The service retains every terminal job's campaign directory until this
subsystem reclaims it. Reclamation is governed by a
:class:`RetentionPolicy` (age / count / per-tenant bytes) and executed
as a **two-phase tombstone delete**, so a crash at any byte leaves a
job either fully live or provably condemned — never half-deleted:

1. **Condemn.** A CRC-sealed ``jobs/<id>.tombstone`` is written with
   the full durable protocol (``retention.pre-tombstone`` fires before
   any byte lands: a strike here leaves the job untouched).
2. **Reclaim.** The campaign directory is removed bottom-up
   (``retention.mid-delete`` fires before every unlink: a strike here
   leaves a partially-removed directory *plus* the sealed tombstone),
   then — only once the directory is gone — the record, lease, cancel
   and pin markers, and finally the tombstone itself.

Recovery is :func:`complete_tombstones` — run by every GC pass and by
fsck's job-store audit, the one place an interrupted reclamation is
finished, refused or reported: any sealed tombstone found on disk has
its reclamation finished; a damaged tombstone condemns nothing and is
backed up as forensics. Selection never condemns a non-terminal job, a
pinned job (``jobs/<id>.pin``), or a job whose lease is held by a live
scheduler; terminal states are absorbing, so a job observed terminal
stays terminal — a cancel racing a GC either lands before the job is
terminal (GC skips it) or after (the cancel is a no-op marker fsck
sweeps).

**Archive compaction** rewrites a ``.calipack`` dropping superseded
last-wins duplicate frames and damaged (truncated/corrupt) entries:
survivors are rebuilt name-sorted into a ``*.compact-scratch`` sibling,
sealed, and atomically swapped in (``retention.pre-compact-swap`` fires
between seal and swap — a strike leaves the original archive
bit-identical and an orphan scratch for fsck to sweep). Every entry
readable before compaction is byte-identical after it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.faults import fault_point
from repro.service.jobstore import (
    JobRecord,
    JobStore,
    TombstoneDamaged,
    warn_damaged,
)
from repro.util.fsio import back_up, durable_replace, fsync_dir

#: suffix of compaction's in-flight rebuild sibling (fsck sweeps orphans)
COMPACT_SCRATCH_SUFFIX = ".compact-scratch"

#: why a reclamation stopped short (gc's skip reason, fsck's note)
LEFT_CAMPAIGN_DIR = (
    "left its campaign directory (written during the walk); the "
    "tombstone stays for the next pass"
)


#: what :func:`complete_tombstones` did with one tombstone
COMPLETED = "completed"  # reclaimed, tombstone gone
LEFT = "left"  # the campaign directory survived the walk: tombstone stays
REFUSED = "refused"  # its record is not terminal: nothing is destroyed
DAMAGED = "damaged"  # fails its seal: condemns nothing
PENDING = "pending"  # sealed; a report-only pass leaves it for repair


@dataclass(frozen=True)
class TombstoneOutcome:
    """One tombstone's fate; ``detail`` is the seal error (damaged) or
    the record's state (refused)."""

    job_id: str
    status: str
    detail: str = ""


# ---------------------------------------------------------------- policy
@dataclass(frozen=True)
class RetentionPolicy:
    """What terminal jobs GC may reclaim; ``None`` disables a rule.

    * ``max_age_s`` — collect terminal jobs untouched for longer.
    * ``max_terminal_jobs`` — keep at most this many terminal jobs
      (newest kept; pinned jobs count toward the bound but are never
      collected).
    * ``max_tenant_bytes`` — collect a tenant's oldest terminal jobs
      until its terminal campaign bytes fit the budget.
    """

    max_age_s: float | None = None
    max_terminal_jobs: int | None = None
    max_tenant_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_age_s is not None and self.max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {self.max_age_s}")
        if self.max_terminal_jobs is not None and self.max_terminal_jobs < 0:
            raise ValueError(
                f"max_terminal_jobs must be >= 0, got {self.max_terminal_jobs}"
            )
        if self.max_tenant_bytes is not None and self.max_tenant_bytes < 0:
            raise ValueError(
                f"max_tenant_bytes must be >= 0, got {self.max_tenant_bytes}"
            )

    @property
    def enabled(self) -> bool:
        return (
            self.max_age_s is not None
            or self.max_terminal_jobs is not None
            or self.max_tenant_bytes is not None
        )


# ---------------------------------------------------------------- reports
@dataclass
class GCReport:
    """One GC pass's outcome, machine-readable and summarizable."""

    root: Path
    dry_run: bool = False
    #: tombstone completions from a *previous* interrupted pass
    completed: list[str] = field(default_factory=list)
    #: jobs collected this pass: {job_id, tenant, reason, bytes}
    collected: list[dict[str, Any]] = field(default_factory=list)
    #: candidates refused at the final re-check: (job_id, why)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    #: archive compactions performed: CompactionReport per archive
    compacted: list["CompactionReport"] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def reclaimed_bytes(self) -> int:
        return sum(int(c.get("bytes", 0)) for c in self.collected)

    def to_payload(self) -> dict[str, Any]:
        return {
            "root": str(self.root),
            "dry_run": self.dry_run,
            "completed": list(self.completed),
            "collected": list(self.collected),
            "skipped": [list(s) for s in self.skipped],
            "compacted": [c.to_payload() for c in self.compacted],
            "reclaimed_bytes": self.reclaimed_bytes,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        verb = "would collect" if self.dry_run else "collected"
        out = [
            f"gc {self.root}: {verb} {len(self.collected)} job(s), "
            f"{self.reclaimed_bytes} byte(s)"
            + (
                f"; completed {len(self.completed)} interrupted "
                "reclamation(s)"
                if self.completed
                else ""
            )
        ]
        for item in self.collected:
            out.append(
                f"  {verb} {item['job_id']} ({item['tenant']}, "
                f"{item['bytes']} bytes): {item['reason']}"
            )
        for job_id, why in self.skipped:
            out.append(f"  skipped {job_id}: {why}")
        for comp in self.compacted:
            out.append("  " + comp.summary())
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)


@dataclass
class CompactionReport:
    """One archive compaction's outcome."""

    archive: Path
    entries_kept: int = 0
    superseded_dropped: int = 0
    damaged_dropped: list[str] = field(default_factory=list)
    bytes_before: int = 0
    bytes_after: int = 0
    swapped: bool = False
    dry_run: bool = False

    def to_payload(self) -> dict[str, Any]:
        return {
            "archive": str(self.archive),
            "entries_kept": self.entries_kept,
            "superseded_dropped": self.superseded_dropped,
            "damaged_dropped": list(self.damaged_dropped),
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "swapped": self.swapped,
            "dry_run": self.dry_run,
        }

    def summary(self) -> str:
        verb = (
            "would compact"
            if self.dry_run
            else ("compacted" if self.swapped else "already compact")
        )
        return (
            f"{verb} {self.archive.name}: {self.entries_kept} entr(ies) "
            f"kept, {self.superseded_dropped} superseded + "
            f"{len(self.damaged_dropped)} damaged dropped, "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )


# ------------------------------------------------------------- selection
def _epoch(stamp: str) -> float | None:
    """The wallclock record stamp as an epoch; None when unparseable."""
    try:
        return time.mktime(time.strptime(stamp, "%Y-%m-%dT%H:%M:%S"))
    except (ValueError, OverflowError):
        return None


def _eligible(store: JobStore, record: JobRecord) -> str | None:
    """Why the job may NOT be collected, or None when it is fair game."""
    if not record.terminal:
        return f"not terminal (state {record.state})"
    if store.pinned(record.job_id):
        return "pinned"
    if store.lease_holder_alive(record.job_id):
        return "lease held by a live process"
    return None


def select_candidates(
    store: JobStore,
    policy: RetentionPolicy,
    now: float | None = None,
    repair: bool = True,
) -> list[tuple[JobRecord, str]]:
    """Jobs the policy condemns, oldest-first, with human reasons.

    Selection reads: nothing is condemned until :func:`collect_job`
    re-verifies eligibility and writes the tombstone, and a damaged
    record is backed up only with ``repair``. Pinned and lease-held
    terminal jobs are never selected but still count toward the
    count/byte budgets they occupy.
    """
    if now is None:
        now = time.time()

    # Oldest-first by submission wallclock: the store's seq counter only
    # advances for auto-named jobs, so caller-named jobs all tie on it —
    # created_at is the ordering that means "oldest", with (seq, id) as
    # the deterministic tie-break inside one second.
    def _age_key(record: JobRecord) -> tuple[float, int, str]:
        return (_epoch(record.created_at) or 0.0, record.seq, record.job_id)

    terminal = [r for r in store.list_jobs(repair=repair) if r.terminal]
    terminal.sort(key=_age_key)
    eligible = [r for r in terminal if _eligible(store, r) is None]
    chosen: dict[str, tuple[JobRecord, str]] = {}

    if policy.max_age_s is not None:
        for record in eligible:
            stamp = _epoch(record.updated_at)
            if stamp is None:
                continue
            age = now - stamp
            if age > policy.max_age_s:
                chosen.setdefault(
                    record.job_id,
                    (
                        record,
                        f"age {age:.0f}s exceeds max_age_s "
                        f"{policy.max_age_s:.0f}",
                    ),
                )

    if policy.max_terminal_jobs is not None:
        # Keep the newest N: walk oldest-first, and let pinned or
        # lease-held occupants consume excess slots without being
        # collected — pinning a job must never doom a newer one.
        eligible_ids = {r.job_id for r in eligible}
        excess = len(terminal) - policy.max_terminal_jobs
        for record in terminal:
            if excess <= 0:
                break
            excess -= 1
            if record.job_id in eligible_ids:
                chosen.setdefault(
                    record.job_id,
                    (
                        record,
                        f"{len(terminal)} terminal job(s) exceed "
                        f"max_terminal_jobs {policy.max_terminal_jobs}",
                    ),
                )

    if policy.max_tenant_bytes is not None:
        from repro.service.admission import directory_bytes

        usage: dict[str, int] = {}
        per_job: dict[str, int] = {}
        for record in terminal:
            size = directory_bytes(store.campaign_dir(record.job_id))
            per_job[record.job_id] = size
            usage[record.tenant] = usage.get(record.tenant, 0) + size
        for record in eligible:
            total = usage[record.tenant]
            if total <= policy.max_tenant_bytes:
                continue
            usage[record.tenant] = total - per_job[record.job_id]
            chosen.setdefault(
                record.job_id,
                (
                    record,
                    f"tenant '{record.tenant}' holds {total} byte(s), "
                    f"limit {policy.max_tenant_bytes}",
                ),
            )

    ordered = sorted(chosen.values(), key=lambda c: _age_key(c[0]))
    return ordered


# ------------------------------------------------------------ collection
def _remove_tree(store: JobStore, root: Path) -> bool:
    """Bottom-up removal with a crash boundary before every unlink.

    True when the tree is gone. False when something was written into
    it during the walk (the HTTP thread's ingest cache, say): the next
    pass walks it again.
    """
    if not root.exists():
        return True
    for dirpath, dirnames, filenames in os.walk(str(root), topdown=False):
        for fname in sorted(filenames):
            target = Path(dirpath) / fname
            fault_point("retention.mid-delete", path=target)
            target.unlink(missing_ok=True)
        for dname in sorted(dirnames):
            try:
                (Path(dirpath) / dname).rmdir()
            except OSError:
                pass  # a crashed pass left residue below; re-walked next time
    try:
        root.rmdir()
    except OSError:
        return False
    fsync_dir(root.parent)
    return True


def reclaim(store: JobStore, job_id: str) -> bool:
    """Phase two: destroy everything a sealed tombstone condemns.

    Idempotent and resumable — any interrupted invocation is finished
    by the next :func:`complete_tombstones` pass. The tombstone itself
    is removed *last*: its presence is the only thing that authorizes
    re-entering this function. So while any of the campaign directory
    is left, nothing else is removed and the result is False.
    """
    if not _remove_tree(store, store.campaign_dir(job_id)):
        return False
    store.lease_path(job_id).unlink(missing_ok=True)
    store.cancel_path(job_id).unlink(missing_ok=True)
    store.pin_path(job_id).unlink(missing_ok=True)
    store.record_path(job_id).unlink(missing_ok=True)
    store.tombstone_path(job_id).unlink(missing_ok=True)
    fsync_dir(store.jobs_dir)
    return True


def collect_job(store: JobStore, job_id: str, reason: str = "") -> bool:
    """Two-phase collection of one job; True once it is gone.

    False when the job is ineligible (nothing is written) or when the
    reclamation left the campaign directory (the sealed tombstone stays,
    and the next :func:`complete_tombstones` pass finishes the job).

    Eligibility is re-checked immediately before the tombstone lands
    (terminal states are absorbing, so a job observed terminal here can
    never go non-terminal between the check and the condemnation).
    """
    record = store.load(job_id)
    if record is None:
        return False
    if _eligible(store, record) is not None:
        return False
    fault_point(
        "retention.pre-tombstone", path=store.tombstone_path(job_id)
    )
    store.write_tombstone(record, reason or "retention policy")
    return reclaim(store, job_id)


def complete_tombstones(
    store: JobStore, repair: bool = True
) -> list[TombstoneOutcome]:
    """Finish every interrupted reclamation a sealed tombstone proves.

    A tombstone whose record is somehow *non-terminal* (a protocol
    violation that cannot arise from this module) is refused — the
    destructive path only ever runs with proof. With ``repair`` off
    nothing is written: sealed tombstones stay pending, and damaged or
    refused ones are not backed up.
    """
    outcomes = []
    for job_id in store.list_tombstone_ids():
        try:
            if store.read_tombstone(job_id, repair) is None:
                continue  # reclaimed by a racing pass
        except TombstoneDamaged as exc:
            warn_damaged(exc, repair)
            outcomes.append(TombstoneOutcome(job_id, DAMAGED, str(exc)))
            continue
        record = store.load(job_id, repair)
        if record is not None and not record.terminal:
            if repair:
                back_up(store.tombstone_path(job_id))
            outcomes.append(TombstoneOutcome(job_id, REFUSED, record.state))
        elif not repair:
            outcomes.append(TombstoneOutcome(job_id, PENDING))
        else:
            done = reclaim(store, job_id)
            outcomes.append(TombstoneOutcome(job_id, COMPLETED if done else LEFT))
    return outcomes


# ------------------------------------------------------------------- gc
def gc(
    root: str | Path | JobStore,
    policy: RetentionPolicy,
    dry_run: bool = False,
    now: float | None = None,
    compact: bool = False,
) -> GCReport:
    """One full GC pass: finish interrupted work, select, collect.

    ``dry_run`` reports what *would* be collected without writing a
    single byte (interrupted reclamations are reported, not finished).
    ``compact`` additionally compacts every surviving terminal job's
    sealed campaign archive.
    """
    store = root if isinstance(root, JobStore) else JobStore(root)
    report = GCReport(root=store.root, dry_run=dry_run)
    outcomes = complete_tombstones(store, repair=not dry_run)
    report.completed = [o.job_id for o in outcomes if o.status == COMPLETED]
    pending = [o.job_id for o in outcomes if o.status in (PENDING, REFUSED)]
    if dry_run and pending:
        report.notes.append(
            f"{len(pending)} interrupted reclamation(s) pending: "
            + ", ".join(pending)
        )

    from repro.service.admission import directory_bytes

    candidates = select_candidates(store, policy, now=now, repair=not dry_run)
    for record, reason in candidates:
        size = directory_bytes(store.campaign_dir(record.job_id))
        if dry_run or collect_job(store, record.job_id, reason):
            report.collected.append({
                "job_id": record.job_id,
                "tenant": record.tenant,
                "reason": reason,
                "bytes": size,
            })
        elif store.tombstone_path(record.job_id).exists():
            report.skipped.append((record.job_id, LEFT_CAMPAIGN_DIR))
        else:
            report.skipped.append(
                (record.job_id, "ineligible at final re-check")
            )

    if compact:
        from repro.caliper.calipack import ARCHIVE_NAME

        collected = {c["job_id"] for c in report.collected}
        for record in store.list_jobs(repair=not dry_run):
            if not record.terminal or record.job_id in collected:
                continue
            archive = store.campaign_dir(record.job_id) / ARCHIVE_NAME
            if not archive.is_file():
                continue
            try:
                report.compacted.append(
                    compact_archive(archive, dry_run=dry_run)
                )
            except (OSError, ValueError) as exc:
                report.notes.append(f"compaction of {archive} failed: {exc}")
    return report


# ------------------------------------------------------------ compaction
def compaction_scratch(archive: Path) -> Path:
    """Compaction's in-flight rebuild sibling (unique per process)."""
    return archive.with_name(
        f"{archive.name}.{os.getpid()}{COMPACT_SCRATCH_SUFFIX}"
    )


def compact_archive(
    archive: str | Path, dry_run: bool = False
) -> CompactionReport:
    """Rewrite an archive without superseded duplicates or damage.

    Surviving entries are re-read with their frame CRCs and rebuilt
    name-sorted into a sealed scratch sibling; the swap is a single
    atomic ``os.replace``. When the rebuilt bytes equal the current
    bytes the swap is skipped — compaction is idempotent and a
    no-change pass leaves the archive's inode untouched. Every entry
    readable before the compaction is byte-identical after it.
    """
    from repro.caliper.calipack import (
        read_entry_bytes,
        scan_frames,
        verify_entry,
        write_archive,
    )

    path = Path(archive)
    report = CompactionReport(
        archive=path, bytes_before=path.stat().st_size, dry_run=dry_run
    )
    frames, _ = scan_frames(path)
    latest: dict[str, Any] = {}
    for entry in frames:
        latest[entry.name] = entry
    report.superseded_dropped = len(frames) - len(latest)

    kept: dict[str, bytes] = {}
    for name in sorted(latest):
        entry = latest[name]
        status, _detail = verify_entry(path, entry)
        if status in ("truncated", "corrupt"):
            report.damaged_dropped.append(name)
            continue
        kept[name] = read_entry_bytes(path, entry, verify=False)
    report.entries_kept = len(kept)

    if dry_run:
        report.bytes_after = report.bytes_before
        return report

    scratch = compaction_scratch(path)
    # Always rebuild from scratch: a leftover sibling from a crashed
    # pass of this same process must not be resumed into (the writer's
    # resume semantics would keep its frames as superseded duplicates).
    scratch.unlink(missing_ok=True)
    # Frames from a raw scan carry no verified schema: the seal parses them.
    write_archive(scratch, (
        (name, data, None) for name, data in sorted(kept.items())
    ))
    fault_point("retention.pre-compact-swap", path=path, torn_file=scratch)
    rebuilt = scratch.read_bytes()
    if rebuilt == path.read_bytes():
        scratch.unlink(missing_ok=True)
        report.bytes_after = report.bytes_before
        report.swapped = False
    else:
        durable_replace(scratch, path)
        report.bytes_after = len(rebuilt)
        report.swapped = True
    return report
