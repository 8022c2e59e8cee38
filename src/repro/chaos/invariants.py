"""The crash-consistency invariants the chaos runner machine-checks.

Stated once, checked after every recovery phase of every trial:

**I1 — sealed data is never silently altered.** Every profile that was
sealed (CRC-verified) before the crash is, after recovery, either still
present with the same content CRC or sitting in ``quarantine/`` with its
original name. It is never missing and never readable-with-other-bytes.

**I2 — the manifest never loses a completed cell.** Every cell the
manifest recorded ``ok`` before the crash still exists in the manifest
afterwards (fsck may demote it to re-run when its profile was damaged,
but the ledger never forgets it), and after ``run --resume`` it is
``ok`` again.

**I3 — resume converges.** After ``fsck`` + ``run --resume`` the
manifest records the campaign's *full* cell set ``ok`` and a second
``fsck`` finds nothing to repair.

**I4 — recovery is analysis-equivalent.** The Thicket composed from the
recovered campaign is :meth:`~repro.dataframe.Frame.equals`-identical
to the one composed from an uncrashed golden campaign, on every ingest
path (serial, parallel, packed, warm cache), with no load errors.

**I5 — a recovered sharded campaign is coherent end to end** (see
:func:`check_shard_campaign`).

**I6 — the job service loses nothing and duplicates nothing.** After a
kill-anywhere of the service daemon, a restarted scheduler converges
every job record to a consistent state: every record parses with its
seal intact, every job reaches a terminal state (SUCCEEDED for the
chaos job), no campaign directory exists that no job record accounts
for (no duplicated campaign work), every SUCCEEDED job's campaign
records its full expected cell set ``ok`` (no lost work), and no
terminal job still holds a live scheduler lease.

**I7 — retention never half-deletes and compaction never alters what a
reader resolves.** After a GC/compaction pass crashed anywhere and
recovery ran, every job is *fully live* (sealed record present, every
pre-GC sealed profile byte-identical, no tombstone) or *fully
reclaimed* (no record, no tombstone, no campaign directory, no
markers) — never in between. A surviving job's compacted archive
resolves every pre-compaction readable entry to identical bytes.

Each check returns a list of violation strings — empty means the
invariant holds. The checks only ever *read* the campaign directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.caliper import calipack
from repro.caliper.cali import STATUS_OK, sealed_crc32, verify_cali
from repro.suite.fsck import QUARANTINE_DIR
from repro.suite.manifest import MANIFEST_NAME, CampaignManifest

#: metric columns that exist only under real execution and are measured
#: (wall clock), hence legitimately differ between two correct runs
VOLATILE_COLUMNS = ("wall time (executed)", "setup time (executed)")


@dataclass
class StoreSnapshot:
    """What the durable store vouched for at one instant."""

    #: sealed profile name -> crc32 hex (loose files and archive entries)
    profiles: dict[str, str] = field(default_factory=dict)
    #: manifest cell keys recorded ``ok``
    ok_cells: set[str] = field(default_factory=set)


def _archive_paths(directory: Path) -> list[Path]:
    archives = sorted(directory.glob("*" + calipack.ARCHIVE_SUFFIX))
    seg_dir = directory / calipack.SEGMENT_DIR
    if seg_dir.is_dir():
        archives += sorted(seg_dir.glob("*" + calipack.ARCHIVE_SUFFIX))
    # A sharded campaign's entries may sit in per-shard archives (and
    # their segments) before the shard merge lands them in the campaign
    # archive.
    shard_root = directory / "shards"
    if shard_root.is_dir():
        for shard_dir in sorted(shard_root.iterdir()):
            if shard_dir.is_dir():
                archives += _archive_paths(shard_dir)
    return archives


def snapshot_store(directory: str | Path) -> StoreSnapshot:
    """Record every *verified-sealed* profile and every ``ok`` cell.

    Only profiles whose seal checks out are recorded: an in-flight or
    torn write was never vouched for, so losing it is not a violation.
    Archive entries are verified against both the index CRC and their
    own seal; footer-less archives go through the salvage scan.
    """
    directory = Path(directory)
    snap = StoreSnapshot()
    for path in sorted(directory.glob("*.cali")):
        try:
            status, _ = verify_cali(path)
        except OSError:
            continue
        if status == STATUS_OK:
            snap.profiles[path.name] = f"{sealed_crc32(path):08x}"
    for archive in _archive_paths(directory):
        try:
            entries = calipack.load_entries(archive)
        except (calipack.CalipackError, OSError):
            continue
        for entry in entries:
            try:
                status, _ = calipack.verify_entry(archive, entry)
            except OSError:
                continue
            if status == STATUS_OK:
                snap.profiles[entry.name] = entry.crc_hex
    snap.ok_cells = {
        key
        for key, cell in (_manifest_cells(directory) or {}).items()
        if isinstance(cell, dict) and cell.get("status") == "ok"
    }
    return snap


def _manifest_cells(directory: Path) -> dict[str, dict] | None:
    """The manifest's cells, ledger replayed; None if missing/unreadable."""
    try:
        manifest = CampaignManifest.read(directory / MANIFEST_NAME)
    except (OSError, ValueError):
        return None
    return manifest.cells if manifest is not None else None


# ------------------------------------------------------------------ checks
def check_sealed_preserved(
    pre: StoreSnapshot, directory: str | Path, check_crc: bool = True
) -> list[str]:
    """I1: every pre-crash sealed profile survives or is quarantined.

    ``check_crc=False`` relaxes the byte identity to name presence —
    needed when a resumed campaign legitimately *re-executes* a cell
    whose measured wall time reseals the profile with a new CRC.
    """
    directory = Path(directory)
    post = snapshot_store(directory)
    qdir = directory / QUARANTINE_DIR
    violations = []
    for name, crc in pre.profiles.items():
        if name in post.profiles:
            if not check_crc or post.profiles[name] == crc:
                continue
            # Re-sealed in place: only legitimate if the manifest owns
            # the cell again (resume re-ran it); flagged otherwise.
            violations.append(
                f"sealed profile {name} silently altered: "
                f"crc {crc} -> {post.profiles[name]}"
            )
            continue
        if (qdir / name).exists():
            continue  # preserved for forensics, with its reason in fsck
        violations.append(
            f"sealed profile {name} (crc {crc}) lost: "
            "neither readable nor quarantined"
        )
    return violations


def check_completed_cells_remembered(
    pre: StoreSnapshot, directory: str | Path
) -> list[str]:
    """I2 (post-crash half): no pre-crash ``ok`` cell vanished."""
    cells = _manifest_cells(Path(directory))
    if cells is None:
        if pre.ok_cells:
            return [
                f"manifest unreadable/missing; {len(pre.ok_cells)} "
                "completed cell(s) forgotten"
            ]
        return []
    return [
        f"completed cell {key} vanished from the manifest"
        for key in sorted(pre.ok_cells)
        if key not in cells
    ]


def check_full_cell_set(
    expected_keys: set[str], directory: str | Path
) -> list[str]:
    """I3: after resume, every expected cell is recorded ``ok``."""
    cells = _manifest_cells(Path(directory))
    if cells is None:
        return [f"no readable manifest in {directory}"]
    violations = []
    for key in sorted(expected_keys):
        status = cells.get(key, {}).get("status")
        if status != "ok":
            violations.append(
                f"cell {key} is {status!r} after resume, expected 'ok'"
            )
    for key in sorted(set(cells) - expected_keys):
        violations.append(f"manifest records unexpected cell {key}")
    return violations


def frames_match(golden, other, drop: tuple[str, ...] = ()) -> list[str]:
    """I4 (one table): Frame equality modulo declared-volatile columns."""
    golden_cols = [c for c in golden.columns if c not in drop]
    other_cols = [c for c in other.columns if c not in drop]
    if golden_cols != other_cols:
        return [
            f"column mismatch: golden {golden_cols} vs recovered {other_cols}"
        ]
    if golden.nrows != other.nrows:
        return [f"row count {other.nrows}, golden has {golden.nrows}"]
    violations = []
    for name in golden_cols:
        if not golden.select([name]).equals(other.select([name])):
            violations.append(f"column {name!r} differs from golden")
    return violations


def check_shard_campaign(
    expected_keys: set[str], directory: str | Path
) -> list[str]:
    """I5: a recovered sharded campaign is coherent end to end.

    After ``fsck`` + ``run --resume`` of a sharded campaign: the shard
    map is readable; every shard directory on disk is one the map knows;
    the map's assignment covers exactly the campaign's cell set; and
    every cell the campaign manifest records ``ok`` has its profile
    present in the *merged* campaign archive (not stranded in a shard).
    Together with I1-I4 this is the sharded convergence guarantee: kill
    any shard or the coordinator anywhere, and recovery still yields one
    complete, analysis-identical ``campaign.calipack``.
    """
    from repro.suite.coordinator import ShardMap
    from repro.suite.shard import SHARD_DIR, parse_shard_index

    directory = Path(directory)
    violations: list[str] = []
    shard_map = ShardMap.load(directory)
    if shard_map is None:
        return [f"no readable shard map in {directory}"]
    shard_root = directory / SHARD_DIR
    if shard_root.is_dir():
        for shard_dir in sorted(shard_root.iterdir()):
            if not shard_dir.is_dir():
                continue
            index = parse_shard_index(shard_dir.name)
            if index is None or index >= shard_map.shards:
                violations.append(
                    f"orphan shard directory {shard_dir.name} "
                    f"(map has {shard_map.shards} shard(s))"
                )
    assigned = {
        key for keys in shard_map.assignment.values() for key in keys
    }
    for key in sorted(expected_keys - assigned):
        violations.append(f"cell {key} missing from the shard map")
    for key in sorted(assigned - expected_keys):
        violations.append(f"shard map assigns unexpected cell {key}")
    cells = _manifest_cells(directory) or {}
    archive = directory / calipack.ARCHIVE_NAME
    try:
        merged = {e.name for e in calipack.load_entries(archive)}
    except (calipack.CalipackError, OSError):
        merged = set()
    for key, entry in sorted(cells.items()):
        if entry.get("status") != "ok":
            continue
        file = entry.get("file")
        if not file:
            continue
        ref = calipack.split_member_ref(file)
        name = ref[1] if ref is not None else Path(file).name
        if name not in merged:
            violations.append(
                f"ok cell {key}: profile {name} not in the merged "
                f"campaign archive"
            )
    return violations


def check_job_records_parse(root: str | Path) -> list[str]:
    """I6 (atomicity half): every job record on disk parses sealed.

    Run *before* recovery: a crash anywhere — including mid-save — must
    never leave a record that is present but unreadable, because records
    are only ever created whole (a synced tmp sibling linked into
    place, :func:`~repro.util.fsio.create_exclusive`) and rewritten via
    the durable tmp+replace protocol. ``.bak`` files do
    not count: they are fsck's forensic quarantine, not live records.
    """
    from repro.service.jobstore import (
        RECORD_SUFFIX,
        JobRecordDamaged,
        JobStore,
        parse_record_text,
    )

    store = JobStore(root)
    if not store.jobs_dir.is_dir():
        return []
    violations = []
    for path in sorted(store.jobs_dir.glob(f"*{RECORD_SUFFIX}")):
        if path.name.endswith(".bak"):
            continue
        try:
            parse_record_text(path.read_text())
        except (OSError, JobRecordDamaged) as exc:
            violations.append(f"job record {path.name} unreadable: {exc}")
    return violations


def check_job_service(
    root: str | Path, expected_cells: dict[str, set[str]]
) -> list[str]:
    """I6: after recovery, the job service converged with nothing lost.

    ``expected_cells`` maps each job id to the campaign cell set its
    spec implies. Checks: every record parses; every expected job exists
    and is SUCCEEDED; no unexpected job records; no campaign directory
    without a record (duplicated work); every SUCCEEDED job's campaign
    has its full cell set ``ok`` (via :func:`check_full_cell_set`); no
    terminal job holds a live lease.
    """
    from repro.service.jobstore import STATE_SUCCEEDED, JobStore
    from repro.suite.manifest import _pid_alive

    store = JobStore(root)
    violations = check_job_records_parse(root)
    records = {r.job_id: r for r in store.list_jobs()}
    for job_id in sorted(expected_cells):
        record = records.get(job_id)
        if record is None:
            violations.append(f"job {job_id} lost: no readable record")
            continue
        if record.state != STATE_SUCCEEDED:
            violations.append(
                f"job {job_id} is {record.state} after recovery "
                f"(reason: {record.reason!r}), expected SUCCEEDED"
            )
            continue
        violations += [
            f"job {job_id}: {v}"
            for v in check_full_cell_set(
                expected_cells[job_id], store.campaign_dir(job_id)
            )
        ]
    for job_id in sorted(set(records) - set(expected_cells)):
        violations.append(f"unexpected job record {job_id}")
    if store.campaigns_dir.is_dir():
        for campaign in sorted(store.campaigns_dir.iterdir()):
            if campaign.is_dir() and campaign.name not in records:
                if store.tombstone_path(campaign.name).exists():
                    # Condemned mid-reclamation, not unaccounted work;
                    # I7's convergence check owns this case.
                    continue
                violations.append(
                    f"campaign directory {campaign.name} has no job "
                    "record: duplicated or unaccounted campaign work"
                )
    for job_id, record in sorted(records.items()):
        if not record.terminal:
            continue
        lease = store.read_lease(job_id)
        if lease is not None and _pid_alive(lease.get("pid")):
            violations.append(
                f"terminal job {job_id} still holds a live scheduler "
                f"lease (pid {lease.get('pid')})"
            )
    return violations


def check_retention(
    root: str | Path, pre: dict[str, StoreSnapshot]
) -> list[str]:
    """I7: after GC + recovery, every job is fully live or reclaimed.

    ``pre`` maps job ids to :func:`snapshot_store` snapshots of their
    campaign directories taken *before* the GC/compaction pass. A job is
    **fully live** when its sealed record still parses, no tombstone
    exists, and every pre-GC sealed profile is still resolvable with
    identical bytes (compaction drops superseded duplicate frames and
    damage, never what a reader resolved). A job is **fully reclaimed**
    when record, tombstone, campaign directory, and every marker are all
    gone. Any intermediate state after recovery is a violation.
    """
    from repro.service.jobstore import (
        JobRecordDamaged,
        JobStore,
        parse_record_text,
    )

    store = JobStore(root)
    violations: list[str] = []
    for job_id in sorted(pre):
        residue = {
            "record": store.record_path(job_id).exists(),
            "tombstone": store.tombstone_path(job_id).exists(),
            "campaign": store.campaign_dir(job_id).is_dir(),
            "lease": store.lease_path(job_id).exists(),
            "cancel marker": store.cancel_path(job_id).exists(),
            "pin marker": store.pin_path(job_id).exists(),
        }
        if not any(residue.values()):
            continue  # fully reclaimed
        if not residue["record"] or residue["tombstone"]:
            present = ", ".join(k for k, v in residue.items() if v)
            violations.append(
                f"job {job_id} is neither fully live nor fully "
                f"reclaimed after recovery (present: {present})"
            )
            continue
        try:
            parse_record_text(store.record_path(job_id).read_text())
        except (OSError, JobRecordDamaged) as exc:
            violations.append(f"job {job_id}: record unreadable: {exc}")
            continue
        post = snapshot_store(store.campaign_dir(job_id))
        for name, crc in sorted(pre[job_id].profiles.items()):
            got = post.profiles.get(name)
            if got is None:
                violations.append(
                    f"job {job_id}: sealed profile {name} (crc {crc}) "
                    "lost by retention/compaction"
                )
            elif got != crc:
                violations.append(
                    f"job {job_id}: sealed profile {name} altered by "
                    f"retention/compaction: crc {crc} -> {got}"
                )
    return violations


def thickets_match(golden, other, volatile: bool = False) -> list[str]:
    """I4: dataframe + metadata identical; no degraded-mode casualties."""
    drop = VOLATILE_COLUMNS if volatile else ()
    violations = [
        f"dataframe: {v}"
        for v in frames_match(golden.dataframe, other.dataframe, drop=drop)
    ]
    violations += [
        f"metadata: {v}"
        for v in frames_match(golden.metadata, other.metadata)
    ]
    violations += [
        f"load error on {src}: {reason}"
        for src, reason in getattr(other, "load_errors", [])
    ]
    return violations
