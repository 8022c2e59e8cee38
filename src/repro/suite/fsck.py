"""``fsck`` for a campaign output directory.

A campaign that survives crashed workers and SIGINT still leaves one
question open: is what's *on disk* trustworthy? Every ``.cali`` profile
carries an integrity footer (:mod:`repro.caliper.cali`), so damage is
detectable after the fact; this module walks an output directory and
classifies every profile:

``ok``
    Sealed and verified (footer present, length and CRC32 match).
``unsealed``
    Valid pre-footer profile (readable; written before sealing existed).
``truncated``
    The write stopped early — a crash mid-``write_cali`` or a copy that
    lost its tail.
``corrupt``
    The length is right but the bytes are not (bit rot, concurrent
    writers, a bad copy).
``orphaned``
    A well-formed profile the campaign manifest does not know about —
    a leftover from a different sweep or a half-recorded cell; analysis
    over the directory would silently include data the manifest never
    vouched for.

Damaged and orphaned profiles are moved to a ``quarantine/`` subdirectory
(never deleted — forensics first), and damaged cells are demoted in the
manifest so ``--resume`` re-runs exactly them: ``fsck`` + ``run --resume``
heals a damaged campaign. The manifest is read through its one
reader, so cells recorded only in an uncompacted ledger count; a torn
ledger tail is reported, and a repairing pass compacts the ledger,
which drops the tail.

Packed campaigns are covered too: every entry of the campaign's
``.calipack`` archive(s) — including per-worker segments stranded by a
crash — is verified against the archive index (entry CRC32), then
against its own seal. Damaged or orphaned *entries* are extracted into
``quarantine/`` and the archive is rewritten without them, so the same
``fsck`` + ``run --resume`` healing loop applies.

Sharded campaigns (:mod:`repro.suite.coordinator`) recurse: each
``shards/shard-K/`` directory is itself a complete campaign directory
and gets its own sub-pass (skipped while a live shard holds its lock).
At the campaign level fsck additionally repairs the shard map — an
unreadable ``shard_map.json`` is backed up so the resumed coordinator
repartitions — quarantines shard directories the map does not know
(orphans from an older, wider partition), and sweeps a stale
``.merge-scratch`` directory: older versions merged shards through
intermediates there, which are pure derivatives of the shard archives.

Ingest-cache sidecars (``.ingest_cache/thicket-*.tic``) are
seal-verified as well. A repairing pass removes a damaged one and a
report-only pass names it; either way the report stays clean, because
a cache entry is derived state that the next read rebuilds.

Campaign-service roots (:mod:`repro.service`) are audited too: every
``jobs/<id>.json`` record is seal-verified (damage backed up as
``.bak``), interrupted reclamations finished through retention's
:func:`~repro.service.retention.complete_tombstones`, dead scheduler
leases and stale takeover tokens swept, and each job's
``campaigns/<id>/`` directory recursed into as an ordinary campaign
directory — so one ``fsck <root>`` audits the whole service.
A job whose scheduler lease has a live holder is live, like one whose
campaign lock has: its directory is skipped, because the scheduler may
fork its runner at any moment. That rule makes a pass safe beside a
running daemon, which runs one between scheduler ticks
(``serve --scrub-interval``).

fsck parses no control file itself: records, tombstones, PID leases,
takeover tokens, manifests and the shard map are read through the
readers of the modules that write them, with their ``repair`` switch
set from ``quarantine``. A report-only pass (``fsck --dry-run``)
therefore writes nothing.
"""

from __future__ import annotations

import os
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.caliper import calipack
from repro.caliper.cali import (
    STATUS_CORRUPT,
    STATUS_OK,
    STATUS_TRUNCATED,
    STATUS_UNSEALED,
    verify_cali,
)
from repro.suite.manifest import (
    LOCK_NAME,
    MANIFEST_NAME,
    CampaignManifest,
    campaign_is_live,
    lease_pid,
    pid_alive,
)
from repro.util.fsio import TMP_GLOB, durable_replace, tmp_sibling

#: where fsck moves damaged/orphaned profiles (inside the output dir)
QUARANTINE_DIR = "quarantine"

STATUS_ORPHANED = "orphaned"


@dataclass
class ProfileCheck:
    """One profile's verdict (a loose file or one archive entry)."""

    path: Path
    status: str  # ok | unsealed | truncated | corrupt | orphaned
    detail: str = ""
    cell: str | None = None  # manifest cell key, when the file is known
    archive: Path | None = None  # the .calipack holding this entry, if any
    entry: str | None = None  # the archive entry name, if any

    @property
    def damaged(self) -> bool:
        return self.status in (STATUS_TRUNCATED, STATUS_CORRUPT)

    @property
    def quarantinable(self) -> bool:
        return self.damaged or self.status == STATUS_ORPHANED


@dataclass
class FsckReport:
    """Everything one fsck pass found and did."""

    directory: Path
    checks: list[ProfileCheck] = field(default_factory=list)
    quarantined: list[Path] = field(default_factory=list)
    rerun_cells: list[str] = field(default_factory=list)
    removed_tmp: list[Path] = field(default_factory=list)
    manifest_found: bool = False
    #: sub-passes over ``shards/shard-K/`` campaign directories
    shard_reports: list["FsckReport"] = field(default_factory=list)
    #: campaign-level shard repairs (map backup, orphan dirs, scratch)
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not any(c.quarantinable for c in self.checks) and all(
            sub.clean for sub in self.shard_reports
        )

    def with_status(self, status: str) -> list[ProfileCheck]:
        return [c for c in self.checks if c.status == status]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for check in self.checks:
            out[check.status] = out.get(check.status, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        order = (
            STATUS_OK,
            STATUS_UNSEALED,
            STATUS_TRUNCATED,
            STATUS_CORRUPT,
            STATUS_ORPHANED,
        )
        parts = [f"{counts[s]} {s}" for s in order if counts.get(s)]
        lines = [
            f"fsck {self.directory}: {len(self.checks)} profile(s): "
            + (", ".join(parts) if parts else "none found")
        ]
        for check in self.checks:
            if check.quarantinable:
                where = f" [{check.cell}]" if check.cell else ""
                detail = f": {check.detail}" if check.detail else ""
                lines.append(
                    f"  {check.status.upper()} {check.path.name}{where}{detail}"
                )
        if self.quarantined:
            lines.append(
                f"  {len(self.quarantined)} file(s) moved to "
                f"{self.directory / QUARANTINE_DIR}"
            )
        if self.removed_tmp:
            lines.append(
                f"  {len(self.removed_tmp)} orphaned tmp file(s) removed"
            )
        if self.rerun_cells:
            lines.append(
                f"  {len(self.rerun_cells)} cell(s) marked for re-run; "
                "heal with: run --resume --output-dir "
                f"{self.directory}"
            )
        if not self.manifest_found:
            lines.append(
                "  no campaign manifest: orphan detection and re-run "
                "marking skipped"
            )
        lines.extend(f"  {note}" for note in self.notes)
        for sub in self.shard_reports:
            lines.extend(
                "  " + line for line in sub.summary().splitlines()
            )
        return "\n".join(lines)


def _cell_by_file(manifest: CampaignManifest) -> dict[str, str]:
    """filename (or archive entry name) -> cell key, from the manifest."""
    out: dict[str, str] = {}
    for key, entry in manifest.cells.items():
        file = entry.get("file")
        if not file:
            continue
        ref = calipack.split_member_ref(file)
        out[ref[1] if ref is not None else Path(file).name] = key
    return out


def fsck_directory(
    output_dir: str | Path,
    quarantine: bool = True,
    mark_rerun: bool = True,
) -> FsckReport:
    """Verify every ``.cali`` profile in a campaign output directory.

    With ``quarantine`` (the default), damaged and orphaned profiles are
    moved to ``<output_dir>/quarantine/``; with ``mark_rerun``, damaged
    cells are demoted in the manifest so ``run --resume`` re-produces
    exactly them. Pass both as False for a read-only audit.
    """
    directory = Path(output_dir)
    report = FsckReport(directory=directory)
    known: dict[str, str] | None = None  # None: no manifest to vouch
    try:
        manifest = CampaignManifest.read(directory / MANIFEST_NAME)
    except (OSError, ValueError):
        # Unreadable snapshot: audit against an empty ledger; a repairing
        # pass backs the file up below.
        manifest = CampaignManifest(path=directory / MANIFEST_NAME)
    if manifest is not None:
        if manifest.torn_lines:
            report.notes.append(
                f"campaign ledger: torn tail of {manifest.torn_lines} "
                "line(s) dropped (the in-flight cell re-runs on --resume)"
            )
        if mark_rerun:
            # fsck audits whatever configuration the manifest records:
            # adopt its own fingerprint so loading never warns about a
            # configuration change fsck did not make. Loading compacts a
            # ledger left behind, which cuts its torn tail.
            manifest = CampaignManifest.load_or_create(
                directory, manifest.fingerprint
            )
        known = _cell_by_file(manifest)
        report.manifest_found = True

    for path in sorted(directory.glob("*.cali")):
        report.checks.append(_verdict(path, *verify_cali(path), known))

    archives = sorted(directory.glob("*" + calipack.ARCHIVE_SUFFIX))
    seg_dir = directory / calipack.SEGMENT_DIR
    if seg_dir.is_dir():
        archives += sorted(seg_dir.glob("*" + calipack.ARCHIVE_SUFFIX))
    for archive in archives:
        _check_archive(archive, known, report)

    bad = [c for c in report.checks if c.quarantinable]
    if quarantine and bad:
        qdir = directory / QUARANTINE_DIR
        qdir.mkdir(exist_ok=True)
        for check in bad:
            if check.archive is not None:
                continue  # archive entries are extracted per archive below
            target = qdir / check.path.name
            os.replace(check.path, target)
            report.quarantined.append(target)
        for archive in archives:
            entry_checks = [
                c for c in bad if c.archive == archive and c.entry is not None
            ]
            if entry_checks:
                _quarantine_archive_entries(archive, entry_checks, qdir, report)

    if quarantine:
        _sweep_orphan_tmps(directory, report)
    _check_ingest_cache(directory, quarantine, report)

    _fsck_shards(directory, quarantine, mark_rerun, report)
    _fsck_jobs(directory, quarantine, mark_rerun, report)

    if mark_rerun and manifest is not None:
        for check in bad:
            if check.cell is not None:
                manifest.mark_for_rerun(
                    check.cell, f"{check.status} profile quarantined by fsck"
                )
                report.rerun_cells.append(check.cell)
        if report.rerun_cells:
            manifest.save()
            manifest.compact()
    return report


def _verdict(
    path: Path, status: str, detail: str, known: dict[str, str] | None,
    **where,
) -> ProfileCheck:
    """One profile's check; a sound profile the manifest does not know
    is orphaned."""
    cell = None if known is None else known.get(where.get("entry", path.name))
    if status in (STATUS_OK, STATUS_UNSEALED) and known is not None and cell is None:
        status, detail = STATUS_ORPHANED, "not recorded in the campaign manifest"
    return ProfileCheck(path=path, status=status, detail=detail, cell=cell, **where)


def _sweep_orphan_tmps(directory: Path, report: FsckReport) -> None:
    """Delete tmp siblings orphaned by a crash mid-durable-write.

    A ``<name>.<pid>.<n>.tmp`` left behind is dead weight: its payload
    was never renamed into place, so nothing references it, and a tmp is
    re-derived fresh on every write — safe to remove. Compaction scratch
    siblings (``*.compact-scratch``) get the same treatment: an orphan
    scratch means the swap never happened, the original archive is still
    authoritative, and the next compaction rebuilds from it. Skipped
    entirely while a live campaign holds the directory lock, because
    that campaign's in-flight tmps are not orphans.

    A service root's ``jobs/`` is swept tmp by tmp, lock or not: a live
    daemon's scrub runs this pass while its HTTP threads create job
    records, so a tmp whose writer (the pid its name carries) is alive,
    this process included, is in flight and kept.
    """
    from repro.service.jobstore import JOBS_DIR
    from repro.service.retention import COMPACT_SCRATCH_SUFFIX

    jobs = directory / JOBS_DIR
    if jobs.is_dir():
        for tmp in sorted(jobs.glob(TMP_GLOB)):
            if not pid_alive(_tmp_writer_pid(tmp)):
                _remove_tmp(tmp, report)
    if campaign_is_live(directory):
        return
    roots = [
        directory,
        directory / calipack.SEGMENT_DIR,
        directory / ".ingest_cache",
    ]
    for root in roots:
        if not root.is_dir():
            continue
        for tmp in sorted(root.glob(TMP_GLOB)) + sorted(
            root.glob("*" + COMPACT_SCRATCH_SUFFIX)
        ):
            _remove_tmp(tmp, report)


def _tmp_writer_pid(tmp: Path) -> int | None:
    """The writer pid of a ``<name>.<pid>.<n>.tmp`` sibling, if named so."""
    parts = tmp.name.split(".")
    return int(parts[-3]) if len(parts) >= 4 and parts[-3].isdigit() else None


def _remove_tmp(tmp: Path, report: FsckReport) -> None:
    try:
        tmp.unlink()
    except OSError:  # pragma: no cover - racing cleanup
        return
    report.removed_tmp.append(tmp)


def _check_ingest_cache(
    directory: Path, quarantine: bool, report: FsckReport
) -> None:
    """Verify every ingest-cache entry's seal; repair drops the damaged.

    Cache entries are derived state: a damaged one is already a silent
    miss to readers and the next read rebuilds it. So, like the tmp
    sweep, a damaged entry never makes the report unclean.
    """
    cache_dir = directory / ".ingest_cache"
    if not cache_dir.is_dir():
        return
    from repro.thicket.ingest_cache import CACHE_SUFFIX, verify_cache_file

    for path in sorted(cache_dir.glob("thicket-*" + CACHE_SUFFIX)):
        if verify_cache_file(path):
            continue
        if quarantine:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - reclaimed by a racing prune
                continue
        report.notes.append(
            f"damaged ingest-cache entry {path.name}"
            + (" removed" if quarantine else "")
        )


def _fsck_shards(
    directory: Path,
    quarantine: bool,
    mark_rerun: bool,
    report: FsckReport,
) -> None:
    """Audit and repair the sharded layer of a campaign directory.

    The shard map is loaded through :meth:`ShardMap.load`, which backs
    up an unreadable map when repairing (the resumed coordinator
    repartitions). Shard directories the map does not know — leftovers
    of an older, wider partition — are quarantined whole, because the
    merge would otherwise pick up archives no assignment vouches for.
    Every known shard directory is a complete campaign directory and
    gets a recursive sub-pass, except while a live shard supervisor
    holds its lock.
    """
    # Imported here: the coordinator imports fsck for shard healing.
    from repro.suite.coordinator import MAP_NAME, ShardMap
    from repro.suite.shard import SHARD_DIR, parse_shard_index

    shard_root = directory / SHARD_DIR
    map_path = directory / MAP_NAME
    if not shard_root.is_dir() and not map_path.exists():
        return

    had_map = map_path.exists()
    shard_map = ShardMap.load(directory, repair=quarantine)
    if had_map and shard_map is None:
        report.notes.append(
            "unreadable shard map"
            + (" backed up" if quarantine else "")
            + "; the coordinator repartitions on resume"
        )

    if shard_root.is_dir():
        for shard_dir in sorted(shard_root.iterdir()):
            if not shard_dir.is_dir():
                continue
            index = parse_shard_index(shard_dir.name)
            orphan = index is None or (
                shard_map is not None and index >= shard_map.shards
            )
            if orphan:
                if quarantine:
                    qdir = directory / QUARANTINE_DIR
                    qdir.mkdir(exist_ok=True)
                    target = qdir / shard_dir.name
                    if target.exists():  # pragma: no cover - repeat fsck
                        shutil.rmtree(target)
                    os.replace(shard_dir, target)
                    report.quarantined.append(target)
                    report.notes.append(
                        f"orphan shard directory {shard_dir.name} "
                        "quarantined (not in the shard map)"
                    )
                else:
                    report.notes.append(
                        f"orphan shard directory {shard_dir.name} "
                        "is not in the shard map"
                    )
                continue
            if campaign_is_live(shard_dir):
                report.notes.append(
                    f"shard {shard_dir.name} is live; sub-pass skipped"
                )
                continue
            report.shard_reports.append(
                fsck_directory(shard_dir, quarantine, mark_rerun)
            )

    if quarantine and not campaign_is_live(directory):
        scratch = directory / ".merge-scratch"
        if scratch.is_dir():
            # Left by older versions' merge tree: the intermediates are
            # pure derivatives of the shard archives, and today's merge
            # reads the shard archives directly.
            shutil.rmtree(scratch, ignore_errors=True)
            report.notes.append("stale merge scratch removed")
        token = directory / (LOCK_NAME + ".takeover")
        if token.exists() and not pid_alive(lease_pid(token)):
            token.unlink(missing_ok=True)
            report.notes.append("stale lock-takeover token removed")


def _fsck_jobs(
    directory: Path,
    quarantine: bool,
    mark_rerun: bool,
    report: FsckReport,
) -> None:
    """Audit a campaign-service root: job records, leases, campaigns.

    Every file is read through its owner's reader, repairing only with
    ``quarantine``. A damaged ``jobs/<id>.json`` is backed up as
    ``.bak`` (forensics first — scheduler recovery or an idempotent
    resubmit reconstitutes the job). Tombstones go through retention's
    :func:`~repro.service.retention.complete_tombstones`, which finishes
    (or, report-only, names) every interrupted reclamation. Leases and
    takeover tokens whose holders are dead are swept, cancel markers
    orphaned by terminal jobs removed, and every job's campaign
    directory gets the same recursive sub-pass shard directories get —
    except while a live scheduler holds the job's lease or a live job
    runner holds its campaign lock. Campaign directories no job record
    or sealed tombstone accounts for are reported: they are exactly the
    "duplicated work" chaos invariant I6 forbids.
    """
    from repro.service import retention
    from repro.service.jobstore import LEASE_SUFFIX, JobStore, SealDamaged

    store = JobStore(directory)
    if not store.jobs_dir.is_dir():
        return

    records = {}
    for job_id in store.list_ids():
        try:
            record = store.read_record(job_id, repair=quarantine)
        except SealDamaged as exc:
            report.notes.append(_record_damage_note(exc, quarantine))
            continue
        if record is not None:
            records[job_id] = record

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the outcomes are the report
        outcomes = retention.complete_tombstones(store, repair=quarantine)
    condemned: set[str] = set()
    for outcome in outcomes:
        if outcome.status in (retention.COMPLETED, retention.LEFT):
            records.pop(outcome.job_id, None)
        if outcome.status not in (retention.DAMAGED, retention.REFUSED):
            condemned.add(outcome.job_id)
        report.notes.append(_tombstone_note(outcome, quarantine))

    leased: set[str] = set()
    for lease in sorted(store.jobs_dir.glob(f"*{LEASE_SUFFIX}")):
        job_id = lease.name[: -len(LEASE_SUFFIX)]
        holder = lease_pid(lease)
        if pid_alive(holder):
            leased.add(job_id)
            continue
        if quarantine:
            lease.unlink(missing_ok=True)
        report.notes.append(
            f"job {job_id}: scheduler lease holder pid {holder} is dead"
            + ("; lease removed" if quarantine else "")
        )
        record = records.get(job_id)
        if record is not None and record.state == "RUNNING":
            report.notes.append(
                f"job {job_id} is RUNNING with no live scheduler; "
                "recovery will heal it"
            )
    for token in sorted(store.jobs_dir.glob(f"*{LEASE_SUFFIX}.takeover")):
        if not pid_alive(lease_pid(token)):
            if quarantine:
                token.unlink(missing_ok=True)
            report.notes.append(
                f"stale lease-takeover token {token.name}"
                + (" removed" if quarantine else "")
            )

    for job_id in store.list_cancel_ids():
        record = records.get(job_id)
        if record is not None and record.terminal:
            if quarantine:
                store.clear_cancel(job_id)
            report.notes.append(
                f"cancel marker for terminal job {job_id}"
                + (" removed" if quarantine else "")
            )

    if store.campaigns_dir.is_dir():
        for campaign in sorted(store.campaigns_dir.iterdir()):
            if not campaign.is_dir():
                continue
            if campaign.name not in records:
                if campaign.name in condemned:
                    # Residue of a reclamation finished above, or one
                    # still pending in report-only mode — accounted for.
                    continue
                report.notes.append(
                    f"campaign directory {campaign.name} has no job "
                    "record (unaccounted work; quarantine manually "
                    "after forensics)"
                )
                continue
            # A live lease holder (this process too, when it is the
            # daemon) may fork the runner that takes the campaign lock
            # at any moment: the directory is live from the claim on.
            if campaign.name in leased or campaign_is_live(campaign):
                report.notes.append(
                    f"job campaign {campaign.name} is live; "
                    "sub-pass skipped"
                )
                continue
            report.shard_reports.append(
                fsck_directory(campaign, quarantine, mark_rerun)
            )


def _record_damage_note(exc, repaired: bool) -> str:
    name = exc.path.name
    if not repaired:
        return f"damaged job record {name}: {exc}"
    if exc.backup is None:
        return f"damaged job record {name} left in place (backup failed): {exc}"
    return f"damaged job record {name} backed up as {exc.backup.name} ({exc})"


def _tombstone_note(outcome, repaired: bool) -> str:
    from repro.service import retention as r

    job, detail = outcome.job_id, outcome.detail
    return {
        r.DAMAGED: f"damaged tombstone for job {job}"
        + (" backed up (condemns nothing)" if repaired else "")
        + f": {detail}",
        r.REFUSED: f"tombstone for non-terminal job {job} (state {detail}) "
        "refused" + ("; backed up" if repaired else ""),
        r.COMPLETED: f"interrupted reclamation of job {job} completed "
        "(sealed tombstone)",
        r.LEFT: f"reclamation of job {job} {r.LEFT_CAMPAIGN_DIR}",
        r.PENDING: f"job {job} is condemned by a sealed tombstone; "
        "reclamation incomplete (gc or fsck repair finishes it)",
    }[outcome.status]


def _check_archive(
    archive: Path, known: dict[str, str] | None, report: FsckReport
) -> None:
    """Verify every entry of one ``.calipack`` against index + seal."""
    try:
        entries = calipack.load_entries(archive)
    except (calipack.CalipackError, OSError) as exc:
        report.checks.append(
            ProfileCheck(
                path=archive,
                status=STATUS_CORRUPT,
                detail=f"unreadable archive: {exc}",
            )
        )
        return
    for entry in entries:
        report.checks.append(_verdict(
            Path(calipack.member_ref(archive, entry.name)),
            *calipack.verify_entry(archive, entry),
            known,
            archive=archive,
            entry=entry.name,
        ))


def _quarantine_archive_entries(
    archive: Path,
    checks: list[ProfileCheck],
    qdir: Path,
    report: FsckReport,
) -> None:
    """Extract damaged/orphaned entries to quarantine, rewrite the archive.

    The damaged bytes land in ``quarantine/`` exactly as stored
    (forensics first); the archive is rebuilt without them in a tmp
    sibling and durably replaced, so a crash mid-fsck loses nothing.
    """
    drop = {c.entry for c in checks}
    entries = calipack.load_entries(archive)
    for entry in entries:
        if entry.name not in drop:
            continue
        target = qdir / entry.name
        target.write_bytes(
            calipack.read_entry_bytes(archive, entry, verify=False)
        )
        report.quarantined.append(target)
    tmp = tmp_sibling(archive)
    calipack.write_archive(tmp, calipack.carried_entries(
        (archive, entry) for entry in entries if entry.name not in drop
    ))
    durable_replace(tmp, archive)

