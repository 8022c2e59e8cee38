"""Retention, compaction, watermarks, scrubbing — the disk-health rails.

Destruction must be as crash-safe as creation: a GC pass interrupted at
any byte leaves every job fully live or provably condemned (a sealed
tombstone), never half-deleted; compaction never changes what a reader
resolves; the watermarks turn disk exhaustion into explicit
backpressure before ENOSPC can tear a durable write.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.caliper.calipack import (
    ARCHIVE_NAME,
    CalipackWriter,
    load_entries,
    read_entry_bytes,
    scan_frames,
)
from repro.caliper.cali import footer_line
from repro.chaos import invariants
from repro.faults import SITES
from repro.cli import exitcodes
from repro.cli.main import main
from repro.service import admission
from repro.service.admission import AdmissionPolicy
from repro.service.jobstore import (
    STATE_CANCELLED,
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_SUCCEEDED,
    JobStore,
    TombstoneDamaged,
    parse_tombstone_text,
    seal_tombstone,
)
from repro.service.retention import (
    COMPACT_SCRATCH_SUFFIX,
    COMPLETED,
    DAMAGED,
    LEFT,
    REFUSED,
    RetentionPolicy,
    TombstoneOutcome,
    collect_job,
    compact_archive,
    complete_tombstones,
    gc,
    reclaim,
    select_candidates,
)
from repro.service.scheduler import JobScheduler, SchedulerConfig
from repro.suite.fsck import fsck_directory
from repro.suite.manifest import MANIFEST_NAME, CampaignManifest
from repro.util import diskstat
from repro.util.diskstat import (
    STATE_HARD,
    STATE_OK,
    STATE_SOFT,
    DiskWatermarks,
    disk_free_bytes,
    watermarks_from_env,
)


def _spec(**overrides) -> dict:
    spec = dict(
        problem_size=1024,
        reps=1,
        machines=["SPR-DDR"],
        variants=["Base_Seq"],
        kernels=["Basic_DAXPY"],
        trials=1,
        execute=False,
        pack=False,
        workers=1,
    )
    spec.update(overrides)
    return spec


def _store(tmp_path) -> JobStore:
    store = JobStore(tmp_path)
    store.ensure_layout()
    return store


def _terminal_job(
    store: JobStore,
    job_id: str,
    tenant: str = "t",
    state: str = STATE_SUCCEEDED,
    payload: bytes = b"x" * 128,
):
    """A fabricated terminal job with a campaign directory on disk."""
    record = store.submit(_spec(), tenant=tenant, job_id=job_id)
    record.transition(STATE_RUNNING)
    record.transition(state)
    store.save(record)
    campaign = store.campaign_dir(job_id)
    (campaign / "sub").mkdir(parents=True, exist_ok=True)
    (campaign / "data.cali").write_bytes(payload)
    (campaign / "sub" / "nested.bin").write_bytes(payload)
    return store.load(job_id)


def _residue(store: JobStore, job_id: str) -> list[str]:
    return [
        what
        for what, path in (
            ("record", store.record_path(job_id)),
            ("tombstone", store.tombstone_path(job_id)),
            ("campaign", store.campaign_dir(job_id)),
            ("lease", store.lease_path(job_id)),
            ("pin", store.pin_path(job_id)),
            ("cancel", store.cancel_path(job_id)),
        )
        if path.exists()
    ]


# ---------------------------------------------------------------- policy
def test_policy_validates_and_reports_enabled():
    assert not RetentionPolicy().enabled
    assert RetentionPolicy(max_age_s=60).enabled
    assert RetentionPolicy(max_terminal_jobs=0).enabled
    assert RetentionPolicy(max_tenant_bytes=0).enabled
    for bad in (
        dict(max_age_s=-1),
        dict(max_terminal_jobs=-1),
        dict(max_tenant_bytes=-5),
    ):
        with pytest.raises(ValueError):
            RetentionPolicy(**bad)


def test_count_rule_collects_oldest_beyond_keep(tmp_path):
    store = _store(tmp_path)
    for job_id in ("a", "b", "c"):
        _terminal_job(store, job_id)
    chosen = select_candidates(store, RetentionPolicy(max_terminal_jobs=1))
    assert [r.job_id for r, _ in chosen] == ["a", "b"]


def test_age_rule_uses_updated_at(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "old")
    stamp = time.mktime(
        time.strptime(record.updated_at, "%Y-%m-%dT%H:%M:%S")
    )
    fresh = select_candidates(
        store, RetentionPolicy(max_age_s=3600), now=stamp + 10
    )
    assert fresh == []
    stale = select_candidates(
        store, RetentionPolicy(max_age_s=3600), now=stamp + 7200
    )
    assert [r.job_id for r, _ in stale] == ["old"]


def test_tenant_bytes_rule_reclaims_oldest_until_under_budget(tmp_path):
    store = _store(tmp_path)
    for job_id in ("a", "b", "c"):
        _terminal_job(store, job_id, tenant="big", payload=b"y" * 1000)
    _terminal_job(store, "other", tenant="small", payload=b"z" * 1000)
    chosen = select_candidates(
        store, RetentionPolicy(max_tenant_bytes=2500)
    )
    # Collecting "a" brings tenant "big" from 6000 to 4000, then "b" to
    # 2000 <= 2500; "c" and the other tenant survive.
    assert [r.job_id for r, _ in chosen] == ["a", "b"]


def test_pinned_jobs_count_toward_budgets_but_never_collect(tmp_path):
    store = _store(tmp_path)
    for job_id in ("a", "b", "c"):
        _terminal_job(store, job_id)
    store.pin("a")
    chosen = select_candidates(store, RetentionPolicy(max_terminal_jobs=1))
    assert [r.job_id for r, _ in chosen] == ["b"]
    assert not collect_job(store, "a")
    store.unpin("a")
    assert collect_job(store, "a")


def test_non_terminal_jobs_are_never_selected_or_collected(tmp_path):
    store = _store(tmp_path)
    store.submit(_spec(), tenant="t", job_id="live")
    assert (
        select_candidates(store, RetentionPolicy(max_terminal_jobs=0)) == []
    )
    assert not collect_job(store, "live")
    assert store.load("live") is not None


def test_cancel_racing_gc_never_loses_the_race(tmp_path):
    """A cancel lands before the job is terminal (GC skips it) or after
    (the marker is moot) — the two-phase protocol has no third case."""
    store = _store(tmp_path)
    record = store.submit(_spec(), tenant="t", job_id="raced")
    store.request_cancel("raced")
    # Not yet terminal: GC must refuse even under the most aggressive
    # policy, with the cancel marker pending.
    assert not collect_job(store, "raced", "race test")
    assert store.load("raced") is not None
    # The cancel wins, the job goes terminal — now GC may collect, and
    # the marker is reclaimed along with everything else.
    record = store.load("raced")
    record.transition(STATE_CANCELLED, reason="cancelled")
    store.save(record)
    assert collect_job(store, "raced", "race test")
    assert _residue(store, "raced") == []


# ------------------------------------------------------------- two-phase
def test_collect_is_two_phase_and_leaves_no_residue(tmp_path):
    store = _store(tmp_path)
    _terminal_job(store, "gone")
    _terminal_job(store, "kept")
    assert collect_job(store, "gone", "test policy")
    assert _residue(store, "gone") == []
    assert store.load("kept") is not None
    assert (store.campaign_dir("kept") / "data.cali").exists()


def test_sealed_tombstone_resumes_interrupted_reclamation(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "half")
    store.write_tombstone(record, "interrupted")
    # Simulate a crash mid-delete: one file already gone, rest intact.
    (store.campaign_dir("half") / "data.cali").unlink()
    assert complete_tombstones(store) == [TombstoneOutcome("half", COMPLETED)]
    assert _residue(store, "half") == []
    # Idempotent: a second pass finds nothing.
    assert complete_tombstones(store) == []


def test_damaged_tombstone_condemns_nothing(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "safe")
    path = store.write_tombstone(record, "about to be torn")
    path.write_text(path.read_text()[:20])
    with pytest.warns(UserWarning):
        outcomes = complete_tombstones(store)
    assert [(o.job_id, o.status) for o in outcomes] == [("safe", DAMAGED)]
    assert store.load("safe") is not None
    assert (store.campaign_dir("safe") / "data.cali").exists()
    backup = path.with_suffix(path.suffix + ".bak")
    assert backup.exists() and not path.exists()


def test_tombstone_for_non_terminal_record_is_refused(tmp_path):
    store = _store(tmp_path)
    store.submit(_spec(), tenant="t", job_id="live")
    payload = {
        "job_id": "live",
        "tenant": "t",
        "state": STATE_QUEUED,
        "reason": "forged",
        "condemned_at": "2026-01-01T00:00:00",
    }
    path = store.tombstone_path("live")
    path.write_text(seal_tombstone(payload))
    assert complete_tombstones(store) == [
        TombstoneOutcome("live", REFUSED, STATE_QUEUED)
    ]
    assert store.load("live") is not None
    assert path.with_suffix(path.suffix + ".bak").exists()


def test_tombstone_seal_rejects_tampering():
    payload = {"job_id": "x", "tenant": "t", "state": "SUCCEEDED"}
    text = seal_tombstone(payload)
    assert parse_tombstone_text(text)["job_id"] == "x"
    with pytest.raises(TombstoneDamaged):
        parse_tombstone_text(text[: len(text) // 2])
    with pytest.raises(TombstoneDamaged):
        parse_tombstone_text(text.replace('"x"', '"y"'))


def test_reclaim_is_idempotent(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "twice")
    store.write_tombstone(record, "test")
    reclaim(store, "twice")
    reclaim(store, "twice")  # nothing left: must not raise
    assert _residue(store, "twice") == []


def test_reclaim_keeps_its_tombstone_until_the_tree_is_gone(
    tmp_path, monkeypatch
):
    """A file written into the campaign during the walk (the HTTP
    thread warming the ingest cache) keeps the directory alive: the
    tombstone must stay to authorize the pass that finishes it."""
    from repro.service import retention

    store = _store(tmp_path)
    record = _terminal_job(store, "late")
    store.write_tombstone(record, "test")
    campaign = store.campaign_dir("late")
    real_fault_point = retention.fault_point

    def late_writer(site, path=None, **kwargs):
        if site == "retention.mid-delete" and path.parent == campaign:
            cache = campaign / ".ingest_cache"
            cache.mkdir(exist_ok=True)
            (cache / "thicket-late.tic").write_bytes(b"cache")
        return real_fault_point(site, path=path, **kwargs)

    monkeypatch.setattr(retention, "fault_point", late_writer)
    assert complete_tombstones(store) == [TombstoneOutcome("late", LEFT)]
    assert _residue(store, "late") == ["record", "tombstone", "campaign"]
    monkeypatch.setattr(retention, "fault_point", real_fault_point)
    assert complete_tombstones(store) == [TombstoneOutcome("late", COMPLETED)]
    assert _residue(store, "late") == []


# ------------------------------------------------------------------- gc
def test_gc_dry_run_writes_nothing(tmp_path):
    store = _store(tmp_path)
    _terminal_job(store, "a")
    _terminal_job(store, "b")
    report = gc(store, RetentionPolicy(max_terminal_jobs=1), dry_run=True)
    assert [c["job_id"] for c in report.collected] == ["a"]
    assert report.reclaimed_bytes > 0
    assert store.load("a") is not None
    assert (store.campaign_dir("a") / "data.cali").exists()
    assert "would collect" in report.summary()
    # The payload is JSON-serializable for --json consumers.
    json.dumps(report.to_payload())


def test_gc_completes_interrupted_work_first(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "stale")
    store.write_tombstone(record, "interrupted")
    report = gc(store, RetentionPolicy())
    assert report.completed == ["stale"]
    assert _residue(store, "stale") == []


def test_gc_skips_a_job_whose_campaign_survives_the_walk(
    tmp_path, monkeypatch
):
    """A job whose reclamation left its campaign directory is not
    collected: its record and tombstone are still on disk. The pass
    that finishes it reports it as completed."""
    from repro.service import retention

    store = _store(tmp_path)
    _terminal_job(store, "late")
    campaign = store.campaign_dir("late")
    real_fault_point = retention.fault_point

    def late_writer(site, path=None, **kwargs):
        if site == "retention.mid-delete" and path.parent == campaign:
            cache = campaign / ".ingest_cache"
            cache.mkdir(exist_ok=True)
            (cache / "thicket-late.tic").write_bytes(b"cache")
        return real_fault_point(site, path=path, **kwargs)

    monkeypatch.setattr(retention, "fault_point", late_writer)
    report = gc(store, RetentionPolicy(max_terminal_jobs=0))
    assert report.collected == []
    assert report.skipped == [
        ("late", "left its campaign directory (written during the walk); "
         "the tombstone stays for the next pass"),
    ]
    assert _residue(store, "late") == ["record", "tombstone", "campaign"]
    monkeypatch.setattr(retention, "fault_point", real_fault_point)
    report = gc(store, RetentionPolicy(max_terminal_jobs=0))
    assert report.completed == ["late"]
    assert report.collected == [] and report.skipped == []
    assert _residue(store, "late") == []


# ------------------------------------------------------------ compaction
def _sealed(tag: str, size: int = 40) -> bytes:
    """A minimal sealed .cali byte string (compaction verifies seals)."""
    body = json.dumps({"tag": tag, "pad": "x" * size}).encode()
    return body + b"\n" + footer_line(body).encode() + b"\n"


def _build_archive(path, entries: dict[str, bytes]):
    writer = CalipackWriter(path)
    for name in entries:
        writer.append_bytes(name, entries[name])
    writer.close()


def test_compaction_drops_superseded_and_keeps_bytes(tmp_path):
    archive = tmp_path / ARCHIVE_NAME
    _build_archive(
        archive,
        {"a.cali": _sealed("a-old", 150), "b.cali": _sealed("b", 40)},
    )
    writer = CalipackWriter(archive)  # resume appends a superseding a
    writer.append_bytes("a.cali", _sealed("a-new", 90))
    writer.close()
    frames, _ = scan_frames(archive)
    assert len(frames) == 3
    before = {
        e.name: read_entry_bytes(archive, e) for e in load_entries(archive)
    }
    report = compact_archive(archive)
    assert report.swapped and report.superseded_dropped == 1
    assert report.entries_kept == 2
    assert report.bytes_after < report.bytes_before
    after = {
        e.name: read_entry_bytes(archive, e) for e in load_entries(archive)
    }
    assert after == before  # every readable entry byte-identical
    # Idempotent: a no-change pass never touches the inode.
    stat = archive.stat()
    again = compact_archive(archive)
    assert not again.swapped and again.superseded_dropped == 0
    assert archive.stat().st_mtime_ns == stat.st_mtime_ns


def test_compaction_drops_damaged_entries(tmp_path):
    archive = tmp_path / ARCHIVE_NAME
    _build_archive(
        archive, {"a.cali": _sealed("a"), "b.cali": _sealed("b")}
    )
    victim = next(e for e in load_entries(archive) if e.name == "b.cali")
    raw = bytearray(archive.read_bytes())
    raw[victim.offset + victim.length // 2] ^= 0xFF
    archive.write_bytes(bytes(raw))
    good = read_entry_bytes(
        archive, next(e for e in load_entries(archive) if e.name == "a.cali")
    )
    report = compact_archive(archive)
    assert report.damaged_dropped == ["b.cali"]
    entries = load_entries(archive)
    assert [e.name for e in entries] == ["a.cali"]
    assert read_entry_bytes(archive, entries[0]) == good


def test_compaction_dry_run_reports_without_writing(tmp_path):
    archive = tmp_path / ARCHIVE_NAME
    _build_archive(archive, {"a.cali": _sealed("a", 80)})
    writer = CalipackWriter(archive)
    writer.append_bytes("a.cali", _sealed("a2", 20))
    writer.close()
    raw = archive.read_bytes()
    report = compact_archive(archive, dry_run=True)
    assert report.dry_run and report.superseded_dropped == 1
    assert not report.swapped
    assert archive.read_bytes() == raw


def test_gc_compact_pass_covers_surviving_terminal_jobs(tmp_path):
    store = _store(tmp_path)
    _terminal_job(store, "a")
    _terminal_job(store, "b")
    archive = store.campaign_dir("b") / ARCHIVE_NAME
    _build_archive(archive, {"p.cali": _sealed("p", 80)})
    writer = CalipackWriter(archive)
    writer.append_bytes("p.cali", _sealed("p2", 20))
    writer.close()
    report = gc(store, RetentionPolicy(max_terminal_jobs=1), compact=True)
    assert [c["job_id"] for c in report.collected] == ["a"]
    assert len(report.compacted) == 1
    assert report.compacted[0].superseded_dropped == 1


# ------------------------------------------------------------------ fsck
def test_fsck_completes_tombstones_and_sweeps_scratch(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "doomed")
    _terminal_job(store, "kept")
    store.write_tombstone(record, "interrupted")
    scratch = store.campaign_dir("kept") / (
        ARCHIVE_NAME + f".{os.getpid()}{COMPACT_SCRATCH_SUFFIX}"
    )
    scratch.write_bytes(b"half-built rebuild")
    report = fsck_directory(tmp_path)
    assert _residue(store, "doomed") == []
    assert not scratch.exists()
    assert any("interrupted reclamation" in n for n in report.notes)
    # The condemned campaign is never misreported as unaccounted work.
    assert not any("unaccounted" in n for n in report.notes)
    assert store.load("kept") is not None


def test_fsck_dry_run_reports_tombstones_without_destroying(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "doomed")
    store.write_tombstone(record, "interrupted")
    report = fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
    assert any("reclamation incomplete" in n for n in report.notes)
    assert store.load("doomed") is not None
    assert store.tombstone_path("doomed").exists()


# ------------------------------------------------------------ watermarks
def test_watermark_state_machine(tmp_path, monkeypatch):
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "5000")
    assert disk_free_bytes(tmp_path) == 5000
    wm = DiskWatermarks(soft_free_bytes=4000, hard_free_bytes=1000)
    assert wm.state(tmp_path) == STATE_OK
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "4000")
    assert wm.state(tmp_path) == STATE_SOFT
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "999")
    assert wm.state(tmp_path) == STATE_HARD
    describe = wm.describe(tmp_path)
    assert describe["state"] == STATE_HARD
    assert describe["free_bytes"] == 999


def test_watermark_validation_and_env_parsing(monkeypatch):
    with pytest.raises(ValueError):
        DiskWatermarks(soft_free_bytes=100, hard_free_bytes=200)
    assert not DiskWatermarks().enabled
    monkeypatch.setenv(diskstat.SOFT_BYTES_ENV, "4096")
    wm = watermarks_from_env()
    assert wm.enabled and wm.soft_free_bytes == 4096
    monkeypatch.setenv(diskstat.HARD_BYTES_ENV, "not-a-number")
    assert watermarks_from_env().hard_free_bytes is None  # junk ignored
    monkeypatch.setenv(diskstat.HARD_BYTES_ENV, "9999")
    assert not watermarks_from_env().enabled  # inverted rails: disabled


def test_real_statvfs_free_bytes(tmp_path):
    free = disk_free_bytes(tmp_path)
    assert free is not None and free > 0
    # Walks up to an existing parent for not-yet-created paths.
    assert disk_free_bytes(tmp_path / "no" / "such" / "dir") is not None


def test_admission_rejects_under_disk_pressure(tmp_path, monkeypatch):
    store = _store(tmp_path)
    policy = AdmissionPolicy(
        watermarks=DiskWatermarks(soft_free_bytes=4000, hard_free_bytes=100)
    )
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "10000")
    assert admission.evaluate(store, "t", policy).admitted
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "3000")
    decision = admission.evaluate(store, "t", policy)
    assert decision.rejected and "disk pressure" in decision.reason
    assert "soft watermark" in decision.reason


def test_scheduler_pauses_claims_at_hard_watermark(tmp_path, monkeypatch):
    store = _store(tmp_path)
    store.submit(_spec(), tenant="t", job_id="waiting")
    wm = DiskWatermarks(soft_free_bytes=4000, hard_free_bytes=1000)
    scheduler = JobScheduler(store, SchedulerConfig(watermarks=wm))
    scheduler.recover()
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "500")
    assert scheduler.claims_paused()
    scheduler.tick()
    assert store.load("waiting").state == STATE_QUEUED  # not claimed
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "50000")
    assert not scheduler.claims_paused()


# ------------------------------------------------------------- scrubbing
def _finished_jobs(store: JobStore, *job_ids: str) -> None:
    """Real SUCCEEDED packed jobs, their ingest caches warmed by /result."""
    from repro.service.api import ServiceAPI

    for job_id in job_ids:
        store.submit(_spec(pack=True), tenant="t", job_id=job_id)
    assert JobScheduler(store).run_until_idle(timeout=120.0)
    api = ServiceAPI(store)
    for job_id in job_ids:
        assert store.load(job_id).state == STATE_SUCCEEDED
        assert api.result(job_id)[0] == 200
        assert list((store.campaign_dir(job_id) / ".ingest_cache").iterdir())


def _damaged_root(store: JobStore):
    """Two finished jobs, then a torn record, a corrupt archive entry
    and a garbage ingest-cache entry: what a scrub pass must find."""
    _finished_jobs(store, "clean", "dirty")
    record_path = store.record_path("clean")
    record_path.write_text(record_path.read_text()[:-10])
    archive = store.campaign_dir("dirty") / ARCHIVE_NAME
    entry = load_entries(archive)[0]
    raw = bytearray(archive.read_bytes())
    raw[entry.offset + 5] ^= 0xFF
    archive.write_bytes(bytes(raw))
    cache_dir = store.campaign_dir("dirty") / ".ingest_cache"
    bad_cache = cache_dir / "thicket-deadbeef.tic"
    bad_cache.write_bytes(b"not a sealed cache entry")
    return record_path, archive, entry.name, bad_cache


def _tree_state(root) -> dict[str, tuple[bytes, int]]:
    return {
        str(path.relative_to(root)): (
            path.read_bytes() if path.is_file() else b"",
            path.stat().st_mtime_ns,
        )
        for path in sorted(root.rglob("*"))
    }


def test_scrub_pass_detects_and_quarantines_damage(tmp_path):
    store = _store(tmp_path)
    record_path, archive, entry_name, bad_cache = _damaged_root(store)
    warm = sorted(p for p in bad_cache.parent.iterdir() if p != bad_cache)

    report = fsck_directory(tmp_path)
    notes = "\n".join(report.notes)
    assert "damaged job record clean.json backed up" in notes
    assert record_path.with_name(record_path.name + ".bak").exists()
    (dirty,) = [
        sub for sub in report.shard_reports
        if sub.directory == store.campaign_dir("dirty")
    ]
    assert not dirty.clean
    assert entry_name in [p.name for p in dirty.quarantined]
    assert entry_name not in [e.name for e in load_entries(archive)]
    assert len(dirty.rerun_cells) == 1
    manifest = CampaignManifest.read(
        store.campaign_dir("dirty") / MANIFEST_NAME
    )
    assert not manifest.is_complete(dirty.rerun_cells[0])
    # A damaged cache entry is dropped; derived state never dirties a
    # report, and the sound entries stay.
    assert not bad_cache.exists()
    assert "damaged ingest-cache entry thicket-deadbeef.tic removed" in (
        "\n".join(dirty.notes)
    )
    assert sorted(p for p in bad_cache.parent.iterdir()) == warm


def test_scrub_report_only_mode_has_no_side_effects(tmp_path):
    store = _store(tmp_path)
    record_path, archive, _entry, bad_cache = _damaged_root(store)
    before = _tree_state(tmp_path)

    report = fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
    assert _tree_state(tmp_path) == before
    assert record_path.exists()
    assert not record_path.with_name(record_path.name + ".bak").exists()
    assert any("damaged job record clean.json" in n for n in report.notes)
    (dirty,) = [
        sub for sub in report.shard_reports
        if sub.directory == store.campaign_dir("dirty")
    ]
    assert not dirty.clean and dirty.quarantined == []
    assert "damaged ingest-cache entry thicket-deadbeef.tic" in dirty.notes


def test_repairing_fsck_of_a_healthy_root_writes_nothing(tmp_path):
    store = _store(tmp_path)
    _finished_jobs(store, "a", "b")
    before = _tree_state(tmp_path)
    report = fsck_directory(tmp_path)
    assert report.clean and len(report.shard_reports) == 2
    assert _tree_state(tmp_path) == before


def test_fsck_skips_the_campaign_of_a_leased_job(tmp_path):
    """Between the claim and the runner's campaign lock, the scheduler's
    lease is the only sign a directory is live: fsck must honour it,
    also when the lease holder is the process running fsck."""
    store = _store(tmp_path)
    record = store.submit(_spec(), tenant="t", job_id="claimed")
    record.transition(STATE_RUNNING)
    store.save(record)
    torn = store.campaign_dir("claimed") / "p.cali"
    torn.parent.mkdir(parents=True)
    torn.write_bytes(_sealed("p")[:-10])
    lease = store.claim("claimed")
    try:
        report = fsck_directory(tmp_path)
        assert "job campaign claimed is live; sub-pass skipped" in report.notes
        assert torn.exists() and report.shard_reports == []
    finally:
        lease.release()
    report = fsck_directory(tmp_path)  # released: an ordinary campaign
    assert not torn.exists() and not report.clean


def test_daemon_scrubs_once_per_interval(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from repro.service import daemon as daemon_mod

    for bad in (0, -1.0):
        with pytest.raises(ValueError):
            daemon_mod.ServiceDaemon(tmp_path, port=0, scrub_interval=bad)
    clock = SimpleNamespace(now=100.0)
    monkeypatch.setattr(
        daemon_mod, "time", SimpleNamespace(monotonic=lambda: clock.now)
    )
    daemon = daemon_mod.ServiceDaemon(tmp_path, port=0, scrub_interval=10.0)
    try:
        daemon._maybe_scrub()  # the first tick runs a pass
        daemon._maybe_scrub()
        assert daemon.scrub_passes == 1
        clock.now += 10.0
        daemon._maybe_scrub()
        assert daemon.health()["scrub_passes"] == 2

        def broken(root):
            raise OSError("disk vanished")

        monkeypatch.setattr(daemon_mod, "fsck_directory", broken)
        clock.now += 10.0
        with pytest.warns(UserWarning, match="scrub pass failed"):
            daemon._maybe_scrub()  # warns; the daemon keeps serving
        assert daemon.scrub_passes == 2
    finally:
        daemon.close()


# ------------------------------------------------------------ invariants
@pytest.mark.parametrize(
    "point", ["retention.pre-tombstone", "retention.mid-delete"]
)
def test_raise_mode_strike_then_recovery_converges(tmp_path, point):
    """In-process chaos: a strike at either GC boundary leaves a state
    the next (unarmed) pass converges from, with I7 clean."""
    from repro.faults import ChaosCrash, Fault, FaultPlan, install

    store = _store(tmp_path)
    _terminal_job(store, "gc-old")
    _terminal_job(store, "gc-young")
    pre = {
        job_id: invariants.snapshot_store(store.campaign_dir(job_id))
        for job_id in ("gc-old", "gc-young")
    }
    install(FaultPlan([Fault(site=point)]))
    try:
        with pytest.raises(ChaosCrash):
            gc(store, RetentionPolicy(max_terminal_jobs=1))
    finally:
        install(None)
    if point == "retention.pre-tombstone":
        # The strike landed before the condemnation: fully live.
        assert store.load("gc-old") is not None
        assert not store.tombstone_path("gc-old").exists()
    else:
        # Mid-delete: the sealed tombstone proves the interruption.
        assert store.tombstone_path("gc-old").exists()
    report = gc(store, RetentionPolicy(max_terminal_jobs=1))
    assert report.collected or report.completed
    assert invariants.check_retention(tmp_path, pre) == []
    assert _residue(store, "gc-old") == []
    assert store.load("gc-young") is not None


def test_compact_swap_strike_leaves_archive_bit_identical(tmp_path):
    from repro.faults import ChaosCrash, Fault, FaultPlan, install

    archive = tmp_path / ARCHIVE_NAME
    _build_archive(archive, {"a.cali": _sealed("a-old", 100)})
    writer = CalipackWriter(archive)
    writer.append_bytes("a.cali", _sealed("a-new", 30))
    writer.close()
    pristine = archive.read_bytes()
    install(
        FaultPlan([Fault(
            site="retention.pre-compact-swap", torn=True, seed=3
        )])
    )
    try:
        with pytest.raises(ChaosCrash):
            compact_archive(archive)
    finally:
        install(None)
    assert archive.read_bytes() == pristine  # original untouched
    assert list(tmp_path.glob("*" + COMPACT_SCRATCH_SUFFIX))  # orphan
    report = compact_archive(archive)  # unarmed retry converges
    assert report.swapped and report.superseded_dropped == 1
    entries = load_entries(archive)
    assert [e.name for e in entries] == ["a.cali"]
    assert read_entry_bytes(archive, entries[0]) == _sealed("a-new", 30)
    assert not list(tmp_path.glob("*" + COMPACT_SCRATCH_SUFFIX))


def test_retention_chaos_points_registered():
    for name in (
        "retention.pre-tombstone",
        "retention.mid-delete",
        "retention.pre-compact-swap",
    ):
        spec = SITES[name]
        assert spec.phase == "retention"
        assert spec.modes == ("service",)
    assert SITES["retention.pre-compact-swap"].torn


def test_check_retention_passes_on_converged_states(tmp_path):
    store = _store(tmp_path)
    _terminal_job(store, "kept")
    _terminal_job(store, "gone")
    pre = {
        job_id: invariants.snapshot_store(store.campaign_dir(job_id))
        for job_id in ("kept", "gone")
    }
    assert collect_job(store, "gone", "test")
    assert invariants.check_retention(tmp_path, pre) == []


def test_check_retention_flags_half_deleted_and_lost_bytes(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "half")
    pre = {"half": invariants.snapshot_store(store.campaign_dir("half"))}
    store.write_tombstone(record, "stuck")  # tombstone + record = limbo
    found = invariants.check_retention(tmp_path, pre)
    assert found and "neither fully live nor fully reclaimed" in found[0]


def test_check_job_service_tolerates_condemned_campaigns(tmp_path):
    store = _store(tmp_path)
    record = _terminal_job(store, "doomed")
    store.write_tombstone(record, "mid-gc")
    store.record_path("doomed").unlink()  # reclaim got this far
    found = invariants.check_job_service(tmp_path, {})
    assert not any("unaccounted" in v for v in found)


# ------------------------------------------------------------------- CLI
def test_cli_gc_dry_run_then_collect(tmp_path, capsys):
    store = _store(tmp_path)
    _terminal_job(store, "a")
    _terminal_job(store, "b")
    assert main(["gc", str(tmp_path), "--keep", "1", "--dry-run"]) == 0
    assert "would collect" in capsys.readouterr().out
    assert store.load("a") is not None
    assert main(["gc", str(tmp_path), "--keep", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["job_id"] for c in payload["collected"]] == ["a"]
    assert store.load("a") is None and store.load("b") is not None


def test_cli_gc_pin_protects_and_usage_errors(tmp_path, capsys):
    store = _store(tmp_path)
    _terminal_job(store, "a")
    _terminal_job(store, "b")
    assert main(["gc", str(tmp_path), "--pin", "a", "--keep", "1"]) == 0
    assert store.load("a") is not None  # pinned survived the pass
    assert (
        main(["gc", str(tmp_path), "--pin", "nope"])
        == exitcodes.JOB_NOT_FOUND
    )
    assert (
        main(["gc", str(tmp_path / "not-a-root")]) == exitcodes.USAGE
    )
    capsys.readouterr()


def test_cli_jobs_rejects_unknown_state(tmp_path, capsys):
    _store(tmp_path)
    code = main(["jobs", "--root", str(tmp_path), "--state", "EXPLODED"])
    assert code == exitcodes.USAGE
    assert "unknown state" in capsys.readouterr().err


def test_cli_jobs_state_and_tenant_filters(tmp_path, capsys):
    store = _store(tmp_path)
    _terminal_job(store, "done", tenant="alice")
    store.submit(_spec(), tenant="bob", job_id="queued-job")
    assert main(["jobs", "--root", str(tmp_path), "--state", "SUCCEEDED"]) == 0
    out = capsys.readouterr().out
    assert "done" in out and "queued-job" not in out
    assert main(["jobs", "--root", str(tmp_path), "--tenant", "bob"]) == 0
    out = capsys.readouterr().out
    assert "queued-job" in out and "done" not in out


def test_cli_jobs_degrades_at_hard_watermark(tmp_path, monkeypatch, capsys):
    _store(tmp_path)
    monkeypatch.setenv(diskstat.SOFT_BYTES_ENV, "4000")
    monkeypatch.setenv(diskstat.HARD_BYTES_ENV, "1000")
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "500")
    code = main(["jobs", "--root", str(tmp_path)])
    assert code == exitcodes.DEGRADED_ANALYSIS
    assert "hard watermark" in capsys.readouterr().err


def test_cli_submit_rejected_under_disk_pressure(tmp_path, monkeypatch, capsys):
    _store(tmp_path)
    monkeypatch.setenv(diskstat.SOFT_BYTES_ENV, "4000")
    monkeypatch.setenv(diskstat.FREE_BYTES_ENV, "1000")
    code = main(
        ["submit", "--root", str(tmp_path), "--size", "1K", "--job-id", "j"]
    )
    assert code == exitcodes.JOB_REJECTED
    assert "disk pressure" in capsys.readouterr().err


# ---------------------------------------------------------- ingest cache
def test_ingest_cache_prunes_to_byte_budget(tmp_path, monkeypatch):
    from repro.thicket.ingest_cache import _prune, cache_budget_bytes

    monkeypatch.setenv("REPRO_INGEST_CACHE_BYTES", "250")
    assert cache_budget_bytes() == 250
    for i in range(5):
        entry = tmp_path / f"thicket-{i:08x}.tic"
        entry.write_bytes(b"e" * 100)
        os.utime(entry, (1000 + i, 1000 + i))
    _prune(tmp_path, budget=cache_budget_bytes())
    left = sorted(p.name for p in tmp_path.glob("*.tic"))
    assert left == ["thicket-00000003.tic", "thicket-00000004.tic"]


def test_ingest_cache_prune_tolerates_racing_deletes(tmp_path):
    from repro.thicket.ingest_cache import _prune

    (tmp_path / "thicket-1.tic").write_bytes(b"e" * 100)
    (tmp_path / "thicket-2.tic").symlink_to(tmp_path / "gone")  # stat fails
    _prune(tmp_path, budget=0)  # must not raise
    assert not (tmp_path / "thicket-1.tic").exists()


def test_ingest_cache_budget_env_fallback(monkeypatch):
    from repro.thicket.ingest_cache import (
        DEFAULT_CACHE_BYTES,
        cache_budget_bytes,
    )

    monkeypatch.delenv("REPRO_INGEST_CACHE_BYTES", raising=False)
    assert cache_budget_bytes() == DEFAULT_CACHE_BYTES
    monkeypatch.setenv("REPRO_INGEST_CACHE_BYTES", "junk")
    assert cache_budget_bytes() == DEFAULT_CACHE_BYTES


# ---------------------------------------------------------------- daemon
def test_daemon_wires_retention_and_scrubbing(tmp_path):
    from repro.service.daemon import ServiceDaemon

    store = _store(tmp_path)
    record = _terminal_job(store, "stale")
    store.write_tombstone(record, "interrupted before daemon start")
    daemon = ServiceDaemon(
        tmp_path,
        port=0,
        policy=AdmissionPolicy(
            watermarks=DiskWatermarks(soft_free_bytes=1, hard_free_bytes=0)
        ),
        retention=RetentionPolicy(max_terminal_jobs=5),
        retention_interval=3600.0,
        scrub_interval=3600.0,
    )
    try:
        daemon._maybe_gc()  # first tick: finishes the interrupted work
        assert daemon.gc_passes == 1
        assert _residue(store, "stale") == []
        daemon._maybe_gc()  # within the interval, no pressure: no pass
        assert daemon.gc_passes == 1
        health = daemon.health()
        assert health["gc_passes"] == 1
        assert health["scrub_passes"] == 0
        assert health["disk"]["state"] in (STATE_OK, STATE_SOFT, STATE_HARD)
        assert "claims_paused" in health
    finally:
        daemon.close()
