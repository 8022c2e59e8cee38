"""fsck reads every control file through the reader of the module that
writes it, with that reader's ``repair`` switch set from its own
``quarantine`` flag. So a report-only pass (``fsck --dry-run``) leaves
the tree byte-identical, and a repairing pass repairs exactly as before.
"""

from __future__ import annotations

import json

import pytest

from repro.service.jobstore import STATE_RUNNING, STATE_SUCCEEDED, JobStore
from repro.service.retention import RetentionPolicy, gc
from repro.suite import RunParams, SuiteExecutor
from repro.suite.fsck import fsck_directory
from repro.suite.manifest import (
    LOCK_NAME,
    MANIFEST_NAME,
    lease_pid,
    manifest_cells,
)

#: above any pid_max Linux allows (2**22): never a live process
DEAD_PID = 2**30


def _tree(root) -> dict[str, bytes]:
    """Every file under ``root`` by relative name, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _sharded_campaign(root):
    SuiteExecutor(RunParams(
        problem_size=1024,
        machines=("SPR-DDR",),
        variants=("Base_Seq",),
        kernels=("Basic_DAXPY",),
        trials=2,
        pack=True,
        shards=2,
        output_dir=str(root),
    )).run(write_files=True)
    (root / "shard_map.json").write_text("{ torn")


def _terminal_job(store: JobStore, job_id: str):
    spec = dict(problem_size=1024, machines=["SPR-DDR"],
                variants=["Base_Seq"], kernels=["Basic_DAXPY"])
    record = store.submit(spec, job_id=job_id)
    record.transition(STATE_RUNNING)
    record.transition(STATE_SUCCEEDED)
    store.save(record)
    store.campaign_dir(job_id).mkdir(parents=True)
    (store.campaign_dir(job_id) / "data.bin").write_bytes(b"x" * 64)
    return record


def _service_root(root) -> JobStore:
    store = JobStore(root)
    store.ensure_layout()
    _terminal_job(store, "torn")
    path = store.record_path("torn")
    path.write_text(path.read_text()[:33])  # damaged record
    store.write_tombstone(_terminal_job(store, "scarred"), "gc")
    path = store.tombstone_path("scarred")
    path.write_text(path.read_text()[:20])  # damaged tombstone
    store.write_tombstone(_terminal_job(store, "gone"), "gc")  # sealed
    _terminal_job(store, "idle")
    store.lease_path("idle").write_text(json.dumps({"pid": DEAD_PID}))
    (store.jobs_dir / "idle.lease.takeover").write_text(
        json.dumps({"pid": DEAD_PID})
    )
    return store


@pytest.mark.parametrize("fixture", [_sharded_campaign, _service_root])
def test_dry_run_writes_nothing(tmp_path, fixture):
    """Every file byte-identical and under the same name: an audit of a
    store must not change it."""
    fixture(tmp_path)
    before = _tree(tmp_path)
    fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
    assert _tree(tmp_path) == before


def test_gc_dry_run_of_a_damaged_service_root_writes_nothing(tmp_path):
    _service_root(tmp_path)
    before = _tree(tmp_path)
    with pytest.warns(UserWarning, match="damaged"):
        report = gc(tmp_path, RetentionPolicy(max_terminal_jobs=1),
                    dry_run=True, compact=True)
    assert _tree(tmp_path) == before
    assert report.notes == ["1 interrupted reclamation(s) pending: gone"]


def test_dry_run_reports_the_torn_shard_map(tmp_path):
    _sharded_campaign(tmp_path)
    report = fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
    assert report.notes == [
        "unreadable shard map; the coordinator repartitions on resume"
    ]


def test_repairing_pass_backs_up_the_torn_shard_map(tmp_path):
    _sharded_campaign(tmp_path)
    before = _tree(tmp_path)
    with pytest.warns(UserWarning, match="unreadable shard map"):
        report = fsck_directory(tmp_path)
    assert report.notes == [
        "unreadable shard map backed up; the coordinator repartitions on "
        "resume"
    ]
    after = _tree(tmp_path)
    assert after.pop("shard_map.json.bak") == before.pop("shard_map.json")
    assert after == before


def test_dry_run_reports_the_damaged_service_root(tmp_path):
    _service_root(tmp_path)
    report = fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
    assert report.notes == [
        "damaged job record torn.json: record does not parse: Expecting "
        "':' delimiter: line 3 column 10 (char 33)",
        "job gone is condemned by a sealed tombstone; reclamation "
        "incomplete (gc or fsck repair finishes it)",
        "damaged tombstone for job scarred: tombstone does not parse: "
        "Unterminated string starting at: line 2 column 11 (char 12)",
        f"job idle: scheduler lease holder pid {DEAD_PID} is dead",
        "stale lease-takeover token idle.lease.takeover",
        "campaign directory torn has no job record (unaccounted work; "
        "quarantine manually after forensics)",
    ]


def test_repairing_pass_over_a_damaged_service_root(tmp_path):
    store = _service_root(tmp_path)
    before = _tree(tmp_path)
    report = fsck_directory(tmp_path)
    assert report.notes == [
        "damaged job record torn.json backed up as torn.json.bak (record "
        "does not parse: Expecting ':' delimiter: line 3 column 10 (char "
        "33))",
        "interrupted reclamation of job gone completed (sealed tombstone)",
        "damaged tombstone for job scarred backed up (condemns nothing): "
        "tombstone does not parse: Unterminated string starting at: line 2 "
        "column 11 (char 12)",
        f"job idle: scheduler lease holder pid {DEAD_PID} is dead; lease "
        "removed",
        "stale lease-takeover token idle.lease.takeover removed",
        "campaign directory torn has no job record (unaccounted work; "
        "quarantine manually after forensics)",
    ]
    after = _tree(tmp_path)
    for name in ("torn.json", "scarred.tombstone"):
        assert after.pop(f"jobs/{name}.bak") == before.pop(f"jobs/{name}")
    for name in ("jobs/gone.json", "jobs/gone.tombstone",
                 "campaigns/gone/data.bin", "jobs/idle.lease",
                 "jobs/idle.lease.takeover"):
        del before[name]
    assert after == before
    assert store.load("scarred") is not None  # condemned nothing


def test_lease_pid_reads_locks_leases_and_tokens(tmp_path):
    lock = tmp_path / LOCK_NAME
    assert lease_pid(lock) is None  # absent
    lock.write_text(json.dumps({"pid": 1234, "acquired_at": "now"}))
    assert lease_pid(lock) == 1234
    for torn in ("{ torn", "[1234]", '{"pid": "1234"}'):
        lock.write_text(torn)
        assert lease_pid(lock) is None


def test_manifest_cells_is_empty_when_the_manifest_is_missing_or_torn(
    tmp_path,
):
    path = tmp_path / MANIFEST_NAME
    assert manifest_cells(path) == {}
    path.write_text("{ torn")
    assert manifest_cells(path) == {}
    path.write_text(json.dumps({"cells": {"a": {"status": "ok"}, "b": 3}}))
    assert manifest_cells(path) == {"a": {"status": "ok"}}
