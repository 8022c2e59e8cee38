"""Integrity-sealed profile store: footers, fsck, locks, manifest safety.

Every ``.cali`` write is sealed with a CRC32+length footer; readers
verify it, ``fsck`` classifies and quarantines damage, and the campaign
manifest survives crashes (durable saves, corrupt-file backup) and
concurrent campaigns (advisory lock with stale-lease takeover).
"""

import json
import os
import warnings

import pytest

from repro.caliper.cali import (
    FOOTER_MARKER,
    STATUS_CORRUPT,
    STATUS_OK,
    STATUS_TRUNCATED,
    STATUS_UNSEALED,
    read_cali,
    verify_cali,
    write_cali,
)
from repro.faults import Fault, FaultPlan
from repro.suite import MANIFEST_NAME, RunParams, SuiteExecutor
from repro.suite.errors import CampaignLockedError
from repro.suite.fsck import QUARANTINE_DIR, fsck_directory
from repro.suite.manifest import CampaignLock, CampaignManifest
from repro.suite.retry import RetryPolicy


def _small_profile(tmp_path, name="probe.cali"):
    """One real sealed profile from a minimal run."""
    params = RunParams(
        machines=("SPR-DDR",),
        variants=("Base_Seq",),
        kernels=("Basic_DAXPY",),
        output_dir=str(tmp_path),
    )
    result = SuiteExecutor(params).run()
    return write_cali(result.profiles[0], tmp_path / name)


# ----------------------------------------------------------- footer seal
def test_sealed_roundtrip_verifies_ok(tmp_path):
    path = _small_profile(tmp_path)
    assert FOOTER_MARKER in path.read_text()
    status, _ = verify_cali(path)
    assert status == STATUS_OK
    profile = read_cali(path)  # readers accept sealed files transparently
    assert profile.globals["machine"] == "SPR-DDR"


def test_truncated_file_detected_and_rejected(tmp_path):
    path = _small_profile(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])  # lost its tail mid-footer
    status, detail = verify_cali(path)
    assert status == STATUS_TRUNCATED
    with pytest.raises(ValueError, match="truncated"):
        read_cali(path)
    assert detail


def test_payload_shorter_than_declared_is_truncated(tmp_path):
    path = _small_profile(tmp_path)
    raw = path.read_bytes()
    footer_at = raw.rindex(FOOTER_MARKER.encode())
    # drop payload bytes but keep the (now lying) footer intact
    damaged = raw[: footer_at - 100].rstrip(b"\n") + b"\n" + raw[footer_at:]
    path.write_bytes(damaged)
    status, _ = verify_cali(path)
    assert status == STATUS_TRUNCATED


def test_flipped_payload_byte_is_corrupt(tmp_path):
    path = _small_profile(tmp_path)
    raw = bytearray(path.read_bytes())
    # flip one byte inside the JSON payload (same length, wrong CRC)
    idx = raw.index(b"SPR-DDR")
    raw[idx] = ord(b"X")
    path.write_bytes(bytes(raw))
    status, _ = verify_cali(path)
    assert status == STATUS_CORRUPT
    with pytest.raises(ValueError, match="corrupt"):
        read_cali(path)


def test_unsealed_legacy_profile_still_loads(tmp_path):
    """Profiles written before sealing existed stay readable."""
    path = _small_profile(tmp_path)
    text = path.read_text()
    payload = text[: text.rindex(FOOTER_MARKER)].rstrip("\n") + "\n"
    legacy = tmp_path / "legacy.cali"
    legacy.write_text(payload)
    status, _ = verify_cali(legacy)
    assert status == STATUS_UNSEALED
    assert read_cali(legacy).globals["machine"] == "SPR-DDR"


def test_injected_footer_corruption_lands_complete_but_unverifiable(tmp_path):
    params = RunParams(
        machines=("SPR-DDR",),
        variants=("Base_Seq",),
        kernels=("Basic_DAXPY",),
        output_dir=str(tmp_path),
    )
    injector = FaultPlan(
        [Fault(site="profile.seal", action="corrupt", path="*Base_Seq*")]
    )
    with injector:  # write_cali consults the installed plan
        result = SuiteExecutor(params).run(write_files=True)
    assert len(result.cali_paths) == 1  # the write itself succeeded
    status, detail = verify_cali(result.cali_paths[0])
    assert status == STATUS_CORRUPT
    assert "crc32" in detail.lower()


# ------------------------------------------------------------------ fsck
def _campaign(tmp_path, trials=2):
    params = RunParams(
        machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY",),
        trials=trials,
        output_dir=str(tmp_path),
    )
    return SuiteExecutor(params).run(write_files=True), params


def test_fsck_clean_directory(tmp_path):
    _campaign(tmp_path)
    report = fsck_directory(tmp_path)
    assert report.clean
    assert report.counts() == {"ok": 4}
    assert not report.quarantined


def test_fsck_quarantines_damage_and_resume_heals(tmp_path):
    """Acceptance: one truncated + one orphaned profile -> both
    quarantined, nonzero exit, and --resume re-produces exactly the
    quarantined cells."""
    _, params = _campaign(tmp_path)
    victim = sorted(tmp_path.glob("*.cali"))[0]
    victim.write_bytes(victim.read_bytes()[:-10])
    orphan = tmp_path / "rajaperf_leftover.cali"
    orphan.write_text(
        '{"format": "cali-json", "version": 1, "globals": {}, "records": []}\n'
    )

    audit = fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
    assert not audit.clean
    assert audit.counts() == {"ok": 3, "truncated": 1, "orphaned": 1}

    # the CLI fsck quarantines, marks, and maps dirty -> nonzero exit
    from repro.cli.main import main as cli_main

    assert cli_main(["fsck", str(tmp_path)]) == 1
    assert not victim.exists() and not orphan.exists()
    assert (tmp_path / QUARANTINE_DIR / victim.name).exists()
    assert (tmp_path / QUARANTINE_DIR / orphan.name).exists()
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    demoted = manifest["cells"]["SPR-DDR|Base_Seq|default|trial0"]
    assert demoted["status"] == "failed"
    assert "fsck" in demoted["rerun_reason"]

    resumed = SuiteExecutor(
        RunParams(
            **{
                **params.__dict__,
                "resume": True,
                "metadata": dict(params.metadata),
            }
        )
    ).run(write_files=True)
    counts = resumed.report.cell_counts()
    assert counts == {"skipped": 3, "ok": 1}
    assert resumed.report.cells["SPR-DDR|Base_Seq|default|trial0"] == "ok"
    assert victim.exists()  # re-produced in place
    assert fsck_directory(tmp_path).clean


def test_fsck_dry_run_touches_nothing(tmp_path):
    _campaign(tmp_path)
    victim = sorted(tmp_path.glob("*.cali"))[0]
    victim.write_bytes(victim.read_bytes()[:-10])
    before = json.loads((tmp_path / MANIFEST_NAME).read_text())
    report = fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
    assert not report.clean
    assert not report.quarantined and not report.rerun_cells
    assert victim.exists()
    assert json.loads((tmp_path / MANIFEST_NAME).read_text()) == before


def test_fsck_without_manifest_skips_orphan_detection(tmp_path):
    path = _small_profile(tmp_path)
    report = fsck_directory(tmp_path)
    assert not report.manifest_found
    assert report.counts() == {"ok": 1}
    assert report.clean
    assert path.exists()
    assert "no campaign manifest" in report.summary()


def test_thicket_degrades_on_truncated_profile(tmp_path):
    """Satellite: a truncated .cali is skipped with a warning in
    ``on_error="warn"`` mode; the survivors still compose."""
    from repro.thicket import ProfileLoadWarning, Thicket

    good = _small_profile(tmp_path, "good.cali")
    bad = _small_profile(tmp_path, "bad.cali")
    bad.write_bytes(bad.read_bytes()[:-10])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ProfileLoadWarning)
        thicket = Thicket.from_caliperreader(
            [str(good), str(bad)], on_error="warn"
        )
    assert len(thicket.profiles) == 1
    assert any("truncated" in str(w.message) for w in caught)
    with pytest.raises(ValueError, match="truncated"):
        Thicket.from_caliperreader([str(good), str(bad)], on_error="raise")


# --------------------------------------------------- manifest + locking
def test_corrupt_manifest_backed_up_before_fresh_start(tmp_path):
    path = tmp_path / MANIFEST_NAME
    path.write_text("{ not json")
    with pytest.warns(UserWarning, match="backed up"):
        manifest = CampaignManifest.load_or_create(tmp_path, {"v": 1})
    assert manifest.cells == {}
    backup = tmp_path / (MANIFEST_NAME + ".bak")
    assert backup.read_text() == "{ not json"
    assert not path.exists()


def test_manifest_save_is_atomic_no_tmp_left_behind(tmp_path):
    manifest = CampaignManifest.load_or_create(tmp_path, {"v": 1})
    manifest.record("cell", "ok", file="x.cali")
    manifest.save()
    assert CampaignManifest.read(tmp_path / MANIFEST_NAME).cells["cell"][
        "status"
    ] == "ok"
    assert not list(tmp_path.glob("*.tmp"))


def test_campaign_lock_blocks_second_campaign(tmp_path):
    """A lease held by a live foreign process refuses a second campaign
    with an actionable diagnostic (pid 1 is always alive)."""
    lock_path = tmp_path / "campaign_manifest.lock"
    lock_path.write_text(
        json.dumps({"pid": 1, "host": "peer", "acquired_at": "2026-08-06"})
    )
    with pytest.raises(CampaignLockedError) as excinfo:
        CampaignLock.acquire(tmp_path)
    message = str(excinfo.value)
    assert "pid 1" in message
    assert "--output-dir" in message  # tells the user what to do about it
    lock_path.unlink()
    CampaignLock.acquire(tmp_path).release()


def test_campaign_lock_reentrant_within_one_process(tmp_path):
    """Our own stale lease (same PID) is taken over, not fatal — a
    crashed-and-restarted campaign in the same shell heals itself."""
    first = CampaignLock.acquire(tmp_path)
    second = CampaignLock.acquire(tmp_path)  # same pid: takeover, no error
    assert json.loads((tmp_path / "campaign_manifest.lock").read_text())[
        "pid"
    ] == os.getpid()
    second.release()
    first.release()


def test_stale_lease_from_dead_pid_is_taken_over(tmp_path):
    lock_path = tmp_path / "campaign_manifest.lock"
    lock_path.write_text(
        json.dumps({"pid": 999_999_999, "host": "gone", "acquired_at": "x"})
    )
    lock = CampaignLock.acquire(tmp_path)  # must not raise
    assert json.loads(lock_path.read_text())["pid"] == os.getpid()
    lock.release()
    assert not lock_path.exists()


def test_lock_release_is_idempotent(tmp_path):
    lock = CampaignLock.acquire(tmp_path)
    lock.release()
    lock.release()  # second release is a no-op, not an error


# ------------------------------------------------------------ retry salt
def test_retry_jitter_decorrelated_across_call_sites():
    """Satellite: two call sites (different salts) draw different jitter;
    the same salt reproduces exactly (determinism preserved)."""
    policy = RetryPolicy(max_attempts=6, base_delay=0.1, jitter=0.9, seed=7)
    a1 = list(policy.delays(salt="SPR-DDR|Basic_DAXPY|Base_Seq|0"))
    a2 = list(policy.delays(salt="SPR-DDR|Basic_DAXPY|Base_Seq|0"))
    b = list(policy.delays(salt="SPR-DDR|Stream_TRIAD|Base_Seq|0"))
    unsalted = list(policy.delays())
    assert a1 == a2  # deterministic per site
    assert a1 != b  # decorrelated between sites
    assert a1 != unsalted
    assert len(a1) == policy.max_attempts - 1


def test_zero_jitter_salt_is_inert():
    policy = RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0, seed=7)
    assert list(policy.delays(salt="a")) == list(policy.delays(salt="b"))
