"""The campaign manifest's append-only ledger.

A per-cell checkpoint appends one fsynced line to
``campaign_manifest.ledger``; the ``campaign_manifest.json`` snapshot is
written only when the ledger is compacted (campaign end, or the next
writer to find a ledger left behind). These tests pin the contract:
every reader replays the ledger, a torn tail is dropped and its cell
re-runs, replay is idempotent across a crash inside compaction, and a
completed campaign writes the snapshot exactly once.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.caliper import calipack
from repro.faults import ENV_VAR, ChaosCrash, Fault, FaultPlan, install
from repro.service.jobstore import JobStore, params_from_spec
from repro.service.scheduler import JobScheduler, SchedulerConfig
from repro.suite import MANIFEST_NAME, RunParams, SuiteExecutor
from repro.suite import manifest as manifest_mod
from repro.suite.costmodel import CellCostModel, load_measured_costs
from repro.suite.fsck import fsck_directory
from repro.suite.manifest import CampaignManifest

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

_SUPERVISED_RUN = [
    "run", "--size", "1024", "--machines", "SPR-DDR",
    "--variants", "Base_Seq", "RAJA_Seq",
    "--kernels", "Basic_DAXPY", "Stream_TRIAD", "--trials", "3",
    "--workers", "2", "--batch-cells", "4", "--pack",
]


def _cli(args, cwd, env=None) -> int:
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, full_env.get("PYTHONPATH")) if p
    )
    full_env.update(env or {})
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli.main", *args],
        cwd=cwd, env=full_env, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode


def _params(tmp_path, **overrides) -> RunParams:
    defaults = dict(
        problem_size=1024,
        machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY", "Stream_TRIAD"),
        trials=2,
        output_dir=str(tmp_path),
        retry_base_delay=0.0,
        retry_jitter=0.0,
    )
    defaults.update(overrides)
    return RunParams(**defaults)


def _crash_serial_after(params, cells: int) -> None:
    """Run ``params`` serially, crashing right after the ``cells``-th cell."""
    install(FaultPlan([Fault(site="executor.post-cell", hit=cells)]))
    try:
        with pytest.raises(ChaosCrash):
            SuiteExecutor(params).run(write_files=True)
    finally:
        install(None)


def _read(directory) -> CampaignManifest:
    return CampaignManifest.read(pathlib.Path(directory) / MANIFEST_NAME)


def _ok(manifest: CampaignManifest) -> set[str]:
    return {k for k, v in manifest.cells.items() if v["status"] == "ok"}


def test_killed_supervisor_ledger_resumes_byte_identical(tmp_path):
    golden, crashed = tmp_path / "golden", tmp_path / "crashed"
    assert _cli([*_SUPERVISED_RUN, "--output-dir", str(golden)], tmp_path) == 0
    schedule = Fault(
        site="supervisor.post-record", hit=3, action="exit",
        token=str(tmp_path / "strike.token"),
    )
    code = _cli(
        [*_SUPERVISED_RUN, "--output-dir", str(crashed)],
        tmp_path, env={ENV_VAR: FaultPlan([schedule]).to_json()},
    )
    assert code == 77
    # The kill left no snapshot: the survivors live in the ledger alone.
    assert not (crashed / MANIFEST_NAME).exists()
    assert (crashed / "campaign_manifest.ledger").exists()
    survivors = {
        k: v["elapsed_s"] for k, v in _read(crashed).cells.items()
        if v["status"] == "ok"
    }
    assert 3 <= len(survivors) < 6

    assert _cli(
        [*_SUPERVISED_RUN, "--resume", "--output-dir", str(crashed)], tmp_path
    ) == 0
    cells = _read(crashed).cells
    assert len(cells) == 6 and all(v["status"] == "ok" for v in cells.values())
    for key, elapsed in survivors.items():
        assert cells[key]["elapsed_s"] == elapsed, key  # not re-run
    assert not (crashed / "campaign_manifest.ledger").exists()
    assert filecmp.cmp(
        golden / calipack.ARCHIVE_NAME, crashed / calipack.ARCHIVE_NAME,
        shallow=False,
    )


def test_torn_ledger_tail_is_dropped_and_its_cell_reruns(tmp_path):
    params = _params(tmp_path)
    _crash_serial_after(params, 2)
    ledger = tmp_path / "campaign_manifest.ledger"
    assert len(_ok(_read(tmp_path))) == 2
    # Tear the second cell's line: its newline and a few bytes are lost.
    ledger.write_bytes(ledger.read_bytes()[:-7])
    torn = _read(tmp_path)
    assert len(torn.cells) == 1 and torn.torn_lines == 1

    report = fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
    assert any("torn tail of 1 line" in note for note in report.notes)
    assert ledger.exists()  # the read-only audit leaves it alone

    resumed = SuiteExecutor(dataclasses.replace(params, resume=True)).run(
        write_files=True
    )
    assert resumed.report.cell_counts() == {"skipped": 1, "ok": 3}
    assert len(_ok(_read(tmp_path))) == 4
    assert not ledger.exists()


def test_fsck_compacts_a_torn_ledger(tmp_path):
    _crash_serial_after(_params(tmp_path), 2)
    ledger = tmp_path / "campaign_manifest.ledger"
    ledger.write_bytes(ledger.read_bytes()[:-7])
    report = fsck_directory(tmp_path)
    assert any("torn tail" in note for note in report.notes)
    assert not ledger.exists()
    healed = _read(tmp_path)
    assert len(healed.cells) == 1 and healed.torn_lines == 0


def test_append_after_torn_tail_cuts_back_to_last_good_line(tmp_path):
    manifest = CampaignManifest.load_or_create(tmp_path, {"v": 1})
    manifest.record("a", "ok", file="a.cali")
    manifest.save()
    ledger = manifest.ledger_path
    with open(ledger, "ab") as handle:
        handle.write(b'{"key": "b", "entr')
    reader = _read(tmp_path)
    assert set(reader.cells) == {"a"} and reader.torn_lines == 1
    reader.record("c", "ok", file="c.cali")
    reader.save()
    replayed = _read(tmp_path)
    assert set(replayed.cells) == {"a", "c"} and replayed.torn_lines == 0
    assert replayed.fingerprint == {"v": 1}


def test_replay_is_idempotent_across_a_crash_inside_compaction(tmp_path):
    params = _params(tmp_path)
    SuiteExecutor(params).run(write_files=True)
    victim = sorted(tmp_path.glob("*.cali"))[0]
    victim.write_bytes(victim.read_bytes()[:-10])
    # fsck appends the demotion, then compacts; strike right after the
    # snapshot replace, before the ledger unlink.
    install(FaultPlan([Fault(site="fsio.after-replace", hit=1)]))
    try:
        with pytest.raises(ChaosCrash):
            fsck_directory(tmp_path)
    finally:
        install(None)
    ledger = tmp_path / "campaign_manifest.ledger"
    assert ledger.exists()
    demoted = [k for k, v in _read(tmp_path).cells.items() if v["status"] != "ok"]
    assert len(demoted) == 1
    # The strike came after the replace: the snapshot already demotes it.
    snapshot = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert snapshot["cells"][demoted[0]]["status"] == "failed"
    reloaded = CampaignManifest.load_or_create(tmp_path, params.fingerprint())
    assert not ledger.exists()
    assert reloaded.cells[demoted[0]]["status"] == "failed"
    assert "fsck" in reloaded.cells[demoted[0]]["rerun_reason"]
    assert _read(tmp_path).cells == reloaded.cells

    resumed = SuiteExecutor(dataclasses.replace(params, resume=True)).run(
        write_files=True
    )
    assert resumed.report.cell_counts() == {"skipped": 3, "ok": 1}


def test_cost_from_reads_an_uncompacted_ledger(tmp_path):
    first = tmp_path / "first"
    params = _params(first)
    _crash_serial_after(params, 2)
    assert not (first / MANIFEST_NAME).exists()
    measured = load_measured_costs(first / MANIFEST_NAME)
    assert set(measured) == _ok(_read(first))
    assert len(measured) == 2 and all(v > 0 for v in measured.values())
    model = CellCostModel.for_params(
        _params(tmp_path / "second", cost_from=str(first / MANIFEST_NAME))
    )
    for key, elapsed in measured.items():
        assert model.cost_of_key(key) == elapsed


def test_service_progress_counts_ledger_records_mid_campaign(tmp_path):
    store = JobStore(tmp_path / "root")
    spec = dict(
        problem_size=1024, machines=["SPR-DDR"],
        variants=["Base_Seq", "RAJA_Seq"],
        kernels=["Basic_DAXPY", "Stream_TRIAD"], trials=2,
    )
    record = store.submit(spec, job_id="j1")
    _crash_serial_after(
        params_from_spec(record.spec, store.campaign_dir("j1")), 3
    )
    scheduler = JobScheduler(store, SchedulerConfig(progress_interval=0.0))
    scheduler._record_progress(record, force=True)
    assert record.progress == {"ok": 3, "failed": 0, "total": 4}


def test_supervised_campaign_writes_the_snapshot_once(tmp_path, monkeypatch):
    snapshot_writes = []
    merges = []
    real_write = manifest_mod.write_durable_text
    real_merge = calipack._merge_archives

    def counting_write(target, text):
        snapshot_writes.append(pathlib.Path(target).name)
        return real_write(target, text)

    def counting_merge(sources, target):
        merges.append(target)
        return real_merge(sources, target)

    monkeypatch.setattr(manifest_mod, "write_durable_text", counting_write)
    monkeypatch.setattr(calipack, "_merge_archives", counting_merge)
    params = _params(
        tmp_path,
        machines=("SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X"),
        variants=(
            "Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP",
            "Base_CUDA", "RAJA_CUDA", "Base_HIP", "RAJA_HIP",
        ),
        gpu_block_sizes=(128, 256),
        kernels=("Basic_DAXPY",),
        trials=10,
        workers=2,
        pack=True,
    )
    result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 160}
    assert snapshot_writes == [MANIFEST_NAME]
    assert len(merges) == 1  # the segment merge is the archive's only seal
    assert len(_ok(_read(tmp_path))) == 160
    assert not (tmp_path / "campaign_manifest.ledger").exists()


def test_chaos_torn_ledger_append_converges(tmp_path):
    from repro.chaos.runner import ChaosRunner

    report = ChaosRunner(
        seed=0, trials_per_point=2, points=["manifest.mid-append"],
        modes=["serial", "supervised"], workdir=tmp_path,
    ).run()
    assert report.ok, report.to_json()
    assert any(t.torn for t in report.verdicts if t.fired)


def test_atomicity_check_allows_only_a_torn_last_ledger_line(tmp_path):
    from repro.chaos.runner import ChaosRunner

    manifest = CampaignManifest.load_or_create(tmp_path, {"v": 1})
    manifest.record("a", "ok", file="a.cali")
    manifest.save()
    runner = ChaosRunner(workdir=tmp_path / "work")
    with open(manifest.ledger_path, "ab") as handle:
        handle.write(b'{"key": "b", "en')
    assert runner._check_target_atomicity(tmp_path) == []
    with open(manifest.ledger_path, "ab") as handle:
        handle.write(b'\n{"key": "c", "entry": {"status": "ok"}}\n')
    assert any(
        "undecodable" in v for v in runner._check_target_atomicity(tmp_path)
    )
