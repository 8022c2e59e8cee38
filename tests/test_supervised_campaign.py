"""Supervised multi-process campaign execution.

A campaign under ``--workers N`` must survive process-level failure:
workers that crash (``os._exit``), workers that wedge (heartbeats stop),
and a SIGINT that arrives mid-sweep. One lost worker costs one cell
attempt — never the campaign.
"""

import json
import multiprocessing
import os
import signal
import struct

import pytest

from repro.faults import Fault, FaultPlan
from repro.suite import MANIFEST_NAME, RunParams, SuiteExecutor
from repro.suite import supervisor as supervisor_mod
from repro.suite.heartbeat import HeartbeatMonitor
from repro.suite.manifest import CampaignManifest
from repro.suite.supervisor import CampaignSupervisor

_REAL_WORKER_MAIN = supervisor_mod.worker_main


def _params(tmp_path, **overrides):
    defaults = dict(
        machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY",),
        trials=2,
        output_dir=str(tmp_path),
        workers=2,
        heartbeat_timeout=10.0,
        max_attempts=3,
        retry_base_delay=0.01,
        retry_jitter=0.0,
    )
    defaults.update(overrides)
    return RunParams(**defaults)


def _manifest_cells(tmp_path):
    return json.loads((tmp_path / MANIFEST_NAME).read_text())["cells"]


def test_parallel_campaign_completes(tmp_path):
    params = _params(tmp_path)
    result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 4}
    assert len(result.profiles) == 4
    assert len(result.cali_paths) == 4
    assert result.report.clean
    cells = _manifest_cells(tmp_path)
    assert len(cells) == 4
    assert all(entry["status"] == "ok" for entry in cells.values())
    # the advisory lock is released on exit
    assert not (tmp_path / "campaign_manifest.lock").exists()


def test_a_cell_the_loop_loses_is_never_reported_clean(tmp_path, monkeypatch):
    """A completed run must have recorded every pending cell: a task the
    dispatch loses is an internal error naming it, not a clean report."""
    real_plan_batch = supervisor_mod.plan_batch
    dropped = []

    def lossy_plan_batch(*args, **kwargs):
        batch = real_plan_batch(*args, **kwargs)
        if batch and not dropped:
            dropped.append(batch.pop(0).key)
        return batch

    monkeypatch.setattr(supervisor_mod, "plan_batch", lossy_plan_batch)
    with pytest.raises(RuntimeError, match="never recorded") as excinfo:
        SuiteExecutor(_params(tmp_path)).run(write_files=True)
    assert dropped and dropped[0] in str(excinfo.value)


def test_parallel_matches_serial_cell_set(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial = SuiteExecutor(_params(serial_dir, workers=1)).run(write_files=True)
    parallel = SuiteExecutor(_params(parallel_dir)).run(write_files=True)
    assert set(serial.report.cells) == set(parallel.report.cells)
    assert sorted(p.name for p in serial.cali_paths) == sorted(
        p.name for p in parallel.cali_paths
    )


def test_supervised_profiles_are_delivered_in_full(tmp_path):
    """Every ``ok`` cell's profile crosses its worker's pipe intact: one
    in-memory profile per cell, each serializing to exactly the bytes
    its worker archived."""
    from repro.caliper.cali import serialize_cali
    from repro.caliper.calipack import load_entries, read_entry_bytes, split_member_ref

    params = _params(
        tmp_path,
        machines=("SPR-DDR", "P9-V100"),
        variants=("Base_Seq", "RAJA_Seq", "RAJA_CUDA"),
        kernels=("Basic_DAXPY", "Stream_TRIAD", "Apps_ENERGY"),
        pack=True,
    )
    result = SuiteExecutor(params).run(write_files=True)
    assert result.report.clean
    ok = result.report.cell_counts()["ok"]
    assert len(result.profiles) == len(result.cali_paths) == ok
    archive = tmp_path / "campaign.calipack"
    entries = {e.name: e for e in load_entries(archive)}
    assert len(entries) == ok
    for profile, ref in zip(result.profiles, result.cali_paths):
        _, name = split_member_ref(str(ref))
        assert serialize_cali(profile) == read_entry_bytes(archive, entries[name])


def test_worker_crash_costs_one_attempt_not_the_campaign(tmp_path):
    """Acceptance: a worker_crash on one cell of a --workers 4 campaign
    completes with the crashed cell retried and the manifest all ok."""
    params = _params(tmp_path, workers=4)
    plan = FaultPlan(
        [
            Fault(
                site="worker.pre-cell",
                variant="RAJA_Seq",
                trial=1,
                attempt=1,
            )
        ]
    )
    with plan:
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 4}
    assert result.report.clean
    crash_records = [
        r for r in result.report.records if r.kernel == "<worker crash>"
    ]
    assert len(crash_records) == 1
    assert crash_records[0].status == "retried"
    assert crash_records[0].cell == "SPR-DDR|RAJA_Seq|default|trial1"
    assert "exit code 73" in crash_records[0].error
    cells = _manifest_cells(tmp_path)
    assert all(entry["status"] == "ok" for entry in cells.values())


def test_worker_crash_is_deterministic(tmp_path):
    """Same specs, same campaign -> same recovery story, twice."""
    stories = []
    for sub in ("a", "b"):
        plan = FaultPlan(
            [
                Fault(
                    site="worker.pre-cell",
                    variant="RAJA_Seq",
                    trial=0,
                    attempt=1,
                )
            ]
        )
        with plan:
            result = SuiteExecutor(_params(tmp_path / sub)).run(write_files=True)
        stories.append(
            (
                result.report.cell_counts(),
                sorted(
                    (r.cell, r.status)
                    for r in result.report.records
                    if r.kernel == "<worker crash>"
                ),
            )
        )
    assert stories[0] == stories[1] == (
        {"ok": 4},
        [("SPR-DDR|RAJA_Seq|default|trial0", "retried")],
    )


def test_worker_crash_budget_exhaustion_fails_only_that_cell(tmp_path):
    """A cell that crashes its worker on every attempt is marked failed;
    the other cells still complete."""
    params = _params(tmp_path, max_attempts=2)
    plan = FaultPlan(
        [
            Fault(
                site="worker.pre-cell",
                variant="RAJA_Seq",
                trial=1,
                attempt="*",
                times=None,
            )
        ]
    )
    with plan:
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 3, "failed": 1}
    assert result.report.cells["SPR-DDR|RAJA_Seq|default|trial1"] == "failed"
    final = [
        r
        for r in result.report.records
        if r.kernel == "<worker crash>" and r.status == "failed"
    ]
    assert len(final) == 1
    assert final[0].attempts == 2
    cells = _manifest_cells(tmp_path)
    assert cells["SPR-DDR|RAJA_Seq|default|trial1"]["status"] == "failed"


def test_stale_heartbeat_worker_is_killed_and_cell_requeued(tmp_path):
    params = _params(tmp_path, heartbeat_timeout=0.5)
    plan = FaultPlan(
        [
            Fault(
                site="worker.pre-cell", action="hang",
                variant="Base_Seq",
                trial=0,
                attempt=1,
                hang_seconds=60.0,
            )
        ]
    )
    with plan:
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 4}
    stale = [r for r in result.report.records if r.kernel == "<worker crash>"]
    assert len(stale) == 1
    assert stale[0].status == "retried"
    assert "heartbeat" in stale[0].error


def _tear_first_dispatch(worker_id, params, conn, *args):
    """Worker 0 takes its first dispatch, writes a torn frame — a length
    header promising more bytes than follow — and dies the way an
    ``exit`` fault does. Every other worker is a real one."""
    if worker_id != 0:
        return _REAL_WORKER_MAIN(worker_id, params, conn, *args)
    conn.recv()
    os.write(conn.fileno(), struct.pack("!i", 1 << 20) + b"torn")
    os._exit(73)


def test_worker_dying_mid_message_costs_one_attempt(tmp_path, monkeypatch):
    """A message cut short by its writer's death breaks only that
    worker's pipe: the cell retries and the campaign finishes clean."""
    monkeypatch.setattr(supervisor_mod, "worker_main", _tear_first_dispatch)
    result = SuiteExecutor(_params(tmp_path)).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 4}
    assert result.report.clean
    crashes = [r for r in result.report.records if r.kernel == "<worker crash>"]
    assert len(crashes) == 1
    assert crashes[0].status == "retried"
    assert "exit code 73" in crashes[0].error


def _armed_campaign(outdir, token):
    os.setsid()  # one process group, so a hung run's workers die with it
    plan = FaultPlan(
        [
            Fault(
                site="fsio.before-tmp-write", action="exit", hit=2,
                token=str(token),
            )
        ]
    )
    params = _params(
        outdir, kernels=("Basic_DAXPY", "Stream_TRIAD"), problem_size=1024,
        reps=1, retry_base_delay=0.0, retry_max_delay=0.0,
    )
    with plan:
        SuiteExecutor(params).run(write_files=True)


def test_worker_killed_mid_campaign_never_wedges_the_pool(tmp_path):
    """A worker that dies by ``os._exit`` at its second profile write,
    while its heartbeat thread may be mid-send, must not stall the
    other workers' results: every bounded run finishes, all cells ok."""
    ctx = multiprocessing.get_context("fork")
    hung = []
    for run in range(20):
        outdir = tmp_path / f"run{run}"
        child = ctx.Process(
            target=_armed_campaign, args=(outdir, tmp_path / f"token{run}")
        )
        child.start()
        child.join(20.0)
        if child.is_alive():
            hung.append(run)
            os.killpg(child.pid, signal.SIGKILL)
            child.join()
            continue
        assert child.exitcode == 0
        cells = _manifest_cells(outdir)
        assert len(cells) == 4
        assert all(entry["status"] == "ok" for entry in cells.values())
    assert not hung, f"runs {hung} of 20 hung past the 20 s bound"


def test_sigint_mid_campaign_leaves_loadable_manifest_and_resumes(tmp_path):
    """Satellite: SIGINT drains in-flight cells, flushes the manifest,
    and --resume completes only the missing cells."""
    params = _params(tmp_path)
    executor = SuiteExecutor(params)
    fired = []

    def interrupt_once(key):
        if not fired:
            fired.append(key)
            signal.raise_signal(signal.SIGINT)

    supervisor = CampaignSupervisor(params, on_cell_complete=interrupt_once)
    result = supervisor.run(executor.build_cells(), write_files=True)
    assert result.report.interrupted
    assert "re-invoke with --resume" in result.report.summary()
    completed = set(result.report.cells)
    assert fired and completed  # at least the interrupting cell landed
    assert len(completed) < 4  # ... but not the whole campaign

    manifest = CampaignManifest.load_or_create(tmp_path, params.fingerprint())
    assert set(manifest.cells) == completed
    assert all(entry["status"] == "ok" for entry in manifest.cells.values())

    resumed = SuiteExecutor(_params(tmp_path, workers=1, resume=True)).run(
        write_files=True
    )
    counts = resumed.report.cell_counts()
    assert counts["skipped"] == len(completed)
    assert counts["ok"] == 4 - len(completed)
    assert set(resumed.report.cells) | completed == {
        f"SPR-DDR|{v}|default|trial{t}"
        for v in ("Base_Seq", "RAJA_Seq")
        for t in (0, 1)
    }
    assert all(
        entry["status"] == "ok" for entry in _manifest_cells(tmp_path).values()
    )


def test_parallel_resume_skips_completed_cells(tmp_path):
    first = SuiteExecutor(_params(tmp_path)).run(write_files=True)
    assert first.report.cell_counts() == {"ok": 4}
    again = SuiteExecutor(_params(tmp_path, resume=True)).run(write_files=True)
    assert again.report.cell_counts() == {"skipped": 4}
    assert not again.report.records  # nothing re-ran


def test_fail_fast_incompatible_with_workers():
    with pytest.raises(ValueError, match="fail_fast"):
        RunParams(fail_fast=True, workers=2)


def test_supervisor_requires_multiple_workers(tmp_path):
    with pytest.raises(ValueError, match="workers >= 2"):
        CampaignSupervisor(_params(tmp_path, workers=1))


def test_run_params_validate_supervision_knobs():
    with pytest.raises(ValueError, match="workers"):
        RunParams(workers=0)
    with pytest.raises(ValueError, match="heartbeat"):
        RunParams(heartbeat_timeout=0.0)


def test_workers_do_not_change_campaign_fingerprint(tmp_path):
    """A parallel campaign may resume a serial one and vice versa."""
    serial = _params(tmp_path, workers=1).fingerprint()
    parallel = _params(tmp_path, workers=8, heartbeat_timeout=1.0).fingerprint()
    assert serial == parallel


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_heartbeat_monitor_staleness_uses_supervisor_clock():
    clock = _FakeClock()
    monitor = HeartbeatMonitor(timeout=5.0, clock=clock)
    monitor.register(0)
    monitor.register(1)
    clock.t = 4.0
    monitor.beat(1)
    assert not monitor.is_stale(0)
    clock.t = 5.5
    assert monitor.is_stale(0)
    assert not monitor.is_stale(1)
    assert monitor.stale_workers() == [0]
    monitor.forget(0)
    assert monitor.stale_workers() == []
    assert not monitor.is_stale(0)  # forgotten workers are not stale
