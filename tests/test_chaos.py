"""Chaos points, invariant checks, the chaos runner, and CLI exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.chaos.invariants import (
    check_completed_cells_remembered,
    check_full_cell_set,
    check_sealed_preserved,
    snapshot_store,
)
from repro.faults import (
    CRASH_POINTS,
    SITES,
    ChaosCrash,
    Fault,
    FaultPlan,
    fault_point,
)
from repro.cli import exitcodes
from repro.cli.main import main
from repro.util.fsio import TMP_GLOB, tmp_sibling, write_durable_text


def arm(fault):
    faults.install(FaultPlan([fault]))


def disarm():
    faults.install(None)


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no armed schedule (and no env leak)."""
    disarm()
    yield
    disarm()


# ---------------------------------------------------------------- points
class TestChaosSchedule:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault(site="no.such-point")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="supports actions"):
            Fault(site="manifest.pre-save", action="explode")

    def test_bad_hit_rejected(self):
        with pytest.raises(ValueError, match="hit"):
            Fault(site="manifest.pre-save", hit=0)

    def test_json_roundtrip(self):
        sched = Fault(
            site="fsio.before-replace", hit=3, action="exit",
            torn=True, seed=42, token="/tmp/tok",
        )
        (back,) = FaultPlan.parse(FaultPlan([sched]).to_json()).faults
        assert (back.site, back.hit, back.action, back.torn, back.seed,
                back.token) == (sched.site, sched.hit, sched.action,
                                sched.torn, sched.seed, sched.token)

    def test_registry_covers_both_phases_and_modes(self):
        specs = [SITES[name] for name in CRASH_POINTS]
        assert any(s.phase == "analyze" for s in specs)
        assert any(s.modes == ("serial",) for s in specs)
        assert any(s.modes == ("supervised",) for s in specs)
        assert any(s.torn for s in specs)
        assert list(CRASH_POINTS) == [
            name for name, site in SITES.items() if site.phase != "cell"
        ]


class TestCrashPointMechanics:
    def test_noop_when_disarmed(self, tmp_path):
        fault_point("manifest.pre-save", path=tmp_path / "x")  # no raise

    def test_armed_fires_chaoscrash(self):
        arm(Fault(site="manifest.pre-save"))
        with pytest.raises(ChaosCrash):
            fault_point("manifest.pre-save")

    def test_other_points_pass_through(self):
        arm(Fault(site="manifest.pre-save"))
        fault_point("fsio.before-tmp-write")  # different point: no strike

    def test_occurrence_counting(self):
        arm(Fault(site="manifest.pre-save", hit=3))
        fault_point("manifest.pre-save")
        fault_point("manifest.pre-save")
        with pytest.raises(ChaosCrash):
            fault_point("manifest.pre-save")

    def test_unregistered_name_guard_when_armed(self):
        arm(Fault(site="manifest.pre-save"))
        with pytest.raises(ValueError, match="unregistered"):
            fault_point("totally.bogus")

    def test_token_fires_exactly_once(self, tmp_path):
        token = tmp_path / "strike.token"
        arm(Fault(site="manifest.pre-save", token=str(token)))
        with pytest.raises(ChaosCrash):
            fault_point("manifest.pre-save")
        assert token.exists()
        # Re-arm (fresh count) with the same token: already claimed.
        arm(Fault(site="manifest.pre-save", token=str(token)))
        fault_point("manifest.pre-save")  # passes through

    def test_env_propagation_roundtrip(self):
        arm(Fault(site="calipack.pre-index", hit=2))
        raw = os.environ[faults.ENV_VAR]
        assert FaultPlan.parse(raw).faults[0].site == "calipack.pre-index"
        disarm()
        assert faults.ENV_VAR not in os.environ
        assert faults.installed() is None

    def test_torn_prefix_deterministic(self):
        a = faults._torn_prefix(7, "f.cali.tmp", 100)
        b = faults._torn_prefix(7, "f.cali.tmp", 100)
        c = faults._torn_prefix(8, "f.cali.tmp", 100)
        assert a == b and 0 <= a <= 100
        assert (7, a) != (8, c) or a == c  # different seed may differ

    def test_tear_respects_base(self, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(b"A" * 64 + b"B" * 64)
        faults._tear(str(f), torn_base=64, seed=0)
        data = f.read_bytes()
        assert 64 <= len(data) <= 128
        assert data[:64] == b"A" * 64  # durable prefix intact


class TestDurableWriteAtomicity:
    """In-process crashes at every fsio point never corrupt the target."""

    @pytest.mark.parametrize("point", [
        "fsio.before-tmp-write",
        "fsio.after-tmp-fsync",
        "fsio.before-replace",
    ])
    def test_pre_replace_crash_leaves_old_content(self, tmp_path, point):
        target = tmp_path / "ledger.json"
        write_durable_text(target, "old")
        arm(Fault(site=point))
        with pytest.raises(ChaosCrash):
            write_durable_text(target, "new")
        assert target.read_text() == "old"

    @pytest.mark.parametrize("point", [
        "fsio.after-replace",
        "fsio.before-dir-fsync",
    ])
    def test_post_replace_crash_leaves_new_content(self, tmp_path, point):
        target = tmp_path / "ledger.json"
        write_durable_text(target, "old")
        arm(Fault(site=point))
        with pytest.raises(ChaosCrash):
            write_durable_text(target, "new")
        assert target.read_text() == "new"

    def test_torn_tmp_never_reaches_target(self, tmp_path):
        target = tmp_path / "ledger.json"
        write_durable_text(target, "old")
        arm(Fault(site="fsio.after-tmp-fsync", torn=True, seed=3))
        with pytest.raises(ChaosCrash):
            write_durable_text(target, "x" * 4096)
        assert target.read_text() == "old"
        # the torn tmp is an orphan fsck will sweep, never the target
        assert list(tmp_path.glob(TMP_GLOB))

    def test_tmp_siblings_unique(self, tmp_path):
        target = tmp_path / "t.json"
        names = {tmp_sibling(target).name for _ in range(10)}
        assert len(names) == 10
        assert all(str(os.getpid()) in n for n in names)


# ------------------------------------------------------------- invariants
def _tiny_campaign(tmp_path, **kw):
    from repro.suite.executor import SuiteExecutor
    from repro.suite.run_params import RunParams

    params = RunParams(
        problem_size=1024,
        machines=("SPR-DDR",),
        variants=("Base_Seq",),
        kernels=("Basic_DAXPY",),
        output_dir=str(tmp_path),
        retry_base_delay=0.0,
        retry_max_delay=0.0,
        retry_jitter=0.0,
        **kw,
    )
    SuiteExecutor(params).run(write_files=True)
    return params


class TestInvariantChecks:
    def test_snapshot_sees_sealed_and_ok(self, tmp_path):
        _tiny_campaign(tmp_path)
        snap = snapshot_store(tmp_path)
        assert snap.profiles and snap.ok_cells
        assert not check_sealed_preserved(snap, tmp_path)
        assert not check_completed_cells_remembered(snap, tmp_path)
        assert not check_full_cell_set(snap.ok_cells, tmp_path)

    def test_silent_corruption_detected(self, tmp_path):
        _tiny_campaign(tmp_path)
        snap = snapshot_store(tmp_path)
        victim = sorted(tmp_path.glob("*.cali"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 4] ^= 0xFF
        victim.write_bytes(bytes(data))
        violations = check_sealed_preserved(snap, tmp_path)
        assert violations and "lost" in violations[0]

    def test_quarantined_profile_is_preserved(self, tmp_path):
        from repro.suite.fsck import fsck_directory

        _tiny_campaign(tmp_path)
        snap = snapshot_store(tmp_path)
        victim = sorted(tmp_path.glob("*.cali"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 4] ^= 0xFF
        victim.write_bytes(bytes(data))
        fsck_directory(tmp_path)
        # quarantine satisfies I1 even though the profile is unreadable
        assert not check_sealed_preserved(snap, tmp_path)
        # ...but the cell set is no longer complete until resume
        assert check_full_cell_set(snap.ok_cells, tmp_path)

    def test_lost_manifest_detected(self, tmp_path):
        from repro.suite.manifest import MANIFEST_NAME

        _tiny_campaign(tmp_path)
        snap = snapshot_store(tmp_path)
        (tmp_path / MANIFEST_NAME).unlink()
        assert check_completed_cells_remembered(snap, tmp_path)
        assert check_full_cell_set(snap.ok_cells, tmp_path)


# ------------------------------------------------------------- the runner
class TestChaosRunner:
    def test_serial_trial_converges(self, tmp_path):
        from repro.chaos.runner import ChaosRunner

        runner = ChaosRunner(
            seed=0, trials_per_point=1,
            points=["fsio.after-tmp-fsync"], modes=["serial"],
            workdir=tmp_path,
        )
        report = runner.run()
        assert report.ok, report.to_json()
        assert report.to_dict()["counts"].get("ok") == 1
        assert not report.uncovered_points()

    def test_packed_point_with_torn_writes(self, tmp_path):
        from repro.chaos.runner import ChaosRunner

        runner = ChaosRunner(
            seed=1, trials_per_point=2,
            points=["calipack.pre-footer"], modes=["serial"],
            workdir=tmp_path,
        )
        report = runner.run()
        assert report.ok, report.to_json()
        assert any(t.torn for t in report.verdicts if t.fired)

    def test_supervised_trial_converges(self, tmp_path):
        from repro.chaos.runner import ChaosRunner

        runner = ChaosRunner(
            seed=0, trials_per_point=1,
            points=["supervisor.post-record"], modes=["supervised"],
            workdir=tmp_path,
        )
        report = runner.run()
        assert report.ok, report.to_json()

    def test_refchecksum_publish_trials_converge(self, tmp_path):
        """An executed campaign's measured setup time may differ from the
        golden run's; only a real divergence is a violation."""
        from repro.chaos.runner import ChaosRunner

        runner = ChaosRunner(
            seed=0, trials_per_point=2,
            points=["refchecksums.pre-publish"],
            modes=["serial", "supervised"],
            workdir=tmp_path,
        )
        report = runner.run()
        assert report.ok, report.to_json()
        assert {t.mode for t in report.verdicts} == {"serial", "supervised"}

    @pytest.mark.parametrize("point,mode", [
        ("service.post-claim", "service"),
        ("retention.mid-delete", "service"),
        ("ingest-cache.pre-store", "serial"),
        ("shard.post-shard-exit", "sharded"),
    ])
    def test_every_phase_trial_converges(self, tmp_path, point, mode):
        """One trial per phase beyond ``run`` (and the sharded mode)."""
        from repro.chaos.runner import ChaosRunner

        report = ChaosRunner(
            seed=0, trials_per_point=1, points=[point], modes=[mode],
            workdir=tmp_path,
        ).run()
        assert report.ok, report.to_json()
        assert report.to_dict()["counts"] == {"ok": 1}

    def test_trial_table_covers_every_phase(self):
        from repro.chaos.runner import PHASES

        assert set(PHASES) == {SITES[p].phase for p in CRASH_POINTS}

    def test_quiesce_timeout_is_a_violation(self, tmp_path, monkeypatch):
        """A job lease whose holder never dies stops the trial before
        the audit reads a store that is still being written."""
        import dataclasses

        from repro.chaos import runner as chaos_runner

        row = chaos_runner.PHASES["service"]

        def seed_with_live_lease(runner, trial):
            row.seed(runner, trial)
            (trial.root / "jobs").mkdir(parents=True)
            (trial.root / "jobs" / "held.lease").write_text(
                json.dumps({"pid": os.getpid()})
            )

        monkeypatch.setitem(chaos_runner.PHASES, "service", dataclasses.replace(
            row, seed=seed_with_live_lease,
            armed=lambda trial, schedule: None, quiesce_s=0.2,
        ))
        report = chaos_runner.ChaosRunner(
            seed=0, points=["service.post-claim"], modes=["service"],
            workdir=tmp_path,
        ).run()
        (verdict,) = report.verdicts
        assert verdict.violations == [
            "post-crash: job lease jobs/held.lease still live after 0.2 s"
        ]

    def test_timed_out_child_is_reported_and_reaped(self, tmp_path,
                                                    monkeypatch):
        """A hung armed child is killed; its own worker reads EOF."""
        import dataclasses
        import time

        from repro.chaos import runner as chaos_runner
        from repro.suite.manifest import pid_alive
        from repro.util import child

        pids = tmp_path / "pids.json"

        def hang(trial, schedule):
            worker = child.spawn(time.sleep, 60, name="hung-worker",
                                 orphan_exit=1)
            pids.write_text(json.dumps([os.getpid(), worker.pid]))
            time.sleep(60)

        monkeypatch.setattr(chaos_runner, "CHILD_TIMEOUT_S", 1.0)
        monkeypatch.setitem(chaos_runner.PHASES, "run", dataclasses.replace(
            chaos_runner.PHASES["run"], armed=hang,
        ))
        report = chaos_runner.ChaosRunner(
            seed=0, points=["executor.post-cell"], modes=["serial"],
            workdir=tmp_path / "work",
        ).run()
        (verdict,) = report.verdicts
        assert verdict.violations == [
            "armed run child timed out after 1.0 s"
        ]
        armed_pid, worker_pid = json.loads(pids.read_text())
        with pytest.raises(ChildProcessError):  # reaped, not a zombie
            os.waitpid(armed_pid, os.WNOHANG)
        deadline = time.monotonic() + 10
        while pid_alive(worker_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not pid_alive(worker_pid)

    def test_unknown_point_rejected(self, tmp_path):
        from repro.chaos.runner import ChaosRunner

        with pytest.raises(ValueError):
            ChaosRunner(seed=0, points=["nope"], workdir=tmp_path)

    def test_self_test_catches_suppressed_repairs(self, tmp_path):
        from repro.chaos.runner import ChaosRunner

        runner = ChaosRunner(seed=0, workdir=tmp_path)
        result = runner.self_test()
        assert result["ok"], result
        assert all(s["detected"] for s in result["scenarios"])


# ------------------------------------------------------------- exit codes
class TestExitCodes:
    def test_constants_are_distinct(self):
        codes = [exitcodes.OK, exitcodes.UNCLEAN_RUN, exitcodes.USAGE,
                 exitcodes.CAMPAIGN_LOCKED, exitcodes.DEGRADED_ANALYSIS,
                 exitcodes.INVARIANT_VIOLATION, exitcodes.WORKER_CRASH,
                 exitcodes.CHAOS_KILL, exitcodes.INTERRUPTED]
        assert len(set(codes)) == len(codes)
        assert exitcodes.OK == 0
        assert exitcodes.CHAOS_KILL == 77

    def test_run_ok(self, tmp_path, capsys):
        rc = main(["run", "--output-dir", str(tmp_path), "--size", "1024",
                   "--machines", "SPR-DDR", "--variants", "Base_Seq",
                   "--kernels", "Basic_DAXPY"])
        assert rc == exitcodes.OK

    def test_run_locked(self, tmp_path, capsys):
        from repro.suite.manifest import LOCK_NAME

        holder = subprocess.Popen([sys.executable, "-c",
                                   "import time; time.sleep(30)"])
        try:
            (tmp_path / LOCK_NAME).write_text(
                json.dumps({"pid": holder.pid, "host": "x",
                            "acquired_at": "now"})
            )
            rc = main(["run", "--output-dir", str(tmp_path),
                       "--size", "1024", "--machines", "SPR-DDR",
                       "--variants", "Base_Seq",
                       "--kernels", "Basic_DAXPY"])
            assert rc == exitcodes.CAMPAIGN_LOCKED
            assert "lock" in capsys.readouterr().err.lower()
        finally:
            holder.kill()
            holder.wait()

    def test_analyze_degraded(self, tmp_path, capsys):
        main(["run", "--output-dir", str(tmp_path), "--size", "1024",
              "--machines", "SPR-DDR", "--variants", "Base_Seq", "RAJA_Seq",
              "--kernels", "Basic_DAXPY"])
        capsys.readouterr()
        profiles = sorted(tmp_path.glob("*.cali"))
        data = bytearray(profiles[0].read_bytes())
        data[10] ^= 0xFF
        profiles[0].write_bytes(bytes(data))
        rc = main(["analyze", "--json", "--no-cache"]
                  + [str(p) for p in profiles])
        assert rc == exitcodes.DEGRADED_ANALYSIS
        payload = json.loads(capsys.readouterr().out)
        assert payload["degraded"] is True
        assert payload["load_errors"]["count"] == 1
        assert payload["load_errors"]["sources"][0]["source"] == str(profiles[0])

    def test_analyze_clean_json(self, tmp_path, capsys):
        main(["run", "--output-dir", str(tmp_path), "--size", "1024",
              "--machines", "SPR-DDR", "--variants", "Base_Seq",
              "--kernels", "Basic_DAXPY"])
        capsys.readouterr()
        profile = sorted(tmp_path.glob("*.cali"))[0]
        rc = main(["analyze", "--json", "--no-cache", str(profile)])
        assert rc == exitcodes.OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["degraded"] is False
        assert payload["load_errors"] == {"count": 0, "sources": []}
        assert payload["matrix"]  # the metric matrix made it to JSON

    def test_chaos_usage_error(self, tmp_path, capsys):
        rc = main(["chaos", "--points", "no.such-point",
                   "--workdir", str(tmp_path)])
        assert rc == exitcodes.USAGE

    def test_chaos_cli_single_point(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        rc = main(["chaos", "--seed", "0", "--trials-per-point", "1",
                   "--points", "manifest.pre-save", "--modes", "serial",
                   "--workdir", str(tmp_path / "work"),
                   "--report", str(report_file)])
        assert rc == exitcodes.OK
        payload = json.loads(report_file.read_text())
        assert payload["ok"] is True
        assert payload["trials"][0]["point"] == "manifest.pre-save"
        assert "replay" in payload["trials"][0]

    def test_fsck_clean(self, tmp_path, capsys):
        main(["run", "--output-dir", str(tmp_path), "--size", "1024",
              "--machines", "SPR-DDR", "--variants", "Base_Seq",
              "--kernels", "Basic_DAXPY"])
        rc = main(["fsck", str(tmp_path)])
        assert rc == exitcodes.OK


class TestFsckTmpSweep:
    def test_orphaned_tmps_removed(self, tmp_path, capsys):
        _tiny_campaign(tmp_path)
        orphan = tmp_sibling(tmp_path / "rajaperf_x.cali")
        orphan.write_bytes(b"half-written garbage")
        rc = main(["fsck", str(tmp_path)])
        assert rc == exitcodes.OK
        assert not orphan.exists()
        assert "tmp file(s) removed" in capsys.readouterr().out

    def test_live_campaign_tmps_kept(self, tmp_path):
        from repro.suite.fsck import fsck_directory
        from repro.suite.manifest import LOCK_NAME

        _tiny_campaign(tmp_path)
        orphan = tmp_sibling(tmp_path / "rajaperf_x.cali")
        orphan.write_bytes(b"in-flight bytes of a live campaign")
        holder = subprocess.Popen([sys.executable, "-c",
                                   "import time; time.sleep(30)"])
        try:
            (tmp_path / LOCK_NAME).write_text(
                json.dumps({"pid": holder.pid, "host": "x",
                            "acquired_at": "now"})
            )
            report = fsck_directory(tmp_path)
            assert orphan.exists()
            assert not report.removed_tmp
        finally:
            holder.kill()
            holder.wait()
            (tmp_path / LOCK_NAME).unlink()

    def test_dry_run_keeps_tmps(self, tmp_path):
        from repro.suite.fsck import fsck_directory

        _tiny_campaign(tmp_path)
        orphan = tmp_sibling(tmp_path / "rajaperf_x.cali")
        orphan.write_bytes(b"garbage")
        fsck_directory(tmp_path, quarantine=False, mark_rerun=False)
        assert orphan.exists()
