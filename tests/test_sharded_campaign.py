"""Sharded scale-out campaigns: partition, heal, merge, converge.

A campaign under ``--shards N`` must be *indistinguishable* from a
single-supervisor run once merged — bit-for-bit — and must survive
process-level failure at the shard layer: a shard killed mid-write is
healed in flight by the coordinator, a killed coordinator converges via
``fsck`` + ``run --resume``, and a shard that keeps dying is retired
with its residue reassigned to the survivors.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.caliper import calipack
from repro.chaos import invariants
from repro.cli.exitcodes import CHAOS_KILL
from repro.cli.main import main
from repro.faults import Fault, FaultPlan, install
from repro.suite.coordinator import ShardMap, shard_status
from repro.suite.errors import CampaignLockedError
from repro.suite.executor import SuiteExecutor
from repro.suite.fsck import fsck_directory
from repro.suite.manifest import LOCK_NAME, MANIFEST_NAME, CampaignLock
from repro.suite.run_params import RunParams
from repro.suite.shard import SHARD_DIR

_CTX = multiprocessing.get_context("fork")


def _params(outdir, shards=2, **overrides) -> RunParams:
    defaults = dict(
        problem_size=1024,
        machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY", "Stream_TRIAD"),
        trials=2,
        pack=True,
        output_dir=str(outdir),
        shards=shards,
        shard_lease_timeout=10.0,
        max_attempts=3,
        retry_base_delay=0.0,
        retry_max_delay=0.0,
        retry_jitter=0.0,
        heartbeat_timeout=10.0,
    )
    defaults.update(overrides)
    return RunParams(**defaults)


def _manifest_cells(outdir):
    return json.loads((outdir / MANIFEST_NAME).read_text())["cells"]


def _expected_keys(params) -> set[str]:
    return {cell.key for cell in SuiteExecutor(params).build_cells()}


def _archive_bytes(outdir) -> bytes:
    return (outdir / calipack.ARCHIVE_NAME).read_bytes()


def _thicket(outdir):
    from repro.thicket import Thicket

    archive = outdir / calipack.ARCHIVE_NAME
    names = sorted(e.name for e in calipack.load_entries(archive))
    return Thicket.from_caliperreader(
        [calipack.member_ref(archive, n) for n in names]
    )


def _armed_campaign(params, schedule):
    install(FaultPlan([schedule]))
    SuiteExecutor(params).run(write_files=True)


def _run_armed(params, schedule) -> int:
    child = _CTX.Process(target=_armed_campaign, args=(params, schedule))
    child.start()
    child.join(120)
    assert not child.is_alive()
    return child.exitcode


def _schedule(point, token, hit=1) -> Fault:
    return Fault(
        site=point, hit=hit, action="exit", torn=False, seed=0, token=str(token)
    )


# --------------------------------------------------------------- equivalence
def test_sharded_run_is_bit_identical_to_single_supervisor(tmp_path):
    single = SuiteExecutor(_params(tmp_path / "single", shards=0)).run(
        write_files=True
    )
    sharded = SuiteExecutor(_params(tmp_path / "sharded", shards=3)).run(
        write_files=True
    )
    assert single.report.clean and sharded.report.clean
    assert _archive_bytes(tmp_path / "single") == _archive_bytes(
        tmp_path / "sharded"
    )
    assert invariants.thickets_match(
        _thicket(tmp_path / "single"), _thicket(tmp_path / "sharded")
    ) == []
    # cell records reference the *merged* campaign archive, not a shard
    for path in sharded.cali_paths:
        ref = calipack.split_member_ref(str(path))
        assert ref is not None
        assert ref[0] == str(tmp_path / "sharded" / calipack.ARCHIVE_NAME)
    assert not (tmp_path / "sharded" / LOCK_NAME).exists()


def test_more_shards_than_cells_completes(tmp_path):
    params = _params(tmp_path, shards=8, trials=1, kernels=("Basic_DAXPY",))
    result = SuiteExecutor(params).run(write_files=True)
    assert result.report.clean
    assert set(_manifest_cells(tmp_path)) == _expected_keys(params)


def test_active_fault_injector_reaches_the_shards(tmp_path):
    """Shards inherit the installed plan by fork: a permanent kernel
    fault fails exactly its cell, and the campaign still completes."""
    params = _params(tmp_path, shards=2)
    fault = Fault(
        site="executor.kernel", variant="RAJA_Seq", trial=1, times=None
    )
    with FaultPlan([fault]):
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 3, "failed": 1}
    cells = _manifest_cells(tmp_path)
    assert set(cells) == _expected_keys(params)
    failed = {key for key, entry in cells.items() if entry["status"] != "ok"}
    assert failed == {"SPR-DDR|RAJA_Seq|default|trial1"}


# ------------------------------------------------------------------- healing
def test_shard_killed_mid_write_is_healed_in_flight(tmp_path):
    """A shard dying mid-archive-append costs one respawn, never the
    campaign: the coordinator fscks the shard dir and re-runs it with
    resume, and the merged result still matches an unsharded run."""
    golden_dir = tmp_path / "golden"
    assert SuiteExecutor(_params(golden_dir, shards=0)).run(
        write_files=True
    ).report.clean

    outdir = tmp_path / "campaign"
    params = _params(outdir)
    token = tmp_path / "strike.token"
    code = _run_armed(
        params, _schedule("calipack.mid-entry-append", token)
    )
    assert code == 0  # the coordinator survived and completed
    assert token.exists()  # ...and a shard really did die mid-write
    cells = _manifest_cells(outdir)
    assert set(cells) == _expected_keys(params)
    assert all(entry["status"] == "ok" for entry in cells.values())
    assert _archive_bytes(outdir) == _archive_bytes(golden_dir)
    assert invariants.check_shard_campaign(_expected_keys(params), outdir) == []


def test_coordinator_killed_mid_campaign_converges_via_fsck_resume(tmp_path):
    golden_dir = tmp_path / "golden"
    assert SuiteExecutor(_params(golden_dir, shards=0)).run(
        write_files=True
    ).report.clean

    outdir = tmp_path / "campaign"
    params = _params(outdir)
    token = tmp_path / "strike.token"
    code = _run_armed(params, _schedule("shard.post-shard-exit", token))
    assert code == CHAOS_KILL
    assert token.exists()

    fsck_directory(outdir)
    resumed = SuiteExecutor(
        dataclasses.replace(params, resume=True)
    ).run(write_files=True)
    assert resumed.report.clean
    cells = _manifest_cells(outdir)
    assert set(cells) == _expected_keys(params)
    assert all(entry["status"] == "ok" for entry in cells.values())
    assert _archive_bytes(outdir) == _archive_bytes(golden_dir)
    assert invariants.check_shard_campaign(_expected_keys(params), outdir) == []
    assert fsck_directory(outdir).clean


def test_repeatedly_dying_shard_is_retired_and_residue_reassigned(tmp_path):
    """With the respawn budget exhausted the coordinator retires the
    shard and deals its unfinished cells to the survivors instead of
    failing the campaign."""
    golden_dir = tmp_path / "golden"
    assert SuiteExecutor(
        _params(golden_dir, shards=0, max_attempts=1)
    ).run(write_files=True).report.clean

    outdir = tmp_path / "campaign"
    params = _params(outdir, max_attempts=1)  # first death retires
    token = tmp_path / "strike.token"
    code = _run_armed(
        params, _schedule("calipack.mid-entry-append", token)
    )
    assert code == 0
    assert token.exists()

    shard_map = ShardMap.load(outdir)
    assert shard_map is not None
    assert len(shard_map.retired) == 1
    cells = _manifest_cells(outdir)
    assert set(cells) == _expected_keys(params)
    assert all(entry["status"] == "ok" for entry in cells.values())
    assert _archive_bytes(outdir) == _archive_bytes(golden_dir)
    assert invariants.check_shard_campaign(_expected_keys(params), outdir) == []


# ------------------------------------------------- cost-model partitioning
def test_lpt_partition_merges_bit_identical_to_round_robin(tmp_path):
    """The partition strategy decides which shard runs a cell, never
    what the cell produces: LPT and round-robin sharded campaigns merge
    to byte-identical archives, and the map records how it was cut."""
    fifo_dir, lpt_dir = tmp_path / "fifo", tmp_path / "lpt"
    assert SuiteExecutor(
        _params(fifo_dir, shards=3, schedule="fifo")
    ).run(write_files=True).report.clean
    assert SuiteExecutor(
        _params(lpt_dir, shards=3, schedule="lpt")
    ).run(write_files=True).report.clean

    assert _archive_bytes(fifo_dir) == _archive_bytes(lpt_dir)
    assert ShardMap.load(fifo_dir).strategy == "round_robin"
    assert ShardMap.load(lpt_dir).strategy == "lpt"


def test_legacy_strategyless_map_adopts_as_round_robin(tmp_path):
    """Shard maps written before the cost-model scheduler carry no
    strategy key: they load as round_robin and a resume adopts the
    existing assignment verbatim even under ``--schedule lpt``."""
    params = _params(tmp_path, shards=2, schedule="fifo")
    assert SuiteExecutor(params).run(write_files=True).report.clean
    golden = _archive_bytes(tmp_path)

    map_path = tmp_path / "shard_map.json"
    payload = json.loads(map_path.read_text())
    assignment_before = payload.pop("strategy") and payload["assignment"]
    map_path.write_text(json.dumps(payload))

    legacy = ShardMap.load(tmp_path)
    assert legacy is not None
    assert legacy.strategy == "round_robin"

    resumed = SuiteExecutor(
        dataclasses.replace(params, resume=True, schedule="lpt")
    ).run(write_files=True)
    assert resumed.report.clean
    adopted = ShardMap.load(tmp_path)
    assert adopted.strategy == "round_robin"  # adoption never re-cuts
    assert adopted.assignment == assignment_before
    assert _archive_bytes(tmp_path) == golden


def test_shard_status_shows_estimated_cost_and_balance(tmp_path):
    """On a cost-skewed campaign the status report carries the per-shard
    estimated-cost column, the partition strategy, and the balance
    ratio of the cut."""
    params = _params(
        tmp_path,
        shards=2,
        machines=("SPR-DDR", "P9-V100"),
        variants=("Base_Seq", "RAJA_Seq", "RAJA_CUDA"),
        gpu_block_sizes=(8,),
    )
    assert SuiteExecutor(params).run(write_files=True).report.clean

    text = shard_status(tmp_path)
    assert "lpt partition" in text
    assert "cost~" in text
    ratio_lines = [
        line
        for line in text.splitlines()
        if "estimated cost balance (max/min):" in line
    ]
    assert len(ratio_lines) == 1
    assert float(ratio_lines[0].rsplit(":", 1)[1]) >= 1.0


# ------------------------------------------------------------ status + fsck
def test_shard_status_reports_per_shard_progress(tmp_path, capsys):
    params = _params(tmp_path)
    SuiteExecutor(params).run(write_files=True)
    text = shard_status(tmp_path)
    assert "2 shard(s)" in text
    assert "shard-0:" in text and "shard-1:" in text
    assert "campaign archive: campaign.calipack (present)" in text

    assert main(["shard-status", str(tmp_path)]) == 0
    capsys.readouterr()
    plain = tmp_path / "plain"
    plain.mkdir()
    assert main(["shard-status", str(plain)]) == 1


def test_sharded_run_summary_counts_cells_and_profiles(tmp_path, capsys):
    """The coordinator books cells, not kernel runs, and its profiles
    stay in the merged archive: the summary reports both from there."""
    argv = ["run", "--size", "1024", "--machines", "SPR-DDR",
            "--variants", "Base_Seq", "--kernels", "Basic_DAXPY",
            "--trials", "2", "--shards", "2", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["2 profiles, 1 kernels each", "2 cells: 2 ok"]
    assert main(argv + ["--resume"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "2 profiles, 1 kernels each",
        "2 cells: 2 skipped",
        "  2 cell(s) skipped (already complete in manifest)",
    ]


@pytest.mark.parametrize("pack", [[], ["--pack"]], ids=["loose", "packed"])
def test_unsharded_resume_counts_the_profiles_the_campaign_holds(
    tmp_path, capsys, pack
):
    """A resume that skips every cell reports the campaign's profiles
    by the same rule as a sharded run: the manifest's ok cells."""
    argv = ["run", "--size", "1024", "--machines", "SPR-DDR",
            "--variants", "Base_Seq", "--kernels", "Basic_DAXPY",
            "--trials", "2", "--output-dir", str(tmp_path), *pack]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "2 profiles, 1 kernels each", "2 kernel runs across 2 cells: 2 ok"
    ]
    assert main(argv + ["--resume"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "2 profiles, 1 kernels each",
        "2 cells: 2 skipped",
        "  2 cell(s) skipped (already complete in manifest)",
    ]


def _owing_shard(tmp_path):
    """A one-shard campaign map whose shard still owes two cells."""
    (tmp_path / "shard_map.json").write_text(json.dumps({
        "format": "rajaperf-shard-map", "version": 1, "shards": 1,
        "assignment": {"shard-0": ["cell-a", "cell-b"]}, "retired": [],
    }))
    shard = tmp_path / SHARD_DIR / "shard-0"
    shard.mkdir(parents=True)
    return shard


def _hold_lock(directory, pid):
    (directory / LOCK_NAME).write_text(json.dumps({"pid": pid}))


def test_shard_status_degrades_when_the_lock_holder_is_dead(tmp_path, capsys):
    shard = _owing_shard(tmp_path)
    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    gone.wait()
    _hold_lock(shard, gone.pid)
    assert main(["shard-status", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert f"lock holder pid {gone.pid} dead" in captured.out
    assert (
        f"degraded: shard-0: 2 cell(s) pending, lock holder pid {gone.pid} "
        "is dead"
    ) in captured.err


def test_shard_status_live_lock_holder_is_not_degraded(tmp_path, capsys):
    shard = _owing_shard(tmp_path)
    holder = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"]
    )
    try:
        _hold_lock(shard, holder.pid)
        assert main(["shard-status", str(tmp_path)]) == 0
        assert f"running (pid {holder.pid})" in capsys.readouterr().out
        # A live coordinator between respawns still owns the work.
        (shard / LOCK_NAME).unlink()
        _hold_lock(tmp_path, holder.pid)
        assert main(["shard-status", str(tmp_path)]) == 0
    finally:
        holder.kill()
        holder.wait()


def test_fsck_recurses_into_shards_and_quarantines_orphan_dirs(tmp_path):
    params = _params(tmp_path)
    SuiteExecutor(params).run(write_files=True)

    orphan = tmp_path / SHARD_DIR / "shard-9"
    orphan.mkdir()
    (orphan / "junk.txt").write_text("leftover of a wider partition")

    report = fsck_directory(tmp_path)
    assert len(report.shard_reports) == 2  # the two live shard dirs
    assert all(sub.clean for sub in report.shard_reports)
    assert (tmp_path / "quarantine" / "shard-9" / "junk.txt").exists()
    assert not orphan.exists()
    assert any("orphan shard directory" in note for note in report.notes)
    assert invariants.check_shard_campaign(_expected_keys(params), tmp_path) == []


def test_fsck_sweeps_merge_scratch_left_by_older_versions(tmp_path):
    SuiteExecutor(_params(tmp_path)).run(write_files=True)
    merged = _archive_bytes(tmp_path)
    scratch = tmp_path / ".merge-scratch"
    scratch.mkdir()
    (scratch / "level0-0.calipack").write_bytes(b"stale intermediate")

    report = fsck_directory(tmp_path)
    assert not scratch.exists()
    assert "stale merge scratch removed" in report.notes
    assert _archive_bytes(tmp_path) == merged


def test_fsck_backs_up_unreadable_shard_map(tmp_path):
    SuiteExecutor(_params(tmp_path)).run(write_files=True)
    (tmp_path / "shard_map.json").write_text("{ torn")
    with pytest.warns(UserWarning, match="unreadable shard map"):
        report = fsck_directory(tmp_path)
    assert (tmp_path / "shard_map.json.bak").exists()
    assert any("shard map" in note for note in report.notes)


# ----------------------------------------------------- lock takeover races
def _noop():
    pass


def _contend(outdir, start, tried, queue):
    start.wait()
    try:
        lock = CampaignLock.acquire(outdir)
    except CampaignLockedError:
        lock = None
    queue.put(("locked" if lock is None else "won", os.getpid()))
    # Hold the outcome until both have tried: a winner releasing at once
    # would hand a late-scheduled contender a free lock to win as well.
    tried.wait(30)
    if lock is not None:
        lock.release()


def test_stale_lease_takeover_race_has_exactly_one_winner(tmp_path):
    """Two contenders racing for one expired lease: exactly one wins,
    the other fails with the same clean CampaignLockedError a live
    lease produces — never a second concurrent holder."""
    dead = _CTX.Process(target=_noop)
    dead.start()
    dead.join()
    (tmp_path / LOCK_NAME).write_text(
        json.dumps({"pid": dead.pid, "acquired_at": "2026-01-01T00:00:00"})
    )

    start, tried = _CTX.Barrier(2), _CTX.Barrier(2)
    queue = _CTX.Queue()
    contenders = [
        _CTX.Process(target=_contend, args=(tmp_path, start, tried, queue))
        for _ in range(2)
    ]
    for p in contenders:
        p.start()
    for p in contenders:
        p.join(30)
        assert p.exitcode == 0
    outcomes = sorted(queue.get(timeout=5)[0] for _ in range(2))
    assert outcomes == ["locked", "won"]
    # no takeover token left behind to wedge the next contender
    assert not (tmp_path / (LOCK_NAME + ".takeover")).exists()
    assert CampaignLock.acquire(tmp_path).acquired


def test_takeover_rereads_the_lease_after_claiming_the_token(
    tmp_path, monkeypatch
):
    """The interleaving that made two holders: B reads the dead lease,
    A takes over and writes its own, then B claims the free token. B
    must fail cleanly and leave A's lease as it is."""
    from repro.suite import manifest as manifest_mod

    dead = _CTX.Process(target=_noop)
    dead.start()
    dead.join()
    lock_path = tmp_path / LOCK_NAME
    lock_path.write_text(
        json.dumps({"pid": dead.pid, "acquired_at": "2026-01-01T00:00:00"})
    )
    real_create = manifest_mod.create_exclusive
    a_leases = []

    def b_create(path, data):
        if path.name.endswith(".takeover") and not a_leases:
            # B has judged the dead lease stale; A overtakes it now.
            monkeypatch.setattr(manifest_mod, "create_exclusive", real_create)
            a_leases.append(CampaignLock.acquire(tmp_path))
            a_leases.append(lock_path.read_text())
        return real_create(path, data)

    monkeypatch.setattr(manifest_mod, "create_exclusive", b_create)
    with pytest.raises(CampaignLockedError):
        CampaignLock.acquire(tmp_path)  # B
    a_lock, a_lease = a_leases
    assert a_lock.acquired
    assert lock_path.read_text() == a_lease
    assert not (tmp_path / (LOCK_NAME + ".takeover")).exists()
    a_lock.release()


def test_orphaned_takeover_token_does_not_wedge(tmp_path):
    """A token left by a contender that crashed mid-takeover is cleared
    once its claimant is dead; the next acquire succeeds."""
    dead = _CTX.Process(target=_noop)
    dead.start()
    dead.join()
    (tmp_path / LOCK_NAME).write_text(json.dumps({"pid": dead.pid}))
    (tmp_path / (LOCK_NAME + ".takeover")).write_text(
        json.dumps({"pid": dead.pid})
    )

    with pytest.raises(CampaignLockedError):
        CampaignLock.acquire(tmp_path)  # first attempt clears the token
    assert not (tmp_path / (LOCK_NAME + ".takeover")).exists()
    lock = CampaignLock.acquire(tmp_path)
    assert lock.acquired
    lock.release()


# -------------------------------------------------------------------- scale
@pytest.mark.skipif(
    not os.environ.get("REPRO_STRESS"),
    reason="10k-cell sharded campaign; set REPRO_STRESS=1 to run",
)
def test_ten_thousand_cell_campaign_across_four_shards(tmp_path):
    def big(outdir, shards):
        return _params(
            outdir,
            shards=shards,
            machines=("SPR-DDR", "SPR-HBM"),
            variants=("Base_Seq", "RAJA_Seq"),
            kernels=("Basic_DAXPY",),
            trials=2500,
        )

    single = big(tmp_path / "single", 0)
    sharded = big(tmp_path / "sharded", 4)
    assert len(_expected_keys(sharded)) == 10_000
    assert SuiteExecutor(single).run(write_files=True).report.clean
    assert SuiteExecutor(sharded).run(write_files=True).report.clean
    assert _archive_bytes(tmp_path / "single") == _archive_bytes(
        tmp_path / "sharded"
    )
    assert invariants.thickets_match(
        _thicket(tmp_path / "single"), _thicket(tmp_path / "sharded")
    ) == []
    assert invariants.check_shard_campaign(
        _expected_keys(sharded), tmp_path / "sharded"
    ) == []


def test_fork_under_a_live_parent_watch_is_quiet(tmp_path):
    """A shard forks its workers while its parent-watch thread is blocked
    on the shard's pipe: the fork must leave the child's thread machinery
    intact — no "Exception ignored" noise on stderr — and the worker
    must not hold the shard's end."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    body = textwrap.dedent(
        """
        from repro.cli.exitcodes import SHARD_ORPHANED
        from repro.util import child

        def worker(conn, shard_end):
            raise SystemExit(0 if shard_end.closed else 1)

        def shard(conn):
            process = child.spawn(worker, child.PIPE, conn, name="worker")
            process.join(60.0)
            raise SystemExit(process.exitcode)

        process = child.spawn(
            shard, child.PIPE, name="shard", daemon=False,
            orphan_exit=SHARD_ORPHANED,
        )
        process.join(60.0)
        raise SystemExit(process.exitcode)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", body], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120.0,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
