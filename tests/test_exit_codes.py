"""Every documented CLI exit code, provoked for real.

``repro/cli/exitcodes.py`` is API: scripts and CI branch on these
statuses. Each code here is produced by an actual process exit — a
subprocess of the real CLI, a forked worker, a daemon-thread sentinel —
never by asserting on the constant itself, so the documented table
cannot drift from behavior. A drift test closes the loop: a constant
added to the module without a provoker here fails the suite.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cli import exitcodes
from repro.suite.manifest import CampaignLock

_CTX = multiprocessing.get_context("fork")

#: subprocesses run from tmp dirs: their import path must be absolute
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

_RUN_SMALL = [
    "run", "--size", "1024", "--machines", "SPR-DDR",
    "--variants", "Base_Seq", "--kernels", "Basic_DAXPY",
]


def _cli(args, cwd, env=None, timeout=300.0) -> int:
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, full_env.get("PYTHONPATH")) if p
    )
    full_env.update(env or {})
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli.main", *args],
        cwd=cwd, env=full_env, capture_output=True, text=True,
        timeout=timeout,
    )
    return proc.returncode


def _script(body, cwd, timeout=300.0) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode


# ------------------------------------------------------------- provokers
def _provoke_ok(tmp):
    return _cli(["list", "kernels"], tmp)


def _provoke_unclean_run(tmp):
    # shard-status of a directory that is not a sharded campaign
    return _cli(["shard-status", str(tmp)], tmp)


def _provoke_usage(tmp):
    return _cli(["run", "--no-such-flag"], tmp)


def _provoke_campaign_locked(tmp):
    lock = CampaignLock.acquire(tmp)  # this test process is the live holder
    try:
        return _cli([*_RUN_SMALL, "--output-dir", str(tmp)], tmp)
    finally:
        lock.release()


def _provoke_degraded(tmp):
    # A sharded campaign with pending cells and nobody live to run them.
    (tmp / "shard_map.json").write_text(json.dumps({
        "format": "rajaperf-shard-map", "version": 1, "shards": 1,
        "assignment": {"shard-0": ["cell-a", "cell-b"]}, "retired": [],
    }))
    (tmp / "shards" / "shard-0").mkdir(parents=True)
    return _cli(["shard-status", str(tmp)], tmp)


def _provoke_invariant_violation(tmp):
    # Neuter the corruption check: the self-test must notice that its
    # seeded damage went undetected and fail loudly.
    return _script(
        f"""
        import sys
        from repro.chaos import invariants
        invariants.check_sealed_preserved = lambda *a, **k: []
        from repro.cli.main import main
        sys.exit(main([
            "chaos", "--self-test", "--seed", "0",
            "--workdir", {str(tmp)!r},
        ]))
        """,
        tmp,
    )


def _provoke_job_rejected(tmp):
    return _cli(
        ["submit", "--root", str(tmp), "--max-queue-depth", "0",
         "--size", "1024", "--machines", "SPR-DDR",
         "--variants", "Base_Seq", "--kernels", "Basic_DAXPY"],
        tmp,
    )


def _provoke_job_not_found(tmp):
    (tmp / "jobs").mkdir()
    return _cli(["jobs", "--root", str(tmp), "--job", "no-such-job"], tmp)


def _provoke_worker_crash(tmp):
    from repro.faults import Fault, FaultPlan
    from repro.suite.run_params import RunParams
    from repro.suite.worker import CellTask, worker_main

    params = RunParams(
        problem_size=1024, machines=("SPR-DDR",), variants=("Base_Seq",),
        kernels=("Basic_DAXPY",), output_dir=str(tmp),
    )
    conn, child_conn = _CTX.Pipe()
    conn.send(CellTask(
        machine="SPR-DDR", variant="Base_Seq", block=0, trial=0,
        fname="x.cali",
    ))
    child = _CTX.Process(
        target=worker_main, args=(0, params, child_conn, False),
    )
    with FaultPlan([Fault(site="worker.pre-cell")]):  # inherited by fork
        child.start()
    child.join(60.0)
    assert not child.is_alive()
    return child.exitcode


def _orphan(seconds):
    time.sleep(seconds)


def _provoke_orphaned(code):
    # Spawned the way the coordinator spawns a shard (or the scheduler a
    # job runner), then the parent's end of the pipe goes away — what its
    # death looks like to the child: EOF, and the orphan exit status.
    from repro.util import child

    process = child.spawn(_orphan, 30, name="orphan", orphan_exit=code)
    process.hang_up()
    process.join(60.0)
    assert not process.is_alive()
    return process.exitcode


def _provoke_shard_orphaned(tmp):
    return _provoke_orphaned(exitcodes.SHARD_ORPHANED)


def _provoke_job_orphaned(tmp):
    return _provoke_orphaned(exitcodes.JOB_ORPHANED)


def _provoke_chaos_kill(tmp):
    from repro.faults import ENV_VAR, Fault, FaultPlan

    schedule = Fault(site="manifest.pre-save", hit=1, action="exit")
    return _cli(
        [*_RUN_SMALL, "--output-dir", str(tmp)],
        tmp, env={ENV_VAR: FaultPlan([schedule]).to_json()},
    )


def _provoke_interrupted(tmp):
    # SIGINT raised (for real) after the first supervised cell lands;
    # the supervisor drains and the CLI maps report.interrupted to 130.
    return _script(
        f"""
        import signal, sys
        from repro.suite import supervisor as sup

        class Interrupting(sup.CampaignSupervisor):
            def __init__(self, params, **kwargs):
                kwargs.setdefault(
                    "on_cell_complete",
                    lambda key: signal.raise_signal(signal.SIGINT),
                )
                super().__init__(params, **kwargs)

        sup.CampaignSupervisor = Interrupting
        from repro.cli.main import main
        sys.exit(main([
            "run", "--size", "1024", "--machines", "SPR-DDR",
            "--variants", "Base_Seq", "RAJA_Seq",
            "--kernels", "Basic_DAXPY", "Stream_TRIAD",
            "--workers", "2", "--output-dir", {str(tmp)!r},
        ]))
        """,
        tmp,
    )


_PROVOKERS = {
    exitcodes.OK: _provoke_ok,
    exitcodes.UNCLEAN_RUN: _provoke_unclean_run,
    exitcodes.USAGE: _provoke_usage,
    exitcodes.CAMPAIGN_LOCKED: _provoke_campaign_locked,
    exitcodes.DEGRADED_ANALYSIS: _provoke_degraded,
    exitcodes.INVARIANT_VIOLATION: _provoke_invariant_violation,
    exitcodes.JOB_REJECTED: _provoke_job_rejected,
    exitcodes.JOB_NOT_FOUND: _provoke_job_not_found,
    exitcodes.WORKER_CRASH: _provoke_worker_crash,
    exitcodes.SHARD_ORPHANED: _provoke_shard_orphaned,
    exitcodes.JOB_ORPHANED: _provoke_job_orphaned,
    exitcodes.CHAOS_KILL: _provoke_chaos_kill,
    exitcodes.INTERRUPTED: _provoke_interrupted,
}


@pytest.mark.parametrize(
    "code",
    sorted(_PROVOKERS),
    ids=lambda c: f"{c}-{[n for n, v in vars(exitcodes).items() if v == c and n.isupper()][0]}",
)
def test_exit_code_is_provoked_by_real_behavior(code, tmp_path):
    assert _PROVOKERS[code](tmp_path) == code


def test_every_documented_exit_code_has_a_provoker():
    documented = {
        value
        for name, value in vars(exitcodes).items()
        if name.isupper() and isinstance(value, int)
    }
    assert documented == set(_PROVOKERS)


def test_cli_module_runs_without_a_runpy_warning(tmp_path):
    """``python -m repro.cli.main`` must not find its own module already
    imported by the ``repro.cli`` package (runpy's RuntimeWarning)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.cli.main", "list", "kernels"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300.0,
    )
    assert proc.returncode == exitcodes.OK, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_exit_codes_import_without_the_cli(tmp_path):
    """The constants module is a leaf: importing it loads no CLI."""
    assert _script(
        """
        import sys
        import repro.cli.exitcodes
        sys.exit(3 if "repro.cli.main" in sys.modules else 0)
        """,
        tmp_path,
    ) == 0
