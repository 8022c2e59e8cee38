"""The one fault-injection surface: registry, routes and parsing.

Every fault reaches a process the same way — the installed
:class:`~repro.faults.FaultPlan`, inherited by fork or adopted from
``$REPRO_FAULTS`` — so a plan must reach every campaign loop, the
registry must match the hook calls in the code, and a malformed plan
must be rejected wherever it comes from.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import exitcodes
from repro.cli.main import main
from repro.faults import CRASH_POINTS, ENV_VAR, SITES, Fault, FaultPlan
from repro.suite import RunParams, SuiteExecutor

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: the crash points the chaos runner kills; names are API (CI legs,
#: replay lines and chaos reports spell them)
_CRASH_POINTS = (
    "fsio.before-tmp-write",
    "fsio.after-tmp-fsync",
    "fsio.before-replace",
    "fsio.after-replace",
    "fsio.before-dir-fsync",
    "calipack.mid-entry-append",
    "calipack.pre-index",
    "calipack.pre-footer",
    "calipack.mid-merge",
    "calipack.post-merge-unlink",
    "shard.pre-map-save",
    "shard.post-shard-exit",
    "manifest.pre-save",
    "manifest.mid-append",
    "refchecksums.pre-publish",
    "ingest-cache.pre-store",
    "service.pre-job-save",
    "service.post-claim",
    "service.mid-drain",
    "retention.pre-tombstone",
    "retention.mid-delete",
    "retention.pre-compact-swap",
    "executor.post-cell",
    "supervisor.post-record",
)


# ------------------------------------------------------------- registry
def _hook_site_arguments() -> tuple[set[str], set[str]]:
    """Site names ``src/repro`` passes to the hook, and the files that
    pass a non-literal name (forwarders such as ``session.record``).

    Counted: the first argument of every ``fault_point(...)`` call and
    the ``point=`` argument of every ``record(...)`` call (the loops
    name their crash point through ``CampaignSession.record``).
    """
    literals: set[str] = set()
    forwarders: set[str] = set()
    for path in sorted((_SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name == "fault_point" and node.args:
                args = [node.args[0]]
            elif name == "record":
                args = [kw.value for kw in node.keywords if kw.arg == "point"]
            else:
                continue
            for arg in args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    literals.add(arg.value)
                else:
                    forwarders.add(path.relative_to(_SRC / "repro").as_posix())
    return literals, forwarders


def test_registry_matches_the_hook_calls_in_the_code():
    literals, forwarders = _hook_site_arguments()
    assert sorted(literals - set(SITES)) == []  # every literal registered
    assert sorted(set(SITES) - literals) == []  # every site is called
    assert forwarders == {"suite/session.py"}


def test_crash_points_are_the_registered_twenty_four():
    assert CRASH_POINTS == _CRASH_POINTS
    cell_sites = [name for name, site in SITES.items() if site.phase == "cell"]
    assert cell_sites == [
        "executor.kernel",
        "executor.checksum",
        "profile.seal",
        "calipack.append",
        "worker.pre-cell",
    ]


def test_every_default_action_is_supported():
    for name, site in SITES.items():
        assert Fault(site=name).action == site.actions[0]
        if site.torn:
            assert Fault(site=name, action="exit", torn=True).torn
        else:
            with pytest.raises(ValueError, match="torn"):
                Fault(site=name, torn=True)


# ------------------------------------------------- one route, every loop
def _params(tmp_path, **overrides):
    base = dict(
        problem_size=1024,
        machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY",),
        output_dir=str(tmp_path),
        max_attempts=1,
        retry_base_delay=0.0,
        retry_max_delay=0.0,
        retry_jitter=0.0,
    )
    base.update(overrides)
    return RunParams(**base)


_LOOPS = {
    "serial-loose": {},
    "serial-packed": {"pack": True},
    "workers2": {"workers": 2},
    "shards2": {"shards": 2, "pack": True},
}

_PLANS = {
    "kernel-exception": [Fault(site="executor.kernel", times=None)],
    "io-failure": [Fault(site="profile.seal", action="raise", times=None)],
}


@pytest.mark.parametrize("loop", list(_LOOPS))
@pytest.mark.parametrize("plan", list(_PLANS))
def test_an_installed_plan_reaches_every_campaign_loop(tmp_path, plan, loop):
    """Serial, packed, supervised and sharded loops all see the one
    installed plan: every cell fails, none silently ends ok."""
    params = _params(tmp_path, **_LOOPS[loop])
    faults = [Fault(**f.to_dict()) for f in _PLANS[plan]]  # fresh budgets
    with FaultPlan(faults):
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"failed": 2}


@pytest.mark.parametrize("loop", ["serial-packed", "shards2"])
def test_an_archive_append_failure_reaches_the_packed_loops(tmp_path, loop):
    params = _params(tmp_path, **_LOOPS[loop])
    with FaultPlan([Fault(site="calipack.append", times=None)]):
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"failed": 2}


# ------------------------------------------------------- parse, or reject
_RUN = [
    "run", "--size", "1024", "--machines", "SPR-DDR",
    "--variants", "Base_Seq", "--kernels", "Basic_DAXPY",
]

_MALFORMED = [
    "{ not json",
    # the retired crash-schedule format is not a fault plan
    '{"point": "manifest.pre-save", "hit": 1, "mode": "exit"}',
    '[{"site": "manifest.pre-savee"}]',
]


@pytest.mark.parametrize("raw", _MALFORMED)
def test_malformed_env_plan_makes_run_a_usage_error(
    tmp_path, monkeypatch, capsys, raw
):
    monkeypatch.setenv(ENV_VAR, raw)
    out = tmp_path / "campaign"
    assert main([*_RUN, "--output-dir", str(out)]) == exitcodes.USAGE
    assert "invalid fault plan" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything ran


@pytest.mark.parametrize("raw", _MALFORMED)
def test_malformed_inject_faults_is_a_usage_error(tmp_path, capsys, raw):
    out = tmp_path / "campaign"
    rc = main([*_RUN, "--inject-faults", raw, "--output-dir", str(out)])
    assert rc == exitcodes.USAGE
    assert "invalid fault plan" in capsys.readouterr().err
    assert not out.exists()


def _spawned_write(tmp_path, raw: str) -> subprocess.CompletedProcess:
    """A fresh interpreter (the spawn route) doing one durable write."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p
    )
    env[ENV_VAR] = raw
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.util.fsio import write_durable_text\n"
         "write_durable_text('out.txt', 'x')\n"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_spawned_interpreter_adopts_the_env_plan(tmp_path):
    plan = FaultPlan([Fault(site="fsio.before-replace", action="exit")])
    proc = _spawned_write(tmp_path, plan.to_json())
    assert proc.returncode == exitcodes.CHAOS_KILL
    assert not (tmp_path / "out.txt").exists()


def test_spawned_interpreter_rejects_a_malformed_env_plan(tmp_path):
    proc = _spawned_write(tmp_path, _MALFORMED[1])
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr and "must be a JSON list" in proc.stderr
    assert not (tmp_path / "out.txt").exists()
