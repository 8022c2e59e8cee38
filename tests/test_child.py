"""The one child protocol (``repro.util.child``) that workers, shards and
job runners share.

Two rules carry it. A child's SIGTERM is at its default whatever Python
handler its parent had, so a kill is immediate. And only the parent
ever holds the parent's end of a child's pipe — the at-fork close runs
in every forked process — so a parent killed outright is EOF in every
child, and every child ends. The integration tests SIGKILL a real
supervisor, coordinator and service daemon under a small harness that
makes itself the subreaper of what they leave, so it can reap the
orphans and read their exit statuses.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import exitcodes
from repro.faults import Fault, FaultPlan
from repro.suite import RunParams, SuiteExecutor, heartbeat
from repro.util import child

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return env


def _ready_then_sleep(conn):
    conn.send("ready")  # the bootstrap has run: dispositions are final
    time.sleep(30)


def _supervise_then_sleep(conn):
    # A shard or job runner that runs a supervisor of its own: its
    # signal routing must not take SIGTERM away from its own parent.
    with child.signals_to(lambda signum, frame: None):
        _ready_then_sleep(conn)


# ------------------------------------------------------------- SIGTERM
@pytest.mark.parametrize("target", [_ready_then_sleep, _supervise_then_sleep])
def test_kill_is_immediate_under_a_parent_sigterm_handler(target):
    """A child forked while its parent has a Python SIGTERM handler must
    still die on SIGTERM, not wait out the grace and take a SIGKILL."""
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        process = child.spawn(target, child.PIPE, name="sleeper")
        assert process.conn.recv() == "ready"
        start = time.monotonic()
        child.kill(process)
        elapsed = time.monotonic() - start
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert elapsed < 0.5
    assert process.exitcode == -signal.SIGTERM


def _sleep(conn):
    time.sleep(30)


def test_sigterm_during_the_bootstrap_is_not_handled_by_the_parent_handler():
    """SIGTERM sent the moment spawn returns, before the child bootstrap
    has reset the disposition, must still kill the child: it must not
    run the parent's Python handler and carry on."""
    handled = []
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: handled.append(signum))
    try:
        for attempt in range(50):
            process = child.spawn(_sleep, child.PIPE, name="sleeper")
            process.terminate()
            process.join(5)
            code = process.exitcode
            child.kill(process, grace=0.1)  # reaps one that swallowed it
            assert code == -signal.SIGTERM, f"attempt {attempt}: exit code {code}"
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert handled == []  # the parent's own mask was restored untouched


def test_stale_worker_kill_is_immediate(tmp_path, monkeypatch):
    """The supervisor kills a worker whose beats stopped (a ``hang`` at
    ``worker.pre-cell``) while its own SIGTERM handler is installed: the
    kill is a SIGTERM that lands at once."""
    kills = []
    real_kill = child.kill

    def timed_kill(process, grace=2.0):
        alive = process is not None and process.is_alive()
        start = time.monotonic()
        real_kill(process, grace)
        if alive:
            kills.append((time.monotonic() - start, process.exitcode))

    monkeypatch.setattr(child, "kill", timed_kill)
    params = RunParams(
        machines=("SPR-DDR",), variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY",), trials=2, output_dir=str(tmp_path),
        workers=2, heartbeat_timeout=0.5, max_attempts=3,
        retry_base_delay=0.01, retry_jitter=0.0,
    )
    plan = FaultPlan([
        Fault(site="worker.pre-cell", action="hang", variant="Base_Seq",
              trial=0, attempt=1, hang_seconds=60.0),
    ])
    with plan:
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 4}
    assert kills, "the stale worker was never killed"
    for elapsed, code in kills:
        assert elapsed < 0.5
        assert code == -signal.SIGTERM


# ------------------------------------------------------ parent death = EOF
_EOF_PROBE = """
import os, signal, time
from repro.util import child

def blocked(conn, marker):
    if conn.poll(10.0):  # readable: a message, or EOF
        try:
            conn.recv()
        except EOFError:
            with open(marker, "w") as out:
                out.write(repr(time.monotonic()))

for i in range(2):
    child.spawn(blocked, child.PIPE, f"eof-{i}", name=f"probe-{i}")
with open("killed", "w") as out:
    out.write(repr(time.monotonic()))
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_parent_sigkill_is_eof_in_every_child(tmp_path):
    """Two children blocked only on their pipes; the parent SIGKILLs
    itself. Each child must read EOF within 1 s — which needs the second
    child not to hold the first one's parent end, nor either its own."""
    proc = subprocess.run(
        [sys.executable, "-c", _EOF_PROBE], cwd=tmp_path, env=_env(),
        capture_output=True, text=True, timeout=60.0,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    killed = float((tmp_path / "killed").read_text())
    deadline = time.monotonic() + 5.0
    markers = [tmp_path / f"eof-{i}" for i in range(2)]
    while not all(m.exists() for m in markers) and time.monotonic() < deadline:
        time.sleep(0.02)
    for marker in markers:
        assert marker.exists(), f"{marker.name}: no EOF after the parent died"
        assert float(marker.read_text()) - killed < 1.0


# ------------------------------------------------ SIGKILL a real parent
_HARNESS = r"""
import ctypes, json, os, signal, subprocess, sys, time

libc = ctypes.CDLL(None, use_errno=True)
if libc.prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
    print(json.dumps({"skip": "prctl(PR_SET_CHILD_SUBREAPER) failed"}))
    sys.exit(0)
argv, ready_file, want = json.loads(sys.argv[1])


def ppids():
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                stat = open(f"/proc/{name}/stat").read()
            except OSError:
                continue
            out[int(name)] = int(stat.rpartition(")")[2].split()[1])
    return out


def descendants(root):
    parents = ppids()
    tree, frontier = {}, [root]
    while frontier:
        pid = frontier.pop()
        for kid, parent in parents.items():
            if parent == pid and kid not in tree:
                tree[kid] = pid
                frontier.append(kid)
    return tree


target = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
deadline = time.monotonic() + 120.0
while True:
    tree = descendants(target.pid)
    if (ready_file is None or os.path.exists(ready_file)) and len(tree) >= want:
        break
    if target.poll() is not None or time.monotonic() > deadline:
        print(json.dumps({"error": f"never ready (exit {target.poll()})"}))
        sys.exit(1)
    time.sleep(0.02)

target.kill()
target.wait()
killed = time.monotonic()
ended = {}
while time.monotonic() < killed + 5.0:
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        break  # nothing is left
    if pid == 0:
        time.sleep(0.005)
        continue
    ended[pid] = [os.waitstatus_to_exitcode(status), time.monotonic() - killed]
left = sorted(descendants(os.getpid()))
for pid in left:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
while True:  # reap them, and whatever their deaths orphan onto us
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
print(json.dumps({"root": target.pid, "tree": tree, "ended": ended,
                  "left": left}))
"""


def _sigkill_parent(tmp_path, argv, want, ready_file=None):
    """Run ``argv``, SIGKILL it once it has ``want`` descendants (and
    ``ready_file`` exists); returns {pid: (parent, exit code, seconds
    from the kill to the reap)} for every descendant."""
    proc = subprocess.run(
        [sys.executable, "-c", _HARNESS,
         json.dumps([argv, ready_file, want])],
        cwd=tmp_path, env=_env(), capture_output=True, text=True,
        timeout=300.0,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    if "skip" in out:
        pytest.skip(out["skip"])
    assert not out["left"], f"processes left after 5 s: {out['left']}"
    tree = {int(pid): parent for pid, parent in out["tree"].items()}
    ended = {int(pid): v for pid, v in out["ended"].items()}
    for pid in tree:
        assert pid in ended, f"descendant {pid} was never reaped"
        assert ended[pid][1] < 2.0, f"descendant {pid} took {ended[pid][1]:.2f}s"
    return out["root"], {pid: (tree[pid], *ended[pid]) for pid in tree}


def _cli(*args):
    return [sys.executable, "-m", "repro.cli.main", *args]


_LONG_RUN = (
    "run", "--size", "1024", "--machines", "SPR-DDR",
    "--variants", "Base_Seq", "RAJA_Seq", "--kernels", "Basic_DAXPY",
    "--trials", "4000",
)


def test_sigkill_supervisor_ends_every_worker(tmp_path):
    _, ended = _sigkill_parent(
        tmp_path,
        _cli(*_LONG_RUN, "--workers", "2", "--output-dir", str(tmp_path / "c")),
        want=2,
    )
    assert len(ended) >= 2


_BEATING_CELLS = r"""
import pathlib, sys, time
from repro.suite import RunParams, SuiteExecutor

def busy_cell(self, cell, write_files):
    pathlib.Path(sys.argv[2]).touch()  # a worker is inside a cell
    time.sleep(60)  # busy, not wedged: the emitter keeps beating

SuiteExecutor.run_cell = busy_cell  # before the supervisor forks
SuiteExecutor(RunParams(
    problem_size=1024, machines=("SPR-DDR",),
    variants=("Base_Seq", "RAJA_Seq"), kernels=("Basic_DAXPY",),
    trials=4, workers=2, heartbeat_timeout=1.0, output_dir=sys.argv[1],
)).run(write_files=True)
"""


def test_sigkill_supervisor_ends_workers_busy_in_a_cell(tmp_path):
    """A worker inside a cell when its supervisor dies must not run the
    cell to the end: its next beat fails, and it exits 73 then."""
    ready = tmp_path / "in-cell"
    _, ended = _sigkill_parent(
        tmp_path,
        [sys.executable, "-c", _BEATING_CELLS, str(tmp_path / "c"), str(ready)],
        want=2,
        ready_file=str(ready),
    )
    assert len(ended) == 2
    interval = heartbeat.beat_interval(1.0)
    for _parent, code, seconds in ended.values():
        assert code == exitcodes.WORKER_CRASH
        assert seconds < 2 * interval + 1.0


def test_sigkill_coordinator_orphans_exit_74_and_their_workers_end(tmp_path):
    out = tmp_path / "c"
    root, ended = _sigkill_parent(
        tmp_path,
        _cli(*_LONG_RUN, "--shards", "2", "--workers", "2",
             "--output-dir", str(out)),
        want=6,
        ready_file=str(out / "shard_map.json"),
    )
    shards = [pid for pid, (parent, _, _) in ended.items() if parent == root]
    workers = [pid for pid, (parent, _, _) in ended.items() if parent in shards]
    assert len(shards) == 2 and len(workers) >= 4
    for pid in shards:
        assert ended[pid][1] == exitcodes.SHARD_ORPHANED


def test_sigkill_daemon_orphans_its_job_runner_with_75(tmp_path):
    root_dir = tmp_path / "svc"
    submit = subprocess.run(
        _cli("submit", "--root", str(root_dir), "--job-id", "long",
             "--size", "1024", "--machines", "SPR-DDR",
             "--variants", "Base_Seq", "RAJA_Seq", "--kernels", "Basic_DAXPY",
             "--trials", "4000", "--workers", "2"),
        cwd=tmp_path, env=_env(), capture_output=True, text=True,
        timeout=120.0,
    )
    assert submit.returncode == 0, submit.stderr
    root, ended = _sigkill_parent(
        tmp_path, _cli("serve", str(root_dir), "--port", "0"), want=3,
    )
    runners = [pid for pid, (parent, _, _) in ended.items() if parent == root]
    assert len(runners) == 1
    assert ended[runners[0]][1] == exitcodes.JOB_ORPHANED
