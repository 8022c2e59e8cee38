"""The warm, event-driven job service.

The daemon blocks on one wait over its self-pipe and the running job
runners' sentinels, so a submit, a cancel, a stop request or a child's
exit is handled at once rather than on the next ``tick_interval``. The
scheduler imports the kernels once, on its first claim, and every job
runner inherits them. Records and leases are created whole, so a
concurrent reader never sees a half-written one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.service.api import http_json
from repro.service.daemon import ServiceDaemon
from repro.service.jobstore import STATE_SUCCEEDED, JobRecord, JobStore
from repro.service.scheduler import JobScheduler
from repro.suite import registry
from repro.suite.errors import CampaignLockedError
from repro.suite.manifest import CampaignLock
from tests.test_service import _CTX, _spec, _store

#: far longer than any deadline below: nothing may wait out a tick
SLOW_TICK = 5.0
TERMINAL = ("SUCCEEDED", "FAILED", "CANCELLED", "ORPHANED")
#: the source root, for the fresh interpreters some tests start
_SRC = str(Path(registry.__file__).resolve().parents[2])


@pytest.fixture
def daemon(tmp_path):
    service = ServiceDaemon(tmp_path, port=0, tick_interval=SLOW_TICK)
    thread = threading.Thread(
        target=service.serve_forever, kwargs={"install_signals": False}
    )
    thread.start()
    service.thread = thread
    yield service
    service.request_stop()
    thread.join(30.0)
    assert not thread.is_alive()


def _submit(daemon, job_id, spec=None):
    status, body = http_json(
        f"{daemon.url}/api/jobs", {"spec": spec or _spec(), "job_id": job_id}
    )
    assert status == 200, body


def _wait_state(daemon, job_id, states, timeout):
    deadline = time.monotonic() + timeout
    while True:
        state = http_json(f"{daemon.url}/api/jobs/{job_id}")[1]["job"]["state"]
        if state in states or time.monotonic() > deadline:
            return state
        time.sleep(0.01)


# ------------------------------------------------------------- the wake
def test_submitted_job_succeeds_without_waiting_out_the_tick(daemon):
    start = time.monotonic()
    _submit(daemon, "prompt")
    assert _wait_state(daemon, "prompt", TERMINAL, 2.0) == STATE_SUCCEEDED
    assert time.monotonic() - start < 2.0


def test_request_stop_drains_and_returns_promptly(daemon):
    _submit(daemon, "first")
    assert _wait_state(daemon, "first", TERMINAL, 30.0) == STATE_SUCCEEDED
    start = time.monotonic()
    daemon.request_stop()
    daemon.thread.join(5.0)
    assert not daemon.thread.is_alive()
    assert time.monotonic() - start < 1.0


def test_cancel_of_a_running_job_lands_promptly(daemon):
    _submit(daemon, "long", _spec(trials=5000))
    assert _wait_state(daemon, "long", ("RUNNING",) + TERMINAL, 30.0) == "RUNNING"
    start = time.monotonic()
    status, _ = http_json(f"{daemon.url}/api/jobs/long/cancel", {})
    assert status == 200
    assert _wait_state(daemon, "long", TERMINAL, 1.0) == "CANCELLED"
    assert time.monotonic() - start < 1.0


def test_serve_cancels_and_drains_a_running_job_promptly(tmp_path):
    """The CLI daemon installs a SIGTERM handler; its job runners must
    not inherit it, or terminate() would be ignored."""
    root = tmp_path / "root"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main", "serve", str(root),
         "--port", "0"],
        env=dict(os.environ, PYTHONPATH=_SRC),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        served = SimpleNamespace(url=proc.stdout.readline().split(" at ")[1].strip())
        _submit(served, "cancelled", _spec(trials=5000))
        assert _wait_state(served, "cancelled", ("RUNNING",), 30.0) == "RUNNING"
        http_json(f"{served.url}/api/jobs/cancelled/cancel", {})
        assert _wait_state(served, "cancelled", TERMINAL, 1.0) == "CANCELLED"
        _submit(served, "drained", _spec(trials=5000))
        assert _wait_state(served, "drained", ("RUNNING",), 30.0) == "RUNNING"
        start = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30.0)
        assert time.monotonic() - start < 2.0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err
    assert "drained; bye" in out
    record = JobStore(root).load("drained")
    assert record.state == "QUEUED" and record.resume


# ---------------------------------------------------------- the warm fork
_WARM_PROBE = """
import json
import sys
from repro.service.daemon import ServiceDaemon

def kernels_loaded():
    return any(m.startswith("repro.kernels.") for m in sys.modules)

daemon = ServiceDaemon(sys.argv[1], port=0, tick_interval=5.0)
assert not kernels_loaded(), "kernels imported at construction"
daemon.store.submit(json.loads(sys.argv[2]), job_id="warm")
daemon.scheduler.tick()
assert kernels_loaded(), "kernels not imported by the first claim"
assert daemon.scheduler.run_until_idle(timeout=120.0)
assert daemon.store.load("warm").state == "SUCCEEDED"
daemon.close()
print("ok")
"""


def test_kernels_load_on_the_first_claim_not_at_construction(tmp_path):
    """A fresh interpreter: the test process has long loaded the kernels."""
    done = subprocess.run(
        [sys.executable, "-c", _WARM_PROBE, str(tmp_path), json.dumps(_spec())],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_failed_warm_up_only_warns_and_the_daemon_keeps_serving(
    daemon, monkeypatch
):
    def broken():
        raise ImportError("a broken kernel module")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        monkeypatch.setattr(registry, "load_all_kernels", broken)
        _submit(daemon, "unlucky")
        state = _wait_state(daemon, "unlucky", TERMINAL, 60.0)
    assert state in TERMINAL  # the job runner met the same broken module
    assert any("warm-up failed" in str(w.message) for w in caught)
    monkeypatch.undo()
    status, health = http_json(f"{daemon.url}/healthz")
    assert status == 200 and health["ok"]
    _submit(daemon, "lucky")
    assert _wait_state(daemon, "lucky", TERMINAL, 60.0) == STATE_SUCCEEDED


# ----------------------------------------------------------- cancel scan
def test_a_tick_without_cancel_markers_reads_each_record_once(
    tmp_path, monkeypatch
):
    store = _store(tmp_path)
    for i in range(100):
        store.save(JobRecord(
            job_id=f"job-{i:06d}", tenant="t", spec=_spec(),
            state=STATE_SUCCEEDED, seq=i,
        ))
    loads = []
    real_load = JobStore.load

    def counting(self, job_id, *args, **kwargs):
        loads.append(job_id)
        return real_load(self, job_id, *args, **kwargs)

    monkeypatch.setattr(JobStore, "load", counting)
    JobScheduler(store).tick()
    assert len(loads) == 100  # the claim scan; cancels read only markers


# ------------------------------------------------------- whole creation
def test_a_record_is_never_seen_half_written(tmp_path, monkeypatch):
    store = _store(tmp_path)
    seen = []
    real_link = os.link

    def link(src, dst, **kwargs):
        seen.append(store.load("racer"))
        real_link(src, dst, **kwargs)
        seen.append(store.load("racer"))

    monkeypatch.setattr(os, "link", link)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store.submit(_spec(), job_id="racer")
    assert seen[0] is None  # before the link: no record at all
    assert seen[1] is not None and seen[1].job_id == "racer"  # then whole
    assert not list(store.jobs_dir.glob("*.bak"))
    assert not list(store.jobs_dir.glob("*.tmp"))


def test_concurrent_readers_never_back_up_a_live_record(tmp_path):
    store = _store(tmp_path)
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            store.list_jobs()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(40):
                store.submit(_spec())
        finally:
            stop.set()
            thread.join(30.0)
    assert not thread.is_alive()
    assert [str(w.message) for w in caught] == []
    assert not list(store.jobs_dir.glob("*.bak"))
    assert len(store.list_jobs()) == 40


def _contend(path: str) -> None:
    try:
        CampaignLock.acquire_path(path)
    except CampaignLockedError:
        os._exit(0)
    os._exit(1)


def test_a_contender_never_reads_a_lease_before_it_is_whole(
    tmp_path, monkeypatch
):
    path = tmp_path / "job.lease"
    real_link = os.link
    contenders = []

    def link(src, dst, **kwargs):
        real_link(src, dst, **kwargs)
        if Path(dst) == path:  # the lease just appeared: contend for it
            proc = _CTX.Process(target=_contend, args=(str(path),))
            proc.start()
            proc.join(30.0)
            contenders.append(proc.exitcode)

    monkeypatch.setattr(os, "link", link)
    lock = CampaignLock.acquire_path(path)
    assert contenders == [0]  # the contender saw a live owner
    assert json.loads(path.read_text())["pid"] == os.getpid()
    lock.release()
