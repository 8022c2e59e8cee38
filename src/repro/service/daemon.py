"""The campaign service daemon: HTTP front, scheduler loop, graceful drain.

One process, two loops plus two periodic passes. A
:class:`ThreadingHTTPServer` answers the JSON API on its own threads
(reads are safe concurrently: records are immutable-on-disk between
durable replaces, and analyze reads go through the ingest cache); the
scheduler ticks on the main thread and stays the single writer of job
records. ``SIGTERM``/``SIGINT`` trigger the graceful path: stop
claiming, drain every running job back to QUEUED-with-resume, release
leases, stop the HTTP server, exit 0. A ``SIGKILL`` instead is exactly
the chaos I6 scenario — the next start's ``recover()`` converges every
job with no lost or duplicated work.

The passes (both optional) run on the scheduler thread between ticks,
so they share its single-writer discipline:

* **retention** — a :class:`~repro.service.retention.RetentionPolicy`
  runs as GC passes at ``retention_interval`` cadence — immediately
  when the soft disk watermark trips;
* **scrubbing** — a repairing :func:`~repro.suite.fsck.fsck_directory`
  pass over the whole root at ``scrub_interval`` cadence re-verifies
  every seal (records, tombstones, profiles, archive entries, ingest
  caches) and quarantines damage. Jobs the scheduler leases are live
  to fsck and left alone.

Routes::

    GET  /healthz                     liveness + queue summary + disk state
    POST /api/jobs                    submit {spec, tenant?, job_id?}
    GET  /api/jobs[?tenant=&state=]   list
    GET  /api/jobs/<id>               status
    POST /api/jobs/<id>/cancel        request cancellation
    GET  /api/jobs/<id>/result[?metric=]  analyze payload (degraded, never 500)
"""

from __future__ import annotations

import json
import signal
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.service.admission import AdmissionPolicy
from repro.service.api import ServiceAPI
from repro.service.jobstore import JobStore
from repro.service.retention import RetentionPolicy, gc
from repro.service.scheduler import JobScheduler, SchedulerConfig
from repro.suite.fsck import fsck_directory
from repro.util.diskstat import STATE_OK


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :class:`ServiceAPI` (set as ``server.api``)."""

    server_version = "rajaperf-service/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the daemon narrates; per-request noise helps nobody

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, indent=1).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _api(self) -> ServiceAPI:
        return self.server.api  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        query = {k: v[0] for k, v in parse_qs(url.query).items()}
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            daemon = self.server.daemon  # type: ignore[attr-defined]
            self._respond(200, daemon.health())
        elif parts[:2] == ["api", "jobs"] and len(parts) == 2:
            self._respond(*self._api().list_jobs(
                tenant=query.get("tenant"), state=query.get("state")
            ))
        elif parts[:2] == ["api", "jobs"] and len(parts) == 3:
            self._respond(*self._api().status(parts[2]))
        elif (
            parts[:2] == ["api", "jobs"]
            and len(parts) == 4
            and parts[3] == "result"
        ):
            self._respond(*self._api().result(
                parts[2], metric=query.get("metric", "Avg time/rank")
            ))
        else:
            self._respond(404, {"error": f"no route {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except ValueError:
            self._respond(400, {"error": "request body is not JSON"})
            return
        if parts[:2] == ["api", "jobs"] and len(parts) == 2:
            spec = body.get("spec")
            if not isinstance(spec, dict):
                self._respond(400, {"error": "body must carry a 'spec' object"})
                return
            self._respond(*self._api().submit(
                spec,
                tenant=str(body.get("tenant") or "default"),
                job_id=body.get("job_id"),
            ))
        elif (
            parts[:2] == ["api", "jobs"]
            and len(parts) == 4
            and parts[3] == "cancel"
        ):
            self._respond(*self._api().cancel(parts[2]))
        else:
            self._respond(404, {"error": f"no route {url.path}"})


class ServiceDaemon:
    """The long-running service process over one root directory."""

    def __init__(
        self,
        root: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: AdmissionPolicy | None = None,
        scheduler_config: SchedulerConfig | None = None,
        tick_interval: float = 0.05,
        retention: RetentionPolicy | None = None,
        retention_interval: float = 60.0,
        scrub_interval: float | None = None,
    ) -> None:
        if scrub_interval is not None and scrub_interval <= 0:
            raise ValueError(
                f"scrub interval must be > 0, got {scrub_interval}"
            )
        self.store = JobStore(root)
        self.store.ensure_layout()
        self.policy = policy or AdmissionPolicy()
        self.api = ServiceAPI(self.store, self.policy)
        self.scheduler = JobScheduler(self.store, scheduler_config)
        self.tick_interval = tick_interval
        self.retention = retention
        self.retention_interval = retention_interval
        self._next_gc = 0.0  # first tick runs GC (finishes interrupted work)
        self.gc_passes = 0
        self.scrub_interval = scrub_interval
        self._next_scrub = 0.0  # first tick runs a pass
        self.scrub_passes = 0
        self._stop = threading.Event()
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.api = self.api  # type: ignore[attr-defined]
        self.httpd.daemon = self  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def health(self) -> dict[str, Any]:
        jobs = self.store.list_jobs()
        by_state: dict[str, int] = {}
        for record in jobs:
            by_state[record.state] = by_state.get(record.state, 0) + 1
        payload = {
            "ok": True,
            "url": self.url,
            "jobs": len(jobs),
            "by_state": by_state,
            "draining": self._stop.is_set(),
        }
        if self.policy.watermarks.enabled:
            payload["disk"] = self.policy.watermarks.describe(self.store.root)
            payload["claims_paused"] = self.scheduler.claims_paused()
        if self.retention is not None:
            payload["gc_passes"] = self.gc_passes
        if self.scrub_interval is not None:
            payload["scrub_passes"] = self.scrub_passes
        return payload

    def request_stop(self, *_sig: object) -> None:
        self._stop.set()

    # ------------------------------------------------------------ retention
    def _maybe_gc(self) -> None:
        """Run a GC pass when due — immediately under disk pressure.

        GC runs on the scheduler thread between ticks so the record
        store keeps exactly one writer; a pass on a small store is
        milliseconds, and a large reclamation is work the service
        *needs* stalled claims for anyway.
        """
        if self.retention is None or not self.retention.enabled:
            return
        now = time.monotonic()
        pressured = (
            self.policy.watermarks.enabled
            and self.policy.watermarks.state(self.store.root) != STATE_OK
        )
        if now < self._next_gc and not pressured:
            return
        self._next_gc = now + self.retention_interval
        gc(self.store, self.retention)
        self.gc_passes += 1

    def _maybe_scrub(self) -> None:
        """Run a repairing fsck pass over the root when one is due.

        Like GC it runs between ticks, so the scheduler stays the single
        writer of job records. A pass that raises only warns: the
        service keeps serving, and the next pass starts from scratch.
        """
        if self.scrub_interval is None:
            return
        now = time.monotonic()
        if now < self._next_scrub:
            return
        self._next_scrub = now + self.scrub_interval
        try:
            fsck_directory(self.store.root)
        except Exception as exc:
            warnings.warn(f"scrub pass failed: {exc}", stacklevel=1)
            return
        self.scrub_passes += 1

    # ----------------------------------------------------------------- run
    def serve_forever(self, install_signals: bool = True) -> None:
        """Recover, then tick until stopped; drain on the way out."""
        if install_signals:
            signal.signal(signal.SIGTERM, self.request_stop)
            signal.signal(signal.SIGINT, self.request_stop)
        http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="service-http",
            daemon=True,
        )
        http_thread.start()
        try:
            self.scheduler.recover()
            while not self._stop.wait(self.tick_interval):
                self.scheduler.tick()
                self._maybe_gc()
                self._maybe_scrub()
        finally:
            self.scheduler.drain()
            self.httpd.shutdown()
            self.httpd.server_close()
            http_thread.join(5.0)

    def close(self) -> None:
        """Release sockets without the serve loop (tests, failed starts)."""
        self.httpd.server_close()
