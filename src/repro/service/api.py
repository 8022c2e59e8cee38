"""The service's API surface, independent of any HTTP server.

:class:`ServiceAPI` implements every endpoint as a plain method
returning ``(status, payload)`` — the daemon's HTTP handler is a thin
shim over it and tests drive it directly without sockets.

Degradation discipline: a job whose campaign archive is damaged gets a
**200 with** ``degraded: true`` and whatever sources still load — the
same partial-results contract ``analyze`` honors at the CLI — never a
500. The only 4xx-class responses are structural: unknown job (404),
invalid spec (400), admission rejection (429), result of a job that is
not finished yet (409).

:func:`analysis_payload` is the single source of the analyze-JSON shape;
the CLI's ``analyze --json`` and the service's ``result`` endpoint both
call it, which is what makes a service result byte-equal to a direct
CLI analyze of the same campaign.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path
from typing import Any
from urllib import error as urlerror
from urllib import request as urlrequest

from repro.service import admission
from repro.service.admission import AdmissionPolicy
from repro.service.jobstore import JobError, JobStore


def analysis_payload(thicket: Any, metric: str) -> dict[str, Any]:
    """The canonical analyze-JSON payload for one composed Thicket."""
    regions, profiles, matrix = thicket.metric_matrix(
        metric, region_filter=lambda s: "_" in s
    )
    return {
        "profiles": [str(p) for p in thicket.profiles],
        "metric": metric,
        "regions": list(regions),
        "columns": [str(p) for p in profiles],
        "matrix": [[float(v) for v in row] for row in matrix],
        "degraded": bool(thicket.load_errors),
        "load_errors": {
            "count": len(thicket.load_errors),
            "sources": [
                {"source": src, "reason": reason}
                for src, reason in thicket.load_errors
            ],
        },
    }


def campaign_sources(campaign_dir: Path) -> list[str]:
    """What ``analyze`` would be pointed at: the archive, or loose files."""
    from repro.caliper.calipack import ARCHIVE_NAME

    archive = campaign_dir / ARCHIVE_NAME
    if archive.exists():
        return [str(archive)]
    return sorted(str(p) for p in campaign_dir.glob("*.cali"))


class ServiceAPI:
    """Every service endpoint as a method returning ``(status, payload)``."""

    def __init__(
        self,
        store: JobStore,
        policy: AdmissionPolicy | None = None,
        wake: Callable[[], None] | None = None,
    ):
        self.store = store
        self.policy = policy or AdmissionPolicy()
        #: called after an accepted submit or cancel (the daemon's wake)
        self.wake = wake or (lambda: None)

    # ------------------------------------------------------------ endpoints
    def submit(
        self,
        spec: dict[str, Any],
        tenant: str = "default",
        job_id: str | None = None,
    ) -> tuple[int, dict[str, Any]]:
        decision = admission.evaluate(self.store, tenant, self.policy)
        if decision.rejected:
            return 429, {"rejected": True, "reason": decision.reason}
        try:
            record = self.store.submit(spec, tenant=tenant, job_id=job_id)
        except JobError as exc:
            return 400, {"error": str(exc)}
        self.wake()
        return 200, {"job": record.to_payload()}

    def status(self, job_id: str) -> tuple[int, dict[str, Any]]:
        record = self.store.load(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, {"job": record.to_payload()}

    def list_jobs(
        self, tenant: str | None = None, state: str | None = None
    ) -> tuple[int, dict[str, Any]]:
        states = frozenset((state,)) if state else None
        records = self.store.list_jobs(tenant=tenant, states=states)
        payload: dict[str, Any] = {"jobs": [r.to_payload() for r in records]}
        if self.policy.watermarks.enabled:
            # Operators key exit-4-style degradation off this: a listing
            # under the hard watermark means claims are paused.
            payload["disk"] = self.policy.watermarks.describe(self.store.root)
        return 200, payload

    def cancel(self, job_id: str) -> tuple[int, dict[str, Any]]:
        try:
            record = self.store.request_cancel(job_id)
        except JobError as exc:
            return 404, {"error": str(exc)}
        self.wake()
        return 200, {"job": record.to_payload(), "cancel_requested": True}

    def result(
        self, job_id: str, metric: str = "Avg time/rank"
    ) -> tuple[int, dict[str, Any]]:
        """The job's analyze payload; degraded rather than failing.

        Reads go through the campaign's warm ingest cache, so concurrent
        result requests against a packed campaign do not recompose the
        tables. Damage anywhere — a torn archive entry, a missing
        profile — degrades the payload exactly as CLI analyze would;
        total loss returns an empty, fully degraded matrix, still 200.
        """
        record = self.store.load(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if not record.terminal:
            return 409, {
                "error": f"job {job_id} is {record.state}, not terminal",
                "job": record.to_payload(),
            }
        campaign = self.store.campaign_dir(job_id)
        sources = campaign_sources(campaign)
        if not sources:
            return 200, {
                "job": record.to_payload(),
                "result": {
                    "profiles": [],
                    "metric": metric,
                    "regions": [],
                    "columns": [],
                    "matrix": [],
                    "degraded": True,
                    "load_errors": {
                        "count": 1,
                        "sources": [
                            {
                                "source": str(campaign),
                                "reason": "campaign produced no profiles",
                            }
                        ],
                    },
                },
            }
        import warnings as _warnings

        from repro.thicket import ProfileLoadWarning, Thicket
        from repro.thicket.ingest_cache import default_cache_dir

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", ProfileLoadWarning)
            thicket = Thicket.from_caliperreader(
                sources,
                on_error="warn",
                cache=default_cache_dir(sources[0]),
            )
        return 200, {
            "job": record.to_payload(),
            "result": analysis_payload(thicket, metric),
        }


# ------------------------------------------------------------- HTTP client
def http_json(
    url: str,
    payload: dict[str, Any] | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict[str, Any]]:
    """Tiny urllib JSON client for the CLI (GET, or POST with a body)."""
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urlrequest.Request(url, data=data, headers=headers)
    try:
        with urlrequest.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urlerror.HTTPError as exc:
        try:
            body = json.loads(exc.read().decode("utf-8"))
        except ValueError:
            body = {"error": str(exc)}
        return exc.code, body
