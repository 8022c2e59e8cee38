"""The durable campaign job service.

A long-running daemon in front of the campaign executor: clients submit
campaign *jobs* over a stdlib HTTP/JSON API (or straight into the store
with the CLI), a lease-based scheduler runs each job as an ordinary
campaign in its own directory, and every piece of service state is as
crash-safe as the campaigns themselves — kill the daemon anywhere,
restart it, and every job converges with no lost or duplicated work
(chaos invariant I6).

* :mod:`repro.service.jobstore` — one fsio-atomic, CRC-sealed JSON
  record per job; the SUBMITTED→QUEUED→RUNNING→{SUCCEEDED, FAILED,
  CANCELLED, ORPHANED} state machine.
* :mod:`repro.service.scheduler` — exclusive lease claims (the
  CampaignLock takeover pattern), per-job campaign processes, progress
  heartbeats from the campaign manifests, fsck+resume healing under an
  attempt budget, graceful drain.
* :mod:`repro.service.admission` — bounded queue and per-tenant quotas
  with explicit REJECTED-with-reason backpressure.
* :mod:`repro.service.api` + :mod:`repro.service.daemon` — the HTTP
  surface and the process that ties it all together.
"""

from repro.service.admission import AdmissionDecision, AdmissionPolicy
from repro.service.jobstore import JobRecord, JobStore, params_from_spec
from repro.service.scheduler import JobScheduler, SchedulerConfig

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "JobRecord",
    "JobStore",
    "JobScheduler",
    "SchedulerConfig",
    "params_from_spec",
]
