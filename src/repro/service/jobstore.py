"""The durable job store: one crash-safe JSON record per campaign job.

Every job the service accepts lives in ``<root>/jobs/<job_id>.json`` —
a CRC-sealed envelope (the same seal discipline as campaign manifests
and ``.cali`` footers) rewritten with the full fsio durable protocol on
every state change. The record *is* the job: there is no in-memory
queue to lose, and a restarted scheduler rebuilds its world by listing
the directory.

State machine (every transition validated, every transition durable)::

    SUBMITTED ──> QUEUED ──> RUNNING ──> SUCCEEDED
        │            │          │  ├───> FAILED
        │            │          │  ├───> CANCELLED
        │            │          │  └───> ORPHANED
        │            │          └─-───-> QUEUED      (drain / heal requeue)
        │            ├───> CANCELLED
        │            └───> ORPHANED
        └───> QUEUED | CANCELLED

``SUBMITTED`` exists on disk only in the gap between the exclusive
record creation and the first durable save; scheduler recovery promotes
any survivor of a crash in that gap to ``QUEUED``. Terminal states
(``SUCCEEDED``/``FAILED``/``CANCELLED``/``ORPHANED``) never transition
again.

A damaged record (torn bytes, bad CRC) is backed up as ``.bak`` —
forensics first, like the manifest — and reported to fsck rather than
silently dropped. Cancellation is requested through a sibling marker
file (``<job_id>.cancel``) so the scheduler stays the *single writer*
of every record after submission; there is no load-modify-save race
between the API and the scheduler.
"""

from __future__ import annotations

import json
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.faults import fault_point
from repro.suite.run_params import RunParams
from repro.util.fsio import back_up, create_exclusive, write_durable_text

JOBS_DIR = "jobs"
CAMPAIGNS_DIR = "campaigns"
RECORD_SUFFIX = ".json"
LEASE_SUFFIX = ".lease"
CANCEL_SUFFIX = ".cancel"
TOMBSTONE_SUFFIX = ".tombstone"
PIN_SUFFIX = ".pin"
RECORD_FORMAT = "rajaperf-job"
RECORD_VERSION = 1
TOMBSTONE_FORMAT = "rajaperf-tombstone"
TOMBSTONE_VERSION = 1

STATE_SUBMITTED = "SUBMITTED"
STATE_QUEUED = "QUEUED"
STATE_RUNNING = "RUNNING"
STATE_SUCCEEDED = "SUCCEEDED"
STATE_FAILED = "FAILED"
STATE_CANCELLED = "CANCELLED"
STATE_ORPHANED = "ORPHANED"

TERMINAL_STATES = frozenset(
    (STATE_SUCCEEDED, STATE_FAILED, STATE_CANCELLED, STATE_ORPHANED)
)
ACTIVE_STATES = frozenset((STATE_SUBMITTED, STATE_QUEUED, STATE_RUNNING))
ALL_STATES = TERMINAL_STATES | ACTIVE_STATES

#: every legal edge of the job state machine
TRANSITIONS: dict[str, frozenset[str]] = {
    STATE_SUBMITTED: frozenset((STATE_QUEUED, STATE_CANCELLED)),
    STATE_QUEUED: frozenset((STATE_RUNNING, STATE_CANCELLED, STATE_ORPHANED)),
    STATE_RUNNING: frozenset(
        (STATE_SUCCEEDED, STATE_FAILED, STATE_CANCELLED, STATE_ORPHANED,
         STATE_QUEUED)
    ),
    STATE_SUCCEEDED: frozenset(),
    STATE_FAILED: frozenset(),
    STATE_CANCELLED: frozenset(),
    STATE_ORPHANED: frozenset(),
}


class JobError(ValueError):
    """Anything structurally wrong with a job: spec, id, or transition."""


class SealDamaged(JobError):
    """A sealed file on disk failed its seal (torn or bit-rotted).

    Raised by the store's readers with ``path`` set and ``backup``
    naming the ``.bak`` a repairing read moved the file to (None: left
    in place, because the read did not repair or the backup failed).
    """

    path: Path | None = None
    backup: Path | None = None


class JobRecordDamaged(SealDamaged):
    """A job record on disk failed its seal."""


class TombstoneDamaged(SealDamaged):
    """A tombstone on disk failed its seal — it condemns nothing."""


# --------------------------------------------------------------- job spec
#: keys a job spec may carry; each maps onto a RunParams field
_SPEC_KEYS = frozenset(
    (
        "problem_size",
        "reps",
        "variants",
        "machines",
        "groups",
        "kernels",
        "features",
        "gpu_block_sizes",
        "execute",
        "trials",
        "pack",
        "workers",
        "shards",
        "max_attempts",
        "heartbeat_timeout",
        "shard_lease_timeout",
        "retry_base_delay",
        "retry_max_delay",
        "retry_jitter",
    )
)

_TUPLE_KEYS = frozenset(
    ("variants", "machines", "kernels", "gpu_block_sizes")
)


def params_from_spec(
    spec: dict[str, Any], output_dir: str | Path, resume: bool = False
) -> RunParams:
    """Build the job's :class:`RunParams` from its JSON spec.

    Raises :class:`JobError` (a ``ValueError``) on unknown keys or any
    value ``RunParams`` itself rejects — submission-time validation and
    run-time construction are the same code path, so a stored job can
    always be turned into a runnable campaign.
    """
    from repro.suite.features import Feature
    from repro.suite.groups import Group

    if not isinstance(spec, dict):
        raise JobError(f"job spec must be a JSON object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - _SPEC_KEYS)
    if unknown:
        raise JobError(
            f"unknown job spec key(s) {unknown}; allowed: {sorted(_SPEC_KEYS)}"
        )
    kwargs: dict[str, Any] = {}
    try:
        for key, value in spec.items():
            if key in _TUPLE_KEYS:
                kwargs[key] = tuple(value)
            elif key == "groups":
                kwargs[key] = tuple(Group(g) for g in value)
            elif key == "features":
                kwargs[key] = tuple(Feature(f) for f in value)
            else:
                kwargs[key] = value
        shards = int(spec.get("shards", 0) or 0)
        if shards > 0:
            kwargs["pack"] = True  # the shard merge needs archives
        return RunParams(
            output_dir=str(output_dir), resume=resume, **kwargs
        )
    except JobError:
        raise
    except (TypeError, ValueError) as exc:
        raise JobError(f"invalid job spec: {exc}") from exc


# ------------------------------------------------------------- the record
@dataclass
class JobRecord:
    """One job's durable state (mirrors ``jobs/<job_id>.json``)."""

    job_id: str
    tenant: str
    spec: dict[str, Any]
    state: str = STATE_SUBMITTED
    seq: int = 0
    attempts: int = 0
    resume: bool = False
    cancel_requested: bool = False
    reason: str = ""
    progress: dict[str, Any] = field(default_factory=dict)
    created_at: str = ""
    updated_at: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, new_state: str, reason: str | None = None) -> None:
        """Move along one validated edge of the state machine."""
        if new_state not in ALL_STATES:
            raise JobError(f"unknown job state {new_state!r}")
        if new_state not in TRANSITIONS[self.state]:
            raise JobError(
                f"illegal job transition {self.state} -> {new_state} "
                f"(job {self.job_id})"
            )
        self.state = new_state
        if reason is not None:
            self.reason = reason

    def to_payload(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec,
            "state": self.state,
            "seq": self.seq,
            "attempts": self.attempts,
            "resume": self.resume,
            "cancel_requested": self.cancel_requested,
            "reason": self.reason,
            "progress": self.progress,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobRecord":
        state = str(payload.get("state", ""))
        if state not in ALL_STATES:
            raise JobRecordDamaged(f"record carries unknown state {state!r}")
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload.get("tenant", "default")),
            spec=dict(payload.get("spec", {})),
            state=state,
            seq=int(payload.get("seq", 0)),
            attempts=int(payload.get("attempts", 0)),
            resume=bool(payload.get("resume", False)),
            cancel_requested=bool(payload.get("cancel_requested", False)),
            reason=str(payload.get("reason", "")),
            progress=dict(payload.get("progress", {})),
            created_at=str(payload.get("created_at", "")),
            updated_at=str(payload.get("updated_at", "")),
        )


# ----------------------------------------------------------------- sealing
def _payload_crc(payload: dict[str, Any]) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"


def seal_record(record: JobRecord) -> str:
    """The record's durable on-disk text: CRC-sealed JSON envelope."""
    payload = record.to_payload()
    envelope = {
        "format": RECORD_FORMAT,
        "version": RECORD_VERSION,
        "crc32": _payload_crc(payload),
        "job": payload,
    }
    return json.dumps(envelope, indent=1, sort_keys=True)


def parse_record_text(text: str) -> JobRecord:
    """Parse + verify a sealed record; :class:`JobRecordDamaged` on damage."""
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise JobRecordDamaged(f"record does not parse: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != RECORD_FORMAT:
        raise JobRecordDamaged("not a job record envelope")
    payload = envelope.get("job")
    if not isinstance(payload, dict):
        raise JobRecordDamaged("envelope carries no job payload")
    expected = envelope.get("crc32")
    actual = _payload_crc(payload)
    if expected != actual:
        raise JobRecordDamaged(
            f"record seal mismatch: recorded {expected}, computed {actual}"
        )
    return JobRecord.from_payload(payload)


def seal_tombstone(payload: dict[str, Any]) -> str:
    """A tombstone's durable on-disk text (same seal discipline).

    A tombstone is the retention subsystem's *condemnation proof*: its
    durable existence (sealed, CRC-verified) is what authorizes the
    destructive phase of a GC. Anything short of a fully-verifying
    tombstone condemns nothing — a torn or bit-rotted one is quarantined
    by fsck and the job stays live.
    """
    envelope = {
        "format": TOMBSTONE_FORMAT,
        "version": TOMBSTONE_VERSION,
        "crc32": _payload_crc(payload),
        "tombstone": payload,
    }
    return json.dumps(envelope, indent=1, sort_keys=True)


def parse_tombstone_text(text: str) -> dict[str, Any]:
    """Parse + verify a tombstone; :class:`TombstoneDamaged` on damage."""
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise TombstoneDamaged(f"tombstone does not parse: {exc}") from exc
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != TOMBSTONE_FORMAT
    ):
        raise TombstoneDamaged("not a tombstone envelope")
    payload = envelope.get("tombstone")
    if not isinstance(payload, dict):
        raise TombstoneDamaged("envelope carries no tombstone payload")
    expected = envelope.get("crc32")
    actual = _payload_crc(payload)
    if expected != actual:
        raise TombstoneDamaged(
            f"tombstone seal mismatch: recorded {expected}, computed {actual}"
        )
    if not payload.get("job_id"):
        raise TombstoneDamaged("tombstone names no job_id")
    return payload


def _read_sealed(path: Path, parse, repair: bool):
    """``parse`` of the file at ``path``; None when there is none.

    Damage raises the parser's :class:`SealDamaged`; with ``repair``
    the file is first backed up as ``.bak`` (forensics first).
    """
    try:
        text = path.read_text()
    except OSError:
        return None
    try:
        return parse(text)
    except SealDamaged as exc:
        exc.path = path
        exc.backup = back_up(path) if repair else None
        raise


def warn_damaged(exc: SealDamaged, repair: bool = True) -> None:
    """Warn that a reader met a damaged sealed file (and what it did)."""
    what = "tombstone" if isinstance(exc, TombstoneDamaged) else "job record"
    if exc.backup is not None:
        saved = f"; backed up as {exc.backup.name}"
    elif repair:
        saved = "; backup failed, damaged file left in place"
    else:
        saved = ""
    warnings.warn(f"damaged {what} {exc.path} ({exc}){saved}", stacklevel=3)


def _wallclock() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


_ID_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def validate_job_id(job_id: str) -> str:
    if not job_id or len(job_id) > 128 or set(job_id) - _ID_OK:
        raise JobError(
            f"invalid job id {job_id!r}: use 1-128 chars of [A-Za-z0-9._-]"
        )
    if job_id.startswith("."):
        raise JobError(f"invalid job id {job_id!r}: must not start with '.'")
    return job_id


# ------------------------------------------------------------------- store
class JobStore:
    """The on-disk job store under one service root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / JOBS_DIR
        self.campaigns_dir = self.root / CAMPAIGNS_DIR

    def ensure_layout(self) -> None:
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.campaigns_dir.mkdir(parents=True, exist_ok=True)

    # ---------------------------------------------------------------- paths
    def record_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}{RECORD_SUFFIX}"

    def lease_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}{LEASE_SUFFIX}"

    def cancel_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}{CANCEL_SUFFIX}"

    def tombstone_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}{TOMBSTONE_SUFFIX}"

    def pin_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}{PIN_SUFFIX}"

    def campaign_dir(self, job_id: str) -> Path:
        return self.campaigns_dir / job_id

    # --------------------------------------------------------------- submit
    def submit(
        self,
        spec: dict[str, Any],
        tenant: str = "default",
        job_id: str | None = None,
    ) -> JobRecord:
        """Validate, durably record, and queue one job.

        A caller-chosen ``job_id`` makes submission idempotent: retrying
        a submit whose acknowledgment was lost returns the existing
        record instead of double-queuing the campaign. The record file
        is created whole and exclusively (:func:`create_exclusive`), so
        two racing submitters of one id cannot interleave and a
        concurrent reader never sees a half-written record; the QUEUED
        transition then lands via the full durable-write protocol.
        """
        params_from_spec(spec, self.root / "probe")  # validation only
        self.ensure_layout()
        if job_id is not None:
            validate_job_id(job_id)
            existing = self.load(job_id)
            if existing is not None:
                return existing
            record = self._create(job_id, spec, tenant)
            if record is None:  # lost the creation race: adopt the winner
                existing = self.load(job_id)
                if existing is None:
                    raise JobError(f"job {job_id} exists but is unreadable")
                return existing
        else:
            record = None
            seq = self._next_seq()
            while record is None:
                record = self._create(f"job-{seq:06d}", spec, tenant)
                seq += 1
        record.transition(STATE_QUEUED)
        self.save(record)
        return record

    def _create(
        self, job_id: str, spec: dict[str, Any], tenant: str
    ) -> JobRecord | None:
        record = JobRecord(
            job_id=job_id,
            tenant=tenant,
            spec=dict(spec),
            seq=self._next_seq(),
            created_at=_wallclock(),
            updated_at=_wallclock(),
        )
        try:
            create_exclusive(
                self.record_path(job_id), seal_record(record).encode("utf-8")
            )
        except FileExistsError:
            return None
        return record

    def _next_seq(self) -> int:
        highest = 0
        if self.jobs_dir.is_dir():
            for path in self.jobs_dir.glob(f"*{RECORD_SUFFIX}"):
                name = path.name[: -len(RECORD_SUFFIX)]
                if name.startswith("job-") and name[4:].isdigit():
                    highest = max(highest, int(name[4:]))
        return highest + 1

    # ----------------------------------------------------------------- save
    def save(self, record: JobRecord) -> Path:
        """Durably rewrite (the ``service.pre-job-save`` crash boundary)."""
        path = self.record_path(record.job_id)
        record.updated_at = _wallclock()
        fault_point("service.pre-job-save", path=path)
        return write_durable_text(path, seal_record(record))

    # ----------------------------------------------------------------- load
    def read_record(self, job_id: str, repair: bool = True) -> JobRecord | None:
        """The job's verified record, or None when it has none.

        The one reader of ``jobs/<id>.json``: a damaged record raises
        :class:`JobRecordDamaged`, after a ``.bak`` backup with ``repair``.
        """
        return _read_sealed(self.record_path(job_id), parse_record_text, repair)

    def load(self, job_id: str, repair: bool = True) -> JobRecord | None:
        """The job's record, or None (unknown, or damaged: warned about
        and, with ``repair``, backed up)."""
        try:
            return self.read_record(job_id, repair)
        except JobRecordDamaged as exc:
            warn_damaged(exc, repair)
            return None

    def list_ids(self) -> list[str]:
        if not self.jobs_dir.is_dir():
            return []
        return sorted(
            p.name[: -len(RECORD_SUFFIX)]
            for p in self.jobs_dir.glob(f"*{RECORD_SUFFIX}")
            if not p.name.endswith(".bak")
        )

    def list_jobs(
        self,
        tenant: str | None = None,
        states: frozenset[str] | set[str] | None = None,
        repair: bool = True,
    ) -> list[JobRecord]:
        """Every readable record, in submission order (seq, then id)."""
        jobs = []
        for job_id in self.list_ids():
            record = self.load(job_id, repair)
            if record is None:
                continue
            if tenant is not None and record.tenant != tenant:
                continue
            if states is not None and record.state not in states:
                continue
            jobs.append(record)
        jobs.sort(key=lambda r: (r.seq, r.job_id))
        return jobs

    # --------------------------------------------------------------- cancel
    def request_cancel(self, job_id: str) -> JobRecord:
        """Drop the cancel marker; the scheduler applies it on its tick.

        The marker keeps the scheduler the single writer of the record:
        any process may *request*, only the scheduler *transitions*.
        """
        record = self.load(job_id)
        if record is None:
            raise JobError(f"unknown job {job_id!r}")
        if not record.terminal:
            self.cancel_path(job_id).touch()
        return record

    def list_cancel_ids(self) -> list[str]:
        """Ids of the jobs with a pending cancel marker."""
        return sorted(
            p.name[: -len(CANCEL_SUFFIX)]
            for p in self.jobs_dir.glob(f"*{CANCEL_SUFFIX}")
        )

    def cancel_requested(self, job_id: str) -> bool:
        return self.cancel_path(job_id).exists()

    def clear_cancel(self, job_id: str) -> None:
        self.cancel_path(job_id).unlink(missing_ok=True)

    # ------------------------------------------------------------------ pin
    def pin(self, job_id: str) -> None:
        """Exempt the job from retention GC (a sibling marker file)."""
        record = self.load(job_id)
        if record is None:
            raise JobError(f"unknown job {job_id!r}")
        self.pin_path(job_id).touch()

    def unpin(self, job_id: str) -> None:
        self.pin_path(job_id).unlink(missing_ok=True)

    def pinned(self, job_id: str) -> bool:
        return self.pin_path(job_id).exists()

    # ------------------------------------------------------------ tombstone
    def write_tombstone(self, record: JobRecord, reason: str) -> Path:
        """Durably condemn the job (phase one of the two-phase GC)."""
        payload = {
            "job_id": record.job_id,
            "tenant": record.tenant,
            "state": record.state,
            "reason": reason,
            "condemned_at": _wallclock(),
        }
        path = self.tombstone_path(record.job_id)
        return write_durable_text(path, seal_tombstone(payload))

    def read_tombstone(
        self, job_id: str, repair: bool = True
    ) -> dict[str, Any] | None:
        """The job's verified tombstone payload, or None when it has none.

        A damaged tombstone condemns nothing: it raises
        :class:`TombstoneDamaged`, after a ``.bak`` backup with ``repair``.
        """
        return _read_sealed(
            self.tombstone_path(job_id), parse_tombstone_text, repair
        )

    def list_tombstone_ids(self) -> list[str]:
        if not self.jobs_dir.is_dir():
            return []
        return sorted(
            p.name[: -len(TOMBSTONE_SUFFIX)]
            for p in self.jobs_dir.glob(f"*{TOMBSTONE_SUFFIX}")
            if not p.name.endswith(".bak")
        )

    # ---------------------------------------------------------------- lease
    def claim(self, job_id: str):
        """Claim the job's scheduler lease (exclusive create + stale takeover).

        Returns a held :class:`~repro.suite.manifest.CampaignLock`;
        raises :class:`~repro.suite.errors.CampaignLockedError` when a
        *live* scheduler already owns the job.
        """
        from repro.suite.manifest import CampaignLock

        return CampaignLock.acquire_path(self.lease_path(job_id))

    def lease_holder_alive(self, job_id: str) -> bool:
        from repro.suite.manifest import lease_pid, pid_alive

        return pid_alive(lease_pid(self.lease_path(job_id)))
