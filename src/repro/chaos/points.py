"""Named crash points: the durable-write boundaries chaos can kill.

Every place the pipeline makes data durable — a profile write, an
archive append, a manifest checkpoint, a reference-checksum publish, an
ingest-cache store — calls :func:`crash_point` with a registered name.
The call is a zero-cost no-op (one global load and an ``is None`` test)
unless a :class:`ChaosSchedule` is armed, so production paths pay
nothing.

An armed schedule names exactly one point and the occurrence (``hit``)
at which to strike. Striking can

* raise :class:`ChaosCrash` (a ``BaseException``, so ordinary handlers
  never swallow it) — the in-process trial mode used by unit tests, or
* ``os._exit`` with :data:`CHAOS_KILL_EXITCODE` — the subprocess trial
  mode: no ``finally`` blocks, no ``atexit``, no buffered flushes; the
  closest a Python process gets to ``kill -9`` mid-write.

A schedule can also simulate a **torn write**: before dying it
truncates the named in-flight file (the tmp sibling, or an archive's
unsealed tail) to a seeded prefix length — the state a power cut leaves
when the kernel had only partially flushed. The prefix length is a pure
function of ``(seed, path, size)``, so a trial is replayable from its
seed alone.

Schedules propagate to forked children automatically (module state) and
to spawned ones via the :data:`ENV_VAR` environment variable, which
:func:`arm` exports and :func:`crash_point` consults lazily — a
supervised campaign's workers inherit the armed schedule either way.
The optional ``token`` file makes a schedule fire **exactly once
across every process of a trial**: the first striker claims the token
with ``O_CREAT | O_EXCL``; later matches see it and pass through. That
is what keeps a supervised trial convergent — the respawned worker does
not crash at the same boundary forever.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any

#: exit status of an ``os._exit`` chaos kill (internal to the harness;
#: distinct from the worker-crash sentinel 73 so logs stay readable)
CHAOS_KILL_EXITCODE = 77

ENV_VAR = "REPRO_CHAOS"


class ChaosCrash(BaseException):
    """The in-process simulated crash (never caught by ``except Exception``)."""


@dataclass(frozen=True)
class PointSpec:
    """One registered crash point: where it lives and how it can fire.

    ``phase`` is the pipeline phase whose child process the runner arms
    (``"run"`` or ``"analyze"``); ``modes`` the campaign modes in which
    the point can fire at all; ``torn`` whether a torn-write simulation
    makes sense at this boundary (an in-flight file exists); ``pack``
    whether the trial campaign must write a packed archive to reach it.
    """

    name: str
    phase: str = "run"
    modes: tuple[str, ...] = ("serial", "supervised")
    torn: bool = False
    pack: bool = False
    execute: bool = False
    description: str = ""


#: every crash point woven into the codebase, by name
REGISTERED_POINTS: dict[str, PointSpec] = {
    spec.name: spec
    for spec in (
        # ---- util/fsio.py: the durable tmp+replace protocol ----------
        PointSpec(
            "fsio.before-tmp-write",
            description="durable write: before any tmp byte lands",
        ),
        PointSpec(
            "fsio.after-tmp-fsync",
            torn=True,
            description="durable write: tmp written and fsynced, "
            "target untouched (torn: the fsync lied)",
        ),
        PointSpec(
            "fsio.before-replace",
            torn=True,
            description="durable write: immediately before os.replace",
        ),
        PointSpec(
            "fsio.after-replace",
            description="durable write: target renamed, directory "
            "entry not yet fsynced",
        ),
        PointSpec(
            "fsio.before-dir-fsync",
            description="durable write: before the directory fsync "
            "that makes the rename durable",
        ),
        # ---- caliper/calipack.py: the packed archive ------------------
        PointSpec(
            "calipack.mid-entry-append",
            torn=True,
            pack=True,
            modes=("serial", "supervised", "sharded"),
            description="archive append: entry bytes written, good_end "
            "not advanced (torn: partial entry tail)",
        ),
        PointSpec(
            "calipack.pre-index",
            pack=True,
            description="archive seal: before the index is written "
            "(footer-less archive; salvage scan territory)",
        ),
        PointSpec(
            "calipack.pre-footer",
            torn=True,
            pack=True,
            description="archive seal: index written, footer not "
            "(torn: partial index tail)",
        ),
        PointSpec(
            "calipack.mid-merge",
            pack=True,
            description="segment merge: segments folded into the "
            "campaign archive (durably replaced), none deleted yet",
        ),
        PointSpec(
            "calipack.post-merge-unlink",
            pack=True,
            description="segment merge: merged archive durable, some "
            "segments deleted, others still on disk",
        ),
        # ---- suite/coordinator.py: the sharded campaign ---------------
        PointSpec(
            "shard.pre-map-save",
            modes=("sharded",),
            pack=True,
            description="shard coordinator: cell partition computed, "
            "shard map not yet durably written",
        ),
        PointSpec(
            "shard.post-shard-exit",
            modes=("sharded",),
            pack=True,
            description="shard coordinator: a shard supervisor exited "
            "and was recorded, its outcome not yet acted on",
        ),
        # ---- suite/manifest.py: the campaign ledger -------------------
        PointSpec(
            "manifest.pre-save",
            modes=("serial", "supervised", "sharded"),
            description="manifest checkpoint: cell completed, ledger "
            "not yet appended",
        ),
        PointSpec(
            "manifest.mid-append",
            modes=("serial", "supervised", "sharded"),
            torn=True,
            description="manifest checkpoint: ledger lines written, not "
            "yet fsynced (torn: partial last line)",
        ),
        # ---- suite/refchecksums.py: the Base_Seq sidecar --------------
        PointSpec(
            "refchecksums.pre-publish",
            execute=True,
            description="reference-checksum publish: value computed, "
            "sidecar not yet rewritten",
        ),
        # ---- thicket/ingest_cache.py: composed-table cache ------------
        PointSpec(
            "ingest-cache.pre-store",
            phase="analyze",
            pack=True,
            description="ingest cache: tables composed, cache entry "
            "not yet written",
        ),
        # ---- service/: the durable campaign job service ---------------
        PointSpec(
            "service.pre-job-save",
            phase="service",
            modes=("service",),
            description="job store: a state transition computed, the "
            "job record not yet durably rewritten",
        ),
        PointSpec(
            "service.post-claim",
            phase="service",
            modes=("service",),
            description="scheduler: job lease claimed (O_EXCL token on "
            "disk), the RUNNING transition not yet saved",
        ),
        PointSpec(
            "service.mid-drain",
            phase="service",
            modes=("service",),
            description="graceful drain: about to stop a running job "
            "and requeue it; record still RUNNING, lease still held",
        ),
        # ---- service/retention.py: GC + archive compaction ------------
        PointSpec(
            "retention.pre-tombstone",
            phase="retention",
            modes=("service",),
            description="retention GC: job selected for collection, "
            "tombstone not yet durably written (job must stay fully "
            "live)",
        ),
        PointSpec(
            "retention.mid-delete",
            phase="retention",
            modes=("service",),
            description="retention GC: tombstone durable, campaign "
            "directory partially removed (fsck must finish the "
            "reclamation)",
        ),
        PointSpec(
            "retention.pre-compact-swap",
            phase="retention",
            modes=("service",),
            torn=True,
            pack=True,
            description="archive compaction: rebuilt archive written to "
            "scratch, atomic swap not yet performed (torn: partial "
            "scratch tail; original must stay bit-identical)",
        ),
        # ---- campaign loops: between two cells' durable records -------
        PointSpec(
            "executor.post-cell",
            modes=("serial",),
            description="serial campaign loop: cell recorded and "
            "checkpointed, next cell not started",
        ),
        PointSpec(
            "supervisor.post-record",
            modes=("supervised",),
            description="supervisor loop: worker result recorded and "
            "checkpointed, next dispatch not made",
        ),
    )
}


def point_names() -> list[str]:
    return list(REGISTERED_POINTS)


@dataclass
class ChaosSchedule:
    """One armed strike: crash at the ``hit``-th occurrence of ``point``.

    ``mode`` is ``"raise"`` (:class:`ChaosCrash`) or ``"exit"``
    (``os._exit``). ``torn`` truncates the in-flight file to a seeded
    prefix before dying. ``token``, when set, is a filesystem path
    claimed exclusively by the first striker so the schedule fires at
    most once across every process sharing it.
    """

    point: str
    hit: int = 1
    mode: str = "raise"
    torn: bool = False
    seed: int = 0
    token: str | None = None
    count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.point not in REGISTERED_POINTS:
            raise ValueError(
                f"unknown crash point {self.point!r}; "
                f"registered: {point_names()}"
            )
        if self.mode not in ("raise", "exit"):
            raise ValueError(f"mode must be 'raise' or 'exit', got {self.mode!r}")
        if self.hit < 1:
            raise ValueError(f"hit must be >= 1, got {self.hit}")

    # ------------------------------------------------------- serialization
    def to_json(self) -> str:
        return json.dumps(
            {
                "point": self.point,
                "hit": self.hit,
                "mode": self.mode,
                "torn": self.torn,
                "seed": self.seed,
                "token": self.token,
            }
        )

    @classmethod
    def from_json(cls, raw: str) -> "ChaosSchedule":
        data: dict[str, Any] = json.loads(raw)
        return cls(
            point=data["point"],
            hit=int(data.get("hit", 1)),
            mode=data.get("mode", "raise"),
            torn=bool(data.get("torn", False)),
            seed=int(data.get("seed", 0)),
            token=data.get("token"),
        )


# ---------------------------------------------------------------- arming
_armed: ChaosSchedule | None = None
_env_checked = False


def arm(schedule: ChaosSchedule) -> None:
    """Install ``schedule`` process-wide (and export it to children)."""
    global _armed, _env_checked
    _armed = schedule
    _env_checked = True
    os.environ[ENV_VAR] = schedule.to_json()


def disarm() -> None:
    global _armed, _env_checked
    _armed = None
    _env_checked = True
    os.environ.pop(ENV_VAR, None)


def armed_schedule() -> ChaosSchedule | None:
    """The armed schedule, adopting an inherited ``$REPRO_CHAOS`` lazily."""
    global _armed, _env_checked
    if _armed is None and not _env_checked:
        _env_checked = True
        raw = os.environ.get(ENV_VAR, "").strip()
        if raw:
            try:
                _armed = ChaosSchedule.from_json(raw)
            except (ValueError, KeyError):
                _armed = None
    return _armed


def _torn_prefix(seed: int, path: str, span: int) -> int:
    """Deterministic torn-write length in ``[0, span]`` for this file."""
    digest = zlib.crc32(f"{seed}:{path}:{span}".encode("utf-8")) & 0xFFFFFFFF
    return digest % (span + 1)


def _tear(torn_file: str, torn_base: int, seed: int) -> None:
    """Truncate the in-flight file to a seeded prefix past ``torn_base``."""
    try:
        size = os.path.getsize(torn_file)
    except OSError:
        return
    span = max(0, size - torn_base)
    keep = torn_base + _torn_prefix(seed, os.path.basename(torn_file), span)
    with open(torn_file, "r+b") as handle:
        handle.truncate(keep)
        handle.flush()
        try:
            os.fsync(handle.fileno())
        except OSError:  # pragma: no cover - fs without fsync
            pass


def crash_point(
    name: str,
    path: str | os.PathLike[str] | None = None,
    torn_file: str | os.PathLike[str] | None = None,
    torn_base: int = 0,
) -> None:
    """A durable-write boundary chaos can strike.

    ``path`` names the durable target (diagnostics only); ``torn_file``
    the in-flight file a torn-write simulation may truncate, with
    ``torn_base`` the byte offset below which it must stay intact (an
    archive's already-durable prefix). No-op unless an armed schedule
    names this point and its hit count comes due.
    """
    schedule = armed_schedule()
    if schedule is None:
        return
    if name not in REGISTERED_POINTS:  # typo guard, armed paths only
        raise ValueError(f"unregistered crash point {name!r}")
    if name != schedule.point:
        return
    schedule.count += 1
    if schedule.count != schedule.hit:
        return
    if schedule.token is not None:
        try:
            fd = os.open(schedule.token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # another process already struck this trial
        except OSError:
            return  # token dir vanished: err on the side of not crashing
        try:
            os.write(fd, f"{name} pid={os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
    if schedule.torn and torn_file is not None:
        _tear(str(torn_file), torn_base, schedule.seed)
    if schedule.mode == "exit":
        os._exit(CHAOS_KILL_EXITCODE)
    raise ChaosCrash(
        f"chaos crash at {name} (hit {schedule.hit}"
        f"{', torn' if schedule.torn else ''})"
        + (f" while writing {path}" if path is not None else "")
    )
