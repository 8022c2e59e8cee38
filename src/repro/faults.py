"""Deterministic fault injection: one registry of named fault sites.

Long data-collection campaigns (Table III: machines x variants x tunings
x 76 kernels) fail in practice: a kernel throws, a node hangs, a worker
dies, a file write is cut off, a flipped bit corrupts a checksum or a
seal, the power goes mid-rename. The pipeline's recovery machinery
(retry, watchdog, supervisor respawn, checkpoint/resume, fsck, degraded
analysis) must be *testable*, so every place a failure can be simulated
calls :func:`fault_point` with a name registered in :data:`SITES`.

Two families of sites share the registry:

* **crash points** — the durable-write boundaries (profile writes,
  archive appends and seals, manifest checkpoints, reference-checksum
  publishes, ingest-cache stores, job-store and retention steps, the
  campaign loops). A fault here dies *inside* the hook: ``raise``
  throws :class:`ChaosCrash` (a ``BaseException``, so ordinary handlers
  never swallow it) and ``exit`` calls ``os._exit`` with
  :data:`repro.cli.exitcodes.CHAOS_KILL` — no ``finally``, no ``atexit``, the
  closest a Python process gets to ``kill -9``. With ``torn`` it first
  truncates the in-flight file to a seeded prefix, the state a power
  cut leaves when the kernel had only partially flushed.
  :mod:`repro.chaos.runner` kills every crash point in turn.
* **cell sites** (phase ``"cell"``) — the kernel attempt, the executed
  checksum, the profile seal, the archive append and the worker's
  pre-cell check. The hook hands the firing :class:`Fault` back and
  the site simulates it: raise :class:`InjectedKernelFault` or
  ``OSError``, advance the :class:`DeadlineClock` (``hang``), perturb a
  value (``corrupt``), ``os._exit`` a worker or stall its heartbeat.

A :class:`Fault` names one site and action plus ``fnmatch`` patterns
over the cell coordinates (``kernel``/``variant``/``trial``/``machine``),
the ``path`` argument and the cell ``attempt``. It counts every
matching occurrence; it is due from the ``hit``-th on, ``times`` times
(``None``: every occurrence). Each occurrence strikes at most once: the
first due fault in plan order fires, and one passed over stays due.
Firing order depends only on the sweep order and the plan, so two
identical runs observe identical faults.

A :class:`FaultPlan` is an ordered list of faults. Installing one
(:func:`install`, or ``with plan:``) sets this module's state, which
forked children inherit with their counts, and exports the plan to
``$REPRO_FAULTS`` as JSON, which a spawned interpreter adopts at its
first hook call. That is the only route a fault takes into any process.
A worker zeroes the cell-site counts it inherits
(:func:`fresh_cell_budgets`), so matching on the cell's ``attempt`` is
what makes "crash once, then succeed" deterministic across respawns;
crash-point counts carry over a fork. The optional ``token`` file makes
a fault fire **exactly once across every process of a run**: on its
``hit``-th occurrence a fault tries to claim the token with ``O_CREAT |
O_EXCL`` and strikes only if that claim succeeds; either way it is then
spent in that process.

With nothing installed the hook costs one global load and one ``is
None`` test.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.cli.exitcodes import CHAOS_KILL

ENV_VAR = "REPRO_FAULTS"


class ChaosCrash(BaseException):
    """The in-process simulated crash (never caught by ``except Exception``)."""


class InjectedKernelFault(RuntimeError):
    """The planted transient/permanent kernel exception."""


@dataclass(frozen=True)
class Site:
    """One registered fault site: where it lives and what it can do.

    ``actions`` are the ones the site supports, of ``raise``, ``exit``,
    ``hang`` and ``corrupt`` (the first is a fault's default); ``torn``
    whether a torn write makes sense here (an in-flight file exists).
    For the chaos runner, ``phase`` is the
    pipeline phase whose child process it arms (``"cell"`` sites are
    not crash points), ``modes`` the campaign modes that reach the site,
    ``pack`` / ``execute`` what the trial campaign needs to reach it.
    """

    name: str
    actions: tuple[str, ...] = ("raise", "exit")
    phase: str = "run"
    modes: tuple[str, ...] = ("serial", "supervised")
    torn: bool = False
    pack: bool = False
    execute: bool = False
    description: str = ""


_CAMPAIGN = ("serial", "supervised", "sharded")

#: every fault site woven into the codebase, by name
SITES: dict[str, Site] = {
    site.name: site
    for site in (
        # ---- util/fsio.py: the durable tmp+replace protocol ----------
        Site(
            "fsio.before-tmp-write",
            description="durable write: before any tmp byte lands",
        ),
        Site(
            "fsio.after-tmp-fsync",
            torn=True,
            description="durable write: tmp written and fsynced, "
            "target untouched (torn: the fsync lied)",
        ),
        Site(
            "fsio.before-replace",
            torn=True,
            description="durable write: immediately before os.replace",
        ),
        Site(
            "fsio.after-replace",
            description="durable write: target renamed, directory "
            "entry not yet fsynced",
        ),
        Site(
            "fsio.before-dir-fsync",
            description="durable write: before the directory fsync "
            "that makes the rename durable",
        ),
        # ---- caliper/calipack.py: the packed archive ------------------
        Site(
            "calipack.mid-entry-append",
            torn=True,
            pack=True,
            modes=_CAMPAIGN,
            description="archive append: entry bytes written, good_end "
            "not advanced (torn: partial entry tail)",
        ),
        Site(
            "calipack.pre-index",
            pack=True,
            description="archive seal: before the index is written "
            "(footer-less archive; salvage scan territory)",
        ),
        Site(
            "calipack.pre-footer",
            torn=True,
            pack=True,
            description="archive seal: index written, footer not "
            "(torn: partial index tail)",
        ),
        Site(
            "calipack.mid-merge",
            pack=True,
            description="segment merge: segments folded into the "
            "campaign archive (durably replaced), none deleted yet",
        ),
        Site(
            "calipack.post-merge-unlink",
            pack=True,
            description="segment merge: merged archive durable, some "
            "segments deleted, others still on disk",
        ),
        # ---- suite/coordinator.py: the sharded campaign ---------------
        Site(
            "shard.pre-map-save",
            modes=("sharded",),
            pack=True,
            description="shard coordinator: cell partition computed, "
            "shard map not yet durably written",
        ),
        Site(
            "shard.post-shard-exit",
            modes=("sharded",),
            pack=True,
            description="shard coordinator: a shard supervisor exited "
            "and was recorded, its outcome not yet acted on",
        ),
        # ---- suite/manifest.py: the campaign ledger -------------------
        Site(
            "manifest.pre-save",
            modes=_CAMPAIGN,
            description="manifest checkpoint: cell completed, ledger "
            "not yet appended",
        ),
        Site(
            "manifest.mid-append",
            modes=_CAMPAIGN,
            torn=True,
            description="manifest checkpoint: ledger lines written, not "
            "yet fsynced (torn: partial last line)",
        ),
        # ---- suite/refchecksums.py: the Base_Seq sidecar --------------
        Site(
            "refchecksums.pre-publish",
            execute=True,
            description="reference-checksum publish: value computed, "
            "sidecar not yet rewritten",
        ),
        # ---- thicket/ingest_cache.py: composed-table cache ------------
        Site(
            "ingest-cache.pre-store",
            phase="analyze",
            pack=True,
            description="ingest cache: tables composed, cache entry "
            "not yet written",
        ),
        # ---- service/: the durable campaign job service ---------------
        Site(
            "service.pre-job-save",
            phase="service",
            modes=("service",),
            description="job store: a state transition computed, the "
            "job record not yet durably rewritten",
        ),
        Site(
            "service.post-claim",
            phase="service",
            modes=("service",),
            description="scheduler: job lease claimed (lease token on "
            "disk), the RUNNING transition not yet saved",
        ),
        Site(
            "service.mid-drain",
            phase="service",
            modes=("service",),
            description="graceful drain: about to stop a running job "
            "and requeue it; record still RUNNING, lease still held",
        ),
        # ---- service/retention.py: GC + archive compaction ------------
        Site(
            "retention.pre-tombstone",
            phase="retention",
            modes=("service",),
            description="retention GC: job selected for collection, "
            "tombstone not yet durably written (job must stay fully "
            "live)",
        ),
        Site(
            "retention.mid-delete",
            phase="retention",
            modes=("service",),
            description="retention GC: tombstone durable, campaign "
            "directory partially removed (fsck must finish the "
            "reclamation)",
        ),
        Site(
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
        Site(
            "executor.post-cell",
            modes=("serial",),
            description="serial campaign loop: cell recorded and "
            "checkpointed, next cell not started",
        ),
        Site(
            "supervisor.post-record",
            modes=("supervised",),
            description="supervisor loop: worker result recorded and "
            "checkpointed, next dispatch not made",
        ),
        # ---- cell sites: the fault hands back, the site simulates -----
        Site(
            "executor.kernel",
            actions=("raise", "hang"),
            phase="cell",
            modes=_CAMPAIGN,
            description="kernel attempt: raise InjectedKernelFault "
            "(retried), or advance the deadline clock by hang_seconds",
        ),
        Site(
            "executor.checksum",
            actions=("corrupt",),
            phase="cell",
            modes=_CAMPAIGN,
            description="executed checksum: perturbed by "
            "corruption_delta, so cross-variant verification trips",
        ),
        Site(
            "profile.seal",
            actions=("raise", "corrupt"),
            phase="cell",
            modes=_CAMPAIGN,
            description="profile seal (write_cali, or ArchiveSink.append "
            "in a packed campaign): raise OSError (a loose write leaves "
            "half a tmp sibling, an archive append half an entry), or "
            "seal with a wrong CRC32",
        ),
        Site(
            "calipack.append",
            actions=("raise",),
            phase="cell",
            modes=_CAMPAIGN,
            description="CalipackWriter.append_bytes: half the entry "
            "lands, then OSError",
        ),
        Site(
            "worker.pre-cell",
            actions=("exit", "hang"),
            phase="cell",
            modes=("supervised", "sharded"),
            description="supervised worker, before a cell: os._exit with "
            "the worker-crash status, or stall heartbeat-less for "
            "hang_seconds real seconds",
        ),
    )
}

#: the sites the chaos runner kills, in registry order
CRASH_POINTS: tuple[str, ...] = tuple(
    name for name, site in SITES.items() if site.phase != "cell"
)


@dataclass(frozen=True)
class Where:
    """The cell coordinates a fault's patterns are matched against."""

    kernel: str = "*"
    variant: str = "*"
    trial: int | str = "*"
    machine: str = "*"


_ANYWHERE = Where()


@dataclass
class Fault:
    """One planted fault: site + action + match patterns + budget.

    ``action`` defaults to the site's first action. Pattern fields are
    ``fnmatch`` patterns (``"*"`` matches anything); ``trial`` and
    ``attempt`` may be ints. ``path`` matches the site's path argument
    (a profile's file name at the profile sites, the durable target at
    crash points). The fault fires on the ``hit``-th matching
    occurrence and the ``times - 1`` after it (``times=None``: every
    occurrence from ``hit`` on). ``hang_seconds`` and
    ``corruption_delta`` parameterize ``hang`` and ``corrupt``;
    ``torn`` and ``seed`` a torn write. With a ``token`` the fault is
    due on its ``hit``-th occurrence only, and strikes then if it wins
    the token (once across processes).
    """

    site: str
    action: str = ""
    kernel: str = "*"
    variant: str = "*"
    trial: int | str = "*"
    machine: str = "*"
    path: str = "*"
    attempt: int | str = "*"
    hit: int = 1
    times: int | None = 1
    hang_seconds: float = 3600.0
    corruption_delta: float = 0.5
    torn: bool = False
    seed: int = 0
    token: str | None = None
    seen: int = field(default=0, init=False)
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        site = SITES.get(self.site)
        if site is None:
            raise ValueError(
                f"unknown fault site {self.site!r}; registered: {list(SITES)}"
            )
        if not self.action:
            self.action = site.actions[0]
        if self.action not in site.actions:
            raise ValueError(
                f"site {self.site!r} supports actions {list(site.actions)}, "
                f"not {self.action!r}"
            )
        if self.torn and not site.torn:
            raise ValueError(f"site {self.site!r} has no torn write")
        if self.hit < 1:
            raise ValueError(f"hit must be >= 1, got {self.hit}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or null, got {self.times}")

    def matches(self, where: Where, attempt: int | None, path: Any) -> bool:
        if not (
            fnmatch.fnmatchcase(where.kernel, self.kernel)
            and fnmatch.fnmatchcase(where.variant, self.variant)
            and fnmatch.fnmatchcase(where.machine, self.machine)
        ):
            return False
        if self.trial != "*" and str(where.trial) != str(self.trial):
            return False
        if self.attempt != "*" and (
            attempt is None or str(attempt) != str(self.attempt)
        ):
            return False
        return self.path == "*" or (
            path is not None and fnmatch.fnmatchcase(str(path), self.path)
        )

    def due(self) -> bool:
        """Whether the occurrence just counted is one this fault strikes."""
        if self.token is not None:
            return self.seen == self.hit
        return self.seen >= self.hit and (
            self.times is None or self.fired < self.times
        )

    def corrupt(self, value: float) -> float:
        """``value`` perturbed by ``corruption_delta`` (no hidden randomness)."""
        return value * (1.0 + self.corruption_delta) + self.corruption_delta

    def to_dict(self) -> dict[str, Any]:
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.init
        }


_FIELDS = frozenset(f.name for f in dataclasses.fields(Fault) if f.init)


def _fault_from_dict(data: Any) -> Fault:
    if not isinstance(data, dict):
        raise ValueError(f"a fault must be a JSON object, got {data!r}")
    unknown = set(data) - _FIELDS
    if unknown:
        raise ValueError(f"unknown fault spec fields: {sorted(unknown)}")
    if "site" not in data:
        raise ValueError(f"fault spec {data!r} names no site")
    return Fault(**data)


class FaultPlan:
    """An ordered list of faults, installable process-wide.

    ``fired_log`` records ``(site, where)`` for every fault that fired
    in this process, for assertions.
    """

    def __init__(self, faults: list[Fault] | None = None) -> None:
        self.faults = list(faults or [])
        self.fired_log: list[tuple[str, Where]] = []
        self._saved: tuple[Any, str | None] | None = None

    # -------------------------------------------------------- construction
    @classmethod
    def parse(cls, raw: str) -> "FaultPlan":
        """Parse the JSON form: a list of fault objects.

        Raises ``ValueError`` (``json.JSONDecodeError`` is one) for
        anything malformed.
        """
        config = json.loads(raw)
        if not isinstance(config, list):
            raise ValueError(f"a fault plan must be a JSON list, got {config!r}")
        try:
            return cls([_fault_from_dict(d) for d in config])
        except TypeError as exc:  # a field of the wrong type
            raise ValueError(str(exc)) from exc

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan in ``$REPRO_FAULTS``; None when unset or empty."""
        raw = os.environ.get(ENV_VAR, "").strip()
        return cls.parse(raw) if raw else None

    def to_json(self) -> str:
        return json.dumps([fault.to_dict() for fault in self.faults])

    # -------------------------------------------------------------- firing
    def strike(
        self,
        site: str,
        where: Where | None,
        attempt: int | None,
        path: Any,
        torn_file: Any,
        torn_base: int,
    ) -> Fault | None:
        if site not in SITES:  # typo guard, installed plans only
            raise ValueError(f"unregistered fault site {site!r}")
        at = where if where is not None else _ANYWHERE
        fault = None
        for candidate in self.faults:
            if candidate.site != site or not candidate.matches(at, attempt, path):
                continue
            candidate.seen += 1
            if fault is None and candidate.due() and (
                candidate.token is None or _claim(candidate.token, site)
            ):
                fault = candidate
        if fault is None:
            return None
        fault.fired += 1
        self.fired_log.append((site, at))
        if SITES[site].phase == "cell":
            return fault
        if fault.torn and torn_file is not None:
            _tear(str(torn_file), torn_base, fault.seed)
        if fault.action == "exit":
            os._exit(CHAOS_KILL)
        raise ChaosCrash(
            f"chaos crash at {site} (hit {fault.seen}"
            f"{', torn' if fault.torn else ''})"
            + (f" while writing {path}" if path is not None else "")
        )

    # ------------------------------------------------------------- install
    def __enter__(self) -> "FaultPlan":
        self._saved = (_plan, os.environ.get(ENV_VAR))
        install(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _plan
        _plan, raw = self._saved
        self._saved = None
        if raw is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = raw

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.faults)} faults, {len(self.fired_log)} fired)"


# ------------------------------------------------------- the installed plan
#: ``_FROM_ENV`` until the first hook call adopts ``$REPRO_FAULTS``
_FROM_ENV: Any = object()
_plan: Any = _FROM_ENV


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide and export it (None: nothing armed)."""
    global _plan
    _plan = plan
    if plan is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = plan.to_json()


def installed() -> FaultPlan | None:
    """The installed plan, adopting an inherited ``$REPRO_FAULTS`` once.

    A malformed variable raises ``ValueError``: a plan is never
    silently dropped.
    """
    global _plan
    if _plan is _FROM_ENV:
        _plan = FaultPlan.from_env()
    return _plan


def fresh_cell_budgets() -> None:
    """Zero the cell-site counts of the installed plan (a new worker).

    Crash-point counts and tokens carry over, as they do across a fork.
    """
    plan = installed()
    for fault in plan.faults if plan is not None else ():
        if SITES[fault.site].phase == "cell":
            fault.seen = fault.fired = 0


def fault_point(
    site: str,
    *,
    where: Where | None = None,
    attempt: int | None = None,
    path: str | os.PathLike[str] | None = None,
    torn_file: str | os.PathLike[str] | None = None,
    torn_base: int = 0,
) -> Fault | None:
    """A registered fault site: the one hook every site calls.

    No-op (None) unless the installed plan has a fault for ``site``
    whose patterns match and whose budget comes due. A crash point then
    dies here; a cell site gets the firing :class:`Fault` back.
    ``torn_file`` is the in-flight file a torn write truncates, never
    below ``torn_base`` (an archive's already-durable prefix).
    """
    plan = _plan
    if plan is None:
        return None
    if plan is _FROM_ENV:
        plan = installed()
        if plan is None:
            return None
    return plan.strike(site, where, attempt, path, torn_file, torn_base)


# ---------------------------------------------------------------- helpers
def _claim(token: str, site: str) -> bool:
    """Claim a strike token exclusively; False when it is already taken."""
    try:
        fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:  # taken, or its directory vanished: do not strike
        return False
    try:
        os.write(fd, f"{site} pid={os.getpid()}\n".encode("ascii"))
    finally:
        os.close(fd)
    return True


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


class DeadlineClock:
    """A monotonic clock whose reading injected hangs can advance.

    The executor's per-kernel watchdog measures elapsed time on this
    clock; a ``hang`` at ``executor.kernel`` calls :meth:`advance` so a
    "stuck" kernel exceeds its deadline without anyone actually waiting.
    """

    def __init__(self, time_fn=time.monotonic) -> None:
        self._time_fn = time_fn
        self._offset = 0.0

    def now(self) -> float:
        return self._time_fn() + self._offset

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards: {seconds}")
        self._offset += seconds
