"""The shard coordinator: self-healing scale-out campaigns.

A sharded campaign partitions its cells deterministically across N
shard supervisors (:mod:`repro.suite.shard`), each running an ordinary
campaign in its own shared-nothing directory. The coordinator owns the
campaign-level state and nothing else:

* the **shard map** (``shard_map.json``, fsio-atomic): which cell keys
  belong to which shard, which shards have been retired, and the
  configuration fingerprint — the durable record a resumed coordinator
  re-adopts so cells never migrate between shards across a crash;
* the **healing state machine** over shard processes::

      assigned -> running -> settled (exit 0)
                    |
                    +-- abnormal exit / missed beats
                    |        fsck shard dir, respawn with --resume
                    |        (bounded by the campaign RetryPolicy)
                    |        ... budget exhausted -> RETIRED
                    |              residue reassigned to survivors
                    +-- exit CAMPAIGN_LOCKED (predecessor not reaped)
                             short retry, not charged to the budget

  A retired shard's residue — its assigned cells not yet ``ok`` — moves
  to the surviving shards (the map is updated durably first), and a
  survivor that already settled is re-spawned with ``--resume`` to pick
  the new work up. Only when *every* shard has retired does residue
  become terminal: those cells are recorded ``failed`` with
  ``<shard unavailable>`` in the campaign manifest, and the campaign —
  like every other failure here — finishes unclean instead of dying;
* the **shard merge**: on completion, per-shard archives fold in one
  pass through :func:`~repro.caliper.calipack.merge_shards` into one
  canonical ``campaign.calipack`` that is byte-identical to what a
  single-supervisor run of the same cells produces, and the campaign
  manifest is composed from the shard manifests with member refs
  rewritten to the merged archive.

Crash points: ``shard.pre-map-save`` (partition computed, map not yet
durable) and ``shard.post-shard-exit`` (a shard reaped, outcome not yet
acted on); a crash inside the merge strikes the ``fsio.*`` and
``calipack.*`` points of its tmp + durable-replace write. Kill the
coordinator at any of them — or kill any shard anywhere — and
``fsck`` + ``run --resume`` converges to the full cell set (chaos
invariant I5).
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.caliper.calipack import ARCHIVE_NAME, member_ref, merge_shards, split_member_ref
from repro.cli.exitcodes import CAMPAIGN_LOCKED, SHARD_ORPHANED
from repro.faults import fault_point
from repro.suite.executor import ModelPlan
from repro.suite.heartbeat import HeartbeatMonitor
from repro.suite.manifest import MANIFEST_NAME, CampaignManifest
from repro.suite.report import STATUS_FAILED, STATUS_OK, KernelRunRecord
from repro.suite.run_params import RunParams
from repro.suite.session import CampaignSession
from repro.suite.shard import SHARD_DIR, shard_dir_name, shard_main, shard_path
from repro.suite.worker import CellTask
from repro.util import child
from repro.util.fsio import back_up, write_durable_text

MAP_NAME = "shard_map.json"
MAP_VERSION = 1

#: shard-map partition strategies
STRATEGY_ROUND_ROBIN = "round_robin"
STRATEGY_LPT = "lpt"

#: bounded retries when a shard exits CAMPAIGN_LOCKED (a predecessor
#: not yet gone); not charged to the respawn budget
LOCK_RETRY_LIMIT = 50
LOCK_RETRY_DELAY_S = 0.2


# -------------------------------------------------------------- shard map
@dataclass
class ShardMap:
    """The durable campaign-level partition record."""

    path: Path
    shards: int
    fingerprint: dict[str, Any] = field(default_factory=dict)
    #: shard dir name -> assigned cell keys (current truth, post-healing)
    assignment: dict[str, list[str]] = field(default_factory=dict)
    retired: list[int] = field(default_factory=list)
    #: how the partition was cut (informational; maps written before the
    #: cost-model scheduler carry no strategy and load as round_robin)
    strategy: str = STRATEGY_ROUND_ROBIN

    @classmethod
    def load(cls, output_dir: str | Path) -> "ShardMap | None":
        """The directory's shard map, or None (fresh, or unreadable).

        An unreadable map is backed up as ``shard_map.json.bak`` — same
        forensics-first policy as the campaign manifest. Losing the map
        is safe: a fresh partition re-runs at most the cells whose
        completions now sit in a different shard's manifest, and the
        last-wins merge deduplicates the archives.
        """
        path = Path(output_dir) / MAP_NAME
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            shards = int(payload["shards"])
            assignment = {
                str(k): [str(key) for key in v]
                for k, v in dict(payload.get("assignment", {})).items()
            }
        except (OSError, ValueError, KeyError, TypeError) as exc:
            backup = back_up(path)
            saved = (
                f"; corrupt file backed up as {backup.name}"
                if backup is not None
                else "; backup failed, corrupt file left in place"
            )
            warnings.warn(
                f"unreadable shard map {path} ({exc}); "
                f"repartitioning{saved}",
                stacklevel=2,
            )
            return None
        return cls(
            path=path,
            shards=shards,
            fingerprint=dict(payload.get("fingerprint", {})),
            assignment=assignment,
            retired=[int(i) for i in payload.get("retired", [])],
            strategy=str(payload.get("strategy", STRATEGY_ROUND_ROBIN)),
        )

    def save(self) -> Path:
        """Durably persist (the ``shard.pre-map-save`` crash boundary)."""
        fault_point("shard.pre-map-save", path=self.path)
        payload = {
            "format": "rajaperf-shard-map",
            "version": MAP_VERSION,
            "shards": self.shards,
            "fingerprint": self.fingerprint,
            "assignment": self.assignment,
            "retired": sorted(self.retired),
            "strategy": self.strategy,
        }
        return write_durable_text(
            self.path, json.dumps(payload, indent=1, sort_keys=True)
        )

    def keys_for(self, index: int) -> list[str]:
        return list(self.assignment.get(shard_dir_name(index), []))


def partition_keys(keys: list[str], shards: int) -> dict[str, list[str]]:
    """Deterministic round-robin partition of cell keys across shards.

    Round-robin (rather than contiguous chunks) interleaves the sweep
    order, so machines and variants spread evenly — but it balances
    *counts*, not cost: a shard that draws the expensive tunings still
    finishes long after the others. :func:`partition_keys_lpt` balances
    by estimated cost and is the default; this remains the ``--schedule
    fifo`` path and the interpretation of strategy-less legacy maps.
    """
    assignment: dict[str, list[str]] = {
        shard_dir_name(k): [] for k in range(shards)
    }
    for i, key in enumerate(keys):
        assignment[shard_dir_name(i % shards)].append(key)
    return assignment


def partition_keys_lpt(
    keys: list[str], shards: int, cost_fn
) -> dict[str, list[str]]:
    """Greedy LPT bin-pack of cell keys over shard bins (by est. cost).

    Deterministic: a pure function of the key order and the cost
    function (:class:`~repro.suite.costmodel.CellCostModel` estimates or
    measured overrides). The merged campaign archive is unaffected by
    which shard runs which cell — the merge canonicalizes — so changing
    strategies only moves wall-clock, never bytes.
    """
    from repro.suite.schedule import lpt_partition_keys

    bins = lpt_partition_keys(keys, shards, cost_fn)
    return {shard_dir_name(i): bins[i] for i in range(shards)}


# ------------------------------------------------------------- supervision
@dataclass
class _ShardHandle:
    """Coordinator-side view of one shard's lifecycle."""

    index: int
    keys: list[str]
    process: child.Child | None = None
    attempt: int = 1  # crash respawns charged against the retry budget
    lock_retries: int = 0
    ready_at: float = 0.0  # earliest monotonic (re)spawn time
    resume: bool = False  # next spawn resumes (respawn / reassignment)
    dirty: bool = False  # assignment grew while the process was running
    settled: bool = False  # exited 0 on its current assignment
    retired: bool = False

    @property
    def active(self) -> bool:
        return not (self.settled or self.retired)


class ShardCoordinator:
    """Partition, spawn, monitor, heal, merge — one sharded campaign."""

    def __init__(
        self, params: RunParams, model_plan: ModelPlan | None = None
    ) -> None:
        if params.shards < 1:
            raise ValueError("ShardCoordinator requires params.shards >= 1")
        self.params = params
        #: filled by the LPT cut's cost model; shards inherit it on fork
        self.model_plan = model_plan if model_plan is not None else ModelPlan()
        self._shutdown = False
        #: ends the healing loop's wait on SIGINT/SIGTERM (while it runs)
        self._wake: child.SelfPipe | None = None

    def _on_signal(self, signum, frame) -> None:
        self._shutdown = True
        if self._wake is not None:
            self._wake.wake()

    # ------------------------------------------------------------------ run
    def run(self, cells, write_files: bool = True):
        """Execute ``cells`` across the shards; returns a RunResult."""
        if not write_files:
            raise ValueError(
                "sharded campaigns require write_files=True: shards are "
                "shared-nothing directories merged on disk"
            )
        out_dir = Path(self.params.output_dir)
        session = CampaignSession(self.params, write_files).open()
        handles: dict[int, _ShardHandle] = {}
        try:
            cells_by_key = {cell.key: cell for cell in cells}
            pending = [cell.key for cell in session.pending(cells)]
            shard_map = self._load_or_partition(out_dir, pending)
            for index in range(shard_map.shards):
                keys = [k for k in shard_map.keys_for(index) if k in cells_by_key]
                handle = _ShardHandle(index=index, keys=keys)
                if index in shard_map.retired:
                    handle.retired = True
                elif not keys:
                    handle.settled = True  # nothing assigned: born settled
                handles[index] = handle

            if any(h.active for h in handles.values()):
                self._supervise(handles, shard_map, cells_by_key, write_files)
            self._merge(out_dir, shard_map, handles)
            self._compose(session, cells_by_key, pending, handles)
        finally:
            session.close()
        # Every file the campaign holds, resumed cells' included.
        session.paths.extend(
            Path(entry["file"])
            for key, entry in session.manifest.cells.items()
            if key in cells_by_key and entry.get("file")
        )
        return session.result(interrupted=self._shutdown)

    # ---------------------------------------------------------- partitioning
    def _load_or_partition(self, out_dir: Path, pending: list[str]) -> ShardMap:
        """Adopt the existing shard map, or cut a fresh partition.

        A resumed campaign must keep cells on the shards that already
        hold their completions, so an existing map with a matching
        configuration is adopted verbatim — whatever strategy cut it,
        including strategy-less maps from before the cost-model
        scheduler. Only keys the map has never seen (a sweep extended
        with more trials, say) are dealt out to the surviving shards:
        to the estimated-lightest bin under an LPT map, round-robin
        otherwise.
        """
        from repro.suite.costmodel import CellCostModel
        from repro.suite.schedule import SCHEDULE_LPT, order_lpt

        params = self.params
        existing = ShardMap.load(out_dir)
        if (
            existing is not None
            and existing.shards == params.shards
            and existing.fingerprint == params.fingerprint()
        ):
            known = {k for keys in existing.assignment.values() for k in keys}
            new = [k for k in pending if k not in known]
            if new:
                survivors = [
                    k for k in range(existing.shards) if k not in existing.retired
                ] or list(range(existing.shards))
                if existing.strategy == STRATEGY_LPT:
                    costs = CellCostModel.for_params(params, self.model_plan)
                    loads = {
                        index: sum(
                            costs.cost_of_key(k)
                            for k in existing.keys_for(index)
                        )
                        for index in survivors
                    }
                    for key in order_lpt(new, costs.cost_of_key):
                        index = min(survivors, key=lambda i: (loads[i], i))
                        existing.assignment.setdefault(
                            shard_dir_name(index), []
                        ).append(key)
                        loads[index] += costs.cost_of_key(key)
                else:
                    for i, key in enumerate(new):
                        existing.assignment.setdefault(
                            shard_dir_name(survivors[i % len(survivors)]), []
                        ).append(key)
            existing.save()
            return existing
        if params.schedule == SCHEDULE_LPT:
            strategy = STRATEGY_LPT
            assignment = partition_keys_lpt(
                pending,
                params.shards,
                CellCostModel.for_params(params, self.model_plan).cost_of_key,
            )
        else:
            strategy = STRATEGY_ROUND_ROBIN
            assignment = partition_keys(pending, params.shards)
        shard_map = ShardMap(
            path=out_dir / MAP_NAME,
            shards=params.shards,
            fingerprint=params.fingerprint(),
            assignment=assignment,
            strategy=strategy,
        )
        shard_map.save()
        return shard_map

    # ------------------------------------------------------------- lifecycle
    def _spawn(self, handle: _ShardHandle, cells_by_key, write_files: bool) -> None:
        params = self.params
        tasks = [
            CellTask.of(cells_by_key[k]) for k in handle.keys if k in cells_by_key
        ]
        resume = handle.resume or params.resume
        handle.process = child.spawn(
            shard_main, handle.index, params, tasks, write_files, resume,
            child.PIPE, self.model_plan,
            name=f"campaign-shard-{handle.index}",
            # Not a daemon: a shard may spawn its own worker pool, and
            # daemonic processes cannot have children.
            daemon=False,
            orphan_exit=SHARD_ORPHANED,
        )
        handle.dirty = False

    def _supervise(self, handles, shard_map, cells_by_key, write_files) -> None:
        """Run the healing loop; no shard outlives it (an interrupted
        run's shards are stopped before the merge reads their archives)."""
        self._wake = child.SelfPipe()
        try:
            with child.signals_to(self._on_signal):
                self._heal_loop(handles, shard_map, cells_by_key, write_files)
        finally:
            for handle in handles.values():
                child.kill(handle.process)
            self._wake.close()
            self._wake = None

    def _heal_loop(self, handles, shard_map, cells_by_key, write_files) -> None:
        """The healing loop: reap, respawn, retire, reassign.

        One wait per pass over the running shards' pipes (beats, EOF)
        and sentinels plus the self-pipe, until the next (re)spawn is
        due or a shard's beat deadline passes.
        """
        params = self.params
        monitor = HeartbeatMonitor(params.shard_lease_timeout)

        while not self._shutdown:
            now = time.monotonic()
            active = [h for h in handles.values() if h.active]
            if not active:
                return
            deadlines = []
            for handle in active:
                if handle.process is None:
                    if now < handle.ready_at:
                        deadlines.append(handle.ready_at)
                        continue
                    self._spawn(handle, cells_by_key, write_files)
                    monitor.register(handle.index)
                deadlines.append(
                    monitor.last_seen(handle.index) + params.shard_lease_timeout
                )
            running = [h for h in active if h.process is not None]
            if self._wake in child.wait(
                [h.process for h in running], self._wake,
                timeout=max(min(deadlines) - now, 0.0),
            ):
                self._wake.clear()
            for handle in running:
                for _ in child.drain(handle.process):
                    monitor.beat(handle.index)  # every message is a beat
                process = handle.process
                if not process.is_alive():
                    code = process.exitcode
                    process.hang_up()
                    handle.process = None
                    monitor.forget(handle.index)
                    # Reaped but not yet acted on: a coordinator killed
                    # here must re-derive the shard's fate on resume.
                    fault_point("shard.post-shard-exit", path=shard_map.path)
                    self._reap(handle, code, handles, shard_map)
                elif monitor.is_stale(handle.index):
                    child.kill(process)
                    handle.process = None
                    monitor.forget(handle.index)
                    self._heal(
                        handle,
                        f"shard missed beat deadline "
                        f"({params.shard_lease_timeout:.3g}s)",
                        handles,
                        shard_map,
                    )

    def _reap(self, handle, code, handles, shard_map) -> None:
        if code == 0:
            if handle.dirty:
                # Reassigned residue arrived while it ran: one more pass.
                handle.resume = True
                handle.ready_at = 0.0
            else:
                handle.settled = True
            return
        if code == CAMPAIGN_LOCKED:
            handle.lock_retries += 1
            if handle.lock_retries > LOCK_RETRY_LIMIT:
                self._retire(handle, handles, shard_map)
                return
            handle.resume = True
            handle.ready_at = time.monotonic() + LOCK_RETRY_DELAY_S
            return
        self._heal(
            handle, f"shard process died (exit code {code})", handles, shard_map
        )

    def _heal(self, handle, reason, handles, shard_map) -> None:
        """fsck the shard, then respawn under the retry budget — or retire."""
        from repro.suite.fsck import fsck_directory

        shard_dir = shard_path(self.params.output_dir, handle.index)
        if shard_dir.is_dir():
            try:
                fsck_directory(shard_dir)
            except OSError:  # pragma: no cover - fsck must not kill healing
                pass
        policy = self.params.retry_policy()
        if handle.attempt >= policy.max_attempts:
            self._retire(handle, handles, shard_map)
            return
        wait = policy.delay(handle.attempt, salt=f"shard-{handle.index}")
        handle.attempt += 1
        handle.resume = True
        handle.ready_at = time.monotonic() + wait

    def _retire(self, handle, handles, shard_map) -> None:
        """Out of respawns: move the shard's residue to the survivors."""
        handle.retired = True
        shard_map.retired.append(handle.index)
        residue = self._residue(handle)
        survivors = [
            h for h in handles.values() if not h.retired
        ]
        if residue and survivors:
            for i, key in enumerate(residue):
                survivor = survivors[i % len(survivors)]
                survivor.keys.append(key)
                shard_map.assignment.setdefault(
                    shard_dir_name(survivor.index), []
                ).append(key)
                survivor.dirty = True
                if survivor.settled:
                    # Settled survivors take another resumed pass for
                    # the new work; their crash budget is untouched.
                    survivor.settled = False
                    survivor.resume = True
                    survivor.ready_at = 0.0
                    survivor.dirty = False
            retired_keys = shard_map.assignment.get(
                shard_dir_name(handle.index), []
            )
            shard_map.assignment[shard_dir_name(handle.index)] = [
                k for k in retired_keys if k not in set(residue)
            ]
        shard_map.save()

    def _residue(self, handle: _ShardHandle) -> list[str]:
        """The retired shard's assigned keys not completed in its manifest."""
        done = {
            key
            for key, entry in self._shard_cells(handle.index).items()
            if entry.get("status") == STATUS_OK
        }
        return [k for k in handle.keys if k not in done]

    def _shard_cells(self, index: int) -> dict[str, dict]:
        shard_dir = shard_path(self.params.output_dir, index)
        try:
            manifest = CampaignManifest.read(shard_dir / MANIFEST_NAME)
        except (OSError, ValueError):
            return {}
        if manifest is None:
            return {}
        return {
            k: v for k, v in manifest.cells.items() if isinstance(v, dict)
        }

    # ----------------------------------------------------------------- merge
    def _merge(self, out_dir: Path, shard_map: ShardMap, handles) -> None:
        """Fold the shard archives into the campaign archive in one pass.

        Retired shards' archives go first so a survivor's re-run of
        reassigned residue wins the last-wins dedup; survivors follow in
        index order, keeping the fold deterministic.
        """
        ordered = sorted(
            handles.values(), key=lambda h: (not h.retired, h.index)
        )
        archives = [
            shard_path(out_dir, h.index) / ARCHIVE_NAME for h in ordered
        ]
        merge_shards(out_dir, archives)

    def _compose(self, session, cells_by_key, pending, handles) -> None:
        """Rebuild the campaign manifest and report from the shard truth.

        Member refs recorded by the shards are rewritten to point at the
        merged campaign archive. On an interrupted run only completed
        cells are recorded — the rest stay pending for ``--resume``.
        Cells no shard could finish (every owner retired) are terminal
        failures: ``<shard unavailable>``.
        """
        manifest, report = session.manifest, session.report
        root_archive = Path(self.params.output_dir) / ARCHIVE_NAME
        by_shard = {
            h.index: self._shard_cells(h.index) for h in handles.values()
        }
        # Current owner's verdict wins; retired predecessors fill gaps.
        owner: dict[str, list[int]] = {}
        for handle in sorted(
            handles.values(), key=lambda h: (h.retired, h.index)
        ):
            for key in handle.keys:
                owner.setdefault(key, []).append(handle.index)
        for key in pending:
            entry = None
            for index in owner.get(key, []):
                candidate = by_shard.get(index, {}).get(key)
                if candidate is not None:
                    entry = candidate
                    break
            if entry is None:
                if self._shutdown:
                    continue  # interrupted: leave for --resume
                report.add(
                    KernelRunRecord(
                        kernel="<shard unavailable>",
                        machine=cells_by_key[key].machine.shorthand,
                        variant=cells_by_key[key].variant.name,
                        tuning=cells_by_key[key].tuning,
                        trial=cells_by_key[key].trial,
                        status=STATUS_FAILED,
                        attempts=self.params.max_attempts,
                        error="every shard assigned this cell was retired",
                    )
                )
                report.mark_cell(key, STATUS_FAILED)
                manifest.record(
                    key, STATUS_FAILED, failed_kernels=["<shard unavailable>"]
                )
                continue
            status = entry.get("status", STATUS_FAILED)
            file = entry.get("file")
            if file:
                ref = split_member_ref(file)
                name = ref[1] if ref is not None else Path(file).name
                file = member_ref(root_archive, name)
            report.mark_cell(
                key, STATUS_OK if status == STATUS_OK else STATUS_FAILED
            )
            if status != STATUS_OK:
                for kernel in entry.get("failed_kernels", []) or ["<shard>"]:
                    report.add(
                        KernelRunRecord(
                            kernel=kernel,
                            machine=cells_by_key[key].machine.shorthand,
                            variant=cells_by_key[key].variant.name,
                            tuning=cells_by_key[key].tuning,
                            trial=cells_by_key[key].trial,
                            status=STATUS_FAILED,
                            error="recorded failed by shard "
                            f"{owner.get(key, ['?'])[0]}",
                        )
                    )
            elapsed = entry.get("elapsed_s")
            manifest.record(
                key,
                status,
                file=file,
                failed_kernels=list(entry.get("failed_kernels", [])),
                elapsed_s=(
                    float(elapsed)
                    if isinstance(elapsed, (int, float))
                    else None
                ),
            )
        manifest.save()
        manifest.compact()


# ------------------------------------------------------------ shard status
@dataclass
class ShardStatusLine:
    """One shard's row in the status report."""

    index: int
    ok: int = 0
    assigned: int = 0
    failed: int = 0
    pending: int = 0
    state: str = ""
    #: estimated total cost (seconds) of this shard's assignment, from
    #: the cost model (measured manifest times win over analytics)
    est_cost: float | None = None
    #: non-empty when this shard makes the campaign look unhealthy
    reason: str = ""


@dataclass
class ShardStatusReport:
    """Machine-checkable status of a sharded campaign directory.

    ``degraded`` is the operator signal the CLI turns into exit code 4:
    some shard still owes cells but nothing live is working on them (no
    live process holds the shard's campaign lock, nor the campaign's —
    a live coordinator between respawns still owns the work), or the
    shard map itself is inconsistent (duplicate cell ownership, entries
    referencing shards outside the partition). A *completed* campaign
    with dead lock holders is healthy — there is no pending work the
    dead shard is sitting on.
    """

    output_dir: Path
    map_present: bool = False
    shards: int = 0
    retired: list[int] = field(default_factory=list)
    lines: list[ShardStatusLine] = field(default_factory=list)
    map_reasons: list[str] = field(default_factory=list)
    archive_present: bool = False
    strategy: str = STRATEGY_ROUND_ROBIN

    @property
    def degraded(self) -> bool:
        return bool(self.map_reasons) or any(l.reason for l in self.lines)

    @property
    def balance_ratio(self) -> float | None:
        """max/min estimated shard cost over live shards (imbalance
        observability: 1.0 is perfect, large means stragglers). None
        when costs are unavailable or fewer than two shards are live."""
        costs = [
            line.est_cost
            for line in self.lines
            if line.index not in self.retired and line.est_cost is not None
        ]
        if len(costs) < 2:
            return None
        lightest = min(costs)
        if lightest <= 0:
            return float("inf") if max(costs) > 0 else 1.0
        return max(costs) / lightest

    @property
    def reasons(self) -> list[str]:
        return self.map_reasons + [
            f"shard-{l.index}: {l.reason}" for l in self.lines if l.reason
        ]

    def text(self) -> str:
        """The human-readable report (the old ``shard-status`` output,
        plus a trailing reason column on unhealthy rows)."""
        if not self.map_present:
            if (self.output_dir / SHARD_DIR).is_dir():
                return (
                    f"{self.output_dir}: shard directories present "
                    "but no shard map"
                )
            return f"{self.output_dir}: not a sharded campaign (no shard map)"
        out = [
            f"sharded campaign {self.output_dir}: {self.shards} shard(s), "
            f"{len(self.retired)} retired, {self.strategy} partition"
        ]
        for line in self.lines:
            cost = (
                f", cost~{line.est_cost:.3g}s"
                if line.est_cost is not None
                else ""
            )
            reason = f" -- {line.reason}" if line.reason else ""
            out.append(
                f"  shard-{line.index}: {line.ok}/{line.assigned} ok, "
                f"{line.failed} failed, {line.pending} pending{cost} "
                f"[{line.state}]{reason}"
            )
        ratio = self.balance_ratio
        if ratio is not None:
            out.append(f"  estimated cost balance (max/min): {ratio:.2f}")
        for reason in self.map_reasons:
            out.append(f"  shard map inconsistent: {reason}")
        out.append(
            f"  campaign archive: {ARCHIVE_NAME} "
            f"({'present' if self.archive_present else 'not merged yet'})"
        )
        return "\n".join(out)


def _campaign_cost_model(out_dir: Path):
    """Best-effort cost model for a campaign directory, or None.

    Rebuilds :class:`~repro.suite.run_params.RunParams` from the root
    manifest's fingerprint so analytic estimates match what the
    campaign actually ran, and overrides them with any measured
    ``elapsed_s`` the manifest already holds. Unreadable or pre-model
    manifests degrade to None — status reporting must never fail on
    cost estimation.
    """
    from repro.suite.costmodel import CellCostModel, load_measured_costs
    from repro.suite.features import Feature
    from repro.suite.groups import Group

    manifest_path = out_dir / MANIFEST_NAME
    measured = load_measured_costs(manifest_path)
    try:
        fingerprint = dict(CampaignManifest.read(manifest_path).fingerprint)
        params = RunParams(
            problem_size=int(fingerprint["problem_size"]),
            reps=int(fingerprint.get("reps", 1)),
            variants=tuple(fingerprint.get("variants", [])),
            machines=tuple(fingerprint.get("machines", [])),
            groups=tuple(Group(g) for g in fingerprint.get("groups", [])),
            kernels=tuple(fingerprint.get("kernels", [])),
            features=tuple(Feature(f) for f in fingerprint.get("features", [])),
            gpu_block_sizes=tuple(
                int(b) for b in fingerprint.get("gpu_block_sizes", [256])
            ),
            execute=bool(fingerprint.get("execute", False)),
            trials=int(fingerprint.get("trials", 1)),
        )
    except Exception:  # noqa: BLE001 - missing/old manifest, bad fingerprint
        if measured:
            # No usable fingerprint, but real timings exist: estimate
            # from those alone (unknown cells fall back to the default).
            return CellCostModel(RunParams(), measured=measured)
        return None
    return CellCostModel(params, measured=measured)


def shard_status_report(output_dir: str | Path) -> ShardStatusReport:
    """Audit a sharded campaign's progress, liveness, and map coherence."""
    from repro.suite.manifest import campaign_is_live
    from repro.suite.shard import shard_progress

    out_dir = Path(output_dir)
    report = ShardStatusReport(output_dir=out_dir)
    shard_map = ShardMap.load(out_dir)
    if shard_map is None:
        return report
    report.map_present = True
    report.shards = shard_map.shards
    report.retired = sorted(shard_map.retired)
    report.archive_present = (out_dir / ARCHIVE_NAME).exists()
    report.strategy = shard_map.strategy
    costs = _campaign_cost_model(out_dir)
    coordinator_live = campaign_is_live(out_dir)

    # Map coherence, independent of per-shard liveness.
    known = {shard_dir_name(i) for i in range(shard_map.shards)}
    owners: dict[str, list[str]] = {}
    for name, keys in shard_map.assignment.items():
        if name not in known:
            report.map_reasons.append(
                f"assignment entry {name!r} is outside the "
                f"{shard_map.shards}-shard partition"
            )
        for key in keys:
            owners.setdefault(key, []).append(name)
    for key, names in sorted(owners.items()):
        live = [
            n for n in names
            if n in known
            and int(n.rsplit("-", 1)[1]) not in shard_map.retired
        ]
        if len(live) > 1:
            report.map_reasons.append(
                f"cell {key!r} assigned to {len(live)} live shards "
                f"({', '.join(sorted(live))})"
            )
    for index in shard_map.retired:
        if not 0 <= index < shard_map.shards:
            report.map_reasons.append(
                f"retired index {index} is outside the "
                f"{shard_map.shards}-shard partition"
            )

    for index in range(shard_map.shards):
        assigned_keys = shard_map.keys_for(index)
        progress = shard_progress(out_dir, index, assigned_keys)
        line = ShardStatusLine(
            index=index,
            ok=progress.ok,
            assigned=progress.assigned,
            failed=progress.failed,
            pending=progress.pending,
            est_cost=(
                sum(costs.cost_of_key(k) for k in assigned_keys)
                if costs is not None
                else None
            ),
        )
        if index in shard_map.retired:
            line.state = "retired"
        elif progress.live:
            line.state = f"running (pid {progress.lock_pid})"
        elif progress.lock_pid is not None:
            line.state = f"lock holder pid {progress.lock_pid} dead"
        else:
            line.state = "not running"
        # Degradation: pending work nobody live is doing.
        if (
            index not in shard_map.retired
            and line.pending > 0
            and not progress.live
            and not coordinator_live
        ):
            line.reason = f"{line.pending} cell(s) pending, " + (
                f"lock holder pid {progress.lock_pid} is dead"
                if progress.lock_pid is not None
                else "no live lock holder"
            )
        report.lines.append(line)
    return report


def shard_status(output_dir: str | Path) -> str:
    """Human-readable status of a sharded campaign directory."""
    return shard_status_report(output_dir).text()
