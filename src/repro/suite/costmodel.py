"""Deterministic per-cell cost estimates for campaign scheduling.

A campaign cell — one (machine, variant, tuning, trial) suite run — is
far from uniform in wall-clock: a ``RAJA_CUDA`` cell at a small block
size pays one Python dispatch per simulated thread block, while a
``Base_Seq`` cell is a handful of vectorized NumPy calls. The scheduler
(:mod:`repro.suite.schedule`) needs a *relative* cost per cell to order
work longest-first and to pack shard bins evenly; absolute accuracy is
irrelevant as long as the ranking is right and the estimate is a pure
function of the run configuration.

:class:`CellCostModel` derives that estimate from the kernels' existing
analytic work annotations:

* the **modeled machine time** — :meth:`KernelBase.predict` folds the
  :class:`~repro.perfmodel.work.WorkProfile` (flops + bytes at the
  cell's problem size) through the machine model with the variant and
  tuning multipliers ``perfmodel`` already applies, read from the
  campaign's :class:`~repro.suite.executor.ModelPlan`;
* when real execution is on, a **host execution term**: the analytic
  bytes+flops at the (capped) execution size over a nominal host
  throughput, plus a per-partition dispatch overhead — RAJA variants
  dispatch one Python call per partition of the policy's plan (a GPU
  tuning at block 64 is ~``n/64`` calls), Base variants are one
  vectorized call.

Costs are trial-independent (trials of one (machine, variant, tuning)
are the same work) and deterministic: no clocks, no RNG draws, no
filesystem state. The model term is shared with the executor through
the plan: a supervisor or shard coordinator estimates every cell before
it forks, so the plan its workers inherit already holds every kernel's
model output and the workers evaluate no model at all.

A prior campaign's manifest can override the analytics with *measured*
per-cell wall times (``elapsed_s``, recorded by the executor since this
module appeared): :func:`load_measured_costs` reads them and
:class:`CellCostModel` prefers a measured cost whenever the exact cell
key has one.
"""

from __future__ import annotations

from pathlib import Path

from repro.suite.manifest import manifest_cells

#: nominal host streaming throughput for the execution term (bytes/s).
#: Only the *ratio* against the dispatch overhead matters: it decides
#: when chunked dispatch dominates vectorized work.
HOST_BYTES_PER_S = 3e9

#: per-partition Python dispatch overhead of a simulated launch (s).
DISPATCH_OVERHEAD_S = 12e-6

#: fallback when an estimate cannot be computed (unknown kernel set,
#: unparsable key): every cell weighs the same, degrading LPT to FIFO.
DEFAULT_CELL_COST_S = 1.0


def parse_cell_key(key: str) -> tuple[str, str, int, int] | None:
    """``"SPR-DDR|RAJA_CUDA|block_64|trial1"`` -> (machine, variant,
    block, trial), or None when the key is not in canonical form."""
    parts = key.split("|")
    if len(parts) != 4:
        return None
    machine, variant, tuning, trial_part = parts
    if tuning == "default":
        block = 0
    elif tuning.startswith("block_"):
        try:
            block = int(tuning[len("block_"):])
        except ValueError:
            return None
    else:
        return None
    if not trial_part.startswith("trial"):
        return None
    try:
        trial = int(trial_part[len("trial"):])
    except ValueError:
        return None
    return machine, variant, block, trial


def load_measured_costs(manifest_path: str | Path) -> dict[str, float]:
    """Measured per-cell wall times from a prior campaign's manifest.

    Returns ``{cell key: elapsed seconds}`` for every cell whose entry
    carries ``elapsed_s``, including cells only an uncompacted ledger
    records; unreadable or old-format manifests yield an empty dict —
    the caller falls back to the analytic estimate.
    """
    out: dict[str, float] = {}
    for key, entry in manifest_cells(manifest_path).items():
        elapsed = entry.get("elapsed_s")
        if isinstance(elapsed, (int, float)) and elapsed > 0:
            out[str(key)] = float(elapsed)
    return out


class CellCostModel:
    """Deterministic cost estimates for one campaign's cells.

    ``measured`` maps exact cell keys to observed wall times (seconds)
    and wins over the analytic estimate; everything else is computed
    from ``params`` alone. ``plan`` is the campaign's model plan the
    model term is read from (and filled into); a private one when unset.
    """

    def __init__(
        self, params, measured: dict[str, float] | None = None, plan=None
    ) -> None:
        from repro.suite.executor import ModelPlan

        self.params = params
        self.measured = dict(measured or {})
        self.plan = plan if plan is not None else ModelPlan()
        #: (machine, variant, block) -> analytic cost (trial-independent)
        self._cache: dict[tuple[str, str, int], float] = {}

    @classmethod
    def for_params(cls, params, plan=None) -> "CellCostModel":
        """The model ``params`` asks for: analytic, plus the measured
        override from ``params.cost_from`` when set."""
        measured = None
        cost_from = getattr(params, "cost_from", None)
        if cost_from:
            measured = load_measured_costs(cost_from)
        return cls(params, measured=measured, plan=plan)

    # ----------------------------------------------------------- estimates
    def cost(self, machine: str, variant: str, block: int) -> float:
        """Analytic cost (seconds) of one (machine, variant, tuning) cell."""
        cache_key = (machine, variant, block)
        hit = self._cache.get(cache_key)
        if hit is not None:
            return hit
        try:
            value = self._estimate(machine, variant, block)
        except Exception:  # noqa: BLE001 - scheduling must never kill a run
            value = DEFAULT_CELL_COST_S
        self._cache[cache_key] = value
        return value

    def cost_of_key(self, key: str) -> float:
        """Cost of the cell ``key`` names; measured override wins."""
        hit = self.measured.get(key)
        if hit is not None:
            return hit
        parsed = parse_cell_key(key)
        if parsed is None:
            return DEFAULT_CELL_COST_S
        machine, variant, block, _trial = parsed
        return self.cost(machine, variant, block)

    def cost_of_task(self, task) -> float:
        """Cost of a :class:`~repro.suite.worker.CellTask`."""
        hit = self.measured.get(task.key)
        if hit is not None:
            return hit
        return self.cost(task.machine, task.variant, task.block)

    # ------------------------------------------------------------ internals
    def _estimate(self, machine_name: str, variant_name: str, block: int) -> float:
        from repro.machines.registry import get_machine
        from repro.rajasim.forall import partition_plan
        from repro.suite.registry import all_kernel_classes
        from repro.suite.variants import VariantKind, get_variant

        params = self.params
        machine = get_machine(machine_name)
        variant = get_variant(variant_name)
        kernels = [
            cls
            for cls in all_kernel_classes()
            if params.selects(cls)
            and any(v.name == variant.name for v in cls.class_variants())
        ]
        if not kernels:
            return DEFAULT_CELL_COST_S

        total = 0.0
        exec_size = params.execution_size if params.execute else 0
        policy = variant.policy()
        if variant.is_gpu and block:
            policy = policy.with_block_size(block)
        for cls in kernels:
            total += self.plan.entry(cls, params, machine, variant, block).total
            if exec_size:
                exec_kernel = cls(problem_size=exec_size)
                work = exec_kernel.work_profile()
                total += (work.bytes_total + work.flops) / HOST_BYTES_PER_S
                # RAJA/Kokkos variants dispatch one Python call per
                # partition of the policy's plan; Base variants are a
                # single vectorized call.
                if variant.kind in (VariantKind.RAJA, VariantKind.KOKKOS):
                    parts = len(
                        partition_plan(policy, int(exec_kernel.iterations()) or 1)
                    )
                else:
                    parts = 1
                total += parts * work.launches * DISPATCH_OVERHEAD_S
        return max(total, 1e-12)
