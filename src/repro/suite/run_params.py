"""Run parameters, including the paper's Table III configuration.

``RunParams`` mirrors RAJAPerf's command-line surface: problem size (with
``32M``-style suffixes), repetitions, kernel/group/feature filters, variant
selection, and GPU block-size tunings. ``TABLE3`` records exactly the
per-machine configurations the paper ran.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from repro.machines.registry import MACHINES
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.util.units import parse_size


@dataclass(frozen=True)
class MachineRunConfig:
    """One row of Table III: how the suite is run on one machine."""

    machine: str
    variant: str
    mpi_ranks: int
    problem_size_per_node: int

    @property
    def problem_size_per_rank(self) -> int:
        return self.problem_size_per_node // self.mpi_ranks


#: Table III: 32M elements per node on every system.
PAPER_PROBLEM_SIZE = parse_size("32M")

TABLE3: dict[str, MachineRunConfig] = {
    "SPR-DDR": MachineRunConfig("SPR-DDR", "RAJA_Seq", 112, PAPER_PROBLEM_SIZE),
    "SPR-HBM": MachineRunConfig("SPR-HBM", "RAJA_Seq", 112, PAPER_PROBLEM_SIZE),
    "P9-V100": MachineRunConfig("P9-V100", "RAJA_CUDA", 4, PAPER_PROBLEM_SIZE),
    "EPYC-MI250X": MachineRunConfig("EPYC-MI250X", "RAJA_HIP", 8, PAPER_PROBLEM_SIZE),
}


@dataclass
class RunParams:
    """Suite-wide run configuration (RAJAPerf CLI equivalent)."""

    problem_size: int = PAPER_PROBLEM_SIZE
    reps: int = 1
    variants: tuple[str, ...] = ("Base_Seq", "RAJA_Seq")
    machines: tuple[str, ...] = tuple(MACHINES)
    groups: tuple[Group, ...] = ()
    kernels: tuple[str, ...] = ()
    features: tuple[Feature, ...] = ()
    gpu_block_sizes: tuple[int, ...] = (256,)
    execute: bool = False  # actually run the NumPy kernels (vs model-only)
    execution_size_cap: int = 200_000  # cap real execution sizes
    state_pool: bool = True  # reuse snapshot-restored kernel state across cells
    trials: int = 1  # repeated measurements (noise model applied when > 1)
    noise_sigma: float = 0.02  # run-to-run coefficient of variation
    write_csv: bool = False  # also emit RAJAPerf-style per-run CSV files
    pack: bool = False  # write profiles into a .calipack archive, not files
    output_dir: str = "."
    metadata: dict[str, object] = field(default_factory=dict)
    # --- fault tolerance (see docs/architecture.md) ---
    resume: bool = False  # skip cells the campaign manifest marks complete
    fail_fast: bool = False  # abort the sweep on the first error (old behavior)
    max_attempts: int = 3  # attempts per kernel (and per profile write)
    retry_base_delay: float = 0.05  # first backoff wait, seconds
    retry_max_delay: float = 2.0  # backoff cap, seconds
    retry_jitter: float = 0.5  # jitter fraction of each backoff wait
    retry_seed: int = 20240  # seeds the deterministic jitter stream
    kernel_deadline_s: float | None = None  # per-kernel watchdog deadline
    # --- supervised multi-process execution (see supervisor.py) ---
    workers: int = 1  # >1 fans cells out to a supervised worker pool
    heartbeat_timeout: float = 30.0  # seconds without a worker heartbeat = stale
    # --- sharded scale-out execution (see coordinator.py) ---
    shards: int = 0  # >0 partitions cells across shard supervisors
    shard_lease_timeout: float = 30.0  # seconds without a shard beat = stale
    # --- cost-model scheduling (see costmodel.py / schedule.py) ---
    schedule: str = "lpt"  # "lpt" orders/packs by estimated cost; "fifo" = seed order
    batch_cells: str | int = "auto"  # cells per dispatch message ("auto" or >= 1)
    #: ignored; accepted so callers that still pass ``shm=`` keep working
    #: (results always cross the worker queue)
    shm: InitVar[bool] = True
    cost_from: str | None = None  # manifest path supplying measured cell costs

    def __post_init__(self, shm: bool) -> None:
        self.problem_size = parse_size(self.problem_size)
        if self.reps <= 0:
            raise ValueError(f"reps must be > 0, got {self.reps}")
        unknown = [m for m in self.machines if m not in MACHINES]
        if unknown:
            raise ValueError(f"unknown machines {unknown}; have {list(MACHINES)}")
        bad_blocks = [b for b in self.gpu_block_sizes if b <= 0 or b & (b - 1)]
        if bad_blocks:
            raise ValueError(f"GPU block sizes must be powers of two: {bad_blocks}")
        if self.trials <= 0:
            raise ValueError(f"trials must be > 0, got {self.trials}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.retry_base_delay < 0 or self.retry_max_delay < 0:
            raise ValueError("retry delays must be >= 0")
        if self.retry_jitter < 0:
            raise ValueError(f"retry_jitter must be >= 0, got {self.retry_jitter}")
        if self.kernel_deadline_s is not None and self.kernel_deadline_s <= 0:
            raise ValueError(
                f"kernel_deadline_s must be > 0, got {self.kernel_deadline_s}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {self.heartbeat_timeout}"
            )
        if self.fail_fast and self.workers > 1:
            raise ValueError(
                "fail_fast is incompatible with workers > 1: a supervised "
                "pool isolates failures by design"
            )
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards}")
        if self.shard_lease_timeout <= 0:
            raise ValueError(
                f"shard_lease_timeout must be > 0, got {self.shard_lease_timeout}"
            )
        if self.shards > 0 and not self.pack:
            raise ValueError(
                "sharded campaigns require pack=True: the shard merge "
                "combines per-shard .calipack archives"
            )
        if self.fail_fast and self.shards > 0:
            raise ValueError(
                "fail_fast is incompatible with shards > 0: a sharded "
                "campaign isolates failures by design"
            )
        from repro.suite.schedule import SCHEDULES

        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"schedule must be one of {list(SCHEDULES)}, got {self.schedule!r}"
            )
        if self.batch_cells != "auto":
            try:
                self.batch_cells = int(self.batch_cells)
            except (TypeError, ValueError):
                raise ValueError(
                    f"batch_cells must be 'auto' or an integer >= 1, "
                    f"got {self.batch_cells!r}"
                ) from None
            if self.batch_cells < 1:
                raise ValueError(
                    f"batch_cells must be >= 1, got {self.batch_cells}"
                )

    def retry_policy(self):
        """The executor's :class:`~repro.suite.retry.RetryPolicy`."""
        from repro.suite.retry import RetryPolicy

        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_delay=self.retry_base_delay,
            max_delay=self.retry_max_delay,
            jitter=self.retry_jitter,
            seed=self.retry_seed,
        )

    def fingerprint(self) -> dict[str, object]:
        """Configuration identity recorded in the campaign manifest.

        Scheduling knobs (schedule/batch_cells/cost_from), like the
        worker and shard counts, stay out: they change *how* the same
        cell set runs, never what it produces, so a resumed campaign or
        an adopted shard map must survive changing them.
        """
        return {
            "problem_size": self.problem_size,
            "reps": self.reps,
            "variants": list(self.variants),
            "machines": list(self.machines),
            "groups": [g.value for g in self.groups],
            "kernels": list(self.kernels),
            "features": [f.value for f in self.features],
            "gpu_block_sizes": list(self.gpu_block_sizes),
            "execute": self.execute,
            "trials": self.trials,
        }

    def selects(self, kernel_cls: type) -> bool:
        """Whether the filter settings select ``kernel_cls``."""
        if self.groups and kernel_cls.GROUP not in self.groups:
            return False
        if self.kernels:
            names = {k.lower() for k in self.kernels}
            if (
                kernel_cls.class_full_name().lower() not in names
                and kernel_cls.NAME.lower() not in names
            ):
                return False
        if self.features and not (set(self.features) & set(kernel_cls.FEATURES)):
            return False
        return True

    @property
    def execution_size(self) -> int:
        """Problem size for real NumPy execution (capped for wall-clock)."""
        return min(self.problem_size, self.execution_size_cap)
