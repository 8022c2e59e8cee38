"""The RAJAPerf-style kernel suite core.

Public surface: kernel identity enums (:class:`Group`, :class:`Feature`,
:class:`Complexity`), the :class:`Variant` model, :class:`KernelBase`, the
registry, run parameters (including the paper's Table III configuration),
and the :class:`SuiteExecutor` that turns a configured sweep into Caliper
profiles.
"""

from repro.suite.groups import Group
from repro.suite.features import Complexity, Feature
from repro.suite.variants import (
    VARIANTS,
    Variant,
    VariantKind,
    get_variant,
    variants_for_backends,
)
from repro.suite.checksum import CHECKSUM_RTOL, checksum_array, checksums_match
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import (
    all_kernel_classes,
    get_kernel_class,
    kernel_names,
    kernels_in_group,
    load_all_kernels,
    make_kernel,
    register_kernel,
    similarity_kernel_classes,
)
from repro.suite.run_params import (
    PAPER_PROBLEM_SIZE,
    TABLE3,
    MachineRunConfig,
    RunParams,
)
from repro.suite.errors import (
    CampaignLockedError,
    ChecksumMismatchError,
    KernelExecutionError,
    ProfileWriteError,
    RETRYABLE_ERRORS,
    RunTimeoutError,
    SuiteError,
    WorkerCrashError,
)
from repro.suite.retry import RetryPolicy
from repro.suite.report import KernelRunRecord, RunReport, cell_key
from repro.suite.manifest import LOCK_NAME, MANIFEST_NAME, CampaignLock, CampaignManifest
from repro.suite.executor import CellOutcome, RunResult, SuiteExecutor
from repro.suite.fsck import FsckReport, ProfileCheck, fsck_directory
from repro.suite.heartbeat import HeartbeatEmitter, HeartbeatMonitor
from repro.suite.costmodel import CellCostModel, load_measured_costs
from repro.suite.schedule import (
    SCHEDULE_FIFO,
    SCHEDULE_LPT,
    SCHEDULES,
    ReadyHeap,
    lpt_partition_keys,
    order_lpt,
    plan_batch,
)
from repro.suite.supervisor import CampaignSupervisor
from repro.suite.worker import CellBatch, CellTask
from repro.suite.summary import group_summary, suite_inventory

__all__ = [
    "Group",
    "Feature",
    "Complexity",
    "Variant",
    "VariantKind",
    "VARIANTS",
    "get_variant",
    "variants_for_backends",
    "checksum_array",
    "checksums_match",
    "CHECKSUM_RTOL",
    "KernelBase",
    "register_kernel",
    "kernel_names",
    "get_kernel_class",
    "make_kernel",
    "all_kernel_classes",
    "kernels_in_group",
    "load_all_kernels",
    "similarity_kernel_classes",
    "RunParams",
    "MachineRunConfig",
    "TABLE3",
    "PAPER_PROBLEM_SIZE",
    "RunResult",
    "SuiteExecutor",
    "suite_inventory",
    "group_summary",
    "SuiteError",
    "KernelExecutionError",
    "ChecksumMismatchError",
    "RunTimeoutError",
    "ProfileWriteError",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "RunReport",
    "KernelRunRecord",
    "cell_key",
    "CampaignManifest",
    "CampaignLock",
    "CampaignLockedError",
    "CampaignSupervisor",
    "CellOutcome",
    "CellTask",
    "FsckReport",
    "fsck_directory",
    "HeartbeatEmitter",
    "HeartbeatMonitor",
    "ProfileCheck",
    "LOCK_NAME",
    "MANIFEST_NAME",
    "WorkerCrashError",
    "CellCostModel",
    "load_measured_costs",
    "SCHEDULE_FIFO",
    "SCHEDULE_LPT",
    "SCHEDULES",
    "ReadyHeap",
    "order_lpt",
    "lpt_partition_keys",
    "plan_batch",
    "CellBatch",
]
