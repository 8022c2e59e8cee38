"""The campaign model plan: machine-model output evaluated once per shape.

Trials of one (machine, variant, tuning) cell differ only in the noise on
``Avg time/rank``, so :class:`~repro.suite.executor.ModelPlan` memoizes
every other model row per (kernel, cell shape) and the executor replays
it. These tests pin that the replay is exact (bit-for-bit rows, a frozen
archive hash across serial, supervised and sharded runs), that a failing
model is never memoized, and that the model runs shapes x kernels times
per campaign — in the supervisor, never in a worker.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.caliper.cali import serialize_cali
from repro.cpusim.counters import slot_counters
from repro.gpusim.ncu import ncu_counters
from repro.machines.model import MachineKind
from repro.machines.registry import list_machines
from repro.perfmodel.cpu_time import CpuTimeModel
from repro.suite import RunParams, SuiteExecutor
from repro.suite.executor import ModelPlan, _variant_compatible
from repro.suite.kernel_base import KernelBase
from repro.suite.registry import all_kernel_classes, load_all_kernels
from repro.suite.report import STATUS_OK, STATUS_RETRIED
from repro.suite.variants import VARIANTS

ALL_MACHINES = ("SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X")
SWEEP_VARIANTS = (
    "Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP",
    "Base_CUDA", "RAJA_CUDA", "Base_HIP", "RAJA_HIP",
)

#: sha256 of the packed archive of the golden campaign below, computed
#: from the executor as it was before the model plan existed. Every
#: execution path must keep producing exactly these bytes.
GOLDEN_ARCHIVE_SHA256 = (
    "8b77bb373e1b29c0af25a719a6a41e20ca4ce3b59609ce53eccc308cfbae1b9e"
)


def _hex_rows(rows) -> list[tuple[str, str]]:
    return [(name, float(value).hex()) for name, value in rows]


def _fresh_rows(cls, params, machine, variant, block):
    """The model rows computed from scratch, with no plan involved."""
    kernel = cls(problem_size=params.problem_size)
    work = kernel.work_profile(reps=params.reps)
    traits = kernel.effective_traits()
    breakdown = kernel.predict(machine, variant, block_size=block or None)
    total = breakdown.total_seconds * params.reps
    metrics = list(work.per_iteration().items())
    metrics += [("iterations", work.iterations), ("reps", float(params.reps))]
    if machine.kind is MachineKind.CPU:
        cpu = CpuTimeModel(machine).predict(work, traits)
        counters = slot_counters(cpu, machine, work.instructions)
    else:
        per_gpu = work.scaled(1.0 / machine.units_per_node)
        counters = ncu_counters(per_gpu, traits, machine, total * 1.03)
    return total, metrics, list(counters.items())


def test_plan_rows_equal_a_fresh_computation_bit_for_bit():
    load_all_kernels()
    params = RunParams(reps=3)
    plan = ModelPlan()
    checked = 0
    for machine in list_machines():
        for variant in VARIANTS.values():
            if not _variant_compatible(variant, machine):
                continue
            for block in (0, 128, 256):
                for cls in all_kernel_classes():
                    if variant not in cls.class_variants():
                        continue
                    entry = plan.entry(cls, params, machine, variant, block)
                    total, metrics, counters = _fresh_rows(
                        cls, params, machine, variant, block
                    )
                    assert entry.total.hex() == total.hex()
                    assert _hex_rows(entry.metrics) == _hex_rows(metrics)
                    if entry.per_gpu is None:
                        planned = list(entry.counters)
                    else:
                        # GPU counters take the trial's (noisy) total:
                        # replay them from the planned work and traits.
                        assert entry.counters == ()
                        planned = list(ncu_counters(
                            entry.per_gpu, entry.traits, machine, total * 1.03
                        ).items())
                    assert _hex_rows(planned) == _hex_rows(counters)
                    checked += 1
    assert len(plan) == checked > 3000


def _one_kernel_params(**overrides) -> RunParams:
    defaults = dict(
        problem_size=4096,
        machines=("SPR-DDR",),
        variants=("RAJA_Seq",),
        kernels=("Stream_TRIAD",),
        trials=2,
        max_attempts=3,
        retry_base_delay=0.0,
        retry_jitter=0.0,
    )
    defaults.update(overrides)
    return RunParams(**defaults)


def test_a_failing_model_is_not_memoized_and_the_retry_recovers(monkeypatch):
    clean = SuiteExecutor(_one_kernel_params()).run().profiles

    real_predict = KernelBase.predict
    calls = []

    def flaky_predict(self, *args, **kwargs):
        calls.append(type(self))
        if len(calls) == 1:
            raise RuntimeError("model blew up")
        return real_predict(self, *args, **kwargs)

    monkeypatch.setattr(KernelBase, "predict", flaky_predict)
    executor = SuiteExecutor(_one_kernel_params(), sleep_fn=lambda _s: None)
    result = executor.run()

    statuses = [r.status for r in result.report.records]
    assert statuses == [STATUS_RETRIED, STATUS_OK]  # trial 0 retried, trial 1 hit
    assert len(calls) == 2  # the failed attempt stored nothing
    assert [serialize_cali(p) for p in result.profiles] == [
        serialize_cali(p) for p in clean
    ]


def _spied_predict(monkeypatch, log_path=None):
    """Wrap ``KernelBase.predict``; count calls (and log caller pids)."""
    real_predict = KernelBase.predict
    calls = []

    def spy(self, *args, **kwargs):
        calls.append(type(self))
        if log_path is not None:
            with open(log_path, "a") as handle:
                handle.write(f"{os.getpid()}\n")
        return real_predict(self, *args, **kwargs)

    monkeypatch.setattr(KernelBase, "predict", spy)
    return calls


def _shapes_times_kernels(executor: SuiteExecutor) -> int:
    shapes = {(c.machine, c.variant, c.block) for c in executor.build_cells()}
    return sum(
        1
        for _machine, variant, _block in shapes
        for cls in executor.selected_kernels()
        if variant in cls.class_variants()
    )


def test_serial_campaign_evaluates_the_model_once_per_shape_not_per_trial(
    monkeypatch,
):
    calls = _spied_predict(monkeypatch)
    params = RunParams(
        problem_size=4096,
        machines=("SPR-DDR", "P9-V100"),
        variants=("Base_Seq", "RAJA_Seq", "RAJA_CUDA"),
        gpu_block_sizes=(128, 256),
        kernels=("Stream_TRIAD", "Basic_DAXPY", "Lcals_HYDRO_1D"),
        trials=3,
    )
    executor = SuiteExecutor(params)
    result = executor.run()
    assert result.report.clean
    expected = _shapes_times_kernels(executor)
    assert expected == 4 * 3  # 4 shapes x 3 kernels
    assert len(result.report.records) == expected * params.trials
    assert len(calls) == expected


def test_supervised_workers_evaluate_no_model(monkeypatch, tmp_path):
    log = tmp_path / "predict_pids.txt"
    _spied_predict(monkeypatch, log)
    params = RunParams(
        problem_size=4096,
        machines=("SPR-DDR", "P9-V100"),
        variants=("Base_Seq", "RAJA_CUDA"),
        gpu_block_sizes=(128,),
        kernels=("Stream_TRIAD", "Basic_DAXPY"),
        trials=3,
        pack=True,
        workers=2,
        heartbeat_timeout=10.0,
        output_dir=str(tmp_path / "campaign"),
    )
    executor = SuiteExecutor(params)
    result = executor.run(write_files=True)
    assert result.report.clean
    assert len(result.profiles) == 2 * params.trials
    pids = log.read_text().split()
    assert len(pids) == _shapes_times_kernels(executor)
    assert set(pids) == {str(os.getpid())}  # the supervisor, never a worker


# ---------------------------------------------------------- golden archive
def _golden_params(outdir, **overrides) -> RunParams:
    load_all_kernels()
    kernels = tuple(cls.class_full_name() for cls in all_kernel_classes())[::4]
    return RunParams(
        machines=ALL_MACHINES,
        variants=SWEEP_VARIANTS,
        gpu_block_sizes=(128,),
        trials=3,
        kernels=kernels,
        pack=True,
        output_dir=str(outdir),
        heartbeat_timeout=10.0,
        shard_lease_timeout=10.0,
        **overrides,
    )


@pytest.mark.parametrize(
    "mode", [{}, {"workers": 2}, {"shards": 2}], ids=["serial", "workers2", "shards2"]
)
def test_golden_campaign_archive_is_byte_identical(tmp_path, mode):
    result = SuiteExecutor(_golden_params(tmp_path, **mode)).run(write_files=True)
    assert result.report.clean
    digest = hashlib.sha256((tmp_path / "campaign.calipack").read_bytes())
    assert digest.hexdigest() == GOLDEN_ARCHIVE_SHA256
