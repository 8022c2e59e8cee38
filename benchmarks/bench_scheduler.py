"""Cost-model-guided scheduling vs the seed FIFO dispatch, end to end.

The campaign is deliberately skewed the way a real portability sweep is:
many tiny cells (seq variants of a cheap kernel) plus one huge straggler
(``RAJA_CUDA`` at block 8 — ~25k simulated launches per rep). Under the
seed scheduler the straggler sits at the end of the sweep order, so a
``--workers 4`` campaign drains its tiny cells first and then holds the
whole pool open on one worker; LPT ordering starts the straggler first,
and batching collapses the tiny-cell dispatch overhead.

The probe kernel models its device time as *launch latency* (one
``time.sleep`` sized by the policy's launch count) rather than host
compute, so worker wall-clock overlaps on any core count and the bench
measures the scheduler, not the host CPU. Checksums still run on real
arrays — identical outputs across scheduler settings is asserted per
cell, and a model-only packed campaign must merge to byte-identical
archives under every knob combination.

Asserted: LPT + batching completes the skewed campaign >= 1.5x faster
than FIFO + single-cell dispatch at ``--workers 4``; gated in CI by ``benchmarks/baselines/scheduler.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

from conftest import save_artifact

from repro.caliper import calipack
from repro.machines.registry import get_machine
from repro.rajasim import forall, slice_capable
from repro.suite.checksum import checksum_array
from repro.suite.executor import SuiteExecutor, _Cell
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase
from repro.suite.refchecksums import SIDECAR_NAME
from repro.suite.registry import register_kernel
from repro.suite.run_params import RunParams
from repro.suite.supervisor import CampaignSupervisor
from repro.suite.trait_presets import STREAMING, derive
from repro.suite.variants import get_variant

#: sleep floor of every cell — the "kernel time" of a tiny cell.
BASE_SLEEP_S = 0.02
#: simulated per-launch latency; at block 8 over 200k iterations the
#: straggler pays ~25k launches -> ~0.8 s, ~T/3 of the tiny-cell work.
PER_LAUNCH_S = 32e-6

#: tiny-cell trial count (x2 seq variants); override for CI smoke runs.
TINY_TRIALS = int(os.environ.get("REPRO_SCHED_BENCH_TINY_TRIALS", "48"))
SIZE = 200_000
BLOCK = 8
KERNEL = "Basic_SCHED_PROBE"
WORKERS = 4
MIN_SPEEDUP = 1.5


@register_kernel
class SchedProbe(KernelBase):
    """DAXPY with its device time modeled as launch latency.

    ``run_raja`` sleeps ``launches * PER_LAUNCH_S`` after the (real,
    vectorized) array update: the cell's wall-clock is dominated by
    simulated launch latency, which overlaps across workers regardless
    of host core count — exactly the straggler shape the scheduler has
    to handle, minus the host-CPU contention that would serialize a
    compute-bound bench on a small runner.
    """

    NAME = "SCHED_PROBE"
    GROUP = Group.BASIC
    FEATURES = frozenset({Feature.FORALL})

    A = 1.5

    def setup(self) -> None:
        n = self.problem_size
        self.x = self.rng.random(n)
        self.y = self.rng.random(n)

    def bytes_read(self) -> float:
        return 16.0 * self.problem_size

    def bytes_written(self) -> float:
        return 8.0 * self.problem_size

    def flops(self) -> float:
        return 2.0 * self.problem_size

    def traits(self):
        return derive(STREAMING, streaming_eff=1.0, simd_eff=0.95)

    def run_base(self, policy) -> None:
        self.y += self.A * self.x
        time.sleep(BASE_SLEEP_S)

    def run_raja(self, policy) -> None:
        x, y, a = self.x, self.y, self.A

        @slice_capable(fuse=True)
        def body(i) -> None:
            y[i] += a * x[i]

        launches = forall(policy, self.problem_size, body)
        time.sleep(BASE_SLEEP_S + launches * PER_LAUNCH_S)

    def checksum(self) -> float:
        return checksum_array(self.y)


def _params(outdir: Path, **overrides) -> RunParams:
    defaults = dict(
        problem_size=SIZE,
        execute=True,
        kernels=(KERNEL,),
        machines=("SPR-DDR", "P9-V100"),
        variants=("Base_Seq", "RAJA_Seq", "RAJA_CUDA"),
        gpu_block_sizes=(BLOCK,),
        trials=TINY_TRIALS,
        workers=WORKERS,
        heartbeat_timeout=30.0,
        output_dir=str(outdir),
    )
    defaults.update(overrides)
    return RunParams(**defaults)


def _skewed_cells() -> list[_Cell]:
    """2 * TINY_TRIALS tiny seq cells, then one huge CUDA straggler —
    sweep order puts the straggler last, FIFO's worst case."""
    spr, p9 = get_machine("SPR-DDR"), get_machine("P9-V100")
    cells = []
    for trial in range(TINY_TRIALS):
        for vname in ("Base_Seq", "RAJA_Seq"):
            cells.append(
                _Cell(
                    spr, get_variant(vname), 0, trial,
                    f"rajaperf_SPR-DDR_{vname}_default_trial{trial}.cali",
                )
            )
    cells.append(
        _Cell(
            p9, get_variant("RAJA_CUDA"), BLOCK, 0,
            f"rajaperf_P9-V100_RAJA_CUDA_block_{BLOCK}_trial0.cali",
        )
    )
    return cells


def _run_campaign(outdir: Path, **overrides):
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    supervisor = CampaignSupervisor(_params(outdir, **overrides))
    start = time.perf_counter()
    result = supervisor.run(_skewed_cells(), write_files=True)
    return time.perf_counter() - start, result


def _cell_checksums(outdir: Path, result) -> dict:
    """Cell-keyed outcome summary + the campaign's reference checksums
    (actual Base_Seq checksum values, shared by every variant check)."""
    per_cell = {
        key: (
            result.report.cells[key],
            sorted(
                (rec.kernel, rec.status, rec.checksum_ok)
                for rec in result.report.records
                if rec.cell == key
            ),
        )
        for key in result.report.cells
    }
    refs = json.loads((outdir / SIDECAR_NAME).read_text())
    return {"cells": per_cell, "references": refs}


FIFO = dict(schedule="fifo", batch_cells=1)
LPT = dict(schedule="lpt", batch_cells="auto")


def bench_scheduler_skewed_campaign(benchmark, artifact_dir, tmp_path):
    """The acceptance bench: LPT+batch >= 1.5x FIFO at 4 workers."""
    walls = {"fifo": [], "lpt": []}
    checks: dict[str, dict] = {}
    # Interleaved best-of-2 so drift hits both configurations equally.
    for _ in range(2):
        for label, knobs in (("fifo", FIFO), ("lpt", LPT)):
            outdir = tmp_path / label
            wall, result = _run_campaign(outdir, **knobs)
            counts = result.report.cell_counts()
            assert counts == {"ok": 2 * TINY_TRIALS + 1}, counts
            walls[label].append(wall)
            checks[label] = _cell_checksums(outdir, result)

    # Identical work, identical outputs: every cell's kernel statuses,
    # checksum verdicts, and the campaign's reference checksum *values*
    # must not depend on scheduling.
    assert checks["fifo"] == checks["lpt"]

    fifo_s, lpt_s = min(walls["fifo"]), min(walls["lpt"])
    speedup = fifo_s / lpt_s
    cells = 2 * TINY_TRIALS + 1

    benchmark.extra_info["lpt_speedup"] = round(speedup, 2)
    benchmark.extra_info["lpt_cells_per_sec"] = round(cells / lpt_s, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    save_artifact(
        artifact_dir,
        "scheduler_speedup",
        f"cells:               {cells} ({cells - 1} tiny + 1 straggler)\n"
        f"workers:             {WORKERS}\n"
        f"fifo wall:           {fifo_s:.2f} s\n"
        f"lpt+batch wall:      {lpt_s:.2f} s\n"
        f"speedup:             {speedup:.2f}x",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"lpt+batch only {speedup:.2f}x faster than fifo "
        f"({lpt_s:.2f}s vs {fifo_s:.2f}s; need >= {MIN_SPEEDUP}x)"
    )


def bench_scheduler_archives_bit_identical(benchmark, tmp_path):
    """Scheduling must never leak into the bytes: a model-only packed
    campaign merges to the identical archive under every knob setting."""

    def run(label, knobs):
        outdir = tmp_path / f"pack_{label}"
        outdir.mkdir()
        params = _params(
            outdir, execute=False, trials=4, pack=True, **knobs
        )
        result = SuiteExecutor(params).run(write_files=True)
        assert result.report.clean
        return (outdir / calipack.ARCHIVE_NAME).read_bytes()

    baseline = benchmark.pedantic(
        lambda: run("fifo", FIFO), rounds=1, iterations=1
    )
    for label, knobs in (
        ("lpt", LPT),
        ("lpt_batch4", dict(schedule="lpt", batch_cells=4)),
    ):
        assert run(label, knobs) == baseline, (
            f"{label} archive differs from fifo archive"
        )
