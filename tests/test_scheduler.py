"""Cost-model-guided campaign scheduling: LPT and batching.

The scheduler may change *when* cells run, never *what* they produce:
the supervised determinism tests assert identical manifests (modulo the
measured wall times) and byte-identical packed archives across every
combination of ``--schedule`` and ``--batch-cells``. The unit layers —
cost model, ready heap, batch planner — are pure functions of their
inputs and are tested as such.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.suite import MANIFEST_NAME, RunParams, SuiteExecutor
from repro.suite.costmodel import (
    DEFAULT_CELL_COST_S,
    CellCostModel,
    load_measured_costs,
    parse_cell_key,
)
from repro.suite.schedule import (
    AUTO_BATCH_CAP,
    ReadyHeap,
    lpt_partition_keys,
    order_lpt,
    plan_batch,
    resolve_batch_cap,
)
from repro.suite.supervisor import CampaignSupervisor
from repro.suite.worker import CellTask


# ------------------------------------------------------------- cell keys
def test_parse_cell_key_roundtrips_canonical_forms():
    assert parse_cell_key("SPR-DDR|Base_Seq|default|trial0") == (
        "SPR-DDR", "Base_Seq", 0, 0
    )
    assert parse_cell_key("P9-V100|RAJA_CUDA|block_64|trial3") == (
        "P9-V100", "RAJA_CUDA", 64, 3
    )


@pytest.mark.parametrize(
    "junk",
    [
        "",
        "only|three|parts",
        "m|v|block_x|trial0",
        "m|v|weird|trial0",
        "m|v|default|run0",
        "m|v|default|trialx",
        "m|v|default|trial0|extra",
    ],
)
def test_parse_cell_key_rejects_junk(junk):
    assert parse_cell_key(junk) is None


# ------------------------------------------------------------ cost model
def _model_params(**overrides) -> RunParams:
    defaults = dict(
        problem_size=100_000,
        execute=True,
        machines=("SPR-DDR", "P9-V100"),
        variants=("Base_Seq", "RAJA_Seq", "RAJA_CUDA"),
        kernels=("Basic_DAXPY",),
        gpu_block_sizes=(64, 256),
        trials=1,
    )
    defaults.update(overrides)
    return RunParams(**defaults)


def test_cost_model_ranks_chunked_dispatch_above_vectorized():
    """The scheduling-critical property: a GPU cell at a small block
    size (one simulated dispatch per block) costs more than the same
    cell at a large block, which costs more than a seq cell."""
    model = CellCostModel.for_params(_model_params())
    cuda_64 = model.cost("P9-V100", "RAJA_CUDA", 64)
    cuda_256 = model.cost("P9-V100", "RAJA_CUDA", 256)
    seq = model.cost("SPR-DDR", "Base_Seq", 0)
    assert cuda_64 > cuda_256 > seq > 0.0


def test_cost_model_is_deterministic_and_trial_independent():
    a = CellCostModel.for_params(_model_params())
    b = CellCostModel.for_params(_model_params())
    key0 = "SPR-DDR|Base_Seq|default|trial0"
    key7 = "SPR-DDR|Base_Seq|default|trial7"
    assert a.cost_of_key(key0) == b.cost_of_key(key0) == a.cost_of_key(key7)


def test_cost_model_falls_back_to_default_on_unknowns():
    model = CellCostModel.for_params(_model_params())
    assert model.cost("NO-SUCH-MACHINE", "Base_Seq", 0) == DEFAULT_CELL_COST_S
    assert model.cost_of_key("not a cell key") == DEFAULT_CELL_COST_S


def test_measured_costs_override_analytics(tmp_path):
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text(
        json.dumps(
            {
                "cells": {
                    "SPR-DDR|Base_Seq|default|trial0": {
                        "status": "ok", "elapsed_s": 42.0,
                    },
                    "SPR-DDR|RAJA_Seq|default|trial0": {"status": "ok"},
                    "SPR-DDR|Base_Seq|default|trial1": {
                        "status": "failed", "elapsed_s": -1.0,
                    },
                }
            }
        )
    )
    measured = load_measured_costs(manifest)
    # only positive elapsed_s entries count
    assert measured == {"SPR-DDR|Base_Seq|default|trial0": 42.0}

    model = CellCostModel.for_params(
        _model_params(cost_from=str(manifest))
    )
    assert model.cost_of_key("SPR-DDR|Base_Seq|default|trial0") == 42.0
    # unmeasured cells still use the analytic estimate
    assert model.cost_of_key("SPR-DDR|Base_Seq|default|trial1") < 1.0

    task = CellTask(
        machine="SPR-DDR", variant="Base_Seq", block=0, trial=0, fname="x.cali"
    )
    assert model.cost_of_task(task) == 42.0


def test_load_measured_costs_tolerates_garbage(tmp_path):
    assert load_measured_costs(tmp_path / "missing.json") == {}
    bad = tmp_path / "torn.json"
    bad.write_text("{ torn")
    assert load_measured_costs(bad) == {}


# ------------------------------------------------------------- LPT order
def test_order_lpt_is_longest_first_and_stable():
    items = ["a", "b", "c", "d"]
    costs = {"a": 1.0, "b": 5.0, "c": 1.0, "d": 5.0}
    assert order_lpt(items, costs.__getitem__) == ["b", "d", "a", "c"]


def test_lpt_partition_balances_a_skewed_campaign():
    keys = [f"cell{i}" for i in range(12)]
    costs = {k: 1.0 for k in keys}
    costs["cell11"] = 9.0  # the straggler, last in sweep order
    bins = lpt_partition_keys(keys, 3, costs.__getitem__)

    loads = [sum(costs[k] for k in bucket) for bucket in bins]
    # round-robin by count would deal 4 keys per bin: the straggler's
    # bin would weigh 12.0. LPT isolates the straggler (the makespan
    # floor) and deals the rest evenly across the other bins.
    assert max(loads) == 9.0
    assert [k for bucket in bins for k in bucket if costs[k] == 9.0] == ["cell11"]
    light = sorted(load for load in loads if load < 9.0)
    assert light[-1] - light[0] <= 1.0
    # every key lands exactly once, and bins keep sweep order internally
    assert sorted(k for bucket in bins for k in bucket) == sorted(keys)
    rank = {k: i for i, k in enumerate(keys)}
    for bucket in bins:
        assert [rank[k] for k in bucket] == sorted(rank[k] for k in bucket)
    # deterministic
    assert bins == lpt_partition_keys(keys, 3, costs.__getitem__)


def test_lpt_partition_rejects_zero_shards():
    with pytest.raises(ValueError):
        lpt_partition_keys(["a"], 0, lambda _k: 1.0)


# ------------------------------------------------------------ ready heap
def _task(n: int, attempt: int = 1) -> CellTask:
    return CellTask(
        machine="SPR-DDR", variant="Base_Seq", block=0, trial=n,
        fname=f"t{n}.cali", attempt=attempt,
    )


def test_ready_heap_is_fifo_among_ready_tasks():
    heap = ReadyHeap()
    tasks = [_task(n) for n in range(5)]
    for task in tasks:
        heap.push(task)
    popped = []
    while heap.peek_ready(now=0.0) is not None:
        popped.append(heap.pop())
    assert popped == tasks  # exactly the seed deque's FIFO order


def test_ready_heap_backoff_ordering_is_preserved():
    """Satellite: a retried task surfaces only once its backoff elapses,
    and never jumps ahead of tasks that were already ready."""
    heap = ReadyHeap()
    retry = _task(99, attempt=2)
    heap.push(retry, ready_time=10.0)
    first, second = _task(0), _task(1)
    heap.push(first)
    heap.push(second)

    # before the backoff expires: FIFO over the ready tasks only
    assert heap.peek_ready(now=5.0) is first
    assert heap.pop() is first
    assert heap.pop() is second
    # the retry is pending but not ready; the heap reports when it will be
    assert heap.peek_ready(now=5.0) is None
    assert len(heap) == 1 and bool(heap)
    assert heap.next_ready_at() == 10.0
    # once its ready time passes it dispatches
    assert heap.peek_ready(now=10.0) is retry
    assert heap.pop() is retry
    assert not heap


def test_ready_heap_drain_empties_in_heap_order():
    heap = ReadyHeap()
    late, early = _task(0), _task(1)
    heap.push(late, ready_time=7.0)
    heap.push(early, ready_time=1.0)
    assert heap.drain() == [early, late]
    assert len(heap) == 0


# ---------------------------------------------------------- batch planner
def test_plan_batch_groups_small_cells_up_to_cap():
    heap = ReadyHeap()
    for n in range(40):
        heap.push(_task(n))
    batch = plan_batch(
        heap, now=0.0, cost_of=lambda _t: 0.001, remaining_cost=0.04,
        workers=1, cap=AUTO_BATCH_CAP,
    )
    assert len(batch) == AUTO_BATCH_CAP
    assert [t.trial for t in batch] == list(range(AUTO_BATCH_CAP))


def test_plan_batch_shrinks_toward_single_cells_at_the_tail():
    heap = ReadyHeap()
    for n in range(4):
        heap.push(_task(n))
    # remaining cost is small: the share per worker cannot fit a second
    # cell, so the tail load-balances cell by cell.
    batch = plan_batch(
        heap, now=0.0, cost_of=lambda _t: 1.0, remaining_cost=4.0,
        workers=4, cap=AUTO_BATCH_CAP,
    )
    assert len(batch) == 1


def test_plan_batch_dispatches_expensive_cells_solo():
    heap = ReadyHeap()
    heap.push(_task(0))  # the straggler
    for n in range(1, 9):
        heap.push(_task(n))
    costs = {0: 10.0}
    batch = plan_batch(
        heap, now=0.0, cost_of=lambda t: costs.get(t.trial, 0.001),
        remaining_cost=10.01, workers=2, cap=AUTO_BATCH_CAP,
    )
    assert [t.trial for t in batch] == [0]


def test_plan_batch_never_batches_retried_tasks():
    heap = ReadyHeap()
    heap.push(_task(0, attempt=2))
    heap.push(_task(1))
    heap.push(_task(2, attempt=2))
    cheap = lambda _t: 1e-6  # noqa: E731
    # a retried task rides solo ...
    assert [t.trial for t in plan_batch(heap, 0.0, cheap, 1.0, 1, 8)] == [0]
    # ... and a fresh batch never absorbs a queued retry behind it
    assert [t.trial for t in plan_batch(heap, 0.0, cheap, 1.0, 1, 8)] == [1]
    assert [t.trial for t in plan_batch(heap, 0.0, cheap, 1.0, 1, 8)] == [2]


def test_plan_batch_respects_backoff_and_progress_guarantee():
    heap = ReadyHeap()
    heap.push(_task(0), ready_time=5.0)
    assert plan_batch(heap, 0.0, lambda _t: 1.0, 1.0, 1, 8) == []
    # the first ready task always dispatches, whatever its cost share
    assert [t.trial for t in plan_batch(heap, 6.0, lambda _t: 1.0, 0.0, 1, 8)] == [0]


def test_resolve_batch_cap():
    assert resolve_batch_cap("auto") == AUTO_BATCH_CAP
    assert resolve_batch_cap(1) == 1
    assert resolve_batch_cap("3") == 3
    assert resolve_batch_cap(0) == 1  # floor, never zero


def test_run_params_validate_scheduling_knobs():
    with pytest.raises(ValueError, match="schedule"):
        RunParams(schedule="random")
    with pytest.raises(ValueError, match="batch_cells"):
        RunParams(batch_cells="many")
    with pytest.raises(ValueError, match="batch_cells"):
        RunParams(batch_cells=0)
    # scheduling knobs never change the campaign identity: resume and
    # shard-map adoption survive knob changes
    base = RunParams().fingerprint()
    assert RunParams(
        schedule="fifo", batch_cells=4, cost_from="x.json"
    ).fingerprint() == base


def test_run_params_accept_and_ignore_shm():
    """``shm=`` is an ignored init-only argument: callers that still pass
    it keep working, and ``dataclasses.replace`` copies round-trip."""
    params = RunParams(shm=False, workers=2)
    assert "shm" not in {f.name for f in dataclasses.fields(params)}
    assert params == RunParams(workers=2)
    assert dataclasses.replace(params, workers=1) == RunParams(workers=1)


# -------------------------------------------- supervised loop + determinism
def _campaign_params(tmp_path, **overrides) -> RunParams:
    defaults = dict(
        problem_size=1024,
        machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY", "Stream_TRIAD"),
        trials=2,
        pack=True,
        output_dir=str(tmp_path),
        workers=2,
        heartbeat_timeout=10.0,
        max_attempts=3,
        retry_base_delay=0.01,
        retry_jitter=0.0,
    )
    defaults.update(overrides)
    return RunParams(**defaults)


def _manifest_modulo_elapsed(outdir):
    """Manifest cells with the measured wall times masked out and the
    recorded file paths made directory-relative."""
    cells = json.loads((outdir / MANIFEST_NAME).read_text())["cells"]
    out = {}
    for key, entry in cells.items():
        entry = dict(entry)
        assert entry.pop("elapsed_s", 0.0) > 0.0  # recorded for --cost-from
        if entry.get("file"):
            entry["file"] = entry["file"].replace(str(outdir), "<outdir>")
        out[key] = entry
    return out


SCHEDULER_SETTINGS = [
    ("lpt_auto", dict(schedule="lpt", batch_cells="auto")),
    ("lpt_batch3", dict(schedule="lpt", batch_cells=3)),
    ("fifo_solo", dict(schedule="fifo", batch_cells=1)),
    ("fifo_auto", dict(schedule="fifo", batch_cells="auto")),
]


def test_scheduler_knobs_never_change_campaign_outputs(tmp_path):
    """Satellite: bit-identical merged archives and identical manifests
    (modulo measured wall times) across schedule/batching settings."""
    archives = {}
    manifests = {}
    for label, knobs in SCHEDULER_SETTINGS:
        outdir = tmp_path / label
        result = SuiteExecutor(
            _campaign_params(outdir, **knobs)
        ).run(write_files=True)
        assert result.report.clean
        archives[label] = (outdir / "campaign.calipack").read_bytes()
        manifests[label] = _manifest_modulo_elapsed(outdir)
    baseline_archive = archives["fifo_solo"]  # the seed path
    baseline_manifest = manifests["fifo_solo"]
    for label, _ in SCHEDULER_SETTINGS:
        assert archives[label] == baseline_archive, label
        assert manifests[label] == baseline_manifest, label


def test_scheduler_knobs_survive_resume_fingerprint(tmp_path):
    """A campaign started under one scheduler setting resumes under
    another: the knobs are excluded from the campaign fingerprint."""
    first = SuiteExecutor(
        _campaign_params(tmp_path, schedule="fifo", batch_cells=1)
    ).run(write_files=True)
    assert first.report.clean
    again = SuiteExecutor(
        _campaign_params(
            tmp_path, resume=True, schedule="lpt", batch_cells="auto"
        )
    ).run(write_files=True)
    assert again.report.cell_counts() == {"skipped": 4}


def _slow_run_cell(self, cell, write_files=False):
    time.sleep(1.0)
    return _ORIGINAL_RUN_CELL(self, cell, write_files)


_ORIGINAL_RUN_CELL = SuiteExecutor.run_cell


def test_supervisor_loop_wakes_per_event_not_per_poll(tmp_path, monkeypatch):
    """Satellite: with two 1s cells on two workers the supervisor loop
    iterates O(results) times. The seed loop woke every 50ms — >= 20
    iterations for the same campaign."""
    monkeypatch.setattr(SuiteExecutor, "run_cell", _slow_run_cell)
    params = _campaign_params(
        tmp_path, trials=1, kernels=("Basic_DAXPY",), pack=False
    )
    executor = SuiteExecutor(params)
    supervisor = CampaignSupervisor(params)
    start = time.monotonic()
    result = supervisor.run(executor.build_cells(), write_files=True)
    elapsed = time.monotonic() - start
    assert result.report.cell_counts() == {"ok": 2}
    assert elapsed >= 1.0  # the cells really did sleep
    assert supervisor.results_handled == 2
    assert supervisor.loop_iterations <= 10, (
        f"supervisor loop polled {supervisor.loop_iterations} times for "
        f"2 results over {elapsed:.2f}s — not event-driven"
    )


def test_supervised_campaign_records_elapsed_for_cost_from(tmp_path):
    """The measured wall times a campaign records feed the next one's
    --cost-from override."""
    first_dir = tmp_path / "first"
    result = SuiteExecutor(_campaign_params(first_dir)).run(write_files=True)
    assert result.report.clean
    measured = load_measured_costs(first_dir / MANIFEST_NAME)
    assert set(measured) == set(result.report.cells)
    assert all(v > 0.0 for v in measured.values())

    second_dir = tmp_path / "second"
    params = _campaign_params(
        second_dir, cost_from=str(first_dir / MANIFEST_NAME)
    )
    model = CellCostModel.for_params(params)
    for key, elapsed in measured.items():
        assert model.cost_of_key(key) == elapsed
    result = SuiteExecutor(params).run(write_files=True)
    assert result.report.clean
    assert (second_dir / "campaign.calipack").read_bytes() == (
        first_dir / "campaign.calipack"
    ).read_bytes()


def test_worker_crash_mid_batch_requeues_only_unstarted_cells(tmp_path):
    """Satellite (chaos spot-check): killing a worker mid-batch charges
    an attempt only to the in-progress cell; cells queued behind it in
    the batch requeue verbatim and the campaign completes clean."""
    from repro.faults import Fault, FaultPlan

    params = _campaign_params(
        tmp_path,
        trials=4,
        kernels=("Basic_DAXPY",),
        pack=False,
        batch_cells=8,
        schedule="fifo",  # deterministic dispatch order
    )
    plan = FaultPlan(
        [
            Fault(
                site="worker.pre-cell",
                variant="RAJA_Seq",
                trial=1,
                attempt=1,
            )
        ]
    )
    with plan:
        result = SuiteExecutor(params).run(write_files=True)
    assert result.report.cell_counts() == {"ok": 8}
    assert result.report.clean
    crash = [r for r in result.report.records if r.kernel == "<worker crash>"]
    # exactly one cell was charged the crash; its batchmates were not
    assert len(crash) == 1
    assert crash[0].status == "retried"
    assert crash[0].cell == "SPR-DDR|RAJA_Seq|default|trial1"
    retried = [
        r for r in result.report.records
        if r.attempts > 1 and r.kernel != "<worker crash>"
    ]
    assert {r.cell for r in retried} <= {"SPR-DDR|RAJA_Seq|default|trial1"}


def test_interrupted_batched_campaign_resumes_only_missing_cells(tmp_path):
    """Chaos spot-check, supervisor flavor: a campaign killed after its
    first recorded result resumes with only the unfinished cells rerun."""
    import signal

    params = _campaign_params(
        tmp_path, trials=4, kernels=("Basic_DAXPY",), pack=False
    )
    executor = SuiteExecutor(params)
    fired = []

    def interrupt_once(key):
        if not fired:
            fired.append(key)
            signal.raise_signal(signal.SIGINT)

    supervisor = CampaignSupervisor(params, on_cell_complete=interrupt_once)
    result = supervisor.run(executor.build_cells(), write_files=True)
    assert result.report.interrupted
    completed = set(result.report.cells)
    assert completed and len(completed) < 8

    resumed = SuiteExecutor(
        dataclasses.replace(params, resume=True)
    ).run(write_files=True)
    counts = resumed.report.cell_counts()
    assert counts["skipped"] == len(completed)
    assert counts["ok"] == 8 - len(completed)
    cells = json.loads((tmp_path / MANIFEST_NAME).read_text())["cells"]
    assert len(cells) == 8
    assert all(entry["status"] == "ok" for entry in cells.values())
