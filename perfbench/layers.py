"""Which public calls the traced run wraps, and the per-layer metrics.

Each :class:`~spans.WrapPoint` names the attribute a caller
looks the function up by: a class attribute for methods, or the module
global of the *calling* module when it imported the function by name
(``repro.suite.executor.slot_counters``, not ``repro.cpusim``'s).

Spans whose name starts with ``op.`` mark the benchmark's own
operations (one campaign, query or job); ``container`` spans wrap a
whole campaign inside the program. Neither is a layer: they do not
count toward attributed time.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from collections.abc import Sequence

from spans import Span, TraceData, WrapPoint, covered_within, outermost, self_times


def _len_result(tracer, result, args, kwargs) -> None:
    tracer.count("caliper.serialize.bytes", len(result))


def _append_bytes(tracer, result, args, kwargs) -> None:
    if tracer.inside("calipack.merge"):
        return
    data = args[2] if len(args) > 2 else kwargs["data"]
    tracer.count("calipack.append.bytes", len(data))


def _file_bytes(counter: str):
    def hook(tracer, result, args, kwargs) -> None:
        try:
            tracer.count(counter, os.path.getsize(result))
        except (OSError, TypeError):
            pass

    return hook


def _pool_stats(tracer, result, args, kwargs) -> None:
    pool = args[0]
    tracer.set_latest("state_pool", id(pool), pool.stats())


def _supervisor_loop(tracer, result, args, kwargs) -> None:
    supervisor = args[0]
    tracer.count("supervisor.loop_iterations", supervisor.loop_iterations)
    tracer.count("supervisor.results_handled", supervisor.results_handled)


def _pushdown(tracer, result, args, kwargs) -> None:
    units = args[0]
    tracer.count("pushdown.entries", len(units))
    if result is not None:
        tracer.count("pushdown.skipped", len(units) - len(result[0]))


def _cache_load(tracer, result, args, kwargs) -> None:
    tracer.count("ingest_cache.hits" if result is not None else "ingest_cache.misses")


def _job_state(tracer, result, args, kwargs) -> None:
    record = args[1]
    tracer.event(record.state, record.job_id)


def _cell_tag(args, kwargs) -> str:
    return args[1].key


WRAP_POINTS: tuple[WrapPoint, ...] = (
    # campaign containers (not layers)
    WrapPoint("repro.suite.executor:SuiteExecutor", "run", "container.campaign",
              flush_after=True),
    WrapPoint("repro.suite.supervisor:CampaignSupervisor", "run",
              "container.supervisor", on_call=_supervisor_loop),
    WrapPoint("repro.suite.supervisor", "worker_main", "container.worker",
              flush_after=True),
    # suite
    WrapPoint("repro.suite.executor:SuiteExecutor", "run_cell", "suite.run_cell",
              tag_fn=_cell_tag),
    WrapPoint("repro.suite.manifest:CampaignManifest", "save", "suite.manifest.save",
              on_call=_file_bytes("suite.manifest.save.bytes")),
    # kernels (registry import on first use) + state pool
    WrapPoint("repro.suite.registry", "load_all_kernels", "kernels.load"),
    WrapPoint("repro.suite.state_pool:KernelStatePool", "acquire", "kernels.setup",
              on_call=_pool_stats),
    WrapPoint("repro.suite.kernel_base:KernelBase", "ensure_setup", "kernels.setup"),
    # rajasim
    WrapPoint("repro.suite.kernel_base:KernelBase", "run_variant_prepared",
              "rajasim.run_variant"),
    # perfmodel, cpusim, gpusim
    WrapPoint("repro.suite.kernel_base:KernelBase", "predict", "perfmodel.predict"),
    WrapPoint("repro.perfmodel.cpu_time:CpuTimeModel", "predict", "perfmodel.predict"),
    WrapPoint("repro.perfmodel.gpu_time:GpuTimeModel", "predict", "perfmodel.predict"),
    WrapPoint("repro.suite.executor", "slot_counters", "cpusim.slot_counters"),
    WrapPoint("repro.suite.executor", "ncu_counters", "gpusim.ncu_counters"),
    # caliper
    WrapPoint("repro.caliper.cali", "serialize_cali", "caliper.serialize",
              on_call=_len_result),
    WrapPoint("repro.caliper.calipack", "serialize_cali", "caliper.serialize",
              on_call=_len_result),
    WrapPoint("repro.caliper.cali", "parse_cali_payload", "caliper.parse"),
    WrapPoint("repro.thicket.ingest", "parse_cali_payload", "caliper.parse"),
    # calipack
    WrapPoint("repro.caliper.calipack:CalipackWriter", "append_bytes",
              "calipack.append", on_call=_append_bytes),
    WrapPoint("repro.caliper.calipack:CalipackWriter", "close", "calipack.close"),
    WrapPoint("repro.caliper.calipack", "merge_segments", "calipack.merge"),
    WrapPoint("repro.caliper.calipack", "canonicalize_archive", "calipack.merge"),
    WrapPoint("repro.caliper.calipack", "load_index", "calipack.load_index"),
    # thicket + ingest cache
    WrapPoint("repro.thicket.ingest", "compose_units", "thicket.compose"),
    WrapPoint("repro.thicket.ingest", "index_pushdown", "thicket.pushdown",
              on_call=_pushdown),
    WrapPoint("repro.thicket.thicket:Thicket", "metric_matrix", "thicket.metric_matrix"),
    WrapPoint("repro.thicket.ingest_cache", "load", "ingest_cache.load",
              on_call=_cache_load),
    WrapPoint("repro.thicket.ingest_cache", "store", "ingest_cache.store",
              on_call=_file_bytes("ingest_cache.store.bytes")),
    # dataframe
    WrapPoint("repro.dataframe.lazy", "optimize", "dataframe.plan.optimize"),
    WrapPoint("repro.dataframe.lazy", "execute", "dataframe.plan.execute"),
    # service
    WrapPoint("repro.service.admission", "evaluate", "service.admission"),
    WrapPoint("repro.service.jobstore:JobStore", "save", "service.jobstore.save",
              on_call=_job_state),
    WrapPoint("repro.service.scheduler:JobScheduler", "tick", "service.scheduler.tick"),
    WrapPoint("repro.service.api:ServiceAPI", "result", "service.result"),
)

#: layer span names, in report order
LAYERS = (
    "kernels.load", "kernels.setup", "rajasim.run_variant", "perfmodel.predict",
    "cpusim.slot_counters", "gpusim.ncu_counters", "caliper.serialize",
    "caliper.parse", "calipack.append", "calipack.close", "calipack.merge",
    "calipack.load_index", "suite.manifest.save", "suite.run_cell",
    "thicket.compose", "thicket.pushdown", "thicket.metric_matrix",
    "ingest_cache.load", "ingest_cache.store", "dataframe.plan.optimize",
    "dataframe.plan.execute", "service.admission", "service.jobstore.save",
    "service.scheduler.tick", "service.result",
)

#: layers whose busy time the traced run reports
_BUSY = tuple(layer for layer in LAYERS if layer not in (
    "caliper.parse", "thicket.pushdown", "service.result",
))
_CALLS = (
    "kernels.setup", "rajasim.run_variant", "perfmodel.predict",
    "caliper.serialize", "caliper.parse", "calipack.append",
    "suite.manifest.save", "suite.run_cell", "thicket.compose",
    "service.jobstore.save", "service.scheduler.tick",
)
_BYTES = (
    "caliper.serialize.bytes", "calipack.append.bytes",
    "suite.manifest.save.bytes", "ingest_cache.store.bytes",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit (the BENCHMARK.json list)."""
    units: dict[str, str] = {}
    for layer in _BUSY:
        units[f"{layer}.busy_s"] = "s"
    for layer in _CALLS:
        units[f"{layer}.calls"] = "count"
    for name in _BYTES:
        units[name] = "bytes"
    units.update({
        "suite.state_pool.hit_ratio": "ratio",
        "rajasim.useful_ratio": "ratio",
        "suite.supervisor.worker_busy_share": "ratio",
        "suite.supervisor.tail_s": "s",
        "suite.supervisor.loop_iterations": "count",
        "suite.supervisor.results_handled": "count",
        "thicket.pushdown.skip_ratio": "ratio",
        "ingest_cache.hit_ratio": "ratio",
        "service.queue_wait_s": "s",
        "service.run_s": "s",
        "service.result_s": "s",
        "unattributed_share": "ratio",
        "trace_overhead": "ratio",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: writer calls made by an archive merge count as merge work
_UNDER_MERGE = frozenset({"calipack.merge"})


def _busy(spans: Sequence[Span], name: str) -> tuple[int, float]:
    excluded = _UNDER_MERGE if name.startswith("calipack.") else frozenset()
    outer = outermost(spans, name, excluded)
    return len(outer), sum(s.duration for s in outer)


def layer_metrics(
    data: TraceData,
    workers: int,
    kernel_runs: int,
) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counters.

    ``workers`` is the campaign pool size (for the busy share);
    ``kernel_runs`` counts the campaign kernel runs the workload asked
    for, so ``rajasim.useful_ratio`` is the share of variant runs that
    were campaign work rather than reference-checksum or state-pool
    certification runs.
    """
    spans, counters = data.spans, data.counters
    out: dict[str, float] = {}
    for layer in _BUSY:
        calls, busy = _busy(spans, layer)
        out[f"{layer}.busy_s"] = busy
        if layer in _CALLS:
            out[f"{layer}.calls"] = float(calls)
    out["caliper.parse.calls"] = float(_busy(spans, "caliper.parse")[0])
    for name in _BYTES:
        out[name] = float(counters.get(name, 0.0))

    hits = counters.get("state_pool.hits", 0.0)
    lookups = hits + counters.get("state_pool.misses", 0.0) + counters.get(
        "state_pool.fallbacks", 0.0
    )
    out["suite.state_pool.hit_ratio"] = _ratio(hits, lookups)
    out["rajasim.useful_ratio"] = _ratio(kernel_runs, out["rajasim.run_variant.calls"])

    campaigns = [s for s in spans if s.name == "container.supervisor"]
    cells = [s for s in spans if s.name == "suite.run_cell"]
    campaign_s = sum(s.duration for s in campaigns)
    cell_busy = sum(
        c.duration for c in cells
        if any(s.start <= c.start and c.end <= s.end for s in campaigns)
    )
    out["suite.supervisor.worker_busy_share"] = _ratio(cell_busy, workers * campaign_s)
    tails = []
    for campaign in campaigns:
        ends = [c.end for c in cells if campaign.start <= c.start and c.end <= campaign.end]
        if ends:
            tails.append(campaign.end - max(ends))
    out["suite.supervisor.tail_s"] = sum(tails) / len(tails) if tails else 0.0
    out["suite.supervisor.loop_iterations"] = counters.get("supervisor.loop_iterations", 0.0)
    out["suite.supervisor.results_handled"] = counters.get("supervisor.results_handled", 0.0)

    out["thicket.pushdown.skip_ratio"] = _ratio(
        counters.get("pushdown.skipped", 0.0), counters.get("pushdown.entries", 0.0)
    )
    cache_hits = counters.get("ingest_cache.hits", 0.0)
    out["ingest_cache.hit_ratio"] = _ratio(
        cache_hits, cache_hits + counters.get("ingest_cache.misses", 0.0)
    )

    out.update(_service_phases(data))
    selfs = self_times(spans)
    per_layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name in LAYERS:
            per_layer_self[span.name] += selfs[span.id]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_layer_self[layer]
    out["unattributed_share"] = unattributed_share(spans)
    return out


def _service_phases(data: TraceData) -> dict[str, float]:
    """Median job phases from job-state events and client spans."""
    first: dict[tuple[str, str], float] = {}
    for state, job, t in sorted(data.events, key=lambda e: e[2]):
        first.setdefault((state, job), t)
    submits = {s.tag: s.start for s in data.spans if s.name == "op.job"}
    waits, runs = [], []
    for job, submitted in submits.items():
        running = first.get(("RUNNING", job))
        done = min(
            (t for (state, j), t in first.items()
             if j == job and state in ("SUCCEEDED", "FAILED", "CANCELLED", "ORPHANED")),
            default=None,
        )
        if running is not None:
            waits.append(running - submitted)
            if done is not None:
                runs.append(done - running)
    results = [s.duration for s in data.spans if s.name == "op.job.result"]

    def med(values):
        return statistics.median(values) if values else 0.0

    return {
        "service.queue_wait_s": med(waits),
        "service.run_s": med(runs),
        "service.result_s": med(results),
    }


def unattributed_share(spans: Sequence[Span]) -> float:
    """Share of the benchmark operations' wall time no layer span covers.

    Coverage is the union of layer spans from every process, clipped to
    each operation, so parallel workers are not double counted.
    """
    ops = [s for s in spans if s.name.startswith("op.") and s.parent is None]
    layer_intervals = [(s.start, s.end) for s in spans if s.name in LAYERS]
    wall = sum(op.duration for op in ops)
    if not wall:
        return 0.0
    covered = sum(covered_within(op.start, op.end, layer_intervals) for op in ops)
    return 1.0 - covered / wall
