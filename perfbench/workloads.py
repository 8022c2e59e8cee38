"""The benchmark's four workloads, driven through the program's public API.

* ``executed_sweep`` — ``SuiteExecutor(RunParams(execute=True, ...)).run``
  over every kernel on the two CPU machines, then analyze.
* ``model_sweep`` — a model-only campaign of many cheap cells (four
  machines, eight variants, two GPU block sizes, repeated trials), then
  analyze.
* ``eda_queries`` — composes and queries a prebuilt archive through
  ``Thicket.from_caliperreader`` and ``analysis_payload``.
* ``service_jobs`` — one closed-loop client submitting small model-only
  jobs to an in-process ``ServiceDaemon`` over HTTP.

Each workload has a set-up (imports are timed by the caller), a
``measure`` step that returns an :class:`Outcome`, and a ``teardown``.
Every end-to-end metric is reported by every workload under one name;
``Outcome.report`` adds the workload's own names (``campaign_s``,
``query_p95_ms``, ...) for the printed report.

The program is imported inside functions only, so ``run.py`` can time
the imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from spans import Tracer, summarize

ALL_MACHINES = ("SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X")
CPU_MACHINES = ("SPR-DDR", "SPR-HBM")
CPU_VARIANTS = ("Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP")
ALL_VARIANTS = CPU_VARIANTS + ("Base_CUDA", "RAJA_CUDA", "Base_HIP", "RAJA_HIP")
METRIC = "Avg time/rank"

#: executed_sweep: every kernel, two CPU machines, four variants (8 cells).
#: The execution size keeps one campaign to a few seconds on two cores.
EXECUTED_SPEC: dict[str, Any] = dict(
    machines=CPU_MACHINES, variants=CPU_VARIANTS, execute=True,
    problem_size="8K", workers=2, pack=True,
)
#: model_sweep: 4 machines x 8 variants x blocks {128, 256} = 16 cells per
#: trial, x 10 trials = 160 model-only cells, every kernel.
MODEL_SPEC: dict[str, Any] = dict(
    machines=ALL_MACHINES, variants=ALL_VARIANTS, gpu_block_sizes=(128, 256),
    trials=10, workers=2, pack=True,
)
#: eda_queries archive: the model sweep's shape at 16 trials (256
#: profiles), every fourth kernel, built by the serial executor.
EDA_TRIALS = 16
EDA_KERNEL_STRIDE = 4

#: campaigns below this count are run even past ``--seconds``
MIN_CAMPAIGNS = 3
#: cold + warm analyzes per campaign; the EDA run makes one before its
#: queries and one after every ``EDA_ANALYZE_EVERY`` queries
ANALYZE_REPEATS = 3
EDA_ANALYZE_EVERY = 75
MIN_QUERIES = 200
#: enough for a p90 with ten samples beyond it
SERVICE_JOBS = 100
SERVICE_POLL_S = 0.01
#: cold result fetches per job once it has settled (``analyze_s``)
SERVICE_COLD_RESULTS = 2
#: a job or forked campaign that takes longer has hung: the run fails
SERVICE_JOB_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 120.0

# ------------------------------------------------------------------ knobs


@dataclass(frozen=True)
class Knobs:
    """The optimisation knobs the ablation mode flips one at a time."""

    state_pool: bool = True
    legacy_dispatch: bool = False
    schedule: str = "lpt"
    batch_cells: str | int = "auto"
    shm: bool = True
    ingest_cache: bool = True
    pushdown: bool = True

    def campaign_params(self) -> dict[str, Any]:
        return dict(
            state_pool=self.state_pool, schedule=self.schedule,
            batch_cells=self.batch_cells, shm=self.shm,
        )

    def dispatch_context(self):
        if not self.legacy_dispatch:
            return nullcontext()
        from repro.rajasim.forall import legacy_dispatch

        return legacy_dispatch()


KNOBS: dict[str, Knobs] = {
    "no_state_pool": Knobs(state_pool=False),
    "legacy_dispatch": Knobs(legacy_dispatch=True),
    "fifo": Knobs(schedule="fifo"),
    "batch_cells_1": Knobs(batch_cells=1),
    "no_shm": Knobs(shm=False),
    "no_ingest_cache": Knobs(ingest_cache=False),
    "eager_filter": Knobs(pushdown=False),
}


# ---------------------------------------------------------------- outcome


@dataclass
class Outcome:
    """What one measured run produced."""

    #: end-to-end metric -> value (the gated set, same names everywhere)
    metrics: dict[str, float]
    #: the workload's own metric names -> (value, unit, sample count)
    report: dict[str, tuple[float, str, int]]
    #: operations attempted and failed: kernel runs plus one per campaign
    #: (sweeps), queries plus analyzes (EDA), jobs (service)
    attempted: int
    failed: int
    #: what failed, for the report
    mismatches: list[str]
    counts: dict[str, int]
    #: for the per-layer metrics of a traced run: pool size, and the
    #: campaign kernel runs made while tracing
    workers: int = 1
    kernel_runs: int = 0
    #: wall time of each measured operation, and whether it was traced
    op_s: list[float] = field(default_factory=list)
    op_traced: list[bool] = field(default_factory=list)


def _timing_report(report, median_name: str, values: list[float], unit: str,
                   scale: float = 1.0) -> None:
    """Median under ``median_name``, plus the tail as ``<stem>_p<NN>_<unit>``
    when some percentile has ten samples beyond it."""
    s = summarize(values)
    report[median_name] = (s.median * scale, unit, s.n)
    if s.tail_pct is not None:
        stem = median_name.removesuffix(f"_{unit}").removesuffix("_p50")
        pct = f"{s.tail_pct:g}".replace(".", "_")
        report[f"{stem}_p{pct}_{unit}"] = (s.tail * scale, unit, s.n)


def _span(tracer: Tracer | None, name: str, tag: str | None = None):
    return tracer.span(name, tag) if tracer is not None else nullcontext()


def _alternate(tracer: Tracer | None, index: int) -> bool:
    """In a traced run, trace every other operation: the untraced ones
    are the base for the tracing overhead. Returns whether ``index`` is
    traced."""
    if tracer is None:
        return False
    tracer.active = index % 2 == 1
    return tracer.active


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)


@dataclass
class AnalyzeRuns:
    """Timings of repeated cold/warm analyzes of one archive."""

    cold: list[float] = field(default_factory=list)
    warm: list[float] = field(default_factory=list)
    #: the compose part of each (``ingest_cold_s`` / ``ingest_warm_s``)
    cold_compose: list[float] = field(default_factory=list)
    warm_compose: list[float] = field(default_factory=list)
    thicket: Any = None  # the first cold composition
    payload: dict[str, Any] | None = None
    mismatches: list[str] = field(default_factory=list)


def analyze_repeated(archive: Path, cache: bool, repeats: int,
                     tracer: Tracer | None, tag: str | None,
                     runs: AnalyzeRuns | None = None) -> AnalyzeRuns:
    """What ``analyze --json`` does, cold then warm, ``repeats`` times,
    added to ``runs`` (a new one by default).

    Each cold analyze starts from an empty default ingest cache; the warm
    one after it reads the cache the cold one stored. With ``cache``
    off (the ablation) neither touches the cache. Every payload must
    equal the first.
    """
    from repro.service.api import analysis_payload
    from repro.thicket import Thicket
    from repro.thicket.ingest_cache import default_cache_dir

    cache_dir = default_cache_dir(archive)
    runs = AnalyzeRuns() if runs is None else runs
    for _ in range(repeats):
        shutil.rmtree(cache_dir, ignore_errors=True)
        for warm in (False, True):
            with _span(tracer, "op.analyze_warm" if warm else "op.analyze", tag):
                start = time.perf_counter()
                thicket = Thicket.from_caliperreader(
                    [str(archive)], cache=cache_dir if cache else None
                )
                composed = time.perf_counter()
                payload = analysis_payload(thicket, METRIC)
                end = time.perf_counter()
            (runs.warm if warm else runs.cold).append(end - start)
            (runs.warm_compose if warm else runs.cold_compose).append(composed - start)
            if runs.payload is None:
                runs.thicket, runs.payload = thicket, payload
            elif _canonical(payload) != _canonical(runs.payload):
                kind = "warm" if warm else "cold"
                runs.mismatches.append(f"{tag or 'archive'}: a {kind} analyze differs")
    return runs


# ----------------------------------------------------------------- sweeps


def run_forked(fn, *args) -> Any:
    """Run ``fn(*args)`` in a forked child and return its result.

    Each campaign gets a fresh process, so in-process caches start as
    cold as a user's ``run``. Fork (not spawn) keeps the parent's
    imports — set-up already paid for them — and lets a traced child
    inherit the wrappers; the parent starts no threads before forking.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child() -> None:
        try:
            sender.send(("ok", fn(*args)))
        except BaseException as exc:  # noqa: BLE001 - report, then exit
            import traceback

            sender.send(("error", "".join(traceback.format_exception(exc))))
        finally:
            sender.close()

    proc = ctx.Process(target=child)
    proc.start()
    sender.close()
    try:
        if receiver.poll(CHILD_TIMEOUT_S):
            status, value = receiver.recv()
        else:
            status, value = "error", f"no result within {CHILD_TIMEOUT_S}s"
    except EOFError:
        status, value = "error", "child exited without a result"
    finally:
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
        receiver.close()
    if status != "ok":
        raise RuntimeError(f"forked run failed:\n{value}")
    return value


class SweepWorkload:
    """A campaign, timed from ``run`` to the sealed archive, then analyze."""

    def __init__(self, name: str, spec: dict[str, Any], executed: bool) -> None:
        self.name = name
        self.spec = spec
        self.executed = executed

    def setup(self, work: Path, seed: int, knobs: Knobs) -> None:
        from repro.suite.executor import SuiteExecutor
        from repro.suite.run_params import RunParams

        self.work = work
        self.knobs = knobs
        self.params = dict(self.spec, **knobs.campaign_params())
        # Only the cell list: loading the kernel registry here would warm
        # the campaign processes, which must start as cold as a user's run.
        executor = SuiteExecutor(RunParams(output_dir=str(work), **self.params))
        self.cells = len(executor.build_cells())

    def teardown(self) -> None:
        pass

    def _campaign(self, index: int, tracer: Tracer | None) -> dict[str, Any]:
        """One campaign plus analyze in a fresh process (see run_forked)."""
        from repro.caliper.calipack import ARCHIVE_NAME
        from repro.suite.executor import SuiteExecutor
        from repro.suite.run_params import RunParams
        from repro.thicket import Thicket
        from repro.service.api import analysis_payload

        out = self.work / f"campaign-{index}"
        params = RunParams(output_dir=str(out), **self.params)
        archive = out / ARCHIVE_NAME
        with self.knobs.dispatch_context():
            with _span(tracer, "op.campaign", f"campaign-{index}"):
                start = time.perf_counter()
                result = SuiteExecutor(params).run(write_files=True)
                campaign_s = time.perf_counter() - start
        analyzed = analyze_repeated(
            archive, self.knobs.ingest_cache, ANALYZE_REPEATS, tracer,
            f"campaign-{index}",
        )
        payload = analyzed.payload
        if tracer is not None:
            tracer.flush()

        # Correctness, outside the timed spans.
        records = result.report.records
        if self.executed:
            bad = [r for r in records if r.status != "ok" or r.checksum_ok is not True]
        else:
            bad = [r for r in records if r.status != "ok"]
        problems = [
            f"{r.machine}/{r.variant}/{r.kernel}: status={r.status} "
            f"checksum_ok={r.checksum_ok}"
            for r in bad[:5]
        ]
        # campaign-level mismatches, each one failed operation
        mismatches = list(analyzed.mismatches)
        if not result.report.clean and not bad:
            mismatches.append(f"campaign {index}: run report is not clean")
        if not self.executed:
            memory = Thicket.from_caliperreader(result.profiles)
            # The archive is name-sorted; order the in-memory ensemble the
            # same way before comparing payloads.
            order = payload["profiles"]
            by_id = {p: i for i, p in enumerate(memory.profiles)}
            if sorted(by_id) != sorted(order):
                mismatches.append(f"campaign {index}: profile sets differ")
            else:
                profiles = [result.profiles[by_id[p]] for p in order]
                in_memory = analysis_payload(
                    Thicket.from_caliperreader(profiles), METRIC
                )
                if _canonical(in_memory) != _canonical(payload):
                    mismatches.append(
                        f"campaign {index}: archive payload differs from in-memory"
                    )
        sha = _sha256(archive)
        shutil.rmtree(out, ignore_errors=True)
        return dict(
            campaign_s=campaign_s, analyze_s=analyzed.cold,
            analyze_warm_s=analyzed.warm, kernel_runs=len(records),
            kernel_runs_ok=len(records) - len(bad), failed=len(bad),
            problems=problems, mismatches=mismatches, sha256=sha, profiles=len(result.profiles),
            kernels=len(SuiteExecutor(params).selected_kernels()),
        )

    def measure(self, seconds: float, tracer: Tracer | None = None,
                min_ops: int = MIN_CAMPAIGNS) -> Outcome:
        runs: list[dict[str, Any]] = []
        traced: list[bool] = []
        start = time.perf_counter()
        while len(runs) < min_ops or (
            time.perf_counter() - start
            + statistics.median(r["campaign_s"] for r in runs) <= seconds
        ):
            traced.append(_alternate(tracer, len(runs)))
            runs.append(run_forked(self._campaign, len(runs), tracer))
        campaign = [r["campaign_s"] for r in runs]
        analyze = [t for r in runs for t in r["analyze_s"]]
        warm = [t for r in runs for t in r["analyze_warm_s"]]
        ok_runs = sum(r["kernel_runs_ok"] for r in runs)
        mismatches = [m for r in runs for m in r["mismatches"]]
        if not self.executed and len({r["sha256"] for r in runs}) != 1:
            mismatches.append("archive sha256 differs between campaigns")
        failed = sum(r["failed"] for r in runs) + len(mismatches)
        kernel_runs = sum(r["kernel_runs"] for r in runs)
        attempted = kernel_runs + len(runs)
        kernel_rate = ok_runs / sum(campaign)
        report: dict[str, tuple[float, str, int]] = {}
        _timing_report(report, "campaign_s", campaign, "s")
        report["kernel_runs_per_s"] = (kernel_rate, "1/s", len(runs))
        _timing_report(report, "analyze_s", analyze, "s")
        _timing_report(report, "analyze_warm_s", warm, "s")
        return Outcome(
            metrics={
                "op_p50_ms": statistics.median(campaign) * 1e3,
                "work_per_s": kernel_rate,
                "analyze_s": statistics.median(analyze),
            },
            report=report,
            attempted=attempted,
            failed=failed,
            mismatches=[p for r in runs for p in r["problems"]] + mismatches,
            counts=dict(
                campaigns=len(runs), cells_per_campaign=self.cells,
                kernels=runs[0]["kernels"], kernel_runs=kernel_runs,
                profiles=sum(r["profiles"] for r in runs),
            ),
            workers=self.spec["workers"],
            kernel_runs=sum(r["kernel_runs"] for r, t in zip(runs, traced) if t),
            op_s=[r["campaign_s"] + sum(r["analyze_s"]) + sum(r["analyze_warm_s"])
                  for r in runs],
            op_traced=traced,
        )


# -------------------------------------------------------------------- EDA


@dataclass(frozen=True)
class Query:
    """One EDA request: a metadata predicate and what to read back."""

    id: str
    kind: str  # "point" | "broad" | "stats" | "matrix"
    where: dict[str, Any]

    def expr(self):
        from repro.dataframe import col

        expr = None
        for key, value in self.where.items():
            term = col(key) == value
            expr = term if expr is None else expr & term
        return expr


#: one block of the stream: mostly point lookups (the median), broad
#: per-machine reads and trial-aggregated reads (the tail)
QUERY_BLOCK = ("point",) * 6 + ("broad",) * 2 + ("stats", "matrix")


def query_stream(seed: int, cells: list[dict[str, Any]], n: int) -> list[Query]:
    """``n`` seeded queries over an archive whose profiles are ``cells``
    (each a dict of machine/variant/tuning/trial)."""
    rng = random.Random(seed)
    machines = sorted({c["machine"] for c in cells})
    groups = sorted({(c["machine"], c["variant"], c["tuning"]) for c in cells})
    queries: list[Query] = []
    while len(queries) < n:
        block = list(QUERY_BLOCK)
        rng.shuffle(block)
        for kind in block:
            qid = f"q{len(queries)}"
            if kind == "point":
                where = dict(rng.choice(cells))
            elif kind == "broad":
                where = {"machine": rng.choice(machines)}
            else:
                machine, variant, tuning = rng.choice(groups)
                where = {"machine": machine, "variant": variant, "tuning": tuning}
            queries.append(Query(qid, kind, where))
    return queries[:n]


class EdaWorkload:
    """Compose and query a prebuilt archive; no campaign runs."""

    name = "eda_queries"

    def setup(self, work: Path, seed: int, knobs: Knobs) -> None:
        from repro.caliper.calipack import ARCHIVE_NAME
        from repro.suite.executor import SuiteExecutor
        from repro.suite.registry import all_kernel_classes
        from repro.suite.run_params import RunParams

        self.work = work
        self.seed = seed
        self.knobs = knobs
        kernels = tuple(
            cls.class_full_name() for cls in all_kernel_classes()
        )[::EDA_KERNEL_STRIDE]
        params = RunParams(
            machines=ALL_MACHINES, variants=ALL_VARIANTS,
            gpu_block_sizes=(128, 256), trials=EDA_TRIALS, kernels=kernels,
            pack=True, workers=1, output_dir=str(work / "archive"),
        )
        executor = SuiteExecutor(params)
        result = executor.run(write_files=True)
        if not result.report.clean:
            raise RuntimeError("eda_queries set-up campaign was not clean")
        self.archive = work / "archive" / ARCHIVE_NAME
        self.cells = [
            dict(machine=c.machine.shorthand, variant=c.variant.name,
                 tuning=c.tuning, trial=c.trial)
            for c in executor.build_cells()
        ]
        self.kernels = len(kernels)

    def teardown(self) -> None:
        pass

    def _cache_dir(self) -> Path:
        from repro.thicket.ingest_cache import default_cache_dir

        return default_cache_dir(self.archive)

    def _run_query(self, query: Query):
        """The query as a user would issue it: point lookups read through
        the archive index; broad and aggregated reads go through the
        warm ingest cache, as ``analyze --where`` does by default."""
        from repro.thicket import Thicket

        cache = None
        if query.kind != "point" and self.knobs.ingest_cache:
            cache = self._cache_dir()
        expr = query.expr()
        if self.knobs.pushdown:
            thicket = Thicket.from_caliperreader(
                [str(self.archive)], cache=cache, where=expr
            )
        else:
            thicket = Thicket.from_caliperreader(
                [str(self.archive)], cache=cache
            ).filter_metadata(expr)
        if query.kind == "stats":
            return thicket, thicket.aggregate_stats([METRIC])
        if query.kind == "matrix":
            return thicket, thicket.metric_matrix(METRIC)
        return thicket, None

    @staticmethod
    def _check(query: Query, thicket, read, reference) -> str | None:
        import numpy as np

        if thicket.load_errors:
            return f"{query.id}: degraded ({len(thicket.load_errors)} load errors)"
        expected = reference.filter_metadata(query.expr())
        if not (thicket.metadata.equals(expected.metadata)
                and thicket.dataframe.equals(expected.dataframe)):
            return f"{query.id}: {query.kind} result differs from eager filter"
        if query.kind == "stats":
            if not read.equals(expected.aggregate_stats([METRIC])):
                return f"{query.id}: aggregate_stats differs"
        elif query.kind == "matrix":
            regions, profiles, matrix = expected.metric_matrix(METRIC)
            if (read[0] != regions or read[1] != profiles
                    or not np.array_equal(read[2], matrix, equal_nan=True)):
                return f"{query.id}: metric_matrix differs"
        return None

    def measure(self, seconds: float, tracer: Tracer | None = None,
                min_ops: int = MIN_QUERIES) -> Outcome:
        analyzed = analyze_repeated(
            self.archive, self.knobs.ingest_cache, 1, tracer, None
        )
        reference = analyzed.thicket
        stream = query_stream(self.seed, self.cells, 100_000)
        latencies: list[float] = []
        traced: list[bool] = []
        by_kind: dict[str, list[float]] = {}
        mismatches: list[str] = []
        issued = 0
        start_all = time.perf_counter()
        for query in stream:
            if issued >= min_ops and time.perf_counter() - start_all >= seconds:
                break
            if issued and issued % EDA_ANALYZE_EVERY == 0:
                # Spread over the run, so the median sees the same
                # machine as the queries' median does.
                analyze_repeated(self.archive, self.knobs.ingest_cache, 1,
                                 tracer, None, analyzed)
            issued += 1
            is_traced = _alternate(tracer, issued)
            try:
                with _span(tracer, "op.query", query.id):
                    start = time.perf_counter()
                    thicket, read = self._run_query(query)
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 - an erroring query counts as failed
                mismatches.append(f"{query.id}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(elapsed)
            traced.append(is_traced)
            by_kind.setdefault(query.kind, []).append(elapsed)
            problem = self._check(query, thicket, read, reference)
            if problem is not None:
                mismatches.append(problem)
        if tracer is not None:
            tracer.flush()
        mismatches = analyzed.mismatches + mismatches
        report: dict[str, tuple[float, str, int]] = {}
        report["ingest_cold_s"] = (
            statistics.median(analyzed.cold_compose), "s", len(analyzed.cold_compose))
        report["ingest_warm_s"] = (
            statistics.median(analyzed.warm_compose), "s", len(analyzed.warm_compose))
        _timing_report(report, "query_p50_ms", latencies, "ms", 1e3)
        for kind, values in sorted(by_kind.items()):
            _timing_report(report, f"query_{kind}_p50_ms", values, "ms", 1e3)
        _timing_report(report, "analyze_s", analyzed.cold, "s")
        _timing_report(report, "analyze_warm_s", analyzed.warm, "s")
        return Outcome(
            metrics={
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "work_per_s": len(latencies) / sum(latencies),
                "analyze_s": statistics.median(analyzed.cold),
            },
            report=report,
            attempted=issued + len(analyzed.cold) + len(analyzed.warm),
            failed=len(mismatches),
            mismatches=mismatches,
            counts=dict(
                queries=len(latencies), profiles=len(self.cells),
                kernels=self.kernels,
            ),
            op_s=latencies,
            op_traced=traced,
        )


# ---------------------------------------------------------------- service


#: (trials, pack) of the jobs: each machine x problem size runs once per entry
JOB_SHAPES = ((1, True), (2, True), (1, True), (2, True), (2, False))
JOB_SIZES = (1024, 2048, 4096, 16384, 65536)


def job_specs(seed: int, n: int) -> list[dict[str, Any]]:
    """``n`` seeded small model-only job specs.

    The jobs are the machines x problem sizes x ``JOB_SHAPES`` (100), in
    seeded order, repeated when ``n`` is larger. The seed also picks
    each job's two variants and two kernels. The mix of campaign shapes
    (profiles per job, packed or loose files) is the same for every
    seed, so the medians do not move with the share of heavy jobs a
    seed happens to draw.
    """
    rng = random.Random(seed)
    kernels = ("Basic_DAXPY", "Stream_TRIAD", "Stream_ADD", "Lcals_HYDRO_1D",
               "Apps_ENERGY", "Polybench_2MM", "Basic_REDUCE3_INT", "Algorithm_SCAN")
    by_machine = {
        "SPR-DDR": CPU_VARIANTS, "SPR-HBM": CPU_VARIANTS,
        "P9-V100": ("Base_CUDA", "RAJA_CUDA"),
        "EPYC-MI250X": ("Base_HIP", "RAJA_HIP"),
    }
    combos = [(machine, size, trials, pack)
              for machine in ALL_MACHINES for size in JOB_SIZES
              for trials, pack in JOB_SHAPES]
    specs = []
    while len(specs) < n:
        rng.shuffle(combos)
        for machine, size, trials, pack in combos:
            specs.append({
                "machines": [machine],
                "variants": rng.sample(by_machine[machine], 2),
                "kernels": rng.sample(kernels, 2),
                "problem_size": size,
                "trials": trials,
                "pack": pack,
            })
    return specs[:n]


class ServiceWorkload:
    """Closed-loop jobs against an in-process ``ServiceDaemon``."""

    name = "service_jobs"

    def setup(self, work: Path, seed: int, knobs: Knobs) -> None:
        self.work = work
        self.seed = seed
        self.daemon = self.thread = None
        self._start_daemon(work / "service")

    def _start_daemon(self, root: Path) -> None:
        from repro.service.api import http_json
        from repro.service.daemon import ServiceDaemon
        from repro.service.scheduler import SchedulerConfig

        self.daemon = ServiceDaemon(
            root, port=0, scheduler_config=SchedulerConfig(max_parallel=1)
        )
        self.thread = threading.Thread(
            target=self.daemon.serve_forever,
            kwargs={"install_signals": False},
            name="bench-service",
        )
        self.thread.start()
        status, _ = http_json(self.daemon.url + "/healthz")
        if status != 200:
            raise RuntimeError(f"service did not come up (status {status})")

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.request_stop()
            self.thread.join(30)
            if self.thread.is_alive():
                raise RuntimeError("service daemon did not stop")
            self.daemon = self.thread = None

    def measure(self, seconds: float, tracer: Tracer | None = None,
                min_ops: int = SERVICE_JOBS) -> Outcome:
        from repro.service.api import analysis_payload, campaign_sources, http_json
        from repro.thicket import Thicket
        from repro.thicket.ingest_cache import default_cache_dir

        url = self.daemon.url
        store = self.daemon.store
        specs = job_specs(self.seed, min_ops)
        turnaround, first, warm, cold = [], [], [], []
        traced: list[bool] = []
        outcomes = []
        for i, spec in enumerate(specs):
            job_id = f"job-{i:04d}"
            is_traced = _alternate(tracer, i)
            with _span(tracer, "op.job", job_id):
                start = time.perf_counter()
                status, body = http_json(
                    url + "/api/jobs", {"spec": spec, "job_id": job_id}
                )
                if status != 200:
                    outcomes.append((job_id, f"submit status {status}: {body}", None))
                    continue
                while True:
                    status, body = http_json(f"{url}/api/jobs/{job_id}")
                    if status == 200 and body["job"]["state"] in (
                        "SUCCEEDED", "FAILED", "CANCELLED", "ORPHANED"
                    ):
                        break
                    if time.perf_counter() - start > SERVICE_JOB_TIMEOUT_S:
                        raise RuntimeError(f"{job_id} did not finish in "
                                           f"{SERVICE_JOB_TIMEOUT_S}s")
                    time.sleep(SERVICE_POLL_S)
                state = body["job"]["state"]
                with _span(tracer, "op.job.result", job_id):
                    result_start = time.perf_counter()
                    status, result = http_json(f"{url}/api/jobs/{job_id}/result")
                    end = time.perf_counter()
            turnaround.append(end - start)
            traced.append(is_traced)
            first.append(end - result_start)
            warm_start = time.perf_counter()
            warm_status, warm_result = http_json(f"{url}/api/jobs/{job_id}/result")
            warm.append(time.perf_counter() - warm_start)
            problem = None
            if state != "SUCCEEDED":
                problem = f"{job_id}: ended {state}"
            elif status != 200 or warm_status != 200:
                problem = f"{job_id}: result status {status}/{warm_status}"
            elif _canonical(warm_result) != _canonical(result):
                problem = f"{job_id}: repeated result differs"
            # The first fetch overlaps the scheduler's own end-of-job work,
            # which grows with the job store; these cold fetches come after
            # it, each from an empty campaign ingest cache.
            sources = campaign_sources(store.campaign_dir(job_id))
            for _ in range(SERVICE_COLD_RESULTS if problem is None and sources else 0):
                shutil.rmtree(default_cache_dir(sources[0]), ignore_errors=True)
                with _span(tracer, "op.analyze", job_id):
                    cold_start = time.perf_counter()
                    cold_status, cold_result = http_json(f"{url}/api/jobs/{job_id}/result")
                    cold.append(time.perf_counter() - cold_start)
                if cold_status != 200 or _canonical(cold_result) != _canonical(result):
                    problem = f"{job_id}: cold refetched result differs"
                    break
            outcomes.append((job_id, problem, result.get("result")))
        if tracer is not None:
            tracer.flush()

        # Correctness, after the closed loop: each result must equal the
        # analyze payload of a direct compose of the job's campaign.
        mismatches = []
        for job_id, problem, payload in outcomes:
            if problem is None:
                sources = campaign_sources(store.campaign_dir(job_id))
                direct = analysis_payload(Thicket.from_caliperreader(sources), METRIC)
                if _canonical(direct) != _canonical(payload):
                    problem = f"{job_id}: result differs from a direct analyze"
            if problem is not None:
                mismatches.append(problem)
        report: dict[str, tuple[float, str, int]] = {}
        _timing_report(report, "job_turnaround_p50_s", turnaround, "s")
        _timing_report(report, "result_first_s", first, "s")
        _timing_report(report, "analyze_s", cold, "s")
        _timing_report(report, "analyze_warm_s", warm, "s")
        return Outcome(
            metrics={
                "op_p50_ms": statistics.median(turnaround) * 1e3,
                "work_per_s": len(turnaround) / sum(turnaround),
                "analyze_s": statistics.median(cold),
            },
            report=report,
            attempted=len(specs),
            failed=len(mismatches),
            mismatches=mismatches,
            counts=dict(jobs=len(specs), completed=len(turnaround)),
            op_s=turnaround,
            op_traced=traced,
        )


def make(name: str):
    if name == "executed_sweep":
        return SweepWorkload(name, EXECUTED_SPEC, executed=True)
    if name == "model_sweep":
        return SweepWorkload(name, MODEL_SPEC, executed=False)
    if name == "eda_queries":
        return EdaWorkload()
    if name == "service_jobs":
        return ServiceWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("executed_sweep", "model_sweep", "eda_queries", "service_jobs")
