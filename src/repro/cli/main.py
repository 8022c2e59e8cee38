"""``rajaperf-sim``: RAJAPerf-style command line for the reproduction.

Subcommands mirror how the paper's pipeline is driven:

``run``
    Run the suite (model predictions; optionally real NumPy execution)
    and write one ``.cali`` profile per (machine, variant, tuning) —
    RAJAPerf's run + Caliper integration.
``analyze``
    Read ``.cali`` profiles into Thicket and print the region tree or a
    metric matrix — the Thicket EDA step.
``experiment``
    Regenerate a paper artifact by id (T1-T4, F1-F10) or everything.
``cluster``
    Run the Section IV similarity analysis and print Figs. 6-8.
``scaling``
    Predict strong/weak scaling of a kernel on a CPU machine.
``export``
    Write every figure's underlying data as plot-ready CSV files.
``report``
    Caliper-style runtime report of a ``.cali`` profile.
``pack`` / ``unpack``
    Convert a campaign between loose ``.cali`` files and a packed
    ``.calipack`` archive (``pack`` also primes the ingest cache).
``list``
    Enumerate kernels, groups, variants, or machines (RAJAPerf's
    ``--print-kernels`` etc.).
``shard-status``
    Progress of a sharded campaign (``run --shards N``): per-shard
    ok/failed/pending counts, lock-holder liveness, merge state.
``chaos``
    Crash-consistency chaos trials: kill the pipeline at every durable
    write boundary and machine-check that fsck + resume + analyze
    converge (see docs/architecture.md).
``serve`` / ``submit`` / ``jobs`` / ``cancel``
    The durable campaign job service: a crash-safe job queue with a
    lease-based scheduler and admission control, served over a local
    HTTP/JSON API (see docs/architecture.md, "Campaign service").
``gc``
    Crash-safe retention over a service root: tombstoned GC of terminal
    jobs by age/count/tenant-bytes policy, archive compaction, pin and
    unpin (see docs/architecture.md, "Retention, compaction & disk
    health").

Exit codes are standardized in :mod:`repro.cli.exitcodes`.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from contextlib import nullcontext

from repro.cli import exitcodes
from repro.faults import FaultPlan
from repro.machines.registry import MACHINES, list_machines
from repro.suite.features import Feature
from repro.suite.groups import Group
from repro.suite.registry import all_kernel_classes
from repro.suite.run_params import RunParams
from repro.suite.variants import VARIANTS
from repro.util.units import parse_size


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rajaperf-sim",
        description="RAJA Performance Suite reproduction (SC'24 paper pipeline).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the suite and emit .cali profiles")
    run.add_argument("--size", default="32M", help="problem size per node (e.g. 32M)")
    run.add_argument("--reps", type=int, default=1, help="repetitions per kernel")
    run.add_argument(
        "--variants",
        nargs="+",
        default=["RAJA_Seq", "RAJA_CUDA", "RAJA_HIP"],
        choices=sorted(VARIANTS),
        metavar="VARIANT",
    )
    run.add_argument(
        "--machines", nargs="+", default=list(MACHINES), choices=list(MACHINES),
        metavar="MACHINE",
    )
    run.add_argument("--groups", nargs="+", default=[], metavar="GROUP",
                     choices=[g.value for g in Group])
    run.add_argument("--kernels", nargs="+", default=[], metavar="KERNEL")
    run.add_argument("--features", nargs="+", default=[], metavar="FEATURE",
                     choices=[f.value for f in Feature])
    run.add_argument("--gpu-block-sizes", nargs="+", type=int, default=[256])
    run.add_argument("--execute", action="store_true",
                     help="really execute the NumPy kernels (capped size)")
    run.add_argument("--no-state-pool", action="store_true",
                     help="disable the kernel-state pool: allocate and set "
                          "up a fresh kernel instance per executed cell "
                          "instead of restoring a pooled snapshot")
    run.add_argument("--trials", type=int, default=1,
                     help="repeated measurements (applies the noise model)")
    run.add_argument("--csv", action="store_true",
                     help="also write RAJAPerf-style per-run CSV files")
    run.add_argument("--pack", action="store_true",
                     help="write profiles into a packed campaign.calipack "
                          "archive instead of loose .cali files")
    run.add_argument("--output-dir", default=".", help="where to write .cali files")
    run.add_argument("--paper", action="store_true",
                     help="use exactly the paper's Table III configuration")
    run.add_argument("--resume", action="store_true",
                     help="skip cells the campaign manifest marks complete")
    run.add_argument("--fail-fast", action="store_true",
                     help="abort on the first kernel error (no retry/isolation)")
    run.add_argument("--max-attempts", type=int, default=3,
                     help="attempts per kernel before it is marked failed")
    run.add_argument("--kernel-timeout", type=float, default=None, metavar="SECONDS",
                     help="per-kernel watchdog deadline")
    run.add_argument("--inject-faults", default=None, metavar="JSON",
                     help="fault plan (JSON list of faults; see repro.faults); "
                          "$REPRO_FAULTS is honored when this is unset")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes; N > 1 runs the campaign under "
                          "the crash-tolerant supervisor")
    run.add_argument("--heartbeat-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="kill and requeue a worker whose heartbeats stop "
                          "for this long (supervised mode)")
    run.add_argument("--shards", type=int, default=0, metavar="N",
                     help="partition the campaign across N self-healing "
                          "shard supervisors and merge their archives "
                          "(implies --pack; each shard runs --workers "
                          "processes)")
    run.add_argument("--shard-lease-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="declare a shard wedged (kill and heal it) when "
                          "no beat arrives from it for this long "
                          "(sharded mode)")
    run.add_argument("--schedule", choices=["lpt", "fifo"], default="lpt",
                     help="cell dispatch order: 'lpt' sorts and shards "
                          "cells by estimated cost (longest first), "
                          "'fifo' keeps the seed sweep order")
    run.add_argument("--batch-cells", default="auto", metavar="N",
                     help="group up to N cheap cells into one dispatch "
                          "message ('auto' sizes batches from the cost "
                          "model; 1 disables batching)")
    run.add_argument("--cost-from", default=None, metavar="MANIFEST",
                     help="override the analytic cost model with measured "
                          "cell times from a prior campaign's manifest")

    analyze = sub.add_parser("analyze", help="Thicket EDA over .cali profiles")
    analyze.add_argument("files", nargs="+",
                         help=".cali files, .calipack archives, or "
                              "archive::entry member refs to compose")
    analyze.add_argument("--metric", default="Avg time/rank")
    analyze.add_argument("--tree", action="store_true", help="print region trees")
    analyze.add_argument("--strict", action="store_true",
                         help="fail on unreadable .cali files instead of "
                              "warning and analyzing the survivors")
    analyze.add_argument("--workers", type=int, default=1, metavar="N",
                         help="parallel ingest processes (sources split by "
                              "index ranges; result identical to serial)")
    analyze.add_argument("--no-cache", action="store_true",
                         help="skip the content-addressed ingest cache "
                              "(.ingest_cache/ beside the first source)")
    analyze.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON report (metric "
                              "matrix + load_errors ledger) instead of text")
    analyze.add_argument("--where", default=None, metavar="EXPR",
                         help="metadata filter expression, pushed down into "
                              "the archive index so rejected entries are "
                              "never parsed (e.g. \"variant == 'RAJA_CUDA' "
                              "and machine != 'lassen'\")")
    analyze.add_argument("--incremental", action="store_true",
                         help="reuse the longest cached prefix of the "
                              "source set and compose only newly appended "
                              "segments (requires the ingest cache)")

    pack = sub.add_parser(
        "pack",
        help="pack a campaign's .cali files into one .calipack archive",
        description="Collapse every loose .cali in a campaign directory "
                    "into an append-only campaign.calipack (entries stored "
                    "verbatim, CRC32-indexed), rewrite manifest file refs, "
                    "and prime the ingest cache.",
    )
    pack.add_argument("directory", help="campaign output directory")
    pack.add_argument("--keep", action="store_true",
                      help="keep the loose .cali files (archive is a copy)")
    pack.add_argument("--no-cache", action="store_true",
                      help="do not prime the ingest cache after packing")

    unpack = sub.add_parser(
        "unpack",
        help="restore a .calipack archive back to loose .cali files",
    )
    unpack.add_argument("archive", help="the .calipack to unpack")
    unpack.add_argument("--dir", default=None,
                        help="where to write the files (default: beside "
                             "the archive)")
    unpack.add_argument("--keep", action="store_true",
                        help="keep the archive after unpacking")

    exp = sub.add_parser("experiment", help="regenerate paper artifacts")
    exp.add_argument("ids", nargs="*", default=[],
                     help="experiment ids (T1..T4, F1..F10); empty = all")
    exp.add_argument("--output-dir", default=None,
                     help="also write artifacts as .txt files here")

    cluster = sub.add_parser("cluster", help="Section IV similarity analysis")
    cluster.add_argument("--threshold", type=float, default=1.4)
    cluster.add_argument("--method", default="ward",
                         choices=["ward", "single", "complete", "average"])
    cluster.add_argument("--dendrogram", action="store_true")

    scaling = sub.add_parser("scaling", help="strong/weak scaling prediction")
    scaling.add_argument("kernel")
    scaling.add_argument("--machine", default="SPR-DDR",
                         choices=["SPR-DDR", "SPR-HBM"])
    scaling.add_argument("--mode", default="strong", choices=["strong", "weak"])
    scaling.add_argument("--size", default="32M")

    export = sub.add_parser("export", help="write figure data as CSV")
    export.add_argument("output_dir")

    report = sub.add_parser("report", help="runtime report of a .cali profile")
    report.add_argument("file")
    report.add_argument("--metric", default="Avg time/rank")
    report.add_argument("--top", type=int, default=0,
                        help="also print the N hottest regions")

    lst = sub.add_parser("list", help="enumerate kernels/variants/machines")
    lst.add_argument("what", choices=["kernels", "groups", "variants", "machines"])

    shard_status = sub.add_parser(
        "shard-status",
        help="progress of a sharded campaign's shards",
        description="Read the shard map, each shard's manifest and "
                    "campaign lock, and report per-shard ok/failed/"
                    "pending counts plus whether the merged campaign "
                    "archive exists yet. Exit 4 when a shard still has "
                    "pending cells and no live process holds its lock "
                    "or the campaign's.",
    )
    shard_status.add_argument("directory", help="campaign output directory")

    fsck = sub.add_parser(
        "fsck",
        help="verify .cali integrity footers in a campaign directory",
        description="Classify every .cali profile (ok/unsealed/truncated/"
                    "corrupt/orphaned), quarantine damaged and orphaned "
                    "files, and mark damaged cells for re-run so "
                    "'run --resume' heals the campaign.",
    )
    fsck.add_argument("directory", help="campaign output directory")
    fsck.add_argument("--dry-run", action="store_true",
                      help="report only: no quarantine, no manifest changes")
    fsck.add_argument("--no-rerun", action="store_true",
                      help="quarantine damaged files but leave the manifest "
                           "alone (resume will NOT re-produce them)")

    chaos = sub.add_parser(
        "chaos",
        help="deterministic crash-consistency trials over every kill point",
        description="For every registered crash point, run a small "
                    "campaign, kill it mid-write (os._exit, optionally "
                    "with a torn tmp file), then fsck + run --resume + "
                    "analyze, and machine-check that no sealed data is "
                    "lost and the recovered Thicket frames equal an "
                    "uncrashed golden run. Trials replay from --seed.",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="seeds every trial's strike plan and torn-write "
                            "prefix (same seed = same trials)")
    chaos.add_argument("--trials-per-point", type=int, default=1,
                       help="strike plans per (point, mode); later trials "
                            "hit deeper occurrences / torn variants")
    chaos.add_argument("--points", nargs="+", default=None, metavar="POINT",
                       help="restrict to these crash points (default: all; "
                            "see 'list' of points in the JSON report)")
    chaos.add_argument("--modes", nargs="+", default=None,
                       choices=["serial", "supervised", "sharded", "service"],
                       help="campaign modes to trial (default: all)")
    chaos.add_argument("--report", default=None, metavar="FILE",
                       help="also write the JSON invariant report here")
    chaos.add_argument("--workdir", default=None,
                       help="where trial campaigns live (default: a "
                            "temporary directory)")
    chaos.add_argument("--keep", action="store_true",
                       help="keep trial directories for post-mortem")
    chaos.add_argument("--self-test", action="store_true",
                       help="instead of trials, suppress one repair on "
                            "purpose and assert the invariant checker "
                            "catches the loss")

    serve = sub.add_parser(
        "serve",
        help="run the durable campaign job service daemon",
        description="Serve the job store under ROOT over a local "
                    "HTTP/JSON API and run queued jobs as campaigns in "
                    "campaigns/<job-id>/. SIGTERM drains gracefully "
                    "(running jobs requeue with --resume); after a hard "
                    "kill, the next start recovers every job with no "
                    "lost or duplicated work.",
    )
    serve.add_argument("root", help="service root directory (jobs/ + campaigns/)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 picks a free one and prints it)")
    serve.add_argument("--max-parallel", type=int, default=1,
                       help="jobs run concurrently by this daemon")
    serve.add_argument("--max-job-attempts", type=int, default=3,
                       help="RUNNING attempts before a job parks as ORPHANED")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="active jobs service-wide before admission "
                            "rejects (0 = reject everything)")
    serve.add_argument("--max-queued-per-tenant", type=int, default=16,
                       help="active jobs per tenant before admission rejects")
    serve.add_argument("--max-tenant-bytes", type=int, default=None,
                       help="campaign bytes a tenant may hold on disk "
                            "(default: unlimited)")
    serve.add_argument("--soft-free-bytes", type=int, default=None,
                       help="soft disk watermark: admission rejects every "
                            "submission and GC runs immediately when the "
                            "filesystem's free bytes fall to this "
                            "($REPRO_DISK_SOFT_BYTES when unset)")
    serve.add_argument("--hard-free-bytes", type=int, default=None,
                       help="hard disk watermark: additionally pause "
                            "claiming new jobs until space is reclaimed "
                            "($REPRO_DISK_HARD_BYTES when unset)")
    serve.add_argument("--retention-max-age", type=float, default=None,
                       metavar="SECONDS",
                       help="GC terminal jobs older than this")
    serve.add_argument("--retention-keep", type=int, default=None,
                       metavar="N",
                       help="GC oldest terminal jobs beyond the newest N "
                            "(pinned jobs are never collected)")
    serve.add_argument("--retention-tenant-bytes", type=int, default=None,
                       help="GC a tenant's oldest terminal jobs until its "
                            "campaign bytes fit this budget")
    serve.add_argument("--retention-interval", type=float, default=60.0,
                       metavar="SECONDS",
                       help="cadence of background GC passes (GC also runs "
                            "immediately under disk pressure)")
    serve.add_argument("--scrub-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="run a repairing fsck pass over the root at "
                            "this cadence, between scheduler ticks "
                            "(default: no scrubbing)")

    gc_cmd = sub.add_parser(
        "gc",
        help="crash-safe retention GC over a service root",
        description="Finish any interrupted reclamation a sealed "
                    "tombstone proves, then collect terminal jobs the "
                    "policy condemns via two-phase tombstone deletes — a "
                    "crash at any byte leaves every job fully live or "
                    "provably condemned, never half-deleted. Non-terminal "
                    "and pinned jobs are never collected. --compact also "
                    "rewrites surviving sealed archives without "
                    "superseded duplicate frames or damaged entries.",
    )
    gc_cmd.add_argument("root", help="service root directory (jobs/ + campaigns/)")
    gc_cmd.add_argument("--dry-run", action="store_true",
                        help="report what would be collected; write nothing")
    gc_cmd.add_argument("--max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="collect terminal jobs older than this")
    gc_cmd.add_argument("--keep", type=int, default=None, metavar="N",
                        help="collect oldest terminal jobs beyond the "
                             "newest N")
    gc_cmd.add_argument("--max-tenant-bytes", type=int, default=None,
                        help="collect a tenant's oldest terminal jobs "
                             "until its campaign bytes fit this budget")
    gc_cmd.add_argument("--compact", action="store_true",
                        help="also compact surviving terminal jobs' "
                             "campaign archives")
    gc_cmd.add_argument("--pin", nargs="+", default=[], metavar="JOB_ID",
                        help="exempt these jobs from GC before the pass")
    gc_cmd.add_argument("--unpin", nargs="+", default=[], metavar="JOB_ID",
                        help="clear these jobs' GC exemption before the pass")
    gc_cmd.add_argument("--json", action="store_true",
                        help="emit the machine-readable GC report")

    submit = sub.add_parser(
        "submit",
        help="submit a campaign job to the service",
        description="Queue one campaign job, either against a running "
                    "daemon (--url) or straight into a service root "
                    "(--root; admission rules still apply). A rejected "
                    "submission exits 6 with the reason on stderr.",
    )
    _service_target(submit)
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--job-id", default=None,
                        help="caller-chosen id (makes submission "
                             "idempotent across retries)")
    submit.add_argument("--size", default="32M", help="problem size (e.g. 1K)")
    submit.add_argument("--reps", type=int, default=1)
    submit.add_argument("--variants", nargs="+",
                        default=["Base_Seq", "RAJA_Seq"],
                        choices=sorted(VARIANTS), metavar="VARIANT")
    submit.add_argument("--machines", nargs="+", default=["SPR-DDR"],
                        choices=list(MACHINES), metavar="MACHINE")
    submit.add_argument("--kernels", nargs="+", default=[], metavar="KERNEL")
    submit.add_argument("--trials", type=int, default=1)
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument("--shards", type=int, default=0)
    submit.add_argument("--pack", action="store_true")
    submit.add_argument("--execute", action="store_true")
    submit.add_argument("--max-attempts", type=int, default=3,
                        help="per-kernel retry budget inside the campaign")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal; exit "
                             "reflects its final state")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds")
    _service_admission_flags(submit)

    jobs = sub.add_parser(
        "jobs",
        help="list jobs, show one job, or fetch its analyze result",
        description="Query the job store (--url for a daemon, --root "
                    "for the directory). --job narrows to one id; "
                    "--result prints its analyze JSON, byte-equal to "
                    "'analyze --json' on the campaign directory, exit 4 "
                    "when degraded. Unknown job ids exit 7.",
    )
    _service_target(jobs)
    jobs.add_argument("--tenant", default=None, help="filter by tenant")
    jobs.add_argument("--state", default=None, help="filter by state")
    jobs.add_argument("--job", default=None, metavar="JOB_ID",
                      help="show a single job instead of the list")
    jobs.add_argument("--result", action="store_true",
                      help="print the job's analyze JSON (requires --job)")
    jobs.add_argument("--metric", default="Avg time/rank")
    jobs.add_argument("--wait", action="store_true",
                      help="with --job: block until the job is terminal")
    jobs.add_argument("--timeout", type=float, default=600.0,
                      help="--wait deadline in seconds")

    cancel = sub.add_parser(
        "cancel",
        help="request cancellation of a service job",
        description="Drop the job's cancel marker; the scheduler stops "
                    "it on its next tick. Unknown job ids exit 7.",
    )
    _service_target(cancel)
    cancel.add_argument("job_id", help="id of the job to cancel")

    return parser


def _service_target(parser: argparse.ArgumentParser) -> None:
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", default=None,
                        help="base URL of a running daemon "
                             "(e.g. http://127.0.0.1:8642)")
    target.add_argument("--root", default=None,
                        help="operate directly on a service root directory")


def _service_admission_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-queued-per-tenant", type=int, default=16,
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-tenant-bytes", type=int, default=None,
                        help=argparse.SUPPRESS)


def _cmd_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.suite.errors import CampaignLockedError
    from repro.suite.executor import SuiteExecutor
    from repro.suite.manifest import MANIFEST_NAME, manifest_cells
    from repro.suite.report import STATUS_OK

    try:
        params = RunParams(
            problem_size=parse_size(args.size),
            reps=args.reps,
            variants=tuple(args.variants),
            machines=tuple(args.machines),
            groups=tuple(Group(g) for g in args.groups),
            kernels=tuple(args.kernels),
            features=tuple(Feature(f) for f in args.features),
            gpu_block_sizes=tuple(args.gpu_block_sizes),
            execute=args.execute,
            state_pool=not args.no_state_pool,
            trials=args.trials,
            write_csv=args.csv,
            # The shard merge combines per-shard archives, so sharded
            # campaigns are always packed.
            pack=args.pack or args.shards > 0,
            output_dir=args.output_dir,
            resume=args.resume,
            fail_fast=args.fail_fast,
            max_attempts=args.max_attempts,
            kernel_deadline_s=args.kernel_timeout,
            workers=args.workers,
            heartbeat_timeout=args.heartbeat_timeout,
            shards=args.shards,
            shard_lease_timeout=args.shard_lease_timeout,
            schedule=args.schedule,
            batch_cells=args.batch_cells,
            cost_from=args.cost_from,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exitcodes.USAGE
    executor = SuiteExecutor(params)
    try:
        if args.paper:
            result = executor.run_paper_configuration(write_files=True)
        else:
            result = executor.run(write_files=True)
    except CampaignLockedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exitcodes.CAMPAIGN_LOCKED
    for path in result.cali_paths:
        print(f"wrote {path}")
    # What the campaign holds, whichever run made it (a resume, a shard):
    # the manifest's ok cells that have a profile.
    cells = manifest_cells(Path(params.output_dir) / MANIFEST_NAME)
    held = sum(
        1 for cell in cells.values()
        if cell.get("status") == STATUS_OK and cell.get("file")
    )
    print(f"{held} profiles, {len(executor.selected_kernels())} kernels each")
    print(result.report.summary())
    if result.report.interrupted:
        return exitcodes.INTERRUPTED
    return exitcodes.OK if result.report.clean else exitcodes.UNCLEAN_RUN


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json as _json
    import warnings as _warnings

    from repro.dataframe import parse_expr
    from repro.thicket import ProfileLoadWarning, Thicket
    from repro.thicket.ingest_cache import default_cache_dir

    if args.incremental and args.no_cache:
        print("error: --incremental requires the ingest cache "
              "(drop --no-cache)", file=sys.stderr)
        return exitcodes.USAGE
    where = None
    if args.where is not None:
        try:
            where = parse_expr(args.where)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exitcodes.USAGE
    cache = None if args.no_cache else default_cache_dir(args.files[0])
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always", ProfileLoadWarning)
        thicket = Thicket.from_caliperreader(
            args.files,
            on_error="raise" if args.strict else "warn",
            workers=args.workers,
            cache=cache,
            where=where,
            incremental=args.incremental,
        )
    if not args.json:
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    # Degraded composition: some sources failed to load and the frames
    # cover only the survivors. Scripted pipelines read it from the JSON
    # ledger and from the distinct exit code.
    degraded = bool(thicket.load_errors)
    exit_code = exitcodes.DEGRADED_ANALYSIS if degraded else exitcodes.OK
    if args.json:
        # The payload shape is shared with the service's result endpoint
        # (repro.service.api), which is what keeps a service job result
        # byte-equal to a direct analyze of its campaign directory.
        from repro.service.api import analysis_payload

        print(_json.dumps(analysis_payload(thicket, args.metric), indent=1))
        return exit_code
    print(thicket)
    if args.tree:
        for profile in thicket.profiles:
            print()
            print(thicket.tree(metric=args.metric, profile=profile))
        return exit_code
    regions, profiles, matrix = thicket.metric_matrix(
        args.metric, region_filter=lambda s: "_" in s
    )
    header = f"{'Kernel':28s} " + " ".join(f"{str(p):>26s}" for p in profiles)
    print(header)
    for i, region in enumerate(regions):
        cells = " ".join(f"{v:>26.6g}" for v in matrix[i])
        print(f"{region:28s} {cells}")
    if degraded:
        print(
            f"analysis degraded: {len(thicket.load_errors)} source(s) "
            "failed to load (see warnings)",
            file=sys.stderr,
        )
    return exit_code


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.reporting import DESCRIPTIONS, run_all_experiments, run_experiment

    if not args.ids:
        results = run_all_experiments(output_dir=args.output_dir)
        for key, text in results.items():
            print(f"===== {key}: {DESCRIPTIONS[key]} =====")
            print(text)
            print()
        return 0
    for exp_id in args.ids:
        print(run_experiment(exp_id))
        print()
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.analysis import run_similarity_analysis
    from repro.reporting import fig6, fig7, fig8

    result = run_similarity_analysis(threshold=args.threshold, method=args.method)
    print(f"{len(result.kernel_names)} kernels, {result.num_clusters} clusters "
          f"({args.method} @ {args.threshold})\n")
    print(fig7(result))
    print()
    print(fig8(result))
    if args.dendrogram:
        print()
        print(fig6(result))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.analysis import render_curve, strong_scaling, weak_scaling
    from repro.machines.registry import get_machine
    from repro.suite.registry import get_kernel_class, make_kernel

    machine = get_machine(args.machine)
    if args.mode == "strong":
        kernel = make_kernel(args.kernel, problem_size=parse_size(args.size))
        curve = strong_scaling(kernel, machine)
    else:
        curve = weak_scaling(get_kernel_class(args.kernel), machine)
    print(render_curve(curve))
    print(f"parallel efficiency drops below 50% at {curve.saturation_cores()} cores")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.reporting import export_all

    for path in export_all(args.output_dir):
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.caliper import hot_regions, read_cali, runtime_report

    profile = read_cali(args.file)
    print(runtime_report(profile, metric=args.metric))
    if args.top:
        print(f"\nTop {args.top} regions by exclusive {args.metric}:")
        for name, value in hot_regions(profile, metric=args.metric, top=args.top):
            print(f"  {value:>14.6g}  {name}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "kernels":
        for cls in all_kernel_classes():
            print(f"{cls.class_full_name():30s} {cls.COMPLEXITY.value:8s} "
                  f"{','.join(sorted(f.value for f in cls.FEATURES))}")
    elif args.what == "groups":
        for group in Group:
            print(f"{group.value:12s} {group.description}")
    elif args.what == "variants":
        for name in sorted(VARIANTS):
            print(name)
    else:
        for machine in list_machines():
            print(machine)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.caliper.calipack import CalipackError, pack_directory
    from repro.thicket import Thicket
    from repro.thicket.ingest_cache import CACHE_DIR_NAME

    try:
        archive, entries = pack_directory(args.directory, remove=not args.keep)
    except (CalipackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"packed {len(entries)} profile(s) into {archive}")
    if not args.no_cache and entries:
        # Packing read every payload anyway: compose once now so the next
        # analyze over the archive is a pure cache load.
        import warnings as _warnings

        from pathlib import Path

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            try:
                Thicket.from_caliperreader(
                    str(archive),
                    on_error="warn",
                    cache=Path(args.directory) / CACHE_DIR_NAME,
                )
            except ValueError:
                pass  # nothing readable: pack succeeded, cache stays cold
        print(f"primed ingest cache in {Path(args.directory) / CACHE_DIR_NAME}")
    return 0


def _cmd_unpack(args: argparse.Namespace) -> int:
    from repro.caliper.calipack import CalipackError, unpack_archive

    try:
        written = unpack_archive(
            args.archive, directory=args.dir, remove=not args.keep
        )
    except (CalipackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_shard_status(args: argparse.Namespace) -> int:
    from repro.suite.coordinator import shard_status_report
    from repro.util.diskstat import (
        STATE_HARD,
        disk_free_bytes,
        watermarks_from_env,
    )

    report = shard_status_report(args.directory)
    print(report.text())
    # The ambient hard watermark degrades status like a dead lock holder
    # would: a campaign under it cannot durably make progress.
    disk_reasons = []
    watermarks = watermarks_from_env()
    if (
        watermarks.enabled
        and watermarks.state(args.directory) == STATE_HARD
    ):
        disk_reasons.append(
            f"disk free {disk_free_bytes(args.directory)} byte(s) at or "
            f"below the hard watermark ({watermarks.hard_free_bytes})"
        )
    # A readable shard map is the contract; anything else (not sharded,
    # or a map fsck must repair) is reported but exits unclean. A map
    # whose shards owe cells nobody live is working on — or that is
    # internally inconsistent — is the degraded state monitors key off.
    if not report.map_present:
        return exitcodes.UNCLEAN_RUN
    if report.degraded or disk_reasons:
        for reason in list(report.reasons) + disk_reasons:
            print(f"degraded: {reason}", file=sys.stderr)
        return exitcodes.DEGRADED_ANALYSIS
    return exitcodes.OK


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.suite.fsck import fsck_directory

    report = fsck_directory(
        args.directory,
        quarantine=not args.dry_run,
        mark_rerun=not (args.dry_run or args.no_rerun),
    )
    print(report.summary())
    return exitcodes.OK if report.clean else exitcodes.UNCLEAN_RUN


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.chaos.runner import ChaosRunner

    try:
        runner = ChaosRunner(
            seed=args.seed,
            trials_per_point=args.trials_per_point,
            points=args.points,
            modes=args.modes,
            workdir=args.workdir,
            keep=args.keep,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exitcodes.USAGE

    if args.self_test:
        result = runner.self_test()
        print(_json.dumps(result, indent=1))
        if not result["ok"]:
            print(
                "chaos self-test FAILED: a suppressed repair went "
                "undetected — the invariant checker is broken",
                file=sys.stderr,
            )
            return exitcodes.INVARIANT_VIOLATION
        return exitcodes.OK

    report = runner.run()
    out = report.to_json()
    print(out)
    if args.report:
        Path(args.report).write_text(out + "\n")
    if not report.ok:
        print(
            f"chaos: {len(report.violations)} trial(s) violated "
            f"invariants, {len(report.uncovered_points())} point(s) "
            "never struck",
            file=sys.stderr,
        )
        return exitcodes.INVARIANT_VIOLATION
    return exitcodes.OK


# ------------------------------------------------------------ service cmds
def _job_exit_code(state: str) -> int:
    """Map a terminal job state onto the process exit-code contract."""
    return {
        "SUCCEEDED": exitcodes.OK,
        "FAILED": exitcodes.UNCLEAN_RUN,
        "CANCELLED": exitcodes.INTERRUPTED,
        "ORPHANED": exitcodes.JOB_ORPHANED,
    }.get(state, exitcodes.UNCLEAN_RUN)


class _ServiceTarget:
    """One call surface over either a daemon URL or a root directory."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.service.admission import AdmissionPolicy
        from repro.service.api import ServiceAPI
        from repro.service.jobstore import JobStore
        from repro.util.diskstat import watermarks_from_env

        self.url = getattr(args, "url", None)
        self.api = None
        if self.url is None:
            # Flag-less commands pick the watermarks up from the ambient
            # env ($REPRO_DISK_SOFT_BYTES / $REPRO_DISK_HARD_BYTES), so a
            # direct-root submit honors the same disk backpressure the
            # daemon enforces.
            policy = AdmissionPolicy(
                max_queue_depth=getattr(args, "max_queue_depth", None),
                max_queued_per_tenant=getattr(
                    args, "max_queued_per_tenant", None
                ),
                max_tenant_bytes=getattr(args, "max_tenant_bytes", None),
                watermarks=watermarks_from_env(),
            )
            self.api = ServiceAPI(JobStore(args.root), policy)
        else:
            self.url = self.url.rstrip("/")

    def _call(self, method, route: str, body=None):
        if self.api is None:
            from repro.service.api import http_json

            return http_json(f"{self.url}{route}", payload=body)
        return method()

    def submit(self, spec, tenant, job_id):
        return self._call(
            lambda: self.api.submit(spec, tenant=tenant, job_id=job_id),
            "/api/jobs",
            {"spec": spec, "tenant": tenant, "job_id": job_id},
        )

    def status(self, job_id):
        return self._call(
            lambda: self.api.status(job_id), f"/api/jobs/{job_id}"
        )

    def list_jobs(self, tenant, state):
        query = "&".join(
            f"{k}={v}"
            for k, v in (("tenant", tenant), ("state", state))
            if v
        )
        return self._call(
            lambda: self.api.list_jobs(tenant=tenant, state=state),
            "/api/jobs" + (f"?{query}" if query else ""),
        )

    def cancel(self, job_id):
        return self._call(
            lambda: self.api.cancel(job_id), f"/api/jobs/{job_id}/cancel", {}
        )

    def result(self, job_id, metric):
        from urllib.parse import quote

        return self._call(
            lambda: self.api.result(job_id, metric=metric),
            f"/api/jobs/{job_id}/result?metric={quote(metric)}",
        )

    def wait_terminal(self, job_id: str, timeout: float):
        """Poll until the job is terminal; its final payload or None."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            status, payload = self.status(job_id)
            if status == 200 and payload["job"]["state"] in (
                "SUCCEEDED", "FAILED", "CANCELLED", "ORPHANED",
            ):
                return payload["job"]
            _time.sleep(0.2)
        return None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.admission import AdmissionPolicy
    from repro.service.daemon import ServiceDaemon
    from repro.service.retention import RetentionPolicy
    from repro.service.scheduler import SchedulerConfig
    from repro.util.diskstat import DiskWatermarks, watermarks_from_env

    if args.soft_free_bytes is not None or args.hard_free_bytes is not None:
        try:
            watermarks = DiskWatermarks(
                soft_free_bytes=args.soft_free_bytes,
                hard_free_bytes=args.hard_free_bytes,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exitcodes.USAGE
    else:
        watermarks = watermarks_from_env()
    try:
        retention = RetentionPolicy(
            max_age_s=args.retention_max_age,
            max_terminal_jobs=args.retention_keep,
            max_tenant_bytes=args.retention_tenant_bytes,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exitcodes.USAGE
    daemon = ServiceDaemon(
        args.root,
        host=args.host,
        port=args.port,
        policy=AdmissionPolicy(
            max_queue_depth=args.max_queue_depth,
            max_queued_per_tenant=args.max_queued_per_tenant,
            max_tenant_bytes=args.max_tenant_bytes,
            watermarks=watermarks,
        ),
        scheduler_config=SchedulerConfig(
            max_parallel=args.max_parallel,
            max_job_attempts=args.max_job_attempts,
            watermarks=watermarks if watermarks.enabled else None,
        ),
        retention=retention if retention.enabled else None,
        retention_interval=args.retention_interval,
        scrub_interval=args.scrub_interval,
    )
    print(f"serving {args.root} at {daemon.url}", flush=True)
    daemon.serve_forever()
    print("drained; bye", flush=True)
    return exitcodes.OK


def _cmd_gc(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.jobstore import JobError, JobStore
    from repro.service.retention import RetentionPolicy, gc

    try:
        policy = RetentionPolicy(
            max_age_s=args.max_age,
            max_terminal_jobs=args.keep,
            max_tenant_bytes=args.max_tenant_bytes,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exitcodes.USAGE
    store = JobStore(args.root)
    if not store.jobs_dir.is_dir():
        print(f"error: {args.root} is not a service root (no jobs/)",
              file=sys.stderr)
        return exitcodes.USAGE
    try:
        for job_id in args.pin:
            store.pin(job_id)
        for job_id in args.unpin:
            store.unpin(job_id)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exitcodes.JOB_NOT_FOUND
    report = gc(
        store, policy, dry_run=args.dry_run, compact=args.compact
    )
    if args.json:
        print(_json.dumps(report.to_payload(), indent=1))
    else:
        print(report.summary())
    return exitcodes.OK


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    try:
        spec = {
            "problem_size": parse_size(args.size),
            "reps": args.reps,
            "variants": list(args.variants),
            "machines": list(args.machines),
            "kernels": list(args.kernels),
            "trials": args.trials,
            "workers": args.workers,
            "shards": args.shards,
            "pack": args.pack or args.shards > 0,
            "execute": args.execute,
            "max_attempts": args.max_attempts,
        }
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exitcodes.USAGE
    target = _ServiceTarget(args)
    status, payload = target.submit(spec, args.tenant, args.job_id)
    if payload.get("rejected"):
        print(f"rejected: {payload.get('reason')}", file=sys.stderr)
        return exitcodes.JOB_REJECTED
    if status != 200:
        print(f"error: {payload.get('error', payload)}", file=sys.stderr)
        return exitcodes.USAGE
    job = payload["job"]
    print(f"job {job['job_id']} {job['state']}")
    if not args.wait:
        return exitcodes.OK
    final = target.wait_terminal(job["job_id"], args.timeout)
    if final is None:
        print(
            f"error: job {job['job_id']} not terminal after "
            f"{args.timeout:.3g}s",
            file=sys.stderr,
        )
        return exitcodes.UNCLEAN_RUN
    print(_json.dumps(final, indent=1))
    return _job_exit_code(final["state"])


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.jobstore import ALL_STATES

    if args.state is not None and args.state not in ALL_STATES:
        # The store's list filter silently returns nothing for unknown
        # states; a typo must be a usage error, not an empty listing.
        print(
            f"error: unknown state {args.state!r}; "
            f"one of {', '.join(sorted(ALL_STATES))}",
            file=sys.stderr,
        )
        return exitcodes.USAGE
    target = _ServiceTarget(args)
    if args.result and not args.job:
        print("error: --result requires --job", file=sys.stderr)
        return exitcodes.USAGE
    if args.wait and not args.job:
        print("error: --wait requires --job", file=sys.stderr)
        return exitcodes.USAGE
    if args.job is None:
        status, payload = target.list_jobs(args.tenant, args.state)
        for job in payload.get("jobs", []):
            progress = job.get("progress") or {}
            done = progress.get("ok", 0) + progress.get("failed", 0)
            total = progress.get("total", "?")
            print(
                f"{job['job_id']:24s} {job['tenant']:12s} "
                f"{job['state']:10s} {done}/{total} cells "
                f"attempt {job['attempts']}"
                + (f" [{job['reason']}]" if job.get("reason") else "")
            )
        disk = payload.get("disk") or {}
        if disk.get("state") == "hard":
            print(
                f"degraded: disk free {disk.get('free_bytes')} byte(s) at "
                f"or below the hard watermark "
                f"({disk.get('hard_free_bytes')}); claims are paused",
                file=sys.stderr,
            )
            return exitcodes.DEGRADED_ANALYSIS
        return exitcodes.OK
    if args.wait:
        final = target.wait_terminal(args.job, args.timeout)
        if final is None:
            print(
                f"error: job {args.job} not terminal after "
                f"{args.timeout:.3g}s",
                file=sys.stderr,
            )
            return exitcodes.UNCLEAN_RUN
    status, payload = target.status(args.job)
    if status == 404:
        print(f"error: {payload.get('error')}", file=sys.stderr)
        return exitcodes.JOB_NOT_FOUND
    if not args.result:
        print(_json.dumps(payload["job"], indent=1))
        return exitcodes.OK
    status, payload = target.result(args.job, args.metric)
    if status == 404:
        print(f"error: {payload.get('error')}", file=sys.stderr)
        return exitcodes.JOB_NOT_FOUND
    if status != 200:
        print(f"error: {payload.get('error', payload)}", file=sys.stderr)
        return exitcodes.UNCLEAN_RUN
    result = payload["result"]
    print(_json.dumps(result, indent=1))
    return (
        exitcodes.DEGRADED_ANALYSIS
        if result.get("degraded")
        else exitcodes.OK
    )


def _cmd_cancel(args: argparse.Namespace) -> int:
    target = _ServiceTarget(args)
    status, payload = target.cancel(args.job_id)
    if status == 404:
        print(f"error: {payload.get('error')}", file=sys.stderr)
        return exitcodes.JOB_NOT_FOUND
    print(f"cancel requested for {args.job_id}")
    return exitcodes.OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # One fault plan for the whole command: `run --inject-faults`, else
    # $REPRO_FAULTS. A malformed plan is a usage error, never ignored.
    try:
        raw = getattr(args, "inject_faults", None)
        plan = FaultPlan.parse(raw) if raw else FaultPlan.from_env()
    except ValueError as exc:
        print(f"error: invalid fault plan: {exc}", file=sys.stderr)
        return exitcodes.USAGE
    handlers = {
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "experiment": _cmd_experiment,
        "cluster": _cmd_cluster,
        "scaling": _cmd_scaling,
        "export": _cmd_export,
        "report": _cmd_report,
        "list": _cmd_list,
        "shard-status": _cmd_shard_status,
        "fsck": _cmd_fsck,
        "pack": _cmd_pack,
        "unpack": _cmd_unpack,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "gc": _cmd_gc,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "cancel": _cmd_cancel,
    }
    with plan if plan is not None else nullcontext():
        return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
