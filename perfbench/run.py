"""End-to-end pipeline benchmark: campaign, EDA and service workloads.

Run from the repository root::

    python3 perfbench/run.py --workload model_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics. Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the readable report and the environment capture. Any failed or
mismatched operation makes the exit status 1.

``--ablate`` reruns ``executed_sweep``, ``model_sweep`` and
``eda_queries`` with one optimisation knob flipped at a time and prints
each knob's change on every end-to-end metric against its base.

The benchmark imports the program from ``src/`` next to this directory
and writes only under ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import time

# Set-up is timed from here: the program's imports count toward it.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports nothing from the program)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: end-to-end metric -> unit; every workload reports every one
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 3
#: operations in a traced run; every other one is traced
TRACE_OPS = {
    "executed_sweep": 4, "model_sweep": 4, "eda_queries": 400, "service_jobs": 60,
}
ABLATED_WORKLOADS = ("executed_sweep", "model_sweep", "eda_queries")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--knob", default=None, choices=list(workloads.KNOBS),
                        help="flip one optimisation knob (see --ablate)")
    parser.add_argument("--ablate", action="store_true",
                        help="print the one-knob-at-a-time ablation table")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.ablate and args.workload is None:
        parser.error("--workload is required")
    return args


# ------------------------------------------------------------ environment
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict[str, object]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------- set-up
def _setup(args, work: Path):
    """The workload, set up; the set-up time counts from ``_T0``."""
    knobs = workloads.KNOBS[args.knob] if args.knob else workloads.Knobs()
    workload = workloads.make(args.workload)
    workload.setup(work, args.seed, knobs)
    return workload, time.perf_counter() - _T0


def _probe_setup(args) -> float:
    """One more set-up in a fresh interpreter, so imports are cold too."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.knob:
        cmd += ["--knob", args.knob]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ------------------------------------------------------------------- runs
def _traced(args, workload, work: Path) -> tuple[dict, object]:
    """A traced run: wrappers installed before the work starts, and
    every other operation traced, so the untraced ones give the
    tracing overhead on the same workload."""
    import layers
    from spans import Tracer

    tracer = Tracer(work / "trace")
    tracer.install(layers.WRAP_POINTS)
    try:
        outcome = workload.measure(0, tracer=tracer, min_ops=TRACE_OPS[args.workload])
    finally:
        tracer.uninstall()
    data = tracer.collect()
    metrics = layers.layer_metrics(data, outcome.workers, outcome.kernel_runs)
    traced = [t for t, on in zip(outcome.op_s, outcome.op_traced) if on]
    untraced = [t for t, on in zip(outcome.op_s, outcome.op_traced) if not on]
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics, outcome


def _report_lines(args, metrics, units, outcome, setup_samples) -> list[str]:
    lines = [f"# perfbench {args.workload} seed={args.seed} trace={args.trace}"
             + (f" knob={args.knob}" if args.knob else "")]
    lines.append(f"{'setup_s':32s} {statistics.median(setup_samples):12.6g} s"
                 f"  n={len(setup_samples)}")
    if args.trace:
        for name, value in metrics.items():
            lines.append(f"{name:32s} {value:12.6g} {units[name]}")
    else:
        for name, (value, unit, n) in outcome.report.items():
            lines.append(f"{name:32s} {value:12.6g} {unit}  n={n}")
        lines.append(f"{'peak_rss_mb':32s} {metrics['peak_rss_mb']:12.6g} MB")
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    lines.append(f"{'failed_op_share':32s} {share:12.6g} ratio"
                 f"  ({outcome.failed}/{outcome.attempted})")
    for problem in outcome.mismatches[:20]:
        lines.append(f"MISMATCH {problem}")
    return lines


def run_workload(args) -> int:
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload, setup_s = _setup(args, work / "main")
        if args.setup_probe:
            workload.teardown()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        try:
            if args.trace:
                metrics, outcome = _traced(args, workload, work)
            else:
                outcome = workload.measure(args.seconds)
                metrics = dict(outcome.metrics)
        finally:
            workload.teardown()
        if args.trace:
            import layers

            setup_samples = [setup_s]
            units = layers.per_layer_units()
        else:
            metrics["peak_rss_mb"] = peak_rss_mb()  # before the probes run
            setup_samples = [setup_s] + [
                _probe_setup(args) for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics["setup_s"] = statistics.median(setup_samples)
            units = END_TO_END
        correct = outcome.failed == 0 and not outcome.mismatches
        for line in _report_lines(args, metrics, units, outcome, setup_samples):
            print(line)
        env = environment(args.seed)
        env["workload"] = args.workload
        env["counts"] = outcome.counts
        print("environment " + json.dumps(env, sort_keys=True))
        print(json.dumps({
            "correct": correct,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


# --------------------------------------------------------------- ablation
def _last_json(args, workload: str, knob: str | None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    if knob:
        cmd += ["--knob", knob]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} {knob}: no output\n{proc.stderr}")
    return json.loads(lines[-1])


def ablate(args) -> int:
    """One knob flipped per run, each bracketed by base runs.

    Machine speed drifts over minutes, so a knob run is compared with the
    mean of the base runs just before and after it, not with one base
    measured at the start.
    """
    print(f"# knob ablation: seed={args.seed} seconds={args.seconds}; base = "
          f"mean of the base runs around the knob run; change = knob / base - 1")
    print(f"{'workload':15s} {'knob':16s} {'metric':12s} {'base':>12s} "
          f"{'knob value':>12s} {'change':>8s}")
    all_correct = True
    for workload in ABLATED_WORKLOADS:
        before = _last_json(args, workload, None)
        all_correct &= before["correct"]
        for knob in workloads.KNOBS:
            flipped = _last_json(args, workload, knob)
            after = _last_json(args, workload, None)
            all_correct &= flipped["correct"] and after["correct"]
            for name in END_TO_END:
                b = (before["metrics"][name]["value"]
                     + after["metrics"][name]["value"]) / 2
                k = flipped["metrics"][name]["value"]
                print(f"{workload:15s} {knob:16s} {name:12s} {b:12.6g} "
                      f"{k:12.6g} {k / b - 1.0:+8.1%}")
            before = after
    print(f"# all runs correct: {all_correct}")
    return 0 if all_correct else 1


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.ablate:
        return ablate(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
