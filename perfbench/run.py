"""smpe benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mixture-32 --seed 4242 --seconds 50 --trace 0

It imports ``smpe`` from the checkout's ``src/`` and nowhere else, and
exits with code 2 when those sources are absent. Before it imports numpy it
pins itself to the last CPU it may run on: on a shared virtual machine the
cores can differ in speed by a third for this code, and a run that lands on
either core at random makes the timings bimodal. With ``--trace 0`` it
reports the end-to-end metrics of untraced runs; with ``--trace 1`` the
per-layer metrics of a traced run, whose spans it writes to
``perfbench/out/``. Before the result it prints one line per metric and a
``context`` JSON line (machine, settings, output digest, failure share).
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 1 when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "SMPE_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> tuple:
    """Pin this thread, and the threads it starts later, to the last allowed
    CPU; returns (allowed CPU count, the CPU)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus), cpus[-1]


def machine(nproc: int, cpu: int) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
        "commit": _commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "smpe" / "__init__.py").is_file():
        print(f"perfbench: no smpe sources at {src}", file=sys.stderr)
        return 2
    nproc, cpu = pin_to_one_cpu()
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
        report = workloads.run_traced(workload, args.seed, trace_path)
    else:
        trace_path = None
        report = workloads.run_untraced(workload, args.seed, args.seconds)

    correct = report.failed == 0
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_file": None if trace_path is None else str(trace_path.relative_to(ROOT)),
        "machine": machine(nproc, cpu),
        "digest": report.digest,
        "failure_share": report.failed / report.attempted,
        "failures": report.failures[:20],
        "pool_excluded": workloads.load_pools()[workload.name]["excluded"],
        **report.context,
    }
    for name, metric in report.metrics.items():
        print(f"{workload.name} {name} {metric['value']!r} {metric['unit']}")
    print(f"{workload.name} failed {report.failed}/{report.attempted}")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
