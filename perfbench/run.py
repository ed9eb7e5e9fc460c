"""Run one workload of the pipeline benchmark.

From the repository root::

    python3 perfbench/run.py --workload digg-2k --seed 1 --seconds 3 --trace 0

The launcher pins every BLAS pool to one thread per process before
numpy loads, so the two-worker hogwild workload puts two threads on two
cores, not four.  It runs the ``repro`` package from this checkout's
``src`` directory and refuses any other copy.  It prints a
human-readable report, then one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``).  A failed output check exits with status 1;
a missing program source exits with status 2, printing no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space inside the checkout: store shards and written traces.
WORKDIR = ROOT / ".perfbench"
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)
def host_record(seed: int) -> dict[str, object]:
    """The machine and library versions a run's numbers belong to."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def stop_helper_processes() -> None:
    """Reap every process the run started, so none outlives this one.

    The hogwild trainer joins its workers, but its shared-memory blocks
    also start the interpreter's resource-tracker process, which would
    otherwise exit only some time after this process has gone.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the open-loop query phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != source.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        return 2

    import checks
    import pipeline
    import spec

    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(spec.WORKLOADS)}")
    host = host_record(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    try:
        result = pipeline.run_workload(
            spec.WORKLOADS[args.workload],
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=WORKDIR,
            host=host,
        )
    except checks.CheckFailed as failure:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
        return 1
    finally:
        stop_helper_processes()
    table = spec.PER_LAYER if args.trace else spec.END_TO_END + spec.STAGE_FIGURES
    for metric in table:
        entry = result.metrics.get(metric.name) or result.reported[metric.name]
        gated = "" if metric.bound is None else f", bound {metric.bound}"
        print(f"{metric.name:<28} {entry['value']:>16.6g} {metric.unit:<6} "
              f"({metric.better} is better{gated})")
    print(json.dumps(result.payload()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
