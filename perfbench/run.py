"""End-to-end and per-layer benchmark for hmrag.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload local_large --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Each run generates a seeded world, ingests it the way ``hmrag ingest``
does (several times, for the set-up time), then asks a fixed number of
questions through ``Pipeline.run_query`` in a closed loop: one client,
one question at a time, as ``hmrag eval`` does. Every answer is checked.
``--trace 1`` adds a traced pass over the same questions and reports the
per-layer metrics instead of the end-to-end ones. The last line printed
is one JSON object: correct, attempted, failed and metrics. The run
exits non-zero when any answer or self-check is wrong.

hmrag is imported from ``src/`` next to this directory, never from an
installed copy; without it the run fails before measuring anything.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("remote_small", "local_small", "local_large")


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts, on one CPU.

    On a shared 2-vCPU machine, the fan-out threads handing the interpreter
    lock across CPUs made local_small about 3x slower and its run-to-run
    spread about 3x wider than on one CPU, by amounts that followed the
    host's load rather than the program. Pinning happens before numpy is
    imported, so its worker threads inherit the same CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh process so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    if not (SRC / "hmrag" / "__init__.py").is_file():
        sys.exit(f"perfbench: hmrag sources not found at {SRC}; run from a checkout root")
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import hmrag

    if Path(hmrag.__file__).resolve().parent != (SRC / "hmrag").resolve():
        sys.exit(f"perfbench: imported hmrag from {hmrag.__file__}, not from {SRC}")
    import bench

    return bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
