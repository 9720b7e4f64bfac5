"""One repetition of one workload, in a process of its own.

Run from the checkout root with ``src`` on PYTHONPATH (``run.py`` does so):

    python3 perfbench/worker.py --workload sweep --seed 0 [--trace]

Times set-up (importing dualitylab and building the workload's models) and
the workload itself with its checks, reads the process's peak resident
memory, and prints one JSON object as its last line.  The workload writes
its files under ``.perfbench/<workload>``.  With ``--trace`` it traces the
calls into dualitylab, writes the spans to ``spans.json`` there and adds
the per-layer metrics to its output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = Path(".perfbench") / args.workload

    t0 = time.perf_counter()
    import numpy as np
    import scipy

    import dualitylab
    from dualitylab import dual, harness, market, primal, utility

    import workloads

    src = Path.cwd().resolve() / "src"
    if src not in Path(dualitylab.__file__).resolve().parents:
        print(f"dualitylab was imported from {dualitylab.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install({"market": market, "harness": harness, "primal": primal,
                        "dual": dual, "utility": utility})
    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_s = time.perf_counter() - t0

    out.mkdir(parents=True, exist_ok=True)
    t1, c1 = time.perf_counter(), time.process_time()
    ledger = run(inputs, args.seed, out)
    wall_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "operations": ledger.operations(),
        "env": environment(np, scipy),
    }
    if tracer is not None:
        tracer.dump(out / "spans.json")
        result["layers"] = tracing.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
