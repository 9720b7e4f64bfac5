"""Benchmark entry point: run one workload for a fixed time, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition of the workload runs in
a fresh worker process (``perfbench/worker.py``) that imports dualitylab
from ``src/`` with BLAS pinned to one thread, so set-up time and peak
memory belong to that repetition alone.  Repetitions go on while the next
one is expected to end within ``--seconds`` (at least ``MIN_REPS``).

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones plus the tracing overhead
(traced minus untraced wall time).  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, every repetition's wall time and each failed
check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

WORKLOADS = ("sweep", "deep", "wide")
BLAS_THREADS = "1"
MIN_REPS = 2
# Stop starting repetitions past this many seconds, and kill a worker that
# would outlast DEADLINE, so a run always ends within the 180 s it is given.
LAST_START = 120.0
DEADLINE = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "fraction"}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(root: Path, workload: str, seed: int, traced: bool, started: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE - (t0 - started)))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed"] = time.perf_counter() - t0
    return rep


def tail_percentile(values):
    """Highest percentile with at least ten runs beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dualitylab" / "__init__.py").is_file():
        print(f"no dualitylab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    plain, traced = [], []
    while True:
        try:
            if args.trace and len(traced) < len(plain):
                traced.append(run_worker(root, args.workload, args.seed, True, started))
            else:
                plain.append(run_worker(root, args.workload, args.seed, False, started))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        reps = plain + traced
        elapsed = time.perf_counter() - started
        expected_end = elapsed + statistics.median(r["elapsed"] for r in reps)
        done = len(traced) == len(plain) if args.trace else len(plain) >= MIN_REPS
        if done and (expected_end > args.seconds or elapsed > LAST_START):
            break

    ops = [op for r in reps for op in r["operations"]]
    failures = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failures if not op["known_defect"]]
    walls = [r["wall_s"] for r in plain]

    if args.trace:
        layers = [r["layers"] for r in traced]
        layer_values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        layer_values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - statistics.median(walls)
        )
        counts_repeat = all(l[k] == layers[0][k] for l in layers for k in tracing.EXACT_COUNTS)
        metrics = {name: {"value": value, "unit": tracing.layer_unit(name)}
                   for name, value in layer_values.items()}
    else:
        counts_repeat = True
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_frac": 1.0 - len(failures) / len(ops),
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": reps[0]["env"],
        "wall_s": {"runs": len(walls), "median": statistics.median(walls), "values": walls,
                   "tail": tail_percentile(walls)},
        "cpu_s": [r["cpu_s"] for r in plain],
        "fail_frac": len(failures) / len(ops),
        "exact_counts": {k: layers[0][k] for k in tracing.EXACT_COUNTS} if args.trace else None,
        "exact_counts_repeat": counts_repeat,
        "failed_checks": sorted({(c["check"], c["known_defect"], c["detail"])
                                 for op in failures for c in op["failed"]}),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not unexpected and counts_repeat,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
