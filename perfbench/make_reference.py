"""Regenerate the sweep workload's stored u/v curves.

Run from the checkout root on the commit whose answers are the reference:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Writes ``perfbench/reference/sweep.json`` with the curves of seeds
0 .. ``workloads.REFERENCE_SEEDS`` - 1.  Every sweep run compares its curves
against those of its seed mod ``REFERENCE_SEEDS`` at ``workloads.REFERENCE_TOL``.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    x_grid, y_grid = workloads.sweep_grids()
    seeds = {}
    for seed in range(workloads.REFERENCE_SEEDS):
        curves = workloads.sweep_curves(workloads.setup_sweep(seed))
        # Twelve significant digits are ample for a comparison at 1e-7.
        seeds[str(seed)] = {k: [[float(f"{x:.12g}") for x in row] for row in getattr(curves, k)]
                            for k in ("u", "v")}
        print(f"seed {seed} done", flush=True)
    data = {
        "levels": list(range(1, workloads.SWEEP_N + 1)),
        "x_grid": x_grid.tolist(),
        "y_grid": y_grid.tolist(),
        "seeds": seeds,
    }
    workloads.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
