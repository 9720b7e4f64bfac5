"""Spans around calls into dualitylab's public functions, recorded from the
benchmark's side.

``Tracer.install`` replaces each public name in ``SITES`` at the module
attribute its callers read (``primal.wealth_from_strategy`` is the name
``solve_primal`` calls, ``dual.linprog`` the one the gate and the
certificate LPs call) with a wrapper that records one span per call: name,
start, end, parent span and run id, whether it returned (``ok``), plus the
counts read off its result when it did.  Spans
stay in memory until ``Tracer.dump`` writes them out.  ``layer_metrics``
turns a span list into the per-layer metrics; it needs neither numpy nor
dualitylab.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute, span name).  One span name may be wrapped at several
# import sites; "UtilityField.weight_array" is a method on the class.
SITES = [
    ("market", "build_example_market", "market.build"),
    ("market", "build_tree", "market.build"),
    ("harness", "build_example_market", "market.build"),
    ("harness", "build_geometry", "treeops.geometry"),
    ("primal", "build_geometry", "treeops.geometry"),
    ("dual", "build_geometry", "treeops.geometry"),
    ("harness", "full_polytope_matrices", "treeops.polytope"),
    ("dual", "full_polytope_matrices", "treeops.polytope"),
    ("primal", "wealth_from_strategy", "treeops.wealth"),
    ("primal", "ensure_full_density", "gate"),
    ("dual", "ensure_full_density", "gate"),
    ("dual", "find_interior", "gate"),
    ("dual", "linprog", "lp"),
    ("harness", "linprog", "lp"),
    ("harness", "solve_primal", "primal.solve"),
    ("harness", "solve_dual", "dual.solve"),
    ("harness", "superreplication_price", "harness.superrep"),
    ("harness", "dual_superrep_price", "harness.superrep"),
    ("harness", "optimality_relations_check", "harness.check"),
    ("harness", "conjugacy_check", "harness.check"),
    ("primal", "admissibility_check", "harness.check"),
    ("harness", "write_convergence_csv", "cli.emit"),
    ("harness", "write_example_csv", "cli.emit"),
    ("harness", "write_summary_json", "cli.emit"),
    ("utility", "UtilityField.weight_array", "utility.weight"),
]


def _nbytes(values):
    return sum(getattr(v, "nbytes", 0) for v in values)


# Counts read off a call's result, by span name.
EXTRACT = {
    "market.build": lambda model: {"nodes": model.n_nodes},
    "treeops.geometry": lambda geo: {"dense_bytes": _nbytes(vars(geo).values())},
    "treeops.polytope": lambda mats: {"dense_bytes": _nbytes(mats)},
    "primal.solve": lambda sol: {"iters": sol.iterations},
    "dual.solve": lambda sol: {"iters": sol.iterations},
}


class Tracer:
    """In-memory span recorder for one run of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, name):
        extract = EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            span["ok"] = False
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            # Only a call that returned has a result to read counts off.
            span["ok"] = True
            if extract is not None:
                span.update(extract(result))
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every site in SITES; ``modules`` maps module names to modules."""
        for mod_name, attr, name in SITES:
            owner = modules[mod_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            setattr(owner, path[-1], self.wrap(getattr(owner, path[-1]), name))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


# LP spans are attributed to the nearest of these enclosing spans.
_LP_OWNERS = ("gate", "harness.superrep", "dual.solve")


def layer_metrics(spans) -> dict:
    """Per-layer times (s) and counts from one run's spans.

    A layer's time sums its outermost spans, so a gate call nested in
    another gate call is not counted twice; ``self_s`` subtracts the time
    covered by child spans.  A span whose call raised adds its time but no
    counts; ``trace.raised`` counts those spans.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def outer(name):
        return [s for s in spans if s["name"] == name
                and all(a["name"] != name for a in ancestors(s))]

    def total(group):
        return sum(s["end"] - s["start"] for s in group)

    def self_time(group):
        return sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in group)

    lp_by_owner = {owner: [] for owner in _LP_OWNERS}
    for s in spans:
        if s["name"] == "lp":
            owner = next((a["name"] for a in ancestors(s) if a["name"] in _LP_OWNERS), None)
            if owner is not None:
                lp_by_owner[owner].append(s)

    builds = outer("market.build")
    geometry = outer("treeops.geometry")
    polytope = outer("treeops.polytope")
    wealth = outer("treeops.wealth")
    gate = outer("gate")
    primal = outer("primal.solve")
    dual = outer("dual.solve")
    weights = outer("utility.weight")
    dense = [s.get("dense_bytes", 0) for s in geometry + polytope]
    return {
        "market.build_s": total(builds),
        "market.nodes": sum(s.get("nodes", 0) for s in builds),
        "treeops.geometry_s": total(geometry),
        "treeops.geometry_calls": len(geometry),
        "treeops.polytope_s": total(polytope),
        "treeops.polytope_calls": len(polytope),
        "treeops.wealth_s": total(wealth),
        "treeops.wealth_calls": len(wealth),
        "treeops.dense_mb": max(dense, default=0) / 1e6,
        "gate.s": total(gate),
        "gate.calls": len(gate),
        "gate.lp_calls": len(lp_by_owner["gate"]),
        "gate.lp_s": total(lp_by_owner["gate"]),
        "primal.s": total(primal),
        "primal.self_s": self_time(primal),
        "primal.solves": len(primal),
        "primal.newton_iters": sum(s.get("iters", 0) for s in primal),
        "dual.s": total(dual),
        "dual.self_s": self_time(dual),
        "dual.solves": len(dual),
        "dual.newton_iters": sum(s.get("iters", 0) for s in dual),
        "dual.cert_lp_calls": len(lp_by_owner["dual.solve"]),
        "dual.cert_lp_s": total(lp_by_owner["dual.solve"]),
        "harness.superrep_s": total(outer("harness.superrep")),
        "harness.superrep_lp_s": total(lp_by_owner["harness.superrep"]),
        "harness.check_s": total(outer("harness.check")),
        "utility.weight_calls": len(weights),
        "utility.weight_s": total(weights),
        "cli.emit_s": total(outer("cli.emit")),
        "trace.spans": len(spans),
        "trace.raised": sum(not s["ok"] for s in spans),
    }


def layer_unit(name: str) -> str:
    if name == "treeops.dense_mb":
        return "MB-computed"
    return "s" if name.endswith(("_s", ".s")) else "count"


# Layer metrics that are counts and must repeat exactly run against run.
EXACT_COUNTS = (
    "market.nodes",
    "treeops.dense_mb",
    "gate.lp_calls",
    "dual.cert_lp_calls",
    "primal.newton_iters",
    "dual.newton_iters",
)
