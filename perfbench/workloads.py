"""The benchmark's three workloads: seeded inputs, the calls into
dualitylab, and the checks that certify each answer.

Every call goes through a module attribute (``harness.solve_primal`` style
names are what ``tracing`` wraps), so a traced run sees the same calls as
an untraced one.  Seed 0 gives the stated configurations exactly; any
other seed shifts the up-probabilities inside a band where every model
stays arbitrage-free and every study's preconditions hold.  The sweep
uses seed mod ``REFERENCE_SEEDS``, so that every sweep run has stored
curves to compare against.
"""

from __future__ import annotations

import csv
import json
import traceback
from pathlib import Path

import numpy as np

from dualitylab import harness, market, primal
from dualitylab.utility import UtilityField

BOUNDED = UtilityField(family="bounded", alpha=0.5, beta=2.0)
POWER = UtilityField(family="power", gamma=0.5)

# Seeds other than 0 shift each up-probability of a ladder by a uniform draw
# in [-LADDER_BAND, LADDER_BAND].  The ladders step by at least 0.035, so
# they stay strictly increasing, and the first rung stays above 0.542, clear
# of the bounded field's threshold 0.5395 that the portfolio study requires.
LADDER_BAND = 0.008
# The deep tree's up-probability is 0.6 shifted within +-DEEP_BAND; any p in
# (0, 1) is arbitrage-free with moves 2 and 1/2.
DEEP_BAND = 0.02

SWEEP_N = 10
SWEEP_STEP = 0.04
WIDE_N = 12
WIDE_STEP = 0.035
DEEP_PERIODS = 9
DEEP_P = 0.6
DEEP_XS = (0.5, 1.0, 2.0)

SWEEP_TOL = 1e-9
PAIR_TOL = 1e-8
CHECK_TOL = 1e-6
MONOTONE_TOL = 1e-7
SANDWICH_FLOOR = -1e-8
SANDWICH_SLACK = 1e-3
LP_GAP_TOL = 1e-8
CAP_SLACK = 1e-6
REFERENCE_TOL = 1e-7
REFERENCE_PATH = Path(__file__).with_name("reference") / "sweep.json"
# The sweep's distinct inputs, and the seeds whose curves REFERENCE_PATH holds.
REFERENCE_SEEDS = 32

# Checks that fail on the seed commit for a documented defect (see NOTES.md):
# their operation counts as failed, but the run is not marked incorrect.
KNOWN_DEFECTS = {
    "wide": ("pair/marginal", "pair/conjugacy"),
}


class Ledger:
    """The operations of one workload run and the checks that certify each.

    Check names read "operation/check".  An operation fails when its call
    raised or any of its checks failed; a declared check that the run never
    reached, because a call before it raised, counts as failed.
    """

    def __init__(self, names, known=()):
        self.names = list(names)
        self.known = set(known)
        self.results = {}

    def check(self, name, ok, detail=""):
        if name not in self.names:
            raise KeyError(f"undeclared check {name!r}")
        self.results[name] = (bool(ok), detail)

    def crashed(self, name, exc):
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        self.check(name, False, f"{type(exc).__name__}: {exc} ({frame.filename}:{frame.lineno})")

    def operations(self):
        ops = {}
        for name in self.names:
            ok, detail = self.results.get(name, (False, "not reached"))
            op = ops.setdefault(name.split("/")[0], {"ok": True, "failed": []})
            if not ok:
                op["ok"] = False
                op["failed"].append({"check": name, "known_defect": name in self.known,
                                     "detail": detail})
        return [
            {"op": name, "ok": op["ok"], "failed": op["failed"],
             "known_defect": not op["ok"] and all(f["known_defect"] for f in op["failed"])}
            for name, op in ops.items()
        ]


# ---------------------------------------------------------------------------
# Inputs


def ladder_spec(n, step, seed):
    """Independent-binomial spec with p_i = 0.55 + step * i, shifted for seed != 0."""
    p = [0.55 + step * i for i in range(n)]
    if seed:
        shift = np.random.default_rng(seed).uniform(-LADDER_BAND, LADDER_BAND, n)
        p = [q + float(d) for q, d in zip(p, shift)]
    return market.ExampleMarketSpec(n, tuple(p))


def deep_up_probability(seed):
    if not seed:
        return DEEP_P
    return DEEP_P + float(np.random.default_rng(seed).uniform(-DEEP_BAND, DEEP_BAND))


def binomial_tree(periods, p, up=2.0, down=0.5):
    """Iid binomial asset on a (non-recombining) tree, clock 1/periods at every date."""
    nodes = [{"id": 0, "t": 0, "parent": None}]
    prices = {0: [1.0]}
    clock = {0: 0.0}
    level = [(0, 1.0)]
    nid = 1
    for t in range(1, periods + 1):
        nxt = []
        for pid, s in level:
            for move, prob in ((up, p), (down, 1.0 - p)):
                nodes.append({"id": nid, "t": t, "parent": pid, "prob": prob})
                prices[nid] = [s * move]
                clock[nid] = 1.0 / periods
                nxt.append((nid, s * move))
                nid += 1
        level = nxt
    return market.build_tree(
        {"nodes": nodes, "prices": prices, "clock": clock, "A": 1.0, "n_active": 1}
    )


def sweep_grids():
    return np.unique(np.append(harness.default_grid(), 1.0)), harness.default_grid()


def sweep_curves(model):
    x_grid, y_grid = sweep_grids()
    return harness.value_convergence_study(
        model, BOUNDED, x_grid, y_grid, range(1, SWEEP_N + 1), tol=SWEEP_TOL
    )


def load_reference(seed):
    """Stored sweep curves for this seed."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["seeds"][str(seed % REFERENCE_SEEDS)]


# ---------------------------------------------------------------------------
# Shared checks


def csv_rows(path):
    """Data rows of an emitted CSV file, header excluded."""
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def call_payoff(model, asset, strike=1.0):
    prices = model.assets.prices[model.tree.leaves, asset]
    return np.maximum(prices - strike, 0.0)


def check_pair(ledger, model, field, x, tag):
    """Primal/dual pair at x: marginal and budget relations, the conjugacy
    identity u(x) = v(y) + x y, and admissibility of the primal plan."""
    try:
        p_sol, d_sol, y = harness.pair_solutions(model, field, x, tol=PAIR_TOL)
        rel = harness.optimality_relations_check(p_sol, d_sol, tol=CHECK_TOL)
        adm = primal.admissibility_check(model, p_sol.H, p_sol.c, x)
    except Exception as exc:  # a solver raise is a failed operation
        ledger.crashed(f"{tag}/solve", exc)
        return
    ledger.check(f"{tag}/solve", True, f"u={p_sol.value:.10g} y={y:.10g}")
    ledger.check(f"{tag}/marginal", rel.marginal_ok,
                 f"worst {rel.worst_marginal_rel:.3g} at node {rel.worst_node}")
    ledger.check(f"{tag}/budget", rel.budget_ok, f"{rel.budget_rel:.3g}")
    gap = abs(p_sol.value - d_sol.value - x * y)
    ledger.check(f"{tag}/conjugacy", gap <= CHECK_TOL, f"|u - v - xy| = {gap:.3g}")
    ledger.check(f"{tag}/admissible", adm.passed, f"min wealth {adm.min_wealth:.3g}")


def pair_checks(tag):
    return [f"{tag}/{part}" for part in ("solve", "marginal", "budget", "conjugacy", "admissible")]


def check_superrep(ledger, model, payoff):
    """Both superreplication LPs agree, and the LP's holdings finance the claim."""
    try:
        claim = harness.terminal_payoff_claim(model, payoff)
        sup = harness.superreplication_price(model, claim)
        dual_price = harness.dual_superrep_price(model, claim)
        adm = primal.admissibility_check(model, sup.holdings, claim, sup.price)
    except Exception as exc:
        ledger.crashed("superrep/gap", exc)
        return
    gap = abs(sup.price - dual_price)
    ledger.check("superrep/gap", gap <= LP_GAP_TOL, f"price {sup.price:.10g}, gap {gap:.3g}")
    ledger.check("superrep/admissible", adm.passed, f"min wealth {adm.min_wealth:.3g}")


SUPERREP_CHECKS = ["superrep/gap", "superrep/admissible"]


# ---------------------------------------------------------------------------
# sweep: criterion-5 convergence study


def setup_sweep(seed):
    return market.build_example_market(ladder_spec(SWEEP_N, SWEEP_STEP, seed % REFERENCE_SEEDS))


def run_sweep(model, seed, outdir):
    reference = load_reference(seed)
    ledger = Ledger(["study/solve", "study/monotone", "study/tail_below_head", "study/sandwich",
                     "study/reference.u", "study/reference.v", "emit/files"])
    try:
        curves = sweep_curves(model)
        summary = harness.convergence_summary(curves)
    except Exception as exc:
        ledger.crashed("study/solve", exc)
        return ledger
    ledger.check("study/solve", True, f"{curves.u.size + curves.v.size} solves")

    u, v = curves.u, curves.v
    drop = max(float(np.max(u[:-1] - u[1:])), float(np.max(v[:-1] - v[1:])))
    ledger.check("study/monotone", drop <= MONOTONE_TOL, f"worst drop {drop:.3g}")

    i1 = int(np.flatnonzero(np.isclose(curves.x_grid, 1.0))[0])
    u1 = u[:, i1]
    tail = abs(u1[-1] - u1[-2])
    head = abs(u1[1] - u1[0])
    ledger.check("study/tail_below_head", tail < head, f"tail {tail:.3g}, head {head:.3g}")

    entry = summary["sandwich"][i1]
    ledger.check(
        "study/sandwich",
        SANDWICH_FLOOR <= entry["gap"] <= SANDWICH_SLACK + entry["resolution"],
        f"gap {entry['gap']:.3g}, resolution {entry['resolution']:.3g}",
    )

    for kind, values in (("u", u), ("v", v)):
        ref = np.asarray(reference[kind])
        err = float(np.max(np.abs(values - ref) / np.maximum(1.0, np.abs(ref))))
        ledger.check(f"study/reference.{kind}", err <= REFERENCE_TOL, f"worst relative {err:.3g}")

    csv_path = outdir / "convergence.csv"
    json_path = outdir / "summary.json"
    try:
        harness.write_convergence_csv(curves, csv_path)
        harness.write_summary_json(summary, json_path)
        rows = csv_rows(csv_path)
        with open(json_path, encoding="utf-8") as fh:
            levels = json.load(fh)["levels"]
    except Exception as exc:
        ledger.crashed("emit/files", exc)
        return ledger
    expected_rows = 2 * len(curves.n_values) * (curves.x_grid.size + curves.y_grid.size)
    ledger.check("emit/files", rows == expected_rows and levels == curves.n_values,
                 f"{rows} csv rows of {expected_rows}")
    return ledger


# ---------------------------------------------------------------------------
# deep: 9-period binomial tree, pairs and superreplication


def setup_deep(seed):
    return binomial_tree(DEEP_PERIODS, deep_up_probability(seed))


def run_deep(model, seed, outdir):
    tags = [f"pair x={x:g}" for x in DEEP_XS]
    ledger = Ledger([n for tag in tags for n in pair_checks(tag)] + SUPERREP_CHECKS)
    for x, tag in zip(DEEP_XS, tags):
        check_pair(ledger, model, POWER, x, tag)
    check_superrep(ledger, model, call_payoff(model, 0))
    return ledger


# ---------------------------------------------------------------------------
# wide: N=12 portfolio study, one pair and superreplication


def setup_wide(seed):
    spec = ladder_spec(WIDE_N, WIDE_STEP, seed)
    return spec, market.build_example_market(spec)


def run_wide(inputs, seed, outdir):
    spec, model = inputs
    names = (["study/solve", "study/chain", "study/cap", "emit/files"]
             + pair_checks("pair") + SUPERREP_CHECKS)
    ledger = Ledger(names, KNOWN_DEFECTS["wide"])
    try:
        rep = harness.example_portfolio_study(spec, BOUNDED, range(1, WIDE_N + 1), tol=SWEEP_TOL)
    except Exception as exc:
        ledger.crashed("study/solve", exc)
    else:
        ledger.check("study/solve", True, f"values {rep.values[0]:.10g} .. {rep.values[-1]:.10g}")
        chain = max(rep.chain_worst(k) for k in range(len(rep.n_values)))
        ledger.check("study/chain", rep.chain_ok(), f"worst {chain:.3g}")
        # The attainable cap is 2/(N-i+1): admissibility lets the bond lever.
        excess = max(
            float(np.max(h[1:] - 2.0 * cap)) for h, cap in zip(rep.holdings, rep.bounds)
        )
        ledger.check("study/cap", excess <= CAP_SLACK, f"worst excess {excess:.3g}")
        path = outdir / "example.csv"
        try:
            harness.write_example_csv(rep, path)
            rows = csv_rows(path)
        except Exception as exc:
            ledger.crashed("emit/files", exc)
        else:
            expected_rows = sum(n + 1 for n in rep.n_values)
            ledger.check("emit/files", rows == expected_rows, f"{rows} csv rows of {expected_rows}")
    check_pair(ledger, model, BOUNDED, 1.0, "pair")
    check_superrep(ledger, model, call_payoff(model, WIDE_N - 1))
    return ledger


WORKLOADS = {
    "sweep": (setup_sweep, run_sweep),
    "deep": (setup_deep, run_deep),
    "wide": (setup_wide, run_wide),
}
