"""Command-line front end.

Loads market models and utility specs, runs the solvers and the harness
studies, and writes CSV/JSON reports plus plain two-column plot series.
Outputs are deterministic for a fixed configuration; wall-clock timestamps
appear only inside the ``meta`` field of JSON reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from . import harness
from .dual import solve_dual
from .errors import (
    BudgetError,
    ClockError,
    ConvergenceError,
    DualityLabError,
    InfeasibleMarketError,
    MalformedTreeError,
    PriceError,
    ValueDivergenceError,
)
from .market import ExampleMarketSpec, load_model, validate_clock
from .primal import solve_primal
from .treeops import wealth_from_strategy
from .utility import UtilityField, field_from_spec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


class ConfigError(Exception):
    pass


# The study needs a bounded field; this one clears a p_start of 0.5 while
# keeping the leverage corner inside float range.
EXAMPLE_FIELD = UtilityField(family="bounded", alpha=0.3, beta=1.3)

# Accepted value types per ``RunConfig`` annotation; a bool is no number.
_FIELD_TYPES = {"str": str, "float": (int, float), "int": int, "bool": bool}


@dataclass
class RunConfig:
    command: str
    model: str = None
    utility: str = None
    x: float = 1.0
    y: float = 1.0
    tol: float = 1e-8
    check_tol: float = 1e-6
    n_max: int = None
    grid_min: float = 1e-2
    grid_max: float = 1e2
    grid_points: int = 16
    out: str = "."
    strict: bool = False
    claim: str = None
    p_start: float = 0.5
    p_step: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise ConfigError(f"{f.name} must be a {f.type}, got {value!r}")
        if self.tol <= 0 or self.check_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.grid_points < 2 or not 0 < self.grid_min < self.grid_max:
            raise ConfigError("grid must have at least 2 points with 0 < min < max")
        if self.model is not None and not os.path.exists(self.model):
            raise ConfigError(f"model file not found: {self.model}")
        if self.claim is not None and not os.path.exists(self.claim):
            raise ConfigError(f"claim file not found: {self.claim}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualitylab",
        description="Consumption-investment duality solvers on finite scenario trees",
    )
    parser.add_argument("command", choices=[
        "validate", "solve-primal", "solve-dual", "duality-report",
        "superrep", "converge", "example",
    ])
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--model", help="market model JSON file")
    parser.add_argument("--utility", help="utility JSON file or shorthand "
                        "(log | power:GAMMA | bounded:ALPHA,BETA)")
    parser.add_argument("--x", type=float, help="initial wealth")
    parser.add_argument("--y", type=float, help="dual argument")
    parser.add_argument("--tol", type=float, help="solver tolerance (default 1e-8)")
    parser.add_argument("--check-tol", type=float, dest="check_tol",
                        help="report-check tolerance (default 1e-6)")
    parser.add_argument("--n-max", "--N-max", type=int, dest="n_max",
                        help="largest truncation level")
    parser.add_argument("--grid-min", type=float, dest="grid_min")
    parser.add_argument("--grid-max", type=float, dest="grid_max")
    parser.add_argument("--grid-points", type=int, dest="grid_points")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="escalate check failures to exit code 4")
    parser.add_argument("--claim", help="JSON file {node id: consumption rate}")
    parser.add_argument("--p-start", type=float, dest="p_start")
    parser.add_argument("--p-step", type=float, dest="p_step")
    return parser


def _resolve_config(args) -> RunConfig:
    values = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"config must be a JSON object, got {values!r}")
    known = [f.name for f in fields(RunConfig) if f.name != "command"]
    for name in known:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    unknown = set(values) - set(known)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(command=args.command, **values)


def _load_utility(spec: str) -> UtilityField:
    if spec is None:
        return UtilityField(family="log")
    try:
        if os.path.exists(spec):
            with open(spec, "r", encoding="utf-8") as fh:
                return field_from_spec(json.load(fh))
        name, _, params = spec.partition(":")
        values = [float(v) for v in params.split(",")] if params else []
    except ValueError as exc:
        raise ConfigError(f"cannot parse utility spec {spec!r}: {exc}") from exc
    if name == "log" and not values:
        return UtilityField(family="log")
    if name == "power" and len(values) == 1:
        return UtilityField(family="power", gamma=values[0])
    if name == "bounded" and len(values) == 2:
        return UtilityField(family="bounded", alpha=values[0], beta=values[1])
    raise ConfigError(f"cannot parse utility spec {spec!r}")


def _meta(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _dump(config: RunConfig, name: str, payload: dict) -> None:
    payload = dict(payload)
    payload["meta"] = _meta(config)
    os.makedirs(config.out, exist_ok=True)
    harness.write_summary_json(payload, os.path.join(config.out, name))


def _series(config: RunConfig, name: str, xs, ys) -> None:
    os.makedirs(config.out, exist_ok=True)
    harness.write_series(os.path.join(config.out, name), xs, ys)


def _need_model(config: RunConfig):
    if config.model is None:
        raise ConfigError(f"command {config.command!r} needs --model")
    return load_model(config.model)


def _dates(tree) -> list:
    """Each date's positions as a slice, the root's first: positions are
    sorted by time."""
    return [slice(0, 1)] + tree.levels


def _per_time_mean(model, values) -> tuple:
    tree = model.tree
    dates = _dates(tree)
    return list(range(len(dates))), [float(np.dot(tree.path_prob[d], values[d])) for d in dates]


def cmd_validate(config: RunConfig) -> int:
    model = _need_model(config)
    report = validate_clock(model.clock, model.tree)
    _dump(config, "validation.json", {
        "clock_checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
        "passed": report.passed,
        "nodes": model.n_nodes,
        "assets": model.n_assets,
        "active_assets": model.n_active,
        "horizon": model.tree.horizon,
    })
    if not report.passed:
        print("clock validation failed", file=sys.stderr)
        return EXIT_MODEL
    return EXIT_OK


def cmd_solve_primal(config: RunConfig) -> int:
    model = _need_model(config)
    field = _load_utility(config.utility)
    sol = solve_primal(model, field, config.x, config.tol)
    ids = model.tree.ids
    _dump(config, "primal.json", {
        "x": sol.x,
        "value": sol.value,
        "kkt_residual": sol.kkt_residual,
        "y_estimate": sol.y_estimate,
        "iterations": sol.iterations,
        "consumption": {str(ids[k]): float(sol.c[k]) for k in range(model.n_nodes)},
        "holdings": {str(ids[k]): [float(v) for v in sol.H[k]] for k in range(model.n_nodes)},
        "wealth": {str(ids[k]): float(sol.X[k]) for k in range(model.n_nodes)},
    })
    times, spend = _per_time_mean(model, sol.c * model.clock.dkappa)
    _series(config, "primal_spend.dat", times, spend)
    times, wealth = _per_time_mean(model, sol.X)
    _series(config, "primal_wealth.dat", times, wealth)
    return EXIT_OK


def cmd_solve_dual(config: RunConfig) -> int:
    model = _need_model(config)
    field = _load_utility(config.utility)
    sol = solve_dual(model, field, config.y, config.tol)
    ids = model.tree.ids
    _dump(config, "dual.json", {
        "y": sol.y,
        "value": sol.value,
        "attained_on_boundary": sol.attained_on_boundary,
        "iterations": sol.iterations,
        "density": {str(ids[k]): float(sol.Z[k]) for k in range(model.n_nodes)},
    })
    times, mean_z = _per_time_mean(model, sol.Z)
    _series(config, "dual_density.dat", times, mean_z)
    return EXIT_OK


def cmd_duality_report(config: RunConfig) -> int:
    model = _need_model(config)
    field = _load_utility(config.utility)
    primal, dual, y = harness.pair_solutions(model, field, config.x, config.tol)
    rel = harness.optimality_relations_check(primal, dual, tol=config.check_tol)
    conj_val, y_star = harness.min_conjugate_over_y(
        model, field, config.x, config.grid_min, config.grid_max, config.tol,
        warm_start=dual.zeta,
    )
    conj_gap = abs(conj_val - primal.value)
    _dump(config, "duality_report.json", {
        "x": config.x,
        "y_paired": y,
        "primal_value": primal.value,
        "dual_value": dual.value,
        "worst_marginal_rel": rel.worst_marginal_rel,
        "budget_rel": rel.budget_rel,
        "conjugacy_gap": conj_gap,
        "conjugacy_minimizer_y": y_star,
        "passed": bool(rel.passed and conj_gap <= config.check_tol),
    })
    _series(config, "duality_relations.dat", range(rel.marginal_rel.size), rel.marginal_rel)
    if config.strict and not (rel.passed and conj_gap <= config.check_tol):
        print("duality checks beyond tolerance", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_superrep(config: RunConfig) -> int:
    model = _need_model(config)
    if config.claim is not None:
        with open(config.claim, "r", encoding="utf-8") as fh:
            claim = json.load(fh)
    else:
        claim = harness.unit_terminal_claim(model)
    res = harness.superreplication_price(model, claim)
    dual_value = harness.dual_superrep_price(model, claim)
    gap = abs(res.price - dual_value)
    _dump(config, "superrep.json", {
        "price": res.price,
        "density_price": dual_value,
        "gap": gap,
        "passed": bool(gap <= max(config.check_tol, 1e-8)),
    })
    rates = harness._rates_array(model, claim)
    wealth = wealth_from_strategy(model, res.holdings, rates, res.price)
    dates = _dates(model.tree)
    _series(config, "superrep_wealth.dat", list(range(len(dates))),
            [float(np.min(wealth[d])) for d in dates])
    if config.strict and gap > max(config.check_tol, 1e-8):
        print("superreplication duality gap beyond tolerance", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_converge(config: RunConfig) -> int:
    model = _need_model(config)
    field = _load_utility(config.utility)
    n_max = config.n_max if config.n_max is not None else model.n_assets
    grid = harness.default_grid(config.grid_min, config.grid_max, config.grid_points)
    curves = harness.value_convergence_study(
        model, field, grid, grid, range(1, n_max + 1), config.tol
    )
    summary = harness.convergence_summary(curves)
    os.makedirs(config.out, exist_ok=True)
    harness.write_convergence_csv(curves, os.path.join(config.out, "convergence.csv"))
    for idx, n in enumerate(curves.n_values):
        _series(config, f"curve_u_n{n}.dat", curves.x_grid, curves.u[idx])
        _series(config, f"curve_v_n{n}.dat", curves.y_grid, curves.v[idx])
        _series(config, f"curve_du_n{n}.dat", curves.x_grid, curves.du[idx])
        _series(config, f"curve_dv_n{n}.dat", curves.y_grid, curves.dv[idx])
    sandwich_ok = all(
        s["gap"] <= 1e-3 + s["resolution"] for s in summary["sandwich"]
    )
    summary["sandwich_ok"] = sandwich_ok
    summary["sandwich"] = [
        {k: (None if isinstance(v, float) and not np.isfinite(v) else v) for k, v in s.items()}
        for s in summary["sandwich"]
    ]
    _dump(config, "convergence_summary.json", summary)
    if config.strict and not sandwich_ok:
        print("conjugacy sandwich beyond tolerance", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_example(config: RunConfig) -> int:
    n_max = config.n_max if config.n_max is not None else 8
    probs = tuple(config.p_start + config.p_step * i for i in range(n_max))
    spec = ExampleMarketSpec(n_assets=n_max, p=probs)
    field = _load_utility(config.utility) if config.utility is not None else EXAMPLE_FIELD
    report = harness.example_portfolio_study(spec, field, tol=config.tol)
    os.makedirs(config.out, exist_ok=True)
    harness.write_example_csv(report, os.path.join(config.out, "example.csv"))
    chain_ok = report.chain_ok()
    bounds_ok = report.bounds_ok()
    _dump(config, "example_summary.json", {
        "levels": report.n_values,
        "threshold": report.threshold,
        "bond_only_value": report.base_value,
        "values": [float(v) for v in report.values],
        "chain_ok": chain_ok,
        "bounds_ok": bounds_ok,
        "worst_chain_violation": max(report.chain_worst(k) for k in range(len(report.n_values))),
        "worst_bound_violation": max(report.bound_worst(k) for k in range(len(report.n_values))),
        "min_stock_holding": min(report.min_stock_holding(k) for k in range(len(report.n_values))),
        "bond_positions": [float(h[0]) for h in report.holdings],
        "kkt_worst": report.kkt_worst,
    })
    for i in range(1, n_max + 1):
        trend = report.trend(i)
        _series(config, f"example_asset{i}.dat", [t[0] for t in trend], [t[1] for t in trend])
    _series(config, "example_value.dat", report.n_values, report.values)
    if config.strict and not (chain_ok and bounds_ok):
        print("portfolio study checks beyond tolerance", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "solve-primal": cmd_solve_primal,
    "solve-dual": cmd_solve_dual,
    "duality-report": cmd_duality_report,
    "superrep": cmd_superrep,
    "converge": cmd_converge,
    "example": cmd_example,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[config.command](config)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MalformedTreeError, PriceError, ClockError, BudgetError, InfeasibleMarketError) as exc:
        print(f"model validation failed: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ConvergenceError, ValueDivergenceError) as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DualityLabError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
