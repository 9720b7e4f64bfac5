"""Verification harness: duality checks, superreplication, convergence studies.

This module ties the primal and dual solvers together: it pairs solutions
through the marginal value of wealth, checks the conjugacy and marginal
relations between them, prices consumption streams two independent ways
(minimal superreplicating capital vs. the supremum of density prices, a
linear-programming pair, or one sparse solve and the gate's density on a
complete tree), and sweeps truncated markets to study how the value
functions grow toward their large-market limits.  Each truncation level is
solved on its ``market.quotient``: sibling subtrees that the traded prices,
the clock and the utility weights cannot tell apart are one node there,
which leaves the values unchanged and the level's tree smaller.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np
from scipy.sparse.linalg import spsolve

from .dual import DualSolution, ensure_full_density, solve_dual
from .errors import BudgetError, ConvergenceError, DualityLabError
from .market import (
    ExampleMarketSpec,
    MarketModel,
    _coerce_keys,
    build_example_market,
    quotient,
    truncate,
)
from .primal import PrimalSolution, solve_primal
from .treeops import _LP_OPTS, build_geometry, linprog
from .treeops import full_polytope_matrices  # noqa: F401, wrapped by perfbench/tracing.py
from .utility import UtilityField, node_weights

MONOTONE_SLACK = 1e-7
SOLVE_BUDGET = 20_000
FD_STEP = 1e-4


def default_grid(lo: float = 1e-2, hi: float = 1e2, points: int = 16) -> np.ndarray:
    """Log-spaced evaluation grid shared by the sweep operations."""
    if not (0 < lo < hi) or points < 2:
        raise DualityLabError(f"bad grid request lo={lo}, hi={hi}, points={points}")
    return np.geomspace(lo, hi, points)


# ---------------------------------------------------------------------------
# Pairing and the marginal relations


def pair_solutions(
    model: MarketModel,
    field: UtilityField,
    x: float,
    tol: float = 1e-8,
):
    """Solve the primal at x, pair y = u'(x), and solve the dual at that y.

    The marginal value of wealth is read off the optimal plan through the
    budget identity (density-weighted expenditure equals x * u'(x)), which
    is exact at the optimum; ``marginal_value_estimate`` gives the centered
    difference instead.  A field without a scaling law starts its dual from
    the density the marginal relation y Z = w U'(c) reads off the plan on
    the consuming trimmed leaves, and from the gate's density on the dead
    roots; ``solve_dual`` repairs it onto the polytope where the plan misses
    it, so a one-period pair runs no entropy centre and no seeding LP unless
    that repair fails.  Log and power fields solve their y = 1 reference
    cold, so the model's memo does not depend on which pair ran first.
    Returns (primal, dual, y).
    """
    primal = solve_primal(model, field, x, tol)
    y = primal.y_estimate
    warm = None
    if field.degree is None:
        geo = build_geometry(model)
        leaves = geo.solve_leaves
        eff = geo.eff_mask[leaves]
        warm = ensure_full_density(geo)[leaves]
        w = node_weights(model, field)[leaves[eff]]
        warm[eff] = w * field.base().u_prime(primal.c[leaves[eff]]) / y
    dual = solve_dual(model, field, y, tol, warm_start=warm)
    return primal, dual, y


def marginal_value_estimate(
    model: MarketModel, field: UtilityField, x: float, tol: float = 1e-8
) -> float:
    """Centered-difference estimate of u'(x) with relative step ``FD_STEP``;
    the x - h solve starts from the x + h solution."""
    h = FD_STEP * x
    up = solve_primal(model, field, x + h, tol)
    dn = solve_primal(model, field, x - h, tol, warm_start=up)
    return (up.value - dn.value) / (2.0 * h)


@dataclass
class RelationsReport:
    """Node-wise marginal relation and the budget identity at a paired (x, y);
    ``marginal_rel`` holds the relation's relative error per consuming node."""

    x: float
    y: float
    worst_marginal_rel: float
    worst_node: object
    budget_value: float
    budget_rel: float
    tol: float
    marginal_rel: np.ndarray

    @property
    def marginal_ok(self) -> bool:
        return self.worst_marginal_rel <= self.tol

    @property
    def budget_ok(self) -> bool:
        return self.budget_rel <= self.tol

    @property
    def passed(self) -> bool:
        return self.marginal_ok and self.budget_ok


def optimality_relations_check(
    primal: PrimalSolution,
    dual: DualSolution,
    x: Optional[float] = None,
    y: Optional[float] = None,
    tol: float = 1e-6,
) -> RelationsReport:
    """Check y Z = marginal utility of optimal consumption on consuming nodes,
    and that the density-weighted consumption expenditure equals x * y."""
    model = primal.model
    field = primal.field
    x = primal.x if x is None else x
    y = dual.y if y is None else y

    tree = model.tree
    dk = model.clock.dkappa
    cons = np.flatnonzero(dk > 0.0)
    w = node_weights(model, field)[cons]
    base = field.base()
    marg = w * base.u_prime(primal.c[cons])
    z = dual.Z[cons]
    rel = np.abs(y * z - marg) / marg
    worst = int(np.argmax(rel))

    budget = float(np.sum(tree.path_prob[cons] * dk[cons] * primal.c[cons] * y * z))
    return RelationsReport(
        x=x,
        y=y,
        worst_marginal_rel=float(rel[worst]),
        worst_node=tree.ids[int(cons[worst])],
        budget_value=budget,
        budget_rel=abs(budget - x * y) / (x * y),
        tol=tol,
        marginal_rel=rel,
    )


# ---------------------------------------------------------------------------
# Conjugacy on sampled curves


@dataclass
class ValueCurves:
    """Sampled primal/dual value curves across truncation levels.

    ``u`` and ``v`` have one row per entry of ``n_values``; ``du`` and ``dv``
    hold centered divided-difference derivative estimates on the same grids.
    """

    x_grid: np.ndarray
    y_grid: np.ndarray
    n_values: list
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray = dc_field(init=False)
    dv: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        self.y_grid = np.asarray(self.y_grid, dtype=float)
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.v = np.atleast_2d(np.asarray(self.v, dtype=float))
        if not np.all(np.isfinite(self.u)) or not np.all(np.isfinite(self.v)):
            raise DualityLabError("value curves must be finite")
        self.du = np.vstack([_divided_derivative(self.x_grid, row) for row in self.u])
        self.dv = np.vstack([_divided_derivative(self.y_grid, row) for row in self.v])


def _divided_derivative(grid: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if vals.size < 2:
        return np.zeros_like(vals)
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (grid[2:] - grid[:-2])
    out[0] = (vals[1] - vals[0]) / (grid[1] - grid[0])
    out[-1] = (vals[-1] - vals[-2]) / (grid[-1] - grid[-2])
    return out


def _grid_opt_resolution(grid: np.ndarray, vals: np.ndarray, k: int) -> float:
    """Estimated gap between a grid extremum and the true one.

    Uses the local divided second difference as a curvature estimate; for a
    smooth function whose extremum lies between the neighbours of the best
    grid point, the gap is at most about curvature * h^2 / 8.  When the
    extremum sits on the grid boundary the true one may lie beyond the grid
    entirely, so the resolution is unbounded.
    """
    n = vals.size
    if n < 3:
        return float(np.max(np.abs(np.diff(vals)))) if n == 2 else 0.0
    if k == 0 or k == n - 1:
        return float("inf")
    hl = grid[k] - grid[k - 1]
    hr = grid[k + 1] - grid[k]
    sl = (vals[k] - vals[k - 1]) / hl
    sr = (vals[k + 1] - vals[k]) / hr
    curv = abs(sr - sl) / (0.5 * (hl + hr))
    return curv * max(hl, hr) ** 2 / 4.0


@dataclass
class ConjugacyReport:
    """Grid conjugacy of a (u, v) curve pair in both directions."""

    gaps_v: np.ndarray       # v(y) - max over x-grid of (u(x) - x y)
    res_v: np.ndarray
    gaps_u: np.ndarray       # min over y-grid of (v(y) + x y) - u(x)
    res_u: np.ndarray
    tol: float

    @property
    def worst_gap(self) -> float:
        return float(max(np.max(np.abs(self.gaps_v)), np.max(np.abs(self.gaps_u))))

    @property
    def worst_excess(self) -> float:
        ev = np.maximum(self.gaps_v - self.res_v, -self.gaps_v)
        eu = np.maximum(self.gaps_u - self.res_u, -self.gaps_u)
        return float(max(np.max(ev), np.max(eu), 0.0))

    @property
    def passed(self) -> bool:
        return self.worst_excess <= self.tol


def conjugacy_check(curves: ValueCurves, tol: float = 1e-6, n_index: int = -1) -> ConjugacyReport:
    """Check that the sampled u and v rows are conjugate up to grid resolution.

    The sup over the continuum is only seen through the grid, so each raw
    gap is nonnegative and bounded by a curvature-based resolution estimate;
    anything beyond that margin (or any negative gap) counts as excess.
    """
    u = curves.u[n_index]
    v = curves.v[n_index]
    xg, yg = curves.x_grid, curves.y_grid

    gaps_v = np.empty(yg.size)
    res_v = np.empty(yg.size)
    for j, y in enumerate(yg):
        phi = u - xg * y
        k = int(np.argmax(phi))
        gaps_v[j] = v[j] - phi[k]
        res_v[j] = _grid_opt_resolution(xg, phi, k)

    gaps_u = np.empty(xg.size)
    res_u = np.empty(xg.size)
    for i, x in enumerate(xg):
        psi = v + yg * x
        k = int(np.argmin(psi))
        gaps_u[i] = psi[k] - u[i]
        res_u[i] = _grid_opt_resolution(yg, psi, k)

    return ConjugacyReport(gaps_v=gaps_v, res_v=res_v, gaps_u=gaps_u, res_u=res_u, tol=tol)


def min_conjugate_over_y(
    model: MarketModel,
    field: UtilityField,
    x: float,
    y_lo: float = 1e-2,
    y_hi: float = 1e2,
    tol: float = 1e-8,
    warm_start: Optional[np.ndarray] = None,
):
    """Continuously refined inf over y of (v(y) + x y); returns (value, y).

    The dual curve is evaluated exactly (fresh dual solves), with the search
    bracketed on the log axis, so the result recovers u(x) up to solver
    tolerance rather than grid resolution.  ``warm_start`` seeds the first
    solve as ``solve_dual``'s does; each later solve starts from the one
    before it.
    """
    state = {"warm": warm_start}

    def objective(t: float) -> float:
        sol = solve_dual(model, field, float(np.exp(t)), tol, warm_start=state["warm"])
        state["warm"] = sol.zeta
        return sol.value + x * float(np.exp(t))

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        objective,
        bounds=(np.log(y_lo), np.log(y_hi)),
        method="bounded",
        options={"xatol": 1e-8, "maxiter": 300},
    )
    return float(res.fun), float(np.exp(res.x))


def curve_shape_checks(grid, values, kind: str, slack: float = MONOTONE_SLACK) -> dict:
    """Slope-based monotonicity and curvature diagnostics for a value curve.

    ``kind='u'`` expects strictly increasing, concave; ``kind='v'`` strictly
    decreasing, convex.  Curvature is judged through divided-difference
    slopes, which is the correct convexity test on non-uniform grids.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    slopes = np.diff(values) / np.diff(grid)
    slope_steps = np.diff(slopes)
    if kind == "u":
        worst_monotone = float(np.min(slopes))
        monotone_ok = bool(np.all(slopes > 0.0))
        worst_shape = float(np.max(slope_steps)) if slope_steps.size else 0.0
        shape_ok = worst_shape <= slack
    elif kind == "v":
        worst_monotone = float(np.max(slopes))
        monotone_ok = bool(np.all(slopes < 0.0))
        worst_shape = float(np.min(slope_steps)) if slope_steps.size else 0.0
        shape_ok = worst_shape >= -slack
    else:
        raise DualityLabError(f"kind must be 'u' or 'v', got {kind!r}")
    return {
        "monotone_ok": monotone_ok,
        "shape_ok": shape_ok,
        "worst_monotone": worst_monotone,
        "worst_shape": worst_shape,
    }


# ---------------------------------------------------------------------------
# Superreplication linear programs


@dataclass
class SuperrepResult:
    price: float
    holdings: np.ndarray


def _rates_array(model: MarketModel, c) -> np.ndarray:
    tree = model.tree
    if isinstance(c, dict):
        rates = np.zeros(tree.n_nodes)
        for nid, val in _coerce_keys(c, tree.index_of).items():
            if nid not in tree.index_of:
                raise DualityLabError(f"claim references unknown node {nid!r}")
            try:
                rates[tree.index_of[nid]] = float(val)
            except (TypeError, ValueError) as exc:
                raise DualityLabError(f"claim rate at node {nid!r} is not a number") from exc
    else:
        rates = np.asarray(c, dtype=float)
        if rates.shape != (tree.n_nodes,):
            raise DualityLabError(
                f"claim must map nodes to rates or be a length-{tree.n_nodes} array"
            )
    bad = np.flatnonzero(~np.isfinite(rates))
    if bad.size:
        k = int(bad[0])
        raise DualityLabError(f"claim rate at node {tree.ids[k]!r} must be finite, got {rates[k]}")
    if np.any(rates < 0.0):
        raise DualityLabError("consumption rates must be nonnegative")
    return rates


def _pricing_system(model: MarketModel, c):
    """(spend, N, b, price_row): the claim's per-node spend rate * dkappa and
    the whole-tree node-measure system N m = b that both prices share.

    The claim is validated first, then the solvers' no-arbitrage gate
    ``ensure_full_density`` runs: on a market with arbitrage both prices
    raise ``InfeasibleMarketError`` naming the node, where the density LP
    alone could still price over the closed polytope.  The system is
    ``Geometry.full_node_system``, built from the gate's whole-tree node
    markets and kept beside them in the model's memo; where the trimmed view
    is whole, the dual solves over the same object.  N is square exactly
    when no node has a free direction (each node's children number one more
    than the assets it keeps); the gate's density is then the only
    martingale density, and both prices skip their LPs.
    """
    spend = _rates_array(model, c) * model.clock.dkappa
    geo = build_geometry(model)
    ensure_full_density(geo)
    return (spend,) + geo.full_node_system()


def superreplication_price(model: MarketModel, c) -> SuperrepResult:
    """Least initial capital financing the consumption stream c.

    The LP dual of :func:`dual_superrep_price` over the same node system:
    min b'nu over free nu with N'nu >= spend.  Its multipliers are wealth
    and holdings: nu_0 is the price, and the pricing row of internal node k
    and asset a carries the holding, which is zero where the row was
    dropped as redundant.  With a density present, the holdings keep
    wealth nonnegative at every node.  On a complete tree (N square) every
    constraint binds, since the only density m = P Z is strictly positive,
    so nu is one sparse solve of N'nu = spend: the price is the replicating
    capital and the holdings the replicating strategy.  Other trees run the
    LP.  Markets with arbitrage raise ``InfeasibleMarketError`` first, and a
    solve that is not finite or misses N'nu = spend by more than 1e-12 of
    its normwise scale raises ``ConvergenceError``.  Returns the price and
    the certifying holdings array (n_nodes, n_active).
    """
    spend, N, b, price_row = _pricing_system(model, c)
    if N.shape[0] == N.shape[1]:
        Nt = N.T
        nu = spsolve(Nt, spend)
        scale = abs(Nt) @ np.abs(nu) + np.abs(spend)
        if not (np.all(np.isfinite(nu))
                and np.max(np.abs(Nt @ nu - spend)) <= 1e-12 * np.max(scale)):
            raise ConvergenceError("superreplication solve missed the replication equations")
    else:
        res = linprog(
            b,
            A_ub=-N.T,
            b_ub=-spend,
            bounds=(None, None),
            method="highs",
            options=_LP_OPTS,
        )
        if res.status != 0 or res.x is None:
            raise ConvergenceError(f"superreplication LP failed: {res.message}")
        nu = res.x

    tree = model.tree
    internal = np.flatnonzero(~tree.is_leaf)
    H = np.zeros((tree.n_nodes, model.n_active))
    H[internal] = np.where(price_row >= 0, nu[price_row], 0.0)
    return SuperrepResult(price=float(nu[0]), holdings=H)


def dual_superrep_price(model: MarketModel, c) -> float:
    """Supremum over martingale densities of the expected discounted spend.

    In node measures m = P Z the price of the stream is sum_k m_k spend_k,
    maximized over m >= 0 with N m = b, by LP.  This is the mirror of
    :func:`superreplication_price`; on arbitrage-free models the two values
    coincide, and on the others both raise ``InfeasibleMarketError``.  On a
    complete tree (N square) the feasible set is the single point P Z of the
    gate's density ``ensure_full_density``, and the price is sum P Z spend,
    computed apart from the sparse solve that prices the other side.
    """
    spend, N, b, _ = _pricing_system(model, c)
    if N.shape[0] == N.shape[1]:
        z = ensure_full_density(build_geometry(model))
        return float(np.dot(model.tree.path_prob * z, spend))
    res = linprog(
        -spend,
        A_eq=N,
        b_eq=b,
        bounds=(0.0, None),
        method="highs",
        options=_LP_OPTS,
    )
    if res.status != 0 or res.x is None:
        raise ConvergenceError(f"density pricing LP failed: {res.message}")
    return float(-res.fun)


def unit_terminal_claim(model: MarketModel) -> np.ndarray:
    """Rates spending one unit at each terminal consuming node (a bond payoff)."""
    tree = model.tree
    dk = model.clock.dkappa
    rates = np.zeros(tree.n_nodes)
    for pos in tree.leaves:
        if dk[pos] > 0.0:
            rates[pos] = 1.0 / dk[pos]
    return rates


def terminal_payoff_claim(model: MarketModel, payoff) -> np.ndarray:
    """Rates consuming a per-leaf payoff at the terminal time.

    ``payoff`` holds one finite entry per leaf, in the order of
    ``model.tree.leaves``.
    """
    tree = model.tree
    dk = model.clock.dkappa
    rates = np.zeros(tree.n_nodes)
    payoff = np.asarray(payoff, dtype=float)
    if payoff.shape != tree.leaves.shape or not np.all(np.isfinite(payoff)):
        raise DualityLabError(
            f"payoff must hold {tree.leaves.size} finite entries, one per leaf"
        )
    for j, pos in enumerate(tree.leaves):
        if payoff[j] == 0.0:
            continue
        if dk[pos] <= 0.0:
            raise DualityLabError(
                f"leaf {tree.ids[int(pos)]!r} has no clock mass to consume the payoff"
            )
        rates[pos] = payoff[j] / dk[pos]
    return rates


# ---------------------------------------------------------------------------
# Convergence study over truncations


def value_convergence_study(
    model: MarketModel,
    field: UtilityField,
    x_grid,
    y_grid,
    n_range: Sequence[int],
    tol: float = 1e-8,
) -> ValueCurves:
    """Sample u_n and v_n over the grids for each truncation level in n_range.

    Level n is solved on ``quotient(truncate(model, n), weights)``, with the
    field's weights at the model's nodes (``node_weights``), which has the
    same values (see ``market.quotient``); on N independent one-period
    assets it keeps 2**n of the 2**N leaves.  Along each grid, every solve is
    warm-started from the previous point's solution on the same level.  Both
    value families must be nondecreasing in n (nested strategy and density
    sets); a violation beyond the slack signals that the solver tolerance is
    too loose and raises ``ConvergenceError``.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    for grid, name in ((x_grid, "x"), (y_grid, "y")):
        if grid.size == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise DualityLabError(f"{name}-grid must be positive and strictly increasing")
    levels = [int(n) for n in n_range]
    if any(not 0 <= n <= model.n_assets for n in levels):
        raise DualityLabError(f"truncation levels must lie in [0, {model.n_assets}]")
    total = len(levels) * (x_grid.size + y_grid.size)
    if total > SOLVE_BUDGET:
        raise BudgetError(f"study would need {total} solves, beyond {SOLVE_BUDGET}")

    weights = node_weights(model, field)

    def run_level(n: int):
        sub = quotient(truncate(model, n), weights)
        u_row = np.empty(x_grid.size)
        warm = None
        for i, x in enumerate(x_grid):
            warm = solve_primal(sub, field, float(x), tol, warm_start=warm)
            u_row[i] = warm.value
        v_row = np.empty(y_grid.size)
        warm = None
        for j, y in enumerate(y_grid):
            sol = solve_dual(sub, field, float(y), tol, warm_start=warm)
            v_row[j] = sol.value
            warm = sol.zeta
        return u_row, v_row

    results = [run_level(n) for n in levels]

    u = np.vstack([r[0] for r in results])
    v = np.vstack([r[1] for r in results])

    for k in range(1, len(levels)):
        drop_u = float(np.max(u[k - 1] - u[k]))
        drop_v = float(np.max(v[k - 1] - v[k]))
        if drop_u > MONOTONE_SLACK or drop_v > MONOTONE_SLACK:
            raise ConvergenceError(
                f"value curves decreased between levels {levels[k - 1]} and {levels[k]} "
                f"(u drop {drop_u:.3g}, v drop {drop_v:.3g}); tighten the solver tolerance"
            )

    return ValueCurves(x_grid=x_grid, y_grid=y_grid, n_values=levels, u=u, v=v)


def convergence_summary(curves: ValueCurves) -> dict:
    """Cauchy tails, derivative convergence, and the conjugacy sandwich."""
    u, v = curves.u, curves.v
    levels = curves.n_values
    out = {
        "levels": list(levels),
        "u_monotone_worst_drop": float(np.max(u[:-1] - u[1:])) if len(levels) > 1 else 0.0,
        "v_monotone_worst_drop": float(np.max(v[:-1] - v[1:])) if len(levels) > 1 else 0.0,
        "cauchy_u_first": float(np.max(np.abs(u[1] - u[0]))) if len(levels) > 1 else 0.0,
        "cauchy_u_last": float(np.max(np.abs(u[-1] - u[-2]))) if len(levels) > 1 else 0.0,
        "cauchy_v_first": float(np.max(np.abs(v[1] - v[0]))) if len(levels) > 1 else 0.0,
        "cauchy_v_last": float(np.max(np.abs(v[-1] - v[-2]))) if len(levels) > 1 else 0.0,
        "du_uniform_gap": [float(np.max(np.abs(curves.du[k] - curves.du[-1]))) for k in range(len(levels))],
        "dv_uniform_gap": [float(np.max(np.abs(curves.dv[k] - curves.dv[-1]))) for k in range(len(levels))],
    }
    conj = conjugacy_check(curves)
    out["sandwich"] = [
        {"x": float(x), "gap": float(gap), "resolution": float(res)}
        for x, gap, res in zip(curves.x_grid, conj.gaps_u, conj.res_u)
    ]
    return out


# ---------------------------------------------------------------------------
# Portfolio study on the independent-binomial family


def bounded_threshold(field: UtilityField) -> float:
    """Up-probability threshold (u(1) - u(1/2)) / (u(2) - u(1/2)) of a field."""
    base = field.base()
    u_half = float(base.u(0.5))
    return (float(base.u(1.0)) - u_half) / (float(base.u(2.0)) - u_half)


@dataclass
class ExampleReport:
    """Per-level optimal holdings and values on the independent-binomial family.

    ``holdings[k]`` has the bond position at index 0 followed by the share
    counts of assets 1..N for level N = n_values[k]; ``bounds[k]`` holds the
    pigeonhole caps 1/(N - i + 1) for i = 1..N.
    """

    spec: ExampleMarketSpec
    n_values: list
    holdings: list
    values: np.ndarray
    bounds: list
    threshold: float
    base_value: float
    kkt_worst: float

    def chain_worst(self, k: int) -> float:
        h = self.holdings[k][1:]
        return float(np.max(h[:-1] - h[1:])) if h.size > 1 else 0.0

    def bound_worst(self, k: int) -> float:
        return float(np.max(self.holdings[k][1:] - self.bounds[k]))

    def min_stock_holding(self, k: int) -> float:
        return float(np.min(self.holdings[k][1:]))

    def trend(self, i: int):
        """Holding of asset i across all levels that include it."""
        return [
            (n, float(self.holdings[k][i]))
            for k, n in enumerate(self.n_values)
            if i <= n
        ]

    def chain_ok(self, slack: float = MONOTONE_SLACK) -> bool:
        return all(self.chain_worst(k) <= slack for k in range(len(self.n_values)))

    def bounds_ok(self, slack: float = 1e-6) -> bool:
        return all(self.bound_worst(k) <= slack for k in range(len(self.n_values)))


def example_portfolio_study(
    spec: ExampleMarketSpec,
    field: UtilityField,
    n_range: Optional[Sequence[int]] = None,
    tol: float = 1e-8,
) -> ExampleReport:
    """Optimal portfolios across truncations of the independent-binomial family.

    Requires a bounded field whose threshold (and 1/3) is exceeded by the
    first up-probability; under that condition every stock is held in
    nonnegative quantity, the holdings increase along the asset index, and
    each is capped by 1/(N - i + 1), which forces every fixed asset's
    holding toward zero as the market grows even though the value stays
    strictly above the bond-only value u(1).  The N-asset market is built
    once, and level n is solved on its ``quotient(truncate(model, n), ...)``,
    as in ``value_convergence_study``.
    """
    if field.family != "bounded":
        raise DualityLabError("the portfolio study requires the bounded family")
    if field.weights is not None:
        raise DualityLabError("the portfolio study requires an unweighted field")
    threshold = bounded_threshold(field)
    floor = max(threshold, 1.0 / 3.0)
    if not spec.p[0] > floor:
        raise DualityLabError(
            f"first up-probability {spec.p[0]} must exceed max(threshold, 1/3) = {floor:.6g}"
        )

    levels = [int(n) for n in (n_range if n_range is not None else range(1, spec.n_assets + 1))]
    if any(not 1 <= n <= spec.n_assets for n in levels):
        raise DualityLabError(f"levels must lie in [1, {spec.n_assets}]")
    model = build_example_market(spec)
    weights = np.ones(model.n_nodes)

    def run_level(n: int):
        sub = quotient(truncate(model, n), weights)
        sol = solve_primal(sub, field, 1.0, tol)
        shares = sol.H[sub.tree.root].copy()
        bond = 1.0 - float(np.sum(shares))  # initial prices are all 1
        return np.concatenate([[bond], shares]), sol.value, sol.kkt_residual

    results = [run_level(n) for n in levels]

    holdings = [r[0] for r in results]
    values = np.array([r[1] for r in results])
    kkt_worst = max(r[2] for r in results)
    bounds = [np.array([1.0 / (n - i + 1.0) for i in range(1, n + 1)]) for n in levels]
    return ExampleReport(
        spec=spec,
        n_values=levels,
        holdings=holdings,
        values=values,
        bounds=bounds,
        threshold=threshold,
        base_value=float(field.base().u(1.0)),
        kkt_worst=kkt_worst,
    )


# ---------------------------------------------------------------------------
# Emitters


def write_convergence_csv(curves: ValueCurves, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "x_or_y", "kind", "value"])
        for k, n in enumerate(curves.n_values):
            for grid, kind in (
                (curves.x_grid, "u"),
                (curves.y_grid, "v"),
                (curves.x_grid, "du"),
                (curves.y_grid, "dv"),
            ):
                series = getattr(curves, kind)[k]
                for point, value in zip(grid, series):
                    writer.writerow([n, f"{point:.17g}", kind, f"{value:.17g}"])


def write_example_csv(report: ExampleReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "i", "holding", "bound", "value"])
        for k, n in enumerate(report.n_values):
            value = f"{report.values[k]:.17g}"
            writer.writerow([n, 0, f"{report.holdings[k][0]:.17g}", "", value])
            for i in range(1, n + 1):
                writer.writerow(
                    [
                        n,
                        i,
                        f"{report.holdings[k][i]:.17g}",
                        f"{report.bounds[k][i - 1]:.17g}",
                        value,
                    ]
                )


def _jsonable(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_summary_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def write_series(path, xs, ys) -> None:
    """Two-column numeric series, one point per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in zip(xs, ys):
            fh.write(f"{a:.17g} {b:.17g}\n")
