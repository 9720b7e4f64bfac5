"""Primal problem: maximize expected clock-weighted utility of consumption.

Over a finite tree the problem reduces to a smooth concave program in the
holdings at internal nodes plus the consumption rates at internal nodes
with positive clock mass: effective leaves always consume their entire
wealth, so their rates are eliminated, and the wealth at every remaining
node is an affine function of the reduced variables (``treeops``).

The marginal of an admissible field blows up at zero consumption, which
keeps maximizers strictly inside the region where consumption and the
wealth entering effective leaves stay positive; a damped Newton iteration
with a domain-respecting line search therefore converges without explicit
inequality handling.  Wealth parked at dead roots (branches the clock never
reaches) is the one genuine inequality; it is handled by a vanishing
logarithmic barrier.

Holdings are generally not unique when assets are redundant, so after
convergence each internal node's holdings are re-extracted as the
minimum-norm solution reproducing the converged one-step wealth transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dual import ensure_full_density
from .errors import ConvergenceError, DualityLabError, ValueDivergenceError
from .market import MarketModel
from .treeops import Geometry, build_geometry, wealth_from_strategy
from .utility import UtilityField

VALUE_CEILING = 1e100


@dataclass
class PrimalSolution:
    """Optimal plan: consumption rates, holdings, wealth path, and value.

    ``c`` and ``X`` are per-node arrays (post-consumption wealth); ``H`` is
    (n_nodes, n_active) with rows read at the node where the holdings are
    chosen.  ``kkt_residual`` bounds the optimality gap estimate plus the
    worst admissibility violation; ``y_estimate`` is the marginal value of
    wealth implied by the budget identity.
    """

    c: np.ndarray
    H: np.ndarray
    X: np.ndarray
    value: float
    kkt_residual: float
    x: float
    y_estimate: float
    iterations: int
    model: MarketModel
    field: UtilityField


class _PrimalObjective:
    """Objective, gradient, Hessian over the reduced variables theta."""

    def __init__(self, geo: Geometry, field: UtilityField, x: float):
        self.geo = geo
        self.x = x
        tree = geo.tree
        clock = geo.model.clock
        self.base = field.base()

        eff = [pos for pos in geo.trimmed if geo.eff_mask[pos]]
        self.eff_rows = geo.rows[[geo.order_of[int(p)] for p in eff]]
        self.eff_prob = tree.path_prob[eff]
        self.eff_dk = clock.dkappa[eff]
        self.eff_w = field.weight_array([tree.ids[int(p)] for p in eff])
        self.eff_pos = np.array(eff, dtype=np.int64)

        mids = sorted(geo.c_index, key=geo.c_index.get)
        self.mid_idx = np.array([geo.c_index[m] for m in mids], dtype=np.int64)
        self.mid_prob = tree.path_prob[mids]
        self.mid_dk = clock.dkappa[mids]
        self.mid_w = field.weight_array([tree.ids[int(m)] for m in mids])
        self.mid_pos = np.array(mids, dtype=np.int64)

        dead = [pos for pos in geo.trimmed if geo.dead_root_mask[pos]]
        self.dead_rows = geo.rows[[geo.order_of[int(p)] for p in dead]]
        self.n_dead = len(dead)

    def eff_wealth(self, theta):
        return self.x + self.eff_rows @ theta

    def dead_wealth(self, theta):
        return self.x + self.dead_rows @ theta

    def in_domain(self, theta) -> bool:
        if self.mid_idx.size and np.min(theta[self.mid_idx]) <= 0.0:
            return False
        if self.eff_pos.size and np.min(self.eff_wealth(theta)) <= 0.0:
            return False
        if self.n_dead and np.min(self.dead_wealth(theta)) <= 0.0:
            return False
        return True

    def value(self, theta, mu: float) -> float:
        total = 0.0
        if self.eff_pos.size:
            c_eff = self.eff_wealth(theta) / self.eff_dk
            total += float(np.dot(self.eff_prob * self.eff_dk * self.eff_w, self.base.u(c_eff)))
        if self.mid_idx.size:
            c_mid = theta[self.mid_idx]
            total += float(np.dot(self.mid_prob * self.mid_dk * self.mid_w, self.base.u(c_mid)))
        if mu > 0.0 and self.n_dead:
            total += mu * float(np.sum(np.log(self.dead_wealth(theta))))
        return total

    def grad_hess(self, theta, mu: float):
        n = theta.size
        g = np.zeros(n)
        h = np.zeros((n, n))
        if self.eff_pos.size:
            s = self.eff_wealth(theta)
            c = s / self.eff_dk
            g_coef = self.eff_prob * self.eff_w * self.base.u_prime(c)
            h_coef = self.eff_prob * self.eff_w * self.base.u_second(c) / self.eff_dk
            g += self.eff_rows.T @ g_coef
            h += (self.eff_rows.T * h_coef) @ self.eff_rows
        if self.mid_idx.size:
            c = theta[self.mid_idx]
            coef = self.mid_prob * self.mid_dk * self.mid_w
            g[self.mid_idx] += coef * self.base.u_prime(c)
            h[self.mid_idx, self.mid_idx] += coef * self.base.u_second(c)
        if mu > 0.0 and self.n_dead:
            s = self.dead_wealth(theta)
            g += self.dead_rows.T @ (mu / s)
            h -= (self.dead_rows.T * (mu / s**2)) @ self.dead_rows
        return g, h


def solve_primal(
    model: MarketModel,
    field: UtilityField,
    x: float,
    tol: float = 1e-8,
    max_iter: int = 500,
    _geometry: Optional[Geometry] = None,
) -> PrimalSolution:
    """Solve the consumption-investment problem at initial wealth x.

    Requires a strictly positive martingale density to exist (checked via
    the dual feasibility machinery); raises ``InfeasibleMarketError``
    otherwise, and ``ConvergenceError`` when the Newton iteration exhausts
    its budget before certifying the gap estimate.
    """
    if x <= 0.0:
        raise DualityLabError(f"initial wealth must be positive, got {x}")
    if field.family == "affine-test":
        raise DualityLabError("affine test field is not admissible for solving")

    geo = _geometry if _geometry is not None else build_geometry(model)
    ensure_full_density(geo)  # no-arbitrage gate

    obj = _PrimalObjective(geo, field, x)
    theta = np.zeros(geo.n_vars)
    if obj.mid_idx.size:
        theta[obj.mid_idx] = x / (2.0 * model.clock.bound)
    if not obj.in_domain(theta):
        raise DualityLabError("could not construct a strictly feasible starting plan")

    stop_tol = max(min(tol, 1e-8) * 1e-4, 1e-16)
    mus = [0.0]
    if obj.n_dead:
        mus = [1e-2 * x, 1e-6 * x, max(min(tol, 1e-9) * x, 1e-14)]

    iterations = 0
    for stage, mu in enumerate(mus):
        last = stage == len(mus) - 1
        inner_tol = stop_tol if last else max(mu * obj.n_dead * 0.05, stop_tol)
        while True:
            if iterations >= max_iter:
                raise ConvergenceError(
                    f"primal solve at x={x} exceeded {max_iter} Newton iterations"
                )
            iterations += 1
            g, h = obj.grad_hess(theta, mu)
            step, lam2 = _ascent_step(g, h)
            if lam2 / 2.0 <= inner_tol:
                if lam2 > 0.0:
                    # Quadratic phase: the pending step squares the accuracy.
                    theta = _domain_line_search(obj, theta, step, g, mu)
                break
            theta = _domain_line_search(obj, theta, step, g, mu)
            if obj.value(theta, 0.0) > VALUE_CEILING:
                raise ValueDivergenceError("primal objective diverged")

    return _assemble_solution(geo, obj, field, theta, x, iterations, mus[-1])


def _ascent_step(g, h):
    """Newton ascent direction with escalating ridge on the negated Hessian."""
    if g.size == 0:
        return g, 0.0
    m = -h
    scale = float(np.max(np.abs(np.diag(m)))) or 1.0
    ridge = 0.0
    for _ in range(14):
        try:
            cf = np.linalg.cholesky(m + ridge * np.eye(m.shape[0]))
            step = np.linalg.solve(cf.T, np.linalg.solve(cf, g))
            lam2 = float(np.dot(g, step))
            if lam2 >= 0.0:
                return step, lam2
        except np.linalg.LinAlgError:
            pass
        ridge = max(ridge * 100.0, 1e-12 * scale)
    step, *_ = np.linalg.lstsq(m, g, rcond=None)
    return step, abs(float(np.dot(g, step)))


def _domain_line_search(obj, theta, step, g, mu):
    alpha = 1.0
    slope = float(np.dot(g, step))
    base = obj.value(theta, mu)
    for _ in range(80):
        cand = theta + alpha * step
        if obj.in_domain(cand) and obj.value(cand, mu) >= base + 1e-4 * alpha * slope:
            return cand
        alpha *= 0.5
    cand = theta + alpha * step
    return cand if obj.in_domain(cand) else theta


def _assemble_solution(geo, obj, field, theta, x, iterations, mu_final) -> PrimalSolution:
    model = geo.model
    tree = geo.tree
    clock = model.clock
    n = tree.n_nodes
    na = model.n_active

    x_pre = np.zeros(n)
    x_pre[geo.trimmed] = x + geo.rows @ theta

    c = np.zeros(n)
    if obj.eff_pos.size:
        c[obj.eff_pos] = x_pre[obj.eff_pos] / clock.dkappa[obj.eff_pos]
    if obj.mid_pos.size:
        c[obj.mid_pos] = theta[obj.mid_idx]

    x_post = np.zeros(n)
    trim = geo.trimmed
    x_post[trim] = x_pre[trim] - c[trim] * clock.dkappa[trim]
    for pos in geo.untrimmed_levels():
        x_post[pos] = x_pre[pos] = x_post[tree.parent[pos]]

    # Minimum-norm holdings reproducing each internal node's transfers.
    H = np.zeros((n, na))
    for pos in geo.trimmed:
        if not geo.internal_mask[pos] or na == 0:
            continue
        kids = tree.children[pos]
        span = model.assets.prices[kids][:, :na] - model.assets.prices[pos, :na]
        target = x_pre[kids] - x_post[pos]
        sol, *_ = np.linalg.lstsq(span, target, rcond=None)
        H[pos] = sol

    # Re-derive the wealth path from the reported strategy so the returned
    # triple is exactly self-consistent.
    X = wealth_from_strategy(model, H, c, x)

    value = obj.value(theta, 0.0)
    # Stationarity is measured with the final barrier in place: at a plan
    # whose dead-branch wealth floor binds, the bare gradient equals the
    # floor's shadow price rather than a violation.  The barrier's own bias
    # on the value is at most mu per floored branch.
    _, lam2 = _ascent_step(*obj.grad_hess(theta, mu_final))
    gap_est = lam2 / 2.0 + mu_final * obj.n_dead
    feas = max(0.0, -float(np.min(X))) / max(1.0, x)
    kkt = max(gap_est, feas)

    cons = clock.dkappa > 0.0
    w = field.weight_array([tree.ids[int(k)] for k in np.flatnonzero(cons)])
    marg = w * obj.base.u_prime(c[cons])
    budget = float(np.dot(tree.path_prob[cons] * clock.dkappa[cons] * c[cons], marg))
    y_hat = budget / x

    return PrimalSolution(
        c=c,
        H=H,
        X=X,
        value=value,
        kkt_residual=kkt,
        x=x,
        y_estimate=y_hat,
        iterations=iterations,
        model=model,
        field=field,
    )


@dataclass
class AdmissibilityReport:
    min_wealth: float
    tolerance: float
    worst_node: object

    @property
    def passed(self) -> bool:
        return self.min_wealth >= -self.tolerance


def admissibility_check(model: MarketModel, H, c, x: float) -> AdmissibilityReport:
    """Minimum wealth of the plan (x, H, c) across all nodes, with pass/fail.

    The tolerance is 1e-9 * max(1, x).
    """
    X = wealth_from_strategy(model, np.asarray(H, dtype=float), np.asarray(c, dtype=float), x)
    k = int(np.argmin(X))
    return AdmissibilityReport(
        min_wealth=float(X[k]),
        tolerance=1e-9 * max(1.0, x),
        worst_node=model.tree.ids[k],
    )


def analytic_log_binomial(p: float, x: float):
    """Closed-form one-asset benchmark with moves to 2 or 1/2 and log utility.

    The optimal wealth fraction in the asset is 3p - 1, valid on the
    interior region p in (1/3, 1); the value is the expected log of final
    wealth at initial capital x.
    """
    if not (1.0 / 3.0 < p < 1.0):
        raise DualityLabError(
            f"interior solution requires p in (1/3, 1), got {p}"
        )
    if x <= 0.0:
        raise DualityLabError(f"initial wealth must be positive, got {x}")
    frac = 3.0 * p - 1.0
    value = p * math.log(1.0 + frac) + (1.0 - p) * math.log(1.0 - frac / 2.0) + math.log(x)
    return frac, value
