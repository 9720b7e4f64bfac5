"""Primal problem: maximize expected clock-weighted utility of consumption.

Over a finite tree the problem is a smooth concave program in the spend
sigma: dkappa * c at every consuming node of the trimmed view (``treeops``),
where effective leaves spend their whole wealth, and the wealth parked at
each dead root (a branch the clock never reaches).  A plan is financed
exactly when sigma = N' nu, with N the rows of the dual's ``node_system``
and nu_root = x: at each internal node nu holds minus the wealth left after
consumption on its balance row, and its holdings on the pricing rows of the
assets its market keeps (``treeops.node_markets``), so that every node
trades exactly the directions the dual prices.

The primal and the dual are conjugate programs over these node-local rows,
so each primal Newton step is one solve of the dual's kernel
(``Geometry.node_kkt``; Steinbach, "Tree-sparse convex programs", 2002):
with curvature 1 / |f''(sigma)| at each spend, none at the inner nodes that
do not consume, and the root's measure left free, the kernel's measures
delta give d sigma = (f'(sigma) - delta) / |f''(sigma)| and its multipliers
d nu.  By Newton's affine invariance this is the step the same problem
takes in holdings coordinates.  The state (sigma, nu) carries its
feasibility residual N' nu - sigma into the next step, as the dual's steps
carry b - A q.  Because sigma is a variable, tiny consumption keeps its
relative precision.

The marginal of an admissible field blows up at zero consumption, which
keeps maximizers strictly inside sigma > 0; dead-root wealth is the one
genuine inequality, handled by a vanishing logarithmic barrier.  Damped
Newton with the dual's line search (``treeops._line_search``: Armijo
backtracking from the fraction to the boundary of sigma > 0, Waechter &
Biegler, Math. Prog. 2006, the barrier as its weights) therefore converges
without explicit inequality handling, and no trial recomputes wealth.

A cold solve starts from the density plan c = I(y Z / w), the relation
between optimal consumption and the dual optimizer, taken at the gate's
density Z (``ensure_full_density``) with the one y whose plan costs x.
One kernel solve projects its spend onto the financed states in the
metric |f''| at the plan, from nu = (x, 0, ..., 0): the Newton step with
the objective's gradient left out.  Where Z is the only martingale density
the plan is financed already, so the projection keeps each spend, however
small, to rounding relative to its own size, and Newton certifies the
plan in one step; on other trees it is a start like any other, and where
it is not strictly inside the domain (dead roots receive nothing under
the plan) Newton starts from zero holdings instead.  A warm start scales
an earlier solution's state on the same model to the new wealth; log and
power values scale exactly in x, so there it is the optimum, and no
solve reuses another's without one.

Holdings are not unique when assets are redundant, so after convergence
each node's holdings are reported as the minimum-norm solution reproducing
the one-step wealth transfers of nu's holdings, from pseudo-inverses of the
price-change blocks built once per model; a warm start reads the
solution's ``theta``, the state (sigma, nu), not these holdings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .dual import ensure_full_density
from .errors import ConvergenceError, DualityLabError, ValueDivergenceError
from .market import MarketModel
from .treeops import (Geometry, _line_search, build_geometry, cumulative_spend,
                      wealth_from_strategy)
from .utility import UtilityField, node_weights

VALUE_CEILING = 1e100


@dataclass
class PrimalSolution:
    """Optimal plan: consumption rates, holdings, wealth path, and value.

    ``c`` and ``X`` are per-node arrays (post-consumption wealth); ``H`` is
    (n_nodes, n_active) with rows read at the node where the holdings are
    chosen.  ``kkt_residual`` bounds the optimality gap estimate plus the
    worst admissibility violation; ``y_estimate`` is the marginal value of
    wealth implied by the budget identity.  ``iterations`` counts the Newton
    steps the call ran.  ``theta`` (read-only) is the Newton state, the
    spend sigma then the multipliers nu, which ``warm_start`` reads.
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
    theta: Optional[np.ndarray] = dc_field(default=None, repr=False, compare=False)


class _PrimalObjective:
    """Objective, derivatives and Newton step at wealth x over the spend
    sigma, whose entries are the trimmed view's consuming nodes and dead
    roots in position order (trimmed indices ``cols``)."""

    def __init__(self, geo: Geometry, field: UtilityField, x: float):
        self.geo = geo
        self.x = x
        trim = geo.trimmed
        self.Nt = geo.memo("node_system_t", lambda: geo.node_system()[0].T)
        self.kkt = geo.node_kkt()
        self.cols = np.flatnonzero((geo.consuming | geo.dead_root_mask)[trim])
        pos = trim[self.cols]
        self.cons = np.flatnonzero(geo.consuming[pos])
        self.dead = np.flatnonzero(geo.dead_root_mask[pos])
        self.n_dead = self.dead.size
        pos = pos[self.cons]
        self.dk = geo.model.clock.dkappa[pos]
        self.w = node_weights(geo.model, field)[pos]
        self.pw = geo.tree.path_prob[pos] * self.w
        self.base = field.base()
        self.degree = field.degree
        self.ones, self.no_rows = np.ones(trim.size), np.zeros(self.kkt.n_rows)

    def value(self, sigma) -> float:
        """Minus the objective: the merit ``treeops._line_search`` lowers."""
        return -float(np.dot(self.pw * self.dk, self.base.u(sigma[self.cons] / self.dk)))

    def residual(self, sigma, nu):
        """N' nu - sigma over the trimmed nodes: the spend nu finances, less sigma."""
        res = self.Nt @ nu
        res[self.cols] -= sigma
        return res

    def step(self, sigma, nu, mu: float):
        """(d sigma, d nu, decrement squared, gradient) of the Newton step at
        (sigma, nu), the dead-root barrier at weight mu in the objective."""
        g, hp = np.empty(sigma.size), self.curvature(sigma, mu)  # f' and -f''
        g[self.cons] = self.pw * self.base.u_prime(sigma[self.cons] / self.dk)
        g[self.dead] = mu / sigma[self.dead]
        dsigma, dnu = self.solve(sigma, nu, g, hp)
        return dsigma, dnu, float(np.dot(dsigma, hp * dsigma)), g

    def curvature(self, sigma, mu: float):
        """-f'' at sigma, the dead-root barrier at weight mu in f."""
        hp = np.empty(sigma.size)
        hp[self.cons] = -(self.pw / self.dk) * self.base.u_second(sigma[self.cons] / self.dk)
        hp[self.dead] = mu / sigma[self.dead] ** 2
        return hp

    def solve(self, sigma, nu, g, hp):
        """(d sigma, d nu) maximizing g' d sigma - d sigma' diag(hp) d sigma / 2
        over the spends nu + d nu finances, by one kernel solve.  With g = 0,
        sigma + d sigma is the financed spend nearest sigma in the metric hp:
        a projection onto the financed states."""
        grad = self.residual(sigma, nu)
        grad[self.cols] -= g / hp
        curv = np.zeros(grad.size)
        curv[self.cols] = 1.0 / hp
        delta, _, dnu = self.kkt.solve(self.ones, self.no_rows, grad, curv, free_root=True)
        return (g - delta[self.cols]) / hp, dnu

    def usable(self, sigma, nu) -> bool:
        """Whether (sigma, nu) can start Newton: sigma > 0, financed to 1e-8 x."""
        return bool(np.all(sigma > 0.0)
                    and np.max(np.abs(self.residual(sigma, nu))) <= 1e-8 * self.x)


def solve_primal(
    model: MarketModel,
    field: UtilityField,
    x: float,
    tol: float = 1e-8,
    max_iter: int = 500,
    warm_start: Optional[PrimalSolution] = None,
) -> PrimalSolution:
    """Solve the consumption-investment problem at initial wealth x.

    Requires a strictly positive martingale density to exist (checked by
    the node-local gate ``ensure_full_density``); raises
    ``InfeasibleMarketError`` naming a node and its arbitrage otherwise,
    and ``ConvergenceError`` when the Newton iteration exhausts its budget
    before certifying the gap estimate.  The gate's density, the node
    system and its kernel stay in the model's memo for later solves.

    ``warm_start`` accepts a previous solution on the same model and reads
    its ``theta``; a solution from another model, or one without ``theta``,
    is ignored.  The state (sigma, nu) is linear in x, so its state scaled
    by x / warm_start.x is feasible at x, and optimal where the field is a
    log or power field, whose dead-root barrier scales with the objective,
    so one Newton step certifies it.  Newton starts there when its spend is
    positive and financed, entering the dead-root barrier at its final
    weight, and from ``_cold_start`` otherwise: the density plan
    c = I(y Z / w) at the gate's density projected onto the financed
    states, optimal where that density is the only one, or zero holdings
    where the plan leaves the domain, as on trees with dead roots.  The
    answer depends on the model, field, x, tol and warm start alone, not
    on earlier solves.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DualityLabError(f"initial wealth must be positive and finite, got {x}")

    geo = build_geometry(model)
    ensure_full_density(geo)  # no-arbitrage gate

    obj = _PrimalObjective(geo, field, x)
    state = None
    if warm_start is not None and warm_start.model is model and warm_start.theta is not None:
        state = np.split(warm_start.theta * (x / warm_start.x), [obj.cols.size])
        state[1][0] = x
    warm = state is not None and obj.usable(*state)
    if not warm:
        state = _cold_start(obj)

    state, iterations, mu = _maximize(obj, state, warm, tol, max_iter)
    return _assemble_solution(obj, field, *state, iterations, mu)


def _cold_start(obj):
    """The density plan's spend (``_density_plan``) projected onto the
    financed states (``_PrimalObjective.solve`` without the objective's
    gradient) from nu = (x, 0, ..., 0), where that state can start Newton
    (``usable``); else the state of no holdings, each consuming internal
    node eating x / (2 A), with the wealth x less the spend to date.

    A dead root receives nothing under the density plan, which therefore
    never starts a tree with dead roots.
    """
    nu = np.zeros(obj.kkt.n_rows)
    nu[0] = obj.x
    if not obj.n_dead and (sigma := _density_plan(obj)) is not None:
        dsigma, dnu = obj.solve(sigma, nu, np.zeros(sigma.size), obj.curvature(sigma, 0.0))
        state = sigma + dsigma, nu + dnu
        if obj.usable(*state):
            return state
    geo = obj.geo
    trim, internal = geo.trimmed, geo.internal_mask[geo.trimmed]
    c = np.where(geo.internal_mask & geo.consuming, obj.x / (2.0 * geo.model.clock.bound), 0.0)
    X = obj.x - cumulative_spend(geo.model, c)[trim]  # post-consumption wealth
    sigma = np.where(internal, geo.model.clock.dkappa[trim] * c[trim], X)[obj.cols]
    if not np.all(sigma > 0.0):
        raise DualityLabError("could not construct a strictly feasible starting plan")
    nu[1 : 1 + np.count_nonzero(internal)] = -X[internal]
    return sigma, nu


def _density_plan(obj):
    """The spend dkappa c of the plan c = I(y Z / w) at the gate's density Z,
    in the order of ``obj.cols`` on a tree without dead roots, or None where
    it is not finite and positive.

    One scalar y makes the budget sum P dkappa Z c equal x: a rescaling for
    log and power, whose I is a power of y, and a bracketed root of the
    budget's logarithm otherwise.  Where Z is the only martingale density
    this spend is financed, and the plan is optimal.
    """
    geo, base = obj.geo, obj.base
    pos = geo.trimmed[obj.cols]
    z = ensure_full_density(geo)[pos]
    price = geo.tree.path_prob[pos] * obj.dk * z  # of one unit of each rate
    zw = z / obj.w
    with np.errstate(all="ignore"):
        c = base.inv_u_prime(zw)
        if obj.degree is None:
            # The budget falls in y: double t until the root is bracketed, or
            # until the budget over- or underflows.
            args = (price, zw, base, obj.x)
            lo = _log_budget_excess(0.0, *args)
            if not math.isfinite(lo):
                return None
            t = math.copysign(1.0, lo)
            while math.isfinite(hi := _log_budget_excess(t, *args)) and hi * lo > 0.0:
                t *= 2.0
            if not math.isfinite(hi):
                return None
            from scipy.optimize import brentq

            t = brentq(_log_budget_excess, 0.0, t, args=args, xtol=1e-14)
            c = base.inv_u_prime(np.exp(t) * zw)
        sigma = obj.dk * (c * (obj.x / float(np.dot(price, c))))
    return sigma if np.all(np.isfinite(sigma) & (sigma > 0.0)) else None


def _log_budget_excess(t, price, zw, base, x):
    """log(sum price I(e^t zw) / x): the density plan's cost at y = e^t
    against the wealth x.  A module function, so that ``brentq``'s wrapper,
    which refers to itself, keeps no plan alive."""
    return float(np.log(np.dot(price, base.inv_u_prime(np.exp(t) * zw)) / x))


def _maximize(obj, state, warm, tol, max_iter):
    """Damped Newton ascent from the state (sigma, nu), through the dead-root
    barrier's stages (only the last one when ``warm``).

    Returns the final state, the Newton steps run and the final barrier
    weight.
    """
    stop_tol = max(min(tol, 1e-8) * 1e-4, 1e-16)
    mus = [0.0]
    if obj.n_dead:
        # The barrier's weights are in units of the objective's own scale
        # x^degree where it is homogeneous, so that its central path scales
        # with x as the plan does; else in units of x.
        unit = obj.x
        if obj.degree is not None:
            try:
                unit = obj.x**obj.degree
            except OverflowError:
                raise ConvergenceError(
                    f"primal solve at x={obj.x}: the objective's scale overflows"
                ) from None
        mus = [1e-2 * unit, 1e-6 * unit, max(min(tol, 1e-9) * unit, 1e-14)]
        if warm:
            # The warm plan already sits near the final barrier's path.
            mus = mus[-1:]

    sigma, nu = state
    bw = np.zeros(sigma.size)  # the line search's barrier weights
    iterations = 0
    for stage, mu in enumerate(mus):
        last = stage == len(mus) - 1
        inner_tol = stop_tol if last else max(mu * obj.n_dead * 0.05, stop_tol)
        bw[obj.dead] = mu
        f = obj.value(sigma)
        phi = f - float(np.dot(bw, np.log(sigma)))
        while True:
            if iterations >= max_iter:
                raise ConvergenceError(
                    f"primal solve at x={obj.x} exceeded {max_iter} Newton iterations"
                )
            iterations += 1
            dsigma, dnu, lam2, g = obj.step(sigma, nu, mu)
            done = lam2 / 2.0 <= inner_tol
            if done and lam2 == 0.0:
                break
            if done and lam2 / 2.0 <= stop_tol and np.min(sigma + dsigma) > 0.0:
                # Quadratic phase: the pending step squares the accuracy.
                # Below stop_tol its gain is under the value's rounding, which
                # would decide an Armijo test, so the step is taken whole
                # wherever it stays in the domain.
                sigma, alpha = sigma + dsigma, 1.0
            else:
                sigma, f, phi, alpha = _line_search(obj.value, sigma, dsigma, -g, f, phi, bw)
            nu = nu + alpha * dnu
            if done:
                break
            if -f > VALUE_CEILING:
                raise ValueDivergenceError("primal objective diverged")
    return (sigma, nu), iterations, mus[-1]


def _assemble_solution(obj, field, sigma, nu, iterations, mu_final) -> PrimalSolution:
    geo, x = obj.geo, obj.x
    model = geo.model
    tree = geo.tree
    clock = model.clock
    trim = geo.trimmed
    n = tree.n_nodes
    na = model.n_active

    c = np.zeros(n)
    c[trim[obj.cols[obj.cons]]] = sigma[obj.cons] / obj.dk

    # Minimum-norm holdings reproducing each internal node's transfers
    # under nu's holdings, which sit on its kept assets.
    H = np.zeros((n, na))
    if na:
        internal, _, _, dates, keep = geo.markets()
        held = np.zeros(keep.shape)
        held[keep] = nu[1 + internal.size :]
        for (first, own, _, dS), pinv in zip(dates, _holdings_pinv(geo)):
            move = dS @ held[first : first + own.size, :, None]
            H[trim[own]] = (pinv @ move)[:, :, 0]

    # Re-derive the wealth path from the reported strategy so the returned
    # triple is exactly self-consistent.
    X = wealth_from_strategy(model, H, c, x)

    value = -obj.value(sigma)
    # Stationarity is measured with the final barrier in place: at a plan
    # whose dead-branch wealth floor binds, the bare gradient equals the
    # floor's shadow price rather than a violation.  The barrier's own bias
    # on the value is at most mu per floored branch.
    lam2 = obj.step(sigma, nu, mu_final)[2]
    gap_est = lam2 / 2.0 + mu_final * obj.n_dead
    feas = max(0.0, -float(np.min(X))) / max(1.0, x)
    kkt = max(gap_est, feas)

    cons = clock.dkappa > 0.0
    w = node_weights(model, field)[cons]
    marg = w * obj.base.u_prime(c[cons])
    budget = float(np.dot(tree.path_prob[cons] * clock.dkappa[cons] * c[cons], marg))
    y_hat = budget / x

    theta = np.concatenate((sigma, nu))
    theta.setflags(write=False)
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
        theta=theta,
    )


def _holdings_pinv(geo: Geometry):
    """Per date of ``Geometry.markets``, the pseudo-inverses of its nodes'
    price-change blocks, each from as many leading singular values as the
    node keeps assets, kept per model."""
    _, _, _, dates, keep = geo.markets()

    def build():
        pinvs = []
        for first, own, _, dS in dates:
            u, s, vt = np.linalg.svd(dS, full_matrices=False)
            kept = np.arange(s.shape[1]) < keep[first : first + own.size].sum(axis=1)[:, None]
            s = np.divide(1.0, s, where=kept, out=np.zeros_like(s))
            pinvs.append(np.swapaxes(vt, 1, 2) @ (s[:, :, None] * np.swapaxes(u, 1, 2)))
        return pinvs

    return geo.memo("holdings_pinv", build)


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
