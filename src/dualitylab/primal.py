"""Primal problem: maximize expected clock-weighted utility of consumption.

Over a finite tree the problem reduces to a smooth concave program in the
holdings at internal nodes plus the consumption rates at internal nodes
with positive clock mass: effective leaves always consume their entire
wealth, so their rates are eliminated, and the wealth at every remaining
node of the trimmed view (``treeops``) is an affine function of the reduced
variables.  Theta stacks a holdings block at every internal node, then the
rates of the consuming ones, each in position order.

That wealth map is never formed as a matrix.  Each internal node k owns a
block s_k (its holdings and its rate), and the wealth change into its child
c is v_c^T s_k with v_c = (S(c) - S(k), -dkappa_k), so the pre-consumption
wealth X_pre = x + w is one root-to-leaf pass over the dates, w_c = w_k +
v_c^T s_k from w = 0 at the root.  Its transpose maps values y at the
trimmed nodes to the gradient sum_c Y_c v_c at each block s_k, where Y_c
sums y over the subtree of c: one leaf-to-root pass.

The marginal of an admissible field blows up at zero consumption, which
keeps maximizers strictly inside the region where consumption and the
wealth entering effective leaves stay positive; a damped Newton iteration
with a domain-respecting line search therefore converges without explicit
inequality handling.  The line search backtracks from the fraction to the
boundary of the largest step that keeps the domain (Waechter & Biegler,
Math. Prog. 2006), not from the whole step, and accepts a trial only where
the wealth recomputed from it is inside the domain.  Wealth parked at dead
roots (branches the clock never reaches) is the one genuine inequality; it
is handled by a vanishing logarithmic barrier.

Each Newton step solves (-H + rho I) d = g without forming H, by a Riccati
recursion over the dates of the trimmed tree (Steinbach, "Tree-sparse
convex programs", 2002; Blomvall & Lindberg, EJOR 2002).  The negated
Hessian is sum_t a_t r_t r_t^T + diag(pd) over the trimmed leaves t, where
r_t is the wealth map's row at t.  Deepest date first, every internal node
forms

    K_k = diag(pd_k) + rho I + sum_c a_c v_c v_c^T,
    u_k = sum_c a_c v_c,   beta_k = g_k + sum_c b_c v_c,
    a_k = sum_c a_c - u_k^T K_k^-1 u_k,   b_k = sum_c b_c - u_k^T K_k^-1 beta_k,

with b = 0 at the leaves; then, from w = 0 at the root, s_k = K_k^-1
(beta_k - w_k u_k) and w_c = w_k + v_c^T s_k.  This is the block LDL^T
factorization of -H + rho I, which has no fill, so a step costs
O(nodes * (n_active + 1)^3), and in exact arithmetic a K_k fails Cholesky
exactly when -H + rho I is not positive definite.

A cold solve starts from the density plan c = I(y Z / w), the relation
between optimal consumption and the dual optimizer, taken at the gate's
density Z (``ensure_full_density``) with the one y whose plan costs x.
Its wealth is the Z-price of the consumption still to come, and each
internal node's holdings fit the wealth moves into its children by least
squares.  Where Z is the only martingale density this is the optimal plan,
so Newton certifies it in one step; on other trees it is a start like any
other, and where it is not strictly inside the domain (dead roots receive
nothing under it) Newton starts from zero holdings instead.

Each node trades the assets its market keeps (``treeops.node_markets``), the
directions the dual prices.  Holdings are not unique when assets are
redundant, so after convergence each node's holdings are reported as the
minimum-norm solution reproducing the converged one-step wealth transfers,
from pseudo-inverses of the price-change blocks built once per model; a
warm start reads the solution's theta, not these holdings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .dual import _boundary_fraction, ensure_full_density, scaling_reference
from .errors import ConvergenceError, DualityLabError, ValueDivergenceError
from .market import MarketModel, _accumulate_up
from .treeops import Geometry, build_geometry, wealth_from_strategy
from .utility import UtilityField, node_weights

VALUE_CEILING = 1e100
_ZERO = np.zeros(1)


@dataclass
class PrimalSolution:
    """Optimal plan: consumption rates, holdings, wealth path, and value.

    ``c`` and ``X`` are per-node arrays (post-consumption wealth); ``H`` is
    (n_nodes, n_active) with rows read at the node where the holdings are
    chosen.  ``kkt_residual`` bounds the optimality gap estimate plus the
    worst admissibility violation; ``y_estimate`` is the marginal value of
    wealth implied by the budget identity.  ``iterations`` counts the Newton
    steps the call ran: a log or power solve's own steps from its scaled
    x = 1 plan, plus that plan's steps when the call solved it.  ``theta``
    (read-only) is the plan in Newton variables, which ``warm_start`` reads.
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
    """Objective, gradient and Newton curvatures over the reduced variables theta."""

    def __init__(self, geo: Geometry, field: UtilityField, x: float):
        self.geo = geo
        self.x = x
        self.system = geo.memo("tree_system", lambda: _TreeSystem(geo))
        tree = geo.tree
        clock = geo.model.clock
        trim = geo.trimmed
        self.base = field.base()
        w = node_weights(geo.model, field)

        self.eff_t = np.flatnonzero(geo.eff_mask[trim])
        self.eff_pos = trim[self.eff_t]
        self.eff_prob = tree.path_prob[self.eff_pos]
        self.eff_dk = clock.dkappa[self.eff_pos]
        self.eff_w = w[self.eff_pos]

        self.mid_pos = self.system.mid_pos
        self.mid_idx = self.system.mid_idx
        self.mid_prob = tree.path_prob[self.mid_pos]
        self.mid_dk = clock.dkappa[self.mid_pos]
        self.mid_w = w[self.mid_pos]

        self.dead_t = np.flatnonzero(geo.dead_root_mask[trim])
        self.n_dead = self.dead_t.size
        self.degree = field.degree

    def domain_parts(self, theta, s):
        """The quantities the domain keeps positive at theta with wealth s over
        the trimmed nodes: rates, effective-leaf wealth and dead-root wealth."""
        return theta[self.mid_idx], s[self.eff_t], s[self.dead_t]

    def _inside(self, theta, w=None):
        """``domain_parts`` at theta, or None outside the domain; ``w`` is
        theta's ``_TreeSystem.wealth`` where the caller has it."""
        s = self.x + (self.system.wealth(theta) if w is None else w)
        parts = self.domain_parts(theta, s)
        return parts if all(np.all(part > 0.0) for part in parts) else None

    def in_domain(self, theta, w=None) -> bool:
        return self._inside(theta, w) is not None

    def value(self, theta, mu: float, w=None) -> float:
        """Objective plus the dead-root barrier; -inf outside the domain."""
        inside = self._inside(theta, w)
        if inside is None:
            return -math.inf
        c_mid, s_eff, s_dead = inside
        total = 0.0
        if self.eff_pos.size:
            c_eff = s_eff / self.eff_dk
            total += float(np.dot(self.eff_prob * self.eff_dk * self.eff_w, self.base.u(c_eff)))
        if self.mid_idx.size:
            total += float(np.dot(self.mid_prob * self.mid_dk * self.mid_w, self.base.u(c_mid)))
        if mu > 0.0 and self.n_dead:
            total += mu * float(np.sum(np.log(s_dead)))
        return total

    def grad_curv(self, theta, mu: float, w=None):
        """Gradient g and the curvatures of -H = sum_t a_t r_t r_t^T + diag(pd).

        ``a`` runs over the trimmed nodes and is zero at internal ones; ``pd``
        runs over theta and is zero at holdings.
        """
        s = self.x + (self.system.wealth(theta) if w is None else w)
        y = np.zeros(self.system.n_trim)  # marginal value of wealth per trimmed node
        a = np.zeros(self.system.n_trim)
        pd = np.zeros(theta.size)
        if self.eff_pos.size:
            c = s[self.eff_t] / self.eff_dk
            y[self.eff_t] = self.eff_prob * self.eff_w * self.base.u_prime(c)
            a[self.eff_t] = -(self.eff_prob * self.eff_w * self.base.u_second(c) / self.eff_dk)
        if mu > 0.0 and self.n_dead:
            s_dead = s[self.dead_t]
            y[self.dead_t] = mu / s_dead
            a[self.dead_t] = mu / s_dead**2
        g = self.system.wealth_t(y)
        if self.mid_idx.size:
            c = theta[self.mid_idx]
            coef = self.mid_prob * self.mid_dk * self.mid_w
            g[self.mid_idx] += coef * self.base.u_prime(c)
            pd[self.mid_idx] = -(coef * self.base.u_second(c))
        return g, a, pd


@dataclass
class _Date:
    """The internal trimmed nodes of one date and their children.

    Spare child slots point at the sentinel index ``n_trim`` and move no
    wealth.  Node k's block s_k is its holdings then its rate slot; ``var``
    points at a dummy (n_vars) for the rate when k does not consume and for
    each asset k's market does not keep, whose holding stays zero.  Row c of
    ``V[k]`` is v_c = (S(c) - S(k), -dkappa_k), zero in the untraded assets.
    """

    nodes: np.ndarray  # (n,) trimmed indices
    child: np.ndarray  # (n, width) trimmed indices
    V: np.ndarray  # (n, width, n_active + 1)
    Vt: np.ndarray  # V with its last two axes swapped, contiguous
    var: np.ndarray  # (n, n_active + 1) theta indices
    leaf_kids: bool  # no child is internal
    pinv: Optional[np.ndarray]  # (n, n_active, width) min-norm inverse of dS on kept directions


class _TreeSystem:
    """Theta's layout and the date-by-date structure of the wealth map and the
    Newton system (see module docstring) over ``Geometry.markets``."""

    def __init__(self, geo: Geometry):
        internal, _, _, dates, keep = geo.markets()
        na = geo.model.n_active
        trim = geo.trimmed
        self.n_trim = trim.size
        internal = trim[internal]
        consuming = geo.consuming[internal]

        # Holdings blocks, then the rates of the consuming internal nodes.
        self.mid_pos = internal[consuming]
        self.mid_idx = na * internal.size + np.arange(self.mid_pos.size)
        self.n_vars = na * internal.size + self.mid_pos.size
        var = np.full((internal.size, na + 1), self.n_vars)
        var[:, :na] = na * np.arange(internal.size)[:, None] + np.arange(na)
        var[:, :na][~keep] = self.n_vars  # untraded assets
        var[consuming, na] = self.mid_idx

        rate = -geo.model.clock.dkappa[trim]
        self.dates = []
        for first, own, child, dS in dates:
            span = slice(first, first + own.size)
            real = child < trim.size
            V = np.zeros(child.shape + (na + 1,))
            V[:, :, :na] = np.where(keep[span, None], dS, 0.0)
            V[:, :, na] = np.where(real, rate[own, None], 0.0)
            leaf_kids = not geo.internal_mask[trim[child[real]]].any()
            Vt = np.ascontiguousarray(np.swapaxes(V, 1, 2))
            pinv = _pinv(dS, keep[span].sum(axis=1)) if na else None
            self.dates.append(_Date(own, child, V, Vt, var[span], leaf_kids, pinv))

    def wealth(self, theta):
        """Wealth change from the root at every trimmed node: one root-to-leaf pass."""
        s = np.concatenate((theta, _ZERO))  # the dummy rate slot
        w = np.zeros(self.n_trim + 1)  # and the spare children's sentinel
        for d in self.dates:
            step = (s[d.var][:, None, :] @ d.Vt)[:, 0]
            # The root's own change is zero.
            w[d.child] = step if d is self.dates[0] else w[d.nodes, None] + step
        return w[:-1]

    def wealth_t(self, y, squared: bool = False):
        """Transpose of ``wealth`` at values y on the trimmed nodes: one
        leaf-to-root pass.  With ``squared`` every entry of the map is squared."""
        subtree = np.concatenate((y, _ZERO))  # sums of y at and below each node
        out = np.zeros(self.n_vars + 1)
        for d in reversed(self.dates):
            y_c = subtree[d.child]
            out[d.var] = ((d.Vt**2 if squared else d.Vt) @ y_c[:, :, None])[:, :, 0]
            if d is not self.dates[0]:  # the root's sum is never read
                subtree[d.nodes] += y_c.sum(axis=1)
        return out[:-1]

    def transfers(self, pre, post):
        """Each date with its (n, width) wealth moves: from its nodes'
        post-consumption wealth ``post`` to their children's pre-consumption
        wealth ``pre``, both over the trimmed nodes, and zero in spare slots."""
        pre = np.append(pre, 0.0)
        for d in self.dates:
            move = pre[d.child] - post[d.nodes, None]
            move[d.child == self.n_trim] = 0.0
            yield d, move

    def solve(self, g, a, pd, ridge: float):
        """Solve (-H + ridge I) d = g by one backward and one forward pass.

        ``a`` and ``pd`` are the curvatures from ``grad_curv``.  Raises
        ``LinAlgError`` when a pivot block K_k fails Cholesky (in exact
        arithmetic, exactly when -H + ridge I is not positive definite) or
        is exactly singular, as with duplicated assets.
        """
        a = np.append(a, 0.0)
        b = np.zeros(a.size)
        g = np.append(g, 0.0)
        pd = np.append(pd, 1.0)
        solved = []
        for d in reversed(self.dates):
            a_c = a[d.child]
            aVt = d.Vt * a_c[:, None, :]
            K = aVt @ d.V
            n, m = d.var.shape
            K.reshape(n, m * m)[:, :: m + 1] += pd[d.var] + ridge
            u = aVt.sum(axis=2)
            beta = g[d.var]
            b_sum = 0.0
            if not d.leaf_kids:
                b_c = b[d.child]
                beta = beta + (b_c[:, None, :] @ d.V)[:, 0]
                b_sum = b_c.sum(axis=1)
            np.linalg.cholesky(K)  # raises unless every K_k is positive definite
            z = np.linalg.solve(K, np.stack((u, beta), axis=2))
            solved.append(z)
            if d is not self.dates[0]:  # the root's a and b are never read
                a[d.nodes] = a_c.sum(axis=1) - np.sum(u * z[:, :, 0], axis=1)
                b[d.nodes] = b_sum - np.sum(u * z[:, :, 1], axis=1)

        step = np.zeros(g.size)
        w = np.zeros(a.size)
        for d, z in zip(self.dates, reversed(solved)):
            s = z[:, :, 1] - w[d.nodes, None] * z[:, :, 0]
            step[d.var] = s
            if not d.leaf_kids:
                w[d.child] = w[d.nodes, None] + (d.V @ s[:, :, None])[:, :, 0]
        return step[:-1]


def _pinv(M, rank):
    """Pseudo-inverses of the stacked blocks ``M``, each from its leading
    ``rank`` singular values."""
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    kept = np.arange(s.shape[1]) < rank[:, None]
    s = np.divide(1.0, s, where=kept, out=np.zeros_like(s))
    return np.swapaxes(vt, 1, 2) @ (s[:, :, None] * np.swapaxes(u, 1, 2))


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
    before certifying the gap estimate.  The gate's density, the tree
    system and the log and power families' plan at x = 1 stay in the
    model's memo for later solves.

    ``warm_start`` accepts a previous solution on the same model and reads
    its ``theta``; a solution from another model, or one without ``theta``,
    is ignored.  Wealth is jointly homogeneous in (x, plan), so its plan
    scaled by x / warm_start.x is feasible at x, and optimal where the field
    is a pure power.  Newton starts there when that plan lies strictly
    inside the domain, entering the dead-root barrier at its final weight,
    and from ``_cold_start`` otherwise: the density plan c = I(y Z / w) at
    the gate's density, optimal where that density is the only one, or
    zero holdings where that plan leaves the domain, as on trees with dead
    roots.  Without a warm start, a log or power field starts from its plan
    at x = 1 scaled by x, which the first such call solves from the cold
    start (``scaling_reference``); the scaling law is exact for these
    fields, barrier included, so one Newton step certifies the plan.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DualityLabError(f"initial wealth must be positive and finite, got {x}")

    geo = build_geometry(model)
    ensure_full_density(geo)  # no-arbitrage gate

    obj = _PrimalObjective(geo, field, x)
    theta, steps = None, 0
    if warm_start is not None and warm_start.model is model and warm_start.theta is not None:
        theta = warm_start.theta * (x / warm_start.x)
    elif field.degree is not None:
        def solve():
            at_one = _PrimalObjective(geo, field, 1.0)
            theta, iterations, _ = _maximize(at_one, _cold_start(at_one), False, tol, max_iter)
            return {"theta": theta}, iterations

        ref, steps = scaling_reference(geo, "primal", field, tol, solve)
        theta = ref["theta"] * x
    warm = theta is not None and obj.in_domain(theta)
    if not warm:
        theta = _cold_start(obj)

    theta, iterations, mu = _maximize(obj, theta, warm, tol, max_iter)
    return _assemble_solution(geo, obj, field, theta, x, steps + iterations, mu)


def _cold_start(obj):
    """The density plan (``_density_plan``) where it lies strictly inside
    the domain; else no holdings, and each consuming internal node eating
    x / (2 A).

    A dead root receives nothing under the density plan, which therefore
    never starts a tree with dead roots.
    """
    if not obj.n_dead:
        theta = _density_plan(obj)
        if theta is not None and obj.in_domain(theta):
            return theta
    theta = np.zeros(obj.system.n_vars)
    if obj.mid_idx.size:
        theta[obj.mid_idx] = obj.x / (2.0 * obj.geo.model.clock.bound)
    if not obj.in_domain(theta):
        raise DualityLabError("could not construct a strictly feasible starting plan")
    return theta


def _density_plan(obj):
    """theta of the plan c = I(y Z / w) at the gate's density Z, or None
    where it is not finite.

    One scalar y makes the budget sum P dkappa Z c equal x: a rescaling for
    log and power, whose I is a power of y, and a bracketed root of the
    budget's logarithm otherwise.  The pre-consumption wealth X = E[sum of
    Z dkappa c at and below the node] / (P Z) is one leaf-to-root pass, and
    each internal node holds the least-squares solution on its kept assets
    for the wealth moves into its children.  Where Z is the only martingale
    density these moves are replicated exactly and the plan is optimal.
    """
    geo, base = obj.geo, obj.base
    tree, dk = geo.tree, geo.model.clock.dkappa
    z = ensure_full_density(geo)
    pos = np.concatenate((obj.eff_pos, obj.mid_pos))
    price = tree.path_prob[pos] * dk[pos] * z[pos]  # of one unit of each rate
    zw = z[pos] / np.concatenate((obj.eff_w, obj.mid_w))
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
        c = c * (obj.x / float(np.dot(price, c)))
        mass = np.zeros(tree.n_nodes)
        mass[pos] = price * c
        _accumulate_up(mass, tree.parent, tree.levels)
        trim = geo.trimmed
        pre = (mass / (tree.path_prob * z))[trim]
    spend = np.zeros(tree.n_nodes)
    spend[pos] = dk[pos] * c
    theta = np.zeros(obj.system.n_vars + 1)  # and the dummy slot
    theta[obj.mid_idx] = c[obj.eff_pos.size:]
    na = geo.model.n_active
    for d, move in obj.system.transfers(pre, pre - spend[trim]) if na else ():
        # V's untraded columns are zero, so its pseudo-inverse at the rank
        # of the traded ones fits them alone.
        traded = d.var[:, :na] < obj.system.n_vars
        fit = _pinv(d.V[:, :, :na], traded.sum(axis=1))
        theta[d.var[:, :na]] = (fit @ move[:, :, None])[:, :, 0]
    theta = theta[:-1]
    return theta if np.isfinite(theta).all() else None


def _log_budget_excess(t, price, zw, base, x):
    """log(sum price I(e^t zw) / x): the density plan's cost at y = e^t
    against the wealth x.  A module function, so that ``brentq``'s wrapper,
    which refers to itself, keeps no plan alive."""
    return float(np.log(np.dot(price, base.inv_u_prime(np.exp(t) * zw)) / x))


def _maximize(obj, theta, warm, tol, max_iter):
    """Damped Newton ascent from theta, through the dead-root barrier's
    stages (only the last one when ``warm``).

    Returns the final theta, the Newton steps run and the final barrier
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

    iterations = 0
    for stage, mu in enumerate(mus):
        last = stage == len(mus) - 1
        inner_tol = stop_tol if last else max(mu * obj.n_dead * 0.05, stop_tol)
        value = obj.value(theta, mu)
        while True:
            if iterations >= max_iter:
                raise ConvergenceError(
                    f"primal solve at x={obj.x} exceeded {max_iter} Newton iterations"
                )
            iterations += 1
            w = obj.system.wealth(theta)
            g, a, pd = obj.grad_curv(theta, mu, w)
            step, lam2 = _ascent_step(obj.system, g, a, pd)
            if lam2 / 2.0 <= inner_tol:
                if lam2 > 0.0:
                    # Quadratic phase: the pending step squares the accuracy.
                    # Below stop_tol its gain is under the value's rounding,
                    # which would decide an Armijo test, so the step is taken
                    # whole wherever it stays in the domain.
                    if lam2 / 2.0 <= stop_tol and obj.in_domain(theta + step):
                        theta = theta + step
                    else:
                        theta, value = _domain_line_search(obj, theta, w, value, step, g, mu)
                break
            theta, value = _domain_line_search(obj, theta, w, value, step, g, mu)
            if value > VALUE_CEILING:
                raise ValueDivergenceError("primal objective diverged")
    return theta, iterations, mus[-1]


def _ascent_step(system, g, a, pd):
    """Newton ascent direction with escalating ridge on the negated Hessian.

    The ridge starts at 0, then at 1e-12 times the largest diagonal entry
    of -H, growing a hundredfold per try.
    """
    if g.size == 0:
        return g, 0.0
    ridge = 0.0
    scale = None
    for _ in range(14):
        try:
            step = system.solve(g, a, pd, ridge)
            lam2 = float(np.dot(g, step))
            if lam2 >= 0.0:
                return step, lam2
        except np.linalg.LinAlgError:
            pass
        if scale is None:
            diag = system.wealth_t(a, squared=True) + pd
            scale = float(np.max(np.abs(diag))) or 1.0
        ridge = max(ridge * 100.0, 1e-12 * scale)
    raise ConvergenceError("primal Newton system is not positive definite under any ridge")


def _domain_line_search(obj, theta, w, value, step, g, mu):
    """Armijo backtracking from theta, whose wealth is ``w`` and objective
    ``value``.

    Backtracking starts at the fraction to the boundary
    (``dual._boundary_fraction``) of the largest step that keeps every rate,
    effective-leaf wealth and dead-root wealth positive, not at the whole
    step, which on a plan with nearly empty leaves would halve into the
    boundary for dozens of trials.  Wealth is linear in theta, so each
    trial's is read off w and the step's; that extrapolation differs from the
    wealth recomputed from the trial by rounding, which decides the domain
    where a leaf consumes next to nothing, so a trial is accepted only where
    the recomputed wealth is inside it too.

    Returns the accepted point and its objective.
    """
    dw = obj.system.wealth(step)
    now = np.concatenate(obj.domain_parts(theta, obj.x + w))
    alpha = _boundary_fraction(now, np.concatenate(obj.domain_parts(step, dw)))
    slope = float(np.dot(g, step))
    for _ in range(80):
        cand, cand_w = theta + alpha * step, w + alpha * dw
        cand_value = obj.value(cand, mu, cand_w)
        if cand_value >= value + 1e-4 * alpha * slope and obj.in_domain(cand):
            return cand, cand_value
        alpha *= 0.5
    cand = theta + alpha * step
    if not obj.in_domain(cand):
        return theta, value
    return cand, obj.value(cand, mu)


def _assemble_solution(geo, obj, field, theta, x, iterations, mu_final) -> PrimalSolution:
    model = geo.model
    tree = geo.tree
    clock = model.clock
    n = tree.n_nodes
    na = model.n_active

    x_pre = np.zeros(n)
    x_pre[geo.trimmed] = x + obj.system.wealth(theta)

    c = np.zeros(n)
    if obj.eff_pos.size:
        c[obj.eff_pos] = x_pre[obj.eff_pos] / clock.dkappa[obj.eff_pos]
    if obj.mid_pos.size:
        c[obj.mid_pos] = theta[obj.mid_idx]

    x_post = np.zeros(n)
    trim = geo.trimmed
    x_post[trim] = x_pre[trim] - c[trim] * clock.dkappa[trim]

    # Minimum-norm holdings reproducing each internal node's transfers.  A
    # spare child slot has a zero price change and target.
    H = np.zeros((n, na))
    for d, move in obj.system.transfers(x_pre[trim], x_post[trim]) if na else ():
        H[trim[d.nodes]] = (d.pinv @ move[:, :, None])[:, :, 0]

    # Re-derive the wealth path from the reported strategy so the returned
    # triple is exactly self-consistent.
    X = wealth_from_strategy(model, H, c, x)

    value = obj.value(theta, 0.0)
    # Stationarity is measured with the final barrier in place: at a plan
    # whose dead-branch wealth floor binds, the bare gradient equals the
    # floor's shadow price rather than a violation.  The barrier's own bias
    # on the value is at most mu per floored branch.
    _, lam2 = _ascent_step(obj.system, *obj.grad_curv(theta, mu_final))
    gap_est = lam2 / 2.0 + mu_final * obj.n_dead
    feas = max(0.0, -float(np.min(X))) / max(1.0, x)
    kkt = max(gap_est, feas)

    cons = clock.dkappa > 0.0
    w = node_weights(model, field)[cons]
    marg = w * obj.base.u_prime(c[cons])
    budget = float(np.dot(tree.path_prob[cons] * clock.dkappa[cons] * c[cons], marg))
    y_hat = budget / x

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
