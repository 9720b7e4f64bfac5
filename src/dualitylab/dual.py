"""Dual problem: minimize the conjugate objective over martingale densities.

The feasible set is the polytope of nonnegative processes Z with Z_0 = 1
that are martingales and keep every traded asset's price process a
martingale after reweighting.  On a finite tree a density is pinned by its
leaf values, so the public polytope object uses the leaf parameterization
from ``treeops``.  The solver works in *measures*, which live inside the
probability simplex and keep the barrier geometry bounded even when the
densities span many orders of magnitude, and picks coordinates in which

    F = sum over consuming nodes of  P * dkappa * V(node, y * Z(node)),

with V the conjugate field, has one separable term per consuming node:
leaf measures q = P * zeta when every consuming node is a trimmed leaf,
else node measures m_k = P(k) Z(k) on the whole trimmed tree, whose
constraints m_root = 1, m_k = sum_c m_c and sum_c m_c (S_c - S_k) = 0 are
node-local (Steinbach, "Tree-sparse convex programs", 2002).

Every solve first runs the no-arbitrage gate ``ensure_full_density``: the
product of one strictly positive one-step martingale measure per node
(``treeops.martingale_density``), which raises ``InfeasibleMarketError``
naming a node and its arbitrage.  Its density P Z starts the node-measure
solve and continues the optimal density below the trimmed view.  Only the
leaf-measure solve builds the dense leaf system; it starts from the entropy
centre, seeded by ``find_interior``.

Since the conjugate of any admissible field descends infinitely steeply at
0, minimizers stay strictly positive wherever the objective looks; a
logarithmic barrier on the trimmed-leaf measures, with decreasing weight,
keeps iterates interior.  Newton steps are taken inside the affine set in
iterate-scaled (Dikin) coordinates, where the barrier contributes exactly
its weight to the diagonal: in leaf measures the multipliers come from an
SVD least-squares solve rather than the squared-conditioning Schur
complement, in node measures from one sparse LU of the KKT matrix.  Either
way optimality is certified by the separable Lagrangian lower bound at the
Newton multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, linprog, minimize
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, DualityLabError, InfeasibleMarketError
from .market import MarketModel
from .treeops import (
    Geometry,
    build_geometry,
    full_polytope_matrices,
    martingale_density,
    node_system,
    node_values,
)
from .utility import UtilityField

ARBITRAGE_MARGIN = 1e-11
BOUNDARY_FLAG_LEVEL = 1e-6
_LP_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass
class MartingalePolytope:
    """Leaf-parameterized martingale-density constraints A zeta = b, zeta >= 0.

    The rows of A are the normalization Z_0 = 1 followed by one pricing row
    per (non-terminal node, tradable asset), ordered by node position then
    asset; ``to_node_values`` gives the per-node density of a leaf vector.
    """

    model: MarketModel
    A: np.ndarray
    b: np.ndarray
    leaves: np.ndarray

    @property
    def n_leaves(self) -> int:
        return self.leaves.size

    @property
    def n_constraints(self) -> int:
        return self.A.shape[0]

    def to_node_values(self, zeta: np.ndarray) -> np.ndarray:
        return node_values(self.model.tree, self.leaves, zeta)

    def residual(self, zeta: np.ndarray) -> float:
        return float(np.max(np.abs(self.A @ np.asarray(zeta, dtype=float) - self.b)))

    def contains(self, zeta: np.ndarray, tol: float = 1e-9) -> bool:
        zeta = np.asarray(zeta, dtype=float)
        return bool(np.min(zeta) >= -tol and self.residual(zeta) <= tol)

    def interior_point(self) -> np.ndarray:
        """The leaf values of ``ensure_full_density``'s density."""
        return ensure_full_density(build_geometry(self.model))[self.leaves]


def martingale_polytope(model: MarketModel) -> MartingalePolytope:
    A, b = full_polytope_matrices(model)
    return MartingalePolytope(model=model, A=A, b=b, leaves=model.tree.leaves)


def find_interior(A: np.ndarray, b: np.ndarray, center=None) -> np.ndarray:
    """Strictly positive solution of A x = b, or raise.

    First tries the least-norm shift of ``center`` (ones by default); when
    that leaves the positive orthant, falls back to a max-margin LP.  A
    nonpositive optimal margin means no strictly positive point exists.
    Its one remaining use is to seed the leaf-coordinate dual
    (``entropy_center``); the no-arbitrage gate is ``ensure_full_density``.
    """
    n = A.shape[1]
    x0 = np.ones(n) if center is None else np.asarray(center, dtype=float)
    gram = A @ A.T
    try:
        shift = A.T @ np.linalg.solve(gram, b - A @ x0)
        x = x0 + shift
        if np.min(x) > 1e-9 and np.max(np.abs(A @ x - b)) < 1e-9:
            return x
    except np.linalg.LinAlgError:
        pass

    # max t  s.t.  A x = b,  x_i >= t
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.hstack([A, np.zeros((A.shape[0], 1))])
    a_ub = sparse.hstack([-sparse.identity(n), np.ones((n, 1))])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=b,
        bounds=[(None, None)] * n + [(None, 1.0)],
        method="highs",
        options=_LP_OPTS,
    )
    if res.status != 0 or res.x is None:
        raise InfeasibleMarketError(
            "no martingale density exists for this market (feasibility LP failed)"
        )
    margin = res.x[-1]
    if margin <= ARBITRAGE_MARGIN:
        raise InfeasibleMarketError(
            f"no strictly positive martingale density exists (margin {margin:.3g}); "
            "the market admits arbitrage"
        )
    return res.x[:-1]


# ---------------------------------------------------------------------------
# Per-model memos: the leaf-measure system, its seeds and the gate's density


def _measure_system(geo: Geometry):
    """The trimmed leaf system in leaf-measure coordinates q = P zeta, built once."""

    def build():
        prob = geo.tree.path_prob[geo.solve_leaves]
        A, b = geo.leaf_system()
        A /= prob[None, :]
        return A, b, prob

    return geo.memo("measure_system", build)


def entropy_center(geo: Geometry) -> np.ndarray:
    """Probability-weighted log center of the polytope, in measure coordinates.

    Minimizes -sum_j P_j log q_j over the affine constraints: the natural
    well-scaled starting point, whose objective is its own barrier and whose
    Hessian P_j / q_j^2 never flattens.  The walk starts at
    ``find_interior``'s strictly positive leaf measure, centred on the
    physical one.  On nearly dependent rows it can end off the constraints;
    the last iterate on them is returned.
    """

    def build():
        Aq, b, prob = _measure_system(geo)
        q = on = find_interior(Aq, b, center=prob)
        for _ in range(200):
            g = -prob / q
            h = prob / q**2
            step, lam2, _ = _kkt_step_core(Aq, b - Aq @ q, g, h)
            if lam2 / 2.0 <= 1e-14:
                break
            q = _line_search(lambda z: -float(np.dot(prob, np.log(z))), q, step, g)
            if float(np.max(np.abs(Aq @ q - b))) < 1e-8:  # as for a warm start
                on = q
        return on

    return geo.memo("entropy_center", build).copy()


def ensure_full_density(geo: Geometry) -> np.ndarray:
    """Per-node values of one strictly positive density on the whole tree.

    The product of the node-local martingale measures of
    ``treeops.martingale_density`` over ``Geometry.full_markets``, kept in
    the model's memo.  It is the no-arbitrage gate of both solvers and both
    pricing LPs: it raises ``InfeasibleMarketError``, naming a node and its
    arbitrage, when no such density exists.  It also starts the node-measure
    dual and extends densities below the trimmed view.
    """
    nodes, markets = np.arange(geo.tree.n_nodes), geo.full_markets()
    return geo.memo("full_density", lambda: martingale_density(geo.model, nodes, markets))


# ---------------------------------------------------------------------------
# Dual solve


@dataclass
class DualSolution:
    """Optimal density and value of the dual problem at a given y.

    ``iterations`` counts the Newton steps the call ran: a log or power
    solution at y != 1 reads the y = 1 reference's count when the call
    solved that reference, and 0 when the model's kept one served it.
    """

    Z: np.ndarray
    zeta: np.ndarray
    y: float
    value: float
    attained_on_boundary: bool
    iterations: int
    model: MarketModel
    field: UtilityField


class _DualObjective:
    """F, gradient and diagonal Hessian over measure coordinates.

    The coordinates sit at the tree positions ``coords``: by default the
    trimmed leaves when every consuming node is one of them, else every
    trimmed node.  Either way each consuming node reads one scaled
    coordinate Z = m / P.
    """

    def __init__(self, geo: Geometry, field: UtilityField, y: float, coords=None):
        self.geo = geo
        self.y = y
        tree = geo.tree
        cons = geo.trimmed[geo.consuming[geo.trimmed]]
        self.coef = tree.path_prob[cons] * geo.model.clock.dkappa[cons]
        self.w = field.weight_array([tree.ids[pos] for pos in cons.tolist()])
        self.base = field.base()
        if coords is None:
            coords = geo.solve_leaves if geo.eff_mask[cons].all() else geo.trimmed
        self.coords = coords
        self.cols = np.searchsorted(coords, cons)
        self.leaf_cols = np.searchsorted(coords, geo.solve_leaves)
        self.col_scale = 1.0 / tree.path_prob[cons]

    @property
    def in_nodes(self) -> bool:
        return self.coords is self.geo.trimmed

    def constraints(self):
        """(A, b) with A q = b in these coordinates."""
        geo = self.geo
        if self.in_nodes:
            return geo.memo(
                "node_system", lambda: node_system(geo.model, geo.trimmed, geo.markets())
            )[:2]
        return _measure_system(geo)[:2]

    def measures(self, zeta: np.ndarray) -> np.ndarray:
        """These coordinates of the density with trimmed-leaf values ``zeta``."""
        tree = self.geo.tree
        if self.in_nodes:
            z = node_values(tree, self.geo.solve_leaves, zeta)
            return (tree.path_prob * z)[self.coords]
        return zeta * tree.path_prob[self.coords]

    def start(self) -> np.ndarray:
        """A fixed strictly positive feasible point: P Z of
        ``ensure_full_density`` in node measures, else the entropy centre."""
        if self.in_nodes:
            return (self.geo.tree.path_prob * ensure_full_density(self.geo))[self.coords]
        return entropy_center(self.geo)

    def node_args(self, q: np.ndarray) -> np.ndarray:
        return self.y * (q[self.cols] * self.col_scale) / self.w

    def value(self, q: np.ndarray) -> float:
        return float(np.dot(self.coef * self.w, self.base.v(self.node_args(q))))

    def grad(self, q: np.ndarray) -> np.ndarray:
        args = self.node_args(q)
        # dV(node)/dZ = y v'(arg); v' = -inverse marginal of the base
        gnode = -self.coef * self.y * self.base.inv_u_prime(args)
        out = np.zeros(q.size)
        np.add.at(out, self.cols, gnode * self.col_scale)
        return out

    def hess_diag(self, q: np.ndarray) -> np.ndarray:
        args = self.node_args(q)
        curv = self.coef * (self.y**2 / self.w) * _v_second(self.base, args)
        d = np.zeros(q.size)
        np.add.at(d, self.cols, curv * self.col_scale**2)
        return d

    def lower_bound(self, A, b, nu) -> float:
        """Lagrangian lower bound on the polytope minimum, for any multipliers.

        Dualizing the equality rows leaves a separable minimization over the
        box [0, 1]^n (measures of a probability never exceed 1), which has a
        closed form through the inverse marginal.
        """
        a = A.T @ nu
        total = -float(np.dot(nu, b))

        mask = np.ones(a.size, dtype=bool)
        mask[self.cols] = False
        total += float(np.sum(np.minimum(0.0, a[mask])))

        ac = a[self.cols]
        k = self.y * self.col_scale / self.w
        c = self.coef * self.w
        pos = ac > 0.0
        if np.any(pos):
            marg = ac[pos] / (c[pos] * k[pos])
            z = self.base.u_prime(marg)
            val = c[pos] * self.base.v(z) + ac[pos] * z / k[pos]
            total += float(np.sum(val))
        if np.any(~pos):
            # Linear part nonpositive: the box minimum sits at q = 1.
            total += float(np.sum(c[~pos] * self.base.v(k[~pos]) + ac[~pos]))
        return total


def _v_second(base, y):
    """d2 v / dy2 of a base family: v'' = -d(inverse marginal)/dy > 0."""
    y = np.asarray(y, dtype=float)
    eps = 1e-7
    lo = np.maximum(y * (1.0 - eps), 1e-300)
    hi = y * (1.0 + eps)
    return (base.inv_u_prime(lo) - base.inv_u_prime(hi)) / (hi - lo)


def solve_dual(
    model: MarketModel,
    field: UtilityField,
    y: float,
    tol: float = 1e-8,
    max_iter: int = 500,
    warm_start: Optional[np.ndarray] = None,
) -> DualSolution:
    """Minimize the clock-weighted conjugate over the density polytope.

    ``warm_start`` accepts the ``zeta`` of a previous solution on the same
    model.  The returned solution carries the optimal density on every node
    of the tree; on subtrees the clock never reaches, the density is
    extended with a scaled copy of a fixed interior density so that it
    satisfies all polytope constraints even though the value ignores it.
    The gate's density, the constraint systems and the log and power
    families' y = 1 reference stay in the model's memo for later solves.
    """
    if y <= 0.0:
        raise DualityLabError(f"dual argument must be positive, got {y}")
    if field.family == "affine-test":
        raise DualityLabError("affine test field is not admissible for solving")
    geo = build_geometry(model)
    ensure_full_density(geo)

    # The log and power conjugates factorize in y, so their minimizing
    # density does not depend on y: solve once at y = 1 (well scaled) and
    # map the value through the exact scaling law.
    if field.family in ("log", "power") and y != 1.0:
        value, fields = _scaling_reference(geo, field, tol, max_iter)
        if field.family == "log":
            obj = _DualObjective(geo, field, y)  # coef . w = sum P dkappa w
            value -= float(np.dot(obj.coef, obj.w)) * math.log(y)
        else:
            value *= y ** (field.gamma / (field.gamma - 1.0))
        return DualSolution(y=y, value=value, model=model, field=field, **fields)

    obj = _DualObjective(geo, field, y)
    q = None
    if warm_start is not None and np.asarray(warm_start).size == geo.solve_leaves.size:
        cand = obj.measures(np.asarray(warm_start, dtype=float))
        A, b = obj.constraints()
        if np.min(cand) > 0.0 and np.max(np.abs(A @ cand - b)) < 1e-8:
            q = cand
    if q is None:
        q = obj.start()

    try:
        q, iterations = _barrier_solve(obj, q, tol, max_iter)
    except ConvergenceError:
        if obj.in_nodes:
            raise
        # Leaf-measure steps lose feasibility where the curvature spans many
        # orders of magnitude, and stall on rows at the rounding level of the
        # prices; node-measure steps solve their sparse KKT system exactly.
        obj = _DualObjective(geo, field, y, geo.trimmed)
        q, iterations = _barrier_solve(obj, obj.start(), tol, max_iter)

    zeta = q[obj.leaf_cols] / geo.tree.path_prob[geo.solve_leaves]
    zfull = _extend_density(geo, zeta)
    z_cons = obj.node_args(q) * obj.w / y
    return DualSolution(
        Z=zfull,
        zeta=zeta,
        y=y,
        value=obj.value(q),
        attained_on_boundary=bool(np.min(z_cons) < BOUNDARY_FLAG_LEVEL),
        iterations=iterations,
        model=model,
        field=field,
    )


def _barrier_solve(obj, q, tol, max_iter):
    """Barrier continuation and certification in ``obj``'s coordinates.

    Starts from the strictly positive feasible point ``q`` in
    ``obj.coords``; returns the certified measure there and the Newton
    iteration count.
    """
    geo = obj.geo
    y = obj.y
    A, b = obj.constraints()
    n = geo.solve_leaves.size

    # Barrier weights: plain mu on the trimmed-leaf measures, none on inner
    # nodes; coordinates the objective never sees keep a small floor so they
    # stay strictly interior without drifting the value.  Each floor stays
    # in the certified gap, so together they must stay well below ``tol``.
    dead_cols = np.flatnonzero(geo.dead_root_mask[obj.coords])
    mu_floor = min(1e-10, 1e-2 * tol / max(1, dead_cols.size))

    def barrier_weights(mu: float) -> np.ndarray:
        w = np.zeros(q.size)
        w[obj.leaf_cols] = mu
        if dead_cols.size:
            w[dead_cols] = max(mu, mu_floor)
        return w

    # In measure coordinates the barrier curvature never drops below mu, so
    # the continuation can run essentially to machine precision; the deep
    # stages are what let Newton finish migrating mass through directions
    # where the conjugate has no curvature left.
    mus = [1e-2]
    while mus[-1] > 2e-16:
        mus.append(max(mus[-1] * 1e-2, 2e-16))

    eps = np.finfo(float).eps
    iterations = 0

    def newton_pass(q, mu, inner_tol, budget, f_stall):
        """Damped Newton until the decrement or the value progress dies.

        Returns the final iterate and the last KKT multipliers, which feed
        the Lagrangian gap certificate.
        """
        nonlocal iterations
        bw = barrier_weights(mu)

        def phi(z):
            return obj.value(z) - float(np.dot(bw, np.log(z)))

        f_prev = None
        stall = 0
        nu = None
        for _ in range(budget):
            if iterations >= max_iter:
                raise ConvergenceError(
                    f"dual solve at y={y} exceeded {max_iter} Newton iterations"
                )
            iterations += 1
            g_obj = obj.grad(q)
            g = g_obj - bw / q
            step, lam2, nu = _scaled_newton_step(A, b, q, g_obj, obj.hess_diag(q), bw)
            if lam2 / 2.0 <= inner_tol:
                if lam2 > 0.0:
                    # Quadratic phase: the pending step squares the accuracy.
                    q = _line_search(phi, q, step, g)
                return q, nu
            f_now = obj.value(q)
            if f_prev is not None and abs(f_prev - f_now) <= f_stall:
                stall += 1
                if stall >= 3:
                    return q, nu
            else:
                stall = 0
            f_prev = f_now
            q = _line_search(phi, q, step, g)
        return q, nu

    for mu in mus[:-1]:
        scale = 1.0 + abs(obj.value(q))
        q, _ = newton_pass(
            q, mu, max(0.05 * mu * n, 1e-16), 120, max(0.02 * tol, 8.0 * eps) * scale
        )

    # Final stage, certified by the Lagrangian (separable Fenchel) gap at the
    # Newton multipliers.
    scale = 1.0 + abs(obj.value(q))
    q, nu = newton_pass(
        q, mus[-1], max(1e-3 * tol, 5.0 * eps) * scale, 80,
        max(1e-3 * tol, 8.0 * eps) * scale,
    )
    gap = obj.value(q) - obj.lower_bound(A, b, nu)
    if gap > tol * scale:
        raise ConvergenceError(
            f"dual solve at y={y} could not certify tolerance {tol} "
            f"(certified gap {gap:.3g})"
        )

    # Snap back onto the equality manifold: Newton steps meet A q = b only to
    # the accuracy of their linear solves, and the drift left over would leak
    # into the reported density.  The gap above is certified before this
    # projection, which can move the value; on nearly dependent rows it can
    # miss A q = b, and the solve raises.
    r = b - A @ q
    drift = float(np.max(np.abs(r)))
    if drift > 1e-13:
        q = q + _min_norm_correction(A, r)
        if float(np.min(q)) <= 0.0 or float(np.max(np.abs(b - A @ q))) > 1e-12:
            raise ConvergenceError(
                f"dual solve at y={y} drifted {drift:.3g} off the density constraints"
            )
    return q, iterations


def _scaling_reference(geo, field, tol, max_iter):
    """(value, fields) of the dual solution at y = 1, kept per model and field
    values.  The fields are the read-only Z and zeta, the boundary flag and
    the Newton steps this call ran: the reference's count when it solved the
    reference, 0 when the kept entry served; a ``DualSolution`` would refer
    back to the model.  Re-solves when asked for a tighter tolerance than
    the kept entry's.
    """
    weights = None if field.weights is None else frozenset(field.weights.items())
    key = (field.family, field.gamma, field.alpha, field.beta, weights)
    cache = geo.memo("dual_reference", dict)
    hit = cache.get(key)
    iterations = 0
    if hit is None or hit[0] > tol:
        sol = solve_dual(geo.model, field, 1.0, tol=tol, max_iter=max_iter)
        sol.Z.flags.writeable = sol.zeta.flags.writeable = False
        iterations = sol.iterations
        hit = cache[key] = tol, sol.value, dict(
            Z=sol.Z, zeta=sol.zeta, attained_on_boundary=sol.attained_on_boundary,
        )
    return hit[1], dict(hit[2], iterations=iterations)


def _min_norm_correction(A, r):
    """Least-norm d with A d = r, that is A' (A A')^-1 r."""
    if sparse.issparse(A):
        return _kkt_step_sparse(A, r, np.zeros(A.shape[1]), np.ones(A.shape[1]))[0]
    gram = A @ A.T
    try:
        return A.T @ np.linalg.solve(gram, r)
    except np.linalg.LinAlgError:
        return A.T @ np.linalg.lstsq(gram, r, rcond=None)[0]


def _kkt_step_core(A, r, g, hdiag):
    """Equality-constrained Newton step for a diagonal Hessian.

    Solves min 0.5 d' diag(h) d + g' d over A d = r.  The multipliers are
    the least-squares solution of (h^-1/2 A') nu ~ -(h^-1/2 g), which an
    SVD solves stably even when the curvature spans many orders of
    magnitude; forming the Schur complement A H^-1 A' explicitly would
    square that conditioning.
    """
    s = 1.0 / np.sqrt(hdiag)
    nu, *_ = np.linalg.lstsq(s[:, None] * A.T, -(s * g), rcond=None)
    step = -(s * s) * (g + A.T @ nu)
    if float(np.max(np.abs(r))) > 0.0:
        # Repair any feasibility drift through the plain projection.
        step = step + _min_norm_correction(A, r)
    lam2 = float(np.dot(step, hdiag * step))
    return step, lam2, nu


def _kkt_step_sparse(A, r, g, hdiag):
    """The step of ``_kkt_step_core`` for a sparse A of full row rank.

    One sparse LU of [[diag(h), A'], [A, 0]].  Entries of h may vanish where
    the rows pin the coordinate (inner node measures are sums of the leaf
    measures below them), so h^-1 is never formed.
    """
    kkt = sparse.bmat([[sparse.diags(hdiag), A.T], [A, None]], format="csc")
    try:
        sol = splu(kkt).solve(np.concatenate((-g, r)))
    except RuntimeError:  # exactly singular
        sol = np.array([np.nan])
    if not np.all(np.isfinite(sol)):
        raise ConvergenceError("dual Newton system could not be factorized")
    step = sol[: g.size]
    return step, float(np.dot(step, hdiag * step)), sol[g.size :]


def _scaled_newton_step(A, b, q, g_obj, h_obj, bw):
    """Newton step in Dikin coordinates d(q) = q * du.

    Rescaling by the current iterate equalizes the barrier's diagonal
    contribution to exactly the barrier weight, so deep barrier stages stay
    numerically solvable even when the objective curvature collapses along
    some coordinates and explodes along others.  The multipliers are
    coordinate-free and are returned for gap certification.
    """
    g_u = q * g_obj - bw
    h_u = q * q * h_obj + bw
    if sparse.issparse(A):
        du, lam2, nu = _kkt_step_sparse(A @ sparse.diags(q), b - A @ q, g_u, h_u)
    else:
        du, lam2, nu = _kkt_step_core(A * q[None, :], b - A @ q, g_u, h_u)
    return q * du, lam2, nu


def _line_search(phi, x, step, g):
    """Armijo backtracking on phi, whose gradient at x is g, from the largest
    step inside the positive orthant; x itself when no point qualifies."""
    alpha = 1.0
    neg = step < 0.0
    if np.any(neg):
        alpha = min(1.0, 0.995 * float(np.min(-x[neg] / step[neg])))
    base = phi(x)
    slope = float(np.dot(g, step))
    for _ in range(60):
        cand = x + alpha * step
        if np.min(cand) > 0.0 and phi(cand) <= base + 1e-4 * alpha * slope:
            return cand
        alpha *= 0.5
    cand = x + alpha * step
    return cand if np.min(cand) > 0.0 else x


def _extend_density(geo: Geometry, zeta) -> np.ndarray:
    """Per-node density on the whole tree, extended below the trimmed view.

    Below the trimmed region the optimizer is not determined by the value,
    so the density continues as a scaled copy of a fixed strictly positive
    density; the result satisfies every polytope constraint.
    """
    tree = geo.tree
    z = node_values(tree, geo.solve_leaves, zeta)
    if geo.trimmed.size == tree.n_nodes:
        return z

    z_int = ensure_full_density(geo)
    for pos in geo.untrimmed_levels():
        p = tree.parent[pos]
        z[pos] = z[p] * (z_int[pos] / z_int[p])
    return z


def dual_over_measures(
    model: MarketModel,
    field: UtilityField,
    y: float,
    tol: float = 1e-8,
) -> float:
    """Cross-check value: direct minimization over the full-tree polytope.

    Independent of :func:`solve_dual`: parameterizes by the density values
    on all tree leaves, builds the dense objective and derivatives, and
    hands the constrained program to a general-purpose solver.
    """
    if y <= 0.0:
        raise DualityLabError(f"dual argument must be positive, got {y}")
    poly = martingale_polytope(model)
    tree = model.tree
    clock = model.clock

    cons = np.flatnonzero(clock.dkappa > 0.0)
    coef = tree.path_prob[cons] * clock.dkappa[cons]
    w = field.weight_array([tree.ids[k] for k in cons.tolist()])
    M = poly.to_node_values(np.eye(poly.n_leaves))[cons]
    base = field.base()

    def args_of(zeta):
        return y * (M @ zeta) / w

    def fun(zeta):
        return float(np.dot(coef * w, base.v(args_of(zeta))))

    def jac(zeta):
        gnode = -coef * y * base.inv_u_prime(args_of(zeta))
        return M.T @ gnode

    def hess(zeta):
        curv = coef * (y**2 / w) * _v_second(base, args_of(zeta))
        return (M.T * curv) @ M

    # Conjugates of log/power blow up at 0; keep those coordinates off the
    # boundary with a tiny positive bound.  The bounded family is finite at 0.
    finite_at_zero = math.isfinite(float(base.v(0.0)))
    lb = 0.0 if finite_at_zero else 1e-14

    x0 = poly.interior_point()
    res = minimize(
        fun,
        x0,
        jac=jac,
        hess=hess,
        method="trust-constr",
        constraints=[LinearConstraint(poly.A, poly.b, poly.b)],
        bounds=[(lb, None)] * poly.n_leaves,
        options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 3000, "verbose": 0},
    )
    if not res.success and res.status not in (1, 2):
        raise ConvergenceError(
            f"direct polytope minimization failed at y={y}: {res.message}"
        )
    return float(res.fun)
