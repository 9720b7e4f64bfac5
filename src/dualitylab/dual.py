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
leaf measures q = P * zeta on a one-period tree where only the leaves
consume, else node measures m_k = P(k) Z(k) on the whole trimmed tree,
whose constraints m_root = 1, m_k = sum_c m_c and sum_c m_c (S_c - S_k) = 0
are node-local (Steinbach, "Tree-sparse convex programs", 2002).

Every solve first runs the no-arbitrage gate ``ensure_full_density``: the
product of one strictly positive one-step martingale measure per node
(``treeops.martingale_density``), which raises ``InfeasibleMarketError``
naming a node and its arbitrage.  Its density P Z starts the node-measure
solve and continues the optimal density below the trimmed view.  Only the
one-period leaf-measure solve builds a dense system, the whole tree's
``full_polytope_matrices`` of (1 + n_active) x leaves entries.  A cold one
starts from the entropy centre, seeded by ``find_interior``; where the
least-norm shift of that seed's centre is not strictly positive,
``find_interior`` runs a max-margin LP (``treeops.linprog``), which imports
``scipy.optimize`` on its first call.  A warm start needs neither, in either
coordinates: one that misses the polytope's interior, as the density
``harness.pair_solutions`` reads off the primal's plan does, is projected
once onto the constraints and pulled toward the gate's measure, and the
solve starts cold only where that point still misses.

Since the conjugate of any admissible field descends infinitely steeply at
0, minimizers stay strictly positive wherever the objective looks; a
logarithmic barrier on the trimmed-leaf measures, with decreasing weight,
keeps iterates interior.  Newton steps are taken inside the affine set in
iterate-scaled (Dikin) coordinates, where the barrier contributes exactly
its weight to the diagonal: in leaf measures the multipliers come from an
SVD least-squares solve rather than the squared-conditioning Schur
complement, in node measures from a QR elimination per date (``_NodeKKT``).
The separable Lagrangian lower bound at the Newton multipliers certifies
optimality; where the density is unique, only that final stage runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import ConvergenceError, DualityLabError, InfeasibleMarketError
from .market import MarketModel
from .treeops import (
    _LP_OPTS,
    Geometry,
    build_geometry,
    full_polytope_matrices,
    linprog,
    martingale_density,
    node_values,
)
from .utility import UtilityField, node_weights

ARBITRAGE_MARGIN = 1e-11
BOUNDARY_FLAG_LEVEL = 1e-6


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
    Its one remaining use is to seed the entropy centre, which only a cold
    one-period solve in leaf coordinates reaches; the no-arbitrage gate is
    ``ensure_full_density``.
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
    """The leaf system in leaf-measure coordinates q = P zeta, built once; the
    leaf dual runs only on one-period trees, whose trimmed view is whole."""

    def build():
        prob = geo.tree.path_prob[geo.solve_leaves]
        A, b = full_polytope_matrices(geo.model)
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
    the last iterate on them is returned.  Only a one-period solve in leaf
    coordinates without a usable warm start builds it.
    """

    def build():
        Aq, b, prob = _measure_system(geo)
        q = on = find_interior(Aq, b, center=prob)
        phi = -float(np.dot(prob, np.log(q)))
        for _ in range(200):
            g = -prob / q
            h = prob / q**2
            step, lam2, _ = _kkt_step_core(Aq, b - Aq @ q, g, h)
            if lam2 / 2.0 <= 1e-14:
                break
            # The walk's objective is the barrier with weights prob alone.
            q, _, phi = _line_search(lambda z: 0.0, q, step, g, 0.0, phi, prob)
            if float(np.max(np.abs(Aq @ q - b))) < 1e-8:  # as for a warm start
                on = q
        return on

    return geo.memo("entropy_center", build).copy()


def ensure_full_density(geo: Geometry) -> np.ndarray:
    """Per-node values of one strictly positive density on the whole tree.

    The product of the node-local martingale measures of
    ``treeops.martingale_density`` over ``Geometry.full_markets``, kept in
    the model's memo.  It is the no-arbitrage gate of both solvers and both
    superreplication prices: it raises ``InfeasibleMarketError``, naming a
    node and its arbitrage, when no such density exists.  It also starts the
    node-measure dual, extends densities below the trimmed view, and prices
    claims on complete trees, where it is the only density.
    """
    nodes, markets = np.arange(geo.tree.n_nodes), geo.full_markets()
    return geo.memo("full_density", lambda: martingale_density(geo.model, nodes, markets))


# ---------------------------------------------------------------------------
# Dual solve


@dataclass
class DualSolution:
    """Optimal density and value of the dual problem at a given y.

    ``iterations`` counts the Newton steps the call ran, in leaf measures
    and in the node measures that re-solve a failed leaf attempt together:
    a log or power solution, at any y, reads the y = 1 reference's count
    when the call solved that reference, and 0 when the model's kept one
    served it.
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
    leaves of a one-period tree where only they consume, else every trimmed
    node, where each consuming node reads Z = m / P.  The density has sum
    over internal nodes of (children - 1 - kept assets) free directions.
    """

    def __init__(self, geo: Geometry, field: UtilityField, y: float, coords=None):
        self.geo = geo
        self.y = y
        tree = geo.tree
        cons = geo.trimmed[geo.consuming[geo.trimmed]]
        self.coef = tree.path_prob[cons] * geo.model.clock.dkappa[cons]
        self.w = node_weights(geo.model, field)[cons]
        self.base = field.base()
        if coords is None:
            leaf = tree.horizon == 1 and geo.eff_mask[cons].all()
            coords = geo.solve_leaves if leaf else geo.trimmed
        self.coords = coords
        self.cols = np.searchsorted(coords, cons)
        self.leaf_cols = np.searchsorted(coords, geo.solve_leaves)
        self.col_scale = 1.0 / tree.path_prob[cons]

    @property
    def in_nodes(self) -> bool:
        return self.coords is self.geo.trimmed

    def constraints(self):
        """(A, b, kkt): A q = b here, and node measures' ``_NodeKKT`` (else None)."""
        geo = self.geo
        if self.in_nodes:
            A, b, price_row = geo.node_system()
            return A, b, geo.memo("node_kkt", lambda: _NodeKKT(geo, price_row))
        return _measure_system(geo)[:2] + (None,)

    def measures(self, zeta: np.ndarray) -> np.ndarray:
        """These coordinates of the density with trimmed-leaf values ``zeta``."""
        tree = self.geo.tree
        if self.in_nodes:
            z = node_values(tree, self.geo.solve_leaves, zeta)
            return (tree.path_prob * z)[self.coords]
        return zeta * tree.path_prob[self.coords]

    def interior(self, q: np.ndarray) -> bool:
        """Whether q is a usable start: strictly positive, A q = b to 1e-8."""
        A, b, _ = self.constraints()
        return bool(np.min(q) > 0.0 and np.max(np.abs(A @ q - b)) < 1e-8)

    def gate_measure(self) -> np.ndarray:
        """P Z of ``ensure_full_density`` here: strictly positive and feasible."""
        return (self.geo.tree.path_prob * ensure_full_density(self.geo))[self.coords]

    def start(self) -> np.ndarray:
        """The cold start: the gate's measure in node measures, else the
        entropy centre."""
        return self.gate_measure() if self.in_nodes else entropy_center(self.geo)

    def node_args(self, q: np.ndarray) -> np.ndarray:
        return self.y * (q[self.cols] * self.col_scale) / self.w

    def value(self, q: np.ndarray) -> float:
        return float(np.dot(self.coef * self.w, self.base.v(self.node_args(q))))

    def derivatives(self, q: np.ndarray):
        """The gradient of F at q and its Hessian's diagonal."""
        args = self.node_args(q)
        # dV(node)/dZ = y v'(arg); v' = -inverse marginal of the base
        gnode = -self.coef * self.y * self.base.inv_u_prime(args)
        g = np.zeros(q.size)
        np.add.at(g, self.cols, gnode * self.col_scale)
        curv = self.coef * (self.y**2 / self.w) * _v_second(self.base, args)
        h = np.zeros(q.size)
        np.add.at(h, self.cols, curv * self.col_scale**2)
        return g, h

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

    ``warm_start`` accepts trimmed-leaf density values on the same model,
    such as the ``zeta`` of a previous solution; one off the polytope's
    interior is repaired toward the gate's density, or, failing that, the
    solve starts cold.  Log and power fields ignore it.  The returned
    solution carries the optimal density on every node of the tree; on
    subtrees the clock never reaches, the density is extended with a scaled
    copy of a fixed interior density so that it satisfies all polytope
    constraints even though the value ignores it.
    The gate's density, the constraint systems and the log and power
    families' y = 1 reference stay in the model's memo for later solves.
    """
    if not math.isfinite(y) or y <= 0.0:
        raise DualityLabError(f"dual argument must be positive and finite, got {y}")
    if field.family == "affine-test":
        raise DualityLabError("affine test field is not admissible for solving")
    geo = build_geometry(model)
    ensure_full_density(geo)

    # The log and power conjugates factorize in y, so their minimizing
    # density does not depend on y: solve once at y = 1 (well scaled) and
    # map the value through the exact scaling law.
    if field.degree is not None:
        def solve():
            sol = _solve_dual(geo, field, 1.0, tol, max_iter, None)
            return dict(value=sol.value, Z=sol.Z, zeta=sol.zeta,
                        attained_on_boundary=sol.attained_on_boundary), sol.iterations

        ref, iterations = scaling_reference(geo, "dual", field, tol, solve)
        value = ref["value"]
        if field.family == "log":
            cons = geo.consuming  # sum P dkappa w
            coef = model.tree.path_prob[cons] * model.clock.dkappa[cons]
            value -= float(np.dot(coef, node_weights(model, field)[cons])) * math.log(y)
        else:
            value *= y ** (field.gamma / (field.gamma - 1.0))
        return DualSolution(
            Z=ref["Z"],
            zeta=ref["zeta"],
            y=y,
            value=value,
            attained_on_boundary=ref["attained_on_boundary"],
            iterations=iterations,
            model=model,
            field=field,
        )
    return _solve_dual(geo, field, y, tol, max_iter, warm_start)


def _solve_dual(geo, field, y, tol, max_iter, warm_start) -> DualSolution:
    """``solve_dual`` at y on the gated geometry, without the scaling law."""
    obj = _DualObjective(geo, field, y)
    q = None
    if warm_start is not None and np.asarray(warm_start).size == geo.solve_leaves.size:
        q = obj.measures(np.asarray(warm_start, dtype=float))
        if not obj.interior(q):
            q = _repair_start(obj, q)
    if q is None:
        q = obj.start()

    try:
        q, value, iterations = _barrier_solve(obj, q, tol, max_iter)
    except ConvergenceError as exc:
        if obj.in_nodes:
            raise
        # Leaf-measure steps lose feasibility where the curvature spans many
        # orders of magnitude, and stall on rows at the rounding level of the
        # prices; node-measure steps solve their sparse KKT system exactly.
        obj = _DualObjective(geo, field, y, geo.trimmed)
        q, value, iterations = _barrier_solve(obj, obj.start(), tol, max_iter)
        iterations += exc.iterations or 0

    zeta = q[obj.leaf_cols] / geo.tree.path_prob[geo.solve_leaves]
    zfull = _extend_density(geo, zeta)
    z_cons = obj.node_args(q) * obj.w / y
    return DualSolution(
        Z=zfull,
        zeta=zeta,
        y=y,
        value=value,
        attained_on_boundary=bool(np.min(z_cons) < BOUNDARY_FLAG_LEVEL),
        iterations=iterations,
        model=geo.model,
        field=field,
    )


def _repair_start(obj, cand):
    """A start from a warm measure ``cand`` that fails ``obj.interior``, or None.

    ``cand`` is projected once onto A q = b and pulled toward the gate's
    measure as far as the line search's fraction to the boundary allows;
    None where ``cand`` is not finite or that point fails ``obj.interior``.
    """
    if not np.all(np.isfinite(cand)):
        return None
    A, b, kkt = obj.constraints()
    anchor = obj.gate_measure()
    step = cand + _min_norm_correction(A, b - A @ cand, kkt) - anchor
    q = anchor + _boundary_fraction(anchor, step) * step
    return q if obj.interior(q) else None


def _barrier_solve(obj, q, tol, max_iter):
    """Barrier continuation and certification in ``obj``'s coordinates.

    Starts from the strictly positive feasible point ``q`` in
    ``obj.coords``; returns the certified measure there, its value F and the
    Newton iteration count.  Where ``_DualObjective``'s free-direction count
    is 0 (``node_system`` is square), ``q`` is the only density: one stage runs.
    """
    geo = obj.geo
    y = obj.y
    A, b, kkt = obj.constraints()
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
    internal, kids, _, _, keep = geo.markets()  # no free direction: the last stage only
    mus = mus[-1:] if kids.size == internal.size + keep.sum() else mus

    eps = np.finfo(float).eps
    iterations = 0

    def newton_pass(q, f, mu, inner_tol, budget, f_stall):
        """Damped Newton from q, whose value is f, until the decrement or the
        value progress dies.

        Returns the final iterate, its value and the last KKT multipliers,
        which feed the Lagrangian gap certificate.
        """
        nonlocal iterations
        bw = barrier_weights(mu)
        phi = f - float(np.dot(bw, np.log(q)))  # the barrier objective at q
        f_prev = None
        stall = 0
        nu = None
        for _ in range(budget):
            if iterations >= max_iter:
                raise ConvergenceError(
                    f"dual solve at y={y} exceeded {max_iter} Newton iterations", iterations
                )
            iterations += 1
            g_obj, h_obj = obj.derivatives(q)
            g = g_obj - bw / q
            step, lam2, nu = _scaled_newton_step(A, b, kkt, q, g_obj, h_obj, bw)
            if lam2 / 2.0 <= inner_tol:
                if lam2 > 0.0:
                    # Quadratic phase: the pending step squares the accuracy.
                    q, f, phi = _line_search(obj.value, q, step, g, f, phi, bw)
                return q, f, nu
            if f_prev is not None and abs(f_prev - f) <= f_stall:
                stall += 1
                if stall >= 3:
                    return q, f, nu
            else:
                stall = 0
            f_prev = f
            q, f, phi = _line_search(obj.value, q, step, g, f, phi, bw)
        return q, f, nu

    f = obj.value(q)
    for mu in mus[:-1]:
        scale = 1.0 + abs(f)
        q, f, _ = newton_pass(
            q, f, mu, max(0.05 * mu * n, 1e-16), 120, max(0.02 * tol, 8.0 * eps) * scale
        )

    # Final stage, certified by the Lagrangian (separable Fenchel) gap at the
    # Newton multipliers.
    scale = 1.0 + abs(f)
    q, f, nu = newton_pass(
        q, f, mus[-1], max(1e-3 * tol, 5.0 * eps) * scale, 80,
        max(1e-3 * tol, 8.0 * eps) * scale,
    )
    gap = f - obj.lower_bound(A, b, nu)
    if gap > tol * scale:
        raise ConvergenceError(
            f"dual solve at y={y} could not certify tolerance {tol} "
            f"(certified gap {gap:.3g})",
            iterations,
        )

    # Snap back onto the equality manifold: Newton steps meet A q = b only to
    # the accuracy of their linear solves, and the drift left over would leak
    # into the reported density.  The gap above is certified before this
    # projection, which can move the value; on nearly dependent rows it can
    # miss A q = b, and the solve raises.
    r = b - A @ q
    drift = float(np.max(np.abs(r)))
    if drift > 1e-13:
        q = q + _min_norm_correction(A, r, kkt)
        if float(np.min(q)) <= 0.0 or float(np.max(np.abs(b - A @ q))) > 1e-12:
            raise ConvergenceError(
                f"dual solve at y={y} drifted {drift:.3g} off the density constraints",
                iterations,
            )
        f = obj.value(q)
    return q, f, iterations


def scaling_reference(geo: Geometry, side: str, field: UtilityField, tol: float, solve):
    """The log or power field's reference solve of one side, kept in the
    model's memo per field values: the primal's plan at x = 1 and the dual's
    solution at y = 1, from which the exact scaling law gives every other
    wealth or y.

    ``solve()`` returns (entry, steps): a dict of floats and arrays, none of
    which refers back to the model, and the Newton steps it ran.  The arrays
    are kept read-only.  Returns the entry and the steps this call ran: the
    reference's when it solved it, 0 when the kept entry served.  Re-solves
    when asked for a tighter tolerance than the kept entry's.
    """
    key = (field.family, field.gamma, field.alpha, field.beta, field.weights_key)
    cache = geo.memo(f"{side}_reference", dict)
    hit = cache.get(key)
    if hit is not None and hit[0] <= tol:
        return hit[1], 0
    entry, steps = solve()
    for value in entry.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    cache[key] = tol, entry
    return entry, steps


def _min_norm_correction(A, r, kkt=None):
    """Least-norm d with A d = r: A' (A A')^-1 r, or ``kkt``'s step at q = h = 1."""
    if kkt is not None:
        return kkt.solve(np.ones(A.shape[1]), r, np.zeros(A.shape[1]), np.ones(A.shape[1]))[0]
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


class _NodeKKT:
    """``_kkt_step_core``'s step for ``node_system``'s A, nu in its rows: one
    elimination per date of ``Geometry.markets`` leaves up, then root down.

    In the measure steps delta = q du, child c hands its parent k a curvature
    a_c and gradient beta_c in delta_c; k minimizes their sum over its rows
    [1, dS_c] delta_C = (delta_k - P r_balance, P r_price) by one batched
    Householder QR of M = [1, dS_c] / sqrt(a_c), rows by decreasing size so
    that small parts stay accurate (an unkept asset: a unit column on a
    spare row).  The step's part outside M's range is taken in the complete
    QR's complement, which a complete node spans by zero rows alone, so it
    is exactly 0 there; rebuilt from the range, it would cancel.
    """

    def __init__(self, geo: Geometry, price_row: np.ndarray):
        _, _, _, dates, keep = geo.markets()
        n, na = geo.trimmed.size, geo.model.n_active
        scale = geo.tree.path_prob[geo.trimmed, None] * np.append(-1.0, np.ones(na))
        self.n_rows, self.dates = 1 + keep.shape[0] + int(keep.sum()), []
        for first, own, child, dS in dates:
            span, w = slice(first, first + own.size), child.shape[1]
            child = np.pad(child, ((0, 0), (0, na)), constant_values=n)
            B = np.zeros(child.shape + (1 + na,))
            B[:, :w] = np.concatenate((child[:, :w, None] < n, dS * keep[span, None]), axis=2)
            B[:, w + np.arange(na), 1 + np.arange(na)] = ~keep[span]
            # An unkept asset's row -1 reads r = 0 and writes nu's spare entry.
            rows = np.hstack((1 + first + np.arange(own.size)[:, None], price_row[span]))
            self.dates.append((own, child, B, np.abs(B).max(axis=2), scale[own], rows))

    def solve(self, q, r, g, h):
        """(du, du' h du, nu) of min g' du + du' diag(h) du / 2, A diag(q) du = r,
        for h > 0 on the trimmed leaves and h >= 0 on the inner nodes."""
        a, beta, r = np.append(h / q**2, 1.0), np.append(g / q, 0.0), np.append(r, 0.0)
        done = []
        for own, child, B, size, p, rows in reversed(self.dates):
            s = 1.0 / np.sqrt(a[child])
            o = np.argsort(-s * size, axis=1) + child.shape[1] * np.arange(own.size)[:, None]
            child, s = child.ravel()[o], s.ravel()[o]
            hv, tau = np.linalg.qr(B.reshape(-1, B.shape[2])[o] * s[:, :, None], mode="raw")
            m = tau.shape[1]
            R = np.triu(np.swapaxes(hv[:, :, :m], 1, 2))
            c = _reflect(hv, tau, beta[child] * s, range(m))  # Q' beta / sqrt(a)
            rhs = np.stack((np.broadcast_to(np.arange(m) == 0, p.shape), r[rows] * p), axis=2)
            rho, z0 = np.moveaxis(np.linalg.solve(np.swapaxes(R, 1, 2), rhs), 2, 0)
            a[own] += np.sum(rho * rho, axis=1)
            beta[own] += np.sum(rho * (z0 + c[:, :m]), axis=1)
            done.append((own, p, rows, child, s, hv, tau, R, c, rho, z0))
        delta, nu = np.zeros(a.size), np.zeros(self.n_rows + 1)
        delta[0], nu[0] = r[0], -(a[0] * r[0] + beta[0])
        for own, p, rows, child, s, hv, tau, R, c, rho, z0 in reversed(done):
            z = rho * delta[own, None] + z0
            nu[rows] = -p * np.linalg.solve(R, (z + c[:, : z.shape[1]])[:, :, None])[:, :, 0]
            x = np.concatenate((z, -c[:, z.shape[1] :]), axis=1)
            delta[child] = _reflect(hv, tau, x, range(z.shape[1] - 1, -1, -1)) * s  # Q x
        du = delta[:-1] / q
        if not np.all(np.isfinite(du)):
            raise ConvergenceError("dual Newton system could not be solved")
        return du, float(np.dot(du, h * du)), nu[:-1]


def _reflect(hv, tau, x, order):
    """Q' x (``order`` rising) or Q x (falling), in place, from ``qr``'s raw form."""
    for j in order:
        d = tau[:, j] * (x[:, j] + np.einsum("nw,nw->n", hv[:, j, j + 1 :], x[:, j + 1 :]))
        x[:, j] -= d
        x[:, j + 1 :] -= d[:, None] * hv[:, j, j + 1 :]
    return x


def _scaled_newton_step(A, b, kkt, q, g_obj, h_obj, bw):
    """Newton step in Dikin coordinates d(q) = q * du.

    Rescaling by the current iterate equalizes the barrier's diagonal
    contribution to exactly the barrier weight, so deep barrier stages stay
    numerically solvable even when the objective curvature collapses along
    some coordinates and explodes along others.  The multipliers are
    coordinate-free and are returned for gap certification.
    """
    g_u = q * g_obj - bw
    h_u = q * q * h_obj + bw
    if kkt is not None:
        du, lam2, nu = kkt.solve(q, b - A @ q, g_u, h_u)
    else:
        du, lam2, nu = _kkt_step_core(A * q[None, :], b - A @ q, g_u, h_u)
    return q * du, lam2, nu


def _line_search(value, x, step, g, f, phi, bw):
    """Armijo backtracking from the largest step inside the positive orthant.

    The merit is phi(z) = value(z) - bw . log(z), whose gradient at x is g;
    ``f`` and ``phi`` are value and phi at x.  Returns the accepted point
    with its value and phi; x itself when no point qualifies.
    """

    def merit(z, fz):
        return fz - float(np.dot(bw, np.log(z)))

    alpha = _boundary_fraction(x, step)
    slope = float(np.dot(g, step))
    for _ in range(60):
        cand = x + alpha * step
        if np.min(cand) > 0.0:
            f_cand = value(cand)
            phi_cand = merit(cand, f_cand)
            if phi_cand <= phi + 1e-4 * alpha * slope:
                return cand, f_cand, phi_cand
        alpha *= 0.5
    cand = x + alpha * step
    if np.min(cand) > 0.0:
        f_cand = value(cand)
        return cand, f_cand, merit(cand, f_cand)
    return x, f, phi


def _boundary_fraction(x, step) -> float:
    """The largest alpha <= 1 with x + alpha step at least 0.005 x, for x > 0."""
    neg = step < 0.0
    return min(1.0, 0.995 * float(np.min(-x[neg] / step[neg]))) if np.any(neg) else 1.0


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
    if not math.isfinite(y) or y <= 0.0:
        raise DualityLabError(f"dual argument must be positive and finite, got {y}")
    poly = martingale_polytope(model)
    tree = model.tree
    clock = model.clock

    cons = np.flatnonzero(clock.dkappa > 0.0)
    coef = tree.path_prob[cons] * clock.dkappa[cons]
    w = node_weights(model, field)[cons]
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

    from scipy.optimize import LinearConstraint, minimize

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
