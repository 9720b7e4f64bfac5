"""Internal tree linear algebra shared by the solvers.

Everything works with node *positions* (the time-sorted order used by
``ScenarioTree``), so a parent always precedes its children.

The solvers operate on a trimmed view of the tree.  A node is *alive* when
the clock puts mass at the node itself or somewhere below it; wealth moved
into a dead subtree can never be consumed.  The trimmed node set consists
of the alive nodes plus each *dead root*, i.e. the first dead node on a
branch leaving the alive region from a node that still trades.  Wealth at a
dead root must stay nonnegative but is otherwise irrelevant, and below a
dead root nothing needs to be decided at all.

Within the trimmed view:

- *internal* nodes (alive, with at least one alive child) carry holdings in
  the first ``n_active`` assets, chosen at the node and applied over the
  following step;
- *effective leaves* (alive, no alive child) consume their entire wealth,
  since anything left over is wasted;
- internal nodes with a positive clock increment consume at a rate that is
  a free variable.

Both solvers read each internal node's one-period market from
``node_markets``: the primal trades in it, the dual prices it, and
``martingale_density`` finds one strictly positive martingale measure in
it or an arbitrage, which is the no-arbitrage gate.

The dual's densities live in node-measure coordinates m = P Z on every
trimmed node, where the martingale constraints are node-local and sparse
(``node_system``, kept once per view by ``Geometry``).  The returned density
is read off its values on the trimmed leaves (effective leaves and dead
roots): the value at any other node is the conditional expectation of the
leaf values (``node_values``), which is exactly the martingale property.  In
those leaf values the constraints reduce to one normalization row and one
row per (internal node, tradable asset); that dense system
(``full_polytope_matrices``) is built only for the whole tree.

The primal's wealth and holdings are the multipliers of the same node-local
rows, so both solvers take their Newton steps on one kernel, ``_NodeKKT``
(kept once per view by ``Geometry.node_kkt``), and backtrack with one line
search, ``_line_search``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lapack, qr

from .errors import BudgetError, ConvergenceError, InfeasibleMarketError
from .market import MarketModel, _accumulate_down, _accumulate_up

# Entries of the one dense system, ``full_polytope_matrices``: the leaf dual
# of one-period trees and the public polytope references build it.
DENSE_ENTRY_GUARD = 50_000_000
# The gate's Newton: iteration budget, the largest change of any log q_c in
# a settled node's last step, and the ridge that keeps a node's Hessian
# invertible where an arbitrage flattens it.  An arbitrage LP must find a
# total gain above the step tolerance, in units of the node's largest move.
_GATE_ITERS = 100
_GATE_STEP_TOL = 1e-9
_GATE_RIDGE = 1e-14
# HiGHS tolerances of ``find_interior``'s max-margin LP and the pricing LPs.
_LP_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: a solve that
    runs no LP never loads ``scipy.optimize``.  ``dual`` and ``harness`` call
    it by this name, where tests and perfbench/tracing.py replace it."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


@dataclass
class Geometry:
    """Trimmed-problem structure for one model (see module docstring): a view
    built anew by each ``build_geometry``, whose derived structures ``memo``
    keeps on the model."""

    model: MarketModel
    trimmed: np.ndarray
    internal_mask: np.ndarray
    eff_mask: np.ndarray
    dead_root_mask: np.ndarray
    consuming: np.ndarray
    # dual side
    solve_leaves: np.ndarray

    @property
    def tree(self):
        return self.model.tree

    def memo(self, name: str, build):
        """``build()``, computed on the first call for ``name`` and kept in the
        model's memo; nothing it returns may refer back to the model."""
        memo = self.model._memo
        try:
            return memo[name]
        except KeyError:
            value = memo[name] = build()
            return value

    def markets(self):
        """The trimmed view's ``node_markets``, built on first use and kept.
        Where the view is the whole tree, it is ``full_markets()`` itself."""
        if self.trimmed.size == self.tree.n_nodes:
            return self.full_markets()
        return self.memo(
            "node_markets", lambda: node_markets(self.model, self.trimmed, self.internal_mask)
        )

    def full_markets(self):
        """The whole tree's ``node_markets``, built on first use and kept."""
        tree = self.tree
        return self.memo("full_markets",
                         lambda: node_markets(self.model, np.arange(tree.n_nodes), ~tree.is_leaf))

    def node_system(self):
        """The trimmed view's ``node_system``, built on first use and kept.
        Where the view is the whole tree, it is ``full_node_system()`` itself."""
        if self.trimmed.size == self.tree.n_nodes:
            return self.full_node_system()
        return self.memo("node_system", lambda: node_system(self.trimmed, self.markets()))

    def full_node_system(self):
        """The whole tree's ``node_system``, built on first use and kept."""
        nodes = np.arange(self.tree.n_nodes)
        return self.memo("full_node_system", lambda: node_system(nodes, self.full_markets()))

    def node_kkt(self):
        """The Newton-step kernel ``_NodeKKT`` of ``node_system()``, built on
        first use and kept: the dual's node-measure steps and every primal
        step solve on it."""
        return self.memo("node_kkt", lambda: _NodeKKT(self, self.node_system()[2]))

    def untrimmed_levels(self) -> list:
        """Positions outside the trimmed view, one array per date t >= 1."""
        outside = np.ones(self.tree.n_nodes, dtype=bool)
        outside[self.trimmed] = False
        return [lv.start + np.flatnonzero(outside[lv]) for lv in self.tree.levels]


def node_values(tree, leaves: np.ndarray, zeta) -> np.ndarray:
    """Per-node conditional expectations of values given on ``leaves``.

    ``leaves`` are sorted positions, none below another, carrying
    ``zeta`` (one row each when ``zeta`` is 2-D).  The value at node m is
    sum_j P_j zeta_j / P(m) over the leaves j at or below m, and 0 where no
    leaf lies below: one ``market._accumulate_up`` pass over the masses.
    """
    zeta = np.asarray(zeta, dtype=float)
    shape = (-1,) + (1,) * (zeta.ndim - 1)
    mass = np.zeros((tree.n_nodes,) + zeta.shape[1:])
    mass[leaves] = tree.path_prob[leaves].reshape(shape) * zeta
    _accumulate_up(mass, tree.parent, tree.levels)
    return mass / tree.path_prob.reshape(shape)


def node_markets(model: MarketModel, nodes: np.ndarray, internal_mask):
    """One-period markets of a subtree's internal nodes, grouped by date.

    ``nodes`` are sorted positions of a subtree containing the root, each of
    whose ``internal_mask`` nodes has all its children among ``nodes``.
    Returns (internal, kids, blk, dates, keep), indices into ``nodes``: the
    internal nodes, the others grouped by parent in position order with
    their parents' indices in ``internal``, one (first, own, child, dS) per
    date, whose nodes ``own`` start at internal[first], and the tradable
    assets.  Row i of ``child`` lists own[i]'s children, padded to the
    date's widest node by spare slots holding ``len(nodes)``; ``dS[i, j]``
    is their price change, zero in spare slots.  A node's rank counts the singular values of dS[i]
    above eps * max(width, n_active) times its largest price or a child's,
    so that a redundant asset, or one whose price moves by rounding only, is
    no tradable direction; a pivoted QR picks the rank's ``keep`` assets.
    """
    tree = model.tree
    na = model.n_active
    prices = np.vstack((model.assets.prices[nodes, :na], np.zeros((1, na))))  # and the sentinel
    internal = np.flatnonzero(internal_mask[nodes])
    blk = np.searchsorted(nodes[internal], tree.parent[nodes[1:]])
    kids = 1 + np.argsort(blk, kind="stable")
    blk = blk[kids - 1]
    slot = np.arange(kids.size) - np.searchsorted(blk, blk)

    keep = np.zeros((internal.size, na), dtype=bool)
    dates = []
    times = tree.times[nodes[internal]]
    for t in np.unique(times):
        lo, hi = np.searchsorted(times, [t, t + 1])
        k0, k1 = np.searchsorted(blk, [lo, hi])
        child = np.full((hi - lo, int(slot[k0:k1].max()) + 1), nodes.size)
        child[blk[k0:k1] - lo, slot[k0:k1]] = kids[k0:k1]
        own = internal[lo:hi]
        dS = np.where((child < nodes.size)[:, :, None], prices[child] - prices[own, None], 0.0)
        if na:
            level = np.maximum(np.abs(prices[own]).max(axis=1),
                               np.abs(prices[child]).max(axis=(1, 2)))
            cut = np.finfo(float).eps * max(child.shape[1], na) * level
            rank = np.sum(np.linalg.svd(dS, compute_uv=False) > cut[:, None], axis=1)
            keep[lo:hi] = (rank == na)[:, None]
            for i in np.flatnonzero((rank > 0) & (rank < na)):
                keep[lo + i, qr(dS[i], mode="r", pivoting=True)[1][: rank[i]]] = True
        dates.append((int(lo), own, child, dS))
    # Shared by every consumer of a model's memo, and by both views of a
    # tree whose trimmed view is whole (``Geometry.markets``): read only.
    for a in (internal, kids, blk, keep, *(a for date in dates for a in date[1:])):
        a.flags.writeable = False
    return internal, kids, blk, dates, keep


def martingale_density(model: MarketModel, nodes: np.ndarray, markets) -> np.ndarray:
    """A strictly positive martingale density over a subtree, or raise.

    A tree is arbitrage-free exactly when every one-period node market is
    (Föllmer & Schied, *Stochastic Finance*, ch. 5).  At each internal node
    of the subtree's ``node_markets``, a damped Newton minimizes
    phi(lam) = log sum_c p_c exp(lam . dS_c) in the node's kept assets, one
    date at a time over the padded layout; at the minimizer,
    q_c = p_c exp(lam . dS_c) / sum is a strictly positive one-step
    martingale measure (Rogers, Stochastics 1994).  Their products along the
    paths give Z over ``nodes``, Z = 1 at the root.  Where a node's Newton
    fails, one small LP on that node finds holdings whose gains are
    nonnegative at every child and positive at one, and
    ``InfeasibleMarketError`` carries the node's id and those holdings.
    """
    _, _, _, dates, keep = markets
    p = np.append(model.tree.cond_prob[nodes], 1.0)  # and the sentinel's
    z = np.ones(nodes.size + 1)
    for first, own, child, dS in dates:
        real = child < nodes.size
        logp = np.where(real, np.log(p[child]), -np.inf)
        q, failed = _one_step_measures(logp, dS * keep[first : first + own.size, None, :])
        if failed.any():
            i = int(np.flatnonzero(failed)[0])
            _raise_arbitrage(model, nodes[own[i]], dS[i][real[i]], keep[first + i])
        z[child] = z[own, None] * (q / p[child])
    return z[:-1]


def _one_step_measures(logp: np.ndarray, dS: np.ndarray):
    """Batched damped Newton on phi(lam) = log sum_c exp(logp_c + lam . dS_c).

    ``logp`` is (nodes, slots), -inf in spare slots; ``dS`` is (nodes,
    slots, assets), zero outside each node's kept assets.  Returns the
    measures q and the nodes whose Newton found no minimizer: their steps
    in log q did not settle within the iteration budget, or left q at 0.
    """
    scale = np.abs(dS).max(axis=(1, 2), initial=0.0)
    x = dS / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    free = ~x.any(axis=1)  # an asset the node does not trade
    lam = np.zeros(x.shape[::2])
    diag = np.arange(lam.shape[1])
    done = free.all(axis=1)
    failed = np.zeros(done.shape, dtype=bool)

    def logits(i, lam_i):
        a = logp[i] + (x[i] @ lam_i[:, :, None])[:, :, 0]
        top = a.max(axis=1, keepdims=True)
        return a, top[:, 0] + np.log(np.exp(a - top).sum(axis=1))

    # Where a node has arbitrage, lam runs off to infinity.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_GATE_ITERS):
            i = np.flatnonzero(~done)
            if not i.size:
                break
            a, phi = logits(i, lam[i])
            q = np.exp(a - phi[:, None])
            g = (q[:, None, :] @ x[i])[:, 0]
            xc = x[i] - g[:, None, :]
            h = np.swapaxes(xc * q[:, :, None], 1, 2) @ xc
            h[:, diag, diag] += free[i] + _GATE_RIDGE
            d = -np.linalg.solve(h, g[:, :, None])[:, :, 0]
            settled = np.abs(x[i] @ d[:, :, None]).max(axis=(1, 2)) <= _GATE_STEP_TOL
            t = np.ones(i.size)
            slope = np.sum(g * d, axis=1)
            # Armijo backtracking, except where the decrement -slope is so
            # small that rounding would decide the test: there the whole step
            # is taken.
            whole = settled | (-slope <= 1e-10)
            for _ in range(60):
                trial = logits(i, lam[i] + t[:, None] * d)[1]
                short = ~whole & ~(trial <= phi + 1e-4 * t * slope)
                if not short.any():
                    break
                t[short] *= 0.5
            lam[i] += t[:, None] * d
            bad = ~np.isfinite(lam[i]).all(axis=1)
            failed[i[bad]] = True
            done[i[settled | bad]] = True
    failed |= ~done
    a, phi = logits(np.arange(lam.shape[0]), np.where(failed[:, None], 0.0, lam))
    q = np.exp(a - phi[:, None])
    failed |= np.any((q <= 0.0) & np.isfinite(logp), axis=1)
    return q, failed


def _raise_arbitrage(model: MarketModel, pos: int, dS: np.ndarray, keep: np.ndarray):
    """Raise ``InfeasibleMarketError`` for node ``pos`` with an arbitrage.

    ``dS`` holds the price changes of the node's children.  The LP finds
    holdings h in the kept assets, scaled to the box [-1, 1], whose gains
    dS h are nonnegative and whose total gain is largest.
    """
    node = model.tree.ids[pos]
    scale = np.abs(dS[:, keep]).max()
    x = dS[:, keep] / scale
    res = linprog(-x.sum(axis=0), A_ub=-x, b_ub=np.zeros(x.shape[0]), bounds=(-1.0, 1.0),
                  method="highs")
    if res.status != 0 or -res.fun <= _GATE_STEP_TOL:
        raise ConvergenceError(
            f"no-arbitrage gate found neither a martingale measure nor an arbitrage "
            f"at node {node!r}"
        )
    holdings = np.zeros(keep.size)
    holdings[keep] = res.x / scale
    raise InfeasibleMarketError(
        f"the market admits arbitrage at node {node!r}: holdings "
        f"{np.array2string(holdings, precision=6)} gain nothing negative at any "
        "child and a positive amount at one",
        node=node,
        holdings=holdings,
    )


def node_system(nodes: np.ndarray, markets):
    """Martingale constraints in node-measure coordinates m = P Z over ``nodes``.

    The sparse twin of ``full_polytope_matrices``, given the subtree's
    ``node_markets``.  Sparse rows in plain measure units: m_root = 1, then
    every internal node's balance m_k - sum_c m_c = 0, then its full-rank
    pricing rows sum_c m_c (S_c - S_k) = 0 in the assets it keeps.  Returns
    (N, b, price_row) with N m = b and ``price_row[k, a]`` the row of the
    k-th internal node's asset a, or -1 where it has none.
    """
    internal, kids, blk, dates, keep = markets
    n_rows = 1 + internal.size + int(keep.sum())
    price_row = np.full(keep.shape, -1)
    price_row[keep] = np.arange(1 + internal.size, n_rows)

    d_s = np.concatenate([dS[child < nodes.size] for _, _, child, dS in dates])
    k, a = np.nonzero(keep[blk])
    rows = np.concatenate(([0], 1 + np.arange(internal.size), 1 + blk, price_row[blk[k], a]))
    cols = np.concatenate(([0], internal, kids, kids[k]))
    vals = np.concatenate(([1.0], np.ones(internal.size), -np.ones(kids.size), d_s[k, a]))
    b = np.zeros(n_rows)
    b[0] = 1.0
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_rows, nodes.size)), b, price_row


def build_geometry(model: MarketModel) -> Geometry:
    """The trimmed view of ``model``: a few boolean passes over the tree,
    not cached; what the solvers derive from it is (``Geometry.memo``)."""
    tree = model.tree
    parent = tree.parent
    consuming = model.clock.dkappa > 0.0

    alive = consuming.copy()
    for lv in reversed(tree.levels):
        alive[parent[lv][alive[lv]]] = True
    has_alive_child = np.zeros(tree.n_nodes, dtype=bool)
    has_alive_child[parent[alive & (parent >= 0)]] = True

    internal_mask = alive & has_alive_child
    eff_mask = alive & ~has_alive_child
    dead_root_mask = ~alive & (parent >= 0) & internal_mask[parent]

    trimmed = np.flatnonzero(alive | dead_root_mask)

    solve_leaves = trimmed[(eff_mask | dead_root_mask)[trimmed]]

    return Geometry(
        model=model,
        trimmed=trimmed,
        internal_mask=internal_mask,
        eff_mask=eff_mask,
        dead_root_mask=dead_root_mask,
        consuming=consuming,
        solve_leaves=solve_leaves,
    )


def full_polytope_matrices(model: MarketModel):
    """Martingale-density constraints of the whole tree, over its leaf values.

    Returns (A, b): A zeta = b the normalization row followed by one row per
    (internal node, tradable asset), in position then asset order.
    """
    tree = model.tree
    prices = model.assets.prices
    na = model.n_active
    leaves = tree.leaves
    internal = tree.internal_nodes()
    size = (1 + na * internal.size) * leaves.size
    if size > DENSE_ENTRY_GUARD:
        raise BudgetError(
            f"full density aggregation would need {size} entries, "
            f"beyond the dense guard of {DENSE_ENTRY_GUARD}"
        )
    first_row = np.full(tree.n_nodes, -1)
    first_row[internal] = 1 + na * np.arange(internal.size)

    p_leaf = tree.path_prob[leaves]
    A = np.zeros((1 + na * internal.size, leaves.size))
    # The pricing entry at an ancestor m of leaf j is
    # (S(child toward j) P_j - S(m) P_j) / P(m) and 0 elsewhere, so walking
    # each leaf up one date at a time fills every nonzero entry directly;
    # summing over the children would give the same bits, as only one term
    # is nonzero.
    anc = leaves.copy()
    for lv in reversed(tree.levels):
        j = np.flatnonzero(anc >= lv.start)
        child = anc[j]
        node = tree.parent[child]
        anc[j] = node
        p_j = p_leaf[j, None]
        A[first_row[node][:, None] + np.arange(na), j[:, None]] = (
            prices[child, :na] * p_j - prices[node, :na] * p_j
        ) / tree.path_prob[node][:, None]
    # Z_0 = sum_j P_j zeta_j, as P(root) = 1.
    A[0] = p_leaf
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    return A, b


def cumulative_spend(model: MarketModel, c: np.ndarray) -> np.ndarray:
    """Path-cumulative consumption expenditure sum(c * dkappa) per node."""
    tree = model.tree
    spend = np.asarray(c, dtype=float) * model.clock.dkappa
    return _accumulate_down(spend, tree.parent, tree.levels)


def wealth_from_strategy(model: MarketModel, H: np.ndarray, c: np.ndarray, x: float):
    """Post-consumption wealth at every node implied by holdings and rates.

    ``H`` is (n_nodes, n_active) with rows read at non-terminal nodes; ``c``
    is the per-node consumption rate.  Returns the wealth array
    x + gains-to-date - cumulative spend.
    """
    tree = model.tree
    prices = model.assets.prices
    na = model.n_active
    H = np.asarray(H, dtype=float)
    kids = np.flatnonzero(tree.parent >= 0)
    par = tree.parent[kids]
    # One (1, na) @ (na, 1) product per node runs the dot routine of np.dot,
    # so each one-step gain keeps its bits.
    steps = H[par, None, :na] @ (prices[kids, :na] - prices[par, :na])[:, :, None]
    gains = np.zeros(tree.n_nodes)
    gains[kids] = steps[:, 0, 0]
    _accumulate_down(gains, tree.parent, tree.levels)
    return x + gains - cumulative_spend(model, c)


class _NodeKKT:
    """Newton steps on ``node_system``'s rows N: one elimination per date of
    ``Geometry.markets`` leaves up, then root down.

    ``solve`` minimizes g' du + du' diag(h) du / 2 over N diag(q) du = r.  In
    the measure steps delta = q du, child c hands its parent k a curvature
    a_c and gradient beta_c in delta_c; k minimizes their sum over its rows
    [1, dS_c] delta_C = (delta_k - r_balance, r_price) by one Householder QR
    of M = [1, dS_c] / sqrt(a_c) per node, batched over the date, rows by
    decreasing size so that small parts stay accurate (an unkept asset: a
    unit column on a spare row).  The step's part outside M's range is taken
    in the complete QR's complement, which a complete node spans by zero
    rows alone, so it is exactly 0 there; rebuilt from the range, it would
    cancel.  A date of one node runs LAPACK's QR, reflectors and triangular
    solves directly (``_BlockQR``).
    """

    def __init__(self, geo: Geometry, price_row: np.ndarray):
        _, _, _, dates, keep = geo.markets()
        n, na = geo.trimmed.size, geo.model.n_active
        self.sign = np.append(-1.0, np.ones(na))  # of (balance, price) rows
        self.n_rows, self.dates = 1 + keep.shape[0] + int(keep.sum()), []
        for first, own, child, dS in dates:
            span, w = slice(first, first + own.size), child.shape[1]
            child = np.pad(child, ((0, 0), (0, na)), constant_values=n)
            B = np.zeros(child.shape + (1 + na,))
            B[:, :w] = np.concatenate((child[:, :w, None] < n, dS * keep[span, None]), axis=2)
            B[:, w + np.arange(na), 1 + np.arange(na)] = ~keep[span]
            # An unkept asset's row -1 reads r = 0 and writes nu's spare entry.
            rows = np.hstack((1 + first + np.arange(own.size)[:, None], price_row[span]))
            unit = np.zeros(rows.shape + (2,))  # the first unit vector, and r's slot
            unit[:, 0, 0] = 1.0
            offset = child.shape[1] * np.arange(own.size)[:, None]
            # B's columns as rows, over the date's child slots: a gather of
            # slots keeps each column contiguous, as LAPACK reads it.
            bt = np.ascontiguousarray(B.reshape(-1, 1 + na).T)
            self.dates.append((own, child, bt, np.abs(B).max(axis=2), rows, unit, offset))

    def solve(self, q, r, g, h, free_root=False):
        """(du, du' h du, nu) of min g' du + du' diag(h) du / 2, N diag(q) du = r,
        for h > 0 on the trimmed leaves and h >= 0 on the inner nodes.  With
        ``free_root`` the root's row is dropped: its measure minimizes the
        rest, and nu reads 0 there."""
        a, beta, r = np.append(h / q**2, 1.0), np.append(g / q, 0.0), np.append(r, 0.0)
        sign, done = self.sign, []
        with np.errstate(divide="ignore", invalid="ignore"):  # a singular block fails below
            for own, child, bt, size, rows, unit, offset in reversed(self.dates):
                s = 1.0 / np.sqrt(a[child])
                o = np.argsort(-s * size, axis=1) + offset
                child, s = child.ravel()[o], s.ravel()[o]
                mt = bt[:, o]  # M' per node: (columns, nodes, slots)
                mt *= s
                qr_ = (_BlockQR if own.size == 1 else _StackedQR)(mt)
                c = qr_.reflect(beta[child] * s, True)  # Q' beta / sqrt(a)
                rhs = unit.copy()
                rhs[:, :, 1] = r[rows] * sign
                rho_z0 = qr_.solve(rhs, True)
                rho, z0, m = rho_z0[:, :, 0], rho_z0[:, :, 1], rhs.shape[1]
                a[own] += (rho * rho).sum(axis=1)
                beta[own] += (rho * (z0 + c[:, :m])).sum(axis=1)
                done.append((own, rows, child, s, qr_, c, rho, z0))
            delta, nu = np.zeros(a.size), np.zeros(self.n_rows + 1)
            if free_root:
                delta[0] = -beta[0] / a[0]
            else:
                delta[0], nu[0] = r[0], -(a[0] * r[0] + beta[0])
            for own, rows, child, s, qr_, c, rho, z0 in reversed(done):
                m = rho.shape[1]
                z = rho * delta[own, None] + z0
                nu[rows] = -sign * qr_.solve((z + c[:, :m])[:, :, None], False)[:, :, 0]
                delta[child] = qr_.reflect(np.concatenate((z, -c[:, m:]), axis=1), False) * s
        du = delta[:-1] / q
        if not np.all(np.isfinite(du)):
            raise ConvergenceError("Newton system could not be solved")
        return du, float(np.dot(du, h * du)), nu[:-1]


class _StackedQR:
    """Householder QR of each block of a stack, given as the blocks'
    transposes ``mt`` (columns, blocks, rows), in ``np.linalg.qr``'s raw
    form: ``reflect`` applies Q' or Q to each row of x, ``solve`` solves
    R' x = b or R x = b by substitution, for b (blocks, columns, right-hand
    sides)."""

    def __init__(self, mt):
        hv, tau = np.linalg.qr(np.moveaxis(mt, 0, 2), mode="raw")
        m = tau.shape[1]
        self.rt = hv[:, :, :m]  # R' in its lower triangle
        # Reflector j is v_j = (0, ..., 0, 1, hv[j, j + 1:]), H_j = I - tau_j v_j v_j'.
        v = np.where(np.arange(hv.shape[2]) > np.arange(m)[:, None], hv, 0.0)
        v[:, np.arange(m), np.arange(m)] = 1.0
        self.v, self.tv = list(np.swapaxes(v, 0, 1)), list(np.swapaxes(tau[:, :, None] * v, 0, 1))

    def reflect(self, x, transpose):
        for v, tv in zip(self.v, self.tv) if transpose else zip(self.v[::-1], self.tv[::-1]):
            x -= np.einsum("nw,nw->n", v, x)[:, None] * tv
        return x

    def solve(self, b, transpose):
        rt, m = self.rt, self.rt.shape[1]
        x = np.empty_like(b)
        for j in range(m) if transpose else range(m - 1, -1, -1):
            known = slice(0, j) if transpose else slice(j + 1, m)
            coef = rt[:, j, known] if transpose else rt[:, known, j]
            x[:, j] = (b[:, j] - (coef[:, None, :] @ x[:, known])[:, 0]) / rt[:, j, j, None]
        return x


class _BlockQR:
    """``_StackedQR`` of a stack of one block, by LAPACK itself (``dgeqrf``,
    ``dormqr``, ``dtrtrs``), where batching buys nothing."""

    def __init__(self, mt):
        self.qr, self.tau, _, _ = lapack.dgeqrf(mt[:, 0].T, overwrite_a=True)

    def reflect(self, x, transpose):
        trans = "T" if transpose else "N"
        return lapack.dormqr("L", trans, self.qr, self.tau, x.T, lwork=1)[0].T

    def solve(self, b, transpose):
        x, info = lapack.dtrtrs(self.qr, b[0], trans=int(transpose))
        return (x if info == 0 else np.full_like(x, np.nan))[None]


def _line_search(value, x, step, g, f, phi, bw):
    """Armijo backtracking from the largest step inside the positive orthant.

    The merit is phi(z) = value(z) - bw . log(z), whose gradient at x is g;
    ``f`` and ``phi`` are value and phi at x.  Returns the accepted point
    with its value, phi and step length; x itself and length 0 when no point
    qualifies.
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
                return cand, f_cand, phi_cand, alpha
        alpha *= 0.5
    cand = x + alpha * step
    if np.min(cand) > 0.0:
        f_cand = value(cand)
        return cand, f_cand, merit(cand, f_cand), alpha
    return x, f, phi, 0.0


def _boundary_fraction(x, step) -> float:
    """The largest alpha <= 1 with x + alpha step at least 0.005 x, for x > 0."""
    neg = step < 0.0
    return min(1.0, 0.995 * float(np.min(-x[neg] / step[neg]))) if np.any(neg) else 1.0
