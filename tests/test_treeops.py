"""The level-ordered tree kernels against per-node reference loops.

The references restate the definitions one node at a time: path
probabilities and clock totals are products and sums from the root down,
the trimmed view keeps the alive nodes and the dead roots, wealth rows add
each step's gains to the parent's row, and a density row or a node's
probability mass sums its children's.  The kernels must reproduce them bit
for bit on random trees whose node ids are shuffled, so that siblings are
not adjacent in position order, and whose clocks leave dead subtrees and
effective leaves at inner dates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitylab import treeops
from dualitylab.errors import BudgetError
from dualitylab.market import build_tree
from dualitylab.treeops import (
    build_geometry,
    cumulative_spend,
    full_polytope_matrices,
    node_markets,
    node_system,
    node_values,
    wealth_from_strategy,
)

from conftest import binomial_model, binomial_two_period_partial_clock


@st.composite
def random_models(draw, martingale=False, skew=False):
    # With ``skew`` the children's weights span 12 / depth decades, so that
    # leaf path probabilities reach down to about 1e-12.
    depth = draw(st.integers(1, 4))
    n_assets = draw(st.integers(0, 3))
    n_active = draw(st.integers(0, n_assets))
    clock = draw(st.sampled_from(["terminal", "spread", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    parent, times, probs = [None], [0], [1.0]
    level = [0]
    for t in range(1, depth + 1):
        nxt = []
        for pid in level:
            k = int(rng.integers(1, 4))
            w = 10.0 ** rng.uniform(-12.0 / depth, 0.0, k) if skew else rng.uniform(1.0, 4.0, k)
            for q in w / w.sum():
                parent.append(pid)
                times.append(t)
                probs.append(float(q))
                nxt.append(len(parent) - 1)
        level = nxt
    n = len(parent)
    ids = rng.permutation(n)

    if clock == "terminal":
        dk = np.array([1.0 if t == depth else 0.0 for t in times])
    elif clock == "spread":
        dk = np.array([0.0] + [1.0 / depth] * (n - 1))
    else:
        dk = np.where(rng.random(n) < 0.3, rng.uniform(0.1, 1.0, n), 0.0)
        dk[0] = 0.0
        dk[n - 1] = max(dk[n - 1], 0.5)
    nodes = [{"id": int(ids[0]), "t": 0, "parent": None}]
    for k in range(1, n):
        nodes.append({"id": int(ids[k]), "t": times[k], "parent": int(ids[parent[k]]),
                      "prob": probs[k]})
    prices = rng.uniform(0.25, 4.0, (n, n_assets))
    if martingale:
        # Each inner node's prices become a strictly positive average of its
        # children's, so that every one-period submarket is arbitrage-free.
        parent_of = np.array(parent[1:])
        for k in range(n - 1, -1, -1):
            kids = 1 + np.flatnonzero(parent_of == k)
            if kids.size:
                w = rng.uniform(0.2, 1.0, kids.size)
                prices[k] = w @ prices[kids] / w.sum()
    return build_tree({
        "nodes": nodes,
        "prices": {int(ids[k]): list(prices[k]) for k in range(n)},
        "clock": {int(ids[k]): float(dk[k]) for k in range(n)},
        "A": float(depth),
        "n_active": n_active,
    })


# ---------------------------------------------------------------------------
# Per-node references


def children(tree, k):
    """Positions of node ``k``'s children, in position order."""
    return np.flatnonzero(tree.parent == k)


def ref_path_prob(tree):
    out = np.ones(tree.n_nodes)
    for k in range(tree.n_nodes):
        if tree.parent[k] >= 0:
            out[k] = out[tree.parent[k]] * tree.cond_prob[k]
    return out


def ref_cumulative(tree, values):
    out = values.copy()
    for k in range(tree.n_nodes):
        if tree.parent[k] >= 0:
            out[k] += out[tree.parent[k]]
    return out


def ref_rows(model, nodes, holds, spends, traded=None):
    """Wealth rows over ``nodes``: the parent's row plus one step's gains.

    ``traded`` maps a holding node's position to the assets it trades, all
    of them by default; the others move no wealth.
    """
    tree, prices, na = model.tree, model.assets.prices, model.n_active
    traded = traded or {}
    h_slice, c_index, n_vars = {}, {}, 0
    for pos in nodes:
        if holds[pos] and na > 0:
            h_slice[int(pos)] = slice(n_vars, n_vars + na)
            n_vars += na
    for pos in nodes:
        if spends[pos]:
            c_index[int(pos)] = n_vars
            n_vars += 1
    row_of = {int(pos): k for k, pos in enumerate(nodes)}
    rows = np.zeros((len(nodes), n_vars))
    for pos in nodes:
        p = tree.parent[pos]
        if p < 0:
            continue
        row = rows[row_of[int(p)]].copy()
        if int(p) in c_index:
            row[c_index[int(p)]] -= model.clock.dkappa[p]
        if int(p) in h_slice:
            move = prices[pos, :na] - prices[p, :na]
            row[h_slice[int(p)]] += np.where(traded.get(int(p), True), move, 0.0)
        rows[row_of[int(pos)]] = row
    return rows, h_slice, c_index


def traded_assets(geo):
    """Each trimmed internal node's kept assets, by position."""
    internal, _, _, _, keep = geo.markets()
    return dict(zip(geo.trimmed[internal].tolist(), keep))


def ref_density(model, nodes, leaves):
    """(agg, A, b) by summing children's unnormalized rows bottom-up."""
    tree, prices, na = model.tree, model.assets.prices, model.n_active
    row_of = {int(pos): k for k, pos in enumerate(nodes)}
    col_of = {int(pos): j for j, pos in enumerate(leaves)}
    unnorm = np.zeros((len(nodes), len(leaves)))
    for pos in nodes[::-1]:
        if int(pos) in col_of:
            unnorm[row_of[int(pos)], col_of[int(pos)]] = tree.path_prob[pos]
        else:
            for ch in children(tree, pos):
                unnorm[row_of[int(pos)]] += unnorm[row_of[int(ch)]]
    agg = unnorm / tree.path_prob[nodes][:, None]
    a_rows, b_vals = [agg[row_of[tree.root]]], [1.0]
    for pos in nodes:
        if int(pos) in col_of:
            continue
        for i in range(na):
            row = -prices[pos, i] * unnorm[row_of[int(pos)]]
            for ch in children(tree, pos):
                row = row + prices[ch, i] * unnorm[row_of[int(ch)]]
            a_rows.append(row / tree.path_prob[pos])
            b_vals.append(0.0)
    return agg, np.vstack(a_rows), np.array(b_vals)


def ref_node_values(tree, leaves, zeta):
    """Each node's mass is its leaf mass or its children's, added in order."""
    mass = np.zeros(tree.n_nodes)
    for pos in range(tree.n_nodes - 1, -1, -1):
        if pos in leaves:
            mass[pos] = tree.path_prob[pos] * zeta[leaves.index(pos)]
        else:
            for ch in children(tree, pos):
                mass[pos] += mass[ch]
    return mass / tree.path_prob


def ref_geometry(model):
    tree = model.tree
    n = tree.n_nodes
    consuming = model.clock.dkappa > 0.0
    alive = consuming.copy()
    for k in range(n - 1, -1, -1):
        if tree.parent[k] >= 0 and alive[k]:
            alive[tree.parent[k]] = True
    has_alive_child = np.zeros(n, dtype=bool)
    dead_root = np.zeros(n, dtype=bool)
    for k in range(n):
        if tree.parent[k] >= 0 and alive[k]:
            has_alive_child[tree.parent[k]] = True
    internal = alive & has_alive_child
    for k in range(n):
        if tree.parent[k] >= 0 and not alive[k] and internal[tree.parent[k]]:
            dead_root[k] = True
    trimmed = np.flatnonzero(alive | dead_root)
    leaves = np.array([p for p in trimmed if not internal[p]], dtype=np.int64)
    return {
        "trimmed": trimmed,
        "internal_mask": internal,
        "eff_mask": alive & ~has_alive_child,
        "dead_root_mask": dead_root,
        "consuming": consuming,
        "solve_leaves": leaves,
    }


def ref_wealth(model, H, c, x):
    tree, prices, na = model.tree, model.assets.prices, model.n_active
    gains = np.zeros(tree.n_nodes)
    for k in range(tree.n_nodes):
        p = tree.parent[k]
        if p >= 0:
            step = float(np.dot(H[p, :na], prices[k, :na] - prices[p, :na])) if na else 0.0
            gains[k] = gains[p] + step
    return x + gains - ref_cumulative(tree, c * model.clock.dkappa)


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=120, deadline=None)
@given(random_models(), st.integers(0, 2**32 - 1))
def test_kernels_match_reference_loops(model, seed):
    tree = model.tree
    assert_same(tree.path_prob, ref_path_prob(tree))
    assert_same(model.clock.cumulative, ref_cumulative(tree, model.clock.dkappa))

    geo = build_geometry(model)
    for name, value in ref_geometry(model).items():
        assert_same(getattr(geo, name), value)

    everything = np.arange(tree.n_nodes)
    _, A, b = ref_density(model, everything, tree.leaves)
    got_A, got_b = full_polytope_matrices(model)
    assert_same(got_A, A)
    assert_same(got_b, b)

    # Node values: the identity columns give the reference aggregation
    # matrix, and any leaf vector is summed as the children-order loop does.
    rng = np.random.default_rng(seed)
    for nodes, leaves in ((geo.trimmed, geo.solve_leaves), (everything, tree.leaves)):
        agg = ref_density(model, nodes, leaves)[0]
        assert_same(node_values(tree, leaves, np.eye(leaves.size))[nodes], agg)
        zeta = rng.uniform(0.1, 3.0, leaves.size)
        assert_same(node_values(tree, leaves, zeta), ref_node_values(tree, leaves.tolist(), zeta))

    c = rng.uniform(0.0, 2.0, tree.n_nodes)
    H = rng.normal(size=(tree.n_nodes, model.n_active))
    assert_same(cumulative_spend(model, c), ref_cumulative(tree, c * model.clock.dkappa))
    # The kernel runs np.dot's routine on each step, so even the wealth
    # keeps its bits.
    assert_same(wealth_from_strategy(model, H, c, 1.3), ref_wealth(model, H, c, 1.3))


def ref_node_system(model, nodes, internal_mask, keep):
    """Rows of the node-measure system, one node at a time, as (row, col) -> value."""
    tree, prices = model.tree, model.assets.prices
    col_of = {int(pos): j for j, pos in enumerate(nodes)}
    internal = [int(pos) for pos in nodes if internal_mask[pos]]
    entries = {(0, 0): 1.0}
    for i, k in enumerate(internal):
        entries[1 + i, col_of[k]] = 1.0
        for ch in children(tree, k):
            entries[1 + i, col_of[int(ch)]] = -1.0
    row = 1 + len(internal)
    for i, k in enumerate(internal):
        for a in np.flatnonzero(keep[i]):
            for ch in children(tree, k):
                entries[row, col_of[int(ch)]] = prices[ch, a] - prices[k, a]
            row += 1
    return entries, row


@settings(max_examples=120, deadline=None)
@given(st.one_of(random_models(), random_models(martingale=True)))
def test_node_system_matches_reference_loop(model):
    # On the trimmed view and on the whole tree: the layout lists each
    # internal node's children in position order with their price changes,
    # keeps as many assets as its rank, and the sparse system carries the
    # reference rows of exactly those assets.
    tree, na = model.tree, model.n_active
    geo = build_geometry(model)
    for nodes, mask in ((geo.trimmed, geo.internal_mask), (np.arange(tree.n_nodes), ~tree.is_leaf)):
        markets = node_markets(model, nodes, mask)
        internal, kids, blk, dates, keep = markets
        assert_same(nodes[internal], nodes[mask[nodes]])
        grouped = []
        for first, own, child, dS in dates:
            assert_same(own, internal[first : first + own.size])
            for i, k in enumerate(nodes[own]):
                real = child[i][child[i] < nodes.size]
                grouped += [(first + i, c) for c in real]
                assert nodes[real].tolist() == children(tree, k).tolist()
                r = keep[first + i].sum()
                moves = model.assets.prices[nodes[real], :na] - model.assets.prices[k, :na]
                assert_same(dS[i, : real.size], moves)
                assert not dS[i, real.size :].any()
                if r:
                    s = np.linalg.svd(dS[i][:, keep[first + i]], compute_uv=False)
                    level = np.abs(model.assets.prices[np.append(nodes[real], k), :na]).max()
                    assert np.sum(s > np.finfo(float).eps * max(child.shape[1], na) * level) == r
        assert grouped == list(zip(blk.tolist(), kids.tolist()))

        N, b, price_row = node_system(nodes, markets)
        entries, n_rows = ref_node_system(model, nodes, mask, keep)
        assert N.shape == (n_rows, nodes.size)
        coo = N.tocoo()
        assert dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist())) == entries
        assert_same(b, np.eye(1, n_rows)[0])
        assert np.array_equal(price_row >= 0, keep)


@pytest.mark.parametrize("up_subtree_only", [False, True], ids=["time-1-clock", "dead-subtree"])
def test_a_whole_trimmed_view_shares_the_full_markets(up_subtree_only):
    # Every node of a terminal-clock tree is alive, so both views are one;
    # a dying clock trims the tree, and the views keep their own markets.
    whole = build_geometry(binomial_model(2, 0.6, {2: 1.0}))
    assert whole.markets() is whole.full_markets()
    trimmed = build_geometry(binomial_two_period_partial_clock(up_subtree_only))
    assert trimmed.trimmed.size < trimmed.tree.n_nodes
    assert trimmed.markets() is not trimmed.full_markets()
    internal, kids, blk, dates, keep = whole.markets()
    for shared in (internal, kids, blk, keep, *dates[0][1:]):
        with pytest.raises(ValueError, match="read-only"):
            shared[...] = shared


def test_a_whole_trimmed_view_shares_the_full_node_system():
    # As for the markets: one system where the views are one, two kept ones
    # where a dying clock trims the tree.
    whole = build_geometry(binomial_model(2, 0.6, {2: 1.0}))
    assert whole.node_system() is whole.full_node_system()
    geo = build_geometry(binomial_two_period_partial_clock(True))
    N = geo.node_system()[0]
    assert N.shape[1] == geo.trimmed.size < geo.tree.n_nodes
    assert geo.full_node_system()[0].shape[1] == geo.tree.n_nodes
    assert geo.node_system()[0] is N


@pytest.mark.parametrize(
    "build, what",
    [
        pytest.param(full_polytope_matrices, "full density aggregation",
                     id="full_polytope_matrices"),
    ],
)
@pytest.mark.parametrize("model", ["binom1", "example3", "two_period_mid_clock"])
def test_dense_guards(request, monkeypatch, model, build, what):
    # The guard counts the entries of the (1 + n_active * internal) x leaves
    # array the builder allocates.
    model = request.getfixturevalue(model)
    A = build(model)[0]
    monkeypatch.setattr(treeops, "DENSE_ENTRY_GUARD", A.size - 1)
    with pytest.raises(BudgetError, match=f"^{what} would need {A.size} entries"):
        build(model)
    monkeypatch.setattr(treeops, "DENSE_ENTRY_GUARD", A.size)
    assert np.array_equal(build(model)[0], A)
