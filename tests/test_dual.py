import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dualitylab import dual, harness, treeops
from dualitylab.dual import (
    dual_over_measures,
    ensure_full_density,
    find_interior,
    martingale_polytope,
    solve_dual,
)
from dualitylab.errors import ConvergenceError, DualityLabError, InfeasibleMarketError
from dualitylab.harness import dual_superrep_price, superreplication_price
from dualitylab.market import (
    ExampleMarketSpec,
    build_example_market,
    build_tree,
    model_to_dict,
    truncate,
)
from dualitylab.primal import solve_primal
from dualitylab.treeops import (
    build_geometry,
    full_polytope_matrices,
    node_markets,
    node_system,
    node_values,
)
from dualitylab.utility import UtilityField

from conftest import arbitrage_model, binomial_model, binomial_two_period_partial_clock
from test_treeops import random_models


class TestPolytope:
    def test_one_asset_binomial_is_singleton(self, binom1):
        # Unique risk-neutral up-probability 1/3: solve 2q + (1-q)/2 = 1.
        poly = martingale_polytope(binom1)
        zeta, *_ = np.linalg.lstsq(poly.A, poly.b, rcond=None)
        assert poly.contains(zeta, tol=1e-9)
        assert np.linalg.matrix_rank(poly.A) == poly.n_leaves
        up = binom1.assets.prices[binom1.tree.leaves, 0] == 2.0
        expect = np.where(up, (1 / 3) / 0.6, (2 / 3) / 0.4)
        np.testing.assert_allclose(zeta, expect, atol=1e-10)

    def test_bond_only_uniform_density_feasible(self, bond_two_dates):
        poly = martingale_polytope(bond_two_dates)
        assert poly.contains(np.ones(poly.n_leaves))

    def test_two_assets_product_measure_feasible_interior(self, example2):
        # With 4 states and 3 pricing rows the polytope is a segment; the
        # product of the per-asset risk-neutral measures is interior to it.
        poly = martingale_polytope(example2)
        probs = example2.tree.path_prob[example2.tree.leaves]
        q = np.array([1 / 9, 2 / 9, 2 / 9, 4 / 9])
        zeta = q / probs
        assert poly.contains(zeta, tol=1e-12)
        assert float(np.min(zeta)) > 0.0
        assert np.linalg.matrix_rank(poly.A) == 3

    def test_truncation_nesting(self, example3):
        rows = {}
        for n in (1, 2, 3):
            poly = martingale_polytope(truncate(example3, n))
            rows[n] = {tuple(np.round(r, 12)) for r in poly.A}
        assert rows[1] <= rows[2] <= rows[3]

    def test_interior_point_strictly_positive(self, example3):
        poly = martingale_polytope(example3)
        zeta = poly.interior_point()
        assert float(np.min(zeta)) > 0.0
        assert poly.residual(zeta) < 1e-9

    def test_arbitrage_raises(self):
        poly = martingale_polytope(arbitrage_model())
        with pytest.raises(InfeasibleMarketError):
            find_interior(poly.A, poly.b)

    def test_gate_lp_point_matches_dense_block(self, request, monkeypatch):
        # The gate's point seeds the dual's entropy center, so the LP must
        # return exactly the point of its dense-block form; an equivalent
        # reformulation with the same optimum may return another point.
        lp_calls = []
        monkeypatch.setattr(dual, "linprog", lambda *a, **k: lp_calls.append(1) or linprog(*a, **k))
        used = 0
        for name in ("binom1", "example2", "example3", "bond_only_terminal", "bond_two_dates",
                     "two_period_terminal", "two_period_mid_clock", "trinomial", "duplicates"):
            A, b = full_polytope_matrices(request.getfixturevalue(name))
            n = A.shape[1]
            for center in (None, 10.0 * (-1.0) ** np.arange(n)):
                lp_calls.clear()
                x = find_interior(A, b, center=center)
                if lp_calls:
                    used += 1
                    assert np.array_equal(x, _dense_block_gate(A, b)), name
        assert used >= 6


def _dense_block_gate(A, b):
    """The gate's max-margin LP with its x_i >= t rows as one dense block."""
    n = A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.zeros((n, n + 1))
    np.fill_diagonal(a_ub, -1.0)
    a_ub[:, -1] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=np.hstack([A, np.zeros((A.shape[0], 1))]),
        b_eq=b,
        bounds=[(None, None)] * n + [(None, 1.0)],
        method="highs",
        options=dual._LP_OPTS,
    )
    return res.x[:-1]


def dead_root_bond_tree():
    """Bond-only tree with two dead roots (nodes 8 and 7)."""
    records = [(4, 0, None, 1.0), (2, 1, 4, 0.26359087), (6, 1, 4, 0.28200880),
               (7, 1, 4, 0.45440033), (0, 2, 2, 0.47534347), (8, 2, 2, 0.52465653),
               (3, 2, 6, 0.54791027), (9, 2, 6, 0.45208973), (1, 2, 7, 0.52078941),
               (5, 2, 7, 0.47921059)]
    dk = {2: 0.45002928, 6: 0.71960206, 0: 0.5}
    return build_tree({
        "nodes": [{"id": i, "t": t, "parent": p, "prob": q} for i, t, p, q in records],
        "prices": {i: [] for i, *_ in records},
        "clock": {i: dk.get(i, 0.0) for i, *_ in records},
        "A": 2.0,
        "n_active": 0,
    })


class TestSolveDual:
    def test_log_binomial_closed_form(self, binom1, log_field):
        sol = solve_dual(binom1, log_field, 1.0, 1e-10)
        assert sol.value == pytest.approx(-0.8516583, abs=1e-7)
        leaves = binom1.tree.leaves
        up = binom1.assets.prices[leaves, 0] == 2.0
        expect = np.where(up, 5 / 9, 5 / 3)
        np.testing.assert_allclose(sol.Z[leaves], expect, atol=1e-8)
        assert sol.Z[binom1.tree.root] == pytest.approx(1.0, abs=1e-10)
        assert not sol.attained_on_boundary

    def test_bond_only_equals_conjugate(self, bond_only_terminal, any_field):
        from dualitylab.utility import conjugate

        for y in (0.25, 1.0, 4.0):
            sol = solve_dual(bond_only_terminal, any_field, y, 1e-10)
            assert sol.value == pytest.approx(
                conjugate(any_field).eval(0, None, y), abs=1e-9
            )
            np.testing.assert_allclose(sol.Z, 1.0, atol=1e-7)

    def test_complete_market_no_optimization(self, binom1, any_field):
        # Singleton polytope: the value is a plain expectation under the
        # unique density, computable directly.
        from dualitylab.utility import conjugate

        cf = conjugate(any_field)
        leaves = binom1.tree.leaves
        probs = binom1.tree.path_prob[leaves]
        up = binom1.assets.prices[leaves, 0] == 2.0
        z = np.where(up, 5 / 9, 5 / 3)
        for y in (0.5, 2.0):
            expect = float(
                sum(p * cf.eval(1, None, y * zi) for p, zi in zip(probs, z))
            )
            sol = solve_dual(binom1, any_field, y, 1e-10)
            assert sol.value == pytest.approx(expect, abs=1e-8)

    def test_budget_identity_with_any_feasible_density(self, example2, log_field):
        # E[Z_T X_T + sum Z c dkappa] = x for every feasible density and the
        # exact wealth process; equality at the optimizer pair.
        from dualitylab.primal import solve_primal

        x = 1.0
        primal = solve_primal(example2, log_field, x, 1e-10)
        poly = martingale_polytope(example2)
        zeta = poly.interior_point()
        z = poly.to_node_values(zeta)
        tree = example2.tree
        dk = example2.clock.dkappa
        leaves = tree.leaves
        total = float(
            np.dot(tree.path_prob[leaves], z[leaves] * primal.X[leaves])
        ) + float(np.sum(tree.path_prob * dk * z * primal.c))
        assert total == pytest.approx(x, abs=1e-8)

    def test_value_decreasing_and_convex_in_y(self, example2, bounded_field):
        ys = np.geomspace(1e-2, 1e2, 16)
        warm = None
        vals = []
        for y in ys:
            sol = solve_dual(example2, bounded_field, float(y), 1e-9, warm_start=warm)
            warm = sol.zeta
            vals.append(sol.value)
        vals = np.array(vals)
        slopes = np.diff(vals) / np.diff(ys)
        assert np.all(slopes < 0.0)
        assert np.all(np.diff(slopes) >= -1e-7)

    def test_slope_flattens_at_large_y(self, example2, bounded_field):
        ys = np.array([20.0, 40.0, 80.0])
        vals = [solve_dual(example2, bounded_field, float(y), 1e-10).value for y in ys]
        s1 = (vals[1] - vals[0]) / (ys[1] - ys[0])
        s2 = (vals[2] - vals[1]) / (ys[2] - ys[1])
        assert abs(s2) < abs(s1)

    def test_monotone_in_truncation(self, example3, bounded_field):
        for y in (0.5, 1.0, 3.0):
            vals = [
                solve_dual(truncate(example3, n), bounded_field, y, 1e-10).value
                for n in (1, 2, 3)
            ]
            assert vals[0] <= vals[1] + 1e-7
            assert vals[1] <= vals[2] + 1e-7

    def test_scaling_consistency(self, example2, log_field, power_field):
        v1 = solve_dual(example2, log_field, 1.0, 1e-10).value
        v2 = solve_dual(example2, log_field, 3.0, 1e-10).value
        assert v2 == pytest.approx(v1 - math.log(3.0), abs=1e-9)
        w1 = solve_dual(example2, power_field, 1.0, 1e-10).value
        w2 = solve_dual(example2, power_field, 4.0, 1e-10).value
        assert w2 == pytest.approx(w1 * 4.0 ** (0.5 / (0.5 - 1.0)), abs=1e-9)

    def test_full_density_satisfies_polytope(self, two_period_mid_clock, bounded_field):
        poly = martingale_polytope(two_period_mid_clock)
        sol = solve_dual(two_period_mid_clock, bounded_field, 1.3, 1e-10)
        leaves = two_period_mid_clock.tree.leaves
        assert poly.contains(sol.Z[leaves], tol=1e-9)
        np.testing.assert_allclose(
            poly.to_node_values(sol.Z[leaves]), sol.Z, atol=1e-9
        )

    def test_density_extension_through_dead_subtrees(self, any_field):
        from conftest import binomial_two_period_partial_clock

        for flag in (True, False):
            model = binomial_two_period_partial_clock(up_subtree_only=flag)
            poly = martingale_polytope(model)
            sol = solve_dual(model, any_field, 1.3, 1e-10)
            leaves = model.tree.leaves
            assert poly.contains(sol.Z[leaves], tol=1e-9)
            assert sol.Z[model.tree.root] == pytest.approx(1.0, abs=1e-9)
            assert float(np.min(sol.Z)) > 0.0

    def test_boundary_flag_stays_false_on_corpus(self, example2, any_field):
        for y in (0.1, 1.0, 10.0):
            assert not solve_dual(example2, any_field, y, 1e-9).attained_on_boundary

    def test_warm_start_agrees(self, example3, bounded_field):
        cold = solve_dual(example3, bounded_field, 2.0, 1e-10)
        warm = solve_dual(example3, bounded_field, 2.0, 1e-10, warm_start=cold.zeta)
        assert warm.value == pytest.approx(cold.value, abs=1e-10)

    def test_scaling_cache_follows_weight_values(self, binom1):
        # The y = 1 reference solve is kept per model and field; mutating the
        # weights in place must not hand back the solution for the old weights.
        weights = {1: 2.0, 2: 0.5}
        field = UtilityField(family="log", weights=weights)
        solve_dual(binom1, field, 2.0)
        weights.clear()
        weights[1] = 4.0
        reused = solve_dual(binom1, field, 2.0)
        fresh = solve_dual(binom1, UtilityField(family="log", weights={1: 4.0}), 2.0)
        assert reused.value == pytest.approx(fresh.value, abs=1e-9)

    @pytest.mark.parametrize("field", [
        UtilityField(family="log"), UtilityField(family="power", gamma=0.5),
    ], ids=["log", "power"])
    def test_scaled_solves_count_their_own_newton_steps(self, field, monkeypatch):
        # The y = 1 reference is solved by the first call only, which reports
        # its steps; the later ones, y = 1 included, run no Newton step.
        model = binomial_model(3, 0.6, {1: 1.0 / 3.0, 2: 1.0 / 3.0, 3: 1.0 / 3.0})
        ran = []
        real = dual._barrier_solve

        def counted(*args):
            out = real(*args)
            ran.append(out[-1])
            return out

        monkeypatch.setattr(dual, "_barrier_solve", counted)
        steps = solve_dual(model, field, 2.0).iterations
        assert steps > 0
        assert [solve_dual(model, field, y).iterations for y in (0.5, 1.0, 3.0)] == [0, 0, 0]
        assert ran == [steps]

    def test_leaf_fallback_counts_both_attempts(self, example2, bounded_field, monkeypatch):
        # A one-period solve whose leaf attempt raises is re-solved in node
        # measures, and its count holds the steps of both attempts.
        with pytest.raises(ConvergenceError) as err:
            solve_dual(example2, bounded_field, 0.5, max_iter=3)
        assert err.value.iterations == 3
        ran = []
        real = dual._barrier_solve

        def leaf_fails(obj, *args):
            out = real(obj, *args)
            ran.append(out[-1])
            if not obj.in_nodes:
                raise ConvergenceError("leaf attempt refused", out[-1])
            return out

        monkeypatch.setattr(dual, "_barrier_solve", leaf_fails)
        sol = solve_dual(example2, bounded_field, 0.5)
        assert len(ran) == 2 and sol.iterations == sum(ran)

    @pytest.mark.parametrize("field", [
        UtilityField(family="log"), UtilityField(family="power", gamma=0.5),
    ], ids=["log", "power"])
    def test_solves_at_one_read_the_kept_reference(self, field, monkeypatch):
        model = binomial_model(3, 0.6, {1: 1.0 / 3.0, 2: 1.0 / 3.0, 3: 1.0 / 3.0})
        ran = []
        real = dual._barrier_solve
        monkeypatch.setattr(dual, "_barrier_solve", lambda *args: ran.append(1) or real(*args))
        first, again = solve_dual(model, field, 1.0), solve_dual(model, field, 1.0)
        assert ran == [1]
        assert first.iterations > 0 and again.iterations == 0
        for name in ("Z", "zeta", "value", "attained_on_boundary"):
            assert np.array_equal(getattr(first, name), getattr(again, name)), name

    def test_tight_tolerance_with_dead_roots(self, log_field):
        # Each dead coordinate keeps a barrier floor, and the floors enter
        # the certified gap; a fixed floor of 1e-10 left a gap of 3.56e-10.
        model = dead_root_bond_tree()
        assert int(build_geometry(model).dead_root_mask.sum()) == 2
        sol = solve_dual(model, log_field, 1e-3, 1e-10)
        ref = solve_dual(model, log_field, 1e-3, 1e-8)
        assert sol.value == pytest.approx(ref.value, rel=1e-7)

    def test_redundant_assets_match_single_asset(self, log_field, bounded_field):
        # Trading the asset twice repeats every pricing row; a consumption
        # date inside the tree puts the solve in node measures, which must
        # drop the copies rather than fail to factorize.
        one = binomial_model(2, 0.6, {1: 0.5, 2: 0.5})
        two = binomial_model(2, 0.6, {1: 0.5, 2: 0.5}, copies=2)
        for field in (log_field, bounded_field):
            v1 = solve_dual(one, field, 1.3, 1e-10).value
            v2 = solve_dual(two, field, 1.3, 1e-10).value
            assert v2 == pytest.approx(v1, abs=1e-12)

    def test_errors(self, binom1, log_field):
        with pytest.raises(DualityLabError):
            solve_dual(binom1, log_field, 0.0)
        with pytest.raises(InfeasibleMarketError):
            solve_dual(arbitrage_model(), log_field, 1.0)
        with pytest.raises(DualityLabError):
            solve_dual(binom1, UtilityField(family="affine-test"), 1.0)


def _node_margin(model):
    """Smallest, over the nodes, of the largest min_c q_c of a one-step
    martingale measure q on the node's children; -inf when one has none."""
    tree = model.tree
    na = model.n_active
    prices = model.assets.prices
    margin = 1.0
    for k in np.flatnonzero(~tree.is_leaf):
        kids = np.flatnonzero(tree.parent == k)
        n = kids.size
        # max t  s.t.  sum_c q_c (S_c - S_k) = 0,  sum_c q_c = 1,  q_c >= t
        a_eq = np.vstack([(prices[kids, :na] - prices[k, :na]).T, np.ones((1, n))])
        res = linprog(
            np.append(np.zeros(n), -1.0),
            A_ub=np.hstack([-np.eye(n), np.ones((n, 1))]),
            b_ub=np.zeros(n),
            A_eq=np.hstack([a_eq, np.zeros((na + 1, 1))]),
            b_eq=np.append(np.zeros(na), 1.0),
            bounds=[(None, None)] * (n + 1),
            method="highs",
        )
        margin = min(margin, res.x[-1] if res.status == 0 else -math.inf)
    return margin


class TestGate:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_models(), random_models(martingale=True)))
    def test_density_or_checkable_arbitrage(self, model):
        # Either a strictly positive density on the constraints of both
        # builders, or a node whose one-period market the error's holdings
        # arbitrage: gains nonnegative at every child and positive at one.
        tree, na, prices = model.tree, model.n_active, model.assets.prices
        try:
            z = ensure_full_density(build_geometry(model))
        except InfeasibleMarketError as err:
            assert _node_margin(model) < 1e-2
            k = tree.index_of[err.node]
            assert not tree.is_leaf[k]
            kids = np.flatnonzero(tree.parent == k)
            gains = (prices[kids, :na] - prices[k, :na]) @ err.holdings
            level = np.abs(prices[np.append(kids, k), :na]).max()
            assert gains.min() >= -1e-12 * level
            assert gains.max() > 0.0
            return
        assert float(np.min(z)) > 0.0
        nodes = np.arange(tree.n_nodes)
        N, b, _ = node_system(model, nodes, node_markets(model, nodes, ~tree.is_leaf))
        assert np.max(np.abs(N @ (tree.path_prob * z) - b)) <= 1e-12
        assert martingale_polytope(model).contains(z[tree.leaves], 1e-12)

    def test_arbitrage_model_names_the_root(self):
        with pytest.raises(InfeasibleMarketError) as info:
            ensure_full_density(build_geometry(arbitrage_model()))
        assert info.value.node == 0
        assert info.value.holdings.tolist() == [1.0]


def _consuming_inner_partial_clock():
    """The up-subtree partial-clock tree with consumption at the up node too,
    so that its dual takes node measures and extends below a dead root."""
    spec = model_to_dict(binomial_two_period_partial_clock(up_subtree_only=True))
    spec["clock"]["1"] = 0.5
    spec["A"] = 1.5
    return build_tree(spec)


def _terminal_clock_dead_leaf():
    """A three-period terminal-clock binomial whose last leaf consumes
    nothing, so that it is a dead root."""
    spec = model_to_dict(binomial_model(3, 0.6, {3: 1.0}))
    spec["clock"][spec["nodes"][-1]["id"]] = 0.0
    return build_tree(spec)


@pytest.mark.parametrize("model, node_dual", [
    pytest.param(lambda: binomial_model(1, 0.6, {1: 1.0}), False, id="one-period"),
    pytest.param(lambda: binomial_model(8, 0.6, {t: 0.125 for t in range(1, 9)}), True,
                 id="spread8"),
    pytest.param(lambda: binomial_two_period_partial_clock(True), True, id="partial-up"),
    pytest.param(lambda: binomial_two_period_partial_clock(False), True, id="partial-mid"),
    pytest.param(_consuming_inner_partial_clock, True, id="partial-inner"),
    pytest.param(lambda: binomial_model(2, 0.6, {2: 1.0}), True, id="two-period-terminal"),
    pytest.param(lambda: binomial_model(12, 0.6, {12: 1.0}), True, id="twelve-period-terminal"),
    pytest.param(_terminal_clock_dead_leaf, True, id="terminal-dead-leaf"),
])
def test_no_dense_system_outside_the_leaf_dual(monkeypatch, log_field, model, node_dual):
    # The gate, the primal, the dual of every multi-period tree and both
    # prices work on node-local and sparse structures only; the dense leaf
    # system serves only one-period trees where only the leaves consume.
    model = model()
    geo = build_geometry(model)
    leaf_dual = model.tree.horizon == 1 and geo.eff_mask[geo.consuming].all()
    assert leaf_dual != node_dual

    def refuse(*args, **kwargs):
        raise AssertionError("dense density system built")

    for module in (treeops, dual, harness):
        monkeypatch.setattr(module, "full_polytope_matrices", refuse)
    solve_primal(model, log_field, 1.0)
    if node_dual:
        sol = solve_dual(model, log_field, 1.0)
        assert float(np.min(sol.Z)) > 0.0
        assert "node_kkt" in model._memo  # solved in node measures
    rates = np.where(model.clock.dkappa > 0.0, 1.0, 0.0)
    price = superreplication_price(model, rates).price
    assert dual_superrep_price(model, rates) == pytest.approx(price, abs=1e-8)


def test_fourteen_period_terminal_clock_dual_returns(log_field):
    # 32,767 nodes: its dense leaf system would hold 268,435,456 entries,
    # beyond the dense-entry guard, while node measures are sparse.  The
    # market is complete with risk-neutral up-probability 1/3, so
    # v(1) = E[-log Z - 1] in closed form.
    p, q = 0.6, 1.0 / 3.0
    model = binomial_model(14, p, {14: 1.0})
    sol = solve_dual(model, log_field, 1.0)
    e_log_z = 14 * (p * math.log(q / p) + (1 - p) * math.log((1 - q) / (1 - p)))
    assert sol.value == pytest.approx(-1.0 - e_log_z, rel=1e-12)
    assert float(np.min(sol.Z)) > 0.0


RANDOM_TREE_FIELDS = {
    "log": UtilityField(family="log"),
    "power": UtilityField(family="power", gamma=-1.0),
    "bounded": UtilityField(family="bounded", alpha=0.5, beta=2.0),
}


class TestRandomTrees:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)),
        st.sampled_from(sorted(RANDOM_TREE_FIELDS)),
    )
    def test_certified_density_and_convex_value(self, model, family):
        # A market is arbitrage-free exactly when every one-period submarket
        # is; draws within 1e-2 of that boundary may go either way.
        margin = _node_margin(model)
        ys = (1e-2, 1.0, 1e2)
        try:
            sols = [solve_dual(model, RANDOM_TREE_FIELDS[family], y, 1e-10) for y in ys]
        except InfeasibleMarketError:
            assert margin < 1e-2
            return
        assert margin > 1e-9
        poly = martingale_polytope(model)
        leaves = model.tree.leaves
        for sol in sols:
            assert float(np.min(sol.Z)) > 0.0
            assert poly.contains(sol.Z[leaves], tol=1e-9)
        v = [sol.value for sol in sols]
        assert v[0] > v[1] > v[2]
        slopes = np.diff(v) / np.diff(ys)
        assert slopes[0] <= slopes[1] + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)).filter(
            lambda model: model.tree.horizon > 1
        ),
        st.sampled_from([(1e-2, 1.0), (1.0, 1e2), (1e2, 1e-2)]),
    )
    def test_node_measure_warm_start(self, model, ys):
        # A multi-period dual solves in node measures: a warm start from the
        # zeta of a solve at another y enters as the node measures of that
        # density, and lands where a cold solve does.  The bounded field has
        # no scaling law, so each y is its own solve.
        field, tol = RANDOM_TREE_FIELDS["bounded"], 1e-10
        try:
            seed = solve_dual(model, field, ys[0], tol)
        except InfeasibleMarketError:
            assert _node_margin(model) < 1e-2
            return
        cold = solve_dual(model, field, ys[1], tol)
        with mock.patch.object(dual, "_barrier_solve", wraps=dual._barrier_solve) as spy:
            warm = solve_dual(model, field, ys[1], tol, warm_start=seed.zeta)
        assert spy.call_count == 1
        obj, q = spy.call_args.args[:2]
        assert obj.in_nodes
        tree, geo = model.tree, obj.geo
        start = tree.path_prob * node_values(tree, geo.solve_leaves, seed.zeta)
        assert np.array_equal(q, start[geo.trimmed])
        assert abs(warm.value - cold.value) <= 2 * tol * (1.0 + abs(cold.value))

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)),
        st.integers(0, 2**32 - 1),
    )
    def test_warm_start_off_the_polytope_is_repaired(self, model, seed):
        # A density pushed off the rows, and negative at some leaves, is
        # projected onto them and pulled toward the gate's measure: a strictly
        # positive point on the rows.  In node measures a solve from it lands
        # where a cold one does.
        field, tol, y = RANDOM_TREE_FIELDS["bounded"], 1e-10, 1.0
        geo = build_geometry(model)
        try:
            gate = ensure_full_density(geo)
        except InfeasibleMarketError:
            assert _node_margin(model) < 1e-2
            return
        rng = np.random.default_rng(seed)
        leaves = geo.solve_leaves
        zeta = gate[leaves] * rng.lognormal(0.0, 1.0, leaves.size)
        zeta[rng.random(leaves.size) < 0.3] *= -1.0
        obj = dual._DualObjective(geo, field, y)
        q = dual._repair_start(obj, obj.measures(zeta))
        assert q is not None and float(np.min(q)) > 0.0
        A, b, _ = obj.constraints()
        scale = float(np.max(abs(A) @ q)) + float(np.max(np.abs(b)))
        assert float(np.max(np.abs(A @ q - b))) <= 1e-12 * scale
        if obj.in_nodes:
            cold = solve_dual(model, field, y, tol)
            warm = solve_dual(model, field, y, tol, warm_start=zeta)
            assert abs(warm.value - cold.value) <= tol * (2.0 + abs(warm.value) + abs(cold.value))


# A 9-node martingale tree whose root has two children with collinear price
# changes: the trimmed leaf system has 7 rows of rank 6, and its Gram matrix a
# condition number near 1e18.
COLLINEAR_CHILDREN = {
    "nodes": [
        {"id": 7, "t": 0, "parent": None},
        {"id": 3, "t": 1, "parent": 7, "prob": 0.6063170161744855},
        {"id": 4, "t": 1, "parent": 7, "prob": 0.3936829838255145},
        {"id": 0, "t": 2, "parent": 4, "prob": 0.39008192506319084},
        {"id": 1, "t": 2, "parent": 4, "prob": 0.3648333795670023},
        {"id": 2, "t": 2, "parent": 3, "prob": 0.26647037534073326},
        {"id": 5, "t": 2, "parent": 3, "prob": 0.3491230978219958},
        {"id": 6, "t": 2, "parent": 4, "prob": 0.24508469536980684},
        {"id": 8, "t": 2, "parent": 3, "prob": 0.384406526837271},
    ],
    "prices": {
        "7": [2.5872506009396665, 2.709943238519612],
        "3": [3.1364005057862423, 2.74044319032311],
        "4": [1.160958759724302, 2.630726558281919],
        "0": [2.611015814731096, 1.7306937241414815],
        "1": [0.7257142671342971, 2.848359694303124],
        "2": [3.1058373437196565, 3.393163964248178],
        "5": [3.2641031812540575, 2.1243351713063063],
        "6": [0.858981604221328, 2.8818135176160657],
        "8": [3.050192756735322, 2.6327263543286934],
    },
    "clock": {"7": 0.0, "3": 0.0, "4": 0.0, "0": 1.0, "1": 1.0, "2": 1.0, "5": 1.0,
              "6": 1.0, "8": 1.0},
    "A": 2.0,
    "n_active": 2,
}


def test_nearly_dependent_rows_keep_the_density_on_the_polytope(bounded_field):
    # The polytope is a single point.  The solve must keep the density on
    # the constraints rather than return that point's neighbour, whose value
    # is 7.6% too high.
    model = build_tree(COLLINEAR_CHILDREN)
    poly = martingale_polytope(model)
    leaves = model.tree.leaves
    for y in (1e-2, 1.0, 1e2):
        sol = solve_dual(model, bounded_field, y, 1e-10)
        assert poly.residual(sol.Z[leaves]) <= 1e-12
        if y == 1.0:
            assert sol.value == pytest.approx(1.058700480496, abs=1e-11)


# Nodes 4 and 10 each have two children with collinear price changes, and the
# polytope is one point.  The entropy centre's walk ended 0.06 off the
# constraints there, and no node-measure solve started from it certified.
SINGLETON_SPREAD = {
    "nodes": [{"id": 0, "t": 0, "parent": None}] + [
        {"id": nid, "t": t, "parent": pid, "prob": p} for nid, t, pid, p in [
            (1, 1, 0, 0.16196002412051635), (4, 1, 0, 0.44955043676677875),
            (10, 1, 0, 0.3884895391127048), (2, 2, 1, 0.20127039976828495),
            (3, 2, 4, 0.6033332807337349), (5, 2, 1, 0.4002133353012166),
            (6, 2, 4, 0.396666719266265), (7, 2, 10, 0.47151886477062066),
            (8, 2, 1, 0.3985162649304984), (9, 2, 10, 0.5284811352293793)]
    ],
    "prices": {
        0: [2.707749844314052, 2.356414893217424], 1: [2.6044661745488327, 2.152703563132138],
        4: [2.578319504082137, 2.3853074490171338], 10: [3.136743056197372, 2.643473010312676],
        2: [1.8561452143190929, 1.2754120736625918], 3: [1.8736971685255503, 3.9758024472192877],
        5: [3.9179833671038184, 3.2992749846026266], 6: [3.082212357005396, 1.247905153117454],
        7: [3.8686549265552803, 3.3409087468821443], 8: [0.6978684889737288, 0.7242084830062274],
        9: [1.3575776813833218, 0.9481138230712535],
    },
    "clock": {nid: (0.0 if nid == 0 else 0.5) for nid in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)},
    "A": 2.0,
    "n_active": 2,
}


@pytest.mark.parametrize("family", sorted(RANDOM_TREE_FIELDS))
def test_singleton_polytope_with_collinear_children_certifies(family):
    model = build_tree(SINGLETON_SPREAD)
    poly = martingale_polytope(model)
    for y in (0.3, 1.0, 3.0):
        sol = solve_dual(model, RANDOM_TREE_FIELDS[family], y, 1e-10)
        assert poly.residual(sol.Z[model.tree.leaves]) <= 1e-12


def _node_step_system(model):
    """(geo, A, kkt): the node-measure constraint matrix, dense, and its
    Newton-step solver, on any model that passes the gate."""
    geo = build_geometry(model)
    ensure_full_density(geo)
    A, _, kkt = dual._DualObjective(geo, RANDOM_TREE_FIELDS["log"], 1.0, geo.trimmed).constraints()
    return geo, A.toarray(), kkt


def _check_node_step(A, kkt, q, r, g, h, dense=True):
    """The step and multipliers solve [[diag h, At'], [At, 0]] with At = A diag(q):
    both block rows hold to 1e-10 of their normwise scale |K| |x| + |rhs| in
    the max norm (the median draw reaches 1e-16, rare ones 1e-11, where one
    child's curvature is 1e-16 beside a sibling's near 1).  With ``dense``,
    np.linalg.lstsq on the symmetrically equilibrated matrix agrees to its
    condition number times rounding, wherever that leaves digits."""
    du, lam2, nu = kkt.solve(q, r, g, h)
    At = A * q
    feas = np.abs(At @ du - r).max()
    assert feas <= 1e-10 * (np.abs(At).sum(axis=1).max() * np.abs(du).max() + np.abs(r).max())
    stat = np.abs(h * du + At.T @ nu + g).max()
    assert stat <= 1e-10 * (h.max() * np.abs(du).max() + np.abs(At).sum(axis=0).max()
                            * np.abs(nu).max() + np.abs(g).max())
    assert lam2 == pytest.approx(float(np.dot(du, h * du)), rel=1e-12)
    if not dense:
        return du

    m, n = A.shape
    K = np.block([[np.diag(h), At.T], [At, np.zeros((m, m))]])
    d = np.ones(n + m)
    for _ in range(20):  # Ruiz scaling: every row and column of d K d near unit size
        d /= np.sqrt(np.abs(K * d[:, None] * d[None, :]).max(axis=1))
    sol, _, _, sv = np.linalg.lstsq(K * d[:, None] * d[None, :], d * np.append(-g, r), rcond=None)
    cond = sv[0] / sv[-1]
    if cond < 1e10:
        err = np.abs(np.append(du, nu) / d - sol).max()
        assert err <= 1e-12 * cond * (np.abs(sol).max() + np.abs(d * np.append(g, r)).max())
    return du


class TestNodeStep:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_models(), random_models(martingale=True)),
           st.integers(0, 2**32 - 1))
    def test_matches_the_dense_kkt_solve(self, model, seed):
        # Random trees bring inner-date consumption, dead roots, one-child
        # nodes and assets a node cannot trade apart (a partial ``keep``).
        try:
            geo, A, kkt = _node_step_system(model)
        except InfeasibleMarketError:
            return
        rng = np.random.default_rng(seed)
        n = A.shape[1]
        h = 10.0 ** rng.uniform(-16.0, 0.0, n)
        # As in the solver, an inner node that does not consume has no curvature.
        h[geo.internal_mask[geo.trimmed] & ~geo.consuming[geo.trimmed]] = 0.0
        _check_node_step(A, kkt, 10.0 ** rng.uniform(-3.0, 0.0, n),
                         rng.standard_normal(A.shape[0]), rng.standard_normal(n), h)

    @pytest.mark.parametrize("model", [
        pytest.param(lambda: binomial_model(2, 0.6, {1: 0.5, 2: 0.5}, copies=2), id="copies"),
        pytest.param(_consuming_inner_partial_clock, id="dead-root"),
        pytest.param(lambda: build_tree(SINGLETON_SPREAD), id="collinear"),
    ])
    def test_fixed_trees_match_the_dense_kkt_solve(self, model):
        _, A, kkt = _node_step_system(model())
        rng = np.random.default_rng(7)
        n = A.shape[1]
        for _ in range(5):
            _check_node_step(A, kkt, 10.0 ** rng.uniform(-3.0, 0.0, n),
                             rng.standard_normal(A.shape[0]), rng.standard_normal(n),
                             10.0 ** rng.uniform(-16.0, 0.0, n))

    def test_complete_tree_step_stays_at_rounding_size(self):
        # A complete node has no direction outside its block's range; taking
        # one from the range there would cancel |g| / sqrt(h) ~ 1e16 down to
        # the constraints' size, and miss them by O(1).
        model = binomial_model(4, 0.6, {t: 0.25 for t in range(1, 5)})
        geo, A, kkt = _node_step_system(model)
        q = (model.tree.path_prob * ensure_full_density(geo))[geo.trimmed]
        rng = np.random.default_rng(3)
        n = A.shape[1]
        g = 1e8 * rng.standard_normal(n)
        h = 10.0 ** rng.uniform(-16.0, 0.0, n)
        r = np.append(1.0, np.zeros(A.shape[0] - 1)) - A @ q
        du = _check_node_step(A, kkt, q, r, g, h, dense=False)
        assert np.abs(q * du).max() <= 1e-14


SINGLETON_MODELS = {
    "binom1": lambda: build_example_market(ExampleMarketSpec(1, (0.6,))),
    "collinear": lambda: build_tree(SINGLETON_SPREAD),
    "binomial4-inner": lambda: binomial_model(4, 0.6, {t: 0.25 for t in range(1, 5)}),
}


class TestSingletonPolytope:
    # A tree with no free direction has one density: the gate's.  Its dual
    # runs only the final, certified barrier stage, whose first Newton step
    # is already below the stage's tolerance.
    @pytest.mark.parametrize("family", sorted(RANDOM_TREE_FIELDS))
    @pytest.mark.parametrize("name", sorted(SINGLETON_MODELS))
    def test_one_newton_step_at_the_gates_density(self, name, family):
        model = SINGLETON_MODELS[name]()  # fresh: no kept reference
        field = RANDOM_TREE_FIELDS[family]
        geo = build_geometry(model)
        z = ensure_full_density(geo)
        cons = np.flatnonzero(model.clock.dkappa > 0.0)
        coef = model.tree.path_prob[cons] * model.clock.dkappa[cons]
        for y in (0.3, 2.0):
            sol = solve_dual(model, field, y, 1e-10)
            if y == 0.3 or field.degree is None:  # log and power read the y = 0.3 solve
                assert sol.iterations == 1
            expect = float(np.dot(coef, field.base().v(y * z[cons])))
            assert sol.value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("family", sorted(RANDOM_TREE_FIELDS))
    def test_incomplete_tree_keeps_the_barrier_continuation(self, family):
        # example2's polytope is a segment; its solve steps through every
        # barrier stage, 9 Newton steps as before the singleton rule.
        model = build_example_market(ExampleMarketSpec(2, (0.6, 0.7)))
        assert solve_dual(model, RANDOM_TREE_FIELDS[family], 0.5).iterations == 9


class TestDualOverMeasures:
    @pytest.mark.parametrize("y", [0.05, 0.4, 1.0, 6.0])
    def test_matches_solve_dual_binomial(self, binom1, log_field, y):
        a = solve_dual(binom1, log_field, y, 1e-10).value
        b = dual_over_measures(binom1, log_field, y)
        assert a == pytest.approx(b, abs=1e-8)

    def test_matches_on_incomplete_markets(self, example2, trinomial, any_field):
        for model in (example2, trinomial):
            for y in (0.3, 1.0, 2.5):
                a = solve_dual(model, any_field, y, 1e-10).value
                b = dual_over_measures(model, any_field, y)
                assert a == pytest.approx(b, abs=1e-8)

    def test_matches_on_mid_clock_tree(self, two_period_mid_clock, bounded_field):
        for y in (0.5, 1.7):
            a = solve_dual(two_period_mid_clock, bounded_field, y, 1e-10).value
            b = dual_over_measures(two_period_mid_clock, bounded_field, y)
            assert a == pytest.approx(b, abs=1e-8)

    def test_boundary_candidates_use_finite_right_limit(self, bounded_field):
        # The bounded conjugate is finite at 0, so densities may park mass
        # at zero without blowing the objective up.
        base = bounded_field.base()
        assert math.isfinite(float(base.v(0.0)))
        assert float(base.v(0.0)) == pytest.approx(base.sup_u)


@pytest.mark.xfail(
    raises=ConvergenceError,
    reason="tiny leaf probabilities on a terminal-clock tree: the node-measure "
    "solve drifts 2.33e-10 and 5.59e-9 off the density constraints, which the "
    "projection back cannot repair (ROADMAP item 3)",
)
@pytest.mark.parametrize(
    "periods, p, family",
    [(2, 0.999999, "bounded"), (4, 0.999, "log")],
    ids=["two-period-bounded", "four-period-log"],
)
def test_tiny_leaf_probability_terminal_clock(periods, p, family, bounded_field, log_field):
    field = {"bounded": bounded_field, "log": log_field}[family]
    model = binomial_model(periods, p, {periods: 1.0})
    sol = solve_dual(model, field, 1.0)
    assert martingale_polytope(model).contains(sol.Z[model.tree.leaves])
