import csv
import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dualitylab import dual, harness, treeops
from dualitylab.dual import solve_dual
from dualitylab.errors import ConvergenceError, DualityLabError, InfeasibleMarketError
from dualitylab.harness import (
    ValueCurves,
    bounded_threshold,
    conjugacy_check,
    convergence_summary,
    curve_shape_checks,
    default_grid,
    dual_superrep_price,
    example_portfolio_study,
    min_conjugate_over_y,
    optimality_relations_check,
    pair_solutions,
    superreplication_price,
    terminal_payoff_claim,
    unit_terminal_claim,
    value_convergence_study,
    write_convergence_csv,
    write_example_csv,
    write_series,
)
from dualitylab.market import (
    ExampleMarketSpec,
    build_example_market,
    build_tree,
    quotient,
    truncate,
)
from dualitylab.primal import admissibility_check, solve_primal
from dualitylab.treeops import wealth_from_strategy
from dualitylab.utility import UtilityField, node_weights

from conftest import arbitrage_model, binomial_model
from test_dual import _node_margin
from test_treeops import random_models, ref_cumulative, ref_rows

U1 = 0.14834174943487516   # log binomial value at p = 0.6, x = 1
V1 = -1.0 - (-U1)          # its conjugate value at y = 1


def analytic_log_curves(x_grid, y_grid):
    """Exact value curves of the one-asset p=0.6 log market."""
    u = U1 + np.log(x_grid)
    v = V1 - np.log(y_grid)
    return ValueCurves(x_grid=x_grid, y_grid=y_grid, n_values=[1], u=[u], v=[v])


class TestConjugacyCheck:
    def test_exact_pair_within_resolution(self):
        grid = np.geomspace(1e-2, 1e2, 17)  # includes 1.0 exactly
        report = conjugacy_check(analytic_log_curves(grid, grid), tol=1e-9)
        assert report.passed
        assert np.all(report.gaps_v >= -1e-12)
        assert np.all(report.gaps_u >= -1e-12)

    def test_perturbation_detected(self):
        grid = np.geomspace(1e-2, 1e2, 17)
        clean = conjugacy_check(analytic_log_curves(grid, grid), tol=1e-9)
        curves = analytic_log_curves(grid, grid)
        curves.v = curves.v + 0.01
        bumped = conjugacy_check(curves, tol=1e-9)
        shift = bumped.gaps_v - clean.gaps_v
        np.testing.assert_allclose(shift, 0.01, atol=1e-12)
        assert bumped.worst_gap >= 0.01
        # A downward shift breaks weak duality and must fail the check.
        curves_down = analytic_log_curves(grid, grid)
        curves_down.v = curves_down.v - 0.01
        assert not conjugacy_check(curves_down, tol=1e-9).passed

    def test_solver_curves_match_analytic(self, binom1, log_field):
        grid = np.geomspace(1e-1, 1e1, 9)
        u = np.array([solve_primal(binom1, log_field, float(x), 1e-10).value for x in grid])
        v = np.array([solve_dual(binom1, log_field, float(y), 1e-10).value for y in grid])
        curves = ValueCurves(x_grid=grid, y_grid=grid, n_values=[1], u=[u], v=[v])
        assert conjugacy_check(curves, tol=1e-8).passed


class TestRefinedConjugacy:
    def test_log_binomial(self, binom1, log_field):
        value, y_star = min_conjugate_over_y(binom1, log_field, 1.0, tol=1e-10)
        assert value == pytest.approx(U1, abs=1e-7)
        assert y_star == pytest.approx(1.0, abs=1e-4)

    def test_all_families(self, binom1, any_field):
        u1 = solve_primal(binom1, any_field, 1.0, 1e-10).value
        value, _ = min_conjugate_over_y(binom1, any_field, 1.0, tol=1e-10)
        assert value == pytest.approx(u1, abs=1e-8)


class TestOptimalityRelations:
    def test_log_binomial_exact(self, binom1, log_field):
        primal, dual, y = pair_solutions(binom1, log_field, 1.0, tol=1e-10)
        assert y == pytest.approx(1.0, abs=1e-6)
        report = optimality_relations_check(primal, dual, tol=1e-6)
        assert report.passed
        assert report.worst_marginal_rel < 1e-7
        assert report.budget_value == pytest.approx(1.0 * y, rel=1e-10)

    def test_two_date_bond_identity(self, bond_two_dates, log_field):
        primal, dual, y = pair_solutions(bond_two_dates, log_field, 1.0, tol=1e-10)
        report = optimality_relations_check(primal, dual, tol=1e-6)
        assert report.passed
        assert report.budget_value == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(dual.Z, 1.0, atol=1e-8)

    def test_mismatched_pair_detected(self, binom1, log_field):
        primal = solve_primal(binom1, log_field, 1.0, 1e-10)
        wrong = solve_dual(binom1, log_field, 2.0, 1e-10)
        report = optimality_relations_check(primal, wrong, y=2.0, tol=1e-6)
        assert not report.marginal_ok

    def test_budget_identity_marginal_matches_difference_quotient(
        self, example2, log_field
    ):
        from dualitylab.harness import marginal_value_estimate

        primal = solve_primal(example2, log_field, 1.3, 1e-10)
        fd = marginal_value_estimate(example2, log_field, 1.3, 1e-10)
        assert primal.y_estimate == pytest.approx(fd, rel=1e-7)

    def test_weighted_field_relations(self, binom1, weighted_log_field):
        primal, dual, y = pair_solutions(binom1, weighted_log_field, 1.0, tol=1e-10)
        report = optimality_relations_check(primal, dual, tol=1e-6)
        assert report.passed

    def test_weight_keys_read_once_against_the_whole_tree(self):
        # Ids "1" and 1 both name nodes, so the key "1" names node "1" alone,
        # as it would in the price and clock maps; both solvers and the check
        # must read the same weights.
        model = mixed_id_model()
        field = UtilityField(family="log", weights={"1": 2.0})
        index = model.tree.index_of
        w = node_weights(model, field)
        assert (w[index["1"]], w[index[1]]) == (2.0, 1.0)
        # The pointwise API sees one node, never the tree, so there the key
        # "1" names node 1 too.
        assert (field.weight("1"), field.weight(1)) == (2.0, 2.0)
        primal, dual, y = pair_solutions(model, field, 1.0)
        report = optimality_relations_check(primal, dual, tol=1e-6)
        assert abs(primal.value - dual.value - y) <= 1e-6
        assert report.worst_marginal_rel <= 1e-6


    @pytest.mark.xfail(
        reason="solve_dual accepts the Lagrangian gap at an iterate that is "
        "off the equality constraints; the projection back onto them after "
        "certification then leaves |u - v - xy| at 5.7e-6, and the marginal "
        "relation reads 0.456 at node 1023",
    )
    def test_certified_pair_on_ten_asset_ladder(self, bounded_field):
        spec = ExampleMarketSpec(10, tuple(0.55 + 0.04 * i for i in range(10)))
        model = build_example_market(spec)
        x = 0.12
        primal, dual, y = pair_solutions(model, bounded_field, x, tol=1e-8)
        report = optimality_relations_check(primal, dual, tol=1e-6)
        assert abs(primal.value - dual.value - x * y) <= 1e-6
        assert report.marginal_ok

    def test_bounded_pair_runs_no_seeding_lp(self, bounded_field, monkeypatch):
        # On this incomplete five-asset ladder the least-norm shift of the
        # physical measure leaves the orthant, so a cold dual would run
        # find_interior's LP; the pair's dual starts from the primal's plan.
        model = build_example_market(ExampleMarketSpec(5, (0.55, 0.59, 0.63, 0.67, 0.71)))
        A, b, prob = dual._measure_system(treeops.build_geometry(model))
        assert np.min(prob + A.T @ np.linalg.solve(A @ A.T, b - A @ prob)) <= 0.0

        def refuse(*args, **kwargs):
            raise AssertionError("the pair ran find_interior")

        monkeypatch.setattr(dual, "find_interior", refuse)
        primal, sol, y = pair_solutions(model, bounded_field, 1.0)
        assert dual.martingale_polytope(model).contains(sol.Z[model.tree.leaves])
        assert abs(primal.value - sol.value - y) <= 1e-6

    @pytest.mark.parametrize("family", ["bounded", "log", "power"])
    @pytest.mark.parametrize("clock", ["terminal", "spread"])
    @pytest.mark.parametrize("p", [0.6, 0.9, 0.99])
    @pytest.mark.parametrize("periods", [4, 8, 10])
    def test_skewed_binomial_pair(self, periods, p, clock, family, log_field, power_field,
                                  bounded_field):
        # On the skewed trees the rarest leaves consume below the wealth's
        # rounding (5.1e-17 on eight periods at p = 0.9 under power 0.5), so
        # the primal's cold start must keep the density plan's own spend.
        dk = {periods: 1.0} if clock == "terminal" else dict.fromkeys(range(1, periods + 1),
                                                                      1.0 / periods)
        field = {"log": log_field, "power": power_field, "bounded": bounded_field}[family]
        primal, dual, y = pair_solutions(binomial_model(periods, p, dk), field, 1.0, tol=1e-8)
        assert optimality_relations_check(primal, dual, tol=1e-6).marginal_ok
        assert abs(primal.value - dual.value - y) <= 1e-6


def mixed_id_model():
    """Two-period binomial (moves 2 and 1/2, p = 1/2, clock 1/2 at t = 1, 2)
    whose ids mix strings and ints: node "1" at t = 1 and node 1 at t = 2."""
    nodes = [{"id": 0, "t": 0, "parent": None}]
    prices = {0: [1.0], "a": [2.0], "1": [0.5]}
    for nid, parent in (("a", 0), ("1", 0)):
        nodes.append({"id": nid, "t": 1, "parent": parent, "prob": 0.5})
    for nid, parent, move in ((1, "a", 2.0), (2, "a", 0.5), (3, "1", 2.0), (4, "1", 0.5)):
        nodes.append({"id": nid, "t": 2, "parent": parent, "prob": 0.5})
        prices[nid] = [prices[parent][0] * move]
    clock = {node["id"]: 0.0 if node["t"] == 0 else 0.5 for node in nodes}
    return build_tree({"nodes": nodes, "prices": prices, "clock": clock, "A": 1.0,
                       "n_active": 1})


WEIGHTED_FAMILIES = {"log": {}, "power": {"gamma": -1.0},
                     "bounded": {"alpha": 0.5, "beta": 2.0}}


@settings(max_examples=25, deadline=None)
@given(random_models(martingale=True), st.sampled_from(sorted(WEIGHTED_FAMILIES)),
       st.integers(0, 2**32 - 1))
def test_weighted_pair_on_random_trees(model, family, seed):
    # Random per-node weights, some keyed by the id's string as JSON keys it.
    rng = np.random.default_rng(seed)
    weights = {}
    for nid in model.tree.ids:
        if rng.random() < 0.5:
            key = str(nid) if rng.random() < 0.5 else nid
            weights[key] = float(rng.uniform(0.25, 4.0))
    field = UtilityField(family=family, weights=weights or None, **WEIGHTED_FAMILIES[family])
    primal, dual, y = pair_solutions(model, field, 1.0)
    assert abs(primal.value - dual.value - y) <= 1e-6


class TestSuperreplication:
    def test_unit_terminal_claim_bond_only(self, bond_only_terminal):
        claim = unit_terminal_claim(bond_only_terminal)
        res = superreplication_price(bond_only_terminal, claim)
        assert res.price == pytest.approx(1.0, abs=1e-9)

    def test_stock_claim_replicated_by_one_share(self, binom1):
        payoff = binom1.assets.prices[binom1.tree.leaves, 0]
        claim = terminal_payoff_claim(binom1, payoff)
        res = superreplication_price(binom1, claim)
        assert res.price == pytest.approx(1.0, abs=1e-9)
        assert res.holdings[binom1.tree.root, 0] == pytest.approx(1.0, abs=1e-8)

    def test_digital_claim_risk_neutral_price(self, binom1):
        up = binom1.assets.prices[binom1.tree.leaves, 0] == 2.0
        claim = terminal_payoff_claim(binom1, up.astype(float))
        res = superreplication_price(binom1, claim)
        assert res.price == pytest.approx(1.0 / 3.0, abs=1e-9)
        down_claim = terminal_payoff_claim(binom1, (~up).astype(float))
        assert superreplication_price(binom1, down_claim).price == pytest.approx(
            2.0 / 3.0, abs=1e-9
        )

    def test_certificate_superreplicates(self, example2):
        payoff = np.maximum(example2.assets.prices[example2.tree.leaves, 0] - 1.0, 0.0)
        claim = terminal_payoff_claim(example2, payoff)
        res = superreplication_price(example2, claim)
        wealth = wealth_from_strategy(example2, res.holdings, claim, res.price)
        assert float(np.min(wealth)) >= -1e-9

    def test_lp_duality_equality_corpus(
        self,
        binom1,
        example2,
        example3,
        trinomial,
        bond_only_terminal,
        two_period_mid_clock,
    ):
        rng = np.random.default_rng(7)
        checked = 0
        for model in (
            binom1,
            example2,
            example3,
            trinomial,
            bond_only_terminal,
            two_period_mid_clock,
        ):
            leaves = model.tree.leaves
            payoff = rng.uniform(0.0, 2.0, size=leaves.size)
            for claim in (
                unit_terminal_claim(model),
                terminal_payoff_claim(model, payoff),
            ):
                lo = superreplication_price(model, claim).price
                hi = dual_superrep_price(model, claim)
                assert lo == pytest.approx(hi, abs=1e-8)
                checked += 1
        assert checked >= 10

    def test_positive_homogeneity(self, example2):
        claim = unit_terminal_claim(example2)
        base = superreplication_price(example2, claim).price
        double = superreplication_price(example2, 2.0 * np.asarray(claim)).price
        assert double == pytest.approx(2.0 * base, abs=1e-9)
        assert dual_superrep_price(example2, 2.0 * np.asarray(claim)) == pytest.approx(
            2.0 * base, abs=1e-8
        )

    def test_constant_rate_claim_costs_at_most_x(self, two_period_mid_clock):
        x, bound = 1.0, two_period_mid_clock.clock.bound
        rates = np.full(two_period_mid_clock.n_nodes, x / bound)
        rates[two_period_mid_clock.tree.root] = 0.0
        value = dual_superrep_price(two_period_mid_clock, rates)
        assert value <= x + 1e-9
        assert superreplication_price(two_period_mid_clock, rates).price <= x + 1e-9

    def test_arbitrage_signalled(self):
        model = arbitrage_model()
        with pytest.raises(InfeasibleMarketError):
            superreplication_price(model, unit_terminal_claim(model))
        with pytest.raises(InfeasibleMarketError):
            dual_superrep_price(model, unit_terminal_claim(model))

    @pytest.mark.parametrize("payoff", [
        [1.0, 0.0, 5.0],
        [1.0],
        1.0,
        [math.nan, 1.0],
    ], ids=["longer", "shorter", "scalar", "nan"])
    def test_payoff_needs_one_finite_entry_per_leaf(self, binom1, payoff):
        with pytest.raises(DualityLabError, match="one per leaf"):
            terminal_payoff_claim(binom1, payoff)

    def test_claim_keys_read_as_build_tree_reads_them(self, binom1):
        # JSON keys are strings; each names the node whose id it spells.
        want = superreplication_price(binom1, {1: 1.0}).price
        assert superreplication_price(binom1, {"1": 1.0}).price == want
        with pytest.raises(DualityLabError, match="claim references unknown node"):
            superreplication_price(binom1, {"9": 1.0})

    def test_negative_rates_rejected(self, binom1):
        with pytest.raises(DualityLabError):
            superreplication_price(binom1, np.full(binom1.n_nodes, -1.0))

    @pytest.mark.parametrize("price", [superreplication_price, dual_superrep_price],
                             ids=["primal", "dual"])
    @pytest.mark.parametrize("claim, node", [
        ({1: math.nan}, 1),
        ({1: math.inf}, 1),
        (None, 0),
    ], ids=["nan", "inf", "nan-array"])
    def test_nonfinite_rates_rejected_before_the_gate(self, binom1, monkeypatch, price, claim,
                                                      node):
        def reached(*args, **kwargs):
            raise AssertionError("ran past the claim check")

        monkeypatch.setattr(harness, "ensure_full_density", reached)
        monkeypatch.setattr(harness, "linprog", reached)
        if claim is None:
            claim = np.full(binom1.n_nodes, math.nan)
        with pytest.raises(DualityLabError, match=f"node {node} must be finite"):
            price(binom1, claim)


def dense_superrep_price(model, rates):
    """Least capital x with x + G h >= cumulative spend at every node, G the
    per-node reference gains rows of holdings at every non-terminal node."""
    tree = model.tree
    n = tree.n_nodes
    G, _, _ = ref_rows(model, np.arange(n), ~tree.is_leaf, np.zeros(n, dtype=bool))
    cost = np.zeros(1 + G.shape[1])
    cost[0] = 1.0
    res = linprog(
        cost,
        A_ub=np.hstack([-np.ones((n, 1)), -G]),
        b_ub=-ref_cumulative(tree, rates * model.clock.dkappa),
        bounds=(None, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return float(res.x[0])


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(random_models(), random_models(martingale=True)),
    st.integers(0, 2**32 - 1),
)
def test_superreplication_pair_on_random_trees(model, seed):
    rng = np.random.default_rng(seed)
    dk = model.clock.dkappa
    rates = np.where(dk > 0.0, rng.uniform(0.0, 2.0, dk.size), 0.0)
    try:
        sup = superreplication_price(model, rates)
    except InfeasibleMarketError:
        # Draws within 1e-2 of the no-arbitrage boundary may go either way,
        # but both LPs must go the same way.
        assert _node_margin(model) < 1e-2
        with pytest.raises(InfeasibleMarketError):
            dual_superrep_price(model, rates)
        return
    scale = max(1.0, abs(sup.price))
    assert abs(dual_superrep_price(model, rates) - sup.price) <= 1e-8 * scale
    assert abs(dense_superrep_price(model, rates) - sup.price) <= 1e-9 * scale
    assert admissibility_check(model, sup.holdings, rates, sup.price).passed


def _risk_neutral_path_prob(model):
    """Path probabilities under the one-asset binomial's martingale measure,
    moves 2 and 1/2: q = 1/3 up, 2/3 down at every node."""
    tree, s = model.tree, model.assets.prices[:, 0]
    q = np.ones(tree.n_nodes)
    kids = np.flatnonzero(tree.parent >= 0)
    q[kids] = np.where(s[kids] > s[tree.parent[kids]], 1.0 / 3.0, 2.0 / 3.0)
    for k in kids:  # parents precede their children
        q[k] *= q[tree.parent[k]]
    return q


class TestCompleteTreePricing:
    """Where the martingale density is unique, both prices come without an LP:
    one sparse solve of the replication equations, and the gate's density."""

    @pytest.mark.parametrize("model", [
        pytest.param(lambda: build_example_market(ExampleMarketSpec(1, (0.6,))), id="binom1"),
        pytest.param(lambda: binomial_model(6, 0.6, {t: 1.0 / 6.0 for t in range(1, 7)}),
                     id="six-period"),
    ])
    def test_prices_without_an_lp(self, monkeypatch, model):
        model = model()
        rng = np.random.default_rng(3)
        dk = model.clock.dkappa
        rates = np.where(dk > 0.0, rng.uniform(0.0, 2.0, dk.size), 0.0)
        want = dense_superrep_price(model, rates)
        expected = float(np.sum(_risk_neutral_path_prob(model) * dk * rates))

        def no_lp(*args, **kwargs):
            raise AssertionError("a complete tree ran a pricing LP")

        monkeypatch.setattr(harness, "linprog", no_lp)
        sup = superreplication_price(model, rates)
        for price in (sup.price, dual_superrep_price(model, rates)):
            assert price == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert price == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert admissibility_check(model, sup.holdings, rates, sup.price).passed
        # The holdings replicate: nothing is left at the leaves.
        wealth = wealth_from_strategy(model, sup.holdings, rates, sup.price)
        assert np.max(np.abs(wealth[model.tree.leaves])) <= 1e-12

    def test_a_missed_solve_raises(self, monkeypatch, binom1):
        monkeypatch.setattr(harness, "spsolve", lambda A, b: np.full(b.size, np.nan))
        with pytest.raises(ConvergenceError, match="replication"):
            superreplication_price(binom1, unit_terminal_claim(binom1))


@settings(max_examples=60, deadline=None)
@given(random_models(martingale=True), st.integers(0, 2**32 - 1))
def test_complete_tree_prices_match_the_lps_on_the_same_system(model, seed):
    rng = np.random.default_rng(seed)
    dk = model.clock.dkappa
    rates = np.where(dk > 0.0, rng.uniform(0.0, 2.0, dk.size), 0.0)
    spend, N, b, _ = harness._pricing_system(model, rates)
    assume(N.shape[0] == N.shape[1])
    opts = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    lo = linprog(b, A_ub=-N.T, b_ub=-spend, bounds=(None, None), method="highs", options=opts)
    hi = linprog(-spend, A_eq=N, b_eq=b, bounds=(0.0, None), method="highs", options=opts)
    assert lo.status == 0 and hi.status == 0
    scale = max(1.0, abs(lo.fun))
    assert abs(superreplication_price(model, rates).price - lo.fun) <= 1e-9 * scale
    assert abs(dual_superrep_price(model, rates) + hi.fun) <= 1e-9 * scale


class TestConvergenceStudy:
    def test_example_family_monotone(self, log_field):
        model = build_example_market(ExampleMarketSpec(3, (0.55, 0.6, 0.65)))
        grid = np.geomspace(0.25, 4.0, 5)
        curves = value_convergence_study(model, log_field, grid, grid, range(1, 4), 1e-9)
        assert np.all(curves.u[1:] >= curves.u[:-1] - 1e-7)
        assert np.all(curves.v[1:] >= curves.v[:-1] - 1e-7)
        summary = convergence_summary(curves)
        assert summary["u_monotone_worst_drop"] <= 1e-7
        assert summary["cauchy_u_last"] > 0.0

    def test_duplicates_flat_after_first(self, duplicates, log_field):
        grid = np.array([0.5, 1.0, 2.0])
        curves = value_convergence_study(duplicates, log_field, grid, grid, [1, 2], 1e-10)
        np.testing.assert_allclose(curves.u[0], curves.u[1], atol=1e-8)
        np.testing.assert_allclose(curves.v[0], curves.v[1], atol=1e-8)

    def test_bond_only_family_constant(self, bond_two_dates, log_field):
        grid = np.array([0.5, 1.0, 2.0])
        curves = value_convergence_study(bond_two_dates, log_field, grid, grid, [0, 0], 1e-10)
        np.testing.assert_allclose(curves.u[0], curves.u[1], atol=1e-12)

    def test_non_monotone_raises(self, example2, log_field, monkeypatch):
        import dualitylab.harness as hmod

        calls = {"n": 0}
        real = hmod.solve_primal

        def fake(model, field, x, tol, **kw):
            sol = real(model, field, x, tol, **kw)
            calls["n"] += 1
            if model.n_active == 2:
                sol.value -= 1.0  # corrupt the larger market's value
            return sol

        monkeypatch.setattr(hmod, "solve_primal", fake)
        grid = np.array([1.0])
        with pytest.raises(ConvergenceError):
            value_convergence_study(example2, log_field, grid, grid, [1, 2], 1e-9)

    def test_grid_validation(self, example2, log_field):
        with pytest.raises(DualityLabError):
            value_convergence_study(example2, log_field, [1.0, 0.5], [1.0], [1], 1e-8)
        with pytest.raises(DualityLabError):
            value_convergence_study(example2, log_field, [1.0], [1.0], [5], 1e-8)

    def test_each_level_warm_starts_along_the_x_grid(self, bounded_field, monkeypatch):
        model = build_example_market(ExampleMarketSpec(4, TestPortfolioStudy.P4))
        grid, tol, levels = default_grid(), 1e-9, range(1, 5)
        calls = []
        real = harness.solve_primal

        def spy(sub, field, x, tol, warm_start=None):
            sol = real(sub, field, x, tol, warm_start=warm_start)
            calls.append((sub, x, warm_start, sol))
            return sol

        monkeypatch.setattr(harness, "solve_primal", spy)
        curves = value_convergence_study(model, bounded_field, grid, grid, levels, tol)
        monkeypatch.undo()

        assert len(calls) == len(levels) * grid.size
        weights = node_weights(model, bounded_field)
        warm_iters = cold_iters = 0
        for k, n in enumerate(levels):
            level = calls[k * grid.size : (k + 1) * grid.size]
            assert level[0][2] is None
            for prev, call in zip(level, level[1:]):
                assert call[2] is prev[3]
            sub = level[0][0]
            cold = [solve_primal(sub, bounded_field, x, tol) for _, x, _, _ in level]
            want = np.array([sol.value for sol in cold])
            assert np.all(np.abs(curves.u[k] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            if n == 1:
                # Level 1 is complete, so each cold start is the optimal plan
                # and certifies in one step: warm starts have nothing to save,
                # and the bounded field, without a scaling law, ignores them.
                assert all(sol.iterations == 1 for sol in cold)
                assert all(call[3].iterations == 1 for call in level)
                assert np.array_equal(curves.u[k], want)
            else:
                # Every solve but the level's first starts warm.
                warm_iters += sum(call[3].iterations for call in level[1:])
                cold_iters += sum(sol.iterations for sol in cold[1:])

            # The dual side takes nothing from the primal: a y-chained solve.
            sub = quotient(truncate(model, n), weights)
            zeta, v = None, []
            for y in grid:
                sol = solve_dual(sub, bounded_field, float(y), tol, warm_start=zeta)
                zeta = sol.zeta
                v.append(sol.value)
            assert np.array_equal(curves.v[k], v)
        assert warm_iters <= cold_iters / 2

    def test_study_warm_starts_need_no_repair(self, example3, bounded_field, monkeypatch):
        # Each y-chained dual starts from the previous y's optimal density,
        # which is strictly inside the polytope already.
        repaired = []
        monkeypatch.setattr(dual, "_repair_start", lambda *args: repaired.append(args))
        grid = default_grid(points=8)
        value_convergence_study(example3, bounded_field, grid, grid, [1, 2, 3], 1e-9)
        assert repaired == []

    def test_weak_duality_all_pairs(self, example2, bounded_field):
        grid = default_grid(points=8)
        curves = value_convergence_study(example2, bounded_field, grid, grid, [1, 2], 1e-9)
        for k in range(len(curves.n_values)):
            for i, x in enumerate(curves.x_grid):
                bound = curves.v[k] + curves.y_grid * x
                assert np.all(curves.u[k, i] <= bound + 1e-8)


class TestModelMemo:
    """What the solvers derive from a model is built once per model."""

    def test_one_gate_and_one_reference_solve_per_model(self, monkeypatch, power_field):
        model = binomial_model(3, 0.6, {1: 1.0 / 3.0, 2: 1.0 / 3.0, 3: 1.0 / 3.0})
        calls = Counter()

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (treeops, dual, harness):
            for name in ("martingale_density", "node_system"):
                if hasattr(module, name):
                    spy(module, name)
        spy(dual, "_barrier_solve")
        for x in (0.5, 1.0, 2.0):
            pair_solutions(model, power_field, x)
        claim = unit_terminal_claim(model)
        superreplication_price(model, claim)
        dual_superrep_price(model, claim)
        # The tree's trimmed view is whole, so the dual and both prices share
        # one node system.
        assert calls == {"martingale_density": 1, "_barrier_solve": 1, "node_system": 1}

    def test_memo_refers_no_cycle_back_to_its_model(self, log_field):
        # Were a memo entry to hold the model, dropping the last reference
        # would leave the model to the cycle collector.
        model = binomial_model(2, 0.6, {1: 0.5, 2: 0.5})
        weighted = UtilityField(family="bounded", alpha=0.5, beta=2.0, weights={"1": 2.0, 4: 0.5})
        gc.disable()
        try:
            solve_dual(model, log_field, 2.0)
            pair_solutions(model, weighted, 1.0)
            superreplication_price(model, unit_terminal_claim(model))
            assert {"full_density", "dual_reference", "full_node_system",
                    "node_weights"} <= model._memo.keys()
            assert len(model._memo["node_weights"]) == 2
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()

    def test_equal_weight_values_share_one_vector(self, example2):
        # Kept by the weights' value: equal values share one read-only vector
        # whatever the family, other values get their own.
        w = node_weights(example2, UtilityField(family="log", weights={1: 2.0}))
        assert node_weights(example2, UtilityField(family="power", gamma=-1.0,
                                                   weights={1: 2.0})) is w
        assert not w.flags.writeable
        assert np.array_equal(w, UtilityField(family="log", weights={1: 2.0})
                              .weight_array(example2.tree.ids))
        other = node_weights(example2, UtilityField(family="log", weights={1: 3.0}))
        assert other is not w and other[example2.tree.index_of[1]] == 3.0
        plain = node_weights(example2, UtilityField(family="log"))
        assert plain is node_weights(example2, UtilityField(family="bounded", alpha=0.5, beta=2.0))
        assert np.array_equal(plain, np.ones(example2.n_nodes))

    def test_truncation_starts_afresh(self, bounded_field):
        spec = ExampleMarketSpec(3, (0.55, 0.6, 0.65))
        level1 = truncate(build_example_market(spec), 1)
        solve_primal(level1, bounded_field, 1.0)
        solve_dual(level1, bounded_field, 2.0)
        level2 = truncate(level1, 2)
        assert not level2._memo
        fresh = truncate(build_example_market(spec), 2)
        for solve, arg, fields in ((solve_primal, 1.0, ("c", "H", "value")),
                                   (solve_dual, 2.0, ("Z", "value"))):
            got = solve(level2, bounded_field, arg)
            want = solve(fresh, bounded_field, arg)
            for name in fields:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestShapeChecks:
    def test_u_curve(self, binom1, log_field):
        grid = default_grid(points=12)
        vals = [solve_primal(binom1, log_field, float(x), 1e-10).value for x in grid]
        checks = curve_shape_checks(grid, vals, "u")
        assert checks["monotone_ok"] and checks["shape_ok"]

    def test_v_curve(self, binom1, bounded_field):
        grid = default_grid(points=12)
        vals = [solve_dual(binom1, bounded_field, float(y), 1e-10).value for y in grid]
        checks = curve_shape_checks(grid, vals, "v")
        assert checks["monotone_ok"] and checks["shape_ok"]

    def test_wrong_shapes_flagged(self):
        grid = np.array([1.0, 2.0, 3.0])
        assert not curve_shape_checks(grid, [0.0, -1.0, -2.0], "u")["monotone_ok"]
        assert not curve_shape_checks(grid, [0.0, 1.0, 3.0], "u")["shape_ok"]


class TestPortfolioStudy:
    P4 = (0.55, 0.59, 0.63, 0.67)

    def test_threshold_formula(self, bounded_field):
        # alpha = 1/2, beta = 2: u(1) = 2, u(1/2) = sqrt(2), u(2) = 5/2.
        expect = (2.0 - math.sqrt(2.0)) / (2.5 - math.sqrt(2.0))
        assert bounded_threshold(bounded_field) == pytest.approx(expect, abs=1e-12)

    def test_small_study(self, bounded_field):
        spec = ExampleMarketSpec(4, self.P4)
        report = example_portfolio_study(spec, bounded_field, tol=1e-9)
        assert report.n_values == [1, 2, 3, 4]
        assert report.chain_ok(1e-7)
        assert all(report.min_stock_holding(k) >= -1e-7 for k in range(4))
        assert np.all(np.diff(report.values) >= -1e-9)
        assert report.values[0] > report.base_value
        assert report.kkt_worst <= 1e-8
        # Bond plus stock positions account for the initial wealth.
        for k, n in enumerate(report.n_values):
            assert float(np.sum(report.holdings[k])) == pytest.approx(1.0, abs=1e-7)

    def test_finite_tree_holding_cap(self, bounded_field):
        # Admissibility caps the total stock position at 2, which with the
        # chain ordering caps each holding at 2/(N-i+1).
        spec = ExampleMarketSpec(4, self.P4)
        report = example_portfolio_study(spec, bounded_field, tol=1e-9)
        for k, n in enumerate(report.n_values):
            h = report.holdings[k][1:]
            assert float(np.sum(h)) <= 2.0 + 1e-7
            caps = np.array([2.0 / (n - i + 1) for i in range(1, n + 1)])
            assert np.all(h <= caps + 1e-6)

    def test_levels_are_quotients_of_one_market(self, bounded_field, monkeypatch):
        # Both studies solve level n on quotient(truncate(model, n)) of one
        # N-asset market, so their values agree bit for bit.
        spec, tol = ExampleMarketSpec(4, self.P4), 1e-9
        builds = []

        def counted(s):
            builds.append(s)
            return build_example_market(s)

        monkeypatch.setattr(harness, "build_example_market", counted)
        report = example_portfolio_study(spec, bounded_field, tol=tol)
        assert builds == [spec]

        model = build_example_market(spec)
        curves = value_convergence_study(model, bounded_field, [1.0], [1.0], range(1, 5), tol)
        assert np.array_equal(report.values, curves.u[:, 0])
        for k, n in enumerate(report.n_values):
            sub = quotient(truncate(model, n), np.ones(model.n_nodes))
            sol = solve_primal(sub, bounded_field, 1.0, tol)
            assert np.array_equal(report.holdings[k][1:], sol.H[sub.tree.root])

    def test_threshold_precondition_enforced(self, bounded_field):
        spec = ExampleMarketSpec(2, (0.45, 0.5))  # below the 0.5395 threshold
        with pytest.raises(DualityLabError):
            example_portfolio_study(spec, bounded_field)

    def test_requires_bounded_family(self, log_field):
        with pytest.raises(DualityLabError):
            example_portfolio_study(ExampleMarketSpec(2, (0.6, 0.7)), log_field)

    def test_misordered_probabilities_rejected_at_spec(self):
        with pytest.raises(DualityLabError):
            ExampleMarketSpec(2, (0.7, 0.6))

    def test_trend_accessor(self, bounded_field):
        spec = ExampleMarketSpec(3, self.P4[:3])
        report = example_portfolio_study(spec, bounded_field, tol=1e-9)
        trend = report.trend(1)
        assert [n for n, _ in trend] == [1, 2, 3]


class TestEmitters:
    def test_convergence_csv_schema(self, tmp_path, example2, log_field):
        grid = np.array([0.5, 1.0])
        curves = value_convergence_study(example2, log_field, grid, grid, [1, 2], 1e-9)
        path = tmp_path / "conv.csv"
        write_convergence_csv(curves, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "x_or_y", "kind", "value"]
        kinds = {row[2] for row in rows[1:]}
        assert kinds == {"u", "v", "du", "dv"}
        assert len(rows) == 1 + 2 * 4 * 2  # levels * kinds * grid points

    def test_example_csv_schema(self, tmp_path, bounded_field):
        report = example_portfolio_study(
            ExampleMarketSpec(2, (0.55, 0.6)), bounded_field, tol=1e-9
        )
        path = tmp_path / "ex.csv"
        write_example_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "i", "holding", "bound", "value"]
        assert rows[1][1] == "0" and rows[1][3] == ""  # bond row carries no cap
        assert [r[0] for r in rows[1:]] == ["1", "1", "2", "2", "2"]

    def test_series_format(self, tmp_path):
        path = tmp_path / "s.dat"
        write_series(path, [1, 2], [0.5, 0.25])
        lines = path.read_text().splitlines()
        assert lines == ["1 0.5", "2 0.25"]
