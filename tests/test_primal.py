import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualitylab import dual as dual_module
from dualitylab import primal as primal_module
from dualitylab import treeops
from dualitylab.dual import ensure_full_density, solve_dual
from dualitylab.errors import ConvergenceError, DualityLabError, InfeasibleMarketError
from dualitylab.market import (
    ExampleMarketSpec,
    build_example_market,
    build_tree,
    load_model,
    truncate,
)
from dualitylab.primal import (
    _PrimalObjective,
    admissibility_check,
    analytic_log_binomial,
    solve_primal,
)
from dualitylab.treeops import build_geometry
from dualitylab.utility import UtilityField

from conftest import (
    arbitrage_model,
    binomial_model,
    binomial_two_period_partial_clock,
)
from test_treeops import random_models, ref_rows, traded_assets


def trimmed_rows(geo):
    """(rows, h_slice, c_index) of the dense trimmed wealth map, each node
    trading the assets its market keeps."""
    internal = geo.internal_mask
    return ref_rows(geo.model, geo.trimmed, internal, internal & geo.consuming,
                    traded_assets(geo))


def closed_form_log_binomial(p, x):
    """Independent derivation of the one-period benchmark for the tests."""
    frac = 3.0 * p - 1.0
    value = p * math.log(1 + frac) + (1 - p) * math.log(1 - frac / 2) + math.log(x)
    return frac, value


class TestAnalyticOracle:
    def test_reference_point(self):
        frac, value = analytic_log_binomial(0.6, 1.0)
        assert frac == pytest.approx(0.8)
        assert value == pytest.approx(0.1483417, abs=1e-7)

    def test_against_independent_form(self):
        for p in (0.4, 0.55, 0.85):
            assert analytic_log_binomial(p, 2.5) == pytest.approx(
                closed_form_log_binomial(p, 2.5)
            )

    def test_near_boundary_fraction_vanishes(self):
        frac, _ = analytic_log_binomial(1.0 / 3.0 + 1e-9, 1.0)
        assert abs(frac) < 1e-8

    def test_wealth_scaling(self):
        f1, v1 = analytic_log_binomial(0.6, 1.0)
        f2, v2 = analytic_log_binomial(0.6, 2.0)
        assert f1 == f2
        assert v2 == pytest.approx(v1 + math.log(2.0))

    def test_outside_interior_region(self):
        with pytest.raises(DualityLabError):
            analytic_log_binomial(0.2, 1.0)
        with pytest.raises(DualityLabError):
            analytic_log_binomial(1.0, 1.0)


class TestBondOnly:
    def test_terminal_clock_log(self, bond_only_terminal, log_field):
        sol = solve_primal(bond_only_terminal, log_field, 1.0, 1e-10)
        assert sol.value == pytest.approx(0.0, abs=1e-10)
        leaf = bond_only_terminal.tree.leaves[0]
        assert sol.c[leaf] == pytest.approx(1.0, abs=1e-10)
        assert sol.X[leaf] == pytest.approx(0.0, abs=1e-10)

    def test_two_dates_equal_split(self, bond_two_dates, log_field):
        # Hand Lagrangian: maximize (ln c1 + ln c2)/2 with spend (c1+c2)/2 = 1.
        sol = solve_primal(bond_two_dates, log_field, 1.0, 1e-10)
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert sol.c[1] == pytest.approx(1.0, abs=1e-7)
        assert sol.c[2] == pytest.approx(1.0, abs=1e-7)


class TestLogBinomial:
    def test_matches_closed_form(self, binom1, log_field):
        sol = solve_primal(binom1, log_field, 1.0, 1e-10)
        frac, value = closed_form_log_binomial(0.6, 1.0)
        assert sol.value == pytest.approx(value, abs=1e-9)
        assert sol.H[binom1.tree.root, 0] == pytest.approx(frac, abs=1e-8)
        # consumption equals terminal wealth before consuming
        leaves = binom1.tree.leaves
        assert sorted(sol.c[leaves]) == pytest.approx([0.6, 1.8], abs=1e-8)

    def test_wealth_scaling_identity(self, binom1, log_field):
        base = solve_primal(binom1, log_field, 1.0, 1e-10)
        scaled = solve_primal(binom1, log_field, 3.0, 1e-10)
        # fractions of wealth identical, value shifted by E[kappa_T] ln 3
        assert scaled.H[0, 0] / 3.0 == pytest.approx(base.H[0, 0], abs=1e-8)
        assert scaled.value == pytest.approx(base.value + math.log(3.0), abs=1e-8)

    def test_wealth_scaling_with_bigger_clock_mass(self, log_field):
        model = binomial_model(2, 0.6, {1: 1.0, 2: 1.0}, bound=2.0)
        base = solve_primal(model, log_field, 1.0, 1e-10)
        scaled = solve_primal(model, log_field, 2.0, 1e-10)
        mass = model.clock.expected_total()
        assert mass == pytest.approx(2.0)
        assert scaled.value == pytest.approx(base.value + mass * math.log(2.0), abs=1e-7)

    def test_two_period_terminal_additivity(self, two_period_terminal, log_field):
        # iid log growth: two periods double the one-period certainty equivalent.
        sol = solve_primal(two_period_terminal, log_field, 1.0, 1e-10)
        _, one = closed_form_log_binomial(0.6, 1.0)
        assert sol.value == pytest.approx(2.0 * one, abs=1e-8)

    def test_kkt_residual_small(self, binom1, log_field):
        sol = solve_primal(binom1, log_field, 1.0, 1e-10)
        assert sol.kkt_residual <= 1e-10


def test_power_plans_linear_in_wealth(power_field):
    # Power plans scale exactly with x, so c and H at x = 1 are twice those at
    # x = 1/2 up to rounding, provided the last Newton step is not decided by
    # an Armijo test on a gain below the value's rounding.
    model = binomial_model(9, 0.6, {t: 1.0 / 9.0 for t in range(1, 10)})
    one = solve_primal(model, power_field, 1.0)
    half = solve_primal(model, power_field, 0.5)
    for got, want in ((one.c, 2.0 * half.c), (one.H, 2.0 * half.H)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))


class TestGeneralModels:
    def test_bounded_single_asset_positive_holding(self, binom1, bounded_field):
        # p = 0.6 exceeds the field's threshold, so the stock beats the bond.
        sol = solve_primal(binom1, bounded_field, 1.0, 1e-10)
        assert sol.H[binom1.tree.root, 0] > 0.0
        base = bounded_field.base()
        assert sol.value > float(base.u(1.0))

    def test_admissibility_of_solutions(self, any_field, two_period_mid_clock):
        sol = solve_primal(two_period_mid_clock, any_field, 1.0, 1e-9)
        assert float(np.min(sol.X)) >= -1e-9

    def test_wealth_identity(self, example2, any_field):
        from dualitylab.treeops import wealth_from_strategy

        sol = solve_primal(example2, any_field, 1.5, 1e-9)
        recomputed = wealth_from_strategy(example2, sol.H, sol.c, 1.5)
        np.testing.assert_allclose(recomputed, sol.X, atol=1e-12)

    def test_trinomial_incomplete(self, trinomial, log_field):
        sol = solve_primal(trinomial, log_field, 1.0, 1e-10)
        assert float(np.min(sol.c[trinomial.tree.leaves])) > 0.0

    def test_weighted_field(self, binom1, weighted_log_field):
        # Weights tilt consumption toward the favored node.
        plain = solve_primal(binom1, UtilityField(family="log"), 1.0, 1e-10)
        tilted = solve_primal(binom1, weighted_log_field, 1.0, 1e-10)
        assert tilted.c[1] > plain.c[1]

    def test_monotone_in_truncation(self, example3, log_field):
        values = [
            solve_primal(truncate(example3, n), log_field, 1.0, 1e-10).value
            for n in (1, 2, 3)
        ]
        assert values[0] <= values[1] + 1e-7
        assert values[1] <= values[2] + 1e-7

    def test_duplicate_assets_min_norm_split(self, duplicates, log_field):
        single = solve_primal(truncate(duplicates, 1), log_field, 1.0, 1e-10)
        both = solve_primal(duplicates, log_field, 1.0, 1e-10)
        assert both.value == pytest.approx(single.value, abs=1e-9)
        h = both.H[duplicates.tree.root]
        assert h[0] == pytest.approx(h[1], abs=1e-8)
        assert h.sum() == pytest.approx(single.H[0, 0], abs=1e-7)

    def test_concave_increasing_value_curve(self, binom1, log_field):
        xs = np.geomspace(0.1, 10.0, 11)
        vals = np.array([solve_primal(binom1, log_field, float(x), 1e-10).value for x in xs])
        slopes = np.diff(vals) / np.diff(xs)
        assert np.all(slopes > 0.0)
        assert np.all(np.diff(slopes) <= 1e-7)

    def test_clock_dies_before_horizon(self, log_field):
        # All mass at time 1: the tail after consumption is dead, wealth
        # there stays at zero, and the value is the one-period benchmark.
        model = binomial_two_period_partial_clock(up_subtree_only=False)
        sol = solve_primal(model, log_field, 1.0, 1e-10)
        assert sol.value == pytest.approx(0.14834174943487516, abs=1e-8)
        leaves = model.tree.leaves
        assert float(np.max(np.abs(sol.X[leaves]))) <= 1e-8

    def test_dead_subtree_wealth_floor_binds(self, log_field):
        # Mass only on the up subtree's terminal leaves: wealth sent down is
        # wasted, so the optimum pushes the down state's wealth to its floor
        # and levers the up branch as far as admissibility allows (2 shares).
        model = binomial_two_period_partial_clock(up_subtree_only=True)
        sol = solve_primal(model, log_field, 1.0, 1e-10)
        oracle = 0.6 * (math.log(3.0) + 0.14834174943487516)
        assert sol.value == pytest.approx(oracle, abs=1e-8)
        assert sol.H[model.tree.root, 0] == pytest.approx(2.0, abs=1e-6)
        down = model.tree.index_of[2]
        assert 0.0 <= sol.X[down] <= 1e-6
        # The floor's shadow price must not be mistaken for a KKT violation.
        assert sol.kkt_residual <= 1e-8


class TestErrors:
    def test_arbitrage_detected(self, log_field):
        with pytest.raises(InfeasibleMarketError):
            solve_primal(arbitrage_model(), log_field, 1.0)

    def test_nonpositive_wealth_rejected(self, binom1, log_field):
        with pytest.raises(DualityLabError):
            solve_primal(binom1, log_field, 0.0)

    def test_iteration_budget(self, example3, bounded_field):
        with pytest.raises(ConvergenceError):
            solve_primal(example3, bounded_field, 1.0, tol=1e-12, max_iter=2)


@pytest.mark.parametrize("solver", ["primal", "dual"])
@pytest.mark.parametrize("arg", [math.nan, math.inf, -math.inf])
def test_nonfinite_argument_rejected_before_the_gate(monkeypatch, binom1, bounded_field,
                                                     solver, arg):
    def gate(geo):
        raise AssertionError("the no-arbitrage gate ran")

    monkeypatch.setattr(primal_module, "ensure_full_density", gate)
    monkeypatch.setattr(dual_module, "ensure_full_density", gate)
    solve = solve_primal if solver == "primal" else solve_dual
    with pytest.raises(DualityLabError, match="positive and finite"):
        solve(binom1, bounded_field, arg)


class TestAdmissibilityCheck:
    def test_constant_rate_passes(self, bond_two_dates):
        n = bond_two_dates.n_nodes
        c = np.full(n, 1.0)  # rate x/A with x = A = 1
        H = np.zeros((n, 0))
        report = admissibility_check(bond_two_dates, H, c, 1.0)
        assert report.passed
        assert report.min_wealth == pytest.approx(0.0, abs=1e-12)

    def test_doubled_consumption_fails(self, bond_two_dates, log_field):
        sol = solve_primal(bond_two_dates, log_field, 1.0, 1e-10)
        report = admissibility_check(bond_two_dates, sol.H, 2.0 * sol.c, 1.0)
        assert not report.passed

    def test_idle_plan_keeps_wealth(self, example2):
        n = example2.n_nodes
        report = admissibility_check(
            example2, np.zeros((n, example2.n_active)), np.zeros(n), 1.0
        )
        assert report.passed
        assert report.min_wealth == pytest.approx(1.0)


class TestTreeNewtonStep:
    """The kernel step in spend coordinates against a dense Newton solve in
    holdings and rates, the variables of the dense wealth rows."""

    @staticmethod
    def dense_neg_hessian(geo, field, x, theta, mu):
        """-H summed term by term over the dense wealth rows."""
        tree, clock = geo.tree, geo.model.clock
        base = field.base()
        rows, _, c_index = trimmed_rows(geo)
        neg_h = np.zeros((rows.shape[1], rows.shape[1]))
        for k, pos in enumerate(geo.trimmed):
            r = rows[k]
            s = x + r @ theta
            if geo.eff_mask[pos]:
                w = field.weight(tree.ids[pos])
                u2 = float(base.u_second(s / clock.dkappa[pos]))
                neg_h -= tree.path_prob[pos] * w * u2 / clock.dkappa[pos] * np.outer(r, r)
            elif geo.dead_root_mask[pos] and mu > 0.0:
                neg_h += mu / s**2 * np.outer(r, r)
        for pos, j in c_index.items():
            w = field.weight(tree.ids[pos])
            u2 = float(base.u_second(theta[j]))
            neg_h[j, j] -= tree.path_prob[pos] * clock.dkappa[pos] * w * u2
        return neg_h

    @staticmethod
    def dense_gradient(geo, field, x, theta, mu):
        """The objective's gradient, with the dead-root barrier, term by term."""
        tree, clock = geo.tree, geo.model.clock
        base = field.base()
        rows, _, c_index = trimmed_rows(geo)
        g = np.zeros(rows.shape[1])
        for k, pos in enumerate(geo.trimmed):
            s = x + rows[k] @ theta
            if geo.eff_mask[pos]:
                w = field.weight(tree.ids[pos])
                g += tree.path_prob[pos] * w * float(base.u_prime(s / clock.dkappa[pos])) * rows[k]
            elif geo.dead_root_mask[pos]:
                g += mu / s * rows[k]
        for pos, j in c_index.items():
            w = field.weight(tree.ids[pos])
            g[j] += tree.path_prob[pos] * clock.dkappa[pos] * w * float(base.u_prime(theta[j]))
        return g

    @staticmethod
    def spend(geo, rows, c_index, x, theta):
        """Spend at every trimmed node: dkappa times the rate at an internal
        node, the wealth at a trimmed leaf."""
        trim = geo.trimmed
        rate = np.zeros(trim.size)
        for pos, j in c_index.items():
            rate[np.searchsorted(trim, pos)] = theta[j]
        dk = geo.model.clock.dkappa[trim]
        return np.where(geo.internal_mask[trim], dk * rate, x + rows @ theta)

    @classmethod
    def state(cls, obj, geo, x, theta):
        """(sigma, nu) of the plan theta: wealth after consumption and the kept
        holdings at the internal nodes."""
        rows, h_slice, c_index = trimmed_rows(geo)
        trim, na = geo.trimmed, geo.model.n_active
        internal = geo.internal_mask[trim]
        spend = cls.spend(geo, rows, c_index, x, theta)
        held = np.array([theta[h_slice[int(p)]] if na else [] for p in trim[internal]])
        keep = geo.markets()[4]
        post = x + rows @ theta - spend
        nu = np.concatenate(([x], -post[internal], held.reshape(keep.shape)[keep]))
        return spend[obj.cols], nu

    @staticmethod
    def theta_step(obj, geo, dsigma, dnu):
        """The step (d sigma, d nu) in the dense rows' variables: nu's kept
        holdings, zero in the assets a node does not keep, and the rates."""
        _, h_slice, c_index = trimmed_rows(geo)
        internal, _, _, _, keep = geo.markets()
        held = np.zeros(keep.shape)
        held[keep] = dnu[1 + internal.size :]
        step = np.zeros(len(h_slice) * geo.model.n_active + len(c_index))
        for i, pos in enumerate(geo.trimmed[internal]):
            if int(pos) in h_slice:
                step[h_slice[int(pos)]] = held[i]
        spend = np.zeros(geo.trimmed.size)
        spend[obj.cols] = dsigma
        for pos, j in c_index.items():
            k = np.searchsorted(geo.trimmed, pos)
            step[j] = spend[k] / geo.model.clock.dkappa[pos]
        return step

    @staticmethod
    def interior_point(geo, rows, c_index, x, rng):
        """A random plan whose spend is positive at every consuming node and
        dead root."""
        theta = np.zeros(rows.shape[1])
        theta[list(c_index.values())] = x / (2.0 * geo.model.clock.bound)
        spends = (geo.consuming | geo.dead_root_mask)[geo.trimmed]
        kick = rng.normal(size=theta.size) * rng.uniform(0.1, 1.0)
        while np.any(TestTreeNewtonStep.spend(geo, rows, c_index, x, theta + kick)[spends] <= 0.0):
            kick *= 0.5
        return theta + kick

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)),
        st.sampled_from(["log", "power", "bounded"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve(self, model, family, weighted, seed):
        # Random trees bring dead roots, partial ``keep``, consuming inner
        # nodes and one-child nodes; the barrier weight on dead-root wealth
        # is 0.05.  Newton's affine invariance makes the two steps one.  On
        # a market with arbitrage the kernel's node blocks lose rank, as the
        # dual's rows have no solution there; the solver gates it first.
        geo = build_geometry(model)
        try:
            ensure_full_density(geo)
        except InfeasibleMarketError:
            return
        rng = np.random.default_rng(seed)
        tree = model.tree
        weights = {nid: float(rng.uniform(0.5, 2.0)) for nid in tree.ids} if weighted else None
        params = {"log": {}, "power": {"gamma": -1.5}, "bounded": {"alpha": 0.5, "beta": 2.0}}
        field = UtilityField(family=family, weights=weights, **params[family])
        obj = _PrimalObjective(geo, field, 1.3)
        rows, _, c_index = trimmed_rows(geo)
        theta = self.interior_point(geo, rows, c_index, 1.3, rng)
        sigma, nu = self.state(obj, geo, 1.3, theta)
        dsigma, dnu, lam2, _ = obj.step(sigma, nu, 0.05)

        neg_h = self.dense_neg_hessian(geo, field, 1.3, theta, 0.05)
        g = self.dense_gradient(geo, field, 1.3, theta, 0.05)
        live = np.diag(neg_h) > 0.0  # untraded holdings have zero rows
        want = np.zeros(theta.size)
        if live.any():
            m = neg_h[np.ix_(live, live)]
            if np.linalg.cond(m) > 1e6:
                return  # too ill-conditioned for the dense solve to hold 1e-10
            want[live] = np.linalg.solve(m, g[live])
        # Relative, above the rounding of the state itself: where the dense
        # step is 0, the kernel's restores feasibility to that rounding.
        floor = 1e-14 * (np.linalg.norm(sigma) + np.linalg.norm(nu))
        got = self.theta_step(obj, geo, dsigma, dnu)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want) + floor
        # Mapped through the wealth rows, the dense step is the spend step.
        spend = self.spend(geo, rows, c_index, 0.0, want)
        assert np.linalg.norm(dsigma - spend[obj.cols]) <= 1e-10 * np.linalg.norm(spend) + floor

    def test_duplicated_asset_is_no_variable_of_the_step(self, duplicates, log_field):
        # The root's market keeps one of the two identical assets, so nu has
        # one pricing row there: the other holding does not move, and the
        # step solves the dense system, whose row for that holding is zero.
        geo = build_geometry(duplicates)
        obj = _PrimalObjective(geo, log_field, 1.0)
        rows, _, c_index = trimmed_rows(geo)
        theta = np.zeros(rows.shape[1])
        dsigma, dnu, _, _ = obj.step(*self.state(obj, geo, 1.0, theta), 0.0)
        step = self.theta_step(obj, geo, dsigma, dnu)
        traded = traded_assets(geo)[duplicates.tree.root]
        assert traded.sum() == 1 and not step[:2][~traded].any()
        neg_h = self.dense_neg_hessian(geo, log_field, 1.0, theta, 0.0)
        g = self.dense_gradient(geo, log_field, 1.0, theta, 0.0)
        np.testing.assert_allclose(neg_h @ step, g, rtol=1e-9)

    def test_nonfinite_curvature_raises(self, two_period_mid_clock, log_field):
        obj = _PrimalObjective(build_geometry(two_period_mid_clock), log_field, 1.0)
        state = primal_module._cold_start(obj)
        u_second = obj.base.u_second
        obj.base.u_second = lambda c: np.where(np.arange(np.size(c)) == 0, np.nan, u_second(c))
        with pytest.raises(ConvergenceError):
            obj.step(*state, 0.0)


@pytest.mark.parametrize("p", [0.45, 0.6])
def test_ten_period_log_binomial_closed_form(p, log_field):
    # 2,047 nodes and 1,023 Newton variables: iid log growth compounds the
    # one-period value, and every node invests the fraction 3p - 1.
    model = binomial_model(10, p, {10: 1.0})
    sol = solve_primal(model, log_field, 1.7, 1e-10)
    _, one = analytic_log_binomial(p, 1.0)
    assert sol.value == pytest.approx(math.log(1.7) + 10.0 * one, abs=1e-12)
    internal = model.tree.internal_nodes()
    frac = sol.H[internal, 0] * model.assets.prices[internal, 0] / sol.X[internal]
    np.testing.assert_allclose(frac, 3.0 * p - 1.0, rtol=0.0, atol=1e-9)


def test_spread_tree_needs_no_dense_wealth_map(monkeypatch, log_field):
    # 3-period tree, clock on every date: 15 nodes, 8 leaves and 13 Newton
    # variables.  A guard that admits the 15 x 8 density system but not a
    # dense 15 x 13 wealth map still lets the primal solve.
    model = binomial_model(3, 0.6, {1: 1 / 3, 2: 1 / 3, 3: 1 / 3})
    tree = model.tree
    monkeypatch.setattr(treeops, "DENSE_ENTRY_GUARD", tree.n_nodes * tree.leaves.size)
    sol = solve_primal(model, log_field, 1.0, 1e-10)
    assert sol.kkt_residual <= 1e-9


def one_ulp_model():
    # One child, prob 1, whose price moves by one ulp: a rounding move, not a
    # tradable one.
    return build_tree({
        "nodes": [{"id": 0, "t": 0, "parent": None}, {"id": 1, "t": 1, "parent": 0, "prob": 1.0}],
        "prices": {0: [1.7], 1: [float(np.nextafter(1.7, 2.0))]},
        "clock": {0: 0.0, 1: 1.0},
        "A": 1.0,
        "n_active": 1,
    })


def test_one_ulp_price_move_is_not_traded(log_field, bounded_field):
    # The dual prices this market with the single density Z = 1, so weak
    # duality caps u(1) at min_y v(y) + y, which is u(1) itself.
    model = one_ulp_model()
    sol = solve_primal(model, bounded_field, 1.0, 1e-10)
    assert not sol.H.any()
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    for y in (0.5, 1.0, 2.0):
        assert sol.value <= solve_dual(model, bounded_field, y, 1e-10).value + y + 1e-12
    assert solve_primal(model, log_field, 1.0, 1e-10).value == pytest.approx(0.0, abs=1e-12)


RANDOM_TREE_FIELDS = {
    "log": UtilityField(family="log"),
    "power-1": UtilityField(family="power", gamma=-1.0),
    "power0.5": UtilityField(family="power", gamma=0.5),
    "bounded": UtilityField(family="bounded", alpha=0.5, beta=2.0),
}


class TestRandomTrees:
    @staticmethod
    def solve(model, field, xs):
        try:
            return [solve_primal(model, field, x, 1e-10) for x in xs]
        except InfeasibleMarketError:
            return None

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)),
        st.sampled_from(sorted(RANDOM_TREE_FIELDS)),
    )
    def test_weak_duality(self, model, family):
        field = RANDOM_TREE_FIELDS[family]
        sols = self.solve(model, field, (0.5, 1.0, 2.0))
        assume(sols is not None)
        for y in (0.3, 1.0, 3.0):
            v = solve_dual(model, field, y, 1e-10).value
            for sol in sols:
                u = sol.value
                assert u <= v + sol.x * y + 1e-8 * max(1.0, abs(u), abs(v))

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)),
        st.sampled_from(["log", "power-1", "power0.5"]),
    )
    def test_scaling_laws(self, model, family):
        # u(2x) = 2^gamma u(x) for power, u(x) + sum P dkappa w log 2 for log,
        # to within the two solutions' own residuals.
        field = RANDOM_TREE_FIELDS[family]
        sols = self.solve(model, field, (0.5, 1.0, 2.0))
        assume(sols is not None)
        tree, dk = model.tree, model.clock.dkappa
        mass = float(np.dot(tree.path_prob * dk, field.weight_array(list(tree.ids))))
        for lo, hi in zip(sols, sols[1:]):
            if field.family == "log":
                scale, want = 1.0, lo.value + mass * math.log(2.0)
            else:
                scale = 2.0**field.gamma
                want = scale * lo.value
            tol = hi.kkt_residual + scale * lo.kkt_residual + 1e-12 * max(1.0, abs(lo.value))
            assert abs(hi.value - want) <= tol


class TestWarmStart:
    """A solve started from another wealth's plan, scaled to x."""

    PARAMS = {"log": {}, "power": {"gamma": -1.5}, "bounded": {"alpha": 0.5, "beta": 2.0}}

    @staticmethod
    def assert_same(a, b):
        for name in ("c", "H", "X", "value", "kkt_residual", "y_estimate", "iterations"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)),
        st.sampled_from(sorted(PARAMS)),
        st.booleans(),
        st.floats(0.05, 20.0),
        st.floats(0.5, 2.0),
        st.integers(0, 2**32 - 1),
    )
    def test_warm_equals_cold(self, model, family, weighted, x0, ratio, seed):
        rng = np.random.default_rng(seed)
        tree = model.tree
        weights = {nid: float(rng.uniform(0.5, 2.0)) for nid in tree.ids} if weighted else None
        field = UtilityField(family=family, weights=weights, **self.PARAMS[family])
        try:
            start = solve_primal(model, field, x0, 1e-10)
        except InfeasibleMarketError:
            assume(False)
        x = x0 * ratio
        cold = solve_primal(model, field, x, 1e-10)
        warm = solve_primal(model, field, x, 1e-10, warm_start=start)
        tol = warm.kkt_residual + cold.kkt_residual + 1e-12 * max(1.0, abs(cold.value))
        assert abs(warm.value - cold.value) <= tol
        if family != "bounded":
            # The scaled plan is optimal.  One step certifies it; the barrier
            # on wealth parked at dead roots may take a few to recentre.
            assert warm.iterations <= cold.iterations
            if not build_geometry(model).dead_root_mask.any():
                assert warm.iterations == 1

    def test_start_from_another_model_is_ignored(self, binom1, bounded_field):
        twin = build_example_market(ExampleMarketSpec(1, (0.6,)))  # equal, not the same
        start = solve_primal(twin, bounded_field, 1.0)
        cold = solve_primal(binom1, bounded_field, 1.0)
        self.assert_same(solve_primal(binom1, bounded_field, 1.0, warm_start=start), cold)

    @pytest.mark.parametrize("spoil", ["rates", "holdings"])
    def test_start_outside_the_domain_falls_back(self, two_period_mid_clock, bounded_field,
                                                 spoil):
        # A negative spend leaves the domain; spoiled wealth and holdings no
        # longer finance the spend.
        model = two_period_mid_clock
        start = solve_primal(model, bounded_field, 1.0)
        obj = _PrimalObjective(build_geometry(model), bounded_field, 1.5)
        theta = start.theta.copy()
        spend = np.arange(theta.size) < obj.cols.size
        if spoil == "rates":
            theta[spend] *= -1.0
        else:
            theta[~spend] *= -1e3
        start = dataclasses.replace(start, theta=theta)
        sigma, nu = np.split(start.theta * 1.5, [obj.cols.size])
        nu[0] = 1.5
        assert not obj.usable(sigma, nu)
        cold = solve_primal(model, bounded_field, 1.5)
        self.assert_same(solve_primal(model, bounded_field, 1.5, warm_start=start), cold)


class TestDensityPlan:
    """A cold solve starts at c = I(y Z / w) on the gate's density Z."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)),
        st.sampled_from(sorted(TestWarmStart.PARAMS)),
        st.floats(0.1, 10.0),
        st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_the_rate_start(self, model, family, x, seed):
        rng = np.random.default_rng(seed)
        weights = {nid: float(rng.uniform(0.5, 2.0)) for nid in model.tree.ids}
        field = UtilityField(family=family, weights=weights, **TestWarmStart.PARAMS[family])
        try:
            sol = solve_primal(model, field, x, 1e-10)
        except InfeasibleMarketError:
            assume(False)
        # A fresh copy, so that the log and power reference is solved again,
        # from zero holdings and the rates x / (2 A).
        with mock.patch.object(primal_module, "_density_plan", lambda obj: None):
            ref = solve_primal(dataclasses.replace(model), field, x, 1e-10)
        tol = sol.kkt_residual + ref.kkt_residual + 1e-12 * max(1.0, abs(ref.value))
        assert abs(sol.value - ref.value) <= tol
        geo = build_geometry(model)
        internal, kids, _, _, keep = geo.markets()
        if kids.size == internal.size + keep.sum() and not geo.dead_root_mask.any():
            # Z is the only density, so the plan is optimal: one step
            # certifies it, and one more the scaled plan of log and power.
            assert sol.iterations <= 2

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(random_models(), random_models(martingale=True)),
        st.sampled_from(sorted(TestWarmStart.PARAMS)),
        st.booleans(),
        st.floats(0.1, 10.0),
        st.integers(0, 2**32 - 1),
    )
    def test_cold_start_is_financed(self, model, family, weighted, x, seed):
        # The projected plan, or the zero-holdings fallback, can start Newton;
        # where Z is the only density the plan is financed already, so the
        # projection keeps its spend.
        rng = np.random.default_rng(seed)
        weights = ({nid: float(rng.uniform(0.5, 2.0)) for nid in model.tree.ids}
                   if weighted else None)
        field = UtilityField(family=family, weights=weights, **TestWarmStart.PARAMS[family])
        geo = build_geometry(model)
        obj = _PrimalObjective(geo, field, x)
        try:
            sigma, nu = primal_module._cold_start(obj)
        except InfeasibleMarketError:
            assume(False)
        assert obj.usable(sigma, nu)
        internal, kids, _, _, keep = geo.markets()
        if kids.size == internal.size + keep.sum() and not geo.dead_root_mask.any():
            plan = primal_module._density_plan(obj)
            np.testing.assert_allclose(sigma, plan, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("family", sorted(TestWarmStart.PARAMS))
    def test_complete_tree_solves_in_one_step(self, family):
        model = binomial_model(6, 0.6, {t: 1.0 / 6.0 for t in range(1, 7)})
        weights = {nid: 1.0 + 0.1 * (nid % 7) for nid in model.tree.ids}
        field = UtilityField(family=family, weights=weights, **TestWarmStart.PARAMS[family])
        obj = _PrimalObjective(build_geometry(model), field, 1.0)
        steps = primal_module._maximize(obj, primal_module._cold_start(obj), False, 1e-10, 500)[1]
        assert steps == 1

    def test_dead_roots_start_from_zero_holdings(self, log_field):
        # Under the density plan a dead root receives no wealth, which is not
        # strictly inside the domain.
        model = binomial_two_period_partial_clock(up_subtree_only=True)
        geo = build_geometry(model)
        obj = _PrimalObjective(geo, log_field, 1.0)
        assert obj.n_dead
        _, nu = primal_module._cold_start(obj)
        assert not nu[1 + geo.markets()[0].size :].any()


SCALED_FIELDS = [UtilityField(family="log"), UtilityField(family="power", gamma=0.5),
                 UtilityField(family="power", gamma=-1.5)]


class TestScalingReference:
    """Log and power plans follow the exact scaling law in x: a reference
    solve at x = 1, scaled by x through ``warm_start``, is the optimum."""

    @staticmethod
    def model():
        return binomial_model(3, 0.6, {1: 1.0 / 3.0, 2: 1.0 / 3.0, 3: 1.0 / 3.0})

    @pytest.mark.parametrize("dead_roots", [False, True], ids=["consuming", "dead-roots"])
    @pytest.mark.parametrize("field", SCALED_FIELDS, ids=["log", "power0.5", "power-1.5"])
    def test_scaled_plans_follow_the_exact_law(self, field, dead_roots):
        if dead_roots:
            model = binomial_two_period_partial_clock(up_subtree_only=True)
            assert build_geometry(model).dead_root_mask.any()
        else:
            model = self.model()
        tree, dk = model.tree, model.clock.dkappa
        mass = float(np.dot(tree.path_prob * dk, field.weight_array(list(tree.ids))))
        # Both sides of the law sit one Newton step past the same state.
        ref = solve_primal(model, field, 1.0, 1e-10)
        one = solve_primal(model, field, 1.0, 1e-10, warm_start=ref)
        assert one.iterations == 1
        for x in (0.05, 0.5, 3.0, 20.0):
            sol = solve_primal(model, field, x, 1e-10, warm_start=ref)
            # The barrier on dead-root wealth scales with the plan, so one
            # step certifies the scaled plan on either tree.
            assert sol.iterations == 1
            np.testing.assert_allclose(sol.c, x * one.c, rtol=0, atol=1e-14 * np.max(sol.c))
            np.testing.assert_allclose(sol.H, x * one.H, rtol=0,
                                       atol=1e-14 * np.max(np.abs(sol.H)))
            if field.family == "log":
                scale, want = 1.0, one.value + mass * math.log(x)
            else:
                scale = x**field.gamma
                want = scale * one.value
            tol = sol.kkt_residual + scale * one.kkt_residual + 1e-14 * max(1.0, abs(want))
            assert abs(sol.value - want) <= tol

    def test_log_plans_match_the_closed_form(self, binom1, log_field):
        root = binom1.tree.root
        for x in (0.1, 0.5, 1.0, 4.0, 25.0):
            frac, value = analytic_log_binomial(0.6, x)
            sol = solve_primal(binom1, log_field, x, 1e-10)
            assert abs(sol.value - value) <= sol.kkt_residual + 1e-12 * max(1.0, abs(value))
            assert sol.H[root, 0] * binom1.assets.prices[root, 0] / x == pytest.approx(
                frac, abs=1e-10)

    def test_a_scale_beyond_the_float_range_raises_a_typed_error(self):
        # x^gamma sets the dead-root barrier's weights; at x = 1e-250 it
        # overflows for gamma = -1.5, and so would every utility value.
        model = binomial_two_period_partial_clock(up_subtree_only=True)
        with pytest.raises(ConvergenceError, match="scale overflows"):
            solve_primal(model, SCALED_FIELDS[2], 1e-250)

    def test_bounded_solves_keep_no_reference(self, bounded_field):
        model = self.model()
        for x in (0.5, 1.0, 2.0):
            solve_primal(model, bounded_field, x)
            solve_dual(model, bounded_field, x)
        assert "dual_reference" not in model._memo
        # No primal solve keeps a plan for later ones, whatever the field.
        for field in SCALED_FIELDS:
            for x in (0.5, 1.0, 2.0):
                solve_primal(model, field, x)
        assert "primal_reference" not in model._memo

    @pytest.mark.parametrize("field", SCALED_FIELDS[:2], ids=["log", "power0.5"])
    def test_solves_do_not_depend_on_earlier_solves(self, field):
        # On this tree the cold start is zero holdings, which takes many
        # steps; a solve at x = 5 on the same model must not shorten them.
        fresh = solve_primal(binomial_two_period_partial_clock(up_subtree_only=True),
                             field, 2.0, 1e-6)
        model = binomial_two_period_partial_clock(up_subtree_only=True)
        solve_primal(model, field, 5.0, 1e-10)
        later = solve_primal(model, field, 2.0, 1e-6)
        assert fresh.iterations > 1
        for name in ("c", "H", "X", "value", "iterations"):
            assert np.array_equal(getattr(fresh, name), getattr(later, name)), name


def tree_from_edges(edges, prices, clock, bound):
    """A tree from (id, parent id, prob) edges, root first, two active assets."""
    times = {edges[0][0]: 0}
    for nid, pid, _ in edges[1:]:
        times[nid] = times[pid] + 1
    return build_tree({
        "nodes": [{"id": edges[0][0], "t": 0, "parent": None}]
        + [{"id": nid, "t": times[nid], "parent": pid, "prob": p} for nid, pid, p in edges[1:]],
        "prices": prices,
        "clock": clock,
        "A": bound,
        "n_active": 2,
    })


# Node 1's two children have collinear price changes, so its market keeps one
# asset; nodes 2 and 6 have one child each, priced as the node itself.
# Trading the dropped direction, the primal ran out of Newton iterations.
COLLINEAR_PRIMAL = tree_from_edges(
    [(4, None, None), (1, 4, 0.3493927735244332), (2, 4, 0.21759163858127462),
     (6, 4, 0.4330155878942921), (0, 1, 0.31587296748213306), (3, 2, 1.0), (5, 6, 1.0),
     (7, 1, 0.6841270325178669)],
    {4: [2.080565236257827, 2.6732211112549193], 1: [1.5876555047398502, 1.6583887249879328],
     2: [2.716195790774662, 2.8104959044763134], 6: [1.8571483911192324, 3.095145479330946],
     0: [0.633699707207779, 3.4366312654980766], 3: [2.716195790774662, 2.8104959044763134],
     5: [1.8571483911192324, 3.095145479330946], 7: [2.048814713171031, 0.7987546365932443]},
    {4: 0.0, 1: 0.9025399634006415, 2: 0.0, 6: 0.0, 0: 0.7959493086839348, 3: 0.0, 5: 0.0,
     7: 0.5},
    2.0,
)


@pytest.mark.parametrize("family", sorted(RANDOM_TREE_FIELDS))
def test_primal_trades_only_the_kept_assets(family):
    field = RANDOM_TREE_FIELDS[family]
    for x in (0.5, 1.0, 2.0):
        sol = solve_primal(COLLINEAR_PRIMAL, field, x, 1e-10)
        assert sol.kkt_residual <= 1e-9
        assert admissibility_check(COLLINEAR_PRIMAL, sol.H, sol.c, x).passed


def test_holdings_span_only_the_kept_directions(log_field, bounded_field):
    # The root's two children have collinear price changes, and rounding
    # leaves a singular value of 2.5e-16, above a pseudo-inverse cutoff
    # relative to the largest one but below the market's.  Inverting it
    # put noise into the holdings, and the plan's wealth went negative.
    model = build_tree({
        "nodes": [{"id": 0, "t": 0, "parent": None},
                  {"id": 1, "t": 1, "parent": 0, "prob": 0.5661349921740436},
                  {"id": 2, "t": 1, "parent": 0, "prob": 0.43386500782595633}],
        "prices": {0: [1.2540730839091865, 3.016253317431587],
                   1: [1.5032106835577987, 2.9837854587483403],
                   2: [1.0056172976089772, 3.0486323215241353]},
        "clock": {0: 0.0, 1: 1.0, 2: 1.0},
        "A": 1.0,
        "n_active": 2,
    })
    for field in (log_field, bounded_field):
        for x in (0.5, 1.0, 2.0):
            sol = solve_primal(model, field, x, 1e-10)
            assert sol.kkt_residual <= 1e-12
            assert admissibility_check(model, sol.H, sol.c, x).passed


def test_untraded_holdings_keep_the_newton_step_exact():
    # 66 nodes with 14 dead roots and several nodes whose children's price
    # changes are collinear.  Kept as exactly singular variables, the
    # untraded holdings needed a ridge of 1e-12 times the dead-root barrier
    # curvature, and the last barrier stage crawled to 500 iterations.
    model = load_model(Path(__file__).with_name("data") / "collinear_dead_roots.json")
    for family in ("log", "power0.5"):
        for x in (0.5, 1.0, 2.0):
            sol = solve_primal(model, RANDOM_TREE_FIELDS[family], x, 1e-10)
            assert sol.kkt_residual <= 1e-8


@pytest.mark.parametrize("family", ["log", "power", "bounded"])
@pytest.mark.parametrize("market", ["collinear", "collinear-dead-roots"])
def test_warm_starts_on_partially_kept_markets(market, family):
    # Nodes whose markets keep some of their assets only: the warm start
    # reads the earlier plan in the Newton layout, where the dropped assets
    # have no slot, not the minimum-norm holdings spread over all of them.
    if market == "collinear":
        model = COLLINEAR_PRIMAL
    else:
        model = load_model(Path(__file__).with_name("data") / "collinear_dead_roots.json")
    keep = build_geometry(model).markets()[4]
    assert (keep.any(axis=1) & ~keep.all(axis=1)).any()
    field = UtilityField(family=family, **TestWarmStart.PARAMS[family])
    start = solve_primal(model, field, 1.0, 1e-10)
    cold = solve_primal(model, field, 2.0, 1e-10)
    warm = solve_primal(model, field, 2.0, 1e-10, warm_start=start)
    assert abs(warm.value - cold.value) <= warm.kkt_residual + cold.kkt_residual
    if family == "bounded":
        assert warm.iterations < cold.iterations
    else:
        assert warm.iterations == 1


def test_tiny_leaf_probability_terminal_clock(bounded_field):
    model = binomial_model(2, 0.999999, {2: 1.0})
    sol = solve_primal(model, bounded_field, 1.0)
    assert sol.kkt_residual <= 1e-8


def test_skewed_terminal_clock_power(power_field):
    sol = solve_primal(binomial_model(4, 0.99, {4: 1.0}), power_field, 1.0)
    assert sol.kkt_residual <= 1e-8


def test_line_search_starts_inside_the_domain(bounded_field):
    # On a ten-asset ladder some leaves consume next to nothing, so a whole
    # Newton step often leaves the domain; backtracking from the fraction to
    # the boundary certifies in 21 steps where halving from alpha = 1 took 43.
    spec = ExampleMarketSpec(10, tuple(0.55 + 0.035 * i for i in range(10)))
    sol = solve_primal(build_example_market(spec), bounded_field, 1.0, 1e-9)
    assert sol.kkt_residual <= 1e-9
    assert sol.iterations <= 25
