import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualitylab import treeops
from dualitylab.dual import solve_dual
from dualitylab.errors import ConvergenceError, DualityLabError, InfeasibleMarketError
from dualitylab.market import build_tree, load_model, truncate
from dualitylab.primal import (
    _ascent_step,
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

    def test_affine_field_rejected(self, binom1):
        with pytest.raises(DualityLabError):
            solve_primal(binom1, UtilityField(family="affine-test"), 1.0)


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
    """The Riccati step against a dense solve of the same Newton system."""

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
    def interior_point(obj, geo, rng):
        theta = np.zeros(obj.system.n_vars)
        theta[obj.mid_idx] = obj.x / (2.0 * geo.model.clock.bound)
        kick = rng.normal(size=theta.size) * rng.uniform(0.1, 1.0)
        while not obj.in_domain(theta + kick):
            kick *= 0.5
        return theta + kick

    @settings(max_examples=200, deadline=None)
    @given(
        random_models(),
        st.sampled_from(["log", "power", "bounded"]),
        st.booleans(),
        st.sampled_from([0.0, 0.05]),
        st.sampled_from([0.0, 1e-3]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve(self, model, family, weighted, mu, ridge_rel, seed):
        rng = np.random.default_rng(seed)
        tree = model.tree
        weights = {nid: float(rng.uniform(0.5, 2.0)) for nid in tree.ids} if weighted else None
        params = {"log": {}, "power": {"gamma": -1.5}, "bounded": {"alpha": 0.5, "beta": 2.0}}
        field = UtilityField(family=family, weights=weights, **params[family])
        geo = build_geometry(model)
        obj = _PrimalObjective(geo, field, 1.3)
        assume(obj.system.n_vars > 0)
        theta = self.interior_point(obj, geo, rng)

        g, a, pd = obj.grad_curv(theta, mu)
        neg_h = self.dense_neg_hessian(geo, field, 1.3, theta, mu)
        rows = trimmed_rows(geo)[0]
        np.testing.assert_allclose(
            np.einsum("t,ti,tj->ij", a, rows, rows) + np.diag(pd),
            neg_h, rtol=1e-12, atol=1e-12 * np.max(np.abs(neg_h)),
        )
        ridge = ridge_rel * float(np.max(np.diag(neg_h)))
        m = neg_h + ridge * np.eye(obj.system.n_vars)
        if np.linalg.cond(m) > 1e6:
            # Only a ridge-free system may be this ill-conditioned (untraded
            # holdings, whose dense rows are zero, or branches whose only
            # curvature is a vanished barrier); the duplicated-asset test
            # covers the first case.
            assert ridge == 0.0
            return
        want = np.linalg.solve(m, g)
        got = obj.system.solve(g, a, pd, ridge)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_duplicated_asset_is_no_variable_of_the_step(self, duplicates, log_field):
        # The root's market keeps one of the two identical assets.  The other's
        # holding is no variable of the Newton system, which therefore solves
        # at zero ridge: the untraded holding does not move, and the step
        # solves the dense system, whose row for that holding is zero.
        geo = build_geometry(duplicates)
        obj = _PrimalObjective(geo, log_field, 1.0)
        theta = np.zeros(obj.system.n_vars)
        g, a, pd = obj.grad_curv(theta, 0.0)
        step = obj.system.solve(g, a, pd, 0.0)
        traded = traded_assets(geo)[duplicates.tree.root]
        assert traded.sum() == 1 and not step[:2][~traded].any()
        neg_h = self.dense_neg_hessian(geo, log_field, 1.0, theta, 0.0)
        np.testing.assert_allclose(neg_h @ step, g, rtol=1e-9)

    def test_nonfinite_curvature_exhausts_ridge_schedule(self, two_period_mid_clock, log_field):
        geo = build_geometry(two_period_mid_clock)
        obj = _PrimalObjective(geo, log_field, 1.0)
        theta = np.zeros(obj.system.n_vars)
        theta[obj.mid_idx] = 0.5
        g, a, pd = obj.grad_curv(theta, 0.0)
        a[obj.eff_t[0]] = np.nan
        with pytest.raises(ConvergenceError):
            _ascent_step(obj.system, g, a, pd)


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


@pytest.mark.xfail(
    raises=ConvergenceError,
    reason="a leaf probability of 1e-6 on a terminal-clock tree: the Newton "
    "iteration exhausts its 500-step budget (ROADMAP item 5)",
)
def test_tiny_leaf_probability_terminal_clock(bounded_field):
    model = binomial_model(2, 0.999999, {2: 1.0})
    sol = solve_primal(model, bounded_field, 1.0)
    assert sol.kkt_residual <= 1e-8
