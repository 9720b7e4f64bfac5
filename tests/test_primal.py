import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualitylab.errors import ConvergenceError, DualityLabError, InfeasibleMarketError
from dualitylab.market import truncate
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
from test_treeops import random_models


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
        """-H summed term by term over geo.rows, as the dense solver formed it."""
        tree, clock = geo.tree, geo.model.clock
        base = field.base()
        neg_h = np.zeros((geo.n_vars, geo.n_vars))
        for k, pos in enumerate(geo.trimmed):
            r = geo.rows[k]
            s = x + r @ theta
            if geo.eff_mask[pos]:
                w = field.weight(tree.ids[pos])
                u2 = float(base.u_second(s / clock.dkappa[pos]))
                neg_h -= tree.path_prob[pos] * w * u2 / clock.dkappa[pos] * np.outer(r, r)
            elif geo.dead_root_mask[pos] and mu > 0.0:
                neg_h += mu / s**2 * np.outer(r, r)
        for pos, j in geo.c_index.items():
            w = field.weight(tree.ids[pos])
            u2 = float(base.u_second(theta[j]))
            neg_h[j, j] -= tree.path_prob[pos] * clock.dkappa[pos] * w * u2
        return neg_h

    @staticmethod
    def interior_point(obj, geo, rng):
        theta = np.zeros(geo.n_vars)
        theta[obj.mid_idx] = obj.x / (2.0 * geo.model.clock.bound)
        kick = rng.normal(size=geo.n_vars) * rng.uniform(0.1, 1.0)
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
        assume(geo.n_vars > 0)
        obj = _PrimalObjective(geo, field, 1.3)
        theta = self.interior_point(obj, geo, rng)

        g, a, pd = obj.grad_curv(theta, mu)
        neg_h = self.dense_neg_hessian(geo, field, 1.3, theta, mu)
        np.testing.assert_allclose(
            np.einsum("t,ti,tj->ij", a, geo.rows, geo.rows) + np.diag(pd),
            neg_h, rtol=1e-12, atol=1e-12 * np.max(np.abs(neg_h)),
        )
        ridge = ridge_rel * float(np.max(np.diag(neg_h)))
        m = neg_h + ridge * np.eye(geo.n_vars)
        if np.linalg.cond(m) > 1e6:
            # Only a ridge-free system may be this ill-conditioned (redundant
            # assets, or branches whose only curvature is a vanished barrier);
            # the duplicated-asset test covers that case.
            assert ridge == 0.0
            return
        want = np.linalg.solve(m, g)
        got = obj.system.solve(g, a, pd, ridge)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_duplicated_assets_refused_at_zero_ridge(self, duplicates, log_field):
        # Identical price columns make the root's pivot block exactly singular.
        geo = build_geometry(duplicates)
        obj = _PrimalObjective(geo, log_field, 1.0)
        theta = np.zeros(geo.n_vars)
        g, a, pd = obj.grad_curv(theta, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            obj.system.solve(g, a, pd, 0.0)
        # The ridge schedule then finds a Newton step of the singular system.
        step, lam2 = _ascent_step(obj.system, g, a, pd)
        assert lam2 > 0.0
        neg_h = self.dense_neg_hessian(geo, log_field, 1.0, theta, 0.0)
        np.testing.assert_allclose(neg_h @ step, g, rtol=1e-9)

    def test_nonfinite_curvature_exhausts_ridge_schedule(self, two_period_mid_clock, log_field):
        geo = build_geometry(two_period_mid_clock)
        obj = _PrimalObjective(geo, log_field, 1.0)
        theta = np.zeros(geo.n_vars)
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
