import math

import numpy as np
import pytest

from dualitylab.errors import DualityLabError
from dualitylab.utility import (
    FAMILIES,
    UtilityField,
    check_inada,
    conjugate,
    eval_utility,
    field_from_spec,
    field_to_spec,
    inverse_marginal,
    marginal,
)


# Fields of every family, with power on both sides of 0.
EVERY_FAMILY = {
    "log": UtilityField(family="log"),
    "power0.5": UtilityField(family="power", gamma=0.5),
    "power-1.5": UtilityField(family="power", gamma=-1.5),
    "bounded0.5,2": UtilityField(family="bounded", alpha=0.5, beta=2.0),
    "bounded0.4,3": UtilityField(family="bounded", alpha=0.4, beta=3.0),
}


def bisect_inverse(u_prime, y, lo=1e-12, hi=1e12, grow=16.0, ratio_tol=1e-12):
    """Solve u_prime(x) = y for a decreasing marginal by bisection in log x
    on a geometrically expanded bracket: the reference the closed-form
    inverse marginals are checked against."""
    while float(u_prime(lo)) < y:
        lo /= grow
        assert lo > 1e-300, f"could not bracket the inverse marginal at y={y}"
    while float(u_prime(hi)) > y:
        hi *= grow
        assert hi < 1e300, f"could not bracket the inverse marginal at y={y}"
    while hi / lo - 1.0 > ratio_tol:
        mid = math.sqrt(lo * hi)
        if float(u_prime(mid)) >= y:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def weighted(field, w, node=7):
    return UtilityField(family=field.family, gamma=field.gamma, alpha=field.alpha,
                        beta=field.beta, weights={node: w})


def grid_conjugate_oracle(field, y, lo=1e-6, hi=1e3, points=60_000):
    """Brute-force sup_x (u(x) - x y) over a dense log grid."""
    xs = np.geomspace(lo, hi, points)
    base = field.base()
    return float(np.max(base.u(xs) - xs * y))


class TestEval:
    def test_log_at_one(self, log_field):
        assert eval_utility(log_field, 0, None, 1.0) == 0.0

    def test_power_analytic(self, power_field):
        assert eval_utility(power_field, 0, None, 4.0) == pytest.approx(4.0)

    def test_log_zero_limit(self, log_field):
        assert eval_utility(log_field, 0, None, 0.0) == -math.inf

    def test_bounded_zero_limit(self, bounded_field):
        assert eval_utility(bounded_field, 0, None, 0.0) == 0.0

    @pytest.mark.parametrize("field", EVERY_FAMILY.values(), ids=EVERY_FAMILY)
    @pytest.mark.parametrize("w", [1.0, 0.3, 4.0])
    def test_zero_limit_is_the_weighted_base_value(self, field, w):
        # u(0) is -inf for log and power gamma < 0 and 0 otherwise; the
        # weight scales the finite limit and keeps the infinite one.
        limit = -math.inf if field.family == "log" or (field.gamma or 1.0) < 0.0 else 0.0
        assert eval_utility(weighted(field, w), 0, 7, 0.0) == limit

    def test_negative_argument_rejected(self, any_field):
        with pytest.raises(DualityLabError):
            eval_utility(any_field, 0, None, -1.0)

    def test_bounded_is_bounded(self, bounded_field):
        sup = bounded_field.base().sup_u
        assert eval_utility(bounded_field, 0, None, 1e12) < sup
        assert eval_utility(bounded_field, 0, None, 1e12) == pytest.approx(sup, abs=1e-5)


@pytest.mark.parametrize("s", [0.03, 0.5, 7.0])
def test_degree_of_homogeneity(any_field, s):
    # u(s c) = s^d u(c) for power, u(c) + ln s for log; bounded has none.
    base, c = any_field.base(), np.array([0.2, 1.0, 3.5])
    d = any_field.degree
    if any_field.family == "bounded":
        assert d is None
    elif d == 0.0:
        np.testing.assert_allclose(base.u(s * c), base.u(c) + math.log(s), rtol=1e-14)
    else:
        np.testing.assert_allclose(base.u(s * c), s**d * base.u(c), rtol=1e-14)


class TestMarginal:
    def test_log(self, log_field):
        assert marginal(log_field, 0, None, 2.0) == pytest.approx(0.5)

    def test_power(self, power_field):
        assert marginal(power_field, 0, None, 4.0) == pytest.approx(0.5)

    def test_bounded_spliced_piece(self, bounded_field):
        assert marginal(bounded_field, 0, None, 0.25) == pytest.approx(2.0)

    def test_nonpositive_rejected(self, any_field):
        with pytest.raises(DualityLabError):
            marginal(any_field, 0, None, 0.0)

    @pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 2.5, 40.0])
    def test_matches_finite_differences(self, any_field, x):
        h = 1e-6 * x
        fd = (
            eval_utility(any_field, 0, None, x + h)
            - eval_utility(any_field, 0, None, x - h)
        ) / (2 * h)
        assert marginal(any_field, 0, None, x) == pytest.approx(fd, rel=1e-6)

    def test_strictly_decreasing(self, any_field):
        xs = np.geomspace(1e-3, 1e3, 50)
        vals = [marginal(any_field, 0, None, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestInverseMarginal:
    def test_log(self, log_field):
        assert inverse_marginal(log_field, 0, None, 0.5) == pytest.approx(2.0)

    def test_power(self, power_field):
        assert inverse_marginal(power_field, 0, None, 0.5) == pytest.approx(4.0)

    def test_nonpositive_rejected(self, any_field):
        with pytest.raises(DualityLabError):
            inverse_marginal(any_field, 0, None, 0.0)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_round_trip(self, any_field, x):
        y = marginal(any_field, 0, None, x)
        assert inverse_marginal(any_field, 0, None, y) == pytest.approx(x, rel=1e-9)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_round_trip_bisection(self, x):
        # The closed form agrees with bisection on the marginal, plain and
        # weighted, in every family.
        for field in EVERY_FAMILY.values():
            for w in (1.0, 2.5):
                wf = weighted(field, w)
                y = marginal(wf, 0, 7, x)
                numeric = bisect_inverse(lambda c: w * field.base().u_prime(c), y)
                assert numeric == pytest.approx(x, rel=1e-9)
                assert inverse_marginal(wf, 0, 7, y) == pytest.approx(numeric, rel=1e-9)

    def test_weighted_round_trip(self, weighted_log_field):
        y = marginal(weighted_log_field, 0, 1, 3.0)
        assert inverse_marginal(weighted_log_field, 0, 1, y) == pytest.approx(3.0, rel=1e-9)


class TestConjugate:
    def test_log_analytic(self, log_field):
        assert conjugate(log_field).eval(0, None, 1.0) == pytest.approx(-1.0)

    def test_power_analytic(self, power_field):
        assert conjugate(power_field).eval(0, None, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("y", [0.05, 0.5, 1.0, 2.0, 20.0])
    def test_bounded_against_grid_oracle(self, bounded_field, y):
        oracle = grid_conjugate_oracle(bounded_field, y)
        got = conjugate(bounded_field).eval(0, None, y)
        assert got == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("y", [0.05, 0.5, 2.0])
    def test_numeric_strategy_matches_analytic(self, y):
        # v(y) = u(x) - x y at the x bisection finds for u'(x) = y.
        for field in EVERY_FAMILY.values():
            x = bisect_inverse(field.base().u_prime, y)
            numeric = eval_utility(field, 0, None, x) - x * y
            assert conjugate(field).eval(0, None, y) == pytest.approx(numeric, rel=1e-9)

    def test_bounded_right_limit_at_zero(self, bounded_field):
        sup = bounded_field.base().sup_u
        assert conjugate(bounded_field).eval(0, None, 0.0) == pytest.approx(sup)

    @pytest.mark.parametrize("w", [1.0, 0.3, 4.0])
    def test_negative_power_right_limit_at_zero(self, w):
        # For gamma < 0, sup u = 0, so v(0+) = 0, approached from below;
        # for gamma > 0, u is unbounded and v(0+) = +inf.
        neg = conjugate(weighted(UtilityField(family="power", gamma=-1.5), w))
        assert neg.eval(0, 7, 0.0) == 0.0
        assert -1e-6 < neg.eval(0, 7, 1e-12) < 0.0
        pos = conjugate(weighted(UtilityField(family="power", gamma=0.5), w))
        assert pos.eval(0, 7, 0.0) == math.inf

    def test_log_infinite_at_zero(self, log_field):
        assert conjugate(log_field).eval(0, None, 0.0) == math.inf

    @pytest.mark.parametrize("y", [0.03, 0.7, 5.0])
    def test_derivative_is_negative_inverse_marginal(self, any_field, y):
        cf = conjugate(any_field)
        h = 1e-5 * y
        fd = (cf.eval(0, None, y + h) - cf.eval(0, None, y - h)) / (2 * h)
        assert cf.derivative(0, None, y) == pytest.approx(fd, rel=1e-6)
        assert cf.derivative(0, None, y) == pytest.approx(
            -inverse_marginal(any_field, 0, None, y), rel=1e-12
        )

    @pytest.mark.parametrize("w", [0.25, 1.0, 3.5])
    @pytest.mark.parametrize("y", [0.1, 1.0, 8.0])
    def test_weighted_wrapper_identity(self, any_field, w, y):
        # conjugate of w*u(x) at y equals w * v(y / w)
        weighted = UtilityField(
            family=any_field.family,
            gamma=any_field.gamma,
            alpha=any_field.alpha,
            beta=any_field.beta,
            weights={7: w},
        )
        lhs = conjugate(weighted).eval(0, 7, y)
        rhs = w * conjugate(any_field).eval(0, None, y / w)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_weighted_wrapper_identity_numeric_path(self):
        # sup_x (w u(x) - x y) by bisection on w u'(x) = y matches the
        # weighted conjugate's closed form.
        for field in EVERY_FAMILY.values():
            wf = weighted(field, 1.7)
            for y in (0.2, 1.0, 4.0):
                x = bisect_inverse(lambda c: 1.7 * field.base().u_prime(c), y)
                numeric = eval_utility(wf, 0, 7, x) - x * y
                assert conjugate(wf).eval(0, 7, y) == pytest.approx(numeric, abs=1e-10)


class TestFenchelYoung:
    GRID = np.geomspace(1e-3, 1e3, 16)

    def test_inequality_and_equality_case(self, any_field):
        cf = conjugate(any_field)
        base = any_field.base()
        for x in self.GRID:
            ux = float(base.u(x))
            norm = max(1.0, abs(ux))
            for y in self.GRID:
                gap = float(cf.eval(0, None, float(y))) + x * y - ux
                assert gap >= -1e-8 * norm
            y_star = marginal(any_field, 0, None, float(x))
            gap_star = float(cf.eval(0, None, y_star)) + x * y_star - ux
            assert abs(gap_star) <= 1e-8 * norm

    def test_grid_biconjugation(self, any_field):
        # The y-grid minimizer of v(y) + x y brackets the marginal at x
        # whenever that marginal lies inside the grid's range.
        cf = conjugate(any_field)
        ys = self.GRID
        for x in ys[2:-2]:
            vals = np.array([cf.eval(0, None, float(y)) + x * y for y in ys])
            assert float(np.min(vals)) >= float(any_field.base().u(x)) - 1e-8
            y_star = marginal(any_field, 0, None, float(x))
            if not ys[0] <= y_star <= ys[-1]:
                continue
            k = int(np.argmin(vals))
            lo = ys[max(k - 1, 0)]
            hi = ys[min(k + 1, ys.size - 1)]
            assert lo * (1 - 1e-12) <= y_star <= hi * (1 + 1e-12)


class TestInada:
    def test_builtin_families_pass(self, any_field):
        report = check_inada(any_field)
        assert report.passed
        assert report.marginal_near_zero > 1e3
        assert report.marginal_near_infinity < 1e-3

    def test_affine_hook_fails_both_ends(self):
        class Affine:
            """u(x) = x: a flat marginal, steep at neither end."""

            def marginal(self, t, node, x):
                return 1.0

        report = check_inada(Affine())
        assert not report.passed
        assert not report.steep_at_zero
        assert not report.flat_at_infinity


class TestSpecParsing:
    def test_round_trip(self):
        field = UtilityField(family="bounded", alpha=0.3, beta=2.5, weights={4: 1.5})
        doc = field_to_spec(field)
        again = field_from_spec(doc)
        assert again.family == "bounded"
        assert again.alpha == 0.3
        assert again.beta == 2.5
        assert again.weight(4) == 1.5

    def test_rejects_affine(self):
        with pytest.raises(DualityLabError):
            field_from_spec({"family": "affine-test"})

    @pytest.mark.parametrize("family", [*FAMILIES, "affine-test", "Log", "", None])
    def test_constructor_accepts_exactly_the_families(self, family):
        params = {"gamma": 0.5} if family == "power" else {"alpha": 0.5, "beta": 2.0}
        if family in FAMILIES:
            assert UtilityField(family=family, **params).family == family
        else:
            with pytest.raises(DualityLabError, match="family must be one of"):
                UtilityField(family=family, **params)

    @pytest.mark.parametrize("weights, match", [
        ({1: "2"}, "weight of node 1 "),
        ({3: None}, "weight of node 3 "),
        ({1: 2.0, 4: [1.0]}, "weight of node 4 "),
        ([1, 2], "weights must map node ids"),
        ("12", "weights must map node ids"),
    ], ids=["str", "none", "list-value", "list", "str-weights"])
    def test_rejects_weights_that_are_not_numbers(self, weights, match):
        with pytest.raises(DualityLabError, match=match):
            UtilityField(family="log", weights=weights)

    def test_rejects_bad_params(self):
        with pytest.raises(DualityLabError):
            UtilityField(family="power", gamma=1.5)
        with pytest.raises(DualityLabError):
            UtilityField(family="power", gamma=0.0)
        with pytest.raises(DualityLabError):
            UtilityField(family="bounded", alpha=1.2, beta=2.0)
        with pytest.raises(DualityLabError):
            UtilityField(family="bounded", alpha=0.5, beta=1.0)
        with pytest.raises(DualityLabError):
            UtilityField(family="log", weights={1: -2.0})
        with pytest.raises(DualityLabError):
            UtilityField(family="no-such-family")

    @pytest.mark.parametrize("params", [
        {"family": "power", "gamma": math.nan},
        {"family": "power", "gamma": -math.inf},
        {"family": "power", "gamma": "0.5"},
        {"family": "bounded", "alpha": math.nan, "beta": 2.0},
        {"family": "bounded", "alpha": 0.5, "beta": math.inf},
        {"family": "bounded", "alpha": 0.5, "beta": "2"},
    ], ids=["gamma-nan", "gamma-neg-inf", "gamma-str", "alpha-nan", "beta-inf", "beta-str"])
    def test_rejects_parameters_that_are_not_finite_numbers(self, params):
        with pytest.raises(DualityLabError, match="real, finite number"):
            UtilityField(**params)

    def test_negative_gamma_allowed(self):
        field = UtilityField(family="power", gamma=-1.0)
        assert check_inada(field).passed
        y = marginal(field, 0, None, 2.0)
        assert inverse_marginal(field, 0, None, y) == pytest.approx(2.0, rel=1e-12)

    def test_weights_parsed_from_string_keys(self):
        field = field_from_spec({"family": "log", "weights": {"3": 2.0}})
        assert field.weight(3) == 2.0
