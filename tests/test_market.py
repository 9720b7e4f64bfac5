import json

import numpy as np
import pytest

from dualitylab.errors import BudgetError, ClockError, MalformedTreeError, PriceError
from dualitylab.market import (
    ExampleMarketSpec,
    build_example_market,
    build_tree,
    load_model,
    model_to_dict,
    save_model,
    truncate,
    validate_clock,
)


def one_period_spec(prices_up=2.0, prices_down=0.5, p=0.6, dk=1.0):
    return {
        "nodes": [
            {"id": 0, "t": 0, "parent": None},
            {"id": 1, "t": 1, "parent": 0, "prob": p},
            {"id": 2, "t": 1, "parent": 0, "prob": 1.0 - p},
        ],
        "prices": {"0": [1.0], "1": [prices_up], "2": [prices_down]},
        "clock": {"0": 0.0, "1": dk, "2": dk},
        "A": 1.0,
        "n_active": 1,
    }


class TestBuildTree:
    def test_one_period_binomial(self):
        model = build_tree(one_period_spec())
        assert model.n_nodes == 3
        assert model.tree.horizon == 1
        leaves = model.tree.leaves
        assert sorted(model.tree.path_prob[leaves]) == pytest.approx([0.4, 0.6])
        assert sorted(model.assets.prices[leaves, 0]) == pytest.approx([0.5, 2.0])

    def test_probabilities_must_sum_to_one(self):
        spec = one_period_spec()
        spec["nodes"][1]["prob"] = 0.5
        spec["nodes"][2]["prob"] = 0.6
        with pytest.raises(MalformedTreeError):
            build_tree(spec)

    def test_zero_clock_rejected(self):
        spec = one_period_spec(dk=0.0)
        with pytest.raises(ClockError):
            build_tree(spec)

    def test_orphan_parent_rejected(self):
        spec = one_period_spec()
        spec["nodes"][2]["parent"] = 99
        with pytest.raises(MalformedTreeError):
            build_tree(spec)

    def test_nonpositive_price_rejected(self):
        spec = one_period_spec(prices_down=0.0)
        with pytest.raises(PriceError):
            build_tree(spec)

    def test_ragged_leaf_times_rejected(self):
        spec = one_period_spec()
        spec["nodes"].append({"id": 3, "t": 2, "parent": 1, "prob": 1.0})
        spec["prices"]["3"] = [1.0]
        spec["clock"]["3"] = 0.0
        with pytest.raises(MalformedTreeError):
            build_tree(spec)

    def test_duplicate_ids_rejected(self):
        spec = one_period_spec()
        spec["nodes"].append({"id": 1, "t": 1, "parent": 0, "prob": 0.1})
        with pytest.raises(MalformedTreeError):
            build_tree(spec)

    def test_clock_bound_violation_rejected(self):
        spec = one_period_spec(dk=1.5)
        with pytest.raises(ClockError):
            build_tree(spec)


class TestExampleMarket:
    def test_single_asset_layout(self, binom1):
        leaves = binom1.tree.leaves
        assert leaves.size == 2
        assert binom1.assets.prices[binom1.tree.root, 0] == 1.0
        assert sorted(binom1.tree.path_prob[leaves]) == pytest.approx([0.4, 0.6])
        assert sorted(binom1.assets.prices[leaves, 0]) == pytest.approx([0.5, 2.0])
        assert binom1.clock.dkappa[leaves] == pytest.approx([1.0, 1.0])

    def test_two_assets_product_probabilities(self, example2):
        leaves = example2.tree.leaves
        probs = example2.tree.path_prob[leaves]
        # Asset 1 is the most significant bit, bit value 0 means an up move.
        assert probs == pytest.approx([0.42, 0.18, 0.28, 0.12])

    def test_decreasing_probabilities_rejected(self):
        with pytest.raises(MalformedTreeError):
            ExampleMarketSpec(2, (0.7, 0.6))

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(MalformedTreeError):
            ExampleMarketSpec(1, (1.0,))

    def test_enumeration_guard(self):
        p = tuple(0.4 + 0.02 * i for i in range(21))
        with pytest.raises(BudgetError):
            build_example_market(ExampleMarketSpec(21, p))

    def test_pairwise_independence(self, example3):
        # E[1_{i up} 1_{j up}] factorizes over the leaf measure.
        tree = example3.tree
        leaves = tree.leaves
        probs = tree.path_prob[leaves]
        up = example3.assets.prices[leaves] == 2.0
        p = (0.55, 0.6, 0.65)
        for i in range(3):
            assert float(probs @ up[:, i]) == pytest.approx(p[i], abs=1e-12)
            for j in range(i + 1, 3):
                joint = float(probs @ (up[:, i] & up[:, j]))
                assert joint == pytest.approx(p[i] * p[j], abs=1e-12)

    def test_leaf_probabilities_sum_to_one(self, example3):
        total = float(example3.tree.path_prob[example3.tree.leaves].sum())
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTruncate:
    def test_identity_and_degenerate(self, example3):
        assert truncate(example3, 3).n_active == 3
        assert truncate(example3, 0).n_active == 0

    @pytest.mark.parametrize("j,k", [(0, 1), (1, 2), (2, 3), (1, 3)])
    def test_nested_truncation(self, example3, j, k):
        assert truncate(truncate(example3, k), j).n_active == truncate(example3, j).n_active

    def test_out_of_range(self, example3):
        with pytest.raises(MalformedTreeError):
            truncate(example3, 4)
        with pytest.raises(MalformedTreeError):
            truncate(example3, -1)

    def test_prices_retained(self, example3):
        sub = truncate(example3, 1)
        assert sub.assets is example3.assets


@pytest.mark.parametrize("owner, name", [("assets", "prices"), ("clock", "dkappa"),
                                         ("tree", "path_prob")])
def test_model_arrays_are_read_only(owner, name):
    # The solvers keep what they derive from a model for its lifetime, so
    # the arrays it is derived from must not change under them.
    model = build_tree(one_period_spec())
    values = getattr(getattr(model, owner), name)
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0.5


class TestClockValidation:
    def test_terminal_unit_mass_passes(self, binom1):
        assert validate_clock(binom1.clock, binom1.tree).passed

    def test_spread_clock_passes(self, bond_two_dates):
        assert validate_clock(bond_two_dates.clock, bond_two_dates.tree).passed

    def test_bound_violation_reported_not_raised(self):
        from dualitylab.market import ScenarioTree, StochasticClock

        tree = ScenarioTree([(0, 0, None, 1.0), (1, 1, 0, 1.0), (2, 2, 1, 1.0)])
        clock = StochasticClock(tree, {0: 0.0, 1: 0.75, 2: 0.75}, bound=1.0)
        report = validate_clock(clock, tree)
        assert not report.passed
        assert [c.name for c in report.failures()] == ["bounded_total"]

    def test_root_increment_reported(self, binom1):
        from dualitylab.market import StochasticClock

        clock = StochasticClock(binom1.tree, {0: 0.5, 1: 0.5, 2: 0.5}, bound=1.0)
        report = validate_clock(clock, binom1.tree)
        assert not report.passed
        assert "starts_at_zero" in [c.name for c in report.failures()]


class TestJsonRoundTrip:
    def test_round_trip(self, example2, tmp_path):
        path = tmp_path / "model.json"
        save_model(example2, path)
        loaded = load_model(path)
        assert loaded.n_nodes == example2.n_nodes
        assert loaded.n_active == example2.n_active
        np.testing.assert_allclose(loaded.tree.path_prob, example2.tree.path_prob)
        np.testing.assert_allclose(loaded.assets.prices, example2.assets.prices)
        np.testing.assert_allclose(loaded.clock.dkappa, example2.clock.dkappa)

    def test_schema_field_names(self, binom1):
        doc = model_to_dict(binom1)
        assert set(doc) == {"nodes", "prices", "clock", "A", "n_active"}
        assert set(doc["nodes"][0]) >= {"id", "t", "parent"}
        assert set(doc["nodes"][1]) == {"id", "t", "parent", "prob"}

    def test_string_keys_accepted(self, binom1, tmp_path):
        doc = model_to_dict(binom1)
        path = tmp_path / "m.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.assets.prices, binom1.assets.prices)


def test_max_nodes_env_override(monkeypatch):
    monkeypatch.setenv("DUALITYLAB_MAX_NODES", "4")
    p = (0.4, 0.5, 0.6)
    with pytest.raises(BudgetError):
        build_example_market(ExampleMarketSpec(3, p))
    monkeypatch.setenv("DUALITYLAB_MAX_NODES", "not-a-number")
    with pytest.raises(BudgetError):
        build_example_market(ExampleMarketSpec(3, p))
