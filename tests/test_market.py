import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitylab import market
from dualitylab.dual import solve_dual
from dualitylab.errors import BudgetError, ClockError, MalformedTreeError, PriceError
from dualitylab.market import (
    ExampleMarketSpec,
    build_example_market,
    build_tree,
    load_model,
    model_to_dict,
    quotient,
    save_model,
    truncate,
    validate_clock,
)
from dualitylab.primal import solve_primal
from dualitylab.utility import UtilityField, node_weights

from conftest import binomial_model
from test_treeops import random_models


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


def _set(path, value):
    """A mutation of ``one_period_spec()`` that sets ``spec[path...] = value``
    (or deletes the key when ``value`` is ``DELETE``)."""
    def apply(spec):
        *head, last = path
        for key in head:
            spec = spec[key]
        if value is DELETE:
            del spec[last]
        else:
            spec[last] = value
    return apply


DELETE = object()

# Malformed model specs: the mutation of one_period_spec(), the typed error
# build_tree raises and what its message names.
MALFORMED_SPECS = {
    "A-not-a-number": (_set(["A"], "big"), ClockError, "clock bound A"),
    "clock-value-not-a-number": (_set(["clock", "1"], "abc"), ClockError, "node 1"),
    "clock-a-list": (_set(["clock"], [0.0, 1.0, 1.0]), ClockError, "clock must map"),
    "clock-value-beyond-float": (_set(["clock", "1"], 10 ** 400), ClockError, "node 1"),
    "prob-not-a-number": (_set(["nodes", 1, "prob"], "x"), MalformedTreeError, "node 1"),
    "prob-null": (_set(["nodes", 1, "prob"], None), MalformedTreeError, "node 1"),
    "n_active-not-a-number": (_set(["n_active"], "one"), MalformedTreeError, "n_active"),
    "nodes-not-a-list": (_set(["nodes"], 5), MalformedTreeError, "nodes must be a list"),
    "node-entry-not-an-object": (_set(["nodes", 2], 5), MalformedTreeError, "node entry 2"),
    "node-without-id": (_set(["nodes", 2, "id"], DELETE), MalformedTreeError, "node entry 2"),
    "node-id-a-list": (_set(["nodes", 2, "id"], [2]), MalformedTreeError, "node entry 2"),
    "node-without-t": (_set(["nodes", 1, "t"], DELETE), MalformedTreeError, "node entry 1"),
    "t-not-an-integer": (_set(["nodes", 1, "t"], 1.7), MalformedTreeError, "node 1"),
    "t-not-a-number": (_set(["nodes", 1, "t"], "one"), MalformedTreeError, "node 1"),
    "t-beyond-float": (_set(["nodes", 1, "t"], 10 ** 400), MalformedTreeError, "node 1"),
    "t-beyond-int64": (_set(["nodes", 1, "t"], 10 ** 20), MalformedTreeError, "node 1"),
    "price-not-a-number": (_set(["prices", "1"], ["a"]), PriceError, "node 1"),
    "prices-a-list": (_set(["prices"], [[1.0], [2.0], [0.5]]), PriceError, "prices must map"),
}


class TestBuildTree:
    @pytest.mark.parametrize("case", MALFORMED_SPECS)
    def test_malformed_spec_raises_typed_error(self, case):
        mutate, error, names = MALFORMED_SPECS[case]
        spec = one_period_spec()
        mutate(spec)
        with pytest.raises(error, match=names):
            build_tree(spec)

    @pytest.mark.parametrize("t", [1, 1.0, "1"])
    def test_whole_number_times_are_read_as_ints(self, t):
        spec = one_period_spec()
        spec["nodes"][1]["t"] = t
        assert build_tree(spec).tree.times.tolist() == [0, 1, 1]

    def test_file_that_is_not_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"nodes": [')
        with pytest.raises(MalformedTreeError, match="not valid JSON"):
            load_model(path)

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

    def test_node_guard_comes_before_parsing(self, monkeypatch):
        # The entry past the guard is malformed, but the count alone refuses
        # the spec.
        spec = one_period_spec()
        spec["nodes"].append(5)
        monkeypatch.setenv("DUALITYLAB_MAX_NODES", "3")
        with pytest.raises(BudgetError, match="4 nodes"):
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


LADDER = (0.55, 0.6, 0.65, 0.7, 0.75)
QUOTIENT_TOL = 1e-9


def _values(model, field):
    """u(1) and v(1) at ``QUOTIENT_TOL``."""
    return (solve_primal(model, field, 1.0, QUOTIENT_TOL).value,
            solve_dual(model, field, 1.0, QUOTIENT_TOL).value)


def _refine(model, pick, q):
    """``model`` refined by an unobserved coin: the subtree of position
    ``pick`` copied under its parent, with the same prices and clock.  The
    original keeps q (>= 1/2) of its conditional probability p and the copy
    the exact rest, so the two sum back to p bit for bit.  Returns the
    refined model and the map from each copied id to its copy's."""
    tree = model.tree
    inside = np.zeros(tree.n_nodes, dtype=bool)
    inside[pick] = True
    for k in range(pick + 1, tree.n_nodes):
        inside[k] = inside[tree.parent[k]]
    offset = max(tree.ids) + 1
    twin = {tree.ids[k]: tree.ids[k] + offset for k in np.flatnonzero(inside)}
    p = float(tree.cond_prob[pick])
    spec = model_to_dict(model)
    for entry in list(spec["nodes"]):
        nid = entry["id"]
        if nid not in twin:
            continue
        copy = dict(entry, id=twin[nid], parent=twin.get(entry["parent"], entry["parent"]))
        if nid == tree.ids[pick]:
            entry["prob"] = q * p
            copy["prob"] = p - entry["prob"]
        spec["nodes"].append(copy)
        for part in ("prices", "clock"):
            spec[part][str(twin[nid])] = spec[part][str(nid)]
    return build_tree(spec), twin


class TestQuotient:
    @pytest.mark.parametrize("N, n", [(N, n) for N in range(1, 6) for n in range(N)])
    def test_ladder_level_keeps_one_leaf_per_traded_outcome(self, N, n, bounded_field):
        full = truncate(build_example_market(ExampleMarketSpec(N, LADDER[:N])), n)
        merged = quotient(full, np.ones(full.n_nodes))
        assert merged.n_nodes == 2**n + 1
        assert merged.n_active == n
        if n:
            small = build_example_market(ExampleMarketSpec(n, LADDER[:n]))
            assert np.array_equal(merged.assets.prices, small.assets.prices)
            np.testing.assert_allclose(merged.tree.path_prob, small.tree.path_prob,
                                       rtol=0.0, atol=1e-14)
        else:
            np.testing.assert_allclose(merged.tree.path_prob, 1.0, rtol=0.0, atol=1e-14)
        for got, want in zip(_values(merged, bounded_field), _values(full, bounded_field)):
            assert got == pytest.approx(want, abs=2.0 * QUOTIENT_TOL * (1.0 + abs(want)))

    @pytest.mark.parametrize("model", [
        pytest.param(lambda: build_example_market(ExampleMarketSpec(3, LADDER[:3])),
                     id="full-ladder"),
        pytest.param(lambda: binomial_model(3, 0.6, {3: 1.0}), id="binomial"),
    ])
    def test_nothing_to_merge_returns_the_model(self, model):
        model = model()
        assert quotient(model, np.ones(model.n_nodes)) is model
        with pytest.raises(MalformedTreeError, match="node weights"):
            quotient(model, np.ones(model.n_nodes - 1))

    @pytest.mark.parametrize("N", [1, 4, 8])
    def test_ladder_returns_before_the_walk(self, N, monkeypatch):
        # No two siblings of a full ladder share their prices, so the model
        # comes back before the walk numbers a single date's classes.
        ladder = build_example_market(ExampleMarketSpec(N, np.linspace(0.55, 0.9, N)))
        monkeypatch.setattr(market, "_date_classes", None)
        assert quotient(ladder, np.ones(ladder.n_nodes)) is ladder

    @pytest.mark.parametrize("q, n_nodes", [(0.6, 4), (0.5, 7)])
    def test_children_probabilities_tell_siblings_apart(self, q, n_nodes):
        # Nodes 1 and 2 look alike and so do their children, two by two;
        # they merge only when their children's probabilities agree too.
        nodes = [(0, 0, None, 1.0), (1, 1, 0, 0.5), (2, 1, 0, 0.5),
                 (3, 2, 1, 0.6), (4, 2, 1, 0.4), (5, 2, 2, q), (6, 2, 2, 1.0 - q)]
        model = build_tree({
            "nodes": [{"id": i, "t": t, "parent": p, "prob": r} for i, t, p, r in nodes],
            "prices": {i: [2.0 if i in (3, 5) else 0.5 if i in (4, 6) else 1.0]
                       for i, *_ in nodes},
            "clock": {i: float(t == 2) for i, t, *_ in nodes},
            "A": 1.0,
        })
        merged = quotient(model, np.ones(model.n_nodes))
        assert merged.n_nodes == n_nodes
        if n_nodes == model.n_nodes:
            assert merged is model
        else:
            assert merged.tree.ids == [0, 1, 3, 4]
            assert merged.tree.cond_prob.tolist() == [1.0, 1.0, 0.6, 0.4]

    def test_alike_children_summing_past_one_merge_into_probability_one(self, log_field):
        # The three children differ only in the untraded second asset, and
        # their probabilities sum to 1 + 1e-12, inside the tree's tolerance.
        probs = (0.333333333334, 0.333333333333, 0.333333333334)
        model = build_tree({
            "nodes": [{"id": 0, "t": 0, "parent": None}]
                     + [{"id": i, "t": 1, "parent": 0, "prob": p}
                        for i, p in enumerate(probs, start=1)],
            "prices": {0: [1.0, 1.0], 1: [1.0, 2.0], 2: [1.0, 1.0], 3: [1.0, 0.5]},
            "clock": {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0},
            "A": 1.0,
            "n_active": 1,
        })
        assert sum(probs) > 1.0
        merged = quotient(model, np.ones(model.n_nodes))
        assert merged.tree.ids == [0, 1]
        assert merged.tree.cond_prob.tolist() == [1.0, 1.0]
        for got, want in zip(_values(merged, log_field), _values(model, log_field)):
            assert got == pytest.approx(want, abs=2.0 * QUOTIENT_TOL * (1.0 + abs(want)))

    def test_levels_read_weight_keys_against_the_model(self):
        # Ids "0" and "1" differ only in the untraded asset, so level 1 merges
        # "1" into "0"; read against the level's own ids, the weight key "1"
        # would then name the leaf 1.
        nodes = [(0, 0, None, 1.0), ("0", 1, 0, 0.5), ("1", 1, 0, 0.5),
                 (1, 2, "0", 0.6), (2, 2, "0", 0.4), (3, 2, "1", 0.6), (4, 2, "1", 0.4)]
        model = build_tree({
            "nodes": [{"id": i, "t": t, "parent": p, "prob": q} for i, t, p, q in nodes],
            "prices": {0: [1.0, 1.0], "0": [1.0, 2.0], "1": [1.0, 0.5], 1: [2.0, 2.0],
                       2: [0.5, 2.0], 3: [2.0, 0.5], 4: [0.5, 0.5]},
            "clock": {i: float(t == 2) for i, t, *_ in nodes},
            "A": 1.0,
        })
        field = UtilityField(family="log", weights={"0": 2.0, "1": 2.0})
        level = truncate(model, 1)
        merged = quotient(level, node_weights(model, field))
        assert merged.tree.ids == [0, "0", 1, 2]
        assert node_weights(merged, field).tolist() == [1.0, 2.0, 1.0, 1.0]
        got, want = solve_primal(merged, field, 1.0).value, solve_primal(level, field, 1.0).value
        assert got == pytest.approx(want, rel=1e-9)
        # A field first read on the level, and the level of a level, read the
        # key "1" as the merged node too.
        other = UtilityField(family="log", weights={"1": 3.0})
        assert node_weights(merged, other).tolist() == [1.0] * 4
        again = quotient(truncate(merged, 0), node_weights(merged, field))
        assert again.tree.ids == [0, "0", 1]
        assert node_weights(again, other).tolist() == [1.0] * 3

    @settings(max_examples=12, deadline=None)
    @given(random_models(martingale=True), st.data())
    def test_undoes_an_unobserved_coin(self, model, data):
        # Weights drawn per node tell every pair of siblings of the draw
        # apart, so only the refinement's copy can merge.
        tree = model.tree
        pick = data.draw(st.integers(1, tree.n_nodes - 1), label="pick")
        q = data.draw(st.floats(0.5, 0.95), label="q")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        weights = dict(zip(tree.ids, rng.uniform(0.5, 2.0, tree.n_nodes).tolist()))
        field = UtilityField(family="log", weights=weights)
        assert quotient(model, field.weight_array(tree.ids)) is model

        refined, twin = _refine(model, pick, q)
        ids = refined.tree.ids
        same = UtilityField(family="log",
                            weights={**weights, **{twin[n]: weights[n] for n in twin}})
        merged = quotient(refined, same.weight_array(ids))
        assert merged.tree.ids == tree.ids
        for got, want in zip(_values(merged, same), _values(model, field)):
            assert got == pytest.approx(want, abs=2.0 * QUOTIENT_TOL * (1.0 + abs(want)))

        top = twin[tree.ids[pick]]
        apart = UtilityField(family="log", weights={**same.weights, top: 2.5})
        assert quotient(refined, apart.weight_array(ids)) is refined


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

        tree = ScenarioTree([0, 1, 2], [0, 1, 2], [-1, 0, 1], [1.0, 1.0, 1.0])
        clock = StochasticClock(tree, [0.0, 0.75, 0.75], bound=1.0)
        report = validate_clock(clock, tree)
        assert not report.passed
        assert [c.name for c in report.failures()] == ["bounded_total"]

    def test_root_increment_reported(self, binom1):
        from dualitylab.market import StochasticClock

        clock = StochasticClock(binom1.tree, [0.5, 0.5, 0.5], bound=1.0)
        report = validate_clock(clock, binom1.tree)
        assert not report.passed
        assert "starts_at_zero" in [c.name for c in report.failures()]


# Arrays for ScenarioTree(ids, times, parent, cond_prob) with one fault each,
# and what the message names: the first bad position where two are bad.
BAD_TREE_ARRAYS = [
    (([0, 1, 1], [0, 1, 1], [-1, 0, 0], [1.0, 0.5, 0.5]), "duplicate node id 1"),
    (([0, 1, 2], [0, 1, 1], [-1, 0], [1.0, 0.5, 0.5]), "expected 3 times"),
    (([0, 1, 2], [0, 1, 0], [-1, 0, 0], [1.0, 0.5, 0.5]), "sorted by time"),
    (([0, 1, 2], [0, 1, 1], [-1, -1, 0], [1.0, 0.5, 0.5]), "exactly one root, found 2"),
    (([0, 1, 2], [1, 1, 2], [-1, 0, 1], [1.0, 1.0, 1.0]), "root must sit at time 0"),
    (([0, 1, 2], [0, 1, 1], [-1, 3, 7], [1.0, 0.5, 0.5]), "node 1 names unknown parent position 3"),
    (([0, 1, 2, 3], [0, 1, 1, 2], [-1, 0, 1, 0], [1.0, 0.5, 0.5, 1.0]),
     "node 2 at t=1 has parent at t=1"),
    (([0, 1, 2], [0, 1, 1], [-1, 0, 0], [1.0, 1.5, -0.5]),
     "transition probability of node 1 must lie in (0, 1], got 1.5"),
    (([0, 1, 2, 3, 4], [0, 1, 1, 2, 2], [-1, 0, 0, 1, 2], [1.0, 0.5, 0.4, 1.0, 0.9]),
     "children of node 0 have probabilities summing to 0.9"),
    (([0, 1, 2, 3], [0, 1, 1, 2], [-1, 0, 0, 1], [1.0, 0.5, 0.5, 1.0]),
     "all leaves must share the terminal time"),
    (([0, 1, 2], [0, 1.7, 1], [-1, 0, 0], [1.0, 0.5, 0.5]),
     "time of node 1 must be a 64-bit integer, got 1.7"),
    (([0, 1, 2], [0, 1, 2 ** 63], [-1, 0, 0], [1.0, 0.5, 0.5]),
     "time of node 2 must be a 64-bit integer"),
    (([0, 1, 2], [0, 1, 10 ** 20], [-1, 0, 0], [1.0, 0.5, 0.5]), "time of node 2 must be numeric"),
    (([0, 1, 2], [0, None, 1], [-1, 0, 0], [1.0, 0.5, 0.5]),
     "time of node 1 must be numeric, got None"),
    (([0, 1, 2], [0, 1, 1], [-1, 0.9, 0], [1.0, 0.5, 0.5]),
     "parent position of node 1 must be a 64-bit integer, got 0.9"),
    (([0, 1, 2], [0, 1, 1], [-1, 0, 0], [1.0, "p", 0.5]),
     "transition probability of node 1 must be numeric, got 'p'"),
    (([0, 1, 2], [0, 1, 1], [-1, 0, 0], [1.0, None, 0.5]),
     "transition probability of node 1 must be numeric, got None"),
]


class TestArrayConstructors:
    @pytest.mark.parametrize("arrays, names", BAD_TREE_ARRAYS)
    def test_tree_names_the_first_bad_node(self, arrays, names):
        from dualitylab.market import ScenarioTree

        with pytest.raises(MalformedTreeError) as err:
            ScenarioTree(*arrays)
        assert names in str(err.value)

    def test_prices_and_clock_take_one_row_per_node(self, binom1):
        from dualitylab.market import AssetProcess, StochasticClock

        with pytest.raises(PriceError, match="expected 3 rows"):
            AssetProcess(binom1.tree, [1.0, 2.0, 0.5])
        with pytest.raises(PriceError, match="finite and strictly positive"):
            AssetProcess(binom1.tree, [[1.0], [2.0], [0.0]])
        with pytest.raises(ClockError, match="expected 3 clock increments"):
            StochasticClock(binom1.tree, [0.0, 1.0], bound=1.0)

    @pytest.mark.parametrize("prices, names", [
        ([["a"], [1.0], [1.0]], "prices of node 0 must be numeric"),
        ([[1.0], [2.0, None], [0.5]], "prices of node 1 must be numeric"),
        ([[1.0], [2.0, 1.0], [0.5]], "one row of equal length per node"),
    ])
    def test_prices_that_are_not_numbers_raise_price_error(self, binom1, prices, names):
        from dualitylab.market import AssetProcess

        with pytest.raises(PriceError, match=names):
            AssetProcess(binom1.tree, prices)

    @pytest.mark.parametrize("dkappa", [[0, "x", 1], [0, None, 1], [0, 10 ** 400, 1]])
    def test_clock_increments_that_are_not_numbers_raise_clock_error(self, binom1, dkappa):
        from dualitylab.market import StochasticClock

        with pytest.raises(ClockError, match="clock increment of node 1 must be numeric"):
            StochasticClock(binom1.tree, dkappa, bound=1.0)

    def test_arrays_of_a_built_model_rebuild_it(self, trinomial):
        from dualitylab.market import AssetProcess, ScenarioTree

        tree = trinomial.tree
        again = ScenarioTree(tree.ids, tree.times, tree.parent, tree.cond_prob)
        assert again.path_prob.tobytes() == tree.path_prob.tobytes()
        assert again.is_leaf.tolist() == tree.is_leaf.tolist()
        prices = AssetProcess(again, trinomial.assets.prices).prices
        assert prices.tobytes() == trinomial.assets.prices.tobytes()


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

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_models(), random_models(skew=True)))
    def test_dict_round_trip_keeps_every_bit(self, model):
        loaded = build_tree(model_to_dict(model))
        assert loaded.tree.ids == model.tree.ids
        for owner, name in [("tree", "times"), ("tree", "parent"), ("tree", "cond_prob"),
                            ("tree", "path_prob"), ("assets", "prices"), ("clock", "dkappa")]:
            got, want = (getattr(getattr(m, owner), name) for m in (loaded, model))
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

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
