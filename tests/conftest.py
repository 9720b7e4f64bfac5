import pytest
from hypothesis import settings

from dualitylab.market import ExampleMarketSpec, build_example_market, build_tree
from dualitylab.utility import UtilityField


# A failing example prints the blob that @reproduce_failure replays, so a
# draw that fails once can be run again as it was.  What is drawn, and how
# many examples, stays as each test sets it.
settings.register_profile("dualitylab", print_blob=True)
settings.load_profile("dualitylab")


def single_path_model(dkappas, bound, n_assets=0):
    """Bond-only chain: one node per time, deterministic."""
    horizon = len(dkappas) - 1
    nodes = [{"id": 0, "t": 0, "parent": None}]
    for t in range(1, horizon + 1):
        nodes.append({"id": t, "t": t, "parent": t - 1, "prob": 1.0})
    return build_tree(
        {
            "nodes": nodes,
            "prices": {str(t): [1.0] * n_assets for t in range(horizon + 1)},
            "clock": {str(t): dkappas[t] for t in range(horizon + 1)},
            "A": bound,
            "n_active": n_assets,
        }
    )


def binomial_model(periods, p, clock, bound=1.0, up=2.0, down=0.5, copies=1):
    """Recombining-in-law (but tree-structured) iid binomial asset.

    ``clock`` maps time index to the increment applied at every node of that
    time; time 0 is forced to zero by construction.  With ``copies`` > 1 the
    asset is traded that many times over, as identical price columns.
    """
    nodes = [{"id": 0, "t": 0, "parent": None}]
    prices = {0: [1.0] * copies}
    dk = {0: 0.0}
    nid = 1
    level = [(0, 1.0)]
    for t in range(1, periods + 1):
        nxt = []
        for pid, s in level:
            for move, prob in ((up, p), (down, 1.0 - p)):
                nodes.append({"id": nid, "t": t, "parent": pid, "prob": prob})
                prices[nid] = [s * move] * copies
                dk[nid] = clock.get(t, 0.0)
                nxt.append((nid, s * move))
                nid += 1
        level = nxt
    return build_tree(
        {"nodes": nodes, "prices": prices, "clock": dk, "A": bound, "n_active": copies}
    )


def binomial_two_period_partial_clock(up_subtree_only: bool):
    """Two-period binomial where the clock dies early.

    With ``up_subtree_only`` the mass sits on the terminal leaves of the up
    subtree, so the whole down subtree is dead and wealth delivered to it is
    pure waste (its floor binds at the optimum).  Otherwise the mass sits at
    time 1 on both nodes and only the terminal tails are dead.
    """
    nodes = [{"id": 0, "t": 0, "parent": None}]
    prices = {0: [1.0]}
    clock = {0: 0.0}
    nid = 1
    level = [(0, 1.0)]
    for t in (1, 2):
        nxt = []
        for pid, s in level:
            for move, prob in ((2.0, 0.6), (0.5, 0.4)):
                nodes.append({"id": nid, "t": t, "parent": pid, "prob": prob})
                prices[nid] = [s * move]
                clock[nid] = 0.0
                nxt.append((nid, s * move))
                nid += 1
        level = nxt
    if up_subtree_only:
        clock[3] = 1.0  # children of the up node
        clock[4] = 1.0
    else:
        clock[1] = 1.0
        clock[2] = 1.0
    return build_tree(
        {"nodes": nodes, "prices": prices, "clock": clock, "A": 1.0, "n_active": 1}
    )


def trinomial_model():
    """One period, three states, one asset: an incomplete market."""
    nodes = [
        {"id": 0, "t": 0, "parent": None},
        {"id": 1, "t": 1, "parent": 0, "prob": 0.5},
        {"id": 2, "t": 1, "parent": 0, "prob": 0.3},
        {"id": 3, "t": 1, "parent": 0, "prob": 0.2},
    ]
    prices = {0: [1.0], 1: [2.0], 2: [1.0], 3: [0.5]}
    clock = {0: 0.0, 1: 1.0, 2: 1.0, 3: 1.0}
    return build_tree(
        {"nodes": nodes, "prices": prices, "clock": clock, "A": 1.0, "n_active": 1}
    )


def duplicate_asset_model(p=0.6):
    """Two identical assets on a one-period binomial tree."""
    nodes = [
        {"id": 0, "t": 0, "parent": None},
        {"id": 1, "t": 1, "parent": 0, "prob": p},
        {"id": 2, "t": 1, "parent": 0, "prob": 1.0 - p},
    ]
    prices = {0: [1.0, 1.0], 1: [2.0, 2.0], 2: [0.5, 0.5]}
    clock = {0: 0.0, 1: 1.0, 2: 1.0}
    return build_tree(
        {"nodes": nodes, "prices": prices, "clock": clock, "A": 1.0, "n_active": 2}
    )


def arbitrage_model():
    """Both states beat the bond: no martingale density exists."""
    nodes = [
        {"id": 0, "t": 0, "parent": None},
        {"id": 1, "t": 1, "parent": 0, "prob": 0.5},
        {"id": 2, "t": 1, "parent": 0, "prob": 0.5},
    ]
    prices = {0: [1.0], 1: [2.0], 2: [1.5]}
    clock = {0: 0.0, 1: 1.0, 2: 1.0}
    return build_tree(
        {"nodes": nodes, "prices": prices, "clock": clock, "A": 1.0, "n_active": 1}
    )


@pytest.fixture(scope="session")
def binom1():
    return build_example_market(ExampleMarketSpec(1, (0.6,)))


@pytest.fixture(scope="session")
def example2():
    return build_example_market(ExampleMarketSpec(2, (0.6, 0.7)))


@pytest.fixture(scope="session")
def example3():
    return build_example_market(ExampleMarketSpec(3, (0.55, 0.6, 0.65)))


@pytest.fixture(scope="session")
def bond_only_terminal():
    return single_path_model([0.0, 1.0], bound=1.0)


@pytest.fixture(scope="session")
def bond_two_dates():
    return single_path_model([0.0, 0.5, 0.5], bound=1.0)


@pytest.fixture(scope="session")
def two_period_terminal():
    return binomial_model(2, 0.6, {2: 1.0})


@pytest.fixture(scope="session")
def two_period_mid_clock():
    return binomial_model(2, 0.6, {1: 0.5, 2: 0.5})


@pytest.fixture(scope="session")
def trinomial():
    return trinomial_model()


@pytest.fixture(scope="session")
def duplicates():
    return duplicate_asset_model()


@pytest.fixture(scope="session")
def log_field():
    return UtilityField(family="log")


@pytest.fixture(scope="session")
def power_field():
    return UtilityField(family="power", gamma=0.5)


@pytest.fixture(scope="session")
def bounded_field():
    return UtilityField(family="bounded", alpha=0.5, beta=2.0)


@pytest.fixture(scope="session")
def weighted_log_field():
    # Node ids of the one-period two-leaf markets.
    return UtilityField(family="log", weights={1: 2.0, 2: 0.5})


@pytest.fixture(params=["log", "power", "bounded"])
def any_field(request, log_field, power_field, bounded_field):
    return {"log": log_field, "power": power_field, "bounded": bounded_field}[
        request.param
    ]
