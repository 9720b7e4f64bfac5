"""Finite scenario-tree markets: event tree, asset prices, consumption clock.

A market is a rooted event tree over times 0..T.  Every node carries a
one-step transition probability, a strictly positive price vector for the
risky assets (the riskless bond is the numeraire, identically 1, and never
appears explicitly), and a nonnegative clock increment that meters when
consumption accrues.  Only the first ``n_active`` assets are tradable; the
rest are carried along so a family of nested markets can be studied by
truncation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetError, ClockError, MalformedTreeError, PriceError

DEFAULT_MAX_NODES = 2_000_000
MAX_BINOMIAL_ASSETS = 20
PROB_SUM_TOL = 1e-9
CLOCK_BOUND_TOL = 1e-9

_ENV_MAX_NODES = "DUALITYLAB_MAX_NODES"


def max_nodes() -> int:
    """Tree-size guard; override with the DUALITYLAB_MAX_NODES env var."""
    raw = os.environ.get(_ENV_MAX_NODES)
    if raw is None:
        return DEFAULT_MAX_NODES
    try:
        limit = int(raw)
    except ValueError as exc:
        raise BudgetError(f"{_ENV_MAX_NODES} must be an integer, got {raw!r}") from exc
    if limit <= 0:
        raise BudgetError(f"{_ENV_MAX_NODES} must be positive, got {limit}")
    return limit


class ScenarioTree:
    """Rooted event tree with one-step transition probabilities.

    Nodes are given as ``(id, t, parent_id, prob)`` records.  The root has
    ``parent_id is None`` and probability 1.  Internally nodes are sorted by
    time so a parent always precedes its children; all public arrays are
    indexed by that position, and ``index_of`` maps external ids to
    positions.

    Invariants enforced at construction:

    - exactly one root, at t = 0; every other node names an existing parent
      one time step earlier;
    - transition probabilities lie in (0, 1] and the children of each node
      sum to 1 (within ``PROB_SUM_TOL``);
    - all leaves share the terminal time T, so path probabilities are a
      probability measure on leaves with every atom strictly positive.
    """

    def __init__(self, nodes):
        records = list(nodes)
        if not records:
            raise MalformedTreeError("tree has no nodes")
        if len(records) > max_nodes():
            raise BudgetError(
                f"tree has {len(records)} nodes, exceeding the guard of {max_nodes()}"
            )

        seen = set()
        for rec in records:
            if rec[0] in seen:
                raise MalformedTreeError(f"duplicate node id {rec[0]!r}")
            seen.add(rec[0])

        try:
            records.sort(key=lambda rec: (rec[1], rec[0]))
        except TypeError as exc:
            raise MalformedTreeError(
                "node ids must be mutually comparable (do not mix types)"
            ) from exc
        self.n_nodes = len(records)
        self.ids = [rec[0] for rec in records]
        self.index_of = {nid: k for k, nid in enumerate(self.ids)}
        self.times = np.array([rec[1] for rec in records], dtype=np.int64)

        roots = [k for k, rec in enumerate(records) if rec[2] is None]
        if len(roots) != 1:
            raise MalformedTreeError(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]
        if self.times[self.root] != 0:
            raise MalformedTreeError("root must sit at time 0")

        parent = np.full(self.n_nodes, -1, dtype=np.int64)
        cond_prob = np.ones(self.n_nodes)
        for k, rec in enumerate(records):
            nid, t, pid, prob = rec
            if pid is None:
                continue
            if pid not in self.index_of:
                raise MalformedTreeError(f"node {nid!r} names unknown parent {pid!r}")
            p = self.index_of[pid]
            if self.times[p] != t - 1:
                raise MalformedTreeError(
                    f"node {nid!r} at t={t} has parent at t={self.times[p]}"
                )
            if not (0.0 < prob <= 1.0) or not math.isfinite(prob):
                raise MalformedTreeError(
                    f"transition probability of node {nid!r} must lie in (0, 1], got {prob}"
                )
            parent[k] = p
            cond_prob[k] = prob
        self.parent = parent
        self.cond_prob = cond_prob

        children: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for k in range(self.n_nodes):
            if parent[k] >= 0:
                children[parent[k]].append(k)
        self.children = [np.array(ch, dtype=np.int64) for ch in children]

        for k, ch in enumerate(self.children):
            if ch.size == 0:
                continue
            total = float(cond_prob[ch].sum())
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise MalformedTreeError(
                    f"children of node {self.ids[k]!r} have probabilities summing "
                    f"to {total:.12g}, expected 1"
                )

        self.is_leaf = np.array([len(ch) == 0 for ch in self.children])
        self.leaves = np.flatnonzero(self.is_leaf)
        self.horizon = int(self.times.max())
        if not np.all(self.times[self.leaves] == self.horizon):
            raise MalformedTreeError("all leaves must share the terminal time")

        # Positions at date t >= 1, one slice per date; contiguous because
        # positions are sorted by time.
        bounds = np.searchsorted(self.times, np.arange(1, self.horizon + 2))
        self.levels = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

        path_prob = cond_prob.copy()
        for lv in self.levels:
            path_prob[lv] *= path_prob[parent[lv]]
        self.path_prob = path_prob
        for a in (self.times, parent, cond_prob, path_prob, self.is_leaf, self.leaves,
                  *self.children):
            a.flags.writeable = False  # what is derived from the tree stays valid

    def internal_nodes(self) -> np.ndarray:
        return np.flatnonzero(~self.is_leaf)


def _accumulate_down(values, parent, levels):
    """Add to every node the accumulated value of its parent, in place.

    ``levels`` are the row slices of the dates t >= 1 in root-to-leaf order
    and ``parent`` maps each row to its parent's row, so after the call each
    row holds the sum of its own entry and those of all its ancestors.
    Works row-wise on 2-D ``values``.  Returns ``values``.
    """
    for lv in levels:
        values[lv] += values[parent[lv]]
    return values


class AssetProcess:
    """Per-node price vectors for the risky assets, aligned with a tree."""

    def __init__(self, tree: ScenarioTree, prices_by_id):
        self.tree = tree
        rows = []
        n_assets = None
        for nid in tree.ids:
            if nid not in prices_by_id:
                raise PriceError(f"no prices for node {nid!r}")
            row = np.asarray(prices_by_id[nid], dtype=float)
            if row.ndim != 1:
                raise PriceError(f"prices of node {nid!r} must be a flat list")
            if n_assets is None:
                n_assets = row.size
            elif row.size != n_assets:
                raise PriceError(
                    f"node {nid!r} carries {row.size} prices, expected {n_assets}"
                )
            rows.append(row)
        self.prices = np.vstack(rows) if rows else np.zeros((0, 0))
        self.prices.flags.writeable = False
        self.n_assets = int(n_assets or 0)
        if self.n_assets and (
            not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0.0)
        ):
            raise PriceError("asset prices must be finite and strictly positive")


class StochasticClock:
    """Nonnegative clock increments per node with a pathwise total bound A.

    Construction only checks shapes; condition failures are reported by
    :func:`validate_clock` so that invalid clocks can still be inspected.
    """

    def __init__(self, tree: ScenarioTree, dkappa_by_id, bound: float):
        self.tree = tree
        self.bound = float(bound)
        dk = np.zeros(tree.n_nodes)
        for nid, val in dkappa_by_id.items():
            if nid not in tree.index_of:
                raise ClockError(f"clock references unknown node {nid!r}")
            dk[tree.index_of[nid]] = float(val)
        self.dkappa = dk

        self.cumulative = _accumulate_down(dk.copy(), tree.parent, tree.levels)
        dk.flags.writeable = self.cumulative.flags.writeable = False

    def terminal_totals(self) -> np.ndarray:
        """Total clock mass accumulated along each path, indexed by leaf."""
        return self.cumulative[self.tree.leaves]

    def expected_total(self) -> float:
        t = self.tree
        return float(np.dot(t.path_prob[t.leaves], self.terminal_totals()))


@dataclass(frozen=True)
class ClockCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ClockReport:
    checks: tuple[ClockCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ClockCheck]:
        return [c for c in self.checks if not c.passed]


def validate_clock(clock: StochasticClock, tree: ScenarioTree) -> ClockReport:
    """Report-only check of the clock conditions against a tree.

    Conditions: zero increment at the root, nonnegative increments, pathwise
    totals within the bound A, and positive probability of a positive total.
    """
    checks = []
    root_dk = clock.dkappa[tree.root]
    checks.append(
        ClockCheck(
            "starts_at_zero",
            root_dk == 0.0,
            f"root increment {root_dk:.6g}",
        )
    )
    min_dk = float(clock.dkappa.min()) if clock.dkappa.size else 0.0
    checks.append(
        ClockCheck(
            "nondecreasing",
            min_dk >= 0.0 and bool(np.all(np.isfinite(clock.dkappa))),
            f"min increment {min_dk:.6g}",
        )
    )
    totals = clock.cumulative[tree.leaves]
    worst = float(totals.max()) if totals.size else 0.0
    bound_ok = (
        math.isfinite(clock.bound)
        and clock.bound > 0.0
        and worst <= clock.bound + CLOCK_BOUND_TOL * max(1.0, clock.bound)
    )
    checks.append(
        ClockCheck(
            "bounded_total",
            bound_ok,
            f"max path total {worst:.6g} vs bound {clock.bound:.6g}",
        )
    )
    mass = float(np.dot(tree.path_prob[tree.leaves], (totals > 0.0).astype(float)))
    checks.append(
        ClockCheck(
            "positive_mass",
            mass > 0.0,
            f"P[total > 0] = {mass:.6g}",
        )
    )
    return ClockReport(tuple(checks))


@dataclass(frozen=True)
class MarketModel:
    """Immutable bundle of tree, prices, clock, and the tradable-asset count.

    Their arrays are read-only, so ``_memo`` keeps what the solvers derive
    from the model for its lifetime; no entry refers back to the model, and
    a ``truncate`` copy starts empty."""

    tree: ScenarioTree
    assets: AssetProcess
    clock: StochasticClock
    n_active: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.assets.tree is not self.tree or self.clock.tree is not self.tree:
            raise MalformedTreeError("assets and clock must be built on the same tree")
        if not (0 <= self.n_active <= self.assets.n_assets):
            raise MalformedTreeError(
                f"n_active must lie in [0, {self.assets.n_assets}], got {self.n_active}"
            )

    @property
    def n_assets(self) -> int:
        return self.assets.n_assets

    @property
    def n_nodes(self) -> int:
        return self.tree.n_nodes


def truncate(model: MarketModel, n: int) -> MarketModel:
    """Restrict trading to the first ``n`` assets; prices are retained."""
    if not (0 <= n <= model.n_assets):
        raise MalformedTreeError(
            f"truncation level must lie in [0, {model.n_assets}], got {n}"
        )
    return replace(model, n_active=n)


def build_tree(spec: dict) -> MarketModel:
    """Build and validate a market from its dict description.

    The accepted schema matches the JSON file format::

        {"nodes": [{"id", "t", "parent", "prob"}, ...],
         "prices": {node id: [asset prices]},
         "clock":  {node id: increment},
         "A": bound, "n_active": count}

    ``prob`` may be omitted for the root.  Map keys may be strings (as JSON
    requires) or the node ids themselves.
    """
    try:
        node_specs = spec["nodes"]
        prices = spec["prices"]
        clock_map = spec["clock"]
        bound = spec["A"]
    except (KeyError, TypeError) as exc:
        raise MalformedTreeError(f"model spec missing required field: {exc}") from exc

    records = []
    for entry in node_specs:
        nid = entry["id"]
        parent = entry.get("parent")
        prob = entry.get("prob", 1.0)
        records.append((nid, int(entry["t"]), parent, 1.0 if parent is None else float(prob)))
    tree = ScenarioTree(records)

    assets = AssetProcess(tree, _coerce_keys(prices, tree.index_of))
    clock = StochasticClock(tree, _coerce_keys(clock_map, tree.index_of), float(bound))
    report = validate_clock(clock, tree)
    if not report.passed:
        bad = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise ClockError(f"clock conditions failed ({bad})")

    n_active = int(spec.get("n_active", assets.n_assets))
    return MarketModel(tree=tree, assets=assets, clock=clock, n_active=n_active)


def _coerce_keys(mapping, names) -> dict:
    """Map JSON string keys back onto node ids.

    A key found in ``names`` (a container of node ids) names that node and
    stays; any other becomes its int form where it has one.
    """
    out = {}
    for key, val in mapping.items():
        if key in names:
            out[key] = val
            continue
        try:
            coerced = int(key)
        except (TypeError, ValueError):
            coerced = key
        out[coerced] = val
    return out


def model_to_dict(model: MarketModel) -> dict:
    """Serialize a model to the JSON schema accepted by :func:`build_tree`."""
    tree = model.tree
    nodes = []
    for k in range(tree.n_nodes):
        entry = {"id": tree.ids[k], "t": int(tree.times[k])}
        if tree.parent[k] >= 0:
            entry["parent"] = tree.ids[tree.parent[k]]
            entry["prob"] = float(tree.cond_prob[k])
        else:
            entry["parent"] = None
        nodes.append(entry)
    return {
        "nodes": nodes,
        "prices": {str(tree.ids[k]): list(map(float, model.assets.prices[k])) for k in range(tree.n_nodes)},
        "clock": {str(tree.ids[k]): float(model.clock.dkappa[k]) for k in range(tree.n_nodes)},
        "A": model.clock.bound,
        "n_active": model.n_active,
    }


def load_model(path) -> MarketModel:
    with open(path, "r", encoding="utf-8") as fh:
        return build_tree(json.load(fh))


def save_model(model: MarketModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class ExampleMarketSpec:
    """One-period market of independent two-point assets.

    Asset i moves its unit initial price to 2 with probability ``p[i]`` and
    to 1/2 otherwise, independently across assets; the up-probabilities must
    be strictly increasing, so the last asset always has the greatest
    expected return.
    """

    n_assets: int
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(q) for q in self.p))
        if self.n_assets < 1:
            raise MalformedTreeError("need at least one asset")
        if len(self.p) != self.n_assets:
            raise MalformedTreeError(
                f"expected {self.n_assets} up-probabilities, got {len(self.p)}"
            )
        for q in self.p:
            if not (0.0 < q < 1.0):
                raise MalformedTreeError(f"up-probabilities must lie in (0, 1), got {q}")
        for a, b in zip(self.p, self.p[1:]):
            if not a < b:
                raise MalformedTreeError(
                    f"up-probabilities must be strictly increasing, got {a} before {b}"
                )


UP_FACTOR = 2.0
DOWN_FACTOR = 0.5


def build_example_market(spec: ExampleMarketSpec) -> MarketModel:
    """Materialize the independent-binomial family as a one-period tree.

    The tree has one root and 2**N leaves enumerated with asset 1 as the most
    significant bit (bit value 0 = up move).  The clock is a unit mass at the
    terminal time, so the induced problem is utility of terminal wealth.
    """
    n = spec.n_assets
    if n > MAX_BINOMIAL_ASSETS:
        raise BudgetError(
            f"{n} assets would enumerate {2 ** n} leaves; the guard allows "
            f"{MAX_BINOMIAL_ASSETS} assets"
        )
    if 2 ** n + 1 > max_nodes():
        raise BudgetError(
            f"{2 ** n + 1} nodes would exceed the tree-size guard of {max_nodes()}"
        )

    p = np.array(spec.p)
    records = [(0, 0, None, 1.0)]
    prices = {0: [1.0] * n}
    clock = {0: 0.0}
    for code in range(2 ** n):
        bits = np.array([(code >> (n - 1 - i)) & 1 for i in range(n)])
        up = bits == 0
        prob = float(np.prod(np.where(up, p, 1.0 - p)))
        nid = code + 1
        records.append((nid, 1, 0, prob))
        prices[nid] = list(np.where(up, UP_FACTOR, DOWN_FACTOR).astype(float))
        clock[nid] = 1.0

    tree = ScenarioTree(records)
    assets = AssetProcess(tree, prices)
    clk = StochasticClock(tree, clock, bound=1.0)
    return MarketModel(tree=tree, assets=assets, clock=clk, n_active=n)
