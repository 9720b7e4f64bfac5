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
from collections.abc import Hashable, Mapping
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


def _check_size(n: int) -> None:
    if n > max_nodes():
        raise BudgetError(f"tree has {n} nodes, exceeding the guard of {max_nodes()}")


def _refuse(bad: np.ndarray, message) -> None:
    """MalformedTreeError with ``message(k)`` at the first position k where ``bad`` holds."""
    if bad.any():
        raise MalformedTreeError(message(int(np.argmax(bad))))


def _numbers(values, error, what, ids) -> np.ndarray:
    """``values`` as a new float array, row k for node ``ids[k]``; else
    ``error`` naming the first node whose row holds anything but numbers."""
    try:
        a = np.array(values)
    except ValueError:  # rows of unequal length
        a = None
    if a is not None and a.dtype.kind in "biuf":
        return a.astype(float, copy=False)
    for nid, row in zip(ids, values if a is None or a.ndim else ()):
        try:
            if np.array(row).dtype.kind in "biuf":
                continue
        except ValueError:
            pass
        raise error(f"{what} of node {nid!r} must be numeric, got {row!r}")
    raise error(f"expected {what} as numbers, one row of equal length per node")


class ScenarioTree:
    """Rooted event tree with one-step transition probabilities.

    Built from position-aligned arrays in time order: node ``k`` has id
    ``ids[k]``, date ``times[k]``, parent position ``parent[k]`` (-1 for the
    root) and transition probability ``cond_prob[k]`` (the root's entry is
    read as 1).  All public arrays are indexed by position, so a parent
    always precedes its children, and ``index_of`` maps ids to positions.

    Invariants enforced at construction:

    - ids are distinct and dates nondecreasing;
    - exactly one root, at t = 0; every other node's parent sits one time
      step earlier;
    - transition probabilities lie in (0, 1] and the children of each node
      sum to 1 (within ``PROB_SUM_TOL``);
    - all leaves share the terminal time T, so path probabilities are a
      probability measure on leaves with every atom strictly positive.
    """

    def __init__(self, ids, times, parent, cond_prob):
        self.ids = ids = list(ids)
        n = self.n_nodes = len(ids)
        if not n:
            raise MalformedTreeError("tree has no nodes")
        _check_size(n)
        self.index_of = dict(zip(ids, range(n)))
        if len(self.index_of) < n:  # a repeated id maps to its last position
            dup = next(nid for k, nid in enumerate(ids) if self.index_of[nid] != k)
            raise MalformedTreeError(f"duplicate node id {dup!r}")
        times, parent, cond_prob = (
            _numbers(a, MalformedTreeError, what, ids) for a, what in
            ((times, "time"), (parent, "parent position"), (cond_prob, "transition probability")))
        if not times.shape == parent.shape == cond_prob.shape == (n,):
            raise MalformedTreeError(f"expected {n} times, parents and probabilities")
        for a, what in ((times, "time"), (parent, "parent position")):
            _refuse(~(np.abs(a) < 2.0 ** 63) | (a != np.trunc(a)),
                    lambda k: f"{what} of node {ids[k]!r} must be a 64-bit integer, got {a[k]}")
        times, parent = times.astype(np.int64), parent.astype(np.int64)
        _refuse(np.diff(times) < 0, lambda k: "nodes must be sorted by time")
        roots = np.flatnonzero(parent == -1)
        if roots.size != 1:
            raise MalformedTreeError(f"expected exactly one root, found {roots.size}")
        self.root = int(roots[0])
        _refuse(times[roots] != 0, lambda k: "root must sit at time 0")
        cond_prob[self.root] = 1.0
        _refuse((parent < -1) | (parent >= n),
                lambda k: f"node {ids[k]!r} names unknown parent position {parent[k]}")
        child = parent != -1
        up = np.where(child, parent, self.root)  # the root stands in as its own parent
        _refuse(child & (times[up] != times - 1),
                lambda k: f"node {ids[k]!r} at t={times[k]} has parent at t={times[up[k]]}")
        _refuse(~((cond_prob > 0.0) & (cond_prob <= 1.0)), lambda k: (
            f"transition probability of node {ids[k]!r} must lie in (0, 1], got {cond_prob[k]}"))
        sums = np.bincount(parent[child], weights=cond_prob[child], minlength=n)
        self.is_leaf = np.bincount(parent[child], minlength=n) == 0
        _refuse(~self.is_leaf & (np.abs(sums - 1.0) > PROB_SUM_TOL), lambda k: (
            f"children of node {ids[k]!r} have probabilities summing to {sums[k]:.12g}, "
            "expected 1"))
        self.leaves = np.flatnonzero(self.is_leaf)
        self.horizon = int(times[-1])
        _refuse(times[self.leaves] != self.horizon, lambda k: "all leaves must share the terminal time")
        self.times, self.parent, self.cond_prob = times, parent, cond_prob

        # Positions at date t >= 1, one slice per date; contiguous because
        # positions are sorted by time.
        bounds = np.searchsorted(times, np.arange(1, self.horizon + 2))
        self.levels = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

        path_prob = cond_prob.copy()
        for lv in self.levels:
            path_prob[lv] *= path_prob[parent[lv]]
        self.path_prob = path_prob
        for a in (times, parent, cond_prob, path_prob, self.is_leaf, self.leaves):
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


def _accumulate_up(values, parent, levels):
    """Add to every node the values of all its descendants, in place.

    The leaf-to-root twin of ``_accumulate_down``: over the dates from the
    last one back, each row adds its accumulated value into its parent's
    row, children in position order.  Works row-wise on 2-D ``values``.
    Returns ``values``.
    """
    for lv in reversed(levels):
        np.add.at(values, parent[lv], values[lv])
    return values


class AssetProcess:
    """Risky-asset prices aligned with a tree: row k of the
    ``(n_nodes, n_assets)`` array ``prices`` holds the prices at position k."""

    def __init__(self, tree: ScenarioTree, prices):
        self.tree = tree
        self.prices = _numbers(prices, PriceError, "prices", tree.ids)
        if self.prices.ndim != 2 or self.prices.shape[0] != tree.n_nodes:
            raise PriceError(f"expected {tree.n_nodes} rows of prices, got shape {self.prices.shape}")
        self.n_assets = self.prices.shape[1]
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0.0):
            raise PriceError("asset prices must be finite and strictly positive")
        self.prices.flags.writeable = False


class StochasticClock:
    """Nonnegative clock increments per node with a pathwise total bound A.

    ``dkappa`` is the increment at each tree position.  Construction only
    checks that they are numbers, one per node; condition failures are
    reported by :func:`validate_clock` so that invalid clocks can still be
    inspected.
    """

    def __init__(self, tree: ScenarioTree, dkappa, bound: float):
        self.tree = tree
        self.bound = _number(bound, "clock bound A", ClockError)
        self.dkappa = dk = _numbers(dkappa, ClockError, "clock increment", tree.ids)
        if dk.shape != (tree.n_nodes,):
            raise ClockError(f"expected {tree.n_nodes} clock increments, got shape {dk.shape}")
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
    root_dk = clock.dkappa[tree.root]
    min_dk = float(clock.dkappa.min())
    totals = clock.cumulative[tree.leaves]
    worst = float(totals.max())
    bound_ok = math.isfinite(clock.bound) and clock.bound > 0.0 and (
        worst <= clock.bound + CLOCK_BOUND_TOL * max(1.0, clock.bound))
    mass = float(np.dot(tree.path_prob[tree.leaves], (totals > 0.0).astype(float)))
    return ClockReport((
        ClockCheck("starts_at_zero", root_dk == 0.0, f"root increment {root_dk:.6g}"),
        ClockCheck("nondecreasing", min_dk >= 0.0 and bool(np.all(np.isfinite(clock.dkappa))),
                   f"min increment {min_dk:.6g}"),
        ClockCheck("bounded_total", bound_ok,
                   f"max path total {worst:.6g} vs bound {clock.bound:.6g}"),
        ClockCheck("positive_mass", mass > 0.0, f"P[total > 0] = {mass:.6g}"),
    ))


@dataclass(frozen=True)
class MarketModel:
    """Immutable bundle of tree, prices, clock, and the tradable-asset count.

    Their arrays are read-only, so ``_memo`` keeps what the solvers derive
    from the model for its lifetime; no entry refers back to the model.  A
    ``truncate`` copy starts empty but for what :func:`weight_ids` reads."""

    tree: ScenarioTree
    assets: AssetProcess
    clock: StochasticClock
    n_active: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.assets.tree is not self.tree or self.clock.tree is not self.tree:
            raise MalformedTreeError("assets and clock must be built on the same tree")
        if not (0 <= self.n_active <= self.assets.n_assets):
            raise MalformedTreeError(f"n_active must lie in [0, {self.assets.n_assets}], "
                                     f"got {self.n_active}")

    @property
    def n_assets(self) -> int:
        return self.assets.n_assets

    @property
    def n_nodes(self) -> int:
        return self.tree.n_nodes


def truncate(model: MarketModel, n: int) -> MarketModel:
    """Restrict trading to the first ``n`` assets; prices are retained.

    Leaves that differ only in untraded prices stay apart; ``quotient``
    merges them.
    """
    if not (0 <= n <= model.n_assets):
        raise MalformedTreeError(f"truncation level must lie in [0, {model.n_assets}], got {n}")
    out = replace(model, n_active=n)
    if "weight_ids" in model._memo:
        out._memo["weight_ids"] = model._memo["weight_ids"]
    return out


def weight_ids(model: MarketModel) -> tuple:
    """The ids that weight keys name nodes by, and each node's position among
    them: the tree's own, or on a ``quotient`` level those of the tree it was
    cut from, so that a key names the node it named there."""
    return model._memo.get("weight_ids", (model.tree.ids, np.arange(model.n_nodes)))


def quotient(model: MarketModel, weights) -> MarketModel:
    """Merge the sibling subtrees that the traded assets, the clock and the
    per-node utility ``weights`` (aligned with tree positions) cannot tell
    apart.

    Two nodes are alike when they sit at the same date, their traded prices,
    clock increments and weights are equal bit for bit, and their children
    fall into the same classes with the same summed conditional
    probabilities; classes are found one date at a time from the leaves up.
    Alike siblings merge into the first of them, which keeps its id, its
    subtree and their summed conditional probability, so every path
    probability of a class is kept.  The primal and dual values do not
    change.  Alike siblings see the same traded prices, so they start with
    the same wealth in the same continuation problem, and one plan serves
    them all.  A density's conditional expectation given the classes is
    still a martingale density of the traded assets, and by convexity of the
    dual objective (Jensen) it costs no more.  The merged market trades the
    same assets and carries no untraded ones, and reads weight keys against
    the ids of ``model`` (:func:`weight_ids`).  Returns ``model`` itself
    when nothing merges.
    """
    tree = model.tree
    w = np.asarray(weights, dtype=float)
    if w.shape != (tree.n_nodes,):
        raise MalformedTreeError(f"expected {tree.n_nodes} node weights, got shape {w.shape}")
    prices = model.assets.prices[:, : model.n_active]
    own = np.column_stack([prices, model.clock.dkappa, w]).view(np.int64)
    # Alike siblings share their own row bit for bit, so without such a pair
    # nothing merges.
    if np.all(_first_copies(np.column_stack([tree.parent, own])) == np.arange(tree.n_nodes)):
        return model
    parent = tree.parent
    prob = tree.cond_prob.copy()  # of a first sibling: its class's summed probability
    first = np.ones(tree.n_nodes, dtype=bool)  # first of its class among its siblings
    cls = np.zeros(tree.n_nodes, dtype=np.int64)  # class, named by its first member's position
    kids = np.zeros(0, dtype=np.int64)  # the first children of the date below
    for lv in reversed(tree.levels):
        cls[lv] = lv.start + _date_classes(own[lv], parent[kids] - lv.start, cls[kids],
                                           prob[kids].view(np.int64))
        rep = lv.start + _first_copies(np.column_stack([parent[lv], cls[lv]]))  # its first alike sibling
        first[lv] = rep == np.arange(lv.start, lv.stop)
        later = ~first[lv]
        np.add.at(prob, rep[later], tree.cond_prob[lv][later])  # in position order
        kids = lv.start + np.flatnonzero(first[lv])
        prob[kids] = np.minimum(prob[kids], 1.0)  # alike children may sum past 1 by rounding
    if first.all():
        return model

    keep = _accumulate_down((~first).astype(np.int64), parent, tree.levels) == 0
    kept = np.flatnonzero(keep)
    at = np.cumsum(keep) - 1  # a kept node's position in the merged tree
    sub = ScenarioTree(list(map(tree.ids.__getitem__, kept.tolist())), tree.times[kept],
                       np.where(parent[kept] < 0, -1, at[parent[kept]]), prob[kept])
    merged = MarketModel(tree=sub, assets=AssetProcess(sub, prices[kept]), n_active=model.n_active,
                         clock=StochasticClock(sub, model.clock.dkappa[kept], model.clock.bound))
    ids, pos = weight_ids(model)
    merged._memo["weight_ids"] = (ids, pos[kept])
    return merged


def _date_classes(own, kid_parent, kid_cls, kid_prob) -> np.ndarray:
    """Name the classes of one date's nodes by the index of their first member.

    Nodes are alike when their ``own`` rows agree and so do the (class,
    probability bits) pairs of their first children, whose parents are given
    by index within the date.  A node's first children have distinct
    classes, so listing them by class makes the list canonical; lists of
    one length at a time are compared as rows.
    """
    pairs = np.column_stack([kid_cls, kid_prob])[np.lexsort((kid_cls, kid_parent))]
    n_kids = np.bincount(kid_parent, minlength=len(own))
    start = np.cumsum(n_kids) - n_kids
    out = np.empty(len(own), dtype=np.int64)
    for length in np.unique(n_kids).tolist():
        rows = np.flatnonzero(n_kids == length)
        kids = pairs[start[rows, None] + np.arange(length)].reshape(rows.size, 2 * length)
        out[rows] = rows[_first_copies(np.column_stack([own[rows], kids]))]
    return out


def _first_copies(rows) -> np.ndarray:
    """For each row of the 2-D int array ``rows``, the index of the first equal row."""
    order = np.lexsort(rows.T)  # a stable sort: equal rows keep their index order
    s = rows[order]
    new = np.r_[True, np.any(s[1:] != s[:-1], axis=1)][: len(rows)]
    out = np.empty_like(order)
    out[order] = order[new][np.cumsum(new) - 1]
    return out


def build_tree(spec: dict) -> MarketModel:
    """Build and validate a market from its dict description.

    The accepted schema matches the JSON file format::

        {"nodes": [{"id", "t", "parent", "prob"}, ...],
         "prices": {node id: [asset prices]},
         "clock":  {node id: increment},
         "A": bound, "n_active": count}

    ``prob`` may be omitted for the root.  Map keys may be strings (as JSON
    requires) or the node ids themselves.  Nodes take positions sorted by
    (t, id).
    """
    try:
        node_specs = spec["nodes"]
        prices = spec["prices"]
        clock_map = spec["clock"]
        bound = spec["A"]
    except (KeyError, TypeError) as exc:
        raise MalformedTreeError(f"model spec missing required field: {exc}") from exc
    if not isinstance(node_specs, (list, tuple)):
        raise MalformedTreeError(f"nodes must be a list of node objects, got {node_specs!r}")
    if not isinstance(prices, Mapping):
        raise PriceError(f"prices must map node ids to price lists, got {prices!r}")
    if not isinstance(clock_map, Mapping):
        raise ClockError(f"clock must map node ids to increments, got {clock_map!r}")
    _check_size(len(node_specs))

    tree = ScenarioTree(*_node_arrays(node_specs))
    assets = AssetProcess(tree, _price_rows(tree, _coerce_keys(prices, tree.index_of)))
    clock_map = _coerce_keys(clock_map, tree.index_of)
    at = list(map(tree.index_of.get, clock_map))
    if None in at:
        raise ClockError(f"clock references unknown node {list(clock_map)[at.index(None)]!r}")
    dk = np.zeros(tree.n_nodes)
    dk[at] = [_number(v, f"clock increment of node {nid!r}", ClockError)
              for nid, v in clock_map.items()]
    clock = StochasticClock(tree, dk, bound)
    report = validate_clock(clock, tree)
    if not report.passed:
        bad = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise ClockError(f"clock conditions failed ({bad})")

    n_active = _integer(spec.get("n_active", assets.n_assets), "n_active")
    return MarketModel(tree=tree, assets=assets, clock=clock, n_active=n_active)


def _node_arrays(entries) -> tuple:
    """``ScenarioTree``'s arrays of a spec's node entries, in (t, id) order."""
    ids, times, parent_ids, probs = [], [], [], []
    for k, entry in enumerate(entries):
        if not (isinstance(entry, Mapping) and "id" in entry and "t" in entry
                and isinstance(entry["id"], Hashable) and isinstance(entry.get("parent"), Hashable)):
            raise MalformedTreeError(f"node entry {k} must be an object with an id and a 't', "
                                     f"got {entry!r}")
        nid, pid = entry["id"], entry.get("parent")
        ids.append(nid)
        parent_ids.append(pid)
        times.append(_integer(entry["t"], f"time 't' of node {nid!r}"))
        probs.append(1.0 if pid is None else _number(
            entry.get("prob", 1.0), f"transition probability of node {nid!r}", MalformedTreeError))
    try:
        order = sorted(range(len(ids)), key=list(zip(times, ids)).__getitem__)
    except TypeError as exc:
        raise MalformedTreeError("node ids must be mutually comparable (do not mix types)") from exc
    ids = [ids[k] for k in order]
    index = dict(zip(ids, range(len(ids))))
    parent = [-1 if parent_ids[k] is None else index.get(parent_ids[k], -2) for k in order]
    if -2 in parent:
        k = parent.index(-2)
        raise MalformedTreeError(f"node {ids[k]!r} names unknown parent {parent_ids[order[k]]!r}")
    return ids, [times[k] for k in order], parent, [probs[k] for k in order]


def _price_rows(tree: ScenarioTree, prices: dict) -> np.ndarray:
    """The price array of a spec's price map, one row per tree position."""
    try:
        rows = np.array([prices[nid] for nid in tree.ids], dtype=float)
        if rows.ndim == 2:
            return rows
    except (KeyError, TypeError, ValueError):
        pass
    rows = []  # name the first node whose prices are missing or malformed
    for nid in tree.ids:
        if nid not in prices:
            raise PriceError(f"no prices for node {nid!r}")
        try:
            rows.append(np.asarray(prices[nid], dtype=float))
        except (TypeError, ValueError):
            raise PriceError(f"prices of node {nid!r} must be numbers, got {prices[nid]!r}") from None
        if rows[-1].ndim != 1:
            raise PriceError(f"prices of node {nid!r} must be a flat list")
        if rows[-1].size != rows[0].size:
            raise PriceError(f"node {nid!r} carries {rows[-1].size} prices, expected {rows[0].size}")
    return np.vstack(rows)


def _number(value, what, error) -> float:
    """``value`` as a float; else ``error`` naming ``what``."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be a number, got {value!r}") from None


def _integer(value, what) -> int:
    """``value`` as an int where it is a whole number; else MalformedTreeError."""
    number = _number(value, what, MalformedTreeError)
    if not number.is_integer():
        raise MalformedTreeError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _coerce_keys(mapping, names) -> dict:
    """Map JSON string keys back onto node ids.

    A key found in ``names`` (a container of node ids) names that node and
    stays; any other becomes its int form where it has one.
    """
    out = {}
    for key, val in mapping.items():
        if key not in names:
            try:
                key = int(key)
            except (TypeError, ValueError):
                pass
        out[key] = val
    return out


def model_to_dict(model: MarketModel) -> dict:
    """Serialize a model to the JSON schema accepted by :func:`build_tree`."""
    ids, keys = model.tree.ids, list(map(str, model.tree.ids))
    nodes = [{"id": nid, "t": t, "parent": None} if p < 0 else
             {"id": nid, "t": t, "parent": ids[p], "prob": q}
             for nid, t, p, q in zip(ids, model.tree.times.tolist(), model.tree.parent.tolist(),
                                     model.tree.cond_prob.tolist())]
    return {
        "nodes": nodes,
        "prices": dict(zip(keys, model.assets.prices.tolist())),
        "clock": dict(zip(keys, model.clock.dkappa.tolist())),
        "A": model.clock.bound,
        "n_active": model.n_active,
    }


def load_model(path) -> MarketModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:
            raise MalformedTreeError(f"model file is not valid JSON: {exc}") from exc
    return build_tree(spec)


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
            raise MalformedTreeError(f"expected {self.n_assets} up-probabilities, got {len(self.p)}")
        for q in self.p:
            if not (0.0 < q < 1.0):
                raise MalformedTreeError(f"up-probabilities must lie in (0, 1), got {q}")
        for a, b in zip(self.p, self.p[1:]):
            if not a < b:
                raise MalformedTreeError(f"up-probabilities must be strictly increasing, "
                                         f"got {a} before {b}")


UP_FACTOR = 2.0
DOWN_FACTOR = 0.5


def build_example_market(spec: ExampleMarketSpec) -> MarketModel:
    """Materialize the independent-binomial family as a one-period tree.

    The tree has one root and 2**N leaves enumerated with asset 1 as the most
    significant bit (bit value 0 = up move).  The clock is a unit mass at the
    terminal time, so the induced problem is utility of terminal wealth.
    """
    n, leaves, p = spec.n_assets, 2 ** spec.n_assets, np.array(spec.p)
    if n > MAX_BINOMIAL_ASSETS:
        raise BudgetError(f"{n} assets would enumerate {leaves} leaves; the guard allows "
                          f"{MAX_BINOMIAL_ASSETS} assets")
    _check_size(leaves + 1)
    up = (np.arange(leaves)[:, None] >> np.arange(n - 1, -1, -1) & 1) == 0
    prob = np.prod(np.where(up, p, 1.0 - p), axis=1)
    tree = ScenarioTree(range(leaves + 1), np.r_[0, np.ones(leaves, dtype=np.int64)],
                        np.r_[-1, np.zeros(leaves, dtype=np.int64)], np.r_[1.0, prob])
    assets = AssetProcess(tree, np.vstack([np.ones(n), np.where(up, UP_FACTOR, DOWN_FACTOR)]))
    clk = StochasticClock(tree, np.r_[0.0, np.ones(leaves)], bound=1.0)
    return MarketModel(tree=tree, assets=assets, clock=clk, n_active=n)
