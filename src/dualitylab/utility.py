"""Stochastic utility fields and their pointwise convex conjugates.

A field is a deterministic base family optionally scaled by a strictly
positive per-node weight, so randomness of preferences enters through the
weights.  Supported bases:

``log``
    u(c) = ln c.
``power``
    u(c) = c**gamma / gamma with gamma < 1, gamma != 0.
``bounded``
    marginal c**(-alpha) on (0, 1] and c**(-beta) beyond, with alpha in
    (0, 1) and beta > 1, anchored at u(0) = 0.  The primitive is bounded
    above yet keeps an infinite marginal at 0 and a vanishing one at
    infinity, which is what the truncation studies need.

All bases are strictly concave, strictly increasing, continuously
differentiable on (0, inf), with marginal tending to +inf at 0 and to 0 at
infinity.  The conjugate of each field is w * v_base(y / w), where v_base is
the base conjugate sup_x (u(x) - x y).
"""

from __future__ import annotations

import math
from numbers import Real
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import DualityLabError
from .market import MarketModel, _coerce_keys, weight_ids

FAMILIES = ("log", "power", "bounded")


def _as_array(x):
    return np.asarray(x, dtype=float)


class _Base:
    """Vectorized base-family callables; scalars pass through as 0-d arrays.

    Each family defines ``u``, ``u_prime``, ``u_second``, ``inv_u_prime``
    and ``v``, the conjugate sup_x (u(x) - x y).  At x = 0 and y = 0 they
    return the right limits: u(0) is -inf or 0 and v(0) = sup u.
    """


class _LogBase(_Base):
    def u(self, x):
        x = _as_array(x)
        with np.errstate(divide="ignore"):
            return np.log(x)

    def u_prime(self, x):
        return 1.0 / _as_array(x)

    def u_second(self, x):
        return -1.0 / _as_array(x) ** 2

    def inv_u_prime(self, y):
        return 1.0 / _as_array(y)

    def v(self, y):
        y = _as_array(y)
        with np.errstate(divide="ignore"):
            return np.where(y > 0.0, -np.log(y) - 1.0, np.inf)


class _PowerBase(_Base):
    def __init__(self, gamma: float):
        self.gamma = gamma

    def u(self, x):
        x = _as_array(x)
        g = self.gamma
        with np.errstate(divide="ignore"):
            out = np.power(x, g) / g
        if g < 0.0:
            out = np.where(x == 0.0, -np.inf, out)
        return out

    def u_prime(self, x):
        return np.power(_as_array(x), self.gamma - 1.0)

    def u_second(self, x):
        return (self.gamma - 1.0) * np.power(_as_array(x), self.gamma - 2.0)

    def inv_u_prime(self, y):
        return np.power(_as_array(y), 1.0 / (self.gamma - 1.0))

    def v(self, y):
        y = _as_array(y)
        g = self.gamma
        expo = g / (g - 1.0)
        with np.errstate(divide="ignore"):
            out = ((1.0 - g) / g) * np.power(y, expo)
        # At y = 0 the right limit is sup u: +inf for gamma > 0, else 0.
        return np.where(y > 0.0, out, np.inf if g > 0.0 else 0.0)


class _BoundedBase(_Base):
    """Spliced-marginal bounded family: u'(x) = x**-alpha below 1, x**-beta above."""

    def __init__(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        self.u_one = 1.0 / (1.0 - alpha)
        self.sup_u = self.u_one + 1.0 / (beta - 1.0)

    def u(self, x):
        x = _as_array(x)
        a, b = self.alpha, self.beta
        low = np.power(np.minimum(x, 1.0), 1.0 - a) / (1.0 - a)
        high = self.u_one + (1.0 - np.power(np.maximum(x, 1.0), 1.0 - b)) / (b - 1.0)
        return np.where(x <= 1.0, low, high)

    def u_prime(self, x):
        x = _as_array(x)
        return np.where(x <= 1.0, np.power(x, -self.alpha), np.power(x, -self.beta))

    def u_second(self, x):
        x = _as_array(x)
        return np.where(
            x <= 1.0,
            -self.alpha * np.power(x, -self.alpha - 1.0),
            -self.beta * np.power(x, -self.beta - 1.0),
        )

    def inv_u_prime(self, y):
        y = _as_array(y)
        return np.where(
            y >= 1.0, np.power(y, -1.0 / self.alpha), np.power(y, -1.0 / self.beta)
        )

    def v(self, y):
        y = _as_array(y)
        a, b = self.alpha, self.beta
        high = (a / (1.0 - a)) * np.power(np.maximum(y, 1.0), (a - 1.0) / a)
        with np.errstate(divide="ignore"):
            low = self.sup_u - (b / (b - 1.0)) * np.power(
                np.minimum(y, 1.0), (b - 1.0) / b
            )
        out = np.where(y >= 1.0, high, low)
        return np.where(y >= 0.0, out, np.inf)


@dataclass(frozen=True)
class UtilityField:
    """Utility field: a base family times an optional per-node weight.

    ``weights`` maps node ids to strictly positive multipliers; missing nodes
    default to 1.
    """

    family: str
    gamma: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    weights: Optional[Mapping] = None

    def __post_init__(self):
        for name in ("gamma", "alpha", "beta"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, Real) and math.isfinite(value)):
                raise DualityLabError(f"{name} must be a real, finite number, got {value!r}")
        if self.family not in FAMILIES:
            raise DualityLabError(f"utility family must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "power":
            if self.gamma is None or self.gamma >= 1.0 or self.gamma == 0.0:
                raise DualityLabError(
                    f"power family needs gamma < 1, gamma != 0, got {self.gamma}"
                )
        elif self.family == "bounded":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise DualityLabError(f"bounded family needs alpha in (0, 1), got {self.alpha}")
            if self.beta is None or not (self.beta > 1.0):
                raise DualityLabError(f"bounded family needs beta > 1, got {self.beta}")
        if self.weights is not None:
            if not isinstance(self.weights, Mapping):
                raise DualityLabError(f"weights must map node ids to numbers, got {self.weights!r}")
            for nid, w in self.weights.items():
                if not (isinstance(w, Real) and w > 0.0 and math.isfinite(w)):
                    raise DualityLabError(
                        f"weight of node {nid!r} must be a positive, finite number, got {w!r}"
                    )

    @property
    def degree(self) -> Optional[float]:
        """Degree of homogeneity of the base: u(s c) = s^gamma u(c) for power,
        and u(s c) = u(c) + ln s for log, degree 0; None for other families.
        Their value functions scale exactly in x and y."""
        return {"log": 0.0, "power": self.gamma}.get(self.family)

    def base(self) -> _Base:
        if self.family == "log":
            return _LogBase()
        if self.family == "power":
            return _PowerBase(self.gamma)
        return _BoundedBase(self.alpha, self.beta)

    @property
    def weights_key(self):
        """The weights by value, hashable: what a model's memo keys the
        entries that depend on them by."""
        return None if self.weights is None else frozenset(self.weights.items())

    def weight(self, node) -> float:
        """The weight at ``node``, read against that one id (``weight_array``),
        as the pointwise API below reads it.  It never sees the tree, so on
        a tree whose ids mix ``"1"`` and ``1`` it reads the key ``"1"`` as
        node 1, where the tree reads it as node ``"1"``; the solvers read
        ``node_weights(model, field)``."""
        return float(self.weight_array([node])[0])

    def weight_array(self, node_ids) -> np.ndarray:
        """Weights of ``node_ids``; a key that names none of them, such as a
        numeric string from JSON, is read as its int form.  The solvers read
        a model's weights through ``node_weights``."""
        if self.weights is None:
            return np.ones(len(node_ids))
        weights = _coerce_keys(self.weights, set(node_ids))
        return np.array([float(weights.get(nid, 1.0)) for nid in node_ids])

    # Pointwise API.  ``t`` and ``node`` identify where the field is read;
    # only the node matters because weights are attached per node.

    def eval(self, t, node, x) -> float:
        if x < 0.0:
            raise DualityLabError(f"utility argument must be nonnegative, got {x}")
        return self.weight(node) * float(self.base().u(x))

    def marginal(self, t, node, x) -> float:
        if x <= 0.0:
            raise DualityLabError(f"marginal needs x > 0, got {x}")
        return self.weight(node) * float(self.base().u_prime(x))

    def inverse_marginal(self, t, node, y) -> float:
        if y <= 0.0:
            raise DualityLabError(f"inverse marginal needs y > 0, got {y}")
        return float(self.base().inv_u_prime(y / self.weight(node)))

    def conjugate(self) -> "ConjugateField":
        return ConjugateField(field=self)


@dataclass(frozen=True)
class ConjugateField:
    """Pointwise conjugate v(t, node, y) = sup_x (u(t, node, x) - x y).

    The negative of a conjugate field satisfies the same regularity and
    marginal conditions as the field itself.  It reads w * v_base(y / w) in
    closed form; at y = 0 that is the right limit, the weighted sup of u.
    """

    field: UtilityField

    def eval(self, t, node, y) -> float:
        if y < 0.0:
            raise DualityLabError(f"conjugate argument must be nonnegative, got {y}")
        w = self.field.weight(node)
        return w * float(self.field.base().v(y / w))

    def derivative(self, t, node, y) -> float:
        """v'(y) = -inverse_marginal(y)."""
        return -self.field.inverse_marginal(t, node, y)


def conjugate(field: UtilityField) -> ConjugateField:
    return field.conjugate()


def node_weights(model: MarketModel, field: UtilityField) -> np.ndarray:
    """The field's weight at every position of ``model``'s tree, read-only.

    The keys are read against the whole tree's ids (``weight_array``), the
    rule ``build_tree`` applies to price and clock keys, once per model and
    weight values; the model's memo keeps the vector, so both solvers and
    the checks read one weight per node.  Which ids those are, on a model
    cut by ``market.quotient`` too, is ``market.weight_ids``'s to say.
    """
    cache = model._memo.setdefault("node_weights", {})
    key = field.weights_key
    w = cache.get(key)
    if w is None:
        ids, at = weight_ids(model)
        w = cache[key] = field.weight_array(ids)[at]
        w.flags.writeable = False
    return w


# Module-level operation surface mirroring the method API.

def eval_utility(field: UtilityField, t, node, x) -> float:
    return field.eval(t, node, x)


def marginal(field: UtilityField, t, node, x) -> float:
    return field.marginal(t, node, x)


def inverse_marginal(field: UtilityField, t, node, y) -> float:
    return field.inverse_marginal(t, node, y)


@dataclass(frozen=True)
class InadaReport:
    marginal_near_zero: float
    marginal_near_infinity: float
    steep_at_zero: bool
    flat_at_infinity: bool

    @property
    def passed(self) -> bool:
        return self.steep_at_zero and self.flat_at_infinity


def check_inada(field: UtilityField, t=0, node=None) -> InadaReport:
    """Probe the marginal at 1e-8 (expect > 1e3) and 1e8 (expect < 1e-3)."""
    near_zero = field.marginal(t, node, 1e-8)
    near_inf = field.marginal(t, node, 1e8)
    return InadaReport(
        marginal_near_zero=near_zero,
        marginal_near_infinity=near_inf,
        steep_at_zero=near_zero > 1e3,
        flat_at_infinity=near_inf < 1e-3,
    )


def field_from_spec(spec: dict) -> UtilityField:
    """Parse the JSON utility description.

    Schema: {"family": "log"|"power"|"bounded", "gamma", "alpha", "beta",
    "weights": optional {node id: w}}.
    """
    if not isinstance(spec, dict):
        raise DualityLabError(f"a utility spec must be a JSON object, got {spec!r}")
    weights = spec.get("weights")
    if weights is not None:
        try:
            weights = {key: float(val) for key, val in weights.items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise DualityLabError(f"utility weights must map node ids to numbers: {exc}") from exc
    return UtilityField(
        family=spec.get("family"),
        gamma=spec.get("gamma"),
        alpha=spec.get("alpha"),
        beta=spec.get("beta"),
        weights=weights,
    )


def field_to_spec(field: UtilityField) -> dict:
    out = {"family": field.family}
    if field.gamma is not None:
        out["gamma"] = field.gamma
    if field.alpha is not None:
        out["alpha"] = field.alpha
    if field.beta is not None:
        out["beta"] = field.beta
    if field.weights is not None:
        out["weights"] = {str(k): float(v) for k, v in field.weights.items()}
    return out
