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
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import DualityLabError

FAMILIES = ("log", "power", "bounded")

# Bisection fallback for marginal inversion.
BRACKET_LO = 1e-12
BRACKET_HI = 1e12
BRACKET_GROW = 16.0
BRACKET_RATIO_TOL = 1e-12


def _as_array(x):
    return np.asarray(x, dtype=float)


class _Base:
    """Vectorized base-family callables; scalars pass through as 0-d arrays."""

    def u(self, x):
        raise NotImplementedError

    def u_prime(self, x):
        raise NotImplementedError

    def u_second(self, x):
        raise NotImplementedError

    def inv_u_prime(self, y):
        raise NotImplementedError

    def v(self, y):
        """Conjugate sup_x (u(x) - x y); right limit at y = 0."""
        raise NotImplementedError

    def u_at_zero(self) -> float:
        raise NotImplementedError


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

    def u_at_zero(self):
        return -math.inf


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
        return np.where(y > 0.0, out, np.inf)

    def u_at_zero(self):
        return 0.0 if self.gamma > 0.0 else -math.inf


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

    def u_at_zero(self):
        return 0.0


class _AffineBase(_Base):
    """u(x) = x.  Violates the marginal conditions at both ends; this exists
    only so diagnostic checks have a failing case to detect."""

    def u(self, x):
        return _as_array(x).copy()

    def u_prime(self, x):
        return np.ones_like(_as_array(x))

    def u_second(self, x):
        return np.zeros_like(_as_array(x))

    def inv_u_prime(self, y):
        raise DualityLabError("affine test field has no invertible marginal")

    def v(self, y):
        y = _as_array(y)
        return np.where(y >= 1.0, 0.0, np.inf)

    def u_at_zero(self):
        return 0.0


@dataclass(frozen=True)
class UtilityField:
    """Utility field: a base family times an optional per-node weight.

    ``weights`` maps node ids to strictly positive multipliers; missing nodes
    default to 1.  ``force_numeric_inverse`` is a test hook that routes
    marginal inversion and conjugation through bracketed bisection instead of
    the closed forms.
    """

    family: str
    gamma: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    weights: Optional[Mapping] = None
    force_numeric_inverse: bool = False

    def __post_init__(self):
        if self.family == "log":
            pass
        elif self.family == "power":
            if self.gamma is None or self.gamma >= 1.0 or self.gamma == 0.0:
                raise DualityLabError(
                    f"power family needs gamma < 1, gamma != 0, got {self.gamma}"
                )
        elif self.family == "bounded":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise DualityLabError(f"bounded family needs alpha in (0, 1), got {self.alpha}")
            if self.beta is None or not (self.beta > 1.0):
                raise DualityLabError(f"bounded family needs beta > 1, got {self.beta}")
        elif self.family == "affine-test":
            pass
        else:
            raise DualityLabError(f"unknown utility family {self.family!r}")
        if self.weights is not None:
            for nid, w in self.weights.items():
                if not (w > 0.0 and math.isfinite(w)):
                    raise DualityLabError(
                        f"weight of node {nid!r} must be strictly positive and finite, got {w}"
                    )

    def base(self) -> _Base:
        if self.family == "log":
            return _LogBase()
        if self.family == "power":
            return _PowerBase(self.gamma)
        if self.family == "bounded":
            return _BoundedBase(self.alpha, self.beta)
        return _AffineBase()

    def weight(self, node) -> float:
        if self.weights is None:
            return 1.0
        return float(self.weights.get(node, 1.0))

    def weight_array(self, node_ids) -> np.ndarray:
        if self.weights is None:
            return np.ones(len(node_ids))
        return np.array([self.weight(nid) for nid in node_ids])

    # Pointwise API.  ``t`` and ``node`` identify where the field is read;
    # only the node matters because weights are attached per node.

    def eval(self, t, node, x) -> float:
        if x < 0.0:
            raise DualityLabError(f"utility argument must be nonnegative, got {x}")
        base = self.base()
        if x == 0.0:
            limit = base.u_at_zero()
            return self.weight(node) * limit if math.isfinite(limit) else limit
        return self.weight(node) * float(base.u(x))

    def marginal(self, t, node, x) -> float:
        if x <= 0.0:
            raise DualityLabError(f"marginal needs x > 0, got {x}")
        return self.weight(node) * float(self.base().u_prime(x))

    def inverse_marginal(self, t, node, y) -> float:
        if y <= 0.0:
            raise DualityLabError(f"inverse marginal needs y > 0, got {y}")
        w = self.weight(node)
        if self.force_numeric_inverse:
            return _bisect_inverse(self.base().u_prime, y / w)
        return float(self.base().inv_u_prime(y / w))

    def conjugate(self) -> "ConjugateField":
        strategy = "numeric-inversion" if self.force_numeric_inverse else "analytic"
        return ConjugateField(field=self, strategy=strategy)


def _bisect_inverse(u_prime, y: float) -> float:
    """Solve u_prime(x) = y by bisection on a geometrically expanded bracket."""
    lo, hi = BRACKET_LO, BRACKET_HI
    while float(u_prime(lo)) < y:
        lo /= BRACKET_GROW
        if lo < 1e-300:
            raise DualityLabError(f"could not bracket inverse marginal at y={y}")
    while float(u_prime(hi)) > y:
        hi *= BRACKET_GROW
        if hi > 1e300:
            raise DualityLabError(f"could not bracket inverse marginal at y={y}")
    while hi / lo - 1.0 > BRACKET_RATIO_TOL:
        mid = math.sqrt(lo * hi)
        if float(u_prime(mid)) >= y:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


@dataclass(frozen=True)
class ConjugateField:
    """Pointwise conjugate v(t, node, y) = sup_x (u(t, node, x) - x y).

    The negative of a conjugate field satisfies the same regularity and
    marginal conditions as the field itself.  ``strategy`` records whether
    evaluation goes through closed forms or through numeric inversion of the
    marginal.
    """

    field: UtilityField
    strategy: str = "analytic"

    def eval(self, t, node, y) -> float:
        if y < 0.0:
            raise DualityLabError(f"conjugate argument must be nonnegative, got {y}")
        w = self.field.weight(node)
        if self.strategy == "analytic":
            val = float(self.field.base().v(y / w))
            return w * val if math.isfinite(val) else val
        if y == 0.0:
            # Right limit: sup of the utility.
            val = float(self.field.base().v(0.0))
            return w * val if math.isfinite(val) else val
        x = self.field.inverse_marginal(t, node, y)
        return self.field.eval(t, node, x) - x * y

    def derivative(self, t, node, y) -> float:
        """v'(y) = -inverse_marginal(y)."""
        return -self.field.inverse_marginal(t, node, y)


def conjugate(field: UtilityField) -> ConjugateField:
    return field.conjugate()


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
    family = spec.get("family")
    if family not in FAMILIES:
        raise DualityLabError(f"utility family must be one of {FAMILIES}, got {family!r}")
    weights = spec.get("weights")
    if weights is not None:
        coerced = {}
        for key, val in weights.items():
            try:
                coerced[int(key)] = float(val)
            except (TypeError, ValueError):
                coerced[key] = float(val)
        weights = coerced
    return UtilityField(
        family=family,
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
