"""Activation catalog: forward values, analytic derivatives, sub-differentials.

Ten activations are supported, addressable by canonical lowercase name:
sigmoid, tanh, sine, relu, elu, prelu, gelu, silu, snake, leakysinelu.
All math is evaluated in 64-bit floats. Functions accept scalars or numpy
arrays and broadcast elementwise; parameter values may be arrays that
broadcast against the input (a trainable per-channel prelu alpha or snake a).

Every fact about an activation lives in one table of this module, keyed by
its name: ``_FORWARD``, ``_DERIVATIVE``, ``_PARAM_DERIVATIVE`` (trainable
kinds only), ``_PARAM_DEFAULTS``, ``_KINK_SLOPES`` and ``_CATALOG``. Adding
an activation means one entry in each table that applies, and nothing
outside this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, DomainError

__all__ = [
    "ACTIVATION_NAMES",
    "ActivationKind",
    "PropertyRecord",
    "Subdifferential",
    "activation",
    "evaluate",
    "derivative",
    "subdifferential",
    "catalog",
    "kink_points",
    "array_value",
    "array_derivative",
    "param_derivative",
    "kind_to_dict",
    "kind_from_dict",
]

ACTIVATION_NAMES = (
    "sigmoid",
    "tanh",
    "sine",
    "relu",
    "elu",
    "prelu",
    "gelu",
    "silu",
    "snake",
    "leakysinelu",
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ActivationKind:
    """One activation variant plus its scalar parameters.

    ``learnable`` names the subset of ``params`` that a model may train
    (per-site parameter tensors are created by the model builder; the
    values here act as initial/default values).
    """

    name: str
    params: Mapping[str, float] = field(default_factory=dict)
    learnable: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Subdifferential:
    """Closed interval of admissible slopes at a point."""

    lower: float
    upper: float

    @property
    def is_singleton(self) -> bool:
        return self.lower == self.upper


@dataclass(frozen=True)
class PropertyRecord:
    """Static properties of one activation kind.

    ``lower_limit`` / ``upper_limit`` are the limits of the function as x
    tends to -inf / +inf: a finite float, +-inf, or None when the limit
    does not exist. ``deviation`` is set when the stored value intentionally
    differs from the commonly tabulated one (see the sine entry).
    """

    kind: ActivationKind
    lower_limit: float | None
    upper_limit: float | None
    monotonic: bool
    semi_periodic_period: float | None = None
    deviation: str | None = None


def _sigmoid(x):
    # exp(-|x|) never overflows; pick the stable branch per sign.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


# Forward formulas. Each takes (x, params) with x a float64 scalar or array.
_FORWARD: dict[str, Callable] = {
    "sigmoid": lambda x, p: _sigmoid(x),
    "tanh": lambda x, p: np.tanh(x),
    "sine": lambda x, p: np.sin(x),
    "relu": lambda x, p: np.maximum(0.0, x),
    "elu": lambda x, p: np.where(x > 0, x, p["alpha"] * np.expm1(np.minimum(x, 0.0))),
    "prelu": lambda x, p: np.where(x >= 0, x, p["alpha"] * x),
    "gelu": lambda x, p: x * ndtr(x),
    "silu": lambda x, p: x * _sigmoid(x),
    "snake": lambda x, p: x + np.square(np.sin(p["a"] * x)) / p["a"],
    "leakysinelu": lambda x, p: _leakysinelu(x),
}


# The two LeakySineLU formulas work in one output buffer (out= keeps a 0-d
# input a 0-d array) and halve only the negative branch (where=).
def _leakysinelu(x):
    s = np.sin(x, out=np.empty_like(x))
    np.square(s, out=s)
    s += x
    return np.multiply(s, 0.5, out=s, where=~(x > 0))


def _leakysinelu_deriv(x):
    s = np.multiply(x, 2.0, out=np.empty_like(x))
    np.sin(s, out=s)
    s += 1.0
    # Canonical sub-gradient at 0 is the positive-branch value 1.
    return np.multiply(s, 0.5, out=s, where=~(x >= 0))


def _silu_deriv(x):
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


# Analytic derivatives, with the canonical sub-gradient at kinks:
# relu'(0) = 0, prelu'(0) = 1, leakysinelu'(0) = 1.
_DERIVATIVE: dict[str, Callable] = {
    "sigmoid": lambda x, p: _sigmoid(x) * (1.0 - _sigmoid(x)),
    "tanh": lambda x, p: 1.0 - np.square(np.tanh(x)),
    "sine": lambda x, p: np.cos(x),
    "relu": lambda x, p: np.where(x > 0, 1.0, 0.0),
    "elu": lambda x, p: np.where(x > 0, 1.0, p["alpha"] * np.exp(np.minimum(x, 0.0))),
    "prelu": lambda x, p: np.where(x >= 0, 1.0, p["alpha"]),
    "gelu": lambda x, p: ndtr(x) + x * _phi(x),
    "silu": lambda x, p: _silu_deriv(x),
    "snake": lambda x, p: 1.0 + np.sin(2.0 * p["a"] * x),
    "leakysinelu": lambda x, p: _leakysinelu_deriv(x),
}

# Partial of the output w.r.t. the kind's one parameter; only the kinds
# listed here may train it.
_PARAM_DERIVATIVE: dict[str, Callable] = {
    "prelu": lambda x, p: np.where(x < 0, x, 0.0),
    "snake": lambda x, p: (x * np.sin(2.0 * p["a"] * x) / p["a"]
                           - np.square(np.sin(p["a"] * x)) / np.square(p["a"])),
}

# (defaults, learnable-by-default) per parametric kind.
_PARAM_DEFAULTS: dict[str, tuple[dict[str, float], frozenset[str]]] = {
    "elu": ({"alpha": 1.0}, frozenset()),
    "prelu": ({"alpha": 0.25}, frozenset({"alpha"})),
    "snake": ({"a": 1.0}, frozenset()),
}

# One-sided slopes (left, right) at the kink x = 0, from the params.
_KINK_SLOPES: dict[str, Callable] = {
    "relu": lambda p: (0.0, 1.0),
    "prelu": lambda p: (p["alpha"], 1.0),
    # One-sided limits of sin(2x)+1 and its halved branch.
    "leakysinelu": lambda p: (0.5, 1.0),
}

_INF = float("inf")

_SINE_DEVIATION = (
    "commonly tabulated as bounded in [0, 1]; sin(x) has no limit at +-inf "
    "and its range is [-1, 1], so no limit is stored"
)

# (lower_limit, upper_limit, monotonic, semi_periodic_period, deviation)
_CATALOG: dict[str, tuple] = {
    "sigmoid": (0.0, 1.0, True, None, None),
    "tanh": (-1.0, 1.0, True, None, None),
    "sine": (None, None, False, 2.0 * math.pi, _SINE_DEVIATION),
    "relu": (0.0, _INF, True, None, None),
    "elu": (-1.0, _INF, True, None, None),
    "prelu": (-_INF, _INF, True, None, None),
    "gelu": (0.0, _INF, False, None, None),
    "silu": (0.0, _INF, False, None, None),
    "snake": (-_INF, _INF, True, math.pi, None),
    "leakysinelu": (-_INF, _INF, True, math.pi, None),
}


def activation(name: str, *, learnable=None, **params: float) -> ActivationKind:
    """Build a validated ActivationKind from its canonical name."""
    if name not in ACTIVATION_NAMES:
        raise ConfigError(
            f"unknown activation {name!r}; choose one of {', '.join(ACTIVATION_NAMES)}"
        )
    defaults, default_learnable = _PARAM_DEFAULTS.get(name, ({}, frozenset()))
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(f"{name} takes no parameter(s) {sorted(unknown)}")
    merged = {k: float(params.get(k, v)) for k, v in defaults.items()}
    _validate_params(name, merged)
    flags = default_learnable if learnable is None else frozenset(learnable)
    if not flags <= set(merged):
        raise ConfigError(f"learnable flags {sorted(flags)} not all parameters of {name}")
    if flags and name not in _PARAM_DERIVATIVE:
        raise ConfigError(f"{name} has no trainable parameter; drop {sorted(flags)}")
    return ActivationKind(name=name, params=merged, learnable=flags)


def _validate_params(name: str, params: dict[str, float]) -> None:
    for key, value in params.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} parameter {key} must be finite, got {value}")
    if name == "elu" and params["alpha"] <= 0:
        raise ConfigError(f"elu alpha must be > 0, got {params['alpha']}")
    if name == "snake" and params["a"] == 0:
        raise ConfigError("snake a must be nonzero")


def _as_kind(kind) -> ActivationKind:
    if isinstance(kind, ActivationKind):
        return kind
    return activation(kind)


def kind_to_dict(kind: ActivationKind) -> dict:
    """JSON-ready form of a kind: name, parameter values, sorted learnable names."""
    return {
        "name": kind.name,
        "params": dict(kind.params),
        "learnable": sorted(kind.learnable),
    }


def kind_from_dict(doc: dict) -> ActivationKind:
    """Inverse of ``kind_to_dict``; re-validates through ``activation``."""
    return activation(doc["name"], learnable=frozenset(doc["learnable"]), **doc["params"])


def array_value(kind, x, params=None) -> np.ndarray:
    """Vectorized forward value; no domain checks (engine-internal path).

    ``params`` replaces ``kind.params``; its values may be arrays that
    broadcast against ``x``.
    """
    kind = _as_kind(kind)
    return _FORWARD[kind.name](np.asarray(x, dtype=np.float64),
                               kind.params if params is None else params)


def array_derivative(kind, x, params=None) -> np.ndarray:
    """Vectorized analytic derivative with canonical sub-gradients at kinks."""
    kind = _as_kind(kind)
    return _DERIVATIVE[kind.name](np.asarray(x, dtype=np.float64),
                                  kind.params if params is None else params)


def param_derivative(kind, x, params) -> np.ndarray:
    """Elementwise partial of the output w.r.t. the kind's one parameter."""
    kind = _as_kind(kind)
    if kind.name not in _PARAM_DERIVATIVE:
        raise ConfigError(f"{kind.name} has no trainable parameter")
    return _PARAM_DERIVATIVE[kind.name](np.asarray(x, dtype=np.float64), params)


def _finite_input(x: float) -> float:
    if not math.isfinite(x):
        raise DomainError(f"activation input must be finite, got {x}")
    return x


def evaluate(kind, x: float) -> float:
    """Forward value at a scalar point."""
    return float(array_value(kind, _finite_input(x)))


def derivative(kind, x: float) -> float:
    """Analytic derivative at a scalar point (canonical value at kinks)."""
    return float(array_derivative(kind, _finite_input(x)))


def kink_points(kind) -> tuple[float, ...]:
    """Points where the derivative jumps (empty for smooth kinds)."""
    return (0.0,) if _as_kind(kind).name in _KINK_SLOPES else ()


def subdifferential(kind, x: float) -> Subdifferential:
    """Set of admissible slopes at x: a singleton except at kinks.

    At a kink the interval spans the one-sided derivative limits, e.g.
    relu at 0 gives [0, 1] and leakysinelu at 0 gives [0.5, 1].
    """
    kind = _as_kind(kind)
    if _finite_input(x) in kink_points(kind):
        slopes = _KINK_SLOPES[kind.name](kind.params)
        return Subdifferential(min(slopes), max(slopes))
    d = derivative(kind, x)
    return Subdifferential(d, d)


def catalog(kind) -> PropertyRecord:
    """Static property record: limits at +-inf, monotonicity, periodicity."""
    kind = _as_kind(kind)
    lower, upper, mono, period, deviation = _CATALOG[kind.name]
    if kind.name == "snake":
        period = math.pi / abs(kind.params["a"])
    return PropertyRecord(
        kind=kind,
        lower_limit=lower,
        upper_limit=upper,
        monotonic=mono,
        semi_periodic_period=period,
        deviation=deviation,
    )

