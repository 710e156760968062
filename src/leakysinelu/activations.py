"""Activation catalog: forward values, analytic derivatives, sub-differentials.

Ten activations are supported, addressable by canonical lowercase name:
sigmoid, tanh, sine, relu, elu, prelu, gelu, silu, snake, leakysinelu.
All math is evaluated in 64-bit floats. Functions accept scalars or numpy
arrays and broadcast elementwise.

An activation is one ``PropertyRecord`` of this module's registry, keyed
by its name: one formula that gives its value and derivative together, its
property row (limits at +-inf, monotonicity, semi-periodic period), its
parameter values and trainable set with the partial in that parameter, and
its kink slopes. ``catalog()`` returns that record itself, read-only. Adding
an activation means adding one record, and nothing outside this file.

A kind is its name. The catalog fixes each kind's parameter values and
trainable set: PReLU's alpha starts at 0.25 and trains (He et al. 2015),
ELU's alpha is 1, and Snake's a is 1 and fixed (Ziyin et al. 2020), the one
setting at which the sweep compares them; ELU's and Snake's formulas build
theirs in. PReLU's alpha is the one parameter a formula reads: a model's
per-channel alpha goes through the array functions' ``params`` argument, an
array that broadcasts against the input.

scipy is imported on first use, by GELU only, so a cell without GELU skips its import.

A formula computes the term its value and derivative share once: a sigmoid
(sigmoid, silu), a tanh, a normal CDF (gelu), or, for Snake and LeakySineLU
(Snake's pair, halved for x <= 0), one float64 tan per element, through
sin^2 y = T^2 / (1 + T^2) and sin 2y = 2T / (1 + T^2) with T = tan(y). Only
sine takes a sin; see the note below. ``array_value_and_derivative`` is that
call; ``array_value`` and ``array_derivative`` are its two halves, so each
also computes, and drops, the other half. A training forward of a kind with
no trainable parameter keeps both. Inference, which needs only values, pays
for derivatives it drops: at the benchmark's FCN cell (L=128, B=16,
LeakySineLU) about 44 ms of a 347 ms ``bench.evaluate`` on a 2-vCPU x86-64,
1.5 % of that 3 s cell and far less of a 2000-epoch one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

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
    "array_value_and_derivative",
    "param_derivative",
    "kind_to_dict",
    "kind_from_dict",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ActivationKind:
    """One activation of the catalog: a kind is its name.

    ``params`` (read-only) and ``learnable`` are the catalog's parameter
    values and the subset of them that a model trains; the model builder
    makes one tensor per channel for each, starting at that value.
    """

    name: str

    def __post_init__(self):
        if self.name not in _REGISTRY:
            raise ConfigError(
                f"unknown activation {self.name!r}; choose from {', '.join(_REGISTRY)}"
            )

    @property
    def params(self) -> Mapping[str, float]:
        return _REGISTRY[self.name].defaults

    @property
    def learnable(self) -> frozenset[str]:
        return _REGISTRY[self.name].learnable


@dataclass(frozen=True)
class Subdifferential:
    """Closed interval of admissible slopes at a point."""

    lower: float
    upper: float

    @property
    def is_singleton(self) -> bool:
        return self.lower == self.upper


def _sigmoid(x):
    # exp(-|x|) never overflows; pick the stable branch per sign.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _ndtr(x):
    """Standard normal CDF; scipy.special is imported on the first call."""
    from scipy.special import ndtr

    return ndtr(x)


# Snake and LeakySineLU (halved Snake) are written in T = tan(x):
#   sin^2 x = T^2 / (1 + T^2),   sin 2x = 2T / (1 + T^2).
# numpy 2.4 vectorises float64 tan with AVX-512 (SVML), 2.5 to 2.7 ns per
# element on a 2-vCPU x86-64, but sends float64 sin to scalar libm (15 to 23 ns);
# without that tan, a tan costs about what a sin does (21 to 27 ns). Against the
# sin formulas values stay within 9.4e-16 relative and derivatives within 4.4e-16
# absolute on both paths (tests/test_leakysinelu_accuracy.py holds them to
# 2e-15). The pair fills two new buffers (out= keeps a 0-d input 0-d).
def _snake_pair(x):
    """Snake's (value, derivative) at a = 1, x + sin^2 x and 1 + sin 2x, from one
    tan: sin^2 x and sin 2x divide by the same 1 + T^2."""
    t = np.tan(x, out=np.empty_like(x))
    s = np.square(t, out=np.empty_like(t))
    d = s + 1.0
    np.divide(s, d, out=s)
    t *= 2.0
    np.divide(t, d, out=t)
    s += x
    t += 1.0
    return s, t


def _leakysinelu_pair(x):
    """Snake's pair halved for x <= 0 in place, by one multiply with 0.5 (exactly
    1.0 elsewhere): a masked loop mispredicts per element of mixed sign. The
    derivative keeps slope 1 at the kink."""
    s, d = _snake_pair(x)
    s *= 0.5 + 0.5 * (x > 0)
    d *= 0.5 + 0.5 * (x >= 0)
    return s, d


@dataclass(frozen=True)
class PropertyRecord:
    """Everything known about one activation; ``catalog()`` returns it.

    ``formula`` takes ``(x, params)`` with x a float64 scalar or array and
    gives ``(value, derivative)`` in one call, computing their shared term
    (a sigmoid, a tanh, a normal CDF, one tan) once; the derivative is the
    canonical sub-gradient at a kink. ``lower_limit`` / ``upper_limit`` are
    the limits of the function as x tends to -inf / +inf: a finite float,
    +-inf, or None when the limit does not exist. ``deviation`` is set when
    the stored value intentionally differs from the commonly tabulated one
    (see the sine record). ``defaults`` and ``learnable`` fix the kind's
    parameter values and the ones a model trains: a kind is its name, and no
    caller sets either. Both are stored read-only, so the record a caller
    gets cannot change the catalog. ``param_formula`` takes ``(x, params)``
    and gives the partial of the value in the trainable parameter; a record
    has one exactly when ``learnable`` is not empty. ``kink_slopes`` are the
    one-sided slopes (left, right) at the kink x = 0.
    """

    formula: Callable
    lower_limit: float | None
    upper_limit: float | None
    monotonic: bool
    semi_periodic_period: float | None = None
    deviation: str | None = None
    defaults: Mapping[str, float] = field(default_factory=dict)
    learnable: frozenset[str] = frozenset()
    param_formula: Callable | None = None
    kink_slopes: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "defaults", MappingProxyType(dict(self.defaults)))
        object.__setattr__(self, "learnable", frozenset(self.learnable))


_INF = float("inf")

# Insertion order is ACTIVATION_NAMES, which orders sweep cells and stats columns.
_REGISTRY: dict[str, PropertyRecord] = {
    "sigmoid": PropertyRecord(
        formula=lambda x, p: (s := _sigmoid(x), s * (1.0 - s)),
        lower_limit=0.0, upper_limit=1.0, monotonic=True,
    ),
    "tanh": PropertyRecord(
        formula=lambda x, p: (t := np.tanh(x), 1.0 - np.square(t)),
        lower_limit=-1.0, upper_limit=1.0, monotonic=True,
    ),
    "sine": PropertyRecord(
        formula=lambda x, p: (np.sin(x), np.cos(x)),
        lower_limit=None, upper_limit=None, monotonic=False,
        semi_periodic_period=2.0 * math.pi,
        deviation=("commonly tabulated as bounded in [0, 1]; sin(x) has no limit at +-inf "
                   "and its range is [-1, 1], so no limit is stored"),
    ),
    "relu": PropertyRecord(
        formula=lambda x, p: (np.maximum(0.0, x), np.where(x > 0, 1.0, 0.0)),
        lower_limit=0.0, upper_limit=_INF, monotonic=True, kink_slopes=(0.0, 1.0),
    ),
    "elu": PropertyRecord(
        formula=lambda x, p: (
            np.where(pos := x > 0, x, np.expm1(neg := np.minimum(x, 0.0))),
            np.where(pos, 1.0, np.exp(neg)),
        ),
        lower_limit=-1.0, upper_limit=_INF, monotonic=True, defaults={"alpha": 1.0},
    ),
    "prelu": PropertyRecord(
        formula=lambda x, p: (np.where(keep := x >= 0, x, p["alpha"] * x),
                              np.where(keep, 1.0, p["alpha"])),
        lower_limit=-_INF, upper_limit=_INF, monotonic=True,
        defaults={"alpha": 0.25}, learnable={"alpha"},
        param_formula=lambda x, p: np.where(x < 0, x, 0.0),
        kink_slopes=(0.25, 1.0),
    ),
    "gelu": PropertyRecord(
        formula=lambda x, p: (x * (c := _ndtr(x)), c + x * _phi(x)),
        lower_limit=0.0, upper_limit=_INF, monotonic=False,
    ),
    "silu": PropertyRecord(
        formula=lambda x, p: (x * (s := _sigmoid(x)), s * (1.0 + x * (1.0 - s))),
        lower_limit=0.0, upper_limit=_INF, monotonic=False,
    ),
    "snake": PropertyRecord(
        formula=lambda x, p: _snake_pair(x),
        lower_limit=-_INF, upper_limit=_INF, monotonic=True, semi_periodic_period=math.pi,
        defaults={"a": 1.0},
    ),
    "leakysinelu": PropertyRecord(
        formula=lambda x, p: _leakysinelu_pair(x),
        lower_limit=-_INF, upper_limit=_INF, monotonic=True, semi_periodic_period=math.pi,
        # One-sided limits of sin(2x)+1 and its halved branch.
        kink_slopes=(0.5, 1.0),
    ),
}

ACTIVATION_NAMES = tuple(_REGISTRY)


def activation(name: str) -> ActivationKind:
    """The catalog's kind of that canonical name; ConfigError for any other name."""
    return ActivationKind(name)


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
    """Inverse of ``kind_to_dict``. A doc whose parameter values or trainable
    set differ from the catalog's is a ConfigError: no cell trains them."""
    kind = activation(doc["name"])
    if doc["params"] != kind.params:
        raise ConfigError(f"{kind.name} takes no parameter values but the catalog's "
                          f"{dict(kind.params)}, got {doc['params']!r}")
    if frozenset(doc["learnable"]) != kind.learnable:
        raise ConfigError(f"{kind.name} trains no parameters but the catalog's "
                          f"{sorted(kind.learnable)}, got {doc['learnable']!r}")
    return kind


def _params(kind: ActivationKind, params):
    """``params``, or the kind's own when None; ConfigError unless its keys are
    exactly the kind's trainable set: a formula reads no other."""
    if params is None:
        return kind.params
    if params.keys() != kind.learnable:
        raise ConfigError(f"{kind.name}'s params must name its trainable set "
                          f"{sorted(kind.learnable)}, got {sorted(params)}")
    return params


def array_value_and_derivative(kind, x, params=None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(value, derivative)`` from the kind's one formula; no domain
    checks (engine-internal path). The derivative is the canonical sub-gradient
    at a kink.

    ``params`` replaces the trainable values of ``kind.params`` (PReLU's alpha);
    its values may be arrays that broadcast against ``x``.
    """
    kind = _as_kind(kind)
    return _REGISTRY[kind.name].formula(np.asarray(x, dtype=np.float64), _params(kind, params))


def array_value(kind, x, params=None) -> np.ndarray:
    """The value of ``array_value_and_derivative``; the derivative is dropped."""
    return array_value_and_derivative(kind, x, params)[0]


def array_derivative(kind, x, params=None) -> np.ndarray:
    """The derivative of ``array_value_and_derivative``; the value is dropped."""
    return array_value_and_derivative(kind, x, params)[1]


def param_derivative(kind, x, params) -> np.ndarray:
    """Elementwise partial of the output w.r.t. the kind's trainable parameter,
    for ``autodiff.activate(..., param=)``: the record's ``param_formula``."""
    kind = _as_kind(kind)
    params = _params(kind, params)
    param_formula = _REGISTRY[kind.name].param_formula
    if param_formula is None:
        raise ConfigError(f"{kind.name} has no trainable parameter")
    return param_formula(np.asarray(x, dtype=np.float64), params)


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
    return (0.0,) if _REGISTRY[_as_kind(kind).name].kink_slopes else ()


def subdifferential(kind, x: float) -> Subdifferential:
    """Set of admissible slopes at x: a singleton except at kinks.

    At a kink the interval spans the one-sided derivative limits, e.g.
    relu at 0 gives [0, 1] and leakysinelu at 0 gives [0.5, 1].
    """
    kind = _as_kind(kind)
    if _finite_input(x) in kink_points(kind):
        slopes = _REGISTRY[kind.name].kink_slopes
        return Subdifferential(min(slopes), max(slopes))
    d = derivative(kind, x)
    return Subdifferential(d, d)


def catalog(kind) -> PropertyRecord:
    """The kind's record itself (read-only): limits at +-inf, monotonicity,
    periodicity, formula, parameters and kink slopes."""
    return _REGISTRY[_as_kind(kind).name]
