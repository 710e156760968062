"""Numeric verification of the catalog claims: limits, monotonicity,
semi-periodicity, the affine-collapse identity, sine-layer Fourier fitting,
and dead-region measurement.

Everything here is sampling-based with documented tolerances; verdicts that
report a violation always carry a concrete witness point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import activations as zoo
from . import autodiff as ad
from .errors import ConfigError, ContractError
from .optim import Adam

__all__ = [
    "TailEstimate",
    "PropertyReport",
    "check_limits",
    "check_semi_periodicity",
    "check_monotone",
    "affine_collapse",
    "FourierSeries",
    "fourier_series",
    "fourier_fit_demo",
    "dead_region_trace",
    "property_report",
    "report_to_dict",
]

CONVERGENCE_TOL = 1e-9
MONOTONE_TOL = 1e-12
DEAD_TOL = 1e-12
LIMIT_MAGNITUDES = (1e3, 1e6, 1e9)  # |x| at which each tail is probed
PROBE_GRID = np.linspace(-20.0, 20.0, 10_000)  # monotonicity and value-range samples


@dataclass(frozen=True)
class TailEstimate:
    """Behavior of one tail: 'constant' (value), 'diverges' (+-inf) or
    'oscillates' (value None)."""

    verdict: str
    value: float | None


def _tail(kind: zoo.ActivationKind, sign: float) -> TailEstimate:
    values = [zoo.evaluate(kind, sign * m) for m in LIMIT_MAGNITUDES]
    deltas = [abs(b - a) for a, b in zip(values, values[1:])]
    if all(d < CONVERGENCE_TOL for d in deltas):
        return TailEstimate("constant", values[-1])
    if all(abs(b) > abs(a) + 1.0 for a, b in zip(values, values[1:])):
        return TailEstimate("diverges", math.copysign(math.inf, values[-1]))
    return TailEstimate("oscillates", None)


def check_limits(kind) -> tuple[TailEstimate, TailEstimate]:
    """Probe both tails at ``LIMIT_MAGNITUDES`` and classify each one."""
    kind = zoo._as_kind(kind)
    return _tail(kind, -1.0), _tail(kind, 1.0)


def _interior_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # n points strictly inside (lo, hi), so branch boundaries are never hit.
    return lo + (hi - lo) * (np.arange(n) + 1.0) / (n + 1.0)


def check_semi_periodicity(
    kind, period: float, region: tuple[float, float], n: int = 1000
) -> float:
    """max |sigma'(x + T) - sigma'(x)| over an open grid inside one region."""
    if not (math.isfinite(period) and period > 0):
        raise ConfigError(f"period must be finite and positive, got {period}")
    if n < 1000:
        raise ConfigError("semi-periodicity grid needs at least 1000 points")
    kind = zoo._as_kind(kind)
    grid = _interior_grid(region[0], region[1], n)
    dev = np.abs(zoo.array_derivative(kind, grid + period) - zoo.array_derivative(kind, grid))
    return float(dev.max())


def semi_periodic_regions(kind) -> tuple[tuple[float, float], ...]:
    """Regions on which the derivative's periodicity is asserted.

    A kink breaks the periodicity across it, so [-20, 20] is split at the
    kinks, top piece first; every lower piece ends one period short, so
    that x + T stays below the next kink.
    """
    kind = zoo._as_kind(kind)
    period = zoo.catalog(kind).semi_periodic_period
    edges = (-20.0, *zoo.kink_points(kind), 20.0)
    pieces = list(zip(edges, edges[1:]))
    return (pieces[-1], *((lo, hi - period) for lo, hi in reversed(pieces[:-1])))


def check_monotone(kind):
    """Sample the derivative on ``PROBE_GRID``; monotone iff min >= -1e-12.

    Returns (monotone, witness) where witness is (x, sigma'(x)) at the most
    negative derivative when the verdict is False.
    """
    kind = zoo._as_kind(kind)
    deriv = zoo.array_derivative(kind, PROBE_GRID)
    idx = int(np.argmin(deriv))
    if deriv[idx] >= -MONOTONE_TOL:
        return True, None
    return False, (float(PROBE_GRID[idx]), float(deriv[idx]))


def affine_collapse(layers) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a dense stack y = (..((x W1 + b1) W2 + b2)..) to one (W, b).

    ``layers`` is a sequence of (W, b) pairs in row-vector convention,
    W of shape (n_in, n_out) and b of shape (n_out,).
    """
    if len(layers) == 0:
        raise ContractError("affine collapse needs at least one layer")
    checked = []
    for i, layer in enumerate(layers):
        try:
            w, b = layer
        except (TypeError, ValueError) as exc:
            raise ContractError(f"layer {i} is not a dense (W, b) pair") from exc
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ContractError(f"layer {i} is not a dense (W, b) pair")
        if checked and checked[-1][0].shape[1] != w.shape[0]:
            raise ContractError(
                f"layer {i} input width {w.shape[0]} does not match previous output"
            )
        checked.append((w, b))
    w_total, b_total = checked[0]
    w_total = w_total.copy()
    b_total = b_total.copy()
    for w, b in checked[1:]:
        w_total = w_total @ w
        b_total = b_total @ w + b
    return w_total, b_total


@dataclass(frozen=True)
class FourierSeries:
    """Truncated series a0/2 + sum_n an cos(2 pi n t / T) + bn sin(...)."""

    a0: float
    an: tuple[float, ...] = ()
    bn: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.an) != len(self.bn):
            raise ConfigError("an and bn must have the same number of terms")
        if len(self.an) > 8:
            raise ConfigError("at most 8 harmonics are supported")


def fourier_series(series: FourierSeries, period: float, t: np.ndarray) -> np.ndarray:
    out = np.full_like(t, series.a0 / 2.0)
    for n, (a, b) in enumerate(zip(series.an, series.bn), start=1):
        w = 2.0 * math.pi * n / period
        out = out + a * np.cos(w * t) + b * np.sin(w * t)
    return out


def fourier_fit_demo(series: FourierSeries, period: float) -> float:
    """Fit one hidden layer of sine units to the truncated series on [0, 2T].

    The hidden pre-activation is a learnable affine map of t (frequencies in
    the weights, phases in the biases), initialized at the harmonic
    frequencies; the output layer starts at zero. Returns the mean squared
    error after 5000 Adam steps (lr 0.01) on 256 evenly spaced points.
    """
    n_terms = max(len(series.an), 1)
    width = 2 * n_terms
    t = np.linspace(0.0, 2.0 * period, 256).reshape(-1, 1)
    target = fourier_series(series, period, t[:, 0]).reshape(-1, 1)

    w1 = np.zeros((1, width))
    b1 = np.zeros(width)
    for n in range(n_terms):
        freq = 2.0 * math.pi * (n + 1) / period
        w1[0, 2 * n] = freq
        w1[0, 2 * n + 1] = freq
        b1[2 * n + 1] = math.pi / 2.0  # sin(x + pi/2) = cos(x)
    params = {
        "w1": w1,
        "b1": b1,
        "w2": np.zeros((width, 1)),
        "b2": np.zeros(1),
    }
    sine = zoo.activation("sine")
    opt = Adam(lr=0.01)
    opt_state = opt.init_state(params)

    def loss_tape():
        tape = ad.Tape()
        tensors = {k: ad.Tensor(v) for k, v in params.items()}
        pre = ad.affine(ad.Tensor(t), tensors["w1"], tensors["b1"], tape)
        hidden = ad.activate(pre, sine, tape)
        pred = ad.affine(hidden, tensors["w2"], tensors["b2"], tape)
        return ad.mse(pred, target, tape), tape, tensors

    for _ in range(5000):
        loss, tape, tensors = loss_tape()
        tape.backward(loss)
        grads = {k: tensors[k].grad for k in params}
        opt.step(opt_state, params, grads)
    final_loss, _, _ = loss_tape()
    return float(final_loss.data)


def dead_region_trace(kind, series: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply the activation elementwise and measure the zeroed-out fraction.

    An output counts as dead when |sigma(x)| < 1e-12 at an input with
    |x| >= 1e-12 (genuine information loss, not a zero input).
    """
    kind = zoo._as_kind(kind)
    x = np.asarray(series, dtype=np.float64)
    y = zoo.array_value(kind, x)
    dead = (np.abs(y) < DEAD_TOL) & (np.abs(x) >= DEAD_TOL)
    return y, float(dead.sum() / x.size)


@dataclass
class PropertyReport:
    """Probe verdicts for one kind plus agreement with the static catalog."""

    kind: zoo.ActivationKind
    limit_neg: TailEstimate
    limit_pos: TailEstimate
    monotone: bool
    monotone_witness: tuple[float, float] | None
    semi_periodic_period: float | None
    semi_periodic_max_dev: float | None
    empirical_min: float
    empirical_max: float
    matches_catalog: bool
    mismatches: list[str]
    table_note: str | None


def _limit_matches(estimate: TailEstimate, expected: float | None) -> bool:
    if expected is None:
        return estimate.verdict == "oscillates"
    if math.isinf(expected):
        return estimate.verdict == "diverges" and estimate.value == expected
    return estimate.verdict == "constant" and abs(estimate.value - expected) <= CONVERGENCE_TOL


def property_report(kind) -> PropertyReport:
    """Run every probe for one kind and compare against the catalog."""
    kind = zoo._as_kind(kind)
    record = zoo.catalog(kind)
    neg, pos = check_limits(kind)
    monotone, witness = check_monotone(kind)
    values = zoo.array_value(kind, PROBE_GRID)
    period = record.semi_periodic_period
    max_dev = None
    if period is not None:
        max_dev = max(
            check_semi_periodicity(kind, period, region)
            for region in semi_periodic_regions(kind)
        )
    mismatches = []
    if not _limit_matches(neg, record.lower_limit):
        mismatches.append(
            f"lower limit: probed {neg.verdict} {neg.value}, catalog {record.lower_limit}"
        )
    if not _limit_matches(pos, record.upper_limit):
        mismatches.append(
            f"upper limit: probed {pos.verdict} {pos.value}, catalog {record.upper_limit}"
        )
    if monotone != record.monotonic:
        mismatches.append(f"monotone: probed {monotone}, catalog {record.monotonic}")
    return PropertyReport(
        kind=kind,
        limit_neg=neg,
        limit_pos=pos,
        monotone=monotone,
        monotone_witness=witness,
        semi_periodic_period=period,
        semi_periodic_max_dev=max_dev,
        empirical_min=float(values.min()),
        empirical_max=float(values.max()),
        matches_catalog=not mismatches,
        mismatches=mismatches,
        table_note=record.deviation,
    )


def report_to_dict(report: PropertyReport) -> dict:
    """JSON-ready view of a report."""

    doc = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "kind"}
    for key in ("limit_neg", "limit_pos"):
        doc[key] = {"verdict": doc[key].verdict, "value": _json_float(doc[key].value)}
    return {"activation": report.kind.name, "params": dict(report.kind.params), **doc}


def _json_float(value):
    if value is None:
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value
