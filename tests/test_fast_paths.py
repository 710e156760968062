"""The fast paths of the FCN step against the plain formulas they replaced.

The conv kernels build the window matrix without a padded copy of the input,
each inside the kernel that multiplies by it, batch norm works in place,
LeakySineLU fills one output buffer, and each activation gives its value and
derivative from one formula. None of that may change a single bit, so each
test below compares against a copy of the plain, allocation-heavy formula in
the same (C, B, L) layout with ``np.array_equal`` (and, for the activations,
the sign of zero too).
"""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.special import ndtr

from leakysinelu import activations as zoo
from leakysinelu import autodiff as ad
from leakysinelu import kernels, models


# ---- the plain (C, B, L) formulas ----
# The conv references run the same GEMM as the kernels, so their array_equal
# checks the window-matrix build and col2im. tests/test_layout.py compares a
# whole step with the earlier (B, C, L) formulas.

def ref_cols(xp, k_width):
    cin, b, lp = xp.shape
    length = lp - k_width + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, k_width, axis=2)
    return win.transpose(0, 3, 1, 2).reshape(cin * k_width, b * length)


def ref_conv1d_forward(xp, w):
    cout, cin, k_width = w.shape
    return w.reshape(cout, cin * k_width) @ ref_cols(xp, k_width)


def ref_conv1d_grad_kernel(g, xp, k_width):
    cout, b, length = g.shape
    dw = g.reshape(cout, b * length) @ ref_cols(xp, k_width).T
    return dw.reshape(cout, xp.shape[0], k_width)


def ref_conv1d_grad_input(g, w, lp):
    cout, b, length = g.shape
    cin, k_width = w.shape[1], w.shape[2]
    t = (w.reshape(cout, cin * k_width).T @ g.reshape(cout, b * length))
    t = t.reshape(cin, k_width, b, length)
    dxp = np.zeros((cin, b, lp))
    for j in range(k_width):
        dxp[:, :, j : j + length] += t[:, j]
    return dxp


# LeakySineLU in T = tan(x); tests/test_leakysinelu_accuracy.py holds these
# to the sin formulas.
def ref_leakysinelu(x):
    u = np.square(np.tan(x))
    s = u / (1.0 + u) + x
    return np.where(x > 0, s, 0.5 * s)


def ref_leakysinelu_deriv(x):
    t = np.tan(x)
    s = 2.0 * t / (1.0 + np.square(t)) + 1.0
    return np.where(x >= 0, s, 0.5 * s)


def ref_batch_norm1d(x, gamma, beta, running_mean, running_var, training, g,
                     momentum=0.1, eps=1e-5):
    """(out, dx, dgamma, dbeta); updates the running arrays in training mode."""
    n = x.shape[1] * x.shape[2]
    if training:
        mean = x.mean(axis=(1, 2))
        var = x.var(axis=(1, 2))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[:, None, None]) * inv[:, None, None]
    out = gamma[:, None, None] * xhat + beta[:, None, None]
    dgamma = (g * xhat).sum(axis=(1, 2))
    dbeta = g.sum(axis=(1, 2))
    if training:
        # sum dxhat = gamma * dbeta and sum dxhat * xhat = gamma * dgamma
        mean_dxhat = xhat * (dgamma / n)[:, None, None] + (dbeta / n)[:, None, None]
        dx = (g - mean_dxhat) * gamma[:, None, None] * inv[:, None, None]
    else:
        dxhat = g * gamma[:, None, None]
        dx = dxhat * inv[:, None, None]
    return out, dx, dgamma, dbeta


def run_backward(tape, g):
    """Call the last recorded op's backward with a chosen output gradient,
    which Tape.backward (scalar losses only) cannot take."""
    tape._records[-1][2](g)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


# ---- conv ----

CONV_SHAPES = [  # (B, Cin, Cout, L, K): small odd shapes, then the FCN's own
    (2, 3, 2, 5, 1), (2, 3, 2, 5, 2), (3, 4, 5, 7, 3), (2, 5, 3, 9, 5), (1, 2, 3, 11, 8),
    (16, 1, 128, 128, 8), (16, 128, 256, 128, 5), (16, 256, 128, 128, 3), (5, 256, 128, 17, 3),
]


@pytest.mark.parametrize("b_sz, cin, cout, length, k_width", CONV_SHAPES)
def test_conv_kernels_equal_the_earlier_formulas(b_sz, cin, cout, length, k_width):
    rng = np.random.default_rng(cin * 100 + k_width)
    pad_left = (k_width - 1) // 2
    x = rng.normal(size=(cin, b_sz, length))
    xp = np.pad(x, ((0, 0), (0, 0), (pad_left, k_width - 1 - pad_left)))
    w = rng.normal(size=(cout, cin, k_width))
    g = rng.normal(size=(cout, b_sz, length))
    assert np.array_equal(kernels.conv1d_forward(x, w, pad_left), ref_conv1d_forward(xp, w))
    assert np.array_equal(kernels._window(x, k_width, pad_left), ref_cols(xp, k_width))
    assert np.array_equal(kernels.conv1d_grad_kernel(g, x, k_width, pad_left),
                          ref_conv1d_grad_kernel(g, xp, k_width))
    dxp = ref_conv1d_grad_input(g, w, xp.shape[2])
    assert np.array_equal(kernels.conv1d_grad_input(g, w, pad_left),
                          dxp[:, :, pad_left : pad_left + length])


# ---- LeakySineLU ----

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, np.pi, -np.pi, np.pi / 2,
            -np.pi / 2, 1e6, -1e6, 1e300, -1e300]


@pytest.mark.parametrize("x", [
    np.random.default_rng(0).normal(scale=3.0, size=(4, 7, 9)),
    np.array(_SPECIAL),
    np.array(_SPECIAL).reshape(2, 7)[:, ::2],  # a strided view
    np.array(0.0), np.array(-0.0), np.array(-1.25), 0.0, -0.0, 2.5,
])
def test_leakysinelu_equals_the_earlier_formulas(x):
    kind = zoo.activation("leakysinelu")
    xa = np.asarray(x, dtype=np.float64)
    for got, want in ((zoo.array_value(kind, x), ref_leakysinelu(xa)),
                      (zoo.array_derivative(kind, x), ref_leakysinelu_deriv(xa))):
        assert type(got) is type(want)
        assert same_bits(got, want)


@pytest.mark.parametrize("name", zoo.ACTIVATION_NAMES)
def test_activate_backward_equals_derivative_times_gradient(name):
    rng = np.random.default_rng(1)
    kind = zoo.activation(name)
    x = ad.Tensor(rng.normal(size=(3, 4, 5)))
    g = rng.normal(size=(3, 4, 5))
    tape = ad.Tape()
    out = ad.activate(x, kind, tape)
    run_backward(tape, g)
    assert same_bits(out.data, zoo.array_value(kind, x.data))
    assert same_bits(x.grad, zoo.array_derivative(kind, x.data) * g)
    if name == "leakysinelu":
        assert same_bits(out.data, ref_leakysinelu(x.data))
        assert same_bits(x.grad, ref_leakysinelu_deriv(x.data) * g)


# ---- batch norm ----

@pytest.mark.parametrize("shape", [(3, 4, 5), (128, 16, 128), (2, 1, 2)])
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_equals_the_earlier_formulas(shape, training):
    rng = np.random.default_rng(shape[0])
    x = rng.normal(loc=0.3, scale=2.0, size=shape)
    gamma, beta = rng.normal(size=shape[0]), rng.normal(size=shape[0])
    g = rng.normal(size=shape)
    run_mean, run_var = rng.normal(size=shape[0]), rng.random(shape[0]) + 0.5
    want_mean, want_var = run_mean.copy(), run_var.copy()
    want = ref_batch_norm1d(x, gamma, beta, want_mean, want_var, training, g)

    tx, tgamma, tbeta = ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta)
    tape = ad.Tape()
    out = ad.batch_norm1d(tx, tgamma, tbeta, run_mean, run_var, training, tape)
    run_backward(tape, g)
    for got, ref in zip((out.data, tx.grad, tgamma.grad, tbeta.grad), want):
        assert np.array_equal(got, ref)
    assert np.array_equal(run_mean, want_mean)
    assert np.array_equal(run_var, want_var)


# ---- a window matrix lives only in the kernel call that builds it ----

def test_each_conv_builds_its_window_once_per_pass_and_drops_it(monkeypatch):
    # conv1d_forward and conv1d_grad_kernel each build the window of the
    # same conv input once; neither hands it on, so reference counting alone
    # frees it before the kernel returns.
    builds, live = [], []
    window, running = kernels._window, []

    def window_spy(*args):
        cols = window(*args)
        builds.append((running[-1], cols.shape, weakref.ref(cols), weakref.ref(cols.base)))
        return cols

    def kernel_spy(name):
        real = getattr(kernels, name)

        def spy(*args):
            running.append(name)
            first = len(builds)
            try:
                return real(*args)
            finally:
                running.pop()
                live.extend(b[:2] for b in builds[first:]
                            if b[2]() is not None or b[3]() is not None)
        return spy

    monkeypatch.setattr(kernels, "_window", window_spy)
    for name in ("conv1d_forward", "conv1d_grad_kernel"):
        monkeypatch.setattr(kernels, name, kernel_spy(name))
    spec = models.build_fcn(16, 3, "leakysinelu")
    state = models.init_params(spec, 0)
    rng = np.random.default_rng(0)
    gc.disable()
    try:
        tape = ad.Tape()
        logits = models.forward(spec, state, rng.normal(size=(4, 16)), tape=tape,
                                training=True)
        tape.backward(ad.softmax_xent(logits, np.array([0, 1, 2, 0]), tape))
    finally:
        gc.enable()
    shapes = [(1 * 8, 64), (128 * 5, 64), (256 * 3, 64)]
    assert [b[:2] for b in builds] == ([("conv1d_forward", s) for s in shapes]
                                       + [("conv1d_grad_kernel", s) for s in shapes[::-1]])
    assert live == []


# ---- one formula per activation ----
# The value, derivative and parameter-derivative formulas that each kind had
# before its value and derivative became one call, copied as they were. Each
# formula must give the same bits as these.

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _sin_squared(y):
    s = np.tan(y, out=np.empty_like(y))
    np.square(s, out=s)
    return np.divide(s, s + 1.0, out=s)


def _sin_doubled(y):
    t = np.tan(y, out=np.empty_like(y))
    d = np.square(t) + 1.0
    t *= 2.0
    return np.divide(t, d, out=t)


def _leaky(v, plus, keep):
    v += plus
    v *= 0.5 + 0.5 * keep
    return v


def _silu_deriv(x):
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


REF = {  # name -> (value, derivative)
    "sigmoid": (lambda x, p: _sigmoid(x),
                lambda x, p: _sigmoid(x) * (1.0 - _sigmoid(x))),
    "tanh": (lambda x, p: np.tanh(x),
             lambda x, p: 1.0 - np.square(np.tanh(x))),
    "sine": (lambda x, p: np.sin(x),
             lambda x, p: np.cos(x)),
    "relu": (lambda x, p: np.maximum(0.0, x),
             lambda x, p: np.where(x > 0, 1.0, 0.0)),
    "elu": (lambda x, p: np.where(x > 0, x, p["alpha"] * np.expm1(np.minimum(x, 0.0))),
            lambda x, p: np.where(x > 0, 1.0, p["alpha"] * np.exp(np.minimum(x, 0.0)))),
    "prelu": (lambda x, p: np.where(x >= 0, x, p["alpha"] * x),
              lambda x, p: np.where(x >= 0, 1.0, p["alpha"])),
    "gelu": (lambda x, p: x * ndtr(x),
             lambda x, p: ndtr(x) + x * _phi(x)),
    "silu": (lambda x, p: x * _sigmoid(x),
             lambda x, p: _silu_deriv(x)),
    "snake": (lambda x, p: x + _sin_squared(p["a"] * x) / p["a"],
              lambda x, p: 1.0 + _sin_doubled(p["a"] * x)),
    "leakysinelu": (lambda x, p: _leaky(_sin_squared(x), x, x > 0),
                    lambda x, p: _leaky(_sin_doubled(x), 1.0, x >= 0)),
}
REF_PARAM = {
    "prelu": lambda x, p: np.where(x < 0, x, 0.0),
    "snake": lambda x, p: (x * _sin_doubled(p["a"] * x) / p["a"]
                           - _sin_squared(p["a"] * x) / np.square(p["a"])),
}


def pair_inputs():
    """Normal, uniform +-1e4, k*pi/2 + {0, +-1e-9}, +-0.0 and both sides of
    LeakySineLU's halving boundary."""
    rng = np.random.default_rng(21)
    near = np.arange(-8, 9)[:, None] * (np.pi / 2) + np.array([0.0, 1e-9, -1e-9])
    return np.concatenate([rng.normal(size=297), rng.uniform(-1e4, 1e4, size=300),
                           near.ravel(), [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]])


def check_formula(name, x, params):
    value, deriv = zoo._REGISTRY[name].formula(x, params)
    assert same_bits(value, REF[name][0](x, params))
    assert same_bits(deriv, REF[name][1](x, params))
    kind = zoo.activation(name)
    for got in (zoo.array_value_and_derivative(kind, x, params),
                (zoo.array_value(kind, x, params), zoo.array_derivative(kind, x, params))):
        assert same_bits(got[0], value) and same_bits(got[1], deriv)
    if name in REF_PARAM:
        assert same_bits(zoo.param_derivative(kind, x, params), REF_PARAM[name](x, params))


@pytest.mark.parametrize("name, params", [(name, {}) for name in zoo.ACTIVATION_NAMES] + [
    ("snake", {"a": 0.37}), ("snake", {"a": -2.5}), ("elu", {"alpha": 0.5}),
    ("prelu", {"alpha": 0.1}),
])
@pytest.mark.parametrize("shape", [(-1,), (3, 2, -1)])
def test_formula_equals_the_earlier_formulas(name, params, shape):
    params = {**zoo.activation(name).params, **params}
    check_formula(name, pair_inputs().reshape(shape), params)


@pytest.mark.parametrize("name, key, values", [
    ("prelu", "alpha", [0.25, 0.1, -0.3]), ("snake", "a", [1.0, 0.37, -2.5])])
@pytest.mark.parametrize("layout", ["conv", "dense"])
def test_formula_equals_the_earlier_formulas_at_per_channel_params(name, key, values, layout):
    # A trainable parameter, one value per channel: (C, 1, 1) against a conv
    # activation (C, B, L), (1, n) against a dense one (B, n).
    if layout == "conv":
        x, param = pair_inputs().reshape(3, 2, -1), np.array(values).reshape(-1, 1, 1)
    else:
        x = pair_inputs().reshape(6, -1)
        param = np.resize(values, x.shape[1])[None, :]
    check_formula(name, x, {key: param})
