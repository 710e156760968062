"""Snake's and LeakySineLU's tan formulas against the sin formulas they replaced.

``activations.py`` computes sin^2 y as T^2 / (1 + T^2) and sin 2y as
2T / (1 + T^2), with T = tan(y): Snake with y = a*x, LeakySineLU (Snake at
a = 1, halved for x <= 0) with y = x. The sin forms stay here as the oracle,
for the array path and for the scalar API. A value must lie within 2e-15
relative of the oracle, a derivative within 2e-15 absolute and Snake's
a-derivative within 2e-15 * (|x|/|a| + 1/a^2), and a zero must keep its sign.
The value bound is relative because an absolute one cannot see the x^2 of a
tiny input: sin^2 x = 1 - 1/(1 + T^2) rounds it away and still lands within
3e-16 of the oracle.

numpy picks its float64 tan by CPU feature, so CI runs this file twice: as is
and with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", which
turns off the AVX-512 (SVML) tan.
"""

import numpy as np
import pytest

from leakysinelu import activations as zoo
from test_fast_paths import _SPECIAL, same_bits

_RNG = np.random.default_rng(0)
_K = np.arange(-200, 201)[:, None] * (np.pi / 2)
INPUTS = np.concatenate([
    _RNG.normal(scale=3.0, size=2000),
    _RNG.uniform(-1e4, 1e4, size=2000),
    (_K + np.array([0.0, 1e-9, -1e-9, 1e-15])).ravel(),  # around the poles and zeros of tan
    _SPECIAL,
])
KIND = zoo.activation("leakysinelu")


def sin_value(x):
    s = np.square(np.sin(x)) + x
    return np.where(x > 0, s, 0.5 * s)


def sin_derivative(x):
    s = np.sin(2.0 * x) + 1.0
    return np.where(x >= 0, s, 0.5 * s)


def check(got, want, rel, abs_, x=INPUTS):
    got = np.asarray(got, dtype=np.float64).reshape(want.shape)
    err = np.abs(got - want)
    bad = err > rel * np.abs(want) + abs_
    x = np.broadcast_to(x, want.shape)
    assert not bad.any(), (f"x={x[bad][:5]} got={got[bad][:5]} want={want[bad][:5]} "
                           f"max error {err.max():.3g}")
    zero = want == 0.0
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))


def check_value(got):
    check(got, sin_value(INPUTS), rel=2e-15, abs_=0.0)


def check_derivative(got):
    check(got, sin_derivative(INPUTS), rel=0.0, abs_=2e-15)


def test_array_value():
    check_value(zoo.array_value(KIND, INPUTS))


def test_array_derivative():
    check_derivative(zoo.array_derivative(KIND, INPUTS))


def test_scalar_value():
    check_value([zoo.evaluate(KIND, float(x)) for x in INPUTS])


def test_scalar_derivative():
    check_derivative([zoo.derivative(KIND, float(x)) for x in INPUTS])


def test_the_value_bound_sees_the_x_squared_of_tiny_inputs():
    u = np.square(np.tan(INPUTS))
    s = (1.0 - 1.0 / (1.0 + u)) + INPUTS
    with pytest.raises(AssertionError):
        check_value(np.where(INPUTS > 0, s, 0.5 * s))


# ---- Snake ----

SNAKE_A = [1.0, 0.3, 2.5, -1.7]
# One value of a per row (a per-channel parameter), broadcast against INPUTS.
A_ROWS = np.array(SNAKE_A)[:, None]


def sin_snake(x, a):
    return x + np.square(np.sin(a * x)) / a


def sin_snake_derivative(x, a):
    return 1.0 + np.sin(2.0 * a * x)


def sin_snake_param_derivative(x, a):
    return x * np.sin(2.0 * a * x) / a - np.square(np.sin(a * x)) / np.square(a)


def check_snake(got, x, a, which):
    if which == "value":
        check(got, sin_snake(x, a), rel=2e-15, abs_=0.0, x=x)
    elif which == "derivative":
        check(got, sin_snake_derivative(x, a), rel=0.0, abs_=2e-15, x=x)
    else:
        bound = 2e-15 * (np.abs(x) / np.abs(a) + 1.0 / np.square(a))
        check(got, sin_snake_param_derivative(x, a), rel=0.0, abs_=bound, x=x)


SNAKE = zoo.activation("snake")
# Each takes (kind, x, params); the catalog fixes Snake's a at 1, so another a
# arrives as params, as a model's per-channel a would.
ARRAY_API = {"value": zoo.array_value, "derivative": zoo.array_derivative,
             "param_derivative": zoo.param_derivative}


@pytest.mark.parametrize("which", list(ARRAY_API))
@pytest.mark.parametrize("a", SNAKE_A)
def test_snake_array(a, which):
    check_snake(ARRAY_API[which](SNAKE, INPUTS, {"a": a}), INPUTS, a, which)


@pytest.mark.parametrize("which", list(ARRAY_API))
@pytest.mark.parametrize("a", SNAKE_A)
def test_snake_scalar(a, which):
    # A float x stays 0-d through the formula (the scalar API's path).
    got = [float(ARRAY_API[which](SNAKE, float(x), {"a": a})) for x in INPUTS]
    check_snake(got, INPUTS, a, which)


def test_snake_scalar_api_is_a_at_one():
    got = [(zoo.evaluate(SNAKE, float(x)), zoo.derivative(SNAKE, float(x))) for x in INPUTS]
    check_snake([v for v, _ in got], INPUTS, 1.0, "value")
    check_snake([d for _, d in got], INPUTS, 1.0, "derivative")


@pytest.mark.parametrize("which", list(ARRAY_API))
def test_snake_per_channel_a(which):
    got = ARRAY_API[which](SNAKE, INPUTS, {"a": A_ROWS})
    assert got.shape == (len(SNAKE_A), INPUTS.size)
    check_snake(got, INPUTS, A_ROWS, which)


def test_leakysinelu_is_halved_snake_at_a_one():
    s = zoo.array_value(SNAKE, INPUTS)
    assert same_bits(zoo.array_value(KIND, INPUTS), np.where(INPUTS > 0, s, 0.5 * s))
    d = zoo.array_derivative(SNAKE, INPUTS)
    assert same_bits(zoo.array_derivative(KIND, INPUTS), np.where(INPUTS >= 0, d, 0.5 * d))
