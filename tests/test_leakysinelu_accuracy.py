"""LeakySineLU's tan formulas against the sin formulas they replaced.

``activations.py`` computes sin^2 x as T^2 / (1 + T^2) and sin 2x as
2T / (1 + T^2), with T = tan(x). The sin forms stay here as the oracle, for
the array path and for the scalar API. The value must lie within 2e-15
relative of the oracle and the derivative within 2e-15 absolute, and a zero
must keep its sign. The value bound is relative because an absolute one
cannot see the x^2 of a tiny input: sin^2 x = 1 - 1/(1 + T^2) rounds it away
and still lands within 3e-16 of the oracle.

numpy picks its float64 tan by CPU feature, so CI runs this file twice: as is
and with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", which
turns off the AVX-512 (SVML) tan.
"""

import numpy as np
import pytest

from leakysinelu import activations as zoo
from test_fast_paths import _SPECIAL

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


def check(got, want, rel, abs_):
    got = np.asarray(got, dtype=np.float64)
    err = np.abs(got - want)
    bad = err > rel * np.abs(want) + abs_
    assert not bad.any(), (f"x={INPUTS[bad][:5]} got={got[bad][:5]} want={want[bad][:5]} "
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
