import math

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu.errors import ConfigError, DomainError

ALL_KINDS = [zoo.activation(name) for name in zoo.ACTIVATION_NAMES]


def central_diff(kind, x, h=1e-5):
    return (zoo.evaluate(kind, x + h) - zoo.evaluate(kind, x - h)) / (2.0 * h)


class TestValues:
    def test_leakysinelu_at_zero_both_branches(self):
        k = zoo.activation("leakysinelu")
        assert zoo.evaluate(k, 0.0) == 0.0

    def test_leakysinelu_positive_branch(self):
        k = zoo.activation("leakysinelu")
        assert zoo.evaluate(k, math.pi / 2) == pytest.approx(1.0 + math.pi / 2, abs=1e-15)

    def test_leakysinelu_negative_branch(self):
        k = zoo.activation("leakysinelu")
        assert zoo.evaluate(k, -math.pi / 2) == pytest.approx((1.0 - math.pi / 2) / 2, abs=1e-15)

    def test_snake_at_pi(self):
        assert zoo.evaluate(zoo.activation("snake"), math.pi) == pytest.approx(math.pi, abs=1e-15)

    def test_relu_negative(self):
        assert zoo.evaluate(zoo.activation("relu"), -2.0) == 0.0

    def test_nonfinite_input_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                zoo.evaluate(zoo.activation("tanh"), bad)
            with pytest.raises(DomainError):
                zoo.derivative(zoo.activation("tanh"), bad)


class TestDerivatives:
    def test_leakysinelu_derivative_positive_branch(self):
        assert zoo.derivative(zoo.activation("leakysinelu"), math.pi / 4) == pytest.approx(2.0, abs=1e-15)

    def test_leakysinelu_canonical_subgradient_at_zero(self):
        assert zoo.derivative(zoo.activation("leakysinelu"), 0.0) == 1.0

    def test_relu_prelu_canonical_at_zero(self):
        assert zoo.derivative(zoo.activation("relu"), 0.0) == 0.0
        assert zoo.derivative(zoo.activation("prelu"), 0.0) == 1.0

    def test_sine_derivative_at_zero(self):
        assert zoo.derivative(zoo.activation("sine"), 0.0) == 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-10.0, 10.0, size=1000)
        for kink in zoo.kink_points(kind):
            xs = xs[np.abs(xs - kink) > 1e-3]
        for x in xs:
            ana = zoo.derivative(kind, x)
            fd = central_diff(kind, x)
            assert abs(ana - fd) / max(1.0, abs(ana)) < 1e-6

    def test_leakysinelu_derivative_nonnegative(self):
        k = zoo.activation("leakysinelu")
        xs = np.linspace(-30.0, 30.0, 5000)
        assert np.all(zoo.array_derivative(k, xs) >= 0.0)

    def test_leakysinelu_continuous_at_zero(self):
        k = zoo.activation("leakysinelu")
        assert abs(zoo.evaluate(k, 1e-12)) < 1e-11
        assert abs(zoo.evaluate(k, -1e-12)) < 1e-11

    def test_leakysinelu_branchwise_periodic_derivative(self):
        k = zoo.activation("leakysinelu")
        pos = np.linspace(0.01, 20.0, 1000)
        neg = np.linspace(-20.0, -math.pi - 0.01, 1000)
        for grid in (pos, neg):
            dev = np.abs(zoo.array_derivative(k, grid + math.pi) - zoo.array_derivative(k, grid))
            assert dev.max() < 1e-12

    def test_snake_periodic_derivative(self):
        k = zoo.activation("snake")
        grid = np.linspace(-20.0, 20.0, 1000)
        dev = np.abs(zoo.array_derivative(k, grid + math.pi) - zoo.array_derivative(k, grid))
        assert dev.max() < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_monotone_flag_matches_grid_scan(self, kind):
        grid = np.linspace(-20.0, 20.0, 10_000)
        deriv = zoo.array_derivative(kind, grid)
        if zoo.catalog(kind).monotonic:
            assert deriv.min() >= -1e-12
        else:
            assert deriv.min() < -1e-3


class TestSubdifferential:
    def test_leakysinelu_at_zero(self):
        sd = zoo.subdifferential(zoo.activation("leakysinelu"), 0.0)
        assert (sd.lower, sd.upper) == (0.5, 1.0)
        assert {sd.lower, sd.upper} == {1.0, 0.5}

    def test_relu_at_zero(self):
        sd = zoo.subdifferential(zoo.activation("relu"), 0.0)
        assert (sd.lower, sd.upper) == (0.0, 1.0)

    def test_prelu_at_zero(self):
        sd = zoo.subdifferential(zoo.activation("prelu"), 0.0)
        assert (sd.lower, sd.upper) == (0.25, 1.0)

    def test_sigmoid_smooth_point(self):
        sd = zoo.subdifferential(zoo.activation("sigmoid"), 0.0)
        assert sd.is_singleton and sd.lower == 0.25

    def test_smooth_point_of_kinked_kind(self):
        sd = zoo.subdifferential(zoo.activation("relu"), 3.0)
        assert sd.is_singleton and sd.lower == 1.0


class TestCatalog:
    def test_leakysinelu_row(self):
        rec = zoo.catalog(zoo.activation("leakysinelu"))
        assert rec.lower_limit == -math.inf and rec.upper_limit == math.inf
        assert rec.monotonic and rec.semi_periodic_period == math.pi

    def test_sigmoid_row(self):
        rec = zoo.catalog(zoo.activation("sigmoid"))
        assert (rec.lower_limit, rec.upper_limit, rec.monotonic) == (0.0, 1.0, True)

    def test_gelu_not_monotone(self):
        assert not zoo.catalog(zoo.activation("gelu")).monotonic

    def test_sine_stores_documented_deviation(self):
        rec = zoo.catalog(zoo.activation("sine"))
        assert rec.lower_limit is None and rec.upper_limit is None
        assert rec.deviation is not None

    def test_bounded_rows(self):
        assert zoo.catalog("tanh").lower_limit == -1.0
        assert zoo.catalog("elu").lower_limit == -1.0
        assert zoo.catalog("relu").lower_limit == 0.0
        assert zoo.catalog("gelu").lower_limit == 0.0
        assert zoo.catalog("silu").lower_limit == 0.0
        assert zoo.catalog("prelu").lower_limit == -math.inf

    def test_snake_period_scales_with_a(self):
        rec = zoo.catalog(zoo.activation("snake", a=2.0))
        assert rec.semi_periodic_period == pytest.approx(math.pi / 2)


class TestConfig:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            zoo.activation("swish")

    def test_elu_alpha_must_be_positive(self):
        with pytest.raises(ConfigError):
            zoo.activation("elu", alpha=-1.0)

    def test_snake_a_nonzero(self):
        with pytest.raises(ConfigError):
            zoo.activation("snake", a=0.0)

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            zoo.activation("relu", alpha=0.1)

    def test_nonparametric_kinds_have_empty_params(self):
        for name in ("sigmoid", "tanh", "sine", "relu", "gelu", "silu", "leakysinelu"):
            assert zoo.activation(name).params == {}

    def test_prelu_learnable_by_default(self):
        kind = zoo.activation("prelu")
        assert kind.params == {"alpha": 0.25} and kind.learnable == {"alpha"}


class TestTrainableParameters:
    def test_learnable_flag_needs_a_parameter_derivative(self):
        # elu has an alpha, but no trainable path: the flag would hash a
        # distinct cell that never trains it.
        with pytest.raises(ConfigError, match="no trainable parameter"):
            zoo.activation("elu", learnable={"alpha"})

    def test_params_override_broadcasts_against_x(self):
        x = np.linspace(-3.0, 3.0, 7)
        a = np.array([[0.5], [2.0]])
        kind = zoo.activation("snake", learnable={"a"})
        for fn in (zoo.array_value, zoo.array_derivative):
            rows = fn(kind, x, {"a": a})
            assert rows.shape == (2, 7)
            for row, value in zip(rows, a[:, 0]):
                assert np.array_equal(row, fn(zoo.activation("snake", a=value), x))

    @pytest.mark.parametrize("name, key, value", [("prelu", "alpha", 0.3), ("snake", "a", 1.7)])
    def test_param_derivative_matches_finite_differences(self, name, key, value):
        kind = zoo.activation(name, learnable={key})
        x = np.linspace(-4.0, 4.0, 41)
        x = x[np.abs(x) > 1e-3]
        h = 1e-6
        fd = (zoo.array_value(kind, x, {key: value + h})
              - zoo.array_value(kind, x, {key: value - h})) / (2 * h)
        ana = zoo.param_derivative(kind, x, {key: value})
        assert np.max(np.abs(ana - fd) / np.maximum(1.0, np.abs(ana))) < 1e-6

    def test_param_derivative_rejects_fixed_kinds(self):
        with pytest.raises(ConfigError):
            zoo.param_derivative(zoo.activation("elu"), np.zeros(3), {"alpha": 1.0})
