import dataclasses
import math

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu.errors import ConfigError, ContractError
from leakysinelu.properties import (
    PERIOD_TOL,
    FourierSeries,
    affine_collapse,
    check_limits,
    check_monotone,
    check_semi_periodicity,
    dead_region_trace,
    fourier_fit_demo,
    fourier_series,
    property_report,
    semi_periodic_regions,
)


class TestLimits:
    def test_leakysinelu_diverges_both_ways(self):
        neg, pos = check_limits("leakysinelu")
        assert (neg.verdict, neg.value) == ("diverges", -math.inf)
        assert (pos.verdict, pos.value) == ("diverges", math.inf)

    def test_sigmoid_saturates(self):
        neg, pos = check_limits("sigmoid")
        assert neg.verdict == "constant" and abs(neg.value - 0.0) < 1e-12
        assert pos.verdict == "constant" and abs(pos.value - 1.0) < 1e-12

    def test_sine_oscillates(self):
        neg, pos = check_limits("sine")
        assert neg.verdict == pos.verdict == "oscillates"

    def test_elu_lower_bound(self):
        neg, pos = check_limits("elu")
        assert neg.verdict == "constant" and neg.value == pytest.approx(-1.0, abs=1e-12)
        assert pos.verdict == "diverges"


class TestSemiPeriodicity:
    def test_leakysinelu_positive_branch(self):
        dev = check_semi_periodicity("leakysinelu", math.pi, (0.0, 20.0))
        assert dev < 1e-12

    def test_leakysinelu_negative_branch(self):
        dev = check_semi_periodicity("leakysinelu", math.pi, (-20.0, -math.pi))
        assert dev < 1e-12

    def test_snake_whole_line(self):
        dev = check_semi_periodicity("snake", math.pi, (-20.0, 20.0))
        assert dev < 1e-12

    def test_sigmoid_not_semi_periodic(self):
        dev = check_semi_periodicity("sigmoid", math.pi, (-5.0, 5.0))
        assert dev > 0.01

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -math.pi])
    def test_period_not_finite_and_positive_rejected(self, period):
        # A NaN period would give nan as the maximum deviation.
        with pytest.raises(ConfigError, match="period must be finite and positive"):
            check_semi_periodicity("leakysinelu", period, (0.0, 20.0))

    def test_leakysinelu_checked_per_branch(self):
        assert semi_periodic_regions("leakysinelu") == ((0.0, 20.0), (-20.0, -math.pi))


class TestMonotone:
    def test_leakysinelu_monotone(self):
        monotone, witness = check_monotone("leakysinelu")
        assert monotone and witness is None

    def test_relu_monotone(self):
        assert check_monotone("relu")[0]

    def test_gelu_witness_near_minus_two(self):
        monotone, witness = check_monotone("gelu")
        assert not monotone
        x, d = witness
        assert -4.0 < x < -1.0 and d < -0.05


class TestAffineCollapse:
    def test_hand_example(self):
        w, b = affine_collapse([(np.array([[2.0]]), np.array([1.0])),
                                (np.array([[3.0]]), np.array([0.0]))])
        assert w.tolist() == [[6.0]] and b.tolist() == [3.0]

    def test_single_layer_is_itself(self):
        w1 = np.arange(6.0).reshape(2, 3)
        b1 = np.arange(3.0)
        w, b = affine_collapse([(w1, b1)])
        assert np.array_equal(w, w1) and np.array_equal(b, b1)

    def test_matches_sequential_forward(self):
        rng = np.random.default_rng(0)
        widths = [4, 5, 3, 2]
        layers = [
            (rng.normal(size=(widths[i], widths[i + 1])), rng.normal(size=widths[i + 1]))
            for i in range(len(widths) - 1)
        ]
        w, b = affine_collapse(layers)
        for _ in range(100):
            x = rng.normal(size=widths[0])
            full = x
            for wi, bi in layers:
                full = full @ wi + bi
            assert np.abs(full - (x @ w + b)).max() < 1e-9

    def test_associative_composition(self):
        rng = np.random.default_rng(1)
        widths = [3, 6, 4, 5, 2]
        layers = [
            (rng.normal(size=(widths[i], widths[i + 1])), rng.normal(size=widths[i + 1]))
            for i in range(len(widths) - 1)
        ]
        whole = affine_collapse(layers)
        for split in range(1, len(layers)):
            head = affine_collapse(layers[:split])
            tail = affine_collapse(layers[split:])
            composed = affine_collapse([head, tail])
            assert np.abs(composed[0] - whole[0]).max() < 1e-9
            assert np.abs(composed[1] - whole[1]).max() < 1e-9

    def test_non_dense_layer_rejected(self):
        with pytest.raises(ContractError):
            affine_collapse([(np.zeros((2, 2)), np.zeros(2)), "dropout"])
        with pytest.raises(ContractError):
            affine_collapse([(np.zeros((2, 3)), np.zeros(3)), (np.zeros((2, 2)), np.zeros(2))])


class TestFourierDemo:
    def test_pure_sine_is_recovered(self):
        mse = fourier_fit_demo(FourierSeries(a0=0.0, an=(0.0,), bn=(1.0,)), period=2 * math.pi)
        assert mse < 1e-6

    def test_constant_needs_only_bias(self):
        mse = fourier_fit_demo(FourierSeries(a0=1.4), period=2 * math.pi)
        assert mse < 1e-8

    def test_three_term_series(self):
        rng = np.random.default_rng(7)
        c = rng.uniform(-1.0, 1.0, size=7)
        series = FourierSeries(a0=c[0], an=tuple(c[1:4]), bn=tuple(c[4:7]))
        assert fourier_fit_demo(series, period=2 * math.pi) < 1e-4

    def test_series_evaluation(self):
        t = np.linspace(0, 4 * math.pi, 64)
        got = fourier_series(FourierSeries(a0=2.0, an=(1.0,), bn=(0.5,)), 2 * math.pi, t)
        expected = 1.0 + np.cos(t) + 0.5 * np.sin(t)
        assert np.allclose(got, expected, atol=1e-12)


class TestDeadRegion:
    def test_relu_matches_negative_fraction(self):
        rng = np.random.default_rng(2)
        series = rng.normal(size=100)
        series[:40] = -np.abs(series[:40]) - 0.1
        series[40:] = np.abs(series[40:]) + 0.1
        _, frac = dead_region_trace("relu", series)
        assert frac == pytest.approx(0.4)

    def test_leakysinelu_loses_nothing(self):
        rng = np.random.default_rng(2)
        series = rng.normal(size=100)
        series[:40] = -np.abs(series[:40]) - 0.1
        _, frac = dead_region_trace("leakysinelu", series)
        assert frac == 0.0

    def test_all_positive_relu(self):
        _, frac = dead_region_trace("relu", np.linspace(0.5, 3.0, 50))
        assert frac == 0.0

    def test_fraction_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for name in zoo.ACTIVATION_NAMES:
            _, frac = dead_region_trace(name, rng.normal(size=64))
            assert 0.0 <= frac <= 1.0


class TestPropertyReport:
    @pytest.mark.parametrize("name", zoo.ACTIVATION_NAMES)
    def test_probes_agree_with_catalog(self, name):
        report = property_report(name)
        assert report.matches_catalog, report.mismatches

    def test_wrong_period_is_a_mismatch(self, monkeypatch):
        wrong = dataclasses.replace(zoo.catalog("leakysinelu"), semi_periodic_period=2.0)
        monkeypatch.setattr(zoo, "_REGISTRY", {**zoo._REGISTRY, "leakysinelu": wrong})
        report = property_report("leakysinelu")
        assert not report.matches_catalog
        assert [m.split(":")[0] for m in report.mismatches] == ["semi-periodicity"]
        assert report.semi_periodic_max_dev > PERIOD_TOL

    def test_sine_carries_table_note(self):
        assert property_report("sine").table_note is not None

    def test_gelu_empirical_minimum_dips_below_zero(self):
        report = property_report("gelu")
        assert -0.2 < report.empirical_min < 0.0

    def test_violation_reports_carry_witness(self):
        monotone, witness = check_monotone("silu")
        assert not monotone and witness is not None
        x, d = witness
        assert zoo.derivative(zoo.activation("silu"), x) == d < 0
