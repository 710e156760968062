import dataclasses
import math

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu import autodiff as ad
from leakysinelu import properties
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
        d = zoo.derivative(zoo.activation("leakysinelu"), math.pi / 4)
        assert d == pytest.approx(2.0, abs=1e-15)

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
    def test_every_record_is_pinned(self):
        # name: (lower, upper, monotonic, period, deviation), kinks, subdifferential at 0
        inf, sine_note = math.inf, (
            "commonly tabulated as bounded in [0, 1]; sin(x) has no limit at +-inf "
            "and its range is [-1, 1], so no limit is stored")
        table = {
            "sigmoid": ((0.0, 1.0, True, None, None), (), (0.25, 0.25)),
            "tanh": ((-1.0, 1.0, True, None, None), (), (1.0, 1.0)),
            "sine": ((None, None, False, 2 * math.pi, sine_note), (), (1.0, 1.0)),
            "relu": ((0.0, inf, True, None, None), (0.0,), (0.0, 1.0)),
            "elu": ((-1.0, inf, True, None, None), (), (1.0, 1.0)),
            "prelu": ((-inf, inf, True, None, None), (0.0,), (0.25, 1.0)),
            "gelu": ((0.0, inf, False, None, None), (), (0.5, 0.5)),
            "silu": ((0.0, inf, False, None, None), (), (0.5, 0.5)),
            "snake": ((-inf, inf, True, math.pi, None), (), (1.0, 1.0)),
            "leakysinelu": ((-inf, inf, True, math.pi, None), (0.0,), (0.5, 1.0)),
        }
        assert tuple(table) == zoo.ACTIVATION_NAMES
        for name, (row, kinks, slopes) in table.items():
            rec = zoo.catalog(name)
            assert (rec.lower_limit, rec.upper_limit, rec.monotonic,
                    rec.semi_periodic_period, rec.deviation) == row, name
            assert zoo.kink_points(name) == kinks, name
            assert zoo.subdifferential(name, 0.0) == zoo.Subdifferential(*slopes), name

    @pytest.mark.parametrize("name", zoo.ACTIVATION_NAMES)
    def test_catalog_is_the_registry_record(self, name):
        kind = zoo.activation(name)
        assert zoo.catalog(name) is zoo.catalog(kind) is zoo._REGISTRY[name]
        assert kind.params is zoo.catalog(name).defaults

    @pytest.mark.parametrize("name", zoo.ACTIVATION_NAMES)
    def test_defaults_are_read_only(self, name):
        rec = zoo.catalog(name)
        with pytest.raises(TypeError):
            rec.defaults["alpha"] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.defaults = {"alpha": 0.5}

    def test_a_record_keeps_no_callers_dict(self):
        defaults, learnable = {"s": 1.0}, {"s"}
        rec = zoo.PropertyRecord(formula=None, lower_limit=None, upper_limit=None,
                                 monotonic=False, defaults=defaults, learnable=learnable)
        defaults["s"] = 2.0
        learnable.add("t")
        assert rec.defaults == {"s": 1.0} and rec.learnable == frozenset({"s"})

    @pytest.mark.parametrize("name", zoo.ACTIVATION_NAMES)
    def test_param_formula_exactly_when_learnable(self, name):
        rec = zoo.catalog(name)
        assert (rec.param_formula is not None) == bool(rec.learnable)


class TestConfig:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            zoo.activation("swish")

    def test_unknown_name_lists_the_choices(self):
        # The wording every "unknown <name>" error of the package shares.
        with pytest.raises(ConfigError, match="unknown activation 'swish'; choose from sigmoid, "):
            zoo.activation("swish")

    # A kind is its name: the values below can only arrive in a doc (a
    # results record, a worker payload, a checkpoint), and kind_from_dict
    # rejects any value the catalog does not fix.
    def test_elu_alpha_must_be_positive(self):
        with pytest.raises(ConfigError, match="elu takes no parameter values"):
            zoo.kind_from_dict({"name": "elu", "params": {"alpha": -1.0}, "learnable": []})

    def test_snake_a_nonzero(self):
        with pytest.raises(ConfigError, match="snake takes no parameter values"):
            zoo.kind_from_dict({"name": "snake", "params": {"a": 0.0}, "learnable": []})

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="relu takes no parameter values"):
            zoo.kind_from_dict({"name": "relu", "params": {"alpha": 0.1}, "learnable": []})

    @pytest.mark.parametrize("doc, message", [
        ({"name": "snake", "params": {"a": 2.0}, "learnable": []}, "snake takes no parameter"),
        ({"name": "snake", "params": {}, "learnable": []}, "snake takes no parameter"),
        ({"name": "prelu", "params": {"alpha": 0.25}, "learnable": []}, "prelu trains no"),
        ({"name": "snake", "params": {"a": 1.0}, "learnable": ["a"]}, "snake trains no"),
    ], ids=["snake-a-2", "snake-a-missing", "prelu-not-trained", "snake-trained"])
    def test_doc_unlike_the_catalog_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            zoo.kind_from_dict(doc)

    def test_kind_is_its_name(self):
        a, b = zoo.activation("prelu"), zoo.activation("prelu")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != zoo.activation("relu")
        with pytest.raises(TypeError):
            a.params["alpha"] = 0.5  # the catalog's value, read-only
        assert zoo.activation("prelu").params == {"alpha": 0.25}

    def test_kind_to_dict_is_unchanged(self):
        # These dicts feed every cell hash, record and checkpoint.
        assert [zoo.kind_to_dict(kind) for kind in ALL_KINDS] == [
            {"name": "sigmoid", "params": {}, "learnable": []},
            {"name": "tanh", "params": {}, "learnable": []},
            {"name": "sine", "params": {}, "learnable": []},
            {"name": "relu", "params": {}, "learnable": []},
            {"name": "elu", "params": {"alpha": 1.0}, "learnable": []},
            {"name": "prelu", "params": {"alpha": 0.25}, "learnable": ["alpha"]},
            {"name": "gelu", "params": {}, "learnable": []},
            {"name": "silu", "params": {}, "learnable": []},
            {"name": "snake", "params": {"a": 1.0}, "learnable": []},
            {"name": "leakysinelu", "params": {}, "learnable": []},
        ]
        for kind in ALL_KINDS:
            assert zoo.kind_from_dict(zoo.kind_to_dict(kind)) == kind

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
        with pytest.raises(ConfigError, match="elu trains no parameters"):
            zoo.kind_from_dict({"name": "elu", "params": {"alpha": 1.0}, "learnable": ["alpha"]})

    def test_params_override_broadcasts_against_x(self):
        x = np.linspace(-3.0, 3.0, 7)
        alpha = np.array([[0.1], [-0.3]])
        kind = zoo.activation("prelu")
        for fn in (zoo.array_value, zoo.array_derivative):
            rows = fn(kind, x, {"alpha": alpha})
            assert rows.shape == (2, 7)
            for row, value in zip(rows, alpha[:, 0]):
                assert np.array_equal(row, fn(kind, x, {"alpha": value}))

    @pytest.mark.parametrize("name, key, value", [("prelu", "alpha", 0.3)])
    def test_param_derivative_matches_finite_differences(self, name, key, value):
        kind = zoo.activation(name)
        x = np.linspace(-4.0, 4.0, 41)
        x = x[np.abs(x) > 1e-3]
        h = 1e-6
        fd = (zoo.array_value(kind, x, {key: value + h})
              - zoo.array_value(kind, x, {key: value - h})) / (2 * h)
        ana = zoo.param_derivative(kind, x, {key: value})
        assert np.max(np.abs(ana - fd) / np.maximum(1.0, np.abs(ana))) < 1e-6

    @pytest.mark.parametrize("name, params", [
        ("relu", {"alpha": 0.5}), ("prelu", {}), ("snake", {"a": 0.37})])
    def test_params_must_name_the_trainable_set(self, name, params):
        for fn in (zoo.array_value_and_derivative, zoo.array_value, zoo.array_derivative,
                   zoo.param_derivative):
            with pytest.raises(ConfigError, match="params must name its trainable set"):
                fn(zoo.activation(name), np.linspace(-1.0, 1.0, 5), params)

    @pytest.mark.parametrize("name", zoo.ACTIVATION_NAMES)
    def test_params_at_the_catalogs_values_give_the_catalogs_bits(self, name):
        # Exactly the trainable set (empty for all but PReLU), at its defaults.
        kind = zoo.activation(name)
        x = np.linspace(-4.0, 4.0, 41)
        params = {key: kind.params[key] for key in kind.learnable}
        for fn in (zoo.array_value_and_derivative, zoo.array_value, zoo.array_derivative):
            assert np.asarray(fn(kind, x, params)).tobytes() == np.asarray(fn(kind, x)).tobytes()

    def test_param_derivative_rejects_fixed_kinds(self):
        with pytest.raises(ConfigError):
            zoo.param_derivative(zoo.activation("elu"), np.zeros(3), {"alpha": 1.0})


class TestRegistry:
    def test_names_keep_their_order(self):
        # The order fixes the sweep's cell order and the stats columns, so
        # it feeds every results digest.
        assert zoo.ACTIVATION_NAMES == (
            "sigmoid", "tanh", "sine", "relu", "elu",
            "prelu", "gelu", "silu", "snake", "leakysinelu",
        )

    def test_one_entry_adds_an_activation(self, monkeypatch):
        identity = zoo.PropertyRecord(
            formula=lambda x, p: (x, np.ones_like(x)),
            lower_limit=-math.inf, upper_limit=math.inf, monotonic=True,
        )
        monkeypatch.setattr(zoo, "_REGISTRY", {**zoo._REGISTRY, "identity": identity})
        kind = zoo.activation("identity")
        assert kind.params == {} and kind.learnable == frozenset()
        rec = zoo.catalog(kind)
        assert (rec.lower_limit, rec.upper_limit, rec.monotonic) == (-math.inf, math.inf, True)
        assert rec.semi_periodic_period is None and rec.deviation is None
        x = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(zoo.array_value(kind, x), x)
        assert np.array_equal(zoo.array_derivative(kind, x), np.ones(7))
        assert zoo.kink_points(kind) == ()
        assert zoo.subdifferential(kind, 0.0) == zoo.Subdifferential(1.0, 1.0)
        report = properties.property_report("identity")
        assert report.matches_catalog, report.mismatches
        with pytest.raises(ConfigError, match="leakysinelu, identity"):
            zoo.activation("swish")
        with pytest.raises(ConfigError, match="no trainable parameter"):
            zoo.param_derivative(kind, x, {})

    def test_one_record_adds_a_trainable_activation(self, monkeypatch):
        # s * x that trains s: nothing outside this record names it.
        scale = zoo.PropertyRecord(
            formula=lambda x, p: (p["s"] * x, p["s"] * np.ones_like(x)),
            lower_limit=-math.inf, upper_limit=math.inf, monotonic=True,
            defaults={"s": 2.0}, learnable={"s"}, param_formula=lambda x, p: x,
        )
        monkeypatch.setattr(zoo, "_REGISTRY", {**zoo._REGISTRY, "scale": scale})
        kind = zoo.activation("scale")
        assert kind.params == {"s": 2.0} and kind.learnable == {"s"}
        assert zoo.kind_from_dict(zoo.kind_to_dict(kind)) == kind
        rng = np.random.default_rng(29)
        x = ad.Tensor(rng.normal(size=(4, 3)))
        s = ad.Tensor(np.array([0.5, 1.0, 2.0]))
        tape = ad.Tape()
        out = ad.activate(x, kind, tape, param=s)
        tape.backward(ad.mse(out, np.zeros((4, 3)), tape))
        # loss = mean((s x)^2) over 12 elements
        assert np.allclose(out.data, s.data * x.data, rtol=0.0, atol=1e-15)
        assert np.allclose(s.grad, (2.0 * s.data * x.data**2).sum(axis=0) / 12, rtol=1e-14)
        assert np.allclose(x.grad, 2.0 * s.data**2 * x.data / 12, rtol=1e-14)
