import math

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu import autodiff as ad
from leakysinelu.errors import ConfigError, DataError, NumericError, ShapeError


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def fd_check(build_loss, tensors, h=1e-5, tol=1e-6, n_coords=None):
    """Compare analytic grads of every tensor with central differences."""
    tape = ad.Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    worst = 0.0
    for t in tensors:
        flat = t.data.reshape(-1)
        idxs = range(flat.size) if n_coords is None else range(min(n_coords, flat.size))
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp = float(build_loss(None).data)
            flat[i] = orig - h
            lm = float(build_loss(None).data)
            flat[i] = orig
            worst = max(worst, rel_err(t.grad.reshape(-1)[i], (lp - lm) / (2 * h)))
    assert worst < tol, f"worst relative error {worst}"


class TestAffine:
    def test_examples(self):
        out = ad.affine(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0], [1.0]]), ad.Tensor([0.0]))
        assert out.data.tolist() == [[3.0]]
        out = ad.affine(ad.Tensor([[1.0]]), ad.Tensor([[2.0]]), ad.Tensor([1.0]))
        assert out.data.tolist() == [[3.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.affine(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0]]), ad.Tensor([0.0]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(3, 4)))
        w = ad.Tensor(rng.normal(size=(4, 2)))
        b = ad.Tensor(rng.normal(size=2))
        target = rng.normal(size=(3, 2))

        def build(tape):
            return ad.mse(ad.affine(x, w, b, tape), target, tape)

        fd_check(build, [x, w, b])


class TestConv1d:
    def test_sliding_sum_example(self):
        out = ad.conv1d_same(
            ad.Tensor([[[1.0, 2.0, 3.0]]]), ad.Tensor([[[1.0, 1.0, 1.0]]]), ad.Tensor([0.0])
        )
        assert out.data.ravel().tolist() == [3.0, 6.0, 5.0]

    def test_identity_kernel(self):
        x = ad.Tensor([[[1.0, -2.0, 3.0, 0.5]]])
        out = ad.conv1d_same(x, ad.Tensor([[[0.0, 1.0, 0.0]]]), ad.Tensor([0.0]))
        assert np.array_equal(out.data, x.data)

    def test_even_kernel_preserves_length(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(2, 3, 10)))
        out = ad.conv1d_same(x, ad.Tensor(rng.normal(size=(5, 3, 8))), ad.Tensor(np.zeros(5)))
        assert out.data.shape == (2, 5, 10)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ad.conv1d_same(
                ad.Tensor(np.zeros((1, 2, 5))), ad.Tensor(np.zeros((3, 1, 3))), ad.Tensor(np.zeros(3))
            )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=(2, 3, 7)))
        w = ad.Tensor(rng.normal(size=(4, 3, 5)))
        b = ad.Tensor(rng.normal(size=4))
        target = rng.normal(size=(2, 4, 7))

        def build(tape):
            return ad.mse(ad.conv1d_same(x, w, b, tape), target, tape)

        fd_check(build, [x, w, b], tol=1e-5)


class TestPooling:
    def test_mean_example(self):
        out = ad.global_avg_pool(ad.Tensor([[[1.0, 2.0, 3.0]]]))
        assert out.data.tolist() == [[2.0]]

    def test_constant_series(self):
        out = ad.global_avg_pool(ad.Tensor(np.full((2, 3, 5), 7.5)))
        assert np.array_equal(out.data, np.full((2, 3), 7.5))

    def test_gradient_is_uniform(self):
        x = ad.Tensor(np.arange(12.0).reshape(1, 2, 6))
        tape = ad.Tape()
        out = ad.global_avg_pool(x, tape)
        loss = ad.mse(out, np.zeros((1, 2)), tape)
        tape.backward(loss)
        expected = np.repeat(out.data[:, :, None], 6, axis=2) / 6  # 2*out/size * 1/L
        assert np.allclose(x.grad, expected / 1.0)


class TestBatchNorm:
    def _bn(self, x, gamma, beta, training=True, tape=None, update=False):
        rm, rv = np.zeros(x.data.shape[1]), np.ones(x.data.shape[1])
        return ad.batch_norm1d(x, gamma, beta, rm, rv, training, tape, update_running=update)

    def test_already_standardized(self):
        x = ad.Tensor(np.array([[[-1.0, 1.0, -1.0, 1.0]]]))
        out = self._bn(x, ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)))
        assert np.allclose(out.data, x.data, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(2, 3, 4)))
        out = self._bn(x, ad.Tensor(np.zeros(3)), ad.Tensor(np.full(3, 0.7)))
        assert np.allclose(out.data, 0.7)

    def test_needs_more_than_one_value(self):
        with pytest.raises(ShapeError):
            self._bn(ad.Tensor(np.ones((1, 2, 1))), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(2, 3, 4)))
        gamma = ad.Tensor(rng.uniform(0.5, 1.5, size=3))
        beta = ad.Tensor(rng.normal(size=3))
        target = rng.normal(size=(2, 3, 4))

        def build(tape):
            return ad.mse(self._bn(x, gamma, beta, tape=tape), target, tape)

        fd_check(build, [x, gamma, beta], tol=1e-5)

    def test_inference_uses_running_stats(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(2, 2, 3)))
        rm, rv = np.array([1.0, -1.0]), np.array([4.0, 0.25])
        out = ad.batch_norm1d(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), rm, rv, False)
        expected = (x.data - rm[None, :, None]) / np.sqrt(rv[None, :, None] + 1e-5)
        assert np.allclose(out.data, expected)

    def test_running_stats_updated_in_training(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(loc=3.0, size=(4, 2, 8)))
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm1d(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), rm, rv, True)
        assert np.allclose(rm, 0.1 * x.data.mean(axis=(0, 2)))


class TestDropout:
    def test_p_zero_is_identity(self):
        x = ad.Tensor(np.arange(6.0))
        assert ad.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_inference_is_identity(self):
        x = ad.Tensor(np.arange(6.0))
        assert ad.dropout(x, 0.9, False) is x

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            ad.dropout(ad.Tensor(np.ones(3)), 1.0, True, np.random.default_rng(0))

    def test_zero_fraction_and_scaling(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.5, True, rng)
        zero_frac = float((out.data == 0.0).mean())
        assert abs(zero_frac - 0.5) < 0.01
        assert np.all(np.isin(out.data, (0.0, 2.0)))

    def test_backward_uses_same_mask(self):
        x = ad.Tensor(np.ones(1000))
        tape = ad.Tape()
        out = ad.dropout(x, 0.3, True, np.random.default_rng(8), tape)
        loss = ad.mse(out, np.zeros(1000), tape)
        tape.backward(loss)
        assert np.array_equal(x.grad == 0.0, out.data == 0.0)


class TestLosses:
    def test_softmax_xent_ln2(self):
        loss = ad.softmax_xent(ad.Tensor([[0.0, 0.0]]), np.array([0]))
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_softmax_xent_stable_for_huge_logits(self):
        loss = ad.softmax_xent(ad.Tensor([[1000.0, 0.0]]), np.array([0]))
        assert 0.0 <= float(loss.data) < 1e-12

    def test_softmax_xent_gradient(self):
        logits = ad.Tensor([[0.0, 0.0]])
        tape = ad.Tape()
        loss = ad.softmax_xent(logits, np.array([0]), tape)
        tape.backward(loss)
        assert np.allclose(logits.grad, [[-0.5, 0.5]], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        probs = ad.softmax(rng.normal(scale=50.0, size=(40, 7)))
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            ad.softmax_xent(ad.Tensor([[0.0, 0.0]]), np.array([2]))

    def test_sigmoid_bce_ln2_both_labels(self):
        for label in (0, 1):
            loss = ad.sigmoid_bce(ad.Tensor([[0.0]]), np.array([label]))
            assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_sigmoid_bce_gradient(self):
        logit = ad.Tensor([[0.0]])
        tape = ad.Tape()
        loss = ad.sigmoid_bce(logit, np.array([1]), tape)
        tape.backward(loss)
        assert np.allclose(logit.grad, [[-0.5]], atol=1e-12)

    def test_losses_nonnegative_and_finite(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(scale=100.0, size=(20, 4))
        labels = rng.integers(0, 4, size=20)
        loss = float(ad.softmax_xent(ad.Tensor(logits), labels).data)
        assert loss >= 0.0 and math.isfinite(loss)
        z = rng.normal(scale=100.0, size=(20, 1))
        y = rng.integers(0, 2, size=20)
        loss = float(ad.sigmoid_bce(ad.Tensor(z), y).data)
        assert loss >= 0.0 and math.isfinite(loss)


class TestActivate:
    def test_prelu_parameter_gradient(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(size=(4, 3)))
        alpha = ad.Tensor(np.full(3, 0.25))
        target = rng.normal(size=(4, 3))
        kind = zoo.activation("prelu")

        def build(tape):
            return ad.mse(ad.activate(x, kind, tape, param=alpha), target, tape)

        fd_check(build, [x, alpha], tol=1e-6)

    def test_snake_parameter_gradient(self):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.normal(size=(2, 3, 5)))
        a = ad.Tensor(np.full(3, 1.0))
        target = rng.normal(size=(2, 3, 5))
        kind = zoo.activation("snake", learnable=("a",))

        def build(tape):
            return ad.mse(ad.activate(x, kind, tape, param=a), target, tape)

        fd_check(build, [x, a], tol=1e-6)

    def test_fixed_parameter_path_matches_zoo(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4))
        kind = zoo.activation("elu")
        out = ad.activate(ad.Tensor(x), kind)
        assert np.array_equal(out.data, zoo.array_value(kind, x))


class TestBackward:
    def test_single_affine_identity_loss(self):
        x = ad.Tensor([[3.0, -2.0]])
        w = ad.Tensor([[1.0], [1.0]])
        b = ad.Tensor([0.0])
        tape = ad.Tape()
        out = ad.affine(x, w, b, tape)
        tape.backward(out)  # (1,1) output is its own scalar loss
        assert np.array_equal(w.grad, x.data.T)
        assert np.array_equal(b.grad, [1.0])

    def test_zero_weight_relu_network_has_finite_gradients(self):
        x = ad.Tensor(np.ones((2, 3)))
        w1, b1 = ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros(4))
        w2, b2 = ad.Tensor(np.zeros((4, 2))), ad.Tensor(np.zeros(2))
        tape = ad.Tape()
        h = ad.activate(ad.affine(x, w1, b1, tape), zoo.activation("relu"), tape)
        loss = ad.softmax_xent(ad.affine(h, w2, b2, tape), np.array([0, 1]), tape)
        tape.backward(loss)
        for t in (w1, b1, w2, b2):
            assert np.all(np.isfinite(t.grad))

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor(np.ones((2, 2)))
        tape = ad.Tape()
        out = ad.affine(x, ad.Tensor(np.eye(2)), ad.Tensor(np.zeros(2)), tape)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_replay_is_bitwise_identical(self):
        rng = np.random.default_rng(14)
        x = ad.Tensor(rng.normal(size=(4, 6)))
        w = ad.Tensor(rng.normal(size=(6, 3)))
        b = ad.Tensor(rng.normal(size=3))
        labels = np.array([0, 1, 2, 1])
        tape = ad.Tape()
        out = ad.activate(ad.affine(x, w, b, tape), zoo.activation("leakysinelu"), tape)
        loss = ad.softmax_xent(out, labels, tape)
        tape.backward(loss)
        first = {id(t): t.grad.copy() for t in (x, w, b)}
        for t in (x, w, b):
            t.grad = None
        tape.backward(loss)
        for t in (x, w, b):
            assert np.array_equal(t.grad, first[id(t)])

    def test_nonfinite_forward_raises(self):
        with pytest.raises(NumericError):
            ad.affine(ad.Tensor([[1e308]]), ad.Tensor([[1e308]]), ad.Tensor([0.0]))


class TestActivatePath:
    @pytest.mark.parametrize("name, key", [("prelu", "alpha"), ("snake", "a")])
    def test_trainable_parameter_goes_through_the_catalog(self, monkeypatch, name, key):
        calls = []
        for fn_name in ("array_value", "array_derivative", "param_derivative"):
            real = getattr(zoo, fn_name)

            def spy(*args, _real=real, _name=fn_name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(zoo, fn_name, spy)
        rng = np.random.default_rng(14)
        x = ad.Tensor(rng.normal(size=(4, 3)))
        param = ad.Tensor(np.full(3, 0.5))
        kind = zoo.activation(name, learnable={key})
        tape = ad.Tape()
        out = ad.activate(x, kind, tape, param=param)
        tape.backward(ad.mse(out, np.zeros((4, 3)), tape))
        assert calls == ["array_value", "array_derivative", "param_derivative"]
        assert param.grad is not None and param.grad.shape == (3,)
        assert np.array_equal(out.data, zoo.array_value(kind, x.data, {key: np.full((1, 3), 0.5)}))
