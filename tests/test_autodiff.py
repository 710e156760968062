import gc
import math
import weakref

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu import autodiff as ad
from leakysinelu import kernels, models
from leakysinelu.errors import ConfigError, ContractError, DataError, NumericError, ShapeError


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

    def test_input_without_gradient_gets_none(self):
        rng = np.random.default_rng(3)
        data, target = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
        grads = []
        for requires_grad in (True, False):
            x = ad.Tensor(data, requires_grad=requires_grad)
            w, b = ad.Tensor(np.arange(8.0).reshape(4, 2)), ad.Tensor(np.ones(2))
            tape = ad.Tape()
            tape.backward(ad.mse(ad.affine(x, w, b, tape), target, tape))
            grads.append((x.grad, w.grad, b.grad))
        (_, w_grad, b_grad), (x_grad, w_grad2, b_grad2) = grads
        assert x_grad is None
        assert np.array_equal(w_grad, w_grad2) and np.array_equal(b_grad, b_grad2)


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
        x = ad.Tensor(rng.normal(size=(3, 2, 10)))
        out = ad.conv1d_same(x, ad.Tensor(rng.normal(size=(5, 3, 8))), ad.Tensor(np.zeros(5)))
        assert out.data.shape == (5, 2, 10)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ad.conv1d_same(
                ad.Tensor(np.zeros((2, 1, 5))), ad.Tensor(np.zeros((3, 1, 3))),
                ad.Tensor(np.zeros(3)),
            )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=(3, 2, 7)))
        w = ad.Tensor(rng.normal(size=(4, 3, 5)))
        b = ad.Tensor(rng.normal(size=4))
        target = rng.normal(size=(4, 2, 7))

        def build(tape):
            return ad.mse(ad.conv1d_same(x, w, b, tape), target, tape)

        fd_check(build, [x, w, b], tol=1e-5)


class TestPooling:
    def test_mean_example(self):
        out = ad.global_avg_pool(ad.Tensor([[[1.0, 2.0, 3.0]]]))
        assert out.data.tolist() == [[2.0]]

    def test_constant_series(self):
        out = ad.global_avg_pool(ad.Tensor(np.full((3, 2, 5), 7.5)))
        assert np.array_equal(out.data, np.full((2, 3), 7.5))

    def test_gradient_is_uniform(self):
        x = ad.Tensor(np.arange(12.0).reshape(2, 1, 6))
        tape = ad.Tape()
        out = ad.global_avg_pool(x, tape)
        loss = ad.mse(out, np.zeros((1, 2)), tape)
        tape.backward(loss)
        expected = np.repeat(out.data.T[:, :, None], 6, axis=2) / 6  # 2*out/size * 1/L
        assert np.allclose(x.grad, expected / 1.0)


class TestBatchNorm:
    def _bn(self, x, gamma, beta, training=True, tape=None):
        rm, rv = np.zeros(x.data.shape[0]), np.ones(x.data.shape[0])
        return ad.batch_norm1d(x, gamma, beta, rm, rv, training, tape)

    def test_already_standardized(self):
        x = ad.Tensor(np.array([[[-1.0, 1.0, -1.0, 1.0]]]))
        out = self._bn(x, ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)))
        assert np.allclose(out.data, x.data, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(3, 2, 4)))
        out = self._bn(x, ad.Tensor(np.zeros(3)), ad.Tensor(np.full(3, 0.7)))
        assert np.allclose(out.data, 0.7)

    def test_needs_more_than_one_value(self):
        with pytest.raises(ShapeError):
            self._bn(ad.Tensor(np.ones((2, 1, 1))), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients_match_finite_differences(self, training):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(3, 2, 4)))
        gamma = ad.Tensor(rng.uniform(0.5, 1.5, size=3))
        beta = ad.Tensor(rng.normal(size=3))
        target = rng.normal(size=(3, 2, 4))
        running = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)

        def build(tape):
            rm, rv = (a.copy() for a in running)  # training mode updates them
            out = ad.batch_norm1d(x, gamma, beta, rm, rv, training, tape)
            return ad.mse(out, target, tape)

        fd_check(build, [x, gamma, beta], tol=1e-5)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble is no wider than float64 on this platform")
    @pytest.mark.parametrize("shape", [(3, 4, 5), (128, 16, 128), (256, 16, 128)])
    def test_training_gradient_matches_extended_precision(self, shape):
        """Training-mode dx within 1e-15 of max |dx| of the same gradient
        evaluated in longdouble. B*L = 2 is left out: there xhat is +-1 up to
        rounding and dx cancels almost to nothing, so a float64 evaluation,
        in this form or the s1/s2 one, errs by about 4e-12 of max |dx|."""
        rng = np.random.default_rng(shape[0])
        x = rng.normal(loc=0.3, scale=2.0, size=shape)
        gamma, beta = rng.normal(size=shape[0]), rng.normal(size=shape[0])
        g = rng.normal(size=shape)
        tx = ad.Tensor(x)
        tape = ad.Tape()
        ad.batch_norm1d(tx, ad.Tensor(gamma), ad.Tensor(beta), np.zeros(shape[0]),
                        np.ones(shape[0]), True, tape)
        tape._records[-1][2](g)

        xl, gl, n = x.astype(np.longdouble), g.astype(np.longdouble), shape[1] * shape[2]
        centred = xl - xl.mean(axis=(1, 2), keepdims=True)
        inv = 1 / np.sqrt((centred * centred).mean(axis=(1, 2), keepdims=True) + ad.BN_EPS)
        xhat, dxhat = centred * inv, gl * gamma.astype(np.longdouble)[:, None, None]
        s1 = dxhat.sum(axis=(1, 2), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(1, 2), keepdims=True)
        want = inv / n * (n * dxhat - s1 - xhat * s2)
        assert np.abs(tx.grad - want).max() <= 1e-15 * np.abs(want).max()

    def test_inference_uses_running_stats(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(2, 2, 3)))
        rm, rv = np.array([1.0, -1.0]), np.array([4.0, 0.25])
        out = ad.batch_norm1d(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), rm, rv, False)
        expected = (x.data - rm[:, None, None]) / np.sqrt(rv[:, None, None] + 1e-5)
        assert np.allclose(out.data, expected)

    def test_running_stats_updated_in_training(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(loc=3.0, size=(2, 4, 8)))
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm1d(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), rm, rv, True)
        assert np.allclose(rm, 0.1 * x.data.mean(axis=(1, 2)))


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

    def test_input_without_gradient_records_nothing(self):
        data = np.arange(1.0, 101.0)
        tape = ad.Tape()
        out = ad.dropout(ad.Tensor(data, requires_grad=False), 0.3, True,
                         np.random.default_rng(8), tape)
        want = ad.dropout(ad.Tensor(data), 0.3, True, np.random.default_rng(8), ad.Tape())
        assert not out.requires_grad and not tape._records
        assert np.array_equal(out.data, want.data)

    def test_mlp_step_records_no_op_on_the_data_batch(self):
        spec = models.build_mlp(6, 3, "relu")
        state = models.init_params(spec, 0)
        tape = ad.Tape()
        models.forward(spec, state, np.ones((4, 6)), tape=tape, training=True,
                       rng=np.random.default_rng(0))
        assert [op for op, _, _ in tape._records] == [
            "affine", "relu", "dropout", "affine", "relu", "dropout", "affine"]


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

    @pytest.mark.parametrize("name", zoo.ACTIVATION_NAMES)
    def test_fixed_parameter_path_matches_zoo(self, name):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4))
        kind = zoo.activation(name)
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

    def test_second_backward_raises_and_keeps_leaf_grads(self):
        rng = np.random.default_rng(14)
        x = ad.Tensor(rng.normal(size=(4, 6)))
        w = ad.Tensor(rng.normal(size=(6, 3)))
        b = ad.Tensor(rng.normal(size=3))
        labels = np.array([0, 1, 2, 1])
        tape = ad.Tape()
        out = ad.activate(ad.affine(x, w, b, tape), zoo.activation("leakysinelu"), tape)
        loss = ad.softmax_xent(out, labels, tape)
        tape.backward(loss)
        first = [t.grad.copy() for t in (x, w, b)]
        with pytest.raises(ContractError, match="backward already ran"):
            tape.backward(loss)
        for t, grad in zip((x, w, b), first):
            assert np.array_equal(t.grad, grad)

    def test_backward_frees_each_record_it_runs(self, monkeypatch):
        # Reference counting alone must free what each op saved: with the
        # cycle collector off, nothing a record held may outlive backward.
        # Each conv keeps its input for conv1d_grad_kernel.
        closures, conv_inputs = [], []
        record, conv1d_forward = ad.Tape.record, kernels.conv1d_forward

        def keep_closure(tape, op, out, backward_fn):
            closures.append(weakref.ref(backward_fn))
            record(tape, op, out, backward_fn)

        def keep_input(x, w, pad_left):
            conv_inputs.append(weakref.ref(x))
            return conv1d_forward(x, w, pad_left)

        monkeypatch.setattr(ad.Tape, "record", keep_closure)
        monkeypatch.setattr(kernels, "conv1d_forward", keep_input)
        spec = models.build_fcn(16, 3, "leakysinelu")
        state = models.init_params(spec, 0)
        params = models.wrap_params(state)
        x = np.random.default_rng(3).normal(size=(4, 16))
        gc.disable()
        try:
            tape = ad.Tape()
            logits = models.forward(spec, state, x, tape=tape, training=True,
                                    rng=np.random.default_rng(0), param_tensors=params)
            tape.backward(ad.softmax_xent(logits, np.array([0, 1, 2, 1]), tape))
            assert len(closures) == 12 and len(conv_inputs) == 3
            assert [ref for ref in closures + conv_inputs if ref() is not None] == []
        finally:
            gc.enable()
        assert all(t.grad is not None for t in params.values())

    def test_nonfinite_forward_raises(self):
        with pytest.raises(NumericError):
            ad.affine(ad.Tensor([[1e308]]), ad.Tensor([[1e308]]), ad.Tensor([0.0]))


def add(a: ad.Tensor, b: ad.Tensor, tape: ad.Tape) -> ad.Tensor:
    """a + b, recorded on ``tape``: a join, so that one tensor can reach the
    loss along two paths."""
    out, sa, sb = ad.Tensor(a.data + b.data), a.slot, b.slot

    def bwd(g):
        ad._accumulate(sa, g, "add")
        ad._accumulate(sb, g, "add")

    tape.record("add", out.slot, bwd)
    return out


class TestGradientOwnership:
    """An input's ``.grad`` is the array its op handed over, not a copy, and a
    second gradient is added out of place."""

    def test_conv_input_gradient_is_the_array_the_kernel_made(self, monkeypatch):
        made, real = [], kernels.conv1d_grad_input

        def spy(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(kernels, "conv1d_grad_input", spy)
        rng = np.random.default_rng(15)
        x = ad.Tensor(rng.normal(size=(3, 2, 7)))
        w, b = ad.Tensor(rng.normal(size=(4, 3, 5))), ad.Tensor(rng.normal(size=4))
        tape = ad.Tape()
        tape.backward(ad.mse(ad.conv1d_same(x, w, b, tape), np.zeros((4, 2, 7)), tape))
        assert len(made) == 1 and x.grad is made[0]

    def test_second_gradient_is_added_without_writing_into_either(self, monkeypatch):
        # x feeds activate, then global_avg_pool, so backward hands x the
        # pool's read-only broadcast view first and the activation's gradient
        # second.
        rng = np.random.default_rng(16)
        x = ad.Tensor(rng.normal(size=(3, 2, 5)))
        handed, accumulate = [], ad._accumulate

        def spy(slot, g, op):
            if slot is x.slot:
                handed.append((op, g, g.copy()))
            accumulate(slot, g, op)

        monkeypatch.setattr(ad, "_accumulate", spy)
        tape = ad.Tape()
        via_tanh = ad.global_avg_pool(ad.activate(x, zoo.activation("tanh"), tape), tape)
        pooled = ad.global_avg_pool(x, tape)
        tape.backward(ad.mse(add(via_tanh, pooled, tape), rng.normal(size=(2, 3)), tape))
        (first_op, view, view_was), (second_op, dx, dx_was) = handed
        assert (first_op, second_op) == ("global_avg_pool", "tanh")
        assert not view.flags.writeable and view.strides[2] == 0
        expected = np.array(view)
        expected += dx
        assert x.grad.tobytes() == expected.tobytes()
        assert view.tobytes() == view_was.tobytes() and dx.tobytes() == dx_was.tobytes()


class TestWhatTheTapeKeeps:
    """With the cycle collector off, reference counting alone decides which
    op outputs outlive ``models.forward``: only those a later backward reads."""

    FCN_OPS = ["conv1d_same", "batch_norm1d", "activate"] * 3

    @staticmethod
    def forward(monkeypatch, spec, seen=()):
        """A training forward of ``spec`` on a toy batch; ``seen`` ops append
        (op, weakref to output data) to the list returned beside the tape."""
        outputs = []
        for op in seen:
            def spy(*args, _real=getattr(ad, op), _op=op, **kwargs):
                out = _real(*args, **kwargs)
                outputs.append((_op, weakref.ref(out.data)))
                return out

            monkeypatch.setattr(ad, op, spy)
        state = models.init_params(spec, 0)
        x = np.random.default_rng(4).normal(size=(4, spec.input_length))
        tape = ad.Tape()
        logits = models.forward(spec, state, x, tape=tape, training=True,
                                rng=np.random.default_rng(0))
        return tape, logits, outputs

    @staticmethod
    def alive(outputs):
        return [(op, i) for i, (op, ref) in enumerate(outputs) if ref() is not None]

    def test_only_the_conv_inputs_outlive_the_forward(self, monkeypatch):
        # Batch norm keeps xhat, activate its derivative and global_avg_pool
        # a shape, so the conv, batch-norm and last activation outputs die;
        # the first two activation outputs are the inputs the next convs keep.
        gc.disable()
        try:
            tape, logits, outputs = self.forward(
                monkeypatch, models.build_fcn(16, 3, "leakysinelu"), self.FCN_OPS[:3])
            assert [op for op, _ in outputs] == self.FCN_OPS
            assert self.alive(outputs) == [("activate", 2), ("activate", 5)]
            tape.backward(ad.softmax_xent(logits, np.array([0, 1, 2, 1]), tape))
            assert self.alive(outputs) == []
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", [zoo.activation("prelu")])
    def test_a_trainable_kind_keeps_its_input(self, monkeypatch, kind):
        gc.disable()
        try:
            tape, _, outputs = self.forward(monkeypatch, models.build_fcn(16, 3, kind),
                                            self.FCN_OPS[:3])
            assert len(tape._records) == 11
            assert self.alive(outputs) == [("batch_norm1d", 1), ("activate", 2),
                                           ("batch_norm1d", 4), ("activate", 5),
                                           ("batch_norm1d", 7)]
        finally:
            gc.enable()

    @pytest.mark.parametrize("build", [models.build_fcn, models.build_mlp])
    @pytest.mark.parametrize("kind", ["leakysinelu", "prelu"])
    def test_records_and_closures_hold_slots_not_tensors(self, monkeypatch, build, kind):
        tape, _, _ = self.forward(monkeypatch, build(16, 3, kind))
        assert tape._records
        for _, out, fn in tape._records:
            assert isinstance(out, ad.Grad)
            held = [cell.cell_contents for cell in fn.__closure__ or ()]
            assert not [h for h in held if isinstance(h, ad.Tensor)]


class TestActivatePath:
    @pytest.mark.parametrize("name, key", [("prelu", "alpha")])
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
        kind = zoo.activation(name)
        tape = ad.Tape()
        out = ad.activate(x, kind, tape, param=param)
        tape.backward(ad.mse(out, np.zeros((4, 3)), tape))
        assert calls == ["array_value", "array_derivative", "param_derivative"]
        assert param.grad is not None and param.grad.shape == (3,)
        assert np.array_equal(out.data, zoo.array_value(kind, x.data, {key: np.full((1, 3), 0.5)}))

    @pytest.mark.parametrize(
        "name", [name for name in zoo.ACTIVATION_NAMES if not zoo.activation(name).learnable])
    def test_param_for_a_kind_that_trains_nothing_is_a_config_error(self, name):
        x = ad.Tensor(np.zeros((4, 3)))
        with pytest.raises(ConfigError, match=f"{name} has no trainable parameter"):
            ad.activate(x, zoo.activation(name), ad.Tape(), param=ad.Tensor(np.ones(3)))
