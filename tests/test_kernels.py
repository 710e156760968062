import numpy as np
import pytest

from leakysinelu import autodiff as ad
from leakysinelu import kernels
from leakysinelu.optim import Adadelta, Adam

KERNEL_NAMES = (
    "conv1d_forward",
    "conv1d_grad_input",
    "conv1d_grad_kernel",
    "adam_update",
    "adadelta_update",
)


def direct_conv(xp, w):
    """out[o, b, t] = sum_{c, j} xp[c, b, t + j] * w[o, c, j]."""
    cin, b_sz, lp = xp.shape
    cout, _, k_width = w.shape
    out = np.zeros((cout, b_sz, lp - k_width + 1))
    for b in range(b_sz):
        for o in range(cout):
            for t in range(out.shape[2]):
                out[o, b, t] = sum(
                    xp[c, b, t + j] * w[o, c, j] for c in range(cin) for j in range(k_width)
                )
    return out


class TestConv:
    @pytest.mark.parametrize("k_width", [1, 2, 3, 5, 8])
    def test_forward_and_gradients_match_direct_sums(self, k_width):
        rng = np.random.default_rng(k_width)
        b_sz, cin, cout, length = 2, 3, 2, 5
        x = rng.normal(size=(cin, b_sz, length))
        w = rng.normal(size=(cout, cin, k_width))
        g = rng.normal(size=(cout, b_sz, length))
        # "same" padding, and all of it on one side
        for pad_left in sorted({(k_width - 1) // 2, 0, k_width - 1}):
            xp = np.pad(x, ((0, 0), (0, 0), (pad_left, k_width - 1 - pad_left)))
            out, cols = kernels.conv1d_forward(x, w, pad_left)
            np.testing.assert_allclose(out.reshape(cout, b_sz, length), direct_conv(xp, w),
                                       rtol=1e-12, atol=1e-12)
            # The output is linear in xp and in w, so <g, conv(xp, w)> has gradient
            # sum_t g[o, b, t] w[o, c, j] at xp[c, b, t + j] and g * xp at w.
            dxp = np.zeros_like(xp)
            dw = np.zeros_like(w)
            for b in range(b_sz):
                for o in range(cout):
                    for t in range(length):
                        dxp[:, b, t : t + k_width] += g[o, b, t] * w[o]
                        dw[o] += g[o, b, t] * xp[:, b, t : t + k_width]
            np.testing.assert_allclose(kernels.conv1d_grad_input(g, w, pad_left),
                                       dxp[:, :, pad_left : pad_left + length],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(kernels.conv1d_grad_kernel(g, cols, k_width), dw,
                                       rtol=1e-12, atol=1e-12)


class TestUpdates:
    def test_adam_matches_docstring_formula(self):
        rng = np.random.default_rng(0)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p, m, v = rng.normal(size=6), np.zeros(6), np.zeros(6)
        want = p.copy()
        want_m, want_v = np.zeros(6), np.zeros(6)
        for t in range(1, 5):
            g = rng.normal(size=6)
            kernels.adam_update(p, g, m, v, b1, b2, lr / (1 - b1**t), 1 - b2**t, eps)
            for i in range(6):
                want_m[i] = b1 * want_m[i] + (1 - b1) * g[i]
                want_v[i] = b2 * want_v[i] + (1 - b2) * g[i] ** 2
                want[i] -= lr * (want_m[i] / (1 - b1**t)) / (
                    np.sqrt(want_v[i] / (1 - b2**t)) + eps
                )
            np.testing.assert_allclose(p, want, rtol=1e-12)
            np.testing.assert_allclose(m, want_m, rtol=1e-12)
            np.testing.assert_allclose(v, want_v, rtol=1e-12)

    def test_adadelta_matches_docstring_formula(self):
        rng = np.random.default_rng(1)
        lr, rho, eps = 1.0, 0.9, 1e-6
        p, eg, ed = rng.normal(size=6), np.zeros(6), np.zeros(6)
        want = p.copy()
        want_eg, want_ed = np.zeros(6), np.zeros(6)
        for _ in range(4):
            g = rng.normal(size=6)
            kernels.adadelta_update(p, g, eg, ed, lr, rho, eps)
            for i in range(6):
                want_eg[i] = rho * want_eg[i] + (1 - rho) * g[i] ** 2
                d = -np.sqrt((want_ed[i] + eps) / (want_eg[i] + eps)) * g[i]
                want_ed[i] = rho * want_ed[i] + (1 - rho) * d**2
                want[i] += lr * d
            np.testing.assert_allclose(p, want, rtol=1e-12)
            np.testing.assert_allclose(eg, want_eg, rtol=1e-12)
            np.testing.assert_allclose(ed, want_ed, rtol=1e-12)


class TestModule:
    def test_public_names(self):
        assert kernels.BACKEND == "numpy"
        for name in KERNEL_NAMES:
            assert callable(getattr(kernels, name))

    def test_callers_look_kernels_up_at_call_time(self, monkeypatch):
        # Profilers wrap these module attributes; a caller that bound the
        # function at import time would bypass the wrapper.
        called = []
        for name in KERNEL_NAMES:
            fn = getattr(kernels, name)

            def spy(*args, _fn=fn, _name=name):
                called.append(_name)
                return _fn(*args)

            monkeypatch.setattr(kernels, name, spy)
        rng = np.random.default_rng(0)
        tape = ad.Tape()
        x = ad.Tensor(rng.normal(size=(1, 2, 6)))
        w = ad.Tensor(rng.normal(size=(3, 1, 3)))
        b = ad.Tensor(np.zeros(3))
        out = ad.conv1d_same(x, w, b, tape)
        tape.backward(ad.mse(out, np.zeros(out.shape), tape))
        for opt in (Adam(), Adadelta()):
            params = {"w": np.zeros(2)}
            opt.step(opt.init_state(params), params, {"w": np.ones(2)})
        assert sorted(set(called)) == sorted(KERNEL_NAMES)
