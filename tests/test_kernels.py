import numpy as np
import pytest

from leakysinelu import autodiff as ad
from leakysinelu import kernels, models
from leakysinelu.optim import Adadelta, Adam
from test_fast_paths import same_bits

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
            out = kernels.conv1d_forward(x, w, pad_left)
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
            np.testing.assert_allclose(kernels.conv1d_grad_kernel(g, x, k_width, pad_left), dw,
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


def whole_array_adam(p, g, m, v, beta1, beta2, scale, c2, eps):
    """The Adam update as whole-array passes, the blocked kernel's oracle."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * np.square(g)
    denom = np.sqrt(v / c2)
    denom += eps
    step = m / denom
    step *= scale
    p -= step


def whole_array_adadelta(p, g, sq_grad, sq_update, lr, rho, eps):
    """The Adadelta update as whole-array passes, with the update's own sign."""
    sq_grad *= rho
    sq_grad += (1.0 - rho) * np.square(g)
    delta = np.sqrt((sq_update + eps) / (sq_grad + eps))
    delta *= g
    np.negative(delta, out=delta)
    sq_update *= rho
    sq_update += (1.0 - rho) * np.square(delta)
    p += lr * delta


def gradients(n: int, steps: int = 6):
    """Gradients scaled from 1e-8 to 1e2 over the steps, with about a tenth
    of the entries exact zeros and a tenth -0.0."""
    rng = np.random.default_rng(n)
    for scale in np.logspace(-8, 2, steps):
        g = rng.normal(size=n) * scale
        g[rng.random(n) < 0.1] = 0.0
        g[rng.random(n) < 0.1] = -0.0
        yield g


class TestBlockedUpdates:
    SIZES = [1, 5, kernels.BLOCK - 1, kernels.BLOCK, kernels.BLOCK + 1, 3 * kernels.BLOCK + 7]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kernel, oracle, hyper", [
        ("adam_update", whole_array_adam, lambda t: (0.9, 0.999, 0.01 / (1 - 0.9**t),
                                                     1 - 0.999**t, 1e-8)),
        ("adadelta_update", whole_array_adadelta, lambda t: (1.0, 0.9, 1e-6)),
    ], ids=["adam", "adadelta"])
    def test_same_bits_as_whole_array_formulas(self, n, kernel, oracle, hyper):
        start = np.random.default_rng(n + 1).normal(size=n)
        start[:2] = -0.0
        got = [start.copy(), np.zeros(n), np.zeros(n)]
        want = [start.copy(), np.zeros(n), np.zeros(n)]
        for t, g in enumerate(gradients(n), start=1):
            getattr(kernels, kernel)(got[0], g, got[1], got[2], *hyper(t))
            oracle(want[0], g, want[1], want[2], *hyper(t))
            for a, b in zip(got, want):
                assert same_bits(a, b)

    def test_one_kernel_call_per_parameter(self, monkeypatch):
        spec = models.build_mlp(128, 5, "relu")
        for opt, kernel in ((Adam(), "adam_update"), (Adadelta(), "adadelta_update")):
            params = models.init_params(spec, 0).params
            assert max(p.size for p in params.values()) > 3 * kernels.BLOCK
            calls = []

            def spy(p, *args, _fn=getattr(kernels, kernel)):
                calls.append(p.size)
                return _fn(p, *args)

            monkeypatch.setattr(kernels, kernel, spy)
            opt.step(opt.init_state(params), params,
                     {k: np.ones_like(v) for k, v in params.items()})
            assert calls == [p.size for p in params.values()]


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
