"""One FCN training step in the channel-major (C, B, L) layout against the
batch-major (B, C, L) formulas it replaced.

The reference below is the earlier layout's forward and backward pass,
written out op by op: im2col rows per time step, batch norm over axes
(0, 2), per-channel activation parameters on axis 1. The GEMMs and
reductions now run in another order, so the two agree to rounding, not bit
for bit: the loss and every gradient must lie within 1e-12 of the reference,
relative to that tensor's largest magnitude.
"""

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu import autodiff as ad
from leakysinelu import kernels, models

REL = 1e-12
B_SZ, LENGTH, N_CLASSES = 16, 128, 3


# ---- the (B, C, L) formulas, each returning (output, backward) ----

def ref_conv(x, w, b):
    b_sz, cin, length = x.shape
    cout, _, k_width = w.shape
    pad_left = (k_width - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad_left, k_width - 1 - pad_left)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k_width, axis=2)
    cols = win.transpose(0, 2, 1, 3).reshape(b_sz * length, cin * k_width)
    w2 = w.reshape(cout, cin * k_width)
    out = (cols @ w2.T).reshape(b_sz, length, cout).transpose(0, 2, 1) + b[None, :, None]

    def bwd(g):
        gm = g.transpose(0, 2, 1).reshape(b_sz * length, cout)
        t = (gm @ w2).reshape(b_sz, length, cin, k_width)
        dxp = np.zeros_like(xp)
        for j in range(k_width):
            dxp[:, :, j : j + length] += t[:, :, :, j].transpose(0, 2, 1)
        dx = dxp[:, :, pad_left : pad_left + length]
        return dx, (gm.T @ cols).reshape(w.shape), g.sum(axis=(0, 2))

    return out, bwd


def ref_batch_norm(x, gamma, beta, eps=ad.BN_EPS):
    n = x.shape[0] * x.shape[2]
    mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
    inv = (1.0 / np.sqrt(var + eps))[None, :, None]
    xhat = (x - mean[None, :, None]) * inv
    out = gamma[None, :, None] * xhat + beta[None, :, None]

    def bwd(g):
        dxhat = g * gamma[None, :, None]
        s1 = dxhat.sum(axis=(0, 2))[None, :, None]
        s2 = (dxhat * xhat).sum(axis=(0, 2))[None, :, None]
        dx = inv / n * (n * dxhat - s1 - xhat * s2)
        return dx, (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))

    return out, bwd


def ref_activate(x, kind, param):
    params = kind.params
    if param is not None:
        (name,) = kind.params
        params = {name: param[None, :, None]}
    out = zoo.array_value(kind, x, params)

    def bwd(g):
        dx = zoo.array_derivative(kind, x, params) * g
        if param is None:
            return (dx,)
        return dx, (zoo.param_derivative(kind, x, params) * g).sum(axis=(0, 2))

    return out, bwd


def ref_step(spec, params, x, labels):
    """Loss and parameter gradients of one training step, (B, C, L) body."""
    h = x[:, None, :]
    backs = []
    for i, layer in enumerate(spec.layers):
        kind = layer["type"]
        if kind == "conv":
            h, bwd = ref_conv(h, params[f"l{i}.W"], params[f"l{i}.b"])
            backs.append((bwd, (f"l{i}.W", f"l{i}.b")))
        elif kind == "batch_norm":
            h, bwd = ref_batch_norm(h, params[f"l{i}.gamma"], params[f"l{i}.beta"])
            backs.append((bwd, (f"l{i}.gamma", f"l{i}.beta")))
        elif kind == "activation":
            names = [f"l{i}.{n}" for n in spec.activation.learnable]
            h, bwd = ref_activate(h, spec.activation, params[names[0]] if names else None)
            backs.append((bwd, tuple(names)))
        elif kind == "global_avg_pool":
            length = h.shape[2]
            h = h.mean(axis=2)
            backs.append((lambda g, _l=length: (np.repeat(g[:, :, None] / _l, _l, axis=2),), ()))
        elif kind == "dense":
            w, b, h_in = params[f"l{i}.W"], params[f"l{i}.b"], h
            h = h_in @ w + b
            backs.append((lambda g, _w=w, _h=h_in: (g @ _w.T, _h.T @ g, g.sum(axis=0)),
                          (f"l{i}.W", f"l{i}.b")))
    z = h - h.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    loss = -(z[np.arange(len(labels)), labels] - lse).mean()
    g = np.exp(z - lse[:, None])
    g[np.arange(len(labels)), labels] -= 1.0
    g /= len(labels)
    grads = {}
    for bwd, names in reversed(backs):
        g, *param_grads = bwd(g)
        grads.update(zip(names, param_grads))
    return loss, grads


def step(spec, state, x, labels):
    tape = ad.Tape()
    tensors = models.wrap_params(state)
    logits = models.forward(spec, state, x, tape=tape, training=True, param_tensors=tensors)
    loss = ad.softmax_xent(logits, labels, tape)
    tape.backward(loss)
    return float(loss.data), {name: t.grad for name, t in tensors.items()}


CASES = [zoo.activation(name) for name in zoo.ACTIVATION_NAMES]


@pytest.mark.parametrize("norm_enabled", [True, False], ids=["bn", "no-bn"])
@pytest.mark.parametrize("kind", CASES, ids=lambda k: k.name + "".join(sorted(k.learnable)))
def test_fcn_step_matches_the_batch_major_formulas(kind, norm_enabled):
    spec = models.build_fcn(LENGTH, N_CLASSES, kind, norm_enabled=norm_enabled)
    state = models.init_params(spec, 0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(B_SZ, LENGTH))
    labels = rng.integers(0, N_CLASSES, size=B_SZ)
    want_loss, want = ref_step(spec, state.params, x, labels)
    got_loss, got = step(spec, state, x, labels)

    assert abs(got_loss - want_loss) <= REL * abs(want_loss)
    assert sorted(got) == sorted(want)
    for name, ref in want.items():
        assert got[name].shape == ref.shape, name
        err = np.max(np.abs(got[name] - ref))
        layer, field = name.split(".")
        if norm_enabled and field == "b" and spec.layers[int(layer[1:])]["type"] == "conv":
            # Batch norm removes the conv bias's effect: its exact gradient
            # is 0 and both sides hold rounding noise, bounded by the scale
            # of the same layer's weight gradient.
            assert err <= REL * np.max(np.abs(want[f"{layer}.W"])), name
        else:
            assert err <= REL * np.max(np.abs(ref)), name


def test_data_input_gets_no_gradient(monkeypatch):
    # The first conv's input is the data batch: only layers 2 and 3 compute
    # an input gradient.
    calls = []
    real = kernels.conv1d_grad_input

    def spy(*args):
        calls.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(kernels, "conv1d_grad_input", spy)
    spec = models.build_fcn(16, N_CLASSES, "relu")
    state = models.init_params(spec, 0)
    rng = np.random.default_rng(0)
    step(spec, state, rng.normal(size=(4, 16)), np.array([0, 1, 2, 0]))
    assert calls == [(128, 256, 3), (256, 128, 5)]
