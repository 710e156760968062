"""Minimal reverse-mode differentiation over float64 numpy arrays.

A ``Tape`` records operations in execution order; ``backward`` runs them
in reverse, accumulating gradients into each ``Tensor``'s ``.grad``. Passing
``tape=None`` to any operation runs it forward-only (used for inference).
The convolutional ops (``conv1d_same``, ``batch_norm1d``,
``global_avg_pool``) take channel-major (C, B, L) arrays; ``global_avg_pool``
returns (B, C) for a dense head. Only the operations needed by the two
reference architectures plus the sine-layer fitting demo are provided.

A ``Tensor`` is its data plus a gradient slot (``Grad``). A tape record holds
its output's slot and the op's backward closure; the closure holds the slots
of the op's inputs and only the arrays its backward reads. So no record
holds an op's output data: once the caller drops it (``models.forward``
rebinds its ``cur``), it is freed unless the next op keeps it as an input
it reads. ``conv1d_same`` keeps its input, ``batch_norm1d`` its
standardised input, ``activate`` the derivative its forward computed with
the value (or, for a trainable parameter, its input), ``affine`` its input
and ``dropout`` its mask; ``global_avg_pool`` keeps only its input's shape.

Gradients change hands without a copy. A closure may hand ``_accumulate``
an array it saved or made, which becomes the input's ``.grad`` as it is; a
second gradient into the same slot is added out of place. So nothing writes
into a gradient it receives, which may be a read-only view.
"""

from __future__ import annotations

import numpy as np

from . import activations as zoo
from . import kernels
from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError

__all__ = [
    "Grad",
    "Tensor",
    "Tape",
    "affine",
    "conv1d_same",
    "global_avg_pool",
    "batch_norm1d",
    "dropout",
    "activate",
    "softmax_xent",
    "sigmoid_bce",
    "mse",
]


BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class Grad:
    """A tensor's gradient slot: the accumulated gradient (None until one
    arrives) and whether one is wanted. Tape records and backward closures
    hold this, not the tensor, so they do not keep its data alive."""

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad: bool):
        self.grad = None
        self.requires_grad = requires_grad


class Tensor:
    """A float64 array plus its gradient slot (``.slot``).

    ``.grad`` and ``.requires_grad`` read the slot. With
    ``requires_grad=False`` (a model's data batch) no gradient is stored,
    and ``conv1d_same`` and ``affine`` do not compute one. An op's output
    requires a gradient, except ``dropout``'s of an input that needs none:
    that output needs none either, and nothing is recorded on the tape for
    it. The tape holds the output's slot, and a closure the slots of its
    op's inputs plus the arrays its backward reads (see the module note).
    """

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d scalars to shape (1,)
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.slot = Grad(requires_grad)

    @property
    def grad(self):
        return self.slot.grad

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of operations, used once; append order is topological order."""

    def __init__(self):
        self._records: list[tuple[str, Grad, object]] = []

    def record(self, op: str, out: Grad, backward_fn) -> None:
        """Append one op: its output's gradient slot and its backward closure."""
        self._records.append((op, out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)/d(node) to every tensor reachable from loss.

        Each record is popped as it runs, which frees what its op saved; a
        second call raises ContractError. A closure reads the gradient it
        receives and writes nothing into it; what it hands on (an array it
        saved or made) is stored, not copied (see the module note). Leaf
        gradients accumulate and are the caller's to clear.
        """
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
        if not self._records:
            raise ContractError("tape holds no records: it is empty or backward already ran")
        loss.slot.grad = np.ones_like(loss.data)
        while self._records:
            _, out, fn = self._records.pop()
            if out.grad is not None:
                fn(out.grad)


def _check_finite(data: np.ndarray, op: str) -> None:
    # sum() is one reduction pass: any nan/inf (or an overflowing mixture)
    # poisons it, which is exactly the divergence signal we want.
    if not np.isfinite(data.sum()):
        raise NumericError(f"non-finite value in output of {op}")


def _accumulate(t: Grad, g, op: str) -> None:
    if not t.requires_grad:
        return
    if not np.isfinite(np.sum(g)):
        raise NumericError(f"non-finite gradient flowing into input of {op}")
    t.grad = g if t.grad is None else t.grad + g


def _emit(tape: Tape | None, op: str, data: np.ndarray, backward_fn,
          requires_grad: bool = True) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data, requires_grad)
    if tape is not None and requires_grad:
        tape.record(op, out.slot, backward_fn)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """x @ w + b with x (B, n), w (n, m), b (m,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError("affine expects x (B,n), w (n,m), b (m,)")
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"affine shape mismatch: x{x.data.shape} w{w.data.shape} b{b.data.shape}"
        )
    xd, wd, xs, ws, bs = x.data, w.data, x.slot, w.slot, b.slot
    out_data = xd @ wd + b.data

    def bwd(g):
        if xs.requires_grad:
            _accumulate(xs, g @ wd.T, "affine")
        _accumulate(ws, xd.T @ g, "affine")
        _accumulate(bs, g.sum(axis=0), "affine")

    return _emit(tape, "affine", out_data, bwd)


def conv1d_same(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Same-padded stride-1 cross-correlation: (Cin,B,L) -> (Cout,B,L).

    Channel-major, so that each conv is one GEMM whose result is already in
    the output's layout (see ``kernels``). Zero padding is floor((K-1)/2) on
    the left and ceil((K-1)/2) on the right, so even kernel widths pad
    asymmetrically. The backward keeps the input, not its window matrix,
    which is K times larger: ``conv1d_grad_kernel`` rebuilds the window.
    """
    if x.data.ndim != 3 or w.data.ndim != 3 or b.data.ndim != 1:
        raise ShapeError("conv1d_same expects x (Cin,B,L), w (Cout,Cin,K), b (Cout,)")
    if x.data.shape[0] != w.data.shape[1] or w.data.shape[0] != b.data.shape[0]:
        raise ShapeError(
            f"conv1d_same shape mismatch: x{x.data.shape} w{w.data.shape} b{b.data.shape}"
        )
    _, b_sz, length = x.data.shape
    cout, _, k_width = w.data.shape
    pad_left = (k_width - 1) // 2
    xd, wd, xs, ws, bs = x.data, w.data, x.slot, w.slot, b.slot
    out = kernels.conv1d_forward(xd, wd, pad_left)
    out += b.data[:, None]

    def bwd(g):
        g = np.ascontiguousarray(g)
        if xs.requires_grad:
            _accumulate(xs, kernels.conv1d_grad_input(g, wd, pad_left), "conv1d_same")
        _accumulate(ws, kernels.conv1d_grad_kernel(g, xd, k_width, pad_left), "conv1d_same")
        _accumulate(bs, g.sum(axis=(1, 2)), "conv1d_same")

    return _emit(tape, "conv1d_same", out.reshape(cout, b_sz, length), bwd)


def global_avg_pool(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Mean over the time axis: (C,B,L) -> (B,C), the dense head's layout."""
    if x.data.ndim != 3:
        raise ShapeError("global_avg_pool expects (C,B,L)")
    shape, xs = x.data.shape, x.slot
    out_data = x.data.mean(axis=2).T

    def bwd(g):
        _accumulate(xs, np.broadcast_to(g.T[:, :, None] / shape[2], shape), "global_avg_pool")

    return _emit(tape, "global_avg_pool", out_data, bwd)


def batch_norm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    tape: Tape | None = None,
) -> Tensor:
    """Per-channel standardization of (C,B,L) with learnable scale/shift.

    Training mode standardizes with batch statistics over the (B,L) axes
    (population variance) and folds them into the running estimates with
    momentum ``BN_MOMENTUM``; inference mode uses the running estimates.
    ``BN_EPS`` is added to the variance.

    Backward (Ioffe & Szegedy 2015): gamma is one value per channel, so
    sum dxhat = gamma*dbeta and sum dxhat*xhat = gamma*dgamma, and training
    mode's dx = (g - (xhat*dgamma/n + dbeta/n))*gamma*inv, with n = B*L and
    inv = 1/sqrt(var + eps); inference mode's is dx = g*gamma*inv.
    """
    if x.data.ndim != 3:
        raise ShapeError("batch_norm1d expects (C,B,L)")
    _, b_sz, length = x.data.shape
    n = b_sz * length
    if training and n <= 1:
        raise ShapeError("batch_norm1d training mode needs B*L > 1")
    # The reductions are x.mean's and x.var's .sum(axis=(1, 2)) passes, bit for
    # bit; elementwise steps write into xhat, out_data or the backward's dx.
    if training:
        mean = x.data.mean(axis=(1, 2))
    else:
        mean = running_mean
    xhat = np.subtract(x.data, mean[:, None, None])
    out_data = np.empty_like(xhat)
    if training:
        var = np.multiply(xhat, xhat, out=out_data).sum(axis=(1, 2)) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        var = running_var
    inv = (1.0 / np.sqrt(var + BN_EPS))[:, None, None]
    xhat *= inv
    scale, xs, gs, bs = gamma.data[:, None, None], x.slot, gamma.slot, beta.slot
    np.multiply(xhat, scale, out=out_data)
    out_data += beta.data[:, None, None]

    def bwd(g):
        dx = np.multiply(g, xhat)  # g * xhat for dgamma, then dx in place
        dgamma, dbeta = dx.sum(axis=(1, 2)), g.sum(axis=(1, 2))
        _accumulate(gs, dgamma, "batch_norm1d")
        _accumulate(bs, dbeta, "batch_norm1d")
        if training:  # g - (xhat * dgamma/n + dbeta/n)
            np.multiply(xhat, (dgamma / n)[:, None, None], out=dx)
            dx += (dbeta / n)[:, None, None]
            np.subtract(g, dx, out=dx)
        np.multiply(dx if training else g, scale, out=dx)
        dx *= inv
        _accumulate(xs, dx, "batch_norm1d")

    return _emit(tape, "batch_norm1d", out_data, bwd)


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode requires an rng")
    scale = 1.0 / (1.0 - p)
    mask = (rng.random(x.data.shape) >= p) * scale
    out_data = x.data * mask
    xs = x.slot

    def bwd(g):
        _accumulate(xs, g * mask, "dropout")

    return _emit(tape, "dropout", out_data, bwd, x.requires_grad)


def activate(
    x: Tensor,
    kind: zoo.ActivationKind,
    tape: Tape | None = None,
    param: Tensor | None = None,
) -> Tensor:
    """Apply an activation elementwise.

    ``param`` carries a trainable tensor for the kind's one parameter, one
    value per channel: along axis 0 of a (C,B,L) conv activation, along
    axis 1 of a (B,n) dense one. When omitted the catalog's values in
    ``kind.params`` are used.

    Each activation is one formula that gives the value and the derivative
    together (``activations.array_value_and_derivative``). With no
    ``param``, the forward keeps that derivative in place of x, which is
    then freed with its producer's output; without a tape ``_emit`` drops
    the backward and the derivative with it. With ``param``, x is kept: the
    backward needs it for the parameter's gradient. So the forward takes
    the value (``array_value``) and the backward the derivative
    (``array_derivative``), each dropping the other half.
    """
    xd, xs = x.data, x.slot
    if param is None:
        out_data, deriv = zoo.array_value_and_derivative(kind, xd)

        def bwd(g):
            # The tape runs this once, so the kept derivative can become dx.
            _accumulate(xs, np.multiply(deriv, g, out=deriv), kind.name)

        return _emit(tape, kind.name, out_data, bwd)

    (name,) = kind.params
    if xd.ndim == 3:
        shape, other_axes = (-1, 1, 1), (1, 2)
    else:
        shape, other_axes = (1, -1), (0,)
    params, ps = {name: param.data.reshape(shape)}, param.slot
    out_data = zoo.array_value(kind, xd, params)

    def bwd_param(g):
        dx = zoo.array_derivative(kind, xd, params)
        dx *= g
        _accumulate(xs, dx, kind.name)
        contrib = zoo.param_derivative(kind, xd, params) * g
        _accumulate(ps, contrib.sum(axis=other_axes), kind.name)

    return _emit(tape, kind.name, out_data, bwd_param)


def softmax_xent(logits: Tensor, labels: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Mean cross-entropy of integer labels under row-wise softmax."""
    if logits.data.ndim != 2 or logits.data.shape[1] < 2:
        raise ShapeError("softmax_xent expects logits (B,C) with C >= 2")
    labels = np.asarray(labels)
    b_sz, n_cls = logits.data.shape
    if labels.shape != (b_sz,):
        raise ShapeError(f"labels must have shape ({b_sz},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_cls:
        raise DataError(f"labels must lie in [0, {n_cls}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    logp = z[np.arange(b_sz), labels] - lse
    loss = np.asarray(-logp.mean())
    ls = logits.slot

    def bwd(g):
        probs = np.exp(z - lse[:, None])
        probs[np.arange(b_sz), labels] -= 1.0
        _accumulate(ls, probs * (float(g) / b_sz), "softmax_xent")

    return _emit(tape, "softmax_xent", loss, bwd)


def sigmoid_bce(logits: Tensor, labels: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Mean binary cross-entropy on a single logit per row, log-sum-exp form."""
    z = logits.data.reshape(-1)
    labels = np.asarray(labels)
    if labels.shape != z.shape:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {z.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("binary labels must be 0 or 1")
    y = labels.astype(np.float64)
    loss = np.asarray((np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean())
    shape, ls = logits.data.shape, logits.slot

    def bwd(g):
        s = 1.0 / (1.0 + np.exp(-np.abs(z)))
        sig = np.where(z >= 0, s, 1.0 - s)
        dz = (sig - y) * (float(g) / z.size)
        _accumulate(ls, dz.reshape(shape), "sigmoid_bce")

    return _emit(tape, "sigmoid_bce", loss, bwd)


def mse(pred: Tensor, target: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.data.shape:
        raise ShapeError(f"target shape {target.shape} does not match {pred.data.shape}")
    diff = pred.data - target
    loss = np.asarray(np.mean(diff * diff))
    ps = pred.slot

    def bwd(g):
        _accumulate(ps, diff * (2.0 * float(g) / diff.size), "mse")

    return _emit(tape, "mse", loss, bwd)
