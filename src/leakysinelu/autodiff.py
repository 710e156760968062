"""Minimal reverse-mode differentiation over float64 numpy arrays.

A ``Tape`` records operations in execution order; ``backward`` replays them
in reverse, accumulating gradients into each ``Tensor``'s ``.grad``. Passing
``tape=None`` to any operation runs it forward-only (used for inference).
Only the operations needed by the two reference architectures plus the
sine-layer fitting demo are provided.
"""

from __future__ import annotations

import numpy as np

from . import activations as zoo
from . import kernels
from .errors import ConfigError, DataError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "affine",
    "conv1d_same",
    "global_avg_pool",
    "batch_norm1d",
    "dropout",
    "activate",
    "softmax",
    "softmax_xent",
    "sigmoid_bce",
    "mse",
]


class Tensor:
    """A float64 array plus its accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d scalars to shape (1,)
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of operations; append order is topological order."""

    def __init__(self):
        self._records: list[tuple[str, Tensor, object]] = []

    def __len__(self):
        return len(self._records)

    def record(self, op: str, out: Tensor, backward_fn) -> None:
        self._records.append((op, out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)/d(node) to every tensor reachable from loss.

        Gradients of recorded intermediate outputs are reset first, so
        replaying the same tape reproduces identical gradients; leaf
        gradients accumulate and are the caller's to clear.
        """
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
        for _, out, _ in self._records:
            out.grad = None
        loss.grad = np.ones_like(loss.data)
        for op, out, fn in reversed(self._records):
            if out.grad is None:
                continue
            fn(out.grad)


def _check_finite(data: np.ndarray, op: str) -> None:
    # sum() is one reduction pass: any nan/inf (or an overflowing mixture)
    # poisons it, which is exactly the divergence signal we want.
    if not np.isfinite(data.sum()):
        raise NumericError(f"non-finite value in output of {op}")


def _accumulate(t: Tensor, g, op: str) -> None:
    if not np.isfinite(np.sum(g)):
        raise NumericError(f"non-finite gradient flowing into input of {op}")
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _emit(tape: Tape | None, op: str, data: np.ndarray, backward_fn=None) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if tape is not None and backward_fn is not None:
        tape.record(op, out, backward_fn)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """x @ w + b with x (B, n), w (n, m), b (m,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError("affine expects x (B,n), w (n,m), b (m,)")
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"affine shape mismatch: x{x.data.shape} w{w.data.shape} b{b.data.shape}"
        )
    out_data = x.data @ w.data + b.data

    def bwd(g):
        _accumulate(x, g @ w.data.T, "affine")
        _accumulate(w, x.data.T @ g, "affine")
        _accumulate(b, g.sum(axis=0), "affine")

    return _emit(tape, "affine", out_data, bwd)


def conv1d_same(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Same-padded stride-1 cross-correlation: (B,Cin,L) -> (B,Cout,L).

    Zero padding is floor((K-1)/2) on the left and ceil((K-1)/2) on the
    right, so even kernel widths pad asymmetrically.
    """
    if x.data.ndim != 3 or w.data.ndim != 3 or b.data.ndim != 1:
        raise ShapeError("conv1d_same expects x (B,Cin,L), w (Cout,Cin,K), b (Cout,)")
    if x.data.shape[1] != w.data.shape[1] or w.data.shape[0] != b.data.shape[0]:
        raise ShapeError(
            f"conv1d_same shape mismatch: x{x.data.shape} w{w.data.shape} b{b.data.shape}"
        )
    length = x.data.shape[2]
    k_width = w.data.shape[2]
    pad_left = (k_width - 1) // 2
    pad_right = k_width - 1 - pad_left
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad_left, pad_right)))
    out_data = kernels.conv1d_forward(xp, w.data) + b.data[None, :, None]

    def bwd(g):
        g = np.ascontiguousarray(g)
        dxp = kernels.conv1d_grad_input(g, w.data, xp.shape[2])
        _accumulate(x, dxp[:, :, pad_left : pad_left + length], "conv1d_same")
        _accumulate(w, kernels.conv1d_grad_kernel(g, xp, k_width), "conv1d_same")
        _accumulate(b, g.sum(axis=(0, 2)), "conv1d_same")

    return _emit(tape, "conv1d_same", out_data, bwd)


def global_avg_pool(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Mean over the time axis: (B,C,L) -> (B,C)."""
    if x.data.ndim != 3:
        raise ShapeError("global_avg_pool expects (B,C,L)")
    length = x.data.shape[2]
    out_data = x.data.mean(axis=2)

    def bwd(g):
        _accumulate(x, np.broadcast_to(g[:, :, None] / length, x.data.shape), "global_avg_pool")

    return _emit(tape, "global_avg_pool", out_data, bwd)


def batch_norm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    tape: Tape | None = None,
    momentum: float = 0.1,
    eps: float = 1e-5,
    update_running: bool = True,
) -> Tensor:
    """Per-channel standardization of (B,C,L) with learnable scale/shift.

    Training mode standardizes with batch statistics over the (B,L) axes
    (population variance) and optionally folds them into the running
    estimates; inference mode uses the running estimates.
    """
    if x.data.ndim != 3:
        raise ShapeError("batch_norm1d expects (B,C,L)")
    b_sz, _, length = x.data.shape
    n = b_sz * length
    if training and n <= 1:
        raise ShapeError("batch_norm1d training mode needs B*L > 1")
    if training:
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        if update_running:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean
            running_var *= 1.0 - momentum
            running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None]) * inv[None, :, None]
    out_data = gamma.data[None, :, None] * xhat + beta.data[None, :, None]

    def bwd(g):
        _accumulate(gamma, (g * xhat).sum(axis=(0, 2)), "batch_norm1d")
        _accumulate(beta, g.sum(axis=(0, 2)), "batch_norm1d")
        dxhat = g * gamma.data[None, :, None]
        if training:
            s1 = dxhat.sum(axis=(0, 2))[None, :, None]
            s2 = (dxhat * xhat).sum(axis=(0, 2))[None, :, None]
            dx = inv[None, :, None] / n * (n * dxhat - s1 - xhat * s2)
        else:
            dx = dxhat * inv[None, :, None]
        _accumulate(x, dx, "batch_norm1d")

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

    def bwd(g):
        _accumulate(x, g * mask, "dropout")

    return _emit(tape, "dropout", out_data, bwd)


def _param_view(param: Tensor, ndim: int):
    # Broadcast a per-channel parameter (C,) or scalar over (B,C) / (B,C,L).
    if param.data.ndim == 0 or param.data.size == 1:
        return param.data.reshape(())
    shape = [1] * ndim
    shape[1] = param.data.shape[0]
    return param.data.reshape(shape)


def _reduce_like(contrib: np.ndarray, param: Tensor) -> np.ndarray:
    if param.data.ndim == 0 or param.data.size == 1:
        return np.asarray(contrib.sum()).reshape(param.data.shape)
    axes = tuple(i for i in range(contrib.ndim) if i != 1)
    return contrib.sum(axis=axes)


def activate(
    x: Tensor,
    kind: zoo.ActivationKind,
    tape: Tape | None = None,
    param: Tensor | None = None,
) -> Tensor:
    """Apply an activation elementwise.

    ``param`` carries a trainable tensor for the kind's one parameter (a
    scalar, or one value per channel along axis 1); when omitted the fixed
    values in ``kind.params`` are used.
    """
    xd = x.data
    params = kind.params
    if param is not None:
        (name,) = kind.params
        params = {name: _param_view(param, xd.ndim)}
    out_data = zoo.array_value(kind, xd, params)

    def bwd(g):
        _accumulate(x, zoo.array_derivative(kind, xd, params) * g, kind.name)
        if param is not None:
            contrib = zoo.param_derivative(kind, xd, params) * g
            _accumulate(param, _reduce_like(contrib, param), kind.name)

    return _emit(tape, kind.name, out_data, bwd)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array, stabilized by max subtraction."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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

    def bwd(g):
        probs = np.exp(z - lse[:, None])
        probs[np.arange(b_sz), labels] -= 1.0
        _accumulate(logits, probs * (float(g) / b_sz), "softmax_xent")

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

    def bwd(g):
        s = 1.0 / (1.0 + np.exp(-np.abs(z)))
        sig = np.where(z >= 0, s, 1.0 - s)
        dz = (sig - y) * (float(g) / z.size)
        _accumulate(logits, dz.reshape(logits.data.shape), "sigmoid_bce")

    return _emit(tape, "sigmoid_bce", loss, bwd)


def mse(pred: Tensor, target: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.data.shape:
        raise ShapeError(f"target shape {target.shape} does not match {pred.data.shape}")
    diff = pred.data - target
    loss = np.asarray(np.mean(diff * diff))

    def bwd(g):
        _accumulate(pred, diff * (2.0 * float(g) / diff.size), "mse")

    return _emit(tape, "mse", loss, bwd)
