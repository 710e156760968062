"""Hot inner kernels: 1-D convolution and fused optimizer updates, in numpy.

Callers look these names up on the module at each call
(``kernels.conv1d_forward(...)``), so a profiler can wrap them in place.

Convolution kernels work channel-major: an input ``x`` has shape
(Cin, B, L), an output or output gradient ``g`` has shape (Cout, B, L), and
weights are (Cout, Cin, K). They compute the stride-1 cross-correlation of
``x`` zero-padded by ``pad_left`` on the left and ``K - 1 - pad_left`` on the
right, so the output length is exactly L; no padded copy of ``x`` is
built. Call them with positional arguments.

Window-matrix contract: ``conv1d_forward`` builds the im2col window matrix
``cols`` once, of shape (Cin*K, B*L), with ``cols[c*K + j, b*L + t] ==
xp[c, b, t + j]`` for the padded input ``xp``, and returns it beside the
output. With this layout the forward pass is one GEMM,
``W.reshape(Cout, Cin*K) @ cols``, whose (Cout, B*L) result is already the
output's memory order, and each backward GEMM reads ``g`` as it lies. The
caller keeps ``cols`` for the backward pass and hands it, unmodified, to
``conv1d_grad_kernel``, which never sees ``x``. No other kernel builds a
window matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "conv1d_forward",
    "conv1d_grad_kernel",
    "conv1d_grad_input",
    "adam_update",
    "adadelta_update",
]

BACKEND = "numpy"


def _shift(j: int, pad_left: int, length: int) -> tuple[int, int, int]:
    """(s, lo, hi): tap j reads input t + s for the output times lo <= t < hi;
    the other output times read padding."""
    s = j - pad_left
    lo = max(0, -s)
    return s, lo, max(lo, min(length, length - s))


def conv1d_forward(x: np.ndarray, w: np.ndarray, pad_left: int) -> tuple[np.ndarray, np.ndarray]:
    """(Cin, B, L) x (Cout, Cin, K) -> output (Cout, B*L) and its window matrix."""
    cin, b, length = x.shape
    cout, _, k_width = w.shape
    cols = np.empty((cin, k_width, b, length))
    for j in range(k_width):
        s, lo, hi = _shift(j, pad_left, length)
        cols[:, j, :, lo:hi] = x[:, :, lo + s : hi + s]
        cols[:, j, :, :lo] = 0.0
        cols[:, j, :, hi:] = 0.0
    cols = cols.reshape(cin * k_width, b * length)
    return w.reshape(cout, cin * k_width) @ cols, cols


def conv1d_grad_kernel(g: np.ndarray, cols: np.ndarray, k_width: int) -> np.ndarray:
    """d(loss)/dw from the output gradient and the forward window matrix."""
    cout = g.shape[0]
    dw = g.reshape(cout, cols.shape[1]) @ cols.T
    return dw.reshape(cout, cols.shape[0] // k_width, k_width)


def conv1d_grad_input(g: np.ndarray, w: np.ndarray, pad_left: int) -> np.ndarray:
    """d(loss)/dx, shape (Cin, B, L): one GEMM, then the window matrix's
    gradient summed back tap by tap (col2im).

    Tap 0's slice starts at input time 0: tap 0 writes it and the times past
    it are zeroed, then taps 1..K-1 add in order."""
    cout, b, length = g.shape
    cin, k_width = w.shape[1], w.shape[2]
    dcols = w.reshape(cout, cin * k_width).T @ g.reshape(cout, b * length)
    dcols = dcols.reshape(cin, k_width, b, length)
    dx = np.empty((cin, b, length))
    s, lo, hi = _shift(0, pad_left, length)
    dx[:, :, : hi + s] = dcols[:, 0, :, lo:hi]
    dx[:, :, hi + s :] = 0.0
    for j in range(1, k_width):
        s, lo, hi = _shift(j, pad_left, length)
        dx[:, :, lo + s : hi + s] += dcols[:, j, :, lo:hi]
    return dx


def adam_update(p, g, m, v, beta1, beta2, scale, c2, eps):
    """One bias-corrected Adam update on flat views, in place."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * np.square(g)
    denom = np.sqrt(v / c2)
    denom += eps
    step = m / denom
    step *= scale
    p -= step


def adadelta_update(p, g, sq_grad, sq_update, lr, rho, eps):
    """One Adadelta update on flat views, in place."""
    sq_grad *= rho
    sq_grad += (1.0 - rho) * np.square(g)
    delta = np.sqrt((sq_update + eps) / (sq_grad + eps))
    delta *= g
    np.negative(delta, out=delta)
    sq_update *= rho
    sq_update += (1.0 - rho) * np.square(delta)
    p += lr * delta
