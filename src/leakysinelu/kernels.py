"""Hot inner kernels: 1-D convolution and fused optimizer updates, in numpy.

Callers look these names up on the module at each call
(``kernels.conv1d_forward(...)``), so a profiler can wrap them in place.

Convolution kernels operate on the already-padded input ``xp`` of shape
(B, Cin, Lp) with Lp = L + K - 1, so the output length is exactly L.
Cross-correlation convention, stride 1. Call them with positional arguments.

Window-matrix contract: ``conv1d_forward`` builds the im2col window matrix
``cols`` once, of shape (B*L, Cin*K), with row ``b*L + t`` holding
``xp[b, :, t:t+K]`` flattened channel-major (``cols[b*L + t, c*K + j] ==
xp[b, c, t + j]``), and returns it beside the output. The caller keeps it
for the backward pass and hands it, unmodified, to ``conv1d_grad_kernel``,
which never sees ``xp``. No other kernel builds a window matrix.
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


def conv1d_forward(xp: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, Cin, Lp) x (Cout, Cin, K) -> output (B, Cout, L) and its window matrix.

    The output is a transposed view of the (B*L, Cout) product; the caller
    copies it into its final layout when it adds the bias.
    """
    b, cin, lp = xp.shape
    cout, _, k_width = w.shape
    length = lp - k_width + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, k_width, axis=2)
    cols = win.transpose(0, 2, 1, 3).reshape(b * length, cin * k_width)
    out = cols @ w.reshape(cout, cin * k_width).T
    return out.reshape(b, length, cout).transpose(0, 2, 1), cols


def conv1d_grad_kernel(g: np.ndarray, cols: np.ndarray, k_width: int) -> np.ndarray:
    """d(loss)/dw from the output gradient and the forward window matrix."""
    b, cout, length = g.shape
    gm = g.transpose(0, 2, 1).reshape(b * length, cout)
    return (gm.T @ cols).reshape(cout, cols.shape[1] // k_width, k_width)


def conv1d_grad_input(g: np.ndarray, w: np.ndarray, lp: int) -> np.ndarray:
    """d(loss)/dxp, shape (B, Cin, Lp); a view of a channels-last buffer."""
    b, cout, length = g.shape
    cin, k_width = w.shape[1], w.shape[2]
    gm = g.transpose(0, 2, 1).reshape(b * length, cout)
    t = (gm @ w.transpose(0, 2, 1).reshape(cout, k_width * cin)).reshape(b, length, k_width, cin)
    dxp = np.zeros((b, lp, cin))
    for j in range(k_width):
        dxp[:, j : j + length] += t[:, :, j]
    return dxp.transpose(0, 2, 1)


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
