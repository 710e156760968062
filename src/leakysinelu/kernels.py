"""Hot inner kernels: 1-D convolution and fused optimizer updates, in numpy.

Callers look these names up on the module at each call
(``kernels.conv1d_forward(...)``), so a profiler can wrap them in place.

Convolution kernels operate on the already-padded input ``xp`` of shape
(B, Cin, Lp) with Lp = L + K - 1, so the output length is exactly L.
Cross-correlation convention, stride 1.
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


def _cols(xp: np.ndarray, k_width: int) -> np.ndarray:
    """im2col: (B, Cin, Lp) -> (B*L, Cin*K) window matrix."""
    b, cin, lp = xp.shape
    length = lp - k_width + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, k_width, axis=2)
    return win.transpose(0, 2, 1, 3).reshape(b * length, cin * k_width)


def conv1d_forward(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    b, _, lp = xp.shape
    cout, cin, k_width = w.shape
    length = lp - k_width + 1
    out = _cols(xp, k_width) @ w.reshape(cout, cin * k_width).T
    return np.ascontiguousarray(out.reshape(b, length, cout).transpose(0, 2, 1))


def conv1d_grad_kernel(g: np.ndarray, xp: np.ndarray, k_width: int) -> np.ndarray:
    b, cout, length = g.shape
    cin = xp.shape[1]
    gm = g.transpose(0, 2, 1).reshape(b * length, cout)
    dw = gm.T @ _cols(xp, k_width)
    return dw.reshape(cout, cin, k_width)


def conv1d_grad_input(g: np.ndarray, w: np.ndarray, lp: int) -> np.ndarray:
    b, cout, length = g.shape
    cin, k_width = w.shape[1], w.shape[2]
    gm = g.transpose(0, 2, 1).reshape(b * length, cout)
    t = (gm @ w.reshape(cout, cin * k_width)).reshape(b, length, cin, k_width)
    dxp = np.zeros((b, cin, lp))
    for j in range(k_width):
        dxp[:, :, j : j + length] += t[:, :, :, j].transpose(0, 2, 1)
    return dxp


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
