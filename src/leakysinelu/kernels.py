"""Hot inner kernels: 1-D convolution and blocked optimizer updates, in numpy.

Callers look these names up on the module at each call
(``kernels.conv1d_forward(...)``), so a profiler can wrap them in place.

Convolution kernels work channel-major: an input ``x`` has shape
(Cin, B, L), an output or output gradient ``g`` has shape (Cout, B, L), and
weights are (Cout, Cin, K). They compute the stride-1 cross-correlation of
``x`` zero-padded by ``pad_left`` on the left and ``K - 1 - pad_left`` on the
right, so the output length is exactly L; no padded copy of ``x`` is
built. Call them with positional arguments.

Window-matrix contract: the im2col window matrix ``cols`` of an input,
of shape (Cin*K, B*L) with ``cols[c*K + j, b*L + t] == xp[c, b, t + j]``
for the padded input ``xp``, is built by one private helper, ``_window``,
and only inside the kernel that multiplies by it. ``conv1d_forward`` builds
it and returns only ``W.reshape(Cout, Cin*K) @ cols``, whose (Cout, B*L)
result is already the output's memory order; ``conv1d_grad_kernel`` takes
the same input ``x`` and builds the same bytes again for ``g @ cols.T``.
So a window lives only for the kernel call that built it, and a caller
keeps the conv input for the backward pass, not its K times larger window:
one extra window build per conv per step, and for the FCN's layers 2 and 3
at L=128, B=16 a 2 to 4 MB input held in place of a 10 to 13 MB window.
``conv1d_grad_input`` reads ``g`` as it lies and builds no window.

Block contract: ``adam_update`` and ``adadelta_update`` take one
parameter's flat views (parameter, gradient, two slots) and walk them in
blocks of ``BLOCK`` elements, running the whole update on one block before
the next. Each temporary goes into scratch arrays of ``BLOCK`` elements,
made once per call and reused for every block. The reason is cache size: a
whole-array pass over the MLP's 250,000-float hidden weight matrix reads
2 MB per array and streams from memory, while one block of the six arrays
Adadelta touches (p, g, two slots, two scratch) is 768 KiB and stays in a
2 MiB per-core L2 across its 15 passes. Each element sees the same ufuncs in
the same order as in the whole-array formulas, so every result is the same
bit for bit.
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

# Elements per optimizer block (128 KiB per array). Adadelta over the MLP's
# 317,005 parameters (L=128, 5 classes), median of 35 calls, two runs, on a
# 2-core AVX-512 x86-64 with glibc's thresholds set as ``bench`` sets them:
#   8K 2.79-2.94 ms, 16K 2.57-2.68, 32K 2.55-2.71, 64K 2.77-2.99,
#   whole-array kernel 3.80-4.15.
BLOCK = 16_384


def _shift(j: int, pad_left: int, length: int) -> tuple[int, int, int]:
    """(s, lo, hi): tap j reads input t + s for the output times lo <= t < hi;
    the other output times read padding."""
    s = j - pad_left
    lo = max(0, -s)
    return s, lo, max(lo, min(length, length - s))


def _window(x: np.ndarray, k_width: int, pad_left: int) -> np.ndarray:
    """The (Cin*K, B*L) window matrix of a (Cin, B, L) input."""
    cin, b, length = x.shape
    cols = np.empty((cin, k_width, b, length))
    for j in range(k_width):
        s, lo, hi = _shift(j, pad_left, length)
        cols[:, j, :, lo:hi] = x[:, :, lo + s : hi + s]
        cols[:, j, :, :lo] = 0.0
        cols[:, j, :, hi:] = 0.0
    return cols.reshape(cin * k_width, b * length)


def conv1d_forward(x: np.ndarray, w: np.ndarray, pad_left: int) -> np.ndarray:
    """(Cin, B, L) x (Cout, Cin, K) -> output (Cout, B*L)."""
    cout, cin, k_width = w.shape
    return w.reshape(cout, cin * k_width) @ _window(x, k_width, pad_left)


def conv1d_grad_kernel(g: np.ndarray, x: np.ndarray, k_width: int, pad_left: int) -> np.ndarray:
    """d(loss)/dw, shape (Cout, Cin, K), from the output gradient and the
    forward's input, whose window matrix it builds again."""
    cout, cin = g.shape[0], x.shape[0]
    dw = g.reshape(cout, -1) @ _window(x, k_width, pad_left).T
    return dw.reshape(cout, cin, k_width)


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


def _blocks(arrays, scratch):
    """Per block of the equal-length flat ``arrays``: their views over it,
    then ``scratch`` scratch views of the same length. The scratch arrays
    are allocated once per call at the full ``BLOCK`` size."""
    bufs = [np.empty(BLOCK) for _ in range(scratch)]
    n = arrays[0].size
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        yield *(a[lo:hi] for a in arrays), *(t[: hi - lo] for t in bufs)


def adam_update(p, g, m, v, beta1, beta2, scale, c2, eps):
    """One bias-corrected Adam update on flat views, in place, block by block."""
    for pb, gb, mb, vb, tb in _blocks((p, g, m, v), 1):
        mb *= beta1
        mb += np.multiply(gb, 1.0 - beta1, out=tb)
        vb *= beta2
        np.square(gb, out=tb)
        tb *= 1.0 - beta2
        vb += tb
        np.divide(vb, c2, out=tb)
        np.sqrt(tb, out=tb)
        tb += eps
        np.divide(mb, tb, out=tb)
        tb *= scale
        pb -= tb


def adadelta_update(p, g, sq_grad, sq_update, lr, rho, eps):
    """One Adadelta update on flat views, in place, block by block.

    ``p -= lr * (s * g)`` stands for the textbook ``d = -(s * g)``,
    ``p += lr * d``: IEEE negation is exact, so both round alike, bit for bit."""
    for pb, gb, egb, edb, tb, ub in _blocks((p, g, sq_grad, sq_update), 2):
        egb *= rho
        np.square(gb, out=tb)
        tb *= 1.0 - rho
        egb += tb
        np.add(edb, eps, out=tb)
        np.add(egb, eps, out=ub)
        tb /= ub
        np.sqrt(tb, out=tb)
        tb *= gb  # s * g, the update with its sign flipped
        edb *= rho
        np.square(tb, out=ub)
        ub *= 1.0 - rho
        edb += ub
        tb *= lr
        pb -= tb
