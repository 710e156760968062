"""Adam and Adadelta parameter updates on one shared core.

``_Optimizer`` is the one place where optimizer state is made
(``init_state``: zeroed ``SLOTS`` per parameter, the optimizer's own
fields as ``hyper``) and where every step starts (``_views``: check the
state, count the step, hand out flat views). A new optimizer is a
dataclass with its fields, its ``SLOTS`` and one ``step`` that passes those
views to its in-place kernel in ``kernels``, looked up at call time, once per
parameter. The kernel walks the views in cache-sized blocks (``kernels``'
block contract), so a step's cost is one pass over its state from memory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import ShapeError

__all__ = ["OptimizerState", "Adam", "Adadelta", "OPTIMIZERS"]

Arrays = dict[str, np.ndarray]


@dataclass
class OptimizerState:
    """Per-parameter accumulator arrays plus a step counter."""

    hyper: dict[str, float]
    slots: dict[str, dict[str, np.ndarray]]
    step_count: int = 0


class _Optimizer:
    SLOTS: tuple[str, ...] = ()

    def init_state(self, params: Arrays) -> OptimizerState:
        return OptimizerState(
            hyper=asdict(self),
            slots={name: {s: np.zeros_like(p) for s in self.SLOTS} for name, p in params.items()},
        )

    def _views(self, state: OptimizerState, params: Arrays, grads: Arrays) -> list[tuple]:
        """Check ``state`` against ``params``, count the step, and return one
        (param, grad, *slots) tuple of flat views per parameter."""
        if state.slots.keys() != params.keys():
            raise ShapeError("optimizer state does not cover the same parameters")
        views = []
        for name, p in params.items():
            slots = state.slots[name]
            if slots.keys() != set(self.SLOTS) or any(a.shape != p.shape for a in slots.values()):
                raise ShapeError(f"optimizer state for {name} needs slots "
                                 f"{', '.join(self.SLOTS)} of shape {p.shape}")
            views.append((
                p.reshape(-1),
                np.ascontiguousarray(grads[name]).reshape(-1),
                *(slots[s].reshape(-1) for s in self.SLOTS),
            ))
        state.step_count += 1
        return views


@dataclass
class Adam(_Optimizer):
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    SLOTS = ("m", "v")

    def step(self, state: OptimizerState, params: Arrays, grads: Arrays) -> Arrays:
        """One bias-corrected Adam update, in place:
        m <- b1 m + (1-b1) g, v <- b2 v + (1-b2) g^2,
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)."""
        views = self._views(state, params, grads)
        t = state.step_count
        scale = self.lr / (1.0 - self.beta1**t)
        c2 = 1.0 - self.beta2**t
        for p, g, m, v in views:
            kernels.adam_update(p, g, m, v, self.beta1, self.beta2, scale, c2, self.eps)
        return params


@dataclass
class Adadelta(_Optimizer):
    lr: float = 1.0
    rho: float = 0.9
    eps: float = 1e-6
    SLOTS = ("sq_grad", "sq_update")

    def step(self, state: OptimizerState, params: Arrays, grads: Arrays) -> Arrays:
        """One Adadelta update, in place:
        Eg <- rho Eg + (1-rho) g^2,
        d <- -sqrt((Ed + eps) / (Eg + eps)) g,
        Ed <- rho Ed + (1-rho) d^2, p <- p + lr d."""
        for p, g, sq_grad, sq_update in self._views(state, params, grads):
            kernels.adadelta_update(p, g, sq_grad, sq_update, self.lr, self.rho, self.eps)
        return params


OPTIMIZERS = {"adam": Adam, "adadelta": Adadelta}
