"""Adam and Adadelta parameter updates.

The elementwise update of each parameter tensor runs as one in-place numpy
kernel (``kernels.adam_update`` / ``kernels.adadelta_update``) on flat
views of the parameter, its gradient and its accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ShapeError

__all__ = ["OptimizerState", "Adam", "Adadelta"]


@dataclass
class OptimizerState:
    """Per-parameter accumulator arrays plus a step counter."""

    hyper: dict[str, float]
    slots: dict[str, dict[str, np.ndarray]]
    step_count: int = 0

    def check_shapes(self, params: dict[str, np.ndarray]) -> None:
        if set(self.slots) != set(params):
            raise ShapeError("optimizer state does not cover the same parameters")
        for name, arrs in self.slots.items():
            for arr in arrs.values():
                if arr.shape != params[name].shape:
                    raise ShapeError(f"accumulator shape mismatch for {name}")


def _flat(arr: np.ndarray) -> np.ndarray:
    return arr.reshape(-1)


@dataclass
class Adam:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def init_state(self, params: dict[str, np.ndarray]) -> OptimizerState:
        slots = {
            name: {"m": np.zeros_like(p), "v": np.zeros_like(p)}
            for name, p in params.items()
        }
        return OptimizerState(
            hyper={"lr": self.lr, "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps},
            slots=slots,
        )

    def step(
        self,
        state: OptimizerState,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """One bias-corrected Adam update, in place:
        m <- b1 m + (1-b1) g, v <- b2 v + (1-b2) g^2,
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)."""
        state.check_shapes(params)
        state.step_count += 1
        t = state.step_count
        scale = self.lr / (1.0 - self.beta1**t)
        c2 = 1.0 - self.beta2**t
        for name, p in params.items():
            slot = state.slots[name]
            kernels.adam_update(
                _flat(p),
                np.ascontiguousarray(grads[name]).reshape(-1),
                _flat(slot["m"]),
                _flat(slot["v"]),
                self.beta1,
                self.beta2,
                scale,
                c2,
                self.eps,
            )
        return params


@dataclass
class Adadelta:
    lr: float = 1.0
    rho: float = 0.9
    eps: float = 1e-6

    def init_state(self, params: dict[str, np.ndarray]) -> OptimizerState:
        slots = {
            name: {"sq_grad": np.zeros_like(p), "sq_update": np.zeros_like(p)}
            for name, p in params.items()
        }
        return OptimizerState(
            hyper={"lr": self.lr, "rho": self.rho, "eps": self.eps},
            slots=slots,
        )

    def step(
        self,
        state: OptimizerState,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """One Adadelta update, in place:
        Eg <- rho Eg + (1-rho) g^2,
        d <- -sqrt((Ed + eps) / (Eg + eps)) g,
        Ed <- rho Ed + (1-rho) d^2, p <- p + lr d."""
        state.check_shapes(params)
        state.step_count += 1
        for name, p in params.items():
            slot = state.slots[name]
            kernels.adadelta_update(
                _flat(p),
                np.ascontiguousarray(grads[name]).reshape(-1),
                _flat(slot["sq_grad"]),
                _flat(slot["sq_update"]),
                self.lr,
                self.rho,
                self.eps,
            )
        return params
