"""Minimal SGD and Adam over dicts of named parameter arrays."""

from __future__ import annotations

import numpy as np

from .formats import OptimizerSpec


class TrainingDivergedError(FloatingPointError):
    """Loss or parameters became non-finite during training."""


class Sgd:
    def __init__(self, lr, momentum=0.0):
        self.lr = lr
        self.momentum = momentum
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads[name]
            if self.momentum:
                v = self.v.setdefault(name, np.zeros_like(p))
                v *= self.momentum
                v += g
                g = v
            p -= self.lr * g


class Adam:
    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(spec: OptimizerSpec):
    if spec.kind == "sgd":
        return Sgd(spec.lr, spec.momentum)
    return Adam(spec.lr, spec.beta1, spec.beta2, spec.eps)
