"""AdamW with decoupled weight decay, one training step, the seeded training
loop and the stable-then-decay LR schedule. A run's length is its schedule's
`total_steps`, stated nowhere else. Every trainer steps through `train_step`,
so training raises RuntimeError naming the step on a non-finite value, where
inference raises the FloatingPointError of `tensor`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .seeding import rng_for
from .tensor import Tensor

__all__ = ["AdamW", "train_step", "train", "LrSchedule", "wsd_lr"]

BETAS = (0.9, 0.999)    # moment decay rates
EPS = 1e-8
WEIGHT_DECAY = 0.01     # every model in the package trains with this decay


class AdamW:
    """AdamW with per-parameter moments and a shared step count.

    Decay is decoupled: p <- p - lr*wd*p, not folded into the gradients.
    `step` updates the moments and the parameter arrays in place.
    """

    def __init__(self):
        self.first_moment: dict[str, np.ndarray] = {}
        self.second_moment: dict[str, np.ndarray] = {}
        self.step_count = 0

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray], lr: float) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        b1, b2 = BETAS
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
            if name not in self.first_moment:
                self.first_moment[name], self.second_moment[name] = np.zeros_like(p), np.zeros_like(p)
            m, v = self.first_moment[name], self.second_moment[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            # p - lr * (m_hat / (sqrt(v_hat) + EPS) + WEIGHT_DECAY * p), in that order
            update = m / (1.0 - b1 ** t)
            update /= np.sqrt(v / (1.0 - b2 ** t)) + EPS
            update += WEIGHT_DECAY * p
            p -= lr * update


def train_step(params: dict[str, Tensor], loss_fn: Callable[[], Tensor],
               opt: AdamW, lr: float) -> float:
    """Zero the grads, backpropagate loss_fn() and take one optimizer step.

    An unused parameter gets a zero gradient. A FloatingPointError in the loss
    or the backward pass becomes RuntimeError naming the step. Returns the loss
    as a float, so the caller holds no reference to the step's autodiff graph.
    """
    for t in params.values():
        t.grad = None
    try:
        loss = loss_fn()
        loss.backward()
    except FloatingPointError as exc:
        raise RuntimeError(f"non-finite value at step {opt.step_count}: {exc}") from exc
    grads = {name: t.grad if t.grad is not None else np.zeros_like(t.data)
             for name, t in params.items()}
    opt.step({name: t.data for name, t in params.items()}, grads, lr)
    return loss.item()


def train(params: dict[str, Tensor], loss_fn: Callable[[np.random.Generator], Tensor],
          schedule: LrSchedule, seed: int, tag: str) -> list[float]:
    """`schedule.total_steps` steps of one AdamW: step k is `train_step` on
    loss_fn(rng_for(seed, tag, k)) at `wsd_lr(k, schedule)`. Returns the loss
    log; zero steps leave the parameters untouched."""
    opt = AdamW()
    return [train_step(params, lambda: loss_fn(rng_for(seed, tag, k)), opt, wsd_lr(k, schedule))
            for k in range(schedule.total_steps)]


@dataclass(frozen=True)
class LrSchedule:
    """Constant at base_lr for `stable_steps`, then linear decay to zero."""
    base_lr: float
    total_steps: int
    stable_steps: int

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not (0 <= self.stable_steps <= self.total_steps):
            raise ValueError("need 0 <= stable_steps <= total_steps")


def wsd_lr(step: int, schedule: LrSchedule) -> float:
    if not (0 <= step <= schedule.total_steps):
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if step < schedule.stable_steps:
        return schedule.base_lr
    span = schedule.total_steps - schedule.stable_steps
    if span == 0:
        return 0.0
    frac = (step - schedule.stable_steps) / span
    # base_lr * (1 - frac) rounds differently and would change every checkpoint
    return schedule.base_lr - frac * schedule.base_lr
