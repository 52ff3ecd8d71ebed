"""Flow-matching core of the inverse dynamics model; the imitation policy of
ROADMAP item 3, not built yet, is meant to train with it too.

The probability path linearly interpolates data x toward Gaussian noise eps
as t runs 0 -> 1 (x_t = (1-t)x + t*eps), the regression target is the
constant velocity eps - x, and sampling integrates an Euler scheme from t=1
back to t=0. Time is drawn uniformly per item; all randomness is seeded:
`train_fm` draws its noise from the step's seed, and a sampler's caller
draws the starting noise it passes to `euler_sample`. On a non-finite value,
training raises RuntimeError naming the step, sampling FloatingPointError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

from .optim import LrSchedule, train
from .tensor import Tensor


def interpolate(x: np.ndarray, eps: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1-t)*x + t*eps elementwise, with one time per item along axis 0."""
    tt = t.reshape(t.shape + (1,) * (x.ndim - 1))
    return (1.0 - tt) * x + tt * eps


def fm_loss(v_pred: Tensor, x: np.ndarray, eps: np.ndarray) -> Tensor:
    """Mean squared error against the target eps - x; differentiable in v_pred."""
    if v_pred.shape != x.shape:
        raise ValueError("prediction shape differs from target")
    diff = v_pred - Tensor(eps - x)
    return (diff * diff).mean()


class VelocityModel(Protocol):
    params: dict[str, Tensor]

    def velocity(self, x_t: np.ndarray, t: np.ndarray, conditioning: Any) -> Tensor: ...


def euler_sample(velocity_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 noise: np.ndarray, steps: int) -> np.ndarray:
    """Integrate from `noise` at t=1 down to t=0 in `steps` Euler steps.

    The caller draws the noise, so it can stack independently seeded runs
    into one batch: each row's path reads only its own velocity rows."""
    if steps < 1:
        raise ValueError("need at least one integration step")
    x = noise
    dt = 1.0 / steps
    for k in range(steps):
        t = 1.0 - k * dt
        v = np.asarray(velocity_fn(x, np.full(len(x), t)))
        x = x - dt * v
    return x


@dataclass(frozen=True)
class TrainConfig:
    steps: int          # must equal schedule.total_steps, the run's length
    batch_size: int
    schedule: LrSchedule
    seed: int = 0

    def __post_init__(self):
        if self.steps != self.schedule.total_steps or self.batch_size < 1:
            raise ValueError(f"need steps == schedule.total_steps and batch_size >= 1, got {self}")


def train_fm(model: VelocityModel,
             batch_fn: Callable[[np.random.Generator, int], tuple[np.ndarray, Any]],
             config: TrainConfig) -> list[float]:
    """`optim.train` of the flow-matching loss, step tag "fm-step".
    batch_fn(rng, config.batch_size) returns (clean, conditioning) of that many
    items, the conditioning being whatever `velocity` takes, built in the graph
    so parameters it reads train too; noise and time are drawn after it."""
    def loss_fn(rng: np.random.Generator) -> Tensor:
        clean, conditioning = batch_fn(rng, config.batch_size)
        clean = np.asarray(clean, dtype=np.float64)
        noise = rng.standard_normal(clean.shape)
        t = rng.uniform(0.0, 1.0, size=len(clean))
        return fm_loss(model.velocity(interpolate(clean, noise, t), t, conditioning),
                       clean, noise)

    return train(model.params, loss_fn, config.schedule, config.seed, "fm-step")
