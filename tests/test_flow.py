import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate.flow import (
    TrainConfig,
    euler_sample,
    fm_loss,
    interpolate,
    train_fm,
)
from trajcurate.optim import LrSchedule
from trajcurate.tensor import Tensor, autodiff_grad, finite_diff_grad


def test_interpolate_endpoints():
    rng = np.random.default_rng(0)
    x, eps = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    assert np.array_equal(interpolate(x, eps, np.zeros(4)), x)
    assert np.array_equal(interpolate(x, eps, np.ones(4)), eps)
    assert np.allclose(interpolate(x, eps, np.full(4, 0.5)), (x + eps) / 2)


def test_interpolate_per_item_time():
    rng = np.random.default_rng(0)
    x, eps = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2))
    out = interpolate(x, eps, np.array([0.0, 1.0]))
    assert np.array_equal(out[0], x[0])
    assert np.array_equal(out[1], eps[1])


@settings(max_examples=20, deadline=None)
@given(a=st.floats(0, 1), b=st.floats(0, 1))
def test_interpolate_affine_in_time(a, b):
    rng = np.random.default_rng(1)
    x, eps = rng.normal(size=(3,)), rng.normal(size=(3,))
    mid = interpolate(x, eps, np.full(3, (a + b) / 2))
    avg = (interpolate(x, eps, np.full(3, a)) + interpolate(x, eps, np.full(3, b))) / 2
    assert np.allclose(mid, avg, atol=1e-12)


def test_fm_loss_values():
    x = np.zeros(3)
    eps = np.array([1.0, 2.0, 3.0])
    assert fm_loss(Tensor(eps - x), x, eps).item() == 0.0
    assert fm_loss(Tensor(eps - x + 1.0), x, eps).item() == pytest.approx(1.0)
    assert fm_loss(Tensor(np.zeros(3)), x, eps).item() == pytest.approx(14.0 / 3.0)
    with pytest.raises(ValueError):
        fm_loss(Tensor(np.zeros(2)), x, eps)


def test_fm_loss_nonnegative_zero_iff_exact():
    rng = np.random.default_rng(3)
    x, eps = rng.normal(size=(4,)), rng.normal(size=(4,))
    v = Tensor(eps - x)
    assert fm_loss(v, x, eps).item() == 0.0
    assert fm_loss(v + 1e-3, x, eps).item() > 0.0


def test_fm_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x, eps = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    w = rng.normal(size=(3, 3))

    def loss(p):
        v = Tensor(x + 0.1) @ p["w"]
        return fm_loss(v, x, eps)

    auto = autodiff_grad(loss, {"w": w})
    fd = finite_diff_grad(loss, {"w": w}, eps=1e-5)
    denom = np.maximum(np.abs(auto["w"]) + np.abs(fd["w"]), 1e-10)
    assert np.max(np.abs(auto["w"] - fd["w"]) / denom) < 1e-4


def constant_oracle(x, eps_true, data):
    return lambda x_t, t: eps_true - data


def test_euler_constant_field_recovers_data():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(2, 4))
    eps_true = np.random.default_rng(9).standard_normal((2, 4))
    out = euler_sample(constant_oracle(None, eps_true, data), eps_true, steps=1)
    assert np.allclose(out, data, atol=1e-12)


def test_euler_step_count_invariant_for_constant_field():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(3, 2))
    eps_true = np.random.default_rng(11).standard_normal((3, 2))
    fn = constant_oracle(None, eps_true, data)
    a = euler_sample(fn, eps_true, steps=1)
    b = euler_sample(fn, eps_true, steps=10)
    assert np.allclose(a, b, atol=1e-10)


def test_euler_deterministic():
    fn = lambda x, t: np.zeros_like(x)
    noise = np.random.default_rng(3).standard_normal((2, 2))
    a = euler_sample(fn, noise, steps=4)
    b = euler_sample(fn, noise, steps=4)
    assert np.array_equal(a, b) and np.array_equal(a, noise)
    with pytest.raises(ValueError):
        euler_sample(fn, noise, steps=0)


class ScalarModel:
    """v(x_t) = w, one trainable parameter; convex toy problem."""

    def __init__(self):
        self.params = {"w": Tensor(np.array([0.0]), requires_grad=True)}

    def velocity(self, x_t, t, cond):
        return self.params["w"] * Tensor(np.ones_like(x_t))


def test_train_fm_converges_on_toy_problem():
    model = ScalarModel()
    cfg = TrainConfig(steps=100, batch_size=8,
                      schedule=LrSchedule(base_lr=0.05, total_steps=100,
                                          stable_steps=100), seed=0)
    losses = train_fm(model, lambda r, n: (np.full((n, 1), 2.0), {}), cfg)
    assert len(losses) == 100
    # convex problem: the loss trend over the first 100 steps is decreasing
    assert losses[-1] < losses[0]
    first, last = np.mean(losses[:10]), np.mean(losses[-10:])
    assert last < 0.5 * first


def test_train_fm_zero_steps_is_noop():
    model = ScalarModel()
    before = model.params["w"].data.copy()
    cfg = TrainConfig(steps=0, batch_size=4,
                      schedule=LrSchedule(base_lr=0.05, total_steps=0,
                                          stable_steps=0), seed=0)
    losses = train_fm(model, lambda r, n: (np.zeros((n, 1)), {}), cfg)
    assert losses == []
    assert np.array_equal(model.params["w"].data, before)


def test_train_fm_asks_batch_fn_for_the_configured_batch_size():
    sizes = []

    def batch_fn(rng, n):
        sizes.append(n)
        return np.zeros((n, 1)), {}

    cfg = TrainConfig(steps=3, batch_size=5, schedule=LrSchedule(0.05, 3, 3))
    train_fm(ScalarModel(), batch_fn, cfg)
    assert sizes == [5, 5, 5]


@pytest.mark.parametrize("steps, batch_size", [(7, 4), (3, 4), (5, 0)])
def test_train_config_rejects_a_second_length_and_an_empty_batch(steps, batch_size):
    """The schedule states the run's length; `steps` may only repeat it."""
    with pytest.raises(ValueError, match="total_steps"):
        TrainConfig(steps=steps, batch_size=batch_size,
                    schedule=LrSchedule(base_lr=0.05, total_steps=5, stable_steps=4))


def test_train_fm_deterministic():
    def run():
        model = ScalarModel()
        cfg = TrainConfig(steps=30, batch_size=4,
                          schedule=LrSchedule(base_lr=0.05, total_steps=30,
                                              stable_steps=30), seed=7)
        train_fm(model, lambda r, n: (np.full((n, 1), 1.5), {}), cfg)
        return model.params["w"].data.copy()

    assert np.array_equal(run(), run())
