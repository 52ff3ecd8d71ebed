import numpy as np
import pytest

from trajcurate.optim import WEIGHT_DECAY, AdamW, LrSchedule, train, train_step, wsd_lr
from trajcurate.seeding import rng_for
from trajcurate.tensor import Tensor


def test_adamw_first_step_hand_computed():
    # m_hat = 1, v_hat = 1 -> update = lr * (1/(1 + eps) + wd * p) ~= lr * (1 + wd)
    params = {"p": np.array([1.0])}
    grads = {"p": np.array([1.0])}
    opt = AdamW()
    opt.step(params, grads, lr=0.1)
    assert abs(params["p"][0] - (0.9 - 0.1 * WEIGHT_DECAY)) < 1e-7
    assert opt.step_count == 1


def test_adamw_decoupled_decay():
    """A zero gradient gives zero moments, so the step is the decay alone."""
    params = {"p": np.array([1.0, -2.0])}
    AdamW().step(params, {"p": np.zeros(2)}, lr=0.1)
    assert np.allclose(params["p"], np.array([1.0, -2.0]) * (1.0 - 0.1 * WEIGHT_DECAY),
                       rtol=1e-15, atol=0.0)


def test_adamw_shape_mismatch():
    with pytest.raises(ValueError):
        AdamW().step({"p": np.ones(2)}, {"p": np.ones(3)}, lr=0.1)


@pytest.mark.parametrize("lr", [0.0, -0.1])
def test_adamw_rejects_a_non_positive_lr_and_leaves_its_state(lr):
    opt, p = AdamW(), np.ones(2)
    with pytest.raises(ValueError, match="lr must be positive"):
        opt.step({"p": p}, {"p": np.ones(2)}, lr=lr)
    assert opt.step_count == 0 and np.array_equal(p, np.ones(2))


def test_adamw_second_moment_nonnegative_and_step_increments():
    opt = AdamW()
    params = {"p": np.array([0.5])}
    for k in range(5):
        grads = {"p": np.array([(-1.0) ** k])}
        opt.step(params, grads, lr=0.01)
        assert opt.step_count == k + 1
        assert np.all(opt.second_moment["p"] >= 0)


def test_adamw_wrapper_updates_in_place():
    opt = AdamW()
    params = {"p": np.array([1.0])}
    opt.step(params, {"p": np.array([1.0])}, lr=0.1)
    assert abs(params["p"][0] - (0.9 - 0.1 * WEIGHT_DECAY)) < 1e-7


def test_wsd_schedule_values():
    sched = LrSchedule(base_lr=1e-4, total_steps=60_000, stable_steps=50_000)
    assert wsd_lr(10_000, sched) == 1e-4
    assert wsd_lr(60_000, sched) == 0.0
    assert abs(wsd_lr(55_000, sched) - 5e-5) < 1e-18


def test_wsd_piecewise_shape():
    sched = LrSchedule(base_lr=3e-4, total_steps=100, stable_steps=60)
    values = [wsd_lr(s, sched) for s in range(101)]
    assert all(v == 3e-4 for v in values[:60])
    tail = values[60:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert values[-1] == 0.0


def test_wsd_out_of_range():
    sched = LrSchedule(base_lr=1e-4, total_steps=10, stable_steps=5)
    with pytest.raises(ValueError):
        wsd_lr(11, sched)
    with pytest.raises(ValueError):
        wsd_lr(-1, sched)


def test_schedule_validation():
    with pytest.raises(ValueError):
        LrSchedule(base_lr=0.0, total_steps=10, stable_steps=5)
    with pytest.raises(ValueError):
        LrSchedule(base_lr=1e-4, total_steps=10, stable_steps=11)


def reference_adamw(params, grads, lrs, b1=0.9, b2=0.999, eps=1e-8):
    """AdamW as written with new arrays at every step; the in-place step
    must give the same bytes."""
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    params = {k: p.copy() for k, p in params.items()}
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        for k in params:
            m[k] = b1 * m[k] + (1.0 - b1) * g[k]
            v[k] = b2 * v[k] + (1.0 - b2) * g[k] * g[k]
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v[k] / (1.0 - b2 ** t)
            params[k] = params[k] - lr * (m_hat / (np.sqrt(v_hat) + eps) + WEIGHT_DECAY * params[k])
    return params, m, v


def test_adamw_in_place_matches_reference_bytes():
    rng = np.random.default_rng(11)
    params = {"w": rng.normal(size=(5, 3)), "b": rng.normal(size=(3,))}
    grads = [{k: rng.normal(0.0, 10.0 ** -s, size=p.shape) for k, p in params.items()}
             for s in range(6)]
    lrs = [1e-3, 3e-4, 1e-2, 1e-3, 5e-4, 1e-4]
    expected, m, v = reference_adamw(params, grads, lrs)
    opt = AdamW()
    for g, lr in zip(grads, lrs):
        opt.step(params, g, lr)
    for k in params:
        assert params[k].tobytes() == expected[k].tobytes(), k
        assert opt.first_moment[k].tobytes() == m[k].tobytes(), k
        assert opt.second_moment[k].tobytes() == v[k].tobytes(), k
        assert not np.shares_memory(opt.first_moment[k], opt.second_moment[k]), k


def quadratic_loss(p, draws):
    """A loss of `p` that records one draw of each step's generator."""
    def loss_fn(rng):
        draws.append(rng.random())
        return ((p - Tensor(np.array([draws[-1], 0.5]))) ** 2).sum()
    return loss_fn


def test_train_seeds_step_k_with_its_own_generator():
    """The schedule's total_steps steps; step k draws from rng_for(seed, tag, k)
    and steps at wsd_lr(k): the same bytes as the loop written out with
    `train_step`. Zero steps draw nothing and leave the parameters as they were."""
    sched = LrSchedule(base_lr=0.1, total_steps=4, stable_steps=2)
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    draws = []
    losses = train({"p": p}, quadratic_loss(p, draws), sched, seed=7, tag="t-step")
    assert draws == [rng_for(7, "t-step", k).random() for k in range(4)]
    assert len(losses) == 4 and all(type(loss) is float for loss in losses)

    q = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt, hand_loss = AdamW(), quadratic_loss(q, [])
    hand = []
    for k in range(4):
        rng = rng_for(7, "t-step", k)
        hand.append(train_step({"p": q}, lambda: hand_loss(rng), opt, wsd_lr(k, sched)))
    assert losses == hand
    assert p.data.tobytes() == q.data.tobytes()

    before = p.data.copy()
    no_steps = LrSchedule(base_lr=0.1, total_steps=0, stable_steps=0)
    assert train({"p": p}, quadratic_loss(p, draws), no_steps, seed=7, tag="t-step") == []
    assert len(draws) == 4 and np.array_equal(p.data, before)


@pytest.mark.parametrize("where", ["loss", "backward"])
def test_train_step_reports_a_non_finite_value_with_its_step(where):
    """A FloatingPointError in the loss or in the backward pass becomes
    RuntimeError naming the step: the optimizer's count of steps taken."""
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW()
    train_step({"p": p}, lambda: (p * p).sum(), opt, 0.1)

    def fail(*_):
        raise FloatingPointError(f"in the {where}")

    def loss_fn():
        if where == "loss":
            fail()
        loss = (p * p).sum()
        loss._backward = fail
        return loss

    with pytest.raises(RuntimeError, match=f"non-finite value at step 1: in the {where}"):
        train_step({"p": p}, loss_fn, opt, 0.1)
    assert opt.step_count == 1
