import os
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate import flow, idm, optim, sim
from trajcurate.seeding import derive_seed

TINY = idm.IdmHyper(dim=16, heads=2, blocks=1, horizon=4,
                    resolution=32, euler_steps=2, sample_avg=2)


def tiny_model():
    model = idm.IdmModel(TINY, seed=3)
    model.norm_mean = np.linspace(-0.01, 0.01, idm.ACTION_DIM)
    model.norm_std = np.full(idm.ACTION_DIM, 0.05)
    return model


def default_model():
    """Default hyper with weights spread wider than the init, which gives
    near-zero velocities, so every trunk sum, and any change in its order,
    shows in the labels; the normalization leaves few labels clipped."""
    model = idm.IdmModel(seed=4)
    rng = np.random.default_rng(4)
    for p in model.params.values():
        p.data = rng.normal(0.0, 0.1, size=p.shape)
    model.norm_mean = np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.5])
    model.norm_std = np.full(idm.ACTION_DIM, 0.02)
    return model


def random_video(t, seed=0, resolution=32):
    return np.random.default_rng(seed).integers(
        0, 256, size=(t, resolution, resolution, 3), dtype=np.uint8)


def reference_label_video(video, model):
    """One Euler sample per averaged run, each step recomputing the frame
    tokens from the raw frames. `velocity` runs with the graph on, so the
    trunk computes every row of its last block instead of the chunk rows
    alone."""
    h = model.hyper.horizon
    starts = list(range(0, len(video) - 1, h))
    ends = [min(s + h, len(video) - 1) for s in starts]

    def velocity_fn(x_t, t):
        return model.velocity(x_t, t, model.frame_tokens(video[starts], video[ends])).data

    base = derive_seed(idm.LABEL_SEED, "label-windows")
    shape = (len(starts), h, idm.ACTION_DIM)
    runs = [flow.euler_sample(velocity_fn, shape, model.hyper.euler_steps,
                              derive_seed(base, "avg", j))
            for j in range(model.hyper.sample_avg)]
    chunks = model.denormalize(np.mean(runs, axis=0))
    chunks[..., [0, 1, 3, 4]] = np.clip(chunks[..., [0, 1, 3, 4]], -sim.A_MAX, sim.A_MAX)
    chunks[..., [2, 5]] = np.clip(chunks[..., [2, 5]], 0.0, 1.0)
    return np.concatenate([chunks[i, :e - s] for i, (s, e) in enumerate(zip(starts, ends))])


@settings(max_examples=15, deadline=None)
@given(t=st.integers(2, 40))
def test_label_video_gives_t_minus_one_finite_rows(t):
    labels = idm.label_video(random_video(t, seed=t), tiny_model())
    assert labels.shape == (t - 1, idm.ACTION_DIM)
    assert np.all(np.isfinite(labels))


def test_label_video_matches_per_step_reference():
    for model, lengths in ((tiny_model(), (2, 5, 13)), (default_model(), (2, 20))):
        for t in lengths:
            video = random_video(t, seed=t, resolution=model.hyper.resolution)
            labels = idm.label_video(video, model)
            assert labels.tobytes() == reference_label_video(video, model).tobytes()


def test_label_video_leaves_no_thread_and_grad_on():
    model = default_model()
    assert model.hyper.sample_avg == 4
    before = threading.active_count()
    video = random_video(10, resolution=model.hyper.resolution)
    idm.label_video(video, model)
    assert threading.active_count() == before

    rng = np.random.default_rng(5)
    x, eps = rng.normal(size=(2, 2, model.hyper.horizon, idm.ACTION_DIM))
    t = np.array([0.3, 0.7])
    cond = model.frame_tokens(video[:2], video[8:])
    optim.train_step(model.params,
                     lambda: flow.fm_loss(model.velocity(flow.interpolate(x, eps, t), t, cond),
                                          x, eps),
                     optim.AdamW(), lr=1e-3)
    assert all(p.grad is not None and np.any(p.grad) for p in model.params.values())


def test_label_video_without_sched_getaffinity(monkeypatch):
    """Platforms other than Linux have no `os.sched_getaffinity`; the pool is
    then sized by `os.cpu_count()`, with the same labels."""
    model = default_model()
    video = random_video(20, seed=6, resolution=model.hyper.resolution)
    expected = idm.label_video(video, model)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert idm.label_video(video, model).tobytes() == expected.tobytes()
