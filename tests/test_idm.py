import dataclasses
import logging
import math
import os
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from trajcurate import dataset, flow, idm, optim, parallel, sim
from trajcurate.encoder import EncoderHyper
from trajcurate.nn import time_features
from trajcurate.probe import ProbeHyper
from trajcurate.seeding import derive_seed
from trajcurate.tensor import no_grad

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
    """All averaged runs as one Euler sample over their stacked noises, each
    step rebuilding the conditioning of every run from the raw frames, with
    the graph on."""
    h, n_runs = model.hyper.horizon, model.hyper.sample_avg
    starts = list(range(0, len(video) - 1, h))
    ends = [min(s + h, len(video) - 1) for s in starts]
    frames_a, frames_b = (np.concatenate([video[idx]] * n_runs) for idx in (starts, ends))

    def velocity_fn(x_t, t):
        return model.velocity(x_t, t, model.condition(frames_a, frames_b)).data

    base = derive_seed(idm.LABEL_SEED, "label-windows")
    shape = (len(starts), h, idm.ACTION_DIM)
    rngs = [np.random.default_rng(derive_seed(base, "avg", j)) for j in range(n_runs)]
    noise = np.concatenate([rng.standard_normal(shape) for rng in rngs])
    runs = flow.euler_sample(velocity_fn, noise, model.hyper.euler_steps).reshape(n_runs, *shape)
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


def test_label_video_same_bytes_on_any_core_count(monkeypatch):
    """The runs are grouped by core count, and the labels must not follow:
    no group is a single run, so no velocity call has a single row, even on
    a one-window video."""
    model = default_model()
    videos = [random_video(t, seed=t, resolution=model.hyper.resolution) for t in (2, 20, 121)]
    labels = []
    for n in (1, 2, 3, 4):
        monkeypatch.setattr(parallel, "cores", lambda n=n: n)
        labels.append([idm.label_video(video, model).tobytes() for video in videos])
    assert all(by_core_count == labels[0] for by_core_count in labels)


def test_label_video_labels_are_fixed_points_of_clip_actions():
    """Labels are the commands a replay executes: clipping changes none, and
    with a wide normalization some sit at a bound."""
    model = tiny_model()
    model.norm_std = np.full(idm.ACTION_DIM, 1.0)
    labels = idm.label_video(random_video(13, seed=2), model)
    assert np.array_equal(sim.clip_actions(labels), labels)
    assert np.any(np.abs(labels[:, [0, 1, 3, 4]]) == sim.A_MAX)


def test_label_video_rejects_a_one_frame_video():
    with pytest.raises(ValueError, match="two frames"):
        idm.label_video(random_video(1), tiny_model())


def test_train_idm_rejects_an_empty_dataset():
    config = flow.TrainConfig(steps=1, batch_size=2,
                              schedule=optim.LrSchedule(base_lr=1e-3, total_steps=1,
                                                        stable_steps=1))
    with pytest.raises(ValueError, match="empty dataset"):
        idm.train_idm([], config, TINY)


def test_train_idm_skips_episodes_shorter_than_a_chunk(caplog):
    """An episode of `horizon` frames holds no chunk: it is skipped with a
    warning, and training fails when no episode holds one."""
    hyper = dataclasses.replace(TINY, resolution=64)
    demo = dataset.collect_demos(1, seed=0)[0]
    short, full = (dataclasses.replace(demo, frames=demo.frames[:n], states=demo.states[:n],
                                       actions=demo.actions[:n - 1])
                   for n in (hyper.horizon, hyper.horizon + 1))
    config = flow.TrainConfig(steps=1, batch_size=2,
                              schedule=optim.LrSchedule(base_lr=1e-3, total_steps=1,
                                                        stable_steps=1))
    with caplog.at_level(logging.WARNING, logger=idm.__name__):
        _, losses = idm.train_idm([short, full, short], config, hyper)
    assert len(losses) == 1
    assert "skipped 2 episodes shorter than 5 frames" in caplog.text
    with pytest.raises(ValueError, match="no episode long enough"):
        idm.train_idm([short, short], config, hyper)


def test_hyper_rejects_non_positive_fields():
    """One rule for the three models: every field a positive integer, and
    `dim` divisible by `heads`."""
    for cls in (idm.IdmHyper, EncoderHyper, ProbeHyper):
        for field in fields(cls):
            for bad in (0, -2, 1.5):
                with pytest.raises(ValueError, match=field.name):
                    cls(**{field.name: bad})
        with pytest.raises(ValueError, match="dim 12 is not divisible by heads 8"):
            cls(dim=12, heads=8)


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
    cond = model.condition(video[:2], video[8:])
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


def two_windows(model, batch, seed):
    video = random_video(8 * batch + 1, seed=seed, resolution=model.hyper.resolution)
    return video[0:-1:8], video[8::8]


def noisy_chunk(model, batch, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(batch, model.hyper.horizon, idm.ACTION_DIM)),
            rng.uniform(0.0, 1.0, size=batch))


def test_velocity_same_bytes_with_and_without_graph():
    model = default_model()
    for batch in (1, 3, 11):
        frames_a, frames_b = two_windows(model, batch, seed=batch)
        x_t, t = noisy_chunk(model, batch, seed=batch)
        graph = model.velocity(x_t, t, model.condition(frames_a, frames_b))
        with no_grad():
            plain = model.velocity(x_t, t, model.condition(frames_a, frames_b))
        assert graph.requires_grad and not plain.requires_grad
        assert plain.data.tobytes() == graph.data.tobytes()


def layer_norm(x, p, name):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) * p[f"{name}.g"] + p[f"{name}.b"]


def linear(x, p, name):
    return x @ p[f"{name}.w"] + p[f"{name}.b"]


def masked_reference(model, x_t, t, frames_a, frames_b):
    """`velocity` as one pass over the frame tokens followed by the chunk
    rows, in numpy from the parameter arrays, with an explicit mask that
    keeps the frame tokens from reading the chunk rows. Returns the velocity
    and each block's keys and values of the frame tokens."""
    p = {name: t.data for name, t in model.params.items()}
    hyper = model.hyper
    with no_grad():
        tokens = model.frame_tokens(frames_a, frames_b).data
    tvec = linear(time_features(t, hyper.dim), p, "time")
    act = linear(x_t, p, "chunk_in") + p["row_embed"] + tvec[:, None, :]
    x = np.concatenate([tokens, act], axis=1)
    b, n, d = x.shape
    n_prefix, d_head = tokens.shape[1], d // hyper.heads
    reads = np.ones((n, n), dtype=bool)
    reads[:n_prefix, n_prefix:] = False

    def heads(a):
        return a.reshape(b, n, hyper.heads, d_head).swapaxes(1, 2)

    prefix_kv = []
    for i in range(hyper.blocks):
        blk = f"trunk.blk{i}"
        h = layer_norm(x, p, f"{blk}.ln1")
        q, k, v = (linear(h, p, f"{blk}.attn.{c}") for c in "qkv")
        prefix_kv.append((k[:, :n_prefix], v[:, :n_prefix]))
        scores = np.where(reads, heads(q) @ heads(k).swapaxes(-1, -2) / math.sqrt(d_head), -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        merged = (weights @ heads(v)).swapaxes(1, 2).reshape(b, n, d)
        x = x + linear(merged, p, f"{blk}.attn.o")
        hidden = linear(layer_norm(x, p, f"{blk}.ln2"), p, f"{blk}.mlp.fc1")
        hidden = hidden * 0.5 * (1.0 + erf(hidden / math.sqrt(2.0)))
        x = x + linear(hidden, p, f"{blk}.mlp.fc2")
    out = layer_norm(x, p, "trunk.ln_out")[:, n_prefix:]
    return linear(out, p, "head"), prefix_kv


def test_cached_prefix_matches_block_masked_full_attention():
    model = default_model()
    frames_a, frames_b = two_windows(model, 3, seed=8)
    x_t, t = noisy_chunk(model, 3, seed=9)
    expected, expected_kv = masked_reference(model, x_t, t, frames_a, frames_b)
    with no_grad():
        cond = model.condition(frames_a, frames_b)
        out = model.velocity(x_t, t, cond).readout()
    assert np.max(np.abs(out - expected)) <= 1e-12
    assert len(cond) == model.hyper.blocks
    for (k, v), (k_ref, v_ref) in zip(cond, expected_kv):
        assert np.max(np.abs(k.data - k_ref)) <= 1e-12
        assert np.max(np.abs(v.data - v_ref)) <= 1e-12


def test_changing_x_t_leaves_the_prefix_cache_unchanged():
    """Velocity calls with other noise neither write into the cache nor
    make a reused cache give other bytes than a fresh one."""
    model = default_model()
    frames_a, frames_b = two_windows(model, 3, seed=10)
    with no_grad():
        cond = model.condition(frames_a, frames_b)
    before = [(k.data.tobytes(), v.data.tobytes()) for k, v in cond]
    for seed in range(3):
        x_t, t = noisy_chunk(model, 3, seed=seed)
        model.velocity(x_t, t, cond)
        with no_grad():
            reused = model.velocity(x_t, t, cond).readout()
    assert [(k.data.tobytes(), v.data.tobytes()) for k, v in cond] == before
    with no_grad():
        fresh = model.velocity(x_t, t, model.condition(frames_a, frames_b)).readout()
    assert reused.tobytes() == fresh.tobytes()
