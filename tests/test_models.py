"""Persistence, invariants and gradients of the encoder, probe and IDM models."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate import dataset, flow, idm, sim
from trajcurate.encoder import (
    CLIP_LEN,
    GRID_STEP,
    PATCH,
    STRIDE,
    TUBELET,
    EncoderHyper,
    EncoderModel,
    EncoderTrainConfig,
    clip_windows,
    nt_xent_loss,
    pretrain_encoder,
)
from trajcurate.nn import ParamStore
from trajcurate.optim import LrSchedule
from trajcurate.probe import (
    LABELS,
    VAL_FRACTION,
    ClipPair,
    PairSet,
    ProbeHyper,
    ProbeModel,
    ProbeTrainConfig,
    _batch,
    _bce_tensor,
    _encode_windows,
    _replay_windows,
    _split_by_episode,
    alignment_prob,
    build_pairs,
    score_sample,
    train_probe,
)
from trajcurate.seeding import rng_for
from trajcurate.synthgen import CorruptionSpec, NeuralSample
from trajcurate.tensor import Tensor, autodiff_grad, finite_diff_grad, no_grad

TINY_ENCODER = EncoderHyper(dim=8, heads=2, blocks=1, resolution=32)
TINY_PROBE = ProbeHyper(dim=8, heads=2)
TINY_IDM = idm.IdmHyper(dim=8, heads=2, blocks=1, horizon=4, resolution=32,
                        euler_steps=2, sample_avg=3)


def resave_is_identical(model, cls, tmp_path):
    first, second = tmp_path / "a.tckp", tmp_path / "b.tckp"
    model.save(first)
    loaded = cls.load(first)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.hyper == model.hyper
    return loaded


@pytest.mark.parametrize("frozen", [False, True])
def test_encoder_save_load_save_is_byte_identical(tmp_path, frozen):
    model = EncoderModel(TINY_ENCODER, seed=2)
    model.frozen = frozen
    assert resave_is_identical(model, EncoderModel, tmp_path).frozen is frozen


def test_probe_save_load_save_is_byte_identical(tmp_path):
    resave_is_identical(ProbeModel(TINY_PROBE, seed=2), ProbeModel, tmp_path)


def test_idm_save_load_save_is_byte_identical(tmp_path):
    model = idm.IdmModel(TINY_IDM, seed=2)
    model.norm_mean = np.linspace(-0.01, 0.01, idm.ACTION_DIM)
    model.norm_std = np.full(idm.ACTION_DIM, 0.05)
    loaded = resave_is_identical(model, idm.IdmModel, tmp_path)
    assert np.array_equal(loaded.norm_mean, model.norm_mean)
    assert np.array_equal(loaded.norm_std, model.norm_std)


def test_clip_windows_match_stride_pad_and_grid():
    """Window w, position k shows effective frame w*GRID_STEP + k - pad, where
    pad front-fills a short video to one clip with effective frame 0, and
    effective frame e is original frame e*STRIDE."""
    for t in range(1, 301):
        video = np.broadcast_to(np.arange(t).reshape(t, 1, 1, 1), (t, 2, 2, 3))
        n_eff = -(-t // STRIDE)
        pad = max(0, CLIP_LEN - n_eff)
        n_windows = (n_eff + pad - CLIP_LEN) // GRID_STEP + 1
        expected = np.array([[video[max(0, w * GRID_STEP + k - pad) * STRIDE]
                              for k in range(CLIP_LEN)] for w in range(n_windows)])
        windows = clip_windows(video)
        assert windows.shape == (n_windows, CLIP_LEN, 2, 2, 3), t
        assert np.array_equal(windows, expected), t


def test_encoder_tokens_do_not_depend_on_the_batch_split():
    """The probe encodes its clips in parts side by side, which is the same
    as one pass only because a clip's tokens do not depend on the other
    clips of its batch. Default hyper, weights spread wider than the init so
    that every sum shows."""
    model = EncoderModel(seed=1)
    rng = np.random.default_rng(1)
    for p in model.params.values():
        p.data = rng.normal(0.0, 0.1, size=p.shape)
    res = model.hyper.resolution
    clips = rng.integers(0, 256, size=(33, CLIP_LEN, res, res, 3), dtype=np.uint8)
    whole = model.encode_np(clips)
    for split in (1, 2, 7, 16, 32):
        parts = np.concatenate([model.encode_np(clips[:split]), model.encode_np(clips[split:])])
        assert parts.tobytes() == whole.tobytes(), split


def test_encode_same_bytes_with_and_without_graph():
    """The graph-building pass that pretraining runs gives the bytes
    `encode_np` gives: each op does the same arithmetic with and without a
    graph. Default hyper, weights spread wider than the init so that every
    sum shows."""
    model = EncoderModel(seed=2)
    rng = np.random.default_rng(2)
    for p in model.params.values():
        p.data = rng.normal(0.0, 0.1, size=p.shape)
    res = model.hyper.resolution
    clips = rng.integers(0, 256, size=(3, CLIP_LEN, res, res, 3), dtype=np.uint8)
    graph = model.encode(clips)
    plain = model.encode_np(clips)
    assert graph.requires_grad
    assert plain.tobytes() == graph.data.tobytes()


def test_pretrain_encoder_with_no_steps_is_the_initial_encoder():
    """Zero steps give the frozen random-init encoder, the baseline that
    every pretext is compared with."""
    config = EncoderTrainConfig(steps=0, seed=3)
    model = pretrain_encoder(dataset.collect_demos(2, seed=0), config)
    init = EncoderModel(seed=config.seed)
    assert model.frozen
    assert model.params.keys() == init.params.keys()
    for name, p in init.params.items():
        assert np.array_equal(model.params[name].data, p.data), name


def test_encode_rejects_a_clip_of_another_length():
    model = EncoderModel(TINY_ENCODER, seed=0)
    clips = np.zeros((1, CLIP_LEN - 2, 32, 32, 3), dtype=np.uint8)
    with pytest.raises(ValueError, match=f"clip length {CLIP_LEN - 2} != {CLIP_LEN}"):
        model.encode(clips)


def test_pretrain_encoder_needs_two_episodes():
    with pytest.raises(ValueError, match="at least two episodes"):
        pretrain_encoder(dataset.collect_demos(1, seed=0), EncoderTrainConfig(steps=0))


@pytest.mark.parametrize("cls, field, bad", [
    (EncoderTrainConfig, "steps", -1), (EncoderTrainConfig, "batch_clips", 0),
    (ProbeTrainConfig, "max_epochs", 0), (ProbeTrainConfig, "max_epochs", -1),
    (ProbeTrainConfig, "batch_pairs", 0)])
def test_train_configs_reject_an_empty_run_on_construction(cls, field, bad):
    with pytest.raises(ValueError, match=f"{field} >="):
        cls(**{field: bad})


def test_tubelets_match_patches_scaled_first():
    """The tubelets are rearranged as uint8 and scaled once; the bytes are
    those of scaling every pixel first and rearranging the floats."""
    model = EncoderModel(TINY_ENCODER, seed=0)
    clips = np.random.default_rng(2).integers(0, 256, size=(3, CLIP_LEN, 32, 32, 3),
                                              dtype=np.uint8)
    patches = np.asarray(clips, dtype=np.float64) / 127.5 - 1.0
    patches = np.moveaxis(patches.reshape(3, CLIP_LEN, 2, PATCH, 2, PATCH, 3), 3, 4)
    patches = patches.reshape(3, CLIP_LEN // TUBELET, TUBELET, 4, -1)
    expected = np.moveaxis(patches, 2, 3).reshape(3, model.hyper.tokens_per_clip, -1)
    assert model._tubelets(clips).tobytes() == expected.tobytes()


def random_actions(n, rng):
    actions = rng.uniform(-sim.A_MAX, sim.A_MAX, size=(n, 6))
    actions[:, [2, 5]] = rng.uniform(0.0, 1.0, size=(n, 2))
    return actions


@pytest.mark.parametrize("n_actions, n_windows", [(39, 1), (100, 3)])
def test_replay_windows_equal_the_clips_of_the_full_replay(n_actions, n_windows):
    """The replay renders only the frames its clips read; its windows are
    those of the fully rendered replay, front padding included."""
    rng = np.random.default_rng(n_actions)
    scene = sim.sample_scene(rng)
    actions = random_actions(n_actions, rng)
    full = clip_windows(sim.replay(sim.canonical_scene(scene), actions, 32))
    windows = _replay_windows(scene, actions, 32)
    assert len(windows) == n_windows
    assert windows.shape == full.shape
    assert windows.tobytes() == full.tobytes()


@pytest.mark.parametrize("label, a, b", [
    ("positive", (0, 4), (1, 4)),      # different episodes
    ("positive", (0, 4), (0, 8)),      # different starts
    ("neg_shift", (0, 4), (1, 8)),     # different episodes
    ("neg_shift", (0, 4), (0, 4)),     # same start
    ("neg_cross", (0, 4), (0, 4)),     # same episode
    ("neg_cross", (0, 4), (1, 8)),     # different starts
    ("unknown", (0, 4), (0, 4)),
])
def test_clip_pair_rejects_broken_invariants(label, a, b):
    with pytest.raises(ValueError):
        ClipPair(a[0], a[1], b[0], b[1], label)


def test_clip_pair_accepts_each_valid_label():
    pairs = [ClipPair(0, 4, 0, 4, "positive"), ClipPair(0, 4, 0, 8, "neg_shift"),
             ClipPair(0, 4, 1, 4, "neg_cross")]
    assert [p.label for p in pairs] == list(LABELS)
    assert [p.y for p in pairs] == [1.0, 0.0, 0.0]


@settings(max_examples=50, deadline=None)
@given(n_ep=st.integers(2, 12), val_fraction=st.floats(0.05, 0.95),
       seed=st.integers(0, 2**32 - 1))
def test_split_by_episode_keeps_episodes_apart(n_ep, val_fraction, seed):
    starts = [0, 4, 8]
    pairs = [ClipPair(i, s, i, s, "positive") for i in range(n_ep) for s in starts]
    pairs += [ClipPair(i, s, (i + 1) % n_ep, s, "neg_cross")
              for i in range(n_ep) for s in starts]
    pair_set = PairSet(pairs, [None] * n_ep, [None] * n_ep)
    train, val = _split_by_episode(pair_set, val_fraction, np.random.default_rng(seed))
    train_eps = {e for p in train for e in (p.episode_a, p.episode_b)}
    val_eps = {e for p in val for e in (p.episode_a, p.episode_b)}
    assert not train_eps & val_eps
    assert val


def random_sample(t, seed):
    """A sample with a random video and random pseudo-actions."""
    rng = np.random.default_rng(seed)
    scene = sim.sample_scene(rng)
    actions = random_actions(t - 1, rng)
    return NeuralSample(
        sample_id=0, video=rng.integers(0, 256, size=(t, 32, 32, 3), dtype=np.uint8),
        instruction=sim.Instruction("pick_place", "circle", 1, "plate", "left"),
        scene=scene, gt_corruption=CorruptionSpec("none"), seed=seed,
        idm_actions=actions)


@settings(max_examples=10, deadline=None)
@given(t=st.integers(2, 70), seed=st.integers(0, 1000),
       gain=st.sampled_from([1.0, 1e3, 1e6]))
def test_score_sample_is_a_probability(t, seed, gain):
    sample = random_sample(t, seed)
    encoder = EncoderModel(TINY_ENCODER, seed=seed)
    probe = ProbeModel(TINY_PROBE, seed=seed)
    probe.head.w.data *= gain        # push the logits toward saturation
    score = score_sample(sample, encoder, probe)
    assert 0.0 <= score <= 1.0


def test_score_sample_ignores_hidden_fields():
    sample = random_sample(40, seed=3)
    encoder = EncoderModel(TINY_ENCODER, seed=3)
    probe = ProbeModel(TINY_PROBE, seed=3)
    score = score_sample(sample, encoder, probe)
    hidden = np.random.default_rng(4).uniform(-1.0, 1.0, size=(39, 6))
    swapped = dataclasses.replace(
        sample, gt_corruption=CorruptionSpec("wrong_task", 0.9, seed=99),
        hidden_actions=hidden, seed=12345, sample_id=7)
    assert score_sample(swapped, encoder, probe) == score
    # the score does read the pseudo-actions, so the check above can fail
    relabeled = dataclasses.replace(sample, idm_actions=sample.idm_actions[::-1].copy())
    assert score_sample(relabeled, encoder, probe) != score


def test_score_sample_rejects_an_unlabelled_sample():
    sample = dataclasses.replace(random_sample(40, seed=3), idm_actions=None)
    with pytest.raises(ValueError, match="no pseudo-actions"):
        score_sample(sample, EncoderModel(TINY_ENCODER, seed=3), ProbeModel(TINY_PROBE, seed=3))


def random_pair_set(n_ep, n_win, seed):
    """Random 32px clips on both sides; every window has a positive, a
    time-shifted and a cross-episode pair."""
    rng = np.random.default_rng(seed)
    real, replay = (
        [rng.integers(0, 256, size=(n_win, CLIP_LEN, 32, 32, 3), dtype=np.uint8)
         for _ in range(n_ep)] for _ in range(2))
    pairs = [ClipPair(i, t, j, s, label) for i in range(n_ep) for t in range(n_win)
             for j, s, label in ((i, t, "positive"), (i, (t + 1) % n_win, "neg_shift"),
                                 ((i + 1) % n_ep, t, "neg_cross"))]
    return PairSet(pairs, real, replay)


def test_score_sample_and_train_probe_leave_no_thread():
    before = threading.active_count()
    sample = random_sample(70, seed=5)
    encoder = EncoderModel(TINY_ENCODER, seed=5)
    score_sample(sample, encoder, ProbeModel(TINY_PROBE, seed=5))
    assert threading.active_count() == before

    encoder.frozen = True
    train_probe(random_pair_set(5, 2, seed=5), encoder, ProbeTrainConfig(max_epochs=2))
    assert threading.active_count() == before


def frozen_encoder(hyper=TINY_ENCODER, seed=5):
    encoder = EncoderModel(hyper, seed=seed)
    encoder.frozen = True
    return encoder


def test_build_pairs_needs_two_episodes():
    with pytest.raises(ValueError, match="at least two episodes"):
        build_pairs(dataset.collect_demos(1, seed=0))


def test_probe_forward_rejects_token_sets_that_are_not_3d():
    model = ProbeModel(TINY_PROBE, seed=0)
    tokens = np.zeros((4, TINY_PROBE.dim))
    with pytest.raises(ValueError, match=r"token sets must be \(B, M, 8\)"):
        model.forward(tokens, tokens)


def test_train_probe_rejects_an_unfrozen_encoder():
    with pytest.raises(ValueError, match="frozen"):
        train_probe(random_pair_set(5, 2, seed=5), EncoderModel(TINY_ENCODER, seed=5))


@pytest.mark.parametrize("kept", [{"positive"}, {"neg_shift", "neg_cross"}])
def test_train_probe_rejects_a_one_class_pair_set(kept):
    pair_set = random_pair_set(5, 2, seed=5)
    one_class = PairSet([p for p in pair_set.pairs if p.label in kept], pair_set.real,
                        pair_set.sim)
    with pytest.raises(ValueError, match="both classes"):
        train_probe(one_class, frozen_encoder())


@pytest.mark.parametrize("hyper, heads", [
    (TINY_ENCODER, 8), (EncoderHyper(dim=12, heads=3, blocks=1, resolution=32), 4)])
def test_train_probe_takes_the_heads_that_divide_the_encoder_dim(hyper, heads):
    """gcd(dim, 8) heads: 8 for the dims in use (64, 16, 8), so their bits
    stay, and 4 for a 12-dim encoder, which no 8-head probe fits."""
    probe, _ = train_probe(random_pair_set(5, 2, seed=5), frozen_encoder(hyper),
                           ProbeTrainConfig(max_epochs=1))
    assert probe.hyper == ProbeHyper(dim=hyper.dim, heads=heads)


def test_train_probe_runs_every_epoch_and_returns_the_best():
    """No early stop: one validation BCE per epoch. The returned weights are
    those of `report.best_epoch`, here an epoch inside the run, and the
    accuracy is read from that epoch's validation logits."""
    pair_set = random_pair_set(6, 3, seed=5)
    encoder = frozen_encoder()
    config = ProbeTrainConfig(lr=3e-2, batch_pairs=4, max_epochs=8)
    probe, report = train_probe(pair_set, encoder, config)
    assert len(report.train_bce) == len(report.val_bce) == 8
    assert 0 < report.best_epoch < 7
    assert report.val_bce[report.best_epoch] == min(report.val_bce)

    _, val = _split_by_episode(pair_set, VAL_FRACTION, rng_for(config.seed, "probe-train"))
    z1, z2, y = _batch(_encode_windows(pair_set, encoder), val)
    with no_grad():
        logits = probe.forward(z1, z2).readout()
    assert _bce_tensor(Tensor(logits), y).item() == report.val_bce[report.best_epoch]
    assert report.val_accuracy == np.mean((alignment_prob(logits) > 0.5) == (y > 0.5))


def test_encode_windows_equals_one_pass_per_side():
    """The parts encoded side by side come back in (episode, side, window)
    order; more clips than one part holds."""
    pair_set = random_pair_set(9, 4, seed=6)
    encoder = EncoderModel(TINY_ENCODER, seed=6)
    real, replay = _encode_windows(pair_set, encoder)
    for tokens, clips in zip(real + replay, pair_set.real + pair_set.sim):
        assert tokens.tobytes() == encoder.encode_np(clips).tobytes()


# -- non-finite values injected mid-graph ------------------------------------------

NAN_ENCODER = EncoderHyper(dim=8, heads=2, blocks=2, resolution=32)
# One Euler step: with more, the next step's input check would catch a NaN
# velocity that the readout let through.
NAN_IDM = idm.IdmHyper(dim=8, heads=2, blocks=2, horizon=4, resolution=32,
                       euler_steps=1, sample_avg=2)
MID_TRUNK = "trunk.blk1.mlp.fc1.w"


def poison(model, name):
    """Overwrite one entry of an existing parameter with NaN, so the value
    enters only through the ops that read the parameter."""
    model.params[name].data[0, 0] = np.nan
    return model


def random_frames(t, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(t, 32, 32, 3), dtype=np.uint8)


def test_nan_mid_trunk_raises_in_idm_labeling():
    model = poison(idm.IdmModel(NAN_IDM, seed=1), MID_TRUNK)
    with pytest.raises(FloatingPointError):
        idm.label_video(random_frames(9), model)


@pytest.mark.parametrize("poisoned", [MID_TRUNK, "patch.w"], ids=["trunk", "patch"])
def test_nan_mid_trunk_raises_in_idm_training(poisoned):
    """A poisoned trunk weight fails in the loss; a poisoned patch embedding
    fails in `condition`, inside batch_fn, and must be reported alike."""
    model = poison(idm.IdmModel(NAN_IDM, seed=1), poisoned)
    frames = random_frames(4, seed=2)

    def batch_fn(rng, size):
        chunks = rng.normal(size=(size, NAN_IDM.horizon, idm.ACTION_DIM))
        return chunks, model.condition(frames[:size], frames[size:])

    config = flow.TrainConfig(steps=2, batch_size=2,
                              schedule=LrSchedule(base_lr=1e-3, total_steps=2, stable_steps=1))
    with pytest.raises(RuntimeError, match="non-finite"):
        flow.train_fm(model, batch_fn, config)


def test_nan_raises_runtime_error_in_encoder_pretraining(monkeypatch):
    """Pretraining fails as IDM training does: RuntimeError naming the step."""
    monkeypatch.setattr("trajcurate.encoder.EncoderModel",
                        lambda hyper, seed: poison(EncoderModel(hyper, seed), MID_TRUNK))
    config = EncoderTrainConfig(steps=2, batch_clips=2)
    with pytest.raises(RuntimeError, match="non-finite value at step 0"):
        pretrain_encoder(dataset.collect_demos(2, seed=0), config,
                         dataclasses.replace(NAN_ENCODER, resolution=64))


def test_nan_raises_runtime_error_in_probe_training(monkeypatch):
    monkeypatch.setattr("trajcurate.probe.ProbeModel",
                        lambda hyper, seed: poison(ProbeModel(hyper, seed), "wo.w"))
    encoder = EncoderModel(TINY_ENCODER, seed=5)
    encoder.frozen = True
    with pytest.raises(RuntimeError, match="non-finite value at step 0"):
        train_probe(random_pair_set(5, 2, seed=5), encoder, ProbeTrainConfig(max_epochs=2))


def test_nan_mid_trunk_raises_in_encoder_readout():
    model = poison(EncoderModel(NAN_ENCODER, seed=1), MID_TRUNK)
    with pytest.raises(FloatingPointError):
        model.encode_np(random_frames(2 * CLIP_LEN).reshape(2, CLIP_LEN, 32, 32, 3))


@pytest.mark.parametrize("poisoned", ["encoder", "probe"])
def test_nan_raises_in_probe_scoring(poisoned):
    rng = np.random.default_rng(4)
    t = 40
    actions = random_actions(t - 1, rng)
    sample = NeuralSample(
        sample_id=0, video=random_frames(t, seed=4),
        instruction=sim.Instruction("pick_place", "circle", 1, "plate", "left"),
        scene=sim.sample_scene(rng), gt_corruption=CorruptionSpec("none"),
        seed=4, idm_actions=actions)
    encoder = EncoderModel(NAN_ENCODER, seed=1)
    probe = ProbeModel(TINY_PROBE, seed=1)
    if poisoned == "encoder":
        poison(encoder, MID_TRUNK)
    else:
        poison(probe, "wo.w")
    with pytest.raises(FloatingPointError):
        score_sample(sample, encoder, probe)


# -- whole-model gradients ----------------------------------------------------------


def built_from(leaves, build):
    """The model `build()` makes, with its parameters taken from `leaves`
    instead of drawn, so the loss is a function of them."""
    def take(store, name, shape, *scale):
        assert leaves[name].shape == tuple(shape), name
        store.params[name] = leaves[name]
        return leaves[name]

    with pytest.MonkeyPatch.context() as mp:
        for init in ("gaussian", "constant"):
            mp.setattr(ParamStore, init, take)
        return build()


def check_directional_grads(build, loss_of, seed, n_dirs=3):
    """autodiff_grad against central differences of the loss along random
    directions through every parameter at once: a few loss evaluations per
    direction instead of two per coordinate."""
    rng = np.random.default_rng(seed)
    # Random values, not the init (tiny weights, unit gains), so every
    # parameter moves the loss.
    base = {name: rng.normal(0.0, 0.3, size=arr.shape)
            for name, arr in build().store.arrays().items()}
    for _ in range(n_dirs):
        direction = {name: rng.normal(size=arr.shape) for name, arr in base.items()}

        def loss_along(p):
            leaves = {name: p["s"] * direction[name] + base[name] for name in base}
            return loss_of(built_from(leaves, build))

        at = {"s": np.zeros(())}
        auto = autodiff_grad(loss_along, at)["s"]
        fd = finite_diff_grad(loss_along, at, eps=1e-6)["s"]
        assert abs(auto - fd) <= 1e-5 * (abs(auto) + abs(fd)) + 1e-8, (auto, fd)


def test_encoder_contrastive_loss_grad_matches_finite_differences():
    clips = random_frames(4 * CLIP_LEN, seed=5).reshape(4, CLIP_LEN, 32, 32, 3)
    check_directional_grads(
        lambda: EncoderModel(TINY_ENCODER, seed=0),
        lambda model: nt_xent_loss(model.encode(clips).mean(axis=1), 0.1), seed=6)


def test_probe_bce_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    z1, z2 = rng.normal(size=(2, 3, 5, TINY_PROBE.dim))
    y = np.array([1.0, 0.0, 1.0])
    check_directional_grads(lambda: ProbeModel(TINY_PROBE, seed=0),
                            lambda model: _bce_tensor(model.forward(z1, z2), y), seed=8)


def test_idm_flow_matching_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    frames = random_frames(4, seed=9)
    clean, noise = rng.normal(size=(2, 2, TINY_IDM.horizon, idm.ACTION_DIM))
    t = np.array([0.3, 0.8])
    x_t = flow.interpolate(clean, noise, t)
    check_directional_grads(
        lambda: idm.IdmModel(TINY_IDM, seed=0),
        lambda model: flow.fm_loss(
            model.velocity(x_t, t, model.condition(frames[:2], frames[2:])), clean, noise),
        seed=10)
