"""Attentive probe for motion consistency between a video and a replay.

The pair dataset comes from verified demonstrations only: each episode's
action sequence is replayed under canonical appearance, and clips are paired
time-aligned (positive), time-shifted within the episode, or crossed with a
different episode's replay (negatives). A learnable query token attends once
over the concatenated token sets of both clips (with a learned segment
embedding marking the side) and a linear head emits the alignment logit.
Training runs every epoch of its config and keeps the weights of the epoch
with the lowest validation BCE.

Scoring a generated sample replays its pseudo-actions from the recorded
initial state, cuts both videos into the same aligned clip windows, and
averages the per-window alignment probabilities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import parallel, sim
from .checkpoint import load_checkpoint, load_model, model_state, save_checkpoint
from .dataset import Episode
from .encoder import STRIDE, EncoderModel, clip_windows, cut_clips
from .nn import Hyper, LayerNorm, Linear, MultiHeadAttention, ParamStore
from .optim import AdamW, train_step
from .seeding import rng_for
from .synthgen import NeuralSample
from .tensor import Tensor, concat, no_grad

LABELS = ("positive", "neg_shift", "neg_cross")
ENCODE_BATCH = 64       # clips per encoder pass over the pair set, at most
VAL_FRACTION = 0.2      # of the episodes, held out for validation


def _replay_windows(scene: sim.SceneSpec, actions: np.ndarray,
                    resolution: int) -> np.ndarray:
    """`clip_windows` of `actions` replayed from the scene's initial state in
    canonical appearance. Every step is simulated, but only every STRIDE-th
    frame, the ones the clips read, is rendered."""
    canonical = sim.canonical_scene(scene)
    states = sim.rollout(canonical, sim.initial_state(scene), actions)
    return cut_clips(np.stack([sim.render(canonical, s, resolution)
                               for s in states[::STRIDE]]))


@dataclass(frozen=True)
class ClipPair:
    episode_a: int
    window_a: int
    episode_b: int
    window_b: int
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        if self.label == "positive":
            ok = self.episode_a == self.episode_b and self.window_a == self.window_b
        elif self.label == "neg_shift":
            ok = self.episode_a == self.episode_b and self.window_a != self.window_b
        else:
            ok = self.episode_a != self.episode_b and self.window_a == self.window_b
        if not ok:
            raise ValueError(f"{self.label} pair violates its construction invariant")

    @property
    def y(self) -> float:
        return 1.0 if self.label == "positive" else 0.0


@dataclass
class PairSet:
    """Pairs plus the `clip_windows` of each episode that they index into.

    Side a is the episode's own recording; side b is the canonical-appearance
    replay of its actions.
    """
    pairs: list[ClipPair]
    real: list[np.ndarray]
    sim: list[np.ndarray]


def build_pairs(episodes: list[Episode], seed: int = 0) -> PairSet:
    """Positives at every window; per positive, one time-shifted and one
    cross-episode negative (uniform over the valid candidates)."""
    if len(episodes) < 2:
        raise ValueError("cross-episode negatives need at least two episodes")
    real = [clip_windows(ep.frames) for ep in episodes]
    replay = [_replay_windows(ep.scene, ep.actions, ep.frames.shape[1]) for ep in episodes]

    rng = rng_for(seed, "pairs")
    pairs: list[ClipPair] = []
    for i, windows in enumerate(real):
        for t in range(len(windows)):
            pairs.append(ClipPair(i, t, i, t, "positive"))
            shift_candidates = [s for s in range(len(windows)) if s != t]
            if shift_candidates:
                t2 = int(rng.choice(shift_candidates))
                pairs.append(ClipPair(i, t, i, t2, "neg_shift"))
            cross_candidates = [j for j in range(len(episodes))
                                if j != i and t < len(real[j])]
            if cross_candidates:
                j = int(rng.choice(cross_candidates))
                pairs.append(ClipPair(i, t, j, t, "neg_cross"))
    return PairSet(pairs, real, replay)


# -- model -------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeHyper(Hyper):
    dim: int = 64
    heads: int = 8


class ProbeModel:
    def __init__(self, hyper: ProbeHyper = ProbeHyper(), seed: int = 0):
        self.hyper = hyper
        store = ParamStore(rng_for(seed, "probe-init"))
        d = hyper.dim
        self.query = store.gaussian("query", (1, d))
        self.segment = store.gaussian("segment", (2, d))
        self.attn = MultiHeadAttention(store, "w", d, hyper.heads)
        self.ln = LayerNorm(store, "ln", d)
        self.head = Linear(store, "head", d, 1)
        self.store = store

    @property
    def params(self) -> dict[str, Tensor]:
        return self.store.params

    def forward(self, z1: np.ndarray, z2: np.ndarray) -> Tensor:
        """(B, M, D) token sets for both clips -> (B,) alignment logits."""
        for z in (z1, z2):
            if z.ndim != 3 or z.shape[-1] != self.hyper.dim:
                raise ValueError(f"token sets must be (B, M, {self.hyper.dim}), got {z.shape}")
        b = z1.shape[0]
        tokens = concat([Tensor(z1) + self.segment[0:1, :],
                         Tensor(z2) + self.segment[1:2, :]], axis=1)
        query = concat([self.query.reshape(1, 1, -1)] * b, axis=0)
        return self.head(self.ln(self.attn(query, self.attn.keys_values(tokens)))).reshape(b)

    def save(self, path) -> None:
        save_checkpoint(path, *model_state(self))

    @classmethod
    def load(cls, path) -> "ProbeModel":
        return load_model(cls, ProbeHyper, path, *load_checkpoint(path))[0]


def alignment_prob(logits: np.ndarray) -> np.ndarray:
    return Tensor(logits).sigmoid().data


def _bce_tensor(logits: Tensor, y: np.ndarray) -> Tensor:
    p = logits.sigmoid().clip(1e-12, 1.0 - 1e-12)
    yt = Tensor(y)
    return -(yt * p.log() + (1.0 - yt) * (1.0 - p).log()).mean()


# -- training ------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeTrainConfig:
    lr: float = 1e-4
    batch_pairs: int = 32
    max_epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1 or self.batch_pairs < 1:
            raise ValueError(f"need max_epochs >= 1 and batch_pairs >= 1, got {self}")


@dataclass
class ProbeTrainReport:
    train_bce: list[float] = field(default_factory=list)
    val_bce: list[float] = field(default_factory=list)
    best_epoch: int = 0
    val_accuracy: float = 0.0


def _encode_windows(pair_set: PairSet, encoder: EncoderModel
                    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Tokens of every real and sim window, per episode. They are encoded once,
    in (episode, real then sim, window) order, as contiguous parts of at most
    ENCODE_BATCH clips, at least one per core, that `parallel.run` encodes
    side by side. A clip's tokens do not depend on the other clips of its
    batch, so the split does not change them."""
    sides = [w for real, replay in zip(pair_set.real, pair_set.sim) for w in (real, replay)]
    clips = np.concatenate(sides)
    n_parts = min(len(clips), max(parallel.cores(), -(-len(clips) // ENCODE_BATCH)))
    tokens = np.concatenate(parallel.run([functools.partial(encoder.encode_np, part)
                                          for part in np.array_split(clips, n_parts)]))
    per_side = np.split(tokens, np.cumsum([len(w) for w in sides])[:-1])
    return per_side[0::2], per_side[1::2]


def _batch(tokens: tuple[list[np.ndarray], list[np.ndarray]], pairs: list[ClipPair]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    real, replay = tokens
    z1 = np.stack([real[p.episode_a][p.window_a] for p in pairs])
    z2 = np.stack([replay[p.episode_b][p.window_b] for p in pairs])
    y = np.array([p.y for p in pairs])
    return z1, z2, y


def _split_by_episode(pair_set: PairSet, val_fraction: float,
                      rng: np.random.Generator) -> tuple[list[ClipPair], list[ClipPair]]:
    n_ep = len(pair_set.real)
    order = rng.permutation(n_ep)
    n_val = max(1, int(round(val_fraction * n_ep)))
    val_eps = set(int(i) for i in order[:n_val])
    train, val = [], []
    for p in pair_set.pairs:
        a_val, b_val = p.episode_a in val_eps, p.episode_b in val_eps
        if not a_val and not b_val:
            train.append(p)
        elif a_val and b_val:
            val.append(p)
        # pairs straddling the split are dropped
    return train, val


def train_probe(pair_set: PairSet, encoder: EncoderModel,
                config: ProbeTrainConfig = ProbeTrainConfig()) -> tuple[ProbeModel, ProbeTrainReport]:
    """`max_epochs` epochs of AdamW on BCE over cached encodings; returns the
    weights of `report.best_epoch`. The heads are gcd(dim, ProbeHyper.heads)."""
    if not encoder.frozen:
        raise ValueError("encoder must be frozen before probe training")
    if len({p.y for p in pair_set.pairs}) < 2:
        raise ValueError("pair set must contain both classes")

    rng = rng_for(config.seed, "probe-train")
    tokens = _encode_windows(pair_set, encoder)
    train_pairs, val_pairs = _split_by_episode(pair_set, VAL_FRACTION, rng)
    if not train_pairs or not val_pairs:
        raise ValueError("episode split left an empty train or validation set")

    d = encoder.hyper.dim
    probe = ProbeModel(ProbeHyper(dim=d, heads=math.gcd(d, ProbeHyper.heads)), seed=config.seed)
    opt = AdamW()
    report = ProbeTrainReport()

    z1v, z2v, yv = _batch(tokens, val_pairs)
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_pairs))
        epoch_losses = []
        for lo in range(0, len(order), config.batch_pairs):
            batch = [train_pairs[i] for i in order[lo:lo + config.batch_pairs]]
            z1, z2, y = _batch(tokens, batch)
            epoch_losses.append(train_step(
                probe.params, lambda: _bce_tensor(probe.forward(z1, z2), y),
                opt, config.lr))
        report.train_bce.append(float(np.mean(epoch_losses)))
        with no_grad():
            val_logits = probe.forward(z1v, z2v).readout()
        report.val_bce.append(_bce_tensor(Tensor(val_logits), yv).item())
        if epoch == 0 or report.val_bce[-1] < report.val_bce[report.best_epoch] - 1e-6:
            report.best_epoch = epoch
            best_arrays = {k: v.copy() for k, v in probe.store.arrays().items()}
            best_logits = val_logits
    probe.store.load(best_arrays)
    report.val_accuracy = float(np.mean((alignment_prob(best_logits) > 0.5) == (yv > 0.5)))
    return probe, report


# -- sample scoring --------------------------------------------------------------------


def score_sample(sample: NeuralSample, encoder: EncoderModel,
                 probe: ProbeModel) -> float:
    """Mean alignment probability over aligned clip windows of the generated
    video and the canonical replay of its pseudo-actions. The two sides are
    encoded side by side by `parallel.run`."""
    if sample.idm_actions is None:
        raise ValueError("sample has no pseudo-actions to verify")
    z1, z2 = parallel.run([
        lambda: encoder.encode_np(clip_windows(sample.video)),
        lambda: encoder.encode_np(_replay_windows(sample.scene, sample.idm_actions,
                                                  sample.video.shape[1]))])
    with no_grad():
        logits = probe.forward(z1, z2).readout()
    return float(alignment_prob(logits).mean())
