"""Frozen video encoder with a motion-focused contrastive pretext.

Clips are 16 consecutive frames of the stride-4 subsampled video (so a clip
spans 61 original frames), tokenized as 2-frame tubelets over a 16px patch
grid. Pretraining is restyle-contrastive: the two views of a clip are exact
palette recolorings of the same pixels, so agreement can only come from
geometry and motion, never from appearance. After pretraining the encoder is
frozen and the attentive probe reads its tokens.

Videos shorter than one clip are front-padded by repeating frame 0.

The clip and token geometry (CLIP_LEN, STRIDE, PATCH, TUBELET) is fixed by
this module, not by the model's hyperparameters: checkpoints record it in meta
only, and loading one whose meta lacks it or disagrees with it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint, load_model, model_state, save_checkpoint
from .dataset import Episode
from .nn import Hyper, Linear, ParamStore, Trunk, patch_grid, unit_range
from .optim import LrSchedule, train
from .seeding import rng_for
from .sim import DEFAULT_RESOLUTION, GAIN_RANGE
from .synthgen import random_palette_map, remap_frames
from .tensor import Tensor, no_grad

CLIP_LEN = 16        # frames per clip, after stride subsampling
STRIDE = 4           # temporal stride (original frames per effective frame)
GRID_STEP = 4        # clip-start grid step, in effective frames
PATCH = 16           # token patch side, in pixels
TUBELET = 2          # frames per token
GEOMETRY = {"clip_len": CLIP_LEN, "stride": STRIDE, "patch": PATCH, "tubelet": TUBELET}
PRETRAIN_LR = 1e-3
TEMPERATURE = 0.1    # of the contrastive softmax


# -- clip geometry -------------------------------------------------------------------


def clip_windows(video: np.ndarray) -> np.ndarray:
    """(T, H, W, 3) video -> (n, CLIP_LEN, H, W, 3) read-only views: the
    `cut_clips` of every STRIDE-th frame."""
    return cut_clips(video[::STRIDE])


def cut_clips(eff: np.ndarray) -> np.ndarray:
    """Clips of frames already taken at STRIDE: front-padded to one clip by
    repeating frame 0, cut at every GRID_STEP. It is the one place clips are
    cut, so pretraining, pairs and scoring agree; a replay renders only the
    frames it passes here."""
    if len(eff) < CLIP_LEN:
        pad = np.repeat(eff[:1], CLIP_LEN - len(eff), axis=0)
        eff = np.concatenate([pad, eff], axis=0)
    windows = np.lib.stride_tricks.sliding_window_view(eff, CLIP_LEN, axis=0)
    return np.moveaxis(windows[::GRID_STEP], -1, 1)


# -- model ----------------------------------------------------------------------------


@dataclass(frozen=True)
class EncoderHyper(Hyper):
    dim: int = 64
    heads: int = 4
    blocks: int = 2
    resolution: int = DEFAULT_RESOLUTION

    @property
    def tokens_per_clip(self) -> int:
        return (CLIP_LEN // TUBELET) * (self.resolution // PATCH) ** 2


class EncoderModel:
    def __init__(self, hyper: EncoderHyper = EncoderHyper(), seed: int = 0):
        self.hyper = hyper
        store = ParamStore(rng_for(seed, "encoder-init"))
        d = hyper.dim
        self.tube_embed = Linear(store, "tube", PATCH * PATCH * 3 * TUBELET, d)
        self.pos_embed = store.gaussian("pos_embed", (hyper.tokens_per_clip, d))
        self.trunk = Trunk(store, "trunk", d, hyper.heads, hyper.blocks)
        self.store = store
        self.frozen = False

    @property
    def params(self) -> dict[str, Tensor]:
        return self.store.params

    def _tubelets(self, clips: np.ndarray) -> np.ndarray:
        b, t = clips.shape[0], clips.shape[1]
        if t != CLIP_LEN:
            raise ValueError(f"clip length {t} != {CLIP_LEN}")
        patches = patch_grid(clips, PATCH)            # (B, T, P, pd)
        p = patches.shape[2]
        slots = t // TUBELET
        patches = patches.reshape(b, slots, TUBELET, p, -1)
        patches = np.moveaxis(patches, 2, 3)          # (B, slots, P, tubelet, pd)
        return unit_range(patches.reshape(b, slots * p, -1))   # (B, M, tubelet*pd)

    def encode(self, clips: np.ndarray) -> Tensor:
        """(B, CLIP_LEN, H, W, 3) -> token Tensor (B, M, D); gradient-capable."""
        tubes = self._tubelets(np.asarray(clips))
        x = self.tube_embed(Tensor(tubes)).layer_norm() + self.pos_embed
        return self.trunk(x)

    def encode_np(self, clips: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.encode(clips).readout()

    def save(self, path) -> None:
        save_checkpoint(path, *model_state(self, meta={**GEOMETRY, "frozen": float(self.frozen)}))

    @classmethod
    def load(cls, path) -> "EncoderModel":
        model, meta, _ = load_model(cls, EncoderHyper, path, *load_checkpoint(path), fixed=GEOMETRY)
        model.frozen = bool(meta.get("frozen", 0.0))
        return model


# -- contrastive pretraining --------------------------------------------------------------


@dataclass(frozen=True)
class EncoderTrainConfig:
    steps: int = 120     # 0 gives the frozen random-init encoder
    batch_clips: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.batch_clips < 1:
            raise ValueError(f"need steps >= 0 and batch_clips >= 1, got {self}")


def _l2_normalize(x: Tensor) -> Tensor:
    norm = ((x * x).sum(axis=-1, keepdims=True) + 1e-12) ** 0.5
    return x / norm


def nt_xent_loss(embeddings: Tensor, temperature: float) -> Tensor:
    """Normalized-temperature cross entropy over 2B views; view 2k pairs with 2k+1."""
    z = _l2_normalize(embeddings)
    n = z.shape[0]
    sims = (z @ z.swapaxes(0, 1)) * (1.0 / temperature)
    sims = sims + Tensor(np.eye(n) * -1e9)
    partner = np.arange(n) ^ 1
    onehot = np.zeros((n, n))
    onehot[np.arange(n), partner] = 1.0
    return -(sims.log_softmax(axis=-1) * Tensor(onehot)).sum() * (1.0 / n)


def pretrain_encoder(episodes: list[Episode],
                     config: EncoderTrainConfig = EncoderTrainConfig(),
                     hyper: EncoderHyper = EncoderHyper()) -> EncoderModel:
    """Restyle-contrastive pretraining through `optim.train`, step tag
    "enc-step"; the returned encoder is frozen."""
    if len(episodes) < 2:
        raise ValueError("need at least two episodes for in-batch negatives")
    windows = [clip_windows(ep.frames) for ep in episodes]
    inventory = [(i, w) for i, ws in enumerate(windows) for w in range(len(ws))]

    model = EncoderModel(hyper, seed=config.seed)
    schedule = LrSchedule(base_lr=PRETRAIN_LR, total_steps=config.steps,
                          stable_steps=int(config.steps * 0.8))

    def loss_fn(rng: np.random.Generator) -> Tensor:
        picks = rng.integers(0, len(inventory), size=config.batch_clips)
        views = []
        for p in picks:
            ei, w = inventory[int(p)]
            scene = episodes[ei].scene
            for _ in range(2):
                pal = random_palette_map(scene, rng)
                gain = float(rng.uniform(*GAIN_RANGE))
                recolored, _ = remap_frames(windows[ei][w], scene, pal, gain)
                views.append(recolored)
        batch = np.stack(views)                       # (2B, CLIP_LEN, H, W, 3)
        return nt_xent_loss(model.encode(batch).mean(axis=1), TEMPERATURE)

    train(model.params, loss_fn, schedule, config.seed, "enc-step")
    model.frozen = True
    return model
