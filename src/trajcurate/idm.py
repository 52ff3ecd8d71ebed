"""Inverse dynamics model: frame pair -> action chunk, via flow matching.

A small patch-token transformer conditions on the two endpoint frames (with a
learned frame-index embedding) and denoises the whole chunk of intermediate
actions. As in pi0's action expert, attention is block-causal: the frame
tokens never read the action rows, so their keys and values are cached once per
batch and each Euler step runs only the action rows. A prediction averages
several seeded denoising runs, integrated as one batch per group of runs, a
group per core. Sliding it over a video in non-overlapping windows
pseudo-labels generated videos with actions; the final partial window
conditions on (frame_t, last frame) and keeps only the rows that exist, so a
T-frame video always receives exactly T-1 action rows. Labels come out of
`sim.clip_actions`: each is the very command that replaying it executes.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import flow, parallel, sim
from .checkpoint import CheckpointError, load_checkpoint, load_model, model_state, save_checkpoint
from .dataset import Episode
from .nn import Hyper, Linear, ParamStore, Trunk, patchify, time_features
from .seeding import derive_seed, rng_for
from .sim import ACTION_DIM
from .tensor import Tensor, concat, no_grad

log = logging.getLogger(__name__)

DEFAULT_HORIZON = 8
LABEL_SEED = 0          # labels are reproducible artifacts
PATCH = 16              # token patch side, in pixels
GEOMETRY = {"patch": PATCH, "block_causal": 1}   # older files lack block_causal


@dataclass(frozen=True)
class IdmHyper(Hyper):
    dim: int = 64
    heads: int = 4
    blocks: int = 3
    horizon: int = DEFAULT_HORIZON
    resolution: int = sim.DEFAULT_RESOLUTION
    euler_steps: int = 8
    sample_avg: int = 4      # denoising runs averaged per prediction


class IdmModel:
    def __init__(self, hyper: IdmHyper = IdmHyper(), seed: int = 0):
        self.hyper = hyper
        store = ParamStore(rng_for(seed, "idm-init"))
        d = hyper.dim
        n_patches = (hyper.resolution // PATCH) ** 2
        patch_dim = PATCH * PATCH * 3
        self.patch_embed = Linear(store, "patch", patch_dim, d)
        self.diff_embed = Linear(store, "diff", patch_dim, d)
        self.frame_embed = store.gaussian("frame_embed", (2, d))
        self.pos_embed = store.gaussian("pos_embed", (n_patches, d))
        self.chunk_in = Linear(store, "chunk_in", ACTION_DIM, d)
        self.row_embed = store.gaussian("row_embed", (hyper.horizon, d))
        self.time_proj = Linear(store, "time", d, d)
        self.trunk = Trunk(store, "trunk", d, hyper.heads, hyper.blocks)
        self.head = Linear(store, "head", d, ACTION_DIM)
        self.store = store
        self.norm_mean = np.zeros(ACTION_DIM)
        self.norm_std = np.ones(ACTION_DIM)

    @property
    def params(self) -> dict[str, Tensor]:
        return self.store.params

    def normalize(self, chunks: np.ndarray) -> np.ndarray:
        return (chunks - self.norm_mean) / self.norm_std

    def denormalize(self, chunks: np.ndarray) -> np.ndarray:
        return chunks * self.norm_std + self.norm_mean

    def frame_tokens(self, frame_a: np.ndarray, frame_b: np.ndarray) -> Tensor:
        """Anchor-frame tokens plus frame-difference tokens; the difference
        carries the motion the chunk must explain."""
        pa = patchify(frame_a, PATCH)                # (B, P, pd)
        pb = patchify(frame_b, PATCH)
        emb_a = (self.patch_embed(Tensor(pa)).layer_norm()
                 + self.pos_embed + self.frame_embed[0:1, :])
        emb_d = (self.diff_embed(Tensor(pb - pa)).layer_norm()
                 + self.pos_embed + self.frame_embed[1:2, :])
        return concat([emb_a, emb_d], axis=1)

    def condition(self, frame_a: np.ndarray, frame_b: np.ndarray) -> list[tuple[Tensor, Tensor]]:
        """`velocity`'s conditioning: the trunk's prefix cache of `frame_tokens`."""
        return self.trunk.prefix(self.frame_tokens(frame_a, frame_b))

    def velocity(self, x_t: np.ndarray, t: np.ndarray, cond: list) -> Tensor:
        """x_t: (B, H, 6) normalized noisy chunk; returns (B, H, 6) velocity.

        `cond` is `condition` of the endpoint frames, built once per batch and
        reused over every Euler step; only the chunk rows run through the
        trunk, with or without a graph."""
        b = x_t.shape[0]
        tfeat = time_features(t, self.hyper.dim)                 # (B, D)
        tvec = self.time_proj(Tensor(tfeat)).reshape(b, 1, self.hyper.dim)
        act = self.chunk_in(Tensor(x_t)) + self.row_embed + tvec
        return self.head(self.trunk(act, cond))

    # -- persistence -----------------------------------------------------------
    def save(self, path) -> None:
        save_checkpoint(path, *model_state(self, {"norm/mean": self.norm_mean,
                                                  "norm/std": self.norm_std}, meta=GEOMETRY))

    @classmethod
    def load(cls, path) -> "IdmModel":
        model, _, norm = load_model(cls, IdmHyper, path, *load_checkpoint(path),
                                    fixed=GEOMETRY, extra=("norm/mean", "norm/std"))
        model.norm_mean, model.norm_std = norm["norm/mean"], norm["norm/std"]
        if model.norm_mean.shape != (ACTION_DIM,) or model.norm_std.shape != (ACTION_DIM,):
            raise CheckpointError(f"{path}: shape mismatch for the action normalization")
        return model


def chunk_index(episodes: list[Episode], horizon: int) -> tuple[list[tuple[int, int]], int]:
    """(episode, start) pairs with a full chunk ahead; counts skipped episodes."""
    index = []
    skipped = 0
    for i, ep in enumerate(episodes):
        t = len(ep.frames)
        if t < horizon + 1:
            skipped += 1
            continue
        index.extend((i, s) for s in range(t - horizon))
    return index, skipped


def train_idm(episodes: list[Episode], config: flow.TrainConfig,
              hyper: IdmHyper = IdmHyper()) -> tuple[IdmModel, list[float]]:
    if not episodes:
        raise ValueError("empty dataset")
    index, skipped = chunk_index(episodes, hyper.horizon)
    if skipped:
        log.warning("train_idm: skipped %d episodes shorter than %d frames",
                    skipped, hyper.horizon + 1)
    if not index:
        raise ValueError("no episode long enough for a chunk")

    model = IdmModel(hyper, seed=config.seed)
    rows = np.concatenate([ep.actions for ep in episodes], axis=0)
    model.norm_mean = rows.mean(axis=0)
    model.norm_std = np.maximum(rows.std(axis=0), 1e-3)

    def batch_fn(rng: np.random.Generator, size: int):
        picks = rng.integers(0, len(index), size=size)
        frames_a, frames_b, chunks = [], [], []
        for p in picks:
            ei, s = index[int(p)]
            ep = episodes[ei]
            frames_a.append(ep.frames[s])
            frames_b.append(ep.frames[s + hyper.horizon])
            chunks.append(ep.actions[s:s + hyper.horizon])
        return (model.normalize(np.stack(chunks)),
                model.condition(np.stack(frames_a), np.stack(frames_b)))

    losses = flow.train_fm(model, batch_fn, config)
    return model, losses


def _predict_batch(model: IdmModel, frames_a: np.ndarray, frames_b: np.ndarray,
                   seed: int) -> np.ndarray:
    """Average sample_avg denoising runs (seeded); the chunk posterior is
    essentially unimodal, so the mean is the minimum-MSE point estimate.
    The conditioning is the same for every run and step, so it is computed
    once, and the runs only read it.

    The runs are split into contiguous groups, one per `parallel.run` call,
    and each group integrates its runs as one batch: their noises stacked
    along the batch axis, the conditioning tiled to match. Each group holds
    at least two runs when there are two, so no velocity call has a single
    row: a one-row `time_proj` product takes another BLAS kernel with other
    bits, and the labels would then depend on the core count. The runs are
    averaged in run order, so the labels depend neither on the grouping nor
    on which thread finished first."""
    hyper = model.hyper
    with no_grad():
        cond = model.condition(frames_a, frames_b)
    shape = (len(frames_a), hyper.horizon, ACTION_DIM)

    def sample_group(runs: range) -> np.ndarray:
        noise = np.concatenate([rng_for(seed, "avg", j).standard_normal(shape) for j in runs])
        with no_grad():        # the grad mode is per thread
            tiled = [tuple(concat([t] * len(runs)) for t in kv) for kv in cond]
            x = flow.euler_sample(lambda x_t, t: model.velocity(x_t, t, tiled).readout(),
                                  noise, hyper.euler_steps)
        return x.reshape(len(runs), *shape)

    n_groups = max(1, min(parallel.cores(), hyper.sample_avg // 2))
    bounds = [hyper.sample_avg * g // n_groups for g in range(n_groups + 1)]
    runs = np.concatenate(parallel.run([functools.partial(sample_group, range(lo, hi))
                                        for lo, hi in zip(bounds, bounds[1:])]))
    return sim.clip_actions(model.denormalize(np.mean(runs, axis=0)))


def label_video(video: np.ndarray, model: IdmModel) -> np.ndarray:
    """Pseudo-label a video: non-overlapping windows at 0, H, 2H, ...; the final
    partial window conditions on (frame_t, last frame) and keeps its first rows."""
    t_total = len(video)
    if t_total < 2:
        raise ValueError("need at least two frames")
    h = model.hyper.horizon
    starts = np.arange(0, t_total - 1, h)
    chunks = _predict_batch(model, video[starts], video[np.minimum(starts + h, t_total - 1)],
                            derive_seed(LABEL_SEED, "label-windows"))
    return chunks.reshape(-1, ACTION_DIM)[:t_total - 1]
