"""Transformer building blocks on top of the autodiff substrate.

The video encoder and the inverse dynamics model are small pre-LN patch-token
transformers assembled from these pieces; the motion probe is an attention
pool over encoder tokens, built from the same attention, layer norm and
linear layers. Parameters live in flat name->Tensor dicts so checkpointing and
the functional gradient API stay trivial.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .tensor import Tensor, attention, concat

INIT_SCALE = 0.02


class Hyper:
    """Base of each model's frozen hyperparameter dataclass: every field is a
    positive integer, and `dim` is divisible by `heads`."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{f.name} must be a positive integer, got {value!r}")
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} is not divisible by heads {self.heads}")


class ParamStore:
    """Flat registry of named parameters with seeded Gaussian init."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.params: dict[str, Tensor] = {}

    def gaussian(self, name: str, shape: tuple[int, ...]) -> Tensor:
        t = Tensor(self.rng.normal(0.0, INIT_SCALE, size=shape), requires_grad=True)
        self.params[name] = t
        return t

    def constant(self, name: str, shape: tuple[int, ...], value: float) -> Tensor:
        t = Tensor(np.full(shape, value), requires_grad=True)
        self.params[name] = t
        return t

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}

    def load(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        if missing:
            raise KeyError(f"checkpoint missing parameters: {sorted(missing)}")
        unknown = set(arrays) - set(self.params)
        if unknown:
            raise KeyError(f"checkpoint has unknown parameters: {sorted(unknown)}")
        for name, t in self.params.items():
            if arrays[name].shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            t.data = np.array(arrays[name], dtype=np.float64)


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int):
        self.w = store.gaussian(f"{name}.w", (d_in, d_out))
        self.b = store.constant(f"{name}.b", (d_out,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return x.affine(self.w, self.b)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, dim: int):
        self.gamma = store.constant(f"{name}.g", (dim,), 1.0)
        self.beta = store.constant(f"{name}.b", (dim,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return x.layer_norm() * self.gamma + self.beta


class MultiHeadAttention:
    """Learned-projection attention of the query rows over `kv`, the
    `keys_values` of the rows attended to; projections named `prefix` + q/k/v/o."""

    def __init__(self, store: ParamStore, prefix: str, dim: int, n_heads: int):
        self.n_heads = n_heads
        self.wq = Linear(store, f"{prefix}q", dim, dim)
        self.wk = Linear(store, f"{prefix}k", dim, dim)
        self.wv = Linear(store, f"{prefix}v", dim, dim)
        self.wo = Linear(store, f"{prefix}o", dim, dim)

    def keys_values(self, x: Tensor) -> tuple[Tensor, Tensor]:
        return self.wk(x), self.wv(x)

    def __call__(self, x_q: Tensor, kv: tuple[Tensor, Tensor]) -> Tensor:
        k, v = kv
        return self.wo(attention(self.wq(x_q), k, v, self.n_heads))


class Mlp:
    def __init__(self, store: ParamStore, name: str, dim: int, hidden: int):
        self.fc1 = Linear(store, f"{name}.fc1", dim, hidden)
        self.fc2 = Linear(store, f"{name}.fc2", hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).gelu())


class TransformerBlock:
    """Pre-LN self-attention block with a GELU MLP (ratio 4). A call returns
    the rows and their own (keys, values), which later rows may attend to."""

    def __init__(self, store: ParamStore, name: str, dim: int, n_heads: int):
        self.ln1 = LayerNorm(store, f"{name}.ln1", dim)
        self.attn = MultiHeadAttention(store, f"{name}.attn.", dim, n_heads)
        self.ln2 = LayerNorm(store, f"{name}.ln2", dim)
        self.mlp = Mlp(store, f"{name}.mlp", dim, 4 * dim)

    def __call__(self, x: Tensor, prefix_kv: tuple[Tensor, Tensor] | None = None
                 ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """The rows attend to `prefix_kv`, if given, followed by their own."""
        h = self.ln1(x)
        own = self.attn.keys_values(h)
        kv = own if prefix_kv is None else tuple(
            concat([p, o], axis=-2) for p, o in zip(prefix_kv, own))
        x = x + self.attn(h, kv)
        return x + self.mlp(self.ln2(x)), own


class Trunk:
    """Blocks and a closing layer norm. `self(x, self.prefix(tokens))` equals the
    `x` rows of one pass over `tokens` then `x` under a block-causal mask: the
    prefix tokens attend only among themselves, the rows to both. The prefix
    is the (keys, values) each block returns in a pass over `tokens`."""

    def __init__(self, store: ParamStore, name: str, dim: int, n_heads: int, n_blocks: int):
        if n_blocks < 1:
            raise ValueError(f"a trunk needs at least one block, got {n_blocks}")
        self.blocks = [TransformerBlock(store, f"{name}.blk{i}", dim, n_heads)
                       for i in range(n_blocks)]
        self.ln_out = LayerNorm(store, f"{name}.ln_out", dim)

    def prefix(self, tokens: Tensor) -> list[tuple[Tensor, Tensor]]:
        """One (keys, values) per block; the last block stops once it has them."""
        cache = []
        for block in self.blocks[:-1]:
            tokens, kv = block(tokens)
            cache.append(kv)
        last = self.blocks[-1]
        return cache + [last.attn.keys_values(last.ln1(tokens))]

    def __call__(self, x: Tensor, prefix: list[tuple[Tensor, Tensor]] | None = None) -> Tensor:
        for block, kv in zip(self.blocks, prefix or [None] * len(self.blocks)):
            x = block(x, kv)[0]        # drops the block's own keys and values at once
        return self.ln_out(x)


def time_features(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of a scalar time in [0,1], one row per item."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, np.log(100.0), half))
    ang = t[:, None] * freqs[None, :]
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    if feats.shape[1] < dim:
        feats = np.pad(feats, ((0, 0), (0, dim - feats.shape[1])))
    return feats


def patchify(frames: np.ndarray, patch: int) -> np.ndarray:
    """(..., H, W, 3) uint8 frames -> (..., n_patches, patch*patch*3) in [-1, 1]."""
    return unit_range(patch_grid(frames, patch))


def patch_grid(frames: np.ndarray, patch: int) -> np.ndarray:
    """(..., H, W, 3) -> (..., n_patches, patch*patch*3), the values and
    their dtype unchanged."""
    arr = np.asarray(frames)
    *lead, h, w, c = arr.shape
    gh, gw = h // patch, w // patch
    arr = arr.reshape(*lead, gh, patch, gw, patch, c)
    arr = np.moveaxis(arr, -3, -4)           # (..., gh, gw, patch, patch, c)
    return arr.reshape(*lead, gh * gw, patch * patch * c)


def unit_range(pixels: np.ndarray) -> np.ndarray:
    """Pixel values 0..255 -> float64 in [-1, 1], as one new array. Callers
    rearrange uint8 pixels first, so no float array is copied."""
    arr = np.array(pixels, dtype=np.float64)
    arr /= 127.5
    arr -= 1.0
    return arr
