"""Transformer blocks: gradients, the prefix cache, and the in-place kernels."""

import contextlib
import math

import numpy as np
import pytest
from scipy.special import erf

from trajcurate.nn import ParamStore, TransformerBlock, Trunk, patchify, time_features
from trajcurate.tensor import Tensor, finite_diff_grad, no_grad


def randomized(store, seed, scale):
    """Replace the init values (tiny weights, unit gains) with random ones,
    so every parameter moves the output."""
    rng = np.random.default_rng(seed)
    for t in store.params.values():
        t.data = rng.normal(0.0, scale, size=t.shape)
    return store


def test_trunk_needs_a_block():
    with pytest.raises(ValueError):
        Trunk(ParamStore(np.random.default_rng(0)), "trunk", 4, 2, 0)


def assert_grads_match_finite_differences(store, inputs, run):
    """Autodiff gradients of the scalar `run(p)` against central differences,
    for every array in `inputs` and every parameter in `store`; returns the
    autodiff ones."""
    leaves = {name: Tensor(a, requires_grad=True) for name, a in inputs.items()}
    run(leaves).backward()
    auto = {**{name: t.grad for name, t in leaves.items()},
            **{name: t.grad for name, t in store.params.items()}}

    def loss(p):
        for name, t in store.params.items():
            t.data = p[name].data
        return run(p)

    fd = finite_diff_grad(loss, {**inputs, **store.arrays()}, eps=1e-6)
    for name, g in fd.items():
        assert np.allclose(auto[name], g, rtol=1e-4, atol=1e-8), name
    return auto


@pytest.mark.parametrize("n_prefix", [None, 3])
def test_transformer_block_grad_matches_finite_differences(n_prefix):
    """With a prefix, the gradient reaches its keys and values too. Without
    one, the key bias adds the same amount to every score of a query, which
    softmax ignores: its true gradient is 0, so the check needs an absolute
    floor for the finite-difference noise."""
    store = ParamStore(np.random.default_rng(0))
    block = TransformerBlock(store, "blk", 4, 2)
    randomized(store, seed=3, scale=0.5)
    rng = np.random.default_rng(4)
    inputs = {"x": rng.normal(size=(2, 5, 4))}
    if n_prefix is not None:
        inputs["k"], inputs["v"] = rng.normal(size=(2, 2, n_prefix, 4))
    w = Tensor(rng.normal(size=(2, 5, 4)))
    assert_grads_match_finite_differences(
        store, inputs,
        lambda p: (block(p["x"], None if n_prefix is None else (p["k"], p["v"]))[0] * w).sum())


def test_trunk_prefix_grad_matches_finite_differences():
    """Gradients through `Trunk.prefix` and the rows run against its cache,
    at the tiny test models' width and heads; two blocks, so the prefix
    runs one whole block and stops in the last."""
    store = ParamStore(np.random.default_rng(0))
    trunk = Trunk(store, "trunk", 8, 2, 2)
    randomized(store, seed=5, scale=0.5)
    rng = np.random.default_rng(6)
    inputs = {"tokens": rng.normal(size=(2, 4, 8)), "rows": rng.normal(size=(2, 2, 8))}
    w = Tensor(rng.normal(size=(2, 2, 8)))
    auto = assert_grads_match_finite_differences(
        store, inputs, lambda p: (trunk(p["rows"], trunk.prefix(p["tokens"])) * w).sum())
    assert np.any(auto["tokens"])      # the prefix moves the loss


@pytest.mark.parametrize("grad", [False, True])
def test_trunk_prefix_is_the_blocks_own_keys_values(grad):
    """The prefix cache holds, byte for byte, the (keys, values) each block
    returns in a pass over the same tokens."""
    store = ParamStore(np.random.default_rng(0))
    trunk = Trunk(store, "trunk", 8, 2, 3)
    randomized(store, seed=7, scale=0.5)
    x = tokens = Tensor(np.random.default_rng(8).normal(size=(2, 5, 8)))
    with contextlib.nullcontext() if grad else no_grad():
        cache = trunk.prefix(tokens)
        own = []
        for block in trunk.blocks:
            x, kv = block(x)
            own.append(kv)
    assert len(cache) == len(own) == 3
    for (k, v), (own_k, own_v) in zip(cache, own):
        assert k.requires_grad == grad
        assert k.data.tobytes() == own_k.data.tobytes()
        assert v.data.tobytes() == own_v.data.tobytes()


# The kernels as written before they built their outputs in place; the
# in-place versions must give the same bytes.

def reference_gelu(x):
    return x * (0.5 * (1.0 + erf(x / math.sqrt(2.0))))


def reference_softmax(x, axis):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def reference_layer_norm(x, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * (1.0 / np.sqrt(var + eps))


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 40, 64), (4, 8, 256)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_in_place_kernels_match_reference_bytes(grad, shape, scale):
    x = np.random.default_rng(len(shape) * 100 + int(scale)).normal(0.0, scale, size=shape)
    cases = [("gelu", (), reference_gelu(x)),
             ("layer_norm", (), reference_layer_norm(x))]
    cases += [("softmax", (a,), reference_softmax(x, a)) for a in range(-len(shape), 0)]
    for op, args, expected in cases:
        t = Tensor(x, requires_grad=grad)
        if grad:
            out = getattr(t, op)(*args)
        else:
            with no_grad():
                out = getattr(t, op)(*args)
        assert out.data.tobytes() == expected.tobytes(), (op, args)
        assert x.tobytes() == t.data.tobytes(), f"{op} wrote into its input"


def reference_patchify(frames, patch):
    """Scaled to [-1, 1] first, then cut into patches."""
    arr = np.asarray(frames, dtype=np.float64) / 127.5 - 1.0
    *lead, h, w, c = arr.shape
    arr = arr.reshape(*lead, h // patch, patch, w // patch, patch, c)
    arr = np.moveaxis(arr, -3, -4)
    return arr.reshape(*lead, (h // patch) * (w // patch), patch * patch * c)


@pytest.mark.parametrize("shape, patch", [((2, 32, 32, 3), 16), ((3, 4, 64, 64, 3), 16),
                                          ((1, 16, 16, 3), 8)])
def test_patchify_matches_reference_bytes(shape, patch):
    frames = np.random.default_rng(len(shape)).integers(0, 256, size=shape, dtype=np.uint8)
    out = patchify(frames, patch)
    assert out.flags.c_contiguous
    assert out.tobytes() == reference_patchify(frames, patch).tobytes()


def test_time_features_pad_an_odd_dim_with_a_zero_column():
    t = np.array([0.0, 0.3, 1.0])
    odd, even = time_features(t, 7), time_features(t, 6)
    assert odd.shape == (3, 7)
    assert np.array_equal(odd[:, :6], even)
    assert np.array_equal(odd[:, 6], np.zeros(3))
