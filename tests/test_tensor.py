import gc
import math
import threading
import weakref

import numpy as np
import pytest
from scipy.special import erf

from trajcurate import checkpoint
from trajcurate.tensor import (
    Tensor,
    attention,
    autodiff_grad,
    concat,
    finite_diff_grad,
    no_grad,
)


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-10)
    return np.max(np.abs(a - b) / denom)


def test_grad_of_square():
    g = autodiff_grad(lambda p: p["x"] * p["x"], {"x": np.array(3.0)})
    assert np.allclose(g["x"], 6.0)


def test_grad_of_constant():
    g = autodiff_grad(lambda p: (p["x"] * 0.0).sum() + 5.0, {"x": np.ones(4)})
    assert np.allclose(g["x"], 0.0)


def test_non_scalar_loss_rejected():
    with pytest.raises(ValueError):
        autodiff_grad(lambda p: p["x"] * 2.0, {"x": np.ones(3)})


def test_finite_diff_square():
    g = finite_diff_grad(lambda p: p["x"] * p["x"], {"x": np.array(3.0)}, eps=1e-5)
    assert abs(g["x"] - 6.0) < 1e-8


def test_finite_diff_abs_at_zero_is_zero():
    def loss(p):
        x = p["x"]
        return ((x * x) ** 0.5).sum()

    g = finite_diff_grad(loss, {"x": np.array([0.0])}, eps=1e-5)
    assert abs(g["x"][0]) < 1e-8


def test_finite_diff_requires_positive_eps():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda p: p["x"].sum(), {"x": np.ones(2)}, eps=0.0)


def mlp_bce_loss(p, x, y):
    h = (x @ p["w1"] + p["b1"]).gelu()
    logit = (h @ p["w2"] + p["b2"]).sum()
    prob = logit.sigmoid().clip(1e-12, 1.0 - 1e-12)
    return -(y * prob.log() + (1.0 - y) * (1.0 - prob).log())


def test_mlp_bce_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    params = {
        "w1": rng.normal(size=(5, 7)) * 0.5,
        "b1": rng.normal(size=(7,)) * 0.1,
        "w2": rng.normal(size=(7, 1)) * 0.5,
        "b2": rng.normal(size=(1,)) * 0.1,
    }
    x = rng.normal(size=(1, 5))
    loss = lambda p: mlp_bce_loss(p, Tensor(x), 1.0)
    auto = autodiff_grad(loss, params)
    fd = finite_diff_grad(loss, params, eps=1e-5)
    for name in params:
        assert rel_err(auto[name], fd[name]) < 1e-4, name


@pytest.mark.parametrize("op", ["softmax", "log_softmax", "layer_norm", "gelu", "sigmoid"])
def test_unary_op_grads_match_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 1))

    def loss(p):
        y = getattr(p["x"], op)()
        return ((y @ Tensor(w)) * (y @ Tensor(w))).sum()

    auto = autodiff_grad(loss, {"x": x})
    fd = finite_diff_grad(loss, {"x": x}, eps=1e-6)
    assert rel_err(auto["x"], fd["x"]) < 1e-4


def test_pow_takes_only_a_scalar_exponent():
    x = Tensor(np.ones(2))
    with pytest.raises(TypeError, match="scalar exponents"):
        x ** Tensor(np.array(2.0))


@pytest.mark.parametrize("a_shape, b_shape", [((3,), (3, 2)), ((2, 3), (3,))])
@pytest.mark.parametrize("op", ["matmul", "affine"])
def test_matmul_and_affine_reject_a_1d_operand(op, a_shape, b_shape):
    a, b = Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape))
    with pytest.raises(ValueError, match="ndim >= 2"):
        a @ b if op == "matmul" else a.affine(b, Tensor(np.zeros(2)))


@pytest.mark.parametrize("op", [
    pytest.param(lambda p: p["a"] @ p["b"], id="matmul"),
    pytest.param(lambda p: p["a"].affine(p["b"], p["c"]), id="affine")])
def test_matmul_broadcast_grad(op):
    """`b` and the bias `c` broadcast over the leading axis of `a`; matmul
    ignores `c`, so both gradients of `c` are zero there."""
    rng = np.random.default_rng(3)
    params = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4, 5)),
              "c": rng.normal(size=5)}

    def loss(p):
        return (op(p) ** 2.0).sum()

    auto = autodiff_grad(loss, params)
    fd = finite_diff_grad(loss, params, eps=1e-6)
    for name in params:
        assert rel_err(auto[name], fd[name]) < 1e-4, name


def test_affine_has_the_bits_of_matmul_then_add():
    """`x.affine(w, b)` is `(x @ w) + b` in one op, at a linear layer's
    shapes: the same output bytes with and without a graph, and the same
    gradients of x, w and b for an upstream gradient `g` through `* g`."""
    rng = np.random.default_rng(14)
    arrays = [rng.normal(size=s) for s in ((5, 40, 64), (64, 256), (256,))]
    g = Tensor(rng.normal(size=(5, 40, 256)))

    def run(op):
        x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        with no_grad():
            plain = op(x, w, b)
        out = op(x, w, b)
        (out * g).sum().backward()
        return {"plain": plain.data, "graph": out.data,
                "x": x.grad, "w": w.grad, "b": b.grad}

    fused = run(lambda x, w, b: x.affine(w, b))
    pair = run(lambda x, w, b: (x @ w) + b)
    for name in pair:
        assert fused[name].tobytes() == pair[name].tobytes(), name


def test_concat_embedding_getitem_grads():
    """Row 1 is gathered twice and the loss reads both copies, so its
    gradient is the sum of two scattered rows, not the last one written."""
    rng = np.random.default_rng(4)
    table = rng.normal(size=(6, 3))
    x = rng.normal(size=(2, 3))
    idx = np.array([1, 4, 1])

    def loss(p):
        rows = p["table"][idx]
        both = concat([rows, p["x"]], axis=0)
        return (both[:, :2] ** 2.0).sum()

    auto = autodiff_grad(loss, {"table": table, "x": x})
    fd = finite_diff_grad(loss, {"table": table, "x": x}, eps=1e-6)
    assert rel_err(auto["table"], fd["table"]) < 1e-4
    assert rel_err(auto["x"], fd["x"]) < 1e-4


# -- backward against the reference expressions ---------------------------------------


def _gelu_grad(x, out, g):
    phi_cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return g * (phi_cdf + x * pdf)


def _softmax_grad(x, y, g):
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def _layer_norm_grad(x, y, g):
    c = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5)
    n = x.shape[-1]
    return inv * (g - g.mean(axis=-1, keepdims=True) - y * (g * y).sum(axis=-1, keepdims=True) / n)


def _scatter_grad(key, advanced):
    def grad(x, out, g):
        full = np.zeros_like(x)
        if advanced:
            np.add.at(full, key, g)
        else:
            full[key] += g
        return full
    return grad


def _sum_grad(x, out, g):
    return np.broadcast_to(np.expand_dims(g, 1), x.shape).copy()


ROWS = np.array([2, 0, 2, 3, 0])      # repeated rows must add up
BACKWARD_REFERENCES = {
    "gelu": (lambda x: x.gelu(), _gelu_grad),
    "softmax": (lambda x: x.softmax(axis=-1), _softmax_grad),
    "layer_norm": (lambda x: x.layer_norm(), _layer_norm_grad),
    "getitem_basic": (lambda x: x[1:3, ::2], _scatter_grad((slice(1, 3), slice(None, None, 2)),
                                                           False)),
    "getitem_advanced": (lambda x: x[ROWS], _scatter_grad(ROWS, True)),
    "sum": (lambda x: x.sum(axis=1), _sum_grad),
}


@pytest.mark.parametrize("shape", [(4, 6), (5, 40, 64)])
@pytest.mark.parametrize("name", sorted(BACKWARD_REFERENCES))
def test_backward_equals_reference_expression(name, shape):
    """Each op's input gradient has the bits of the plain expression, for an
    upstream gradient `g` that reaches the op unchanged through `* g`."""
    op, reference = BACKWARD_REFERENCES[name]
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    out = op(x)
    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    expected = reference(x.data, out.data, g)
    assert x.grad.tobytes() == expected.tobytes()


def test_overlapping_slices_add_their_gradients():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    ga, gb = rng.normal(size=(2, 3, 3))
    ((x[0:3] * Tensor(ga)).sum() + (x[2:5] * Tensor(gb)).sum()).backward()
    expected = np.zeros((5, 3))
    expected[0:3] += ga
    expected[2:5] += gb
    assert x.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_first_gradient_takes_the_parameters_layout(order):
    """`p` gets its first gradient as a transposed view; `p.grad` is still
    laid out like `p.data`, since a gradient with other strides makes later
    reductions sum in another order."""
    rng = np.random.default_rng(13)
    p = Tensor(np.asarray(rng.normal(size=(3, 5)), order=order), requires_grad=True)
    g = rng.normal(size=(5, 3))
    (p.swapaxes(0, 1) * Tensor(g)).sum().backward()
    assert p.grad.strides == p.data.strides
    assert np.array_equal(p.grad, g.T)


def test_nan_rejected():
    with pytest.raises(FloatingPointError):
        Tensor(np.array([1.0, np.nan]))


def test_op_result_with_nan_raises_while_building_a_graph():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        x ** 0.5


def test_no_grad_op_result_is_checked_at_readout():
    x = Tensor(np.array([-1.0, 2.0]))
    with no_grad():
        with pytest.raises(FloatingPointError):
            Tensor(np.array([np.nan]))           # outside data: checked at once
        with np.errstate(invalid="ignore"):
            out = x ** 0.5                       # an op: checked at readout
        with pytest.raises(FloatingPointError):
            out.readout()
    assert (x * 2.0).readout().tolist() == [-2.0, 4.0]


def test_no_grad_skips_graph():
    with no_grad():
        t = Tensor([1.0], requires_grad=True)
        out = t * 2.0
    assert not out.requires_grad


def joins_graph() -> bool:
    return (Tensor([1.0], requires_grad=True) * 2.0).requires_grad


def test_grad_mode_is_per_thread():
    """Thread a enters `no_grad` before thread b and leaves it first, while b
    is still inside: the order that would switch one shared mode back on
    inside b and leave it off for good once b leaves. Each thread sees only
    its own mode, and the main thread still builds graphs afterwards."""
    both_inside = threading.Barrier(2, timeout=10)
    a_inside, a_left = threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        with no_grad():
            a_inside.set()
            both_inside.wait()
            seen["a inside"] = joins_graph()
        seen["a after"] = joins_graph()
        a_left.set()

    def thread_b():
        if not a_inside.wait(10):
            return
        with no_grad():
            both_inside.wait()
            if not a_left.wait(10):
                return
            seen["b inside, a left"] = joins_graph()
        seen["b after"] = joins_graph()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
        assert not t.is_alive()
    assert seen == {"a inside": False, "a after": True,
                    "b inside, a left": False, "b after": True}
    assert joins_graph()


# Ops whose results are new arrays, not views of the input's data.
FRESH_OPS = [pytest.param(op, id=name) for name, op in {
    "mul": lambda x: x * 2.0,
    "add": lambda x: x + x,
    "sigmoid": lambda x: x.sigmoid(),
    "gelu": lambda x: x.gelu(),
    "softmax": lambda x: x.softmax(axis=-1),
    "layer_norm": lambda x: x.layer_norm(),
    "matmul": lambda x: x @ Tensor(np.ones((3, 2))),
    "affine": lambda x: x.affine(Tensor(np.ones((3, 2))), Tensor(np.ones(2))),
    "sum": lambda x: x.sum(axis=0),
    "concat": lambda x: concat([x, x], axis=0),
}.items()]


def input_kept_alive(op, requires_grad):
    """Whether `op`'s result keeps its input's data alive."""
    arr = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    x = Tensor(arr, requires_grad=requires_grad)
    assert x.data is arr
    alive = weakref.ref(arr)
    out = op(x)
    del x, arr
    return out, alive() is not None


@pytest.mark.parametrize("op", FRESH_OPS)
def test_no_grad_result_keeps_no_reference_to_its_inputs(op):
    with no_grad():
        out, kept = input_kept_alive(op, requires_grad=True)
    assert not kept and not out.requires_grad


@pytest.mark.parametrize("op", FRESH_OPS)
def test_result_of_constants_keeps_no_reference_to_its_inputs(op):
    out, kept = input_kept_alive(op, requires_grad=False)
    assert not kept and not out.requires_grad


@pytest.mark.parametrize("op", FRESH_OPS)
def test_graph_result_keeps_its_inputs(op):
    out, kept = input_kept_alive(op, requires_grad=True)
    assert kept and out.requires_grad


@pytest.mark.parametrize("op", FRESH_OPS)
def test_spent_graph_is_freed_without_the_cycle_collector(op):
    """No op result refers to itself through its backward function, so a
    graph is freed as soon as its loss is dropped."""
    x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
    gc.disable()
    try:
        mid = op(x)
        alive = weakref.ref(mid.data)
        loss = mid.sum()
        del mid
        loss.backward()
        del loss
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("op", [
    pytest.param(lambda c: c.log(), id="log"), pytest.param(lambda c: c * 1e308, id="mul"),
    pytest.param(lambda c: c ** 0.5, id="sqrt")])
def test_non_finite_result_of_constants_raises_while_grad_is_enabled(op):
    c = Tensor(np.array([-1.0, 800.0]))
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        op(c)


# -- attention -----------------------------------------------------------------


def test_attention_single_key_returns_value():
    q = np.random.default_rng(0).normal(size=(3, 4))
    k = np.ones((1, 4))
    v = np.arange(4.0).reshape(1, 4)
    out = attention(Tensor(q), Tensor(k), Tensor(v), n_heads=2)
    assert np.allclose(out.data, np.tile(v, (3, 1)))


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(2, 4))
    k = np.tile(rng.normal(size=(1, 4)), (5, 1))
    v = rng.normal(size=(5, 4))
    out = attention(Tensor(q), Tensor(k), Tensor(v), n_heads=1)
    assert np.allclose(out.data, np.tile(v.mean(axis=0), (2, 1)))


def dense_attention_oracle(q, k, v, n_heads):
    """Loop-based multi-head attention, kept independent of the Tensor ops."""
    m, d = q.shape
    dh = d // n_heads
    out = np.zeros((m, d))
    for h in range(n_heads):
        qs = q[:, h * dh:(h + 1) * dh]
        ks = k[:, h * dh:(h + 1) * dh]
        vs = v[:, h * dh:(h + 1) * dh]
        for i in range(m):
            scores = np.array([qs[i] @ ks[j] / np.sqrt(dh) for j in range(len(ks))])
            w = np.exp(scores - scores.max())
            w = w / w.sum()
            out[i, h * dh:(h + 1) * dh] = sum(w[j] * vs[j] for j in range(len(ks)))
    return out


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(2, 4))
    k = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))
    out = attention(Tensor(q), Tensor(k), Tensor(v), n_heads=2)
    assert np.max(np.abs(out.data - dense_attention_oracle(q, k, v, 2))) < 1e-12


def test_attention_output_in_convex_hull_of_values():
    rng = np.random.default_rng(8)
    q = rng.normal(size=(4, 6))
    k = rng.normal(size=(5, 6))
    v = rng.normal(size=(5, 6))
    out = attention(Tensor(q), Tensor(k), Tensor(v), n_heads=1).data
    lo, hi = v.min(axis=0), v.max(axis=0)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_attention_head_divisibility():
    with pytest.raises(ValueError):
        attention(Tensor(np.ones((2, 5))), Tensor(np.ones((2, 5))),
                  Tensor(np.ones((2, 5))), n_heads=2)


def test_attention_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(2, 4))
    k = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))

    def loss(p):
        return (attention(p["q"], p["k"], p["v"], n_heads=2) ** 2.0).sum()

    auto = autodiff_grad(loss, {"q": q, "k": k, "v": v})
    fd = finite_diff_grad(loss, {"q": q, "k": k, "v": v}, eps=1e-6)
    for name in ("q", "k", "v"):
        assert rel_err(auto[name], fd[name]) < 1e-4


# -- checkpoints ----------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    params = {"a.w": rng.normal(size=(3, 4)), "z": rng.normal(size=(2,))}
    path = tmp_path / "model.tckp"
    checkpoint.save_checkpoint(path, params, meta={"frozen": 1.0, "dim": 4})
    loaded, meta = checkpoint.load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])
    assert meta == {"frozen": 1.0, "dim": 4.0}


def test_checkpoint_deterministic_bytes(tmp_path):
    params = {"b": np.ones((2, 2)), "a": np.zeros(3)}
    p1, p2 = tmp_path / "x1.tckp", tmp_path / "x2.tckp"
    checkpoint.save_checkpoint(p1, params)
    checkpoint.save_checkpoint(p2, dict(reversed(list(params.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "model.tckp"
    checkpoint.save_checkpoint(path, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.tckp"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_checkpoint(path)
