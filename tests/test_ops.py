"""Worked examples and property checks for the core operations."""

import math

import numpy as np
import pytest

from tdt import (
    ConfigError,
    NumericsError,
    Parameter,
    RngStream,
    ShapeError,
    Tensor,
    UsageError,
)
from tdt import ops
from tdt.tensor import Tape, backward, recording
from helpers import check_param_grads, layer_norm_oracle, mul_const, sum_all


def T(a):
    return Tensor(np.asarray(a, dtype=np.float64))


# -----------------------------------------------------------------------------
# matmul
# -----------------------------------------------------------------------------


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ops.matmul(T(np.eye(2)), T(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_product():
    out = ops.matmul(T([[1.0, 2.0]]), T([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_against_triple_loop_oracle():
    rng = RngStream(17)
    a = rng.normal((5, 7))
    b = rng.normal((7, 3))
    expected = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                expected[i, j] += a[i, k] * b[k, j]
    out = ops.matmul(T(a), T(b))
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        ops.matmul(T(np.ones((2, 3))), T(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        ops.matmul(T(np.ones((2, 2, 3))), T(np.ones((3, 3, 2))))


def test_matmul_batched_matches_per_slice():
    rng = RngStream(23)
    a = rng.normal((4, 3, 5))
    b = rng.normal((4, 5, 2))
    out = ops.matmul(T(a), T(b)).data
    for i in range(4):
        np.testing.assert_allclose(out[i], a[i] @ b[i], atol=1e-14)


# -----------------------------------------------------------------------------
# softmax: the kernel of the attention sublayer's scorers
# -----------------------------------------------------------------------------


def softmax(x):
    """Softmax over the last axis by ``ops._softmax``, which both scorers of
    ``attention_block`` run on their scores."""
    x = np.asarray(x, dtype=np.float64)
    return T(ops._softmax(x, np.empty_like(x)))


def test_softmax_symmetry():
    out = softmax([[0.0, 0.0]])
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_stability_under_large_inputs():
    out = softmax([[1000.0, 1000.0, 1000.0]])
    np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)


def test_softmax_closed_form_ratio():
    out = softmax([[0.0, math.log(3.0)]])
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_property():
    rng = RngStream(5)
    for trial in range(20):
        m = int(rng.randint(1, 8, 1)[0])
        n = int(rng.randint(1, 9, 1)[0])
        x = rng.normal((m, n), std=10.0)
        out = softmax(x).data
        assert out.min() >= 0.0
        np.testing.assert_allclose(out.sum(axis=1), np.ones(m), atol=1e-9)


def test_softmax_rejects_nonfinite_input():
    # an all -inf row cannot even be constructed: finiteness is a precondition
    with pytest.raises(NumericsError):
        Tensor(np.array([[-np.inf, -np.inf]]))


# -----------------------------------------------------------------------------
# layer norm, through residual_ln with a zero residual
# -----------------------------------------------------------------------------


def _ln_params(d):
    return Parameter("g", np.ones(d)), Parameter("b", np.zeros(d))


def layer_norm(x, gain, bias):
    """LN(x) as ``residual_ln(0, x)``: the residual passes through untouched."""
    x = np.asarray(x, dtype=np.float64)
    return ops.residual_ln(T(np.zeros_like(x)), T(x), gain, bias)


def test_layer_norm_constant_row_zeroed_by_eps():
    g, b = _ln_params(4)
    out = layer_norm([[5.0, 5.0, 5.0, 5.0]], g, b)
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)


def test_layer_norm_already_standardized():
    # a row of variance one is divided by sqrt(1 + eps) only
    g, b = _ln_params(2)
    out = layer_norm([[1.0, -1.0]], g, b)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]] / np.sqrt(1.0 + ops.LN_EPS), atol=1e-15)


def test_layer_norm_statistics_random_row():
    rng = RngStream(31)
    x = rng.normal((1, 16), std=3.0)
    g, b = _ln_params(16)
    out = layer_norm(x, g, b).data
    assert abs(out.mean()) <= 1e-12
    assert abs(out.var() - x.var() / (x.var() + ops.LN_EPS)) <= 1e-12


def test_layer_norm_statistics_property_over_widths():
    rng = RngStream(77)
    for d in (4, 8, 16, 32, 64):
        x = rng.normal((5, d), std=2.0)
        g, b = _ln_params(d)
        out = layer_norm(x, g, b).data
        v = x.var(axis=-1)
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-10
        assert np.max(np.abs(out.var(axis=-1) - v / (v + ops.LN_EPS))) <= 1e-12


def test_layer_norm_matches_scalar_oracle():
    rng = RngStream(41)
    x = rng.normal((3, 6))
    gain = rng.normal((6,))
    bias = rng.normal((6,))
    g, b = Parameter("g", gain), Parameter("b", bias)
    out = layer_norm(x, g, b).data
    np.testing.assert_allclose(out, layer_norm_oracle(x, gain, bias, 1e-5), atol=1e-12)


def test_layer_norm_rejects_width_one():
    g, b = _ln_params(1)
    with pytest.raises(ConfigError):
        layer_norm([[3.0]], g, b)


def test_residual_ln_matches_the_unfused_expression_bitwise():
    rng = RngStream(33)
    x, branch = rng.split("x").normal((5, 8)), rng.split("b").normal((5, 8), std=3.0)
    gain, bias = rng.split("g").normal((8,)), rng.split("c").normal((8,))
    xc = branch - branch.sum(axis=-1, keepdims=True) / 8
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / 8 + 1e-5)
    expected = x + ((xc * inv) * gain + bias)
    out = ops.residual_ln(T(x), T(branch), Parameter("g", gain), Parameter("c", bias))
    assert out.data.tobytes() == expected.tobytes()


# -----------------------------------------------------------------------------
# linear / ffn
# -----------------------------------------------------------------------------


def test_linear_identity_weights():
    x = RngStream(2).normal((4, 3))
    w = Parameter("w", np.eye(3))
    b = Parameter("b", np.zeros(3))
    out = ops.linear(T(x), w, b)
    np.testing.assert_array_equal(out.data, x)


def test_linear_hand_example():
    w = Parameter("w", np.array([[2.0], [3.0]]))
    b = Parameter("b", np.array([1.0]))
    out = ops.linear(T([[1.0, 1.0]]), w, b)
    np.testing.assert_array_equal(out.data, [[6.0]])


def test_linear_gradient_matches_finite_differences():
    rng = RngStream(3)
    x = Tensor(rng.normal((4, 3)))
    w = Parameter("w", rng.normal((3, 5)))
    b = Parameter("b", rng.normal((5,)))

    def loss_fn(tape=False):
        out = sum_all(ops.linear(x, w, b))
        return out if tape else out.item()

    check_param_grads(loss_fn, [w, b])


def _ffn_params(rng, d, hidden, zero=False):
    def arr(shape, tag):
        return np.zeros(shape) if zero else rng.split(tag).normal(shape, std=0.5)

    return dict(
        w1=Parameter("w1", arr((d, hidden), "w1")),
        b1=Parameter("b1", np.zeros(hidden)),
        w2=Parameter("w2", arr((hidden, d), "w2")),
        b2=Parameter("b2", np.zeros(d)),
        ln_gain=Parameter("g", np.ones(d)),
        ln_bias=Parameter("b", np.zeros(d)),
    )


def test_ffn_block_zero_weights_is_identity():
    rng = RngStream(8)
    x = rng.normal((5, 6))
    p = _ffn_params(rng, 6, 24, zero=True)
    out = ops.ffn_block(T(x), **p)
    np.testing.assert_array_equal(out.data, x)


def test_ffn_block_single_position_scalar_oracle():
    # 2 -> 4 -> 2 chain, evaluated by scalar arithmetic.
    rng = RngStream(12)
    x = rng.normal((1, 2))
    p = _ffn_params(rng, 2, 4)

    def gelu_scalar(v):
        return 0.5 * v * (1 + math.tanh(math.sqrt(2 / math.pi) * (v + 0.044715 * v**3)))

    h = [
        gelu_scalar(sum(x[0][i] * p["w1"].value.data[i][j] for i in range(2)))
        for j in range(4)
    ]
    branch = [sum(h[j] * p["w2"].value.data[j][k] for j in range(4)) for k in range(2)]
    mu = sum(branch) / 2
    var = sum((v - mu) ** 2 for v in branch) / 2
    normed = [(v - mu) / math.sqrt(var + 1e-5) for v in branch]
    expected = [x[0][k] + normed[k] for k in range(2)]
    out = ops.ffn_block(T(x), **p)
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


_GELU_C = math.sqrt(2.0 / math.pi)


def _ffn_oracle(x, p, g_out, eps=1e-5):
    """Plain numpy x + LN(W2 gelu(W1 x + b1) + b2) and its backward for the
    upstream gradient ``g_out``, written out in the unfused ops' operation
    order (linear, gelu, linear, residual layer norm, then back), with no
    library op. Returns the output and the gradients of x, w1, b1, w2, b2,
    gain and bias."""
    w1, b1, w2, b2, gain, bias = (p[k].value.data for k in
                                  ("w1", "b1", "w2", "b2", "ln_gain", "ln_bias"))
    d = x.shape[-1]
    flat = x.reshape(-1, d)
    h = flat @ w1 + b1
    t = np.tanh(((h * h) * 0.044715 * h + h) * _GELU_C)
    act = (h * 0.5) * (t + 1.0)
    z = (act @ w2 + b2).reshape(x.shape)
    mu = z.sum(axis=-1, keepdims=True) / d
    xhat = z - mu
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xhat * inv
    out = xhat * gain + bias + x
    # layer norm backward
    gg = g_out * gain
    g_bias = g_out.reshape(-1, d).sum(axis=0)
    g_gain = (g_out * xhat).reshape(-1, d).sum(axis=0)
    mean_gg = gg.mean(axis=-1, keepdims=True)
    mean_ggx = (gg * xhat).mean(axis=-1, keepdims=True)
    gz = (inv * (gg - mean_gg - xhat * mean_ggx)).reshape(-1, d)
    # second linear, then gelu, then the first linear
    g_act = gz @ w2.T
    g_w2, g_b2 = act.T @ gz, gz.sum(axis=0)
    u = (((((h * h) * (3.0 * 0.044715) + 1.0) * (0.5 * _GELU_C)) * h) * (1.0 - t * t)
         + 0.5 + t * 0.5)
    g_h = u * g_act
    g_x = g_out + (g_h @ w1.T).reshape(x.shape)
    return out, (g_x, flat.T @ g_h, g_h.sum(axis=0), g_w2, g_b2, g_gain, g_bias)


def test_ffn_block_same_bits_with_and_without_a_tape():
    # GELU works in place without a tape and into its own buffer with one;
    # both keep the formula's operation order
    rng = RngStream(31)
    x = rng.normal((6, 7), std=3.0)
    p = _ffn_params(rng, 7, 28)
    expected, _ = _ffn_oracle(x, p, np.zeros_like(x))
    plain = ops.ffn_block(T(x), **p).data
    with recording(Tape()):
        taped = ops.ffn_block(T(x), **p).data
    assert plain.tobytes() == expected.tobytes()
    assert taped.tobytes() == expected.tobytes()


def test_ffn_block_tiled_matches_unfused_oracle_bitwise():
    # [1, 769, 64] with a 256-wide hidden layer: several GELU row tiles and a
    # one-row tail tile; the output and all seven gradients keep the bits of
    # the unfused chain
    rng = RngStream(32)
    x = Parameter("x", rng.split("x").normal((1, 769, 64)))
    p = _ffn_params(rng, 64, 256)
    p["b1"].value.data[:] = rng.split("b1").normal((256,))
    p["b2"].value.data[:] = rng.split("b2").normal((64,))
    p["ln_gain"].value.data[:] = rng.split("gain").normal((64,))
    p["ln_bias"].value.data[:] = rng.split("bias").normal((64,))
    g_out = rng.split("g").normal((1, 769, 64))
    expected, grads = _ffn_oracle(x.value.data, p, g_out)
    params = [x] + list(p.values())
    tape = Tape()
    with recording(tape):
        out = ops.ffn_block(x, **p)
        loss = sum_all(mul_const(out, g_out))
    assert len(tape) == 3  # ffn_block is one tape entry
    backward(loss, tape)
    assert out.data.tobytes() == expected.tobytes()
    for q, g in zip(params, grads):
        np.testing.assert_array_equal(q.grad, g, err_msg=q.name)


def test_ffn_block_nan_weight_raises_naming_the_op():
    rng = RngStream(33)
    p = _ffn_params(rng, 4, 16)
    p["w1"].value.data[2, 5] = np.nan
    with pytest.raises(NumericsError, match=r"ffn_block \(linear1\).*\(4, 16\)"):
        ops.ffn_block(T(rng.normal((3, 4))), **p)


def test_ffn_block_gradient_check():
    rng = RngStream(21)
    x = Tensor(rng.normal((3, 4)))
    p = _ffn_params(rng, 4, 8)

    def loss_fn(tape=False):
        out = sum_all(ops.ffn_block(x, **p))
        return out if tape else out.item()

    check_param_grads(loss_fn, p.values())


# -----------------------------------------------------------------------------
# per-op gradient checks on random small shapes
# -----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["matmul", "softmax", "layer_norm", "logsumexp", "embedding",
     "gather_windows", "take_index", "concat", "transpose_reshape",
     "residual_ln", "attention_probs", "attention_probs_bias", "band_attention_probs",
     "band_context", "band_attention", "heads_in", "heads_out"],
)
def test_gradients_random_shapes(name):
    import zlib

    rng = RngStream(zlib.crc32(name.encode()))
    w = Parameter("w", rng.normal((4, 6) if name == "band_context" else (4, 5)))

    def build(tape=False):
        if name == "matmul":
            out = sum_all(ops.matmul(Tensor(np.arange(8.0).reshape(2, 4) / 7), w))
        elif name == "softmax":  # softmax(w) as the context of keys and values I
            eye = Tensor(np.eye(5)[None])
            out = sublayer(ops.reshape(w, (1, 4, 5)), eye, eye, scale=1.0)
        elif name == "layer_norm":  # LN(w) as residual_ln(0, w)
            out = ops.residual_ln(Tensor(np.zeros((4, 5))), w, ln_g, ln_b)
            out = sum_all(mul_const(out, rng_fixed))
        elif name == "logsumexp":  # cross_entropy's log-sum-exp and pick, no padding
            out = ops.cross_entropy(w, np.array([1, 0, 4, 2]), pad_id=-1)
        elif name == "embedding":  # gather_rows as a table lookup, a row taken twice
            ids = np.array([[0, 2], [2, 1]])
            out = sum_all(mul_const(ops.gather_rows(w, ids), emb_w.reshape(2, 2, 5)))
        elif name == "gather_windows":  # window_sum; the second window passes the end
            out = ops.window_sum(w, np.array([0, 2]), win_k)
            out = sum_all(mul_const(out, win_w))
        elif name == "take_index":  # cross_entropy on [2, 2, 5] logits, one position padded
            out = ops.cross_entropy(ops.reshape(w, (2, 2, 5)), np.array([[1, 0], [4, 2]]), 0)
            out = ops.scale(out, -0.7)
        elif name == "concat":
            c = ops.concat([w, mul_const(w, rng_fixed)], axis=0)
            out = sum_all(mul_const(c, cat_w))
        elif name == "transpose_reshape":
            out = sum_all(mul_const(ops.reshape(ops.transpose(w, (1, 0)), (2, 10)), tr_w))
        elif name == "residual_ln":
            out = ops.residual_ln(w, mul_const(w, rng_fixed), ln_g, ln_b)
            out = sum_all(mul_const(out, emb_w))
        elif name in ("attention_probs", "attention_probs_bias"):
            # the dense scorer: two heads of queries [2, 5] and keys [2, 5],
            # both read from w, values fixed
            q = ops.reshape(w, (2, 2, 5))
            k = ops.reshape(mul_const(w, rng_fixed), (2, 2, 5))
            v = Tensor(RngStream(10).normal((2, 2, 3)))
            bias = ops.NEG_MASK * np.array([[0.0, 1.0], [0.0, 0.0]]) if "bias" in name else None
            out = sublayer(q, k, v, bias=bias)
        elif name == "band_attention_probs":
            # queries and keys [2, 5, 2] from w, values fixed: the gradient
            # reaches w only through the probabilities; n=5, w=4 pads one row
            q = ops.reshape(w, (2, 5, 2))
            k = mul_const(q, rng_fixed.reshape(2, 5, 2))
            v = Tensor(RngStream(10).normal((2, 5, 3)))
            out = sublayer(q, k, v, window=4)
        elif name == "band_context":
            # values [2, 6, 2] from w, queries and keys fixed: the gradient
            # reaches w only through the context; n=6, w=4 pads no row
            q = Tensor(RngStream(11).normal((2, 6, 3)))
            k = Tensor(RngStream(12).normal((2, 6, 3)))
            v = ops.reshape(w, (2, 6, 2))
            out = sublayer(q, k, v, window=4)
        elif name == "heads_in":
            # w as [2, 2, 5] projected three times into two heads of 2; the
            # first pair is trained, so x's gradient sums three projections'
            pairs = [(hw, hb)] + [(Tensor(f[:5]), Tensor(f[5])) for f in heads_fixed]
            heads = ops.heads_in(ops.reshape(w, (2, 2, 5)), pairs, 2)
            out = sum_all(mul_const(ops.concat(list(heads), axis=0), heads_w))
        elif name == "heads_out":
            # w as value heads [2, 2, 5] merged into [2, 10] and projected by
            # trained weights; equal scores make each context the mean of its values
            qk = Tensor(np.ones((2, 2, 1)))
            out = sublayer(qk, qk, ops.reshape(w, (2, 2, 5)), hw_out, hb_out)
        else:  # band_attention: n=5, w=4, so the third query block pads one row
            q = ops.reshape(ops.transpose(w, (1, 0)), (1, 5, 4))
            k = mul_const(q, rng_fixed.T)
            v = ops.reshape(w, (1, 5, 4))
            out = sublayer(q, k, v, window=4)
        return out if tape else out.item()

    def sublayer(q, k, v, wo=None, bo=None, scale=0.5, **mask):
        """The weighted sum of attention_block's output for these heads, with
        a fixed residual and layer norm and, unless given, projection."""
        lead, (h, n, _), hv = q.shape[:-3], q.shape[-3:], v.shape[-1]
        fixed = RngStream(16)
        if wo is None:
            wo, bo = (Tensor(fixed.split(s).normal(shape)) for s, shape in
                      (("wo", (h * hv, 4)), ("bo", (4,))))
        e = wo.shape[1]
        x, g, b, probe = (fixed.split(s).normal(shape) for s, shape in
                          (("x", lead + (n, e)), ("g", (e,)), ("b", (e,)), ("p", lead + (n, e))))
        out = ops.attention_block(Tensor(x), q, k, v, wo, bo, Tensor(g), Tensor(b),
                                  scale=scale, **mask)
        return sum_all(mul_const(out, probe))

    ln_g = Parameter("g", RngStream(1).normal((5,)))
    ln_b = Parameter("b", RngStream(2).normal((5,)))
    rng_fixed = RngStream(3).normal((4, 5))
    emb_w = RngStream(4).normal((4, 5))
    win_k = RngStream(5).normal((2, 3))
    win_w = RngStream(5).normal((2, 5))
    cat_w = RngStream(6).normal((8, 5))
    tr_w = RngStream(7).normal((2, 10))
    hw = Parameter("hw", RngStream(10).normal((5, 4)))
    hb = Parameter("hb", RngStream(11).normal((4,)))
    heads_fixed = RngStream(12).normal((2, 6, 4))  # two more (weight, bias) pairs
    heads_w = RngStream(12).normal((6, 2, 2, 2))
    hw_out = Parameter("hw_out", RngStream(13).normal((10, 4)))
    hb_out = Parameter("hb_out", RngStream(14).normal((4,)))
    params = [w] + {"layer_norm": [ln_g, ln_b], "residual_ln": [ln_g, ln_b],
                    "heads_in": [hw, hb], "heads_out": [hw_out, hb_out]}.get(name, [])
    check_param_grads(build, params)


# -----------------------------------------------------------------------------
# cross entropy
# -----------------------------------------------------------------------------


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = T(np.zeros((4, 7)))
    loss = ops.cross_entropy(logits, np.array([3, 1, 2, 6]), pad_id=0)
    assert abs(loss.item() - math.log(7)) < 1e-12


def test_cross_entropy_confident_correct_goes_to_zero():
    logits = np.zeros((2, 5))
    logits[0, 3] = 50.0
    logits[1, 1] = 50.0
    loss = ops.cross_entropy(T(logits), np.array([3, 1]), pad_id=0)
    assert loss.item() < 1e-12


def test_cross_entropy_matches_scalar_oracle():
    rng = RngStream(19)
    logits = rng.normal((3, 5))
    targets = np.array([2, 4, 1])
    expected = 0.0
    for i in range(3):
        row = logits[i]
        expected += -math.log(math.exp(row[targets[i]]) / np.exp(row).sum())
    expected /= 3
    loss = ops.cross_entropy(T(logits), targets, pad_id=0)
    assert abs(loss.item() - expected) <= 1e-12


def test_cross_entropy_ignores_pad_positions():
    rng = RngStream(29)
    logits = rng.normal((4, 5))
    full = ops.cross_entropy(T(logits[:2]), np.array([2, 3]), pad_id=0)
    padded = ops.cross_entropy(T(logits), np.array([2, 3, 0, 0]), pad_id=0)
    assert abs(full.item() - padded.item()) <= 1e-12


def test_cross_entropy_all_pad_raises():
    with pytest.raises(UsageError):
        ops.cross_entropy(T(np.zeros((2, 4))), np.array([0, 0]), pad_id=0)


def test_cross_entropy_target_out_of_range_raises():
    with pytest.raises(UsageError, match=r"target out of range \[0, 4\)"):
        ops.cross_entropy(T(np.zeros((2, 4))), np.array([1, 4]), pad_id=0)


def _cross_entropy_chain(a, targets, pad_id, g):
    """The unfused chain cross_entropy replaced, in plain numpy: log-sum-exp,
    pick, subtract, mask, sum and scale forward, and their vjps in reverse
    tape order, summed as backward sums them. Returns (loss, d loss)."""
    flat = a.reshape(-1, a.shape[-1])
    t = targets.reshape(-1)
    keep = t != pad_id
    keepf = keep.astype(np.float64)
    c = 1.0 / int(keep.sum())
    rows, idx = np.arange(len(flat)), np.where(keep, t, 0)
    m = flat.max(axis=-1, keepdims=True)
    p = np.exp(flat - m)
    s = p.sum(axis=-1, keepdims=True)
    lse = (m + np.log(s)).squeeze(-1)
    p /= s
    nll = lse - flat[rows, idx]
    loss = np.sum(nll * keepf).reshape(()) * c
    g_nll = np.broadcast_to(g * c, nll.shape).copy() * keepf  # scale, sum, mask
    g_pick = np.zeros_like(flat)
    np.add.at(g_pick, (rows, idx), -g_nll)  # subtract, then the pick's scatter
    grad = g_pick + p * np.expand_dims(g_nll, -1)  # plus the log-sum-exp's
    return loss, grad.reshape(a.shape)


@pytest.mark.parametrize(
    "shape, pad_id, upstream",
    [((4, 7), -1, 1.0), ((3, 5, 6), 0, 1.0), ((3, 5, 6), 0, -0.6), ((2, 9, 2), -1, 0.3)],
    ids=["matrix", "padded", "padded-negative-upstream", "two-class"],
)
def test_cross_entropy_is_bitwise_the_unfused_chain(shape, pad_id, upstream):
    rng = RngStream(sum(shape) + pad_id)
    a = rng.normal(shape) * 3.0
    targets = rng.randint(0, shape[-1], math.prod(shape[:-1])).reshape(shape[:-1])
    tape = Tape()
    with recording(tape):
        loss = ops.cross_entropy(T(a), targets, pad_id)
    (entry,) = tape.entries  # the loss is one tape entry
    (grad,) = entry.vjp(np.array(upstream))  # its raw vjp: signed zeros count too
    want_loss, want_grad = _cross_entropy_chain(a, targets, pad_id, np.array(upstream))
    assert loss.data.tobytes() == want_loss.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def _window_sum_chain(a, starts, weights, g):
    """gather_windows then a weighted window sum, in plain numpy: the
    [..., M, k, d] windows, zero past the end, contracted with the weights;
    the vjp scatters each window row's gradient back. Returns (out, grad)."""
    n, d = a.shape[-2], a.shape[-1]
    idx = starts[:, None] + np.arange(weights.shape[-1])[None, :]
    valid = idx < n
    safe = np.where(valid, idx, 0)
    windows = a[..., safe, :] * valid[:, :, None]
    out = np.einsum("...mk,...mkd->...md", weights, windows)
    g_windows = weights[..., :, :, None] * g[..., :, None, :]
    grad = np.zeros_like(a)
    flat = grad.reshape(-1, n, d)
    for b, gb in enumerate((g_windows * valid[:, :, None]).reshape(len(flat), -1, d)):
        for row, gr in zip(safe.reshape(-1), gb):
            flat[b, row] += gr
    return out, grad


@pytest.mark.parametrize(
    "lead, n, starts, k, batched_weights",
    [((), 11, [0, 3, 6, 9], 5, False), ((2,), 7, [0, 2, 4], 4, True),
     ((2, 3), 5, [0, 4], 3, False), ((3,), 9, [0, 1, 2, 3, 4, 5, 6], 3, True)],
    ids=["one-sequence", "batched-weights", "two-lead-axes", "rows-in-three-windows"],
)
def test_window_sum_is_bitwise_gather_then_einsum(lead, n, starts, k, batched_weights):
    rng = RngStream(n + k)
    starts = np.array(starts)
    a = rng.normal(lead + (n, 4))
    weights = rng.normal((lead if batched_weights else ()) + (len(starts), k))
    up = rng.normal(lead + (len(starts), 4))
    tape = Tape()
    with recording(tape):
        out = ops.window_sum(T(a), starts, weights)
    (entry,) = tape.entries  # the windows are no tape value
    (grad,) = entry.vjp(up)
    want_out, want_grad = _window_sum_chain(a, starts, weights, up)
    assert out.data.tobytes() == want_out.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_window_sum_rejects_weights_that_do_not_match_the_windows():
    x = T(np.zeros((2, 6, 3)))
    with pytest.raises(ShapeError):
        ops.window_sum(x, np.array([0, 3]), np.ones((3, 4)))  # 3 rows for 2 windows
    with pytest.raises(ShapeError):
        ops.window_sum(x, np.array([0, 3]), np.ones((3, 2, 4)))  # batch 3 for 2


@pytest.mark.parametrize(
    "idx", [[0, 4], [-1, 2], [[1, 2], [3, 5]]], ids=["past-end", "negative", "2-d"]
)
def test_gather_rows_refuses_an_out_of_range_index(idx):
    table = T(np.zeros((4, 3)))
    with pytest.raises(UsageError, match=r"gather_rows: index out of range \[0, 4\)"):
        ops.gather_rows(table, np.array(idx))


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-sequence", "batched"])
def test_add_rows_is_bitwise_add_of_gathered_rows(lead):
    # the forward and vjp of add(x, gather_rows(table, arange(3, 7))): a
    # -0.0 upstream row becomes 0.0 in the table's zero-filled gradient
    rng = RngStream(50 + len(lead))
    x, table = rng.normal(lead + (4, 5)), rng.normal((9, 5))
    g = _signed_zero_rows(rng.normal(lead + (4, 5)), 1)
    tape = Tape()
    with recording(tape):
        out = ops.add_rows(T(x), T(table), 3)
    (entry,) = tape.entries
    gx, gt = entry.vjp(g)
    want_gt = np.zeros_like(table)
    np.add.at(want_gt, np.arange(3, 7), g.reshape(-1, 4, 5).sum(axis=0) if lead else g)
    assert out.data.tobytes() == (x + table[3:7]).tobytes()
    assert gx is g and gt.tobytes() == want_gt.tobytes()
    with pytest.raises(UsageError, match="outside the table"):
        ops.add_rows(T(x), T(table), 6)


def test_gather_rows_takes_any_index_shape_on_any_leading_axes():
    a = np.arange(24.0).reshape(2, 4, 3)
    idx = np.array([[3, 0], [1, 1]])
    out = ops.gather_rows(T(a), idx)
    assert out.shape == (2, 2, 2, 3)
    np.testing.assert_array_equal(out.data, a[:, idx, :])


# -----------------------------------------------------------------------------
# projecting into heads and out of them
# -----------------------------------------------------------------------------


def _head_axes(lead):
    k = len(lead)
    return tuple(range(k)) + (k + 1, k, k + 2)


def _heads_in_chain(a, ws, bs, h, gs, g_res):
    """linear, reshape and transpose per projection, in plain numpy, and
    their vjps in reverse tape order. Returns the head-split outputs, each
    projection's (weight, bias) gradients, and x's gradient summed as
    backward summed it: the residual's first, then the projections' last
    to first."""
    lead, n, d = a.shape[:-2], a.shape[-2], a.shape[-1]
    flat = a if a.ndim == 2 else a.reshape(-1, d)
    outs = []
    for w, b in zip(ws, bs):
        y = flat @ w
        y += b
        y = y.reshape(lead + (n, h, w.shape[1] // h))
        outs.append(np.ascontiguousarray(y.transpose(_head_axes(lead))))
    gx, pgrads = g_res, []
    for w, g in zip(ws[::-1], gs[::-1]):
        gf = g.transpose(_head_axes(lead)).reshape(lead + (n, w.shape[1])).reshape(-1, w.shape[1])
        gx = gx + (gf @ w.T).reshape(a.shape)
        pgrads.insert(0, (flat.T @ gf, gf.sum(axis=0)))
    return outs, pgrads, gx


def _signed_zero_rows(a, row):
    """``a`` with one row of its sequence axis set to -0.0."""
    a[..., row, :] = -0.0
    return a


@pytest.mark.parametrize(
    "lead, n_pairs",
    [((), 1), ((3,), 2), ((2, 3), 3), ((), 3)],
    ids=["query", "keys-values-batched", "self-two-lead-axes", "self-one-sequence"],
)
def test_heads_in_is_bitwise_linear_reshape_transpose(lead, n_pairs):
    rng = RngStream(10 * n_pairs + len(lead))
    d, e, h, n = 6, 8, 2, 5
    a = rng.normal(lead + (n, d))
    ws = [rng.normal((d, e)) for _ in range(n_pairs)]
    bs = [rng.normal((e,)) for _ in range(n_pairs)]
    # upstream rows of -0.0 in every output and in the residual's gradient
    gs = tuple(_signed_zero_rows(rng.normal(lead + (h, n, e // h)), 0) for _ in range(n_pairs))
    g_res = _signed_zero_rows(rng.normal(lead + (n, d)), 0)
    x = T(a)
    pairs = [(T(w), T(b)) for w, b in zip(ws, bs)]
    tape = Tape()
    with recording(tape):
        outs = ops.heads_in(x, pairs, h)
    (entry,) = tape.entries
    # x once per projection, last projection first
    assert entry.inputs == tuple(v for w, b in pairs[::-1] for v in (x, w, b))
    raw = entry.vjp(gs)
    got_gx = g_res
    for inp, g in zip(entry.inputs, raw):
        if inp is x:
            got_gx = got_gx + g  # backward's sum, in the listed order
    want_outs, want_p, want_gx = _heads_in_chain(a, ws, bs, h, gs, g_res)
    assert [o.data.tobytes() for o in outs] == [o.tobytes() for o in want_outs]
    got_p = [(raw[3 * i + 1], raw[3 * i + 2]) for i in range(n_pairs)][::-1]
    for (gw, gb), (ww, wb) in zip(got_p, want_p):
        assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()
    assert got_gx.tobytes() == want_gx.tobytes()


def _attention_chain(x, q, k, v, wo, bo, gain, bias, mask_bias, scale, g):
    """The dense attention sublayer as its unfused chain in plain numpy:
    scaled scores plus the mask penalty, max-shifted softmax, context, head
    merge (transpose, reshape), projection, residual layer norm; then their
    vjps in reverse tape order. Returns the output and the gradients of x,
    q, k, v, wo, bo, gain and bias."""
    lead, (h, n, _), e = q.shape[:-3], q.shape[-3:], x.shape[-1]
    qs, kt = q * scale, np.ascontiguousarray(k.swapaxes(-1, -2))
    p = qs @ kt + mask_bias
    p = np.exp(p - p.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    ctx = p @ v
    merged = np.ascontiguousarray(ctx.transpose(_head_axes(lead))).reshape(lead + (n, -1))
    flat = merged.reshape(-1, merged.shape[-1])
    z = (flat @ wo + bo).reshape(lead + (n, e))
    xc = z - z.sum(axis=-1, keepdims=True) / e
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / e + 1e-5)
    xhat = xc * inv
    out = x + (xhat * gain + bias)
    gg = g * gain
    gz = inv * (gg - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
    gf = gz.reshape(-1, e)
    g_ctx = (gf @ wo.T).reshape(lead + (n, h, -1)).transpose(_head_axes(lead))
    gp = g_ctx @ v.swapaxes(-1, -2)
    gv = p.swapaxes(-1, -2) @ g_ctx
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gq = (gs @ kt.swapaxes(-1, -2)) * scale
    gk = (qs.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
    return out, (g, gq, gk, gv, flat.T @ gf, gf.sum(axis=0),
                 (g * xhat).reshape(-1, e).sum(axis=0), g.reshape(-1, e).sum(axis=0))


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)],
                         ids=["one-sequence", "batched", "two-lead-axes"])
def test_heads_out_is_bitwise_transpose_reshape_linear(lead):
    # the whole dense sublayer, head merge and projection included, against
    # its unfused chain: outputs and every gradient, bit for bit
    rng = RngStream(40 + len(lead))
    h, n, m, hd, e = 2, 5, 4, 3, 6
    x, q = rng.normal(lead + (n, e)), rng.normal(lead + (h, n, hd))
    k, v = rng.normal(lead + (h, m, hd)), rng.normal(lead + (h, m, hd))
    wo, bo, gain, bias = (rng.normal(s) for s in ((h * hd, e), (e,), (e,), (e,)))
    mask_bias = ops.NEG_MASK * np.tril(np.ones((n, m)), -3)
    g = _signed_zero_rows(rng.normal(lead + (n, e)), 2)
    tape = Tape()
    with recording(tape):
        out = ops.attention_block(*map(T, (x, q, k, v, wo, bo, gain, bias)), mask_bias,
                                  scale=0.5)
    (entry,) = tape.entries
    want, want_grads = _attention_chain(x, q, k, v, wo, bo, gain, bias, mask_bias, 0.5, g)
    assert out.data.tobytes() == want.tobytes()
    for got, w in zip(entry.vjp(g), want_grads):
        assert got.shape == w.shape and got.tobytes() == w.tobytes()


def test_heads_in_and_heads_out_refuse_mismatched_shapes():
    x, w, b = T(np.zeros((4, 6))), T(np.zeros((6, 8))), T(np.zeros(8))
    with pytest.raises(ShapeError):
        ops.heads_in(x, [(w, b)], 3)  # 8 columns into 3 heads
    with pytest.raises(ShapeError):
        ops.heads_in(x, [(w, b), (T(np.zeros((6, 4))), T(np.zeros(4)))], 2)
    with pytest.raises(ShapeError):
        ops.heads_in(x, [], 2)

    def block(x=(4, 6), q=(2, 4, 3), k=(2, 5, 3), v=(2, 5, 3), wo=(6, 6), window=None):
        ops.attention_block(*(T(np.zeros(s)) for s in (x, q, k, v, wo, (6,), (6,), (6,))),
                            window=window)

    block()
    for bad in ({"wo": (5, 6)}, {"x": (5, 6)}, {"q": (4, 3)}, {"k": (2, 5, 2)},
                {"v": (2, 4, 3)}, {"k": (3, 5, 3), "v": (3, 5, 3)}, {"window": 2}):
        with pytest.raises(ShapeError):
            block(**bad)
