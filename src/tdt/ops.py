"""Differentiable operations over :class:`~tdt.tensor.Tensor`.

Each function computes its result eagerly with numpy and, when a tape is
active, records a vector-Jacobian closure. Inputs may be ``Tensor`` or
``Parameter``; plain numpy arrays passed where noted act as constants and
receive no gradient.

Shape conventions: matrices are row-major; batched operations treat leading
axes as independent; "last axis" operations (softmax, layer norm, linear)
apply position-wise.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import (
    ConfigError,
    NumericsError,
    Parameter,
    ShapeError,
    TapeEntry,
    Tensor,
    UsageError,
    _screened,
    current_tape,
)

# Additive pre-softmax penalty standing in for -inf on masked logits.
NEG_MASK = -1e30

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _data(x) -> np.ndarray:
    if isinstance(x, Parameter):
        return x.value.data
    if isinstance(x, Tensor):
        return x.data
    raise UsageError(f"expected Tensor or Parameter, got {type(x).__name__}")


def _result(op: str, arr: np.ndarray, inputs: tuple) -> Tensor:
    """The screened output of arithmetic op ``op``; a non-finite result
    raises NumericsError naming the op and the shapes of its inputs."""
    try:
        return Tensor(arr)
    except NumericsError:
        shapes = [_data(x).shape for x in inputs]
        raise NumericsError(f"{op}: non-finite result from inputs {shapes}") from None


def _record(out: Tensor, inputs: tuple, vjp) -> Tensor:
    tape = current_tape()
    if tape is not None:
        tape.append(TapeEntry(out, inputs, vjp))
    return out


# -----------------------------------------------------------------------------
# Structural ops
# -----------------------------------------------------------------------------


def reshape(x, shape) -> Tensor:
    a = _data(x)
    shape = tuple(shape)
    out = _screened(a.reshape(shape))
    return _record(out, (x,), lambda g, s=a.shape: (g.reshape(s),))


def transpose(x, axes) -> Tensor:
    a = _data(x)
    axes = tuple(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    out = _screened(np.ascontiguousarray(a.transpose(axes)))
    return _record(out, (x,), lambda g: (g.transpose(inv),))


def concat(parts, axis: int) -> Tensor:
    arrs = [_data(p) for p in parts]
    out = _screened(np.concatenate(arrs, axis=axis))
    sizes = [a.shape[axis] for a in arrs]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record(out, tuple(parts), vjp)


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    a = _data(x)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = _screened(np.ascontiguousarray(a[idx]))

    def vjp(g, shape=a.shape):
        full = np.zeros(shape, dtype=np.float64)
        full[idx] = g
        return (full,)

    return _record(out, (x,), vjp)


def pad_axis(x, axis: int, before: int, after: int) -> Tensor:
    a = _data(x)
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    out = _screened(np.pad(a, widths))
    n = a.shape[axis]
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(before, before + n)
    idx = tuple(idx)
    return _record(out, (x,), lambda g: (np.ascontiguousarray(g[idx]),))


# -----------------------------------------------------------------------------
# Arithmetic
# -----------------------------------------------------------------------------


def add(a, b) -> Tensor:
    """Elementwise sum; ``b`` may also be a trailing-shape broadcast of ``a``
    (a bias vector, or per-position values shared across leading axes)."""
    da, db = _data(a), _data(b)
    if da.shape != db.shape:
        k = db.ndim
        if k == 0 or da.shape[da.ndim - k :] != db.shape:
            raise ShapeError(f"add: shapes {da.shape} and {db.shape}")
    out = _result("add", da + db, (a, b))

    def vjp(g):
        gb = g
        if db.shape != da.shape:
            gb = g.reshape((-1,) + db.shape).sum(axis=0)
        return g, gb

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    da, db = _data(a), _data(b)
    if da.shape != db.shape:
        raise ShapeError(f"sub: shapes {da.shape} and {db.shape}")
    out = _result("sub", da - db, (a, b))
    return _record(out, (a, b), lambda g: (g, -g))


def scale(x, c: float) -> Tensor:
    a = _data(x)
    c = float(c)
    out = _result("scale", a * c, (x,))
    return _record(out, (x,), lambda g: (g * c,))


def add_const(x, bias: np.ndarray) -> Tensor:
    """Add a constant array (no gradient to the bias); used for mask penalties."""
    a = _data(x)
    out = _result("add_const", a + bias, (x,))
    return _record(out, (x,), lambda g: (np.asarray(g, dtype=np.float64),))


def mul_const(x, factor: np.ndarray) -> Tensor:
    """Multiply by a constant array (no gradient to the factor)."""
    a = _data(x)
    out = _result("mul_const", a * factor, (x,))
    return _record(out, (x,), lambda g: (g * factor,))


def matmul(a, b) -> Tensor:
    """Matrix product; leading batch axes must match exactly."""
    da, db = _data(a), _data(b)
    if da.ndim < 2 or db.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if da.shape[-1] != db.shape[-2] or da.shape[:-2] != db.shape[:-2]:
        raise ShapeError(f"matmul: shapes {da.shape} and {db.shape}")
    out = _result("matmul", np.matmul(da, db), (a, b))

    def vjp(g):
        ga = np.matmul(g, db.swapaxes(-1, -2))
        gb = np.matmul(da.swapaxes(-1, -2), g)
        return ga, gb

    return _record(out, (a, b), vjp)


def sum_all(x) -> Tensor:
    a = _data(x)
    out = _result("sum_all", np.sum(a).reshape(()), (x,))
    return _record(out, (x,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


# -----------------------------------------------------------------------------
# Nonlinearities and normalization
# -----------------------------------------------------------------------------


def gelu(x) -> Tensor:
    """GELU, tanh form: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    a = _data(x)
    a2 = a * a
    t = np.tanh(_GELU_C * (a + _GELU_A * a2 * a))
    out = _result("gelu", 0.5 * a * (1.0 + t), (x,))

    def vjp(g):
        # d = 0.5(1+t) + 0.5*C*a*(1 + 3A*a^2)*sech^2, fused in-place
        u = a2 * (3.0 * _GELU_A)
        u += 1.0
        u *= 0.5 * _GELU_C
        u *= a
        w = t * t
        np.subtract(1.0, w, out=w)
        u *= w
        u += 0.5
        w = t * 0.5
        u += w
        u *= g
        return (u,)

    return _record(out, (x,), vjp)


def softmax_last(x) -> Tensor:
    """Softmax over the last axis with max-subtraction for stability.

    Works in a single scratch buffer so the transient footprint is one array
    beyond the input (this matters for attention scores).
    """
    a = _data(x)
    m = a.max(axis=-1, keepdims=True)
    t = a - m
    np.exp(t, out=t)
    t /= t.sum(axis=-1, keepdims=True)
    out = _result("softmax_last", t, (x,))
    p = out.data

    def vjp(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _record(out, (x,), vjp)


def logsumexp_last(x) -> Tensor:
    """log(sum(exp)) over the last axis, max-shifted."""
    a = _data(x)
    m = a.max(axis=-1, keepdims=True)
    s = np.exp(a - m).sum(axis=-1, keepdims=True)
    out = _result("logsumexp_last", (m + np.log(s)).squeeze(-1), (x,))
    p = np.exp(a - m) / s
    return _record(out, (x,), lambda g: (p * np.expand_dims(g, -1),))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gain and bias.

    ``eps`` sits inside the square root of the variance term.
    """
    a = _data(x)
    d = a.shape[-1]
    if d < 2:
        raise ConfigError("layer_norm requires last-axis extent >= 2")
    gd, bd = _data(gain), _data(bias)
    if gd.shape != (d,) or bd.shape != (d,):
        raise ShapeError("layer_norm gain/bias must match the last axis")
    # np.add.reduce(...) / d is ndarray.mean's own sum and division without
    # its Python wrapper, which costs more than the arithmetic on one row.
    mu = np.add.reduce(a, axis=-1, keepdims=True) / d
    xc = a - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _result("layer_norm", xhat * gd + bd, (x, gain, bias))

    def vjp(g):
        gg = g * gd
        g_bias = g.reshape(-1, d).sum(axis=0)
        g_gain = (g * xhat).reshape(-1, d).sum(axis=0)
        mean_gg = gg.mean(axis=-1, keepdims=True)
        mean_ggx = (gg * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gg - mean_gg - xhat * mean_ggx)
        return gx, g_gain, g_bias

    return _record(out, (x, gain, bias), vjp)


def linear(x, weight, bias=None) -> Tensor:
    """Affine map along the last axis: x @ W (+ b)."""
    a = _data(x)
    w = _data(weight)
    if w.ndim != 2 or a.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input {a.shape} vs weight {w.shape}")
    flat = a if a.ndim == 2 else a.reshape(-1, a.shape[-1])
    y = flat @ w
    if bias is not None:
        b = _data(bias)
        if b.shape != (w.shape[1],):
            raise ShapeError(f"linear: bias {b.shape} vs weight {w.shape}")
        y += b  # y is freshly allocated by the matmul
    if a.ndim != 2:
        y = y.reshape(a.shape[:-1] + (w.shape[1],))
    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = _result("linear", y, inputs)

    def vjp(g):
        gf = g.reshape(-1, w.shape[1])
        gx = (gf @ w.T).reshape(a.shape)
        gw = flat.T @ gf
        if bias is None:
            return gx, gw
        return gx, gw, gf.sum(axis=0)

    return _record(out, inputs, vjp)


# -----------------------------------------------------------------------------
# Lookup / gather
# -----------------------------------------------------------------------------


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...]]; ids may have any shape."""
    t = _data(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= t.shape[0]):
        raise UsageError(
            f"embedding id out of range [0, {t.shape[0]}): ids span "
            f"[{ids.min()}, {ids.max()}]"
        )
    out = _screened(t[ids])
    flat_ids = ids.reshape(-1)

    def vjp(g):
        gt = np.zeros_like(t)
        np.add.at(gt, flat_ids, g.reshape(-1, t.shape[1]))
        return (gt,)

    return _record(out, (table,), vjp)


def take_rows(x, idx: np.ndarray) -> Tensor:
    """Gather rows of the second-to-last axis: out[..., i, :] = x[..., idx[i], :]."""
    a = _data(x)
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim < 2 or idx.ndim != 1:
        raise ShapeError("take_rows expects [..., m, d] input and 1-D indices")
    m, d = a.shape[-2], a.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise UsageError(f"take_rows index out of range [0, {m})")
    out = _screened(np.ascontiguousarray(a[..., idx, :]))

    def vjp(g):
        ga = np.zeros_like(a)
        gaf = ga.reshape(-1, m, d)
        gf = g.reshape(-1, len(idx), d)
        rows = np.arange(gaf.shape[0])[:, None]
        np.add.at(gaf, (rows, idx[None, :]), gf)
        return (ga,)

    return _record(out, (x,), vjp)


def take_index_last(x, idx: np.ndarray) -> Tensor:
    """Per-row gather on the last axis: out[i] = x[i, idx[i]] for a matrix."""
    a = _data(x)
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.shape != (a.shape[0],):
        raise ShapeError("take_index_last expects matrix x and one index per row")
    rows = np.arange(a.shape[0])
    out = _screened(a[rows, idx])

    def vjp(g):
        ga = np.zeros_like(a)
        np.add.at(ga, (rows, idx), g)
        return (ga,)

    return _record(out, (x,), vjp)


def gather_windows(x, starts: np.ndarray, length: int) -> Tensor:
    """Stack row windows: out[..., j, t, :] = x[..., starts[j]+t, :].

    Rows past the end of the sequence axis are zero-filled. Overlapping
    windows scatter-add their gradients back.
    """
    a = _data(x)
    if a.ndim < 2:
        raise ShapeError("gather_windows expects [..., n, d] input")
    starts = np.asarray(starts, dtype=np.int64)
    n, d = a.shape[-2], a.shape[-1]
    idx = starts[:, None] + np.arange(length)[None, :]
    valid = idx < n
    safe = np.where(valid, idx, 0)
    out = _screened(a[..., safe, :] * valid[:, :, None])

    def vjp(g):
        ga = np.zeros_like(a)
        gaf = ga.reshape(-1, n, d)
        gf = (g * valid[:, :, None]).reshape(gaf.shape[0], -1, d)
        rows = np.arange(gaf.shape[0])[:, None]
        np.add.at(gaf, (rows, safe.reshape(-1)[None, :]), gf)
        return (ga,)

    return _record(out, (x,), vjp)


def weighted_window_sum(windows, weights: np.ndarray) -> Tensor:
    """Contract [..., M, k, d] windows with constant [M, k] (or [..., M, k])
    weights into [..., M, d]."""
    w = _data(windows)
    if w.ndim < 3 or weights.shape != w.shape[w.ndim - weights.ndim - 1 : -1]:
        raise ShapeError(
            f"weighted_window_sum: windows {w.shape} vs weights {weights.shape}"
        )
    out = _result(
        "weighted_window_sum", np.einsum("...mk,...mkd->...md", weights, w), (windows,)
    )
    return _record(
        out, (windows,), lambda g: (weights[..., :, :, None] * g[..., :, None, :],)
    )


# -----------------------------------------------------------------------------
# Composite blocks
# -----------------------------------------------------------------------------


def residual_ln(x, branch, ln_gain, ln_bias, eps: float = 1e-5) -> Tensor:
    """The sublayer rule x + LN(branch).

    The residual passes through untouched; only the branch is normalized, so a
    zero-weight branch leaves the input exactly unchanged.
    """
    return add(x, layer_norm(branch, ln_gain, ln_bias, eps))


def ffn_block(x, w1, b1, w2, b2, ln_gain, ln_bias, eps: float = 1e-5) -> Tensor:
    """Position-wise feed-forward sublayer: x + LN(W2 * gelu(W1 x + b1) + b2)."""
    return residual_ln(x, linear(gelu(linear(x, w1, b1)), w2, b2), ln_gain, ln_bias, eps)


def cross_entropy(logits, target_ids: np.ndarray, pad_id: int = 0) -> Tensor:
    """Mean token negative log-likelihood over non-pad target positions.

    Logits [..., V] with targets of the matching leading shape; everything is
    flattened to positions internally.
    """
    a = _data(logits)
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if a.ndim < 2 or target_ids.shape != a.shape[:-1]:
        raise ShapeError(f"cross_entropy: logits {a.shape} vs targets {target_ids.shape}")
    flat = logits if a.ndim == 2 else reshape(logits, (-1, a.shape[-1]))
    targets = target_ids.reshape(-1)
    keep = targets != pad_id
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise UsageError("cross_entropy: all target positions are padding")
    lse = logsumexp_last(flat)
    picked = take_index_last(flat, np.where(keep, targets, 0))
    nll = sub(lse, picked)
    masked = mul_const(nll, keep.astype(np.float64))
    return scale(sum_all(masked), 1.0 / n_keep)
