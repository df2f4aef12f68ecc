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

import functools
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
    _all_finite,
    _screened,
    _view,
    current_tape,
)

# Additive pre-softmax penalty standing in for -inf on masked logits.
NEG_MASK = -1e30

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# ffn_block runs GELU over row tiles of about this many bytes: a tile stays
# in L2 cache through all of the formula's elementwise passes.
_GELU_TILE_BYTES = 1 << 18


def _data(x) -> np.ndarray:
    if isinstance(x, Parameter):
        return x.value.data
    if isinstance(x, Tensor):
        return x.data
    raise UsageError(f"expected Tensor or Parameter, got {type(x).__name__}")


def _check_finite(op: str, arr: np.ndarray, inputs: tuple) -> None:
    """Raise NumericsError naming ``op`` and the shapes of its inputs unless
    every entry of ``arr`` is finite."""
    if not _all_finite(arr):
        shapes = [_data(x).shape for x in inputs]
        raise NumericsError(f"{op}: non-finite result from inputs {shapes}")


def _result(op: str, arr: np.ndarray, inputs: tuple) -> Tensor:
    """The screened float64 output ``arr`` of arithmetic op ``op``."""
    _check_finite(op, arr, inputs)
    return _screened(arr)


def _record(out: Tensor, inputs: tuple, vjp, saved: tuple = ()) -> Tensor:
    """Record ``vjp`` on the active tape, if any. ``saved`` lists the arrays
    the vjp keeps besides its inputs' and output's data, which the tape entry
    counts as live bytes while it lives."""
    tape = current_tape()
    if tape is not None:
        tape.append(TapeEntry(out, inputs, vjp, saved))
    return out


# -----------------------------------------------------------------------------
# Structural ops
# -----------------------------------------------------------------------------


def reshape(x, shape) -> Tensor:
    a = _data(x)
    shape = tuple(shape)
    out = _view(a.reshape(shape), x)
    return _record(out, (x,), lambda g, s=a.shape: (g.reshape(s),))


def transpose(x, axes) -> Tensor:
    a = _data(x)
    axes = tuple(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    out = _view(np.ascontiguousarray(a.transpose(axes)), x)
    return _record(out, (x,), lambda g: (g.transpose(inv),))


def concat(parts, axis: int) -> Tensor:
    arrs = [_data(p) for p in parts]
    out = _screened(np.concatenate(arrs, axis=axis))
    sizes = [a.shape[axis] for a in arrs]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record(out, tuple(parts), vjp)


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


def _softmax(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of ``a`` over the last axis, written into ``out``
    (which may be ``a`` itself); the only temporaries are the row maxima and
    sums."""
    np.subtract(a, a.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_vjp(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    dot = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - dot)


def logsumexp_last(x) -> Tensor:
    """log(sum(exp)) over the last axis, max-shifted."""
    a = _data(x)
    m = a.max(axis=-1, keepdims=True)
    p = np.exp(a - m)
    s = p.sum(axis=-1, keepdims=True)
    out = _result("logsumexp_last", (m + np.log(s)).squeeze(-1), (x,))
    p /= s
    return _record(out, (x,), lambda g: (p * np.expand_dims(g, -1),), (p,))


def _ln_forward(a: np.ndarray, gain, bias, eps: float):
    """Layer norm of the array ``a`` over the last axis, shared by
    :func:`residual_ln` and :func:`ffn_block`. Returns the output
    ``xhat * gain + bias`` in a fresh buffer, the vjp's closure and the
    arrays it saves; ``xhat`` is formed in place."""
    d = a.shape[-1]
    if d < 2:
        raise ConfigError("layer_norm requires last-axis extent >= 2")
    gd, bd = _data(gain), _data(bias)
    if gd.shape != (d,) or bd.shape != (d,):
        raise ShapeError("layer_norm gain/bias must match the last axis")
    # np.add.reduce(...) / d is ndarray.mean's own sum and division without
    # its Python wrapper, which costs more than the arithmetic on one row.
    mu = np.add.reduce(a, axis=-1, keepdims=True) / d
    xhat = a - mu
    y = np.multiply(xhat, xhat)
    var = np.add.reduce(y, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gd, out=y)
    y += bd

    def vjp(g):
        gg = g * gd
        g_bias = g.reshape(-1, d).sum(axis=0)
        g_gain = (g * xhat).reshape(-1, d).sum(axis=0)
        mean_gg = gg.mean(axis=-1, keepdims=True)
        mean_ggx = (gg * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gg - mean_gg - xhat * mean_ggx)
        return gx, g_gain, g_bias

    return y, vjp, (xhat, inv)


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
# Attention probabilities and context
# -----------------------------------------------------------------------------


def _zero_filled_add(total, shape: tuple, idx, g: np.ndarray) -> np.ndarray:
    """``total`` plus a zero-filled array of ``shape`` holding ``g`` at
    ``idx`` (``total`` None starts the sum). Summing whole zero-filled arrays,
    not adding ``g`` into ``total[idx]``, keeps the bits of one slice gradient
    accumulated after another: x + 0.0 turns -0.0 into 0.0."""
    full = np.zeros(shape)
    full[idx] = g
    if total is None:
        return full
    total += full
    return total


def attention_probs(q, k, bias: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T + bias) over the last axis, for queries [..., n, d] and
    keys [..., m, d] with equal leading axes. ``bias`` is an optional constant
    additive [n, m] array (a mask penalty; no gradient). Scores, bias and
    softmax share one buffer."""
    dq, dk = _data(q), _data(k)
    if dq.ndim < 2 or dk.shape[:-2] != dq.shape[:-2] or dk.shape[-1] != dq.shape[-1]:
        raise ShapeError(f"attention_probs: queries {dq.shape} vs keys {dk.shape}")
    kt = np.ascontiguousarray(dk.swapaxes(-1, -2))
    p = np.matmul(dq, kt)
    if bias is not None:
        p += bias
    out = _result("attention_probs", _softmax(p, p), (q, k))
    p = out.data

    def vjp(g):
        gs = _softmax_vjp(g, p)
        gq = np.matmul(gs, kt.swapaxes(-1, -2))
        return gq, np.matmul(dq.swapaxes(-1, -2), gs).swapaxes(-1, -2)

    return _record(out, (q, k), vjp, (kt,))


@functools.lru_cache(maxsize=1)  # every banded layer of an encode shares (n, w)
def _band_block_bias(n: int, window: int) -> tuple[np.ndarray, int, int]:
    """Additive mask bias for blocked banded attention.

    Returns (bias[nb, block, 3*block], block, nb). Block r of query block i
    scores key slot s, which is absolute position (i-1)*block + s; a slot is
    admitted iff that position is in range and within w/2 of the query.
    Queries in the padded tail admit a single dummy slot so softmax stays
    defined; their outputs are sliced away. The result depends on (n,
    window) only, so it is built once per pair and shared read-only.
    """
    # The cached array's place in the heap decides whether glibc trims the
    # heap top after each long encode (and faults it in again on the next):
    # this build order keeps the 2048-token encode from doing so.
    half = window // 2
    block = half
    nb = -(-n // block)
    i = np.arange(nb)[:, None, None]
    r = np.arange(block)[None, :, None]
    s = np.arange(3 * block)[None, None, :]
    q_abs = i * block + r
    j_abs = (i - 1) * block + s
    admitted = (q_abs < n) & (j_abs >= 0) & (j_abs < n) & (np.abs(q_abs - j_abs) <= half)
    bias = np.where(admitted, 0.0, NEG_MASK)
    pad_rows = q_abs >= n
    dummy = s == (block + r)
    bias = np.where(pad_rows & dummy, 0.0, bias)
    bias.flags.writeable = False
    return bias, block, nb


def _band_weights_dense(probs: np.ndarray, n: int) -> np.ndarray:
    """Scatter blocked band weights [..., nb, block, 3*block] into [..., n, n]."""
    nb, block = probs.shape[-3], probs.shape[-2]
    i, r, s = np.ogrid[:nb, :block, : 3 * block]
    q_abs, j_abs = np.broadcast_arrays(i * block + r, (i - 1) * block + s)
    keep = (q_abs < n) & (j_abs >= 0) & (j_abs < n)
    dense = np.zeros(probs.shape[:-3] + (n, n))
    dense[..., q_abs[keep], j_abs[keep]] = probs[..., keep]
    return dense


def _pad_rows(a: np.ndarray, before: int, after: int) -> np.ndarray:
    """``a`` with zero rows added before and after its second-to-last axis."""
    widths = [(0, 0)] * a.ndim
    widths[-2] = (before, after)
    return np.pad(a, widths)


def _blocks_from(s: int, nb: int) -> tuple:
    """Index of blocks s .. nb+s-1 on the block axis of [..., blocks, block, d]:
    for each query block, its left (s=0), centre (1) or right (2) neighbour."""
    return (..., slice(s, nb + s), slice(None), slice(None))


def _slot(s: int, block: int) -> tuple:
    """Index of the s-th block of key slots on the last axis of banded scores."""
    return (..., slice(s * block, (s + 1) * block))


def _key_blocks_t(dk: np.ndarray, s: int, nb: int) -> np.ndarray:
    return np.ascontiguousarray(dk[_blocks_from(s, nb)].swapaxes(-1, -2))


def band_attention(q, k, v, window: int, return_weights: bool = False):
    """Banded attention softmax(q k^T + mask) v: query i attends the keys j
    with |i - j| <= w/2. Queries and keys are [..., n, d], values [..., n, e];
    returns the context [..., n, e] and, with ``return_weights``, the dense
    [..., n, n] weights too (no gradient).

    Queries go in nb = ceil(n / block) blocks of block = w/2 rows, the tail
    zero-padded; keys and values get one more zero block per side. Query
    block i scores key blocks i, i+1 and i+2 (left, centre, right) into one
    [..., nb, block, 3*block] buffer that takes the bias and the softmax in
    place, so live memory is O(n * w); the context sums the three slices
    times their value blocks. The vjp keeps the padded keys and values, the
    probabilities and, when the tail pads, the padded queries.

    Outputs and gradients are the bits of the unfused chain pad, reshape,
    scores, context, reshape, slice: the same products in the same order,
    the vjp's right, centre and left sums in that chain's tape order. The
    products read and write strided block views, which keeps those bits
    only while BLAS computes a strided matrix like its contiguous copy;
    tests/digest.py checks that it does.
    """
    inputs = (q, k, v)
    dq, dk, dv = _data(q), _data(k), _data(v)
    if dq.ndim < 2 or dk.shape != dq.shape or dv.shape[:-1] != dq.shape[:-1]:
        raise ShapeError(
            f"band_attention: queries {dq.shape}, keys {dk.shape}, values {dv.shape}"
        )
    lead, n, d, e = dq.shape[:-2], dq.shape[-2], dq.shape[-1], dv.shape[-1]
    bias, block, nb = _band_block_bias(n, window)
    n_pad = nb * block
    rows = (..., slice(0, n), slice(None))  # the queries' rows of the padded layout
    kv_rows = (..., slice(block, block + n), slice(None))
    # np.pad copies even when it adds nothing
    qp = _pad_rows(dq, 0, n_pad - n) if n_pad > n else dq
    q_blk = qp.reshape(lead + (nb, block, d))
    kp = _pad_rows(dk, block, n_pad - n + block)
    k_blk = kp.reshape(lead + (nb + 2, block, d))
    p = np.empty(lead + (nb, block, 3 * block))
    for s in range(3):
        np.matmul(q_blk, _key_blocks_t(k_blk, s, nb), out=p[_slot(s, block)])
    p += bias
    _check_finite("band_attention", _softmax(p, p), inputs)
    recording = current_tape() is not None
    if not recording:
        del qp, q_blk, kp, k_blk  # read no more: one less array beside the scores
    vp = _pad_rows(dv, block, n_pad - n + block)
    v_blk = vp.reshape(lead + (nb + 2, block, e))
    ctx = np.matmul(p[_slot(0, block)], v_blk[_blocks_from(0, nb)])
    part = np.empty_like(ctx)
    for s in (1, 2):
        ctx += np.matmul(p[_slot(s, block)], v_blk[_blocks_from(s, nb)], out=part)
    del part
    _check_finite("band_attention", ctx, inputs)
    out = _screened(np.ascontiguousarray(ctx.reshape(lead + (n_pad, e))[rows]))
    del ctx
    if recording:
        def vjp(g):
            full = np.zeros(lead + (n_pad, e))
            full[rows] = g
            g = full.reshape(lead + (nb, block, e))
            gp = gv = None
            for s in (2, 1, 0):  # right, centre, left: the unfused tape's order
                ga = np.matmul(g, v_blk[_blocks_from(s, nb)].swapaxes(-1, -2))
                gp = _zero_filled_add(gp, p.shape, _slot(s, block), ga)
                gb = np.matmul(p[_slot(s, block)].swapaxes(-1, -2), g)
                gv = _zero_filled_add(gv, v_blk.shape, _blocks_from(s, nb), gb)
            gs = _softmax_vjp(gp, p)
            gq = gk = None
            for s in (2, 1, 0):
                ga = np.matmul(gs[_slot(s, block)], _key_blocks_t(k_blk, s, nb).swapaxes(-1, -2))
                gq = ga if gq is None else np.add(gq, ga, out=gq)
                gb = np.matmul(q_blk.swapaxes(-1, -2), gs[_slot(s, block)]).swapaxes(-1, -2)
                gk = _zero_filled_add(gk, k_blk.shape, _blocks_from(s, nb), gb)
            gq = gq.reshape(qp.shape)
            if n_pad > n:
                gq = np.ascontiguousarray(gq[rows])
            return (gq, np.ascontiguousarray(gk.reshape(kp.shape)[kv_rows]),
                    np.ascontiguousarray(gv.reshape(vp.shape)[kv_rows]))

        _record(out, inputs, vjp, (kp, vp, p) + ((qp,) if n_pad > n else ()))
    if return_weights:
        return out, _band_weights_dense(p, n)
    return out


# -----------------------------------------------------------------------------
# Composite blocks
# -----------------------------------------------------------------------------


def residual_ln(x, branch, ln_gain, ln_bias, eps: float = 1e-5) -> Tensor:
    """The sublayer rule x + LN(branch), as one op.

    The residual passes through untouched; only the branch is normalized, so a
    zero-weight branch leaves the input exactly unchanged. The residual is
    added into the layer norm's output buffer.
    """
    r, a = _data(x), _data(branch)
    if r.shape != a.shape:
        raise ShapeError(f"residual_ln: residual {r.shape} vs branch {a.shape}")
    y, ln_vjp, saved = _ln_forward(a, ln_gain, ln_bias, eps)
    y += r
    inputs = (x, branch, ln_gain, ln_bias)
    out = _result("residual_ln", y, inputs)
    return _record(out, inputs, lambda g: (g,) + ln_vjp(g), saved)


def _row_tiles(rows: int, width: int) -> tuple[int, range]:
    """Rows per GELU tile of ``width`` float64 columns, and the tiles' first
    rows."""
    tile = max(1, _GELU_TILE_BYTES // (8 * width))
    return tile, range(0, rows, tile)


def _gelu_tiles(h: np.ndarray, recording: bool, screen):
    """GELU, tanh form 0.5*h*(1 + tanh(sqrt(2/pi)*(h + 0.044715*h^3))), over
    row tiles of the matrix ``h``, each tile through every step in the
    formula's own operation order, so the bits match the unfused expression.

    Unless ``recording``, it works in place in ``h`` with one tile of scratch
    and returns ``(h, None)``; otherwise it returns a fresh output and the
    tanh term, which the vjp reads with ``h``. ``screen(stage, tile)`` checks
    each pre-activation tile and each output tile while it is in cache."""
    rows, hidden = h.shape
    tile, starts = _row_tiles(rows, hidden)
    scratch = np.empty((min(rows, tile), hidden))
    act, th = (np.empty_like(h), np.empty_like(h)) if recording else (h, None)
    for r0 in starts:
        a = h[r0 : r0 + tile]
        screen("linear1", a)
        s = scratch[: len(a)]
        t = th[r0 : r0 + tile] if recording else s
        np.multiply(a, a, out=t)
        t *= _GELU_A
        t *= a
        t += a
        t *= _GELU_C
        np.tanh(t, out=t)
        y = act[r0 : r0 + tile]
        np.multiply(a, 0.5, out=y)  # in place in a when not recording
        np.add(t, 1.0, out=s)
        y *= s
        screen("gelu", y)
    return act, th


def _gelu_tiles_vjp(h: np.ndarray, th: np.ndarray, g: np.ndarray) -> np.ndarray:
    """GELU's vjp over the row tiles of :func:`_gelu_tiles`, written in place
    into the upstream gradient ``g``:
    d = 0.5(1+t) + 0.5*C*h*(1 + 3A*h^2)*sech^2, with h*h recomputed per tile
    (the same bits as keeping it)."""
    rows, hidden = h.shape
    tile, starts = _row_tiles(rows, hidden)
    u_buf = np.empty((min(rows, tile), hidden))
    w_buf = np.empty_like(u_buf)
    for r0 in starts:
        a, t = h[r0 : r0 + tile], th[r0 : r0 + tile]
        u, w = u_buf[: len(a)], w_buf[: len(a)]
        np.multiply(a, a, out=u)
        u *= 3.0 * _GELU_A
        u += 1.0
        u *= 0.5 * _GELU_C
        u *= a
        np.multiply(t, t, out=w)
        np.subtract(1.0, w, out=w)
        u *= w
        u += 0.5
        np.multiply(t, 0.5, out=w)
        u += w
        gt = g[r0 : r0 + tile]
        np.multiply(u, gt, out=gt)
    return g


def ffn_block(x, w1, b1, w2, b2, ln_gain, ln_bias, eps: float = 1e-5) -> Tensor:
    """Position-wise feed-forward sublayer x + LN(W2 gelu(W1 x + b1) + b2),
    as one op.

    The two products are each one whole GEMM, as :func:`linear` computes
    them; they are not split into row tiles because a row-tiled BLAS product
    can round differently (it does when a tile has one row). The GELU
    between them runs over row tiles of about 256 KB that stay in cache
    through all of its steps (see :func:`_gelu_tiles`), in place in the
    hidden layer unless a tape records. The residual and layer norm are
    :func:`residual_ln`'s. Each stage's result is screened as the unfused
    ops screened theirs, and a non-finite one raises NumericsError naming
    the stage. The vjp runs the stages backward in the unfused tape's
    order (layer norm, second linear, GELU, first linear), so outputs and
    gradients are the bits of that four-op chain.
    """
    inputs = (x, w1, b1, w2, b2, ln_gain, ln_bias)
    a, dw1, db1, dw2, db2 = (_data(v) for v in inputs[:5])
    d = a.shape[-1]
    hidden = dw1.shape[-1]
    if (dw1.shape != (d, hidden) or db1.shape != (hidden,)
            or dw2.shape != (hidden, d) or db2.shape != (d,)):
        raise ShapeError(
            f"ffn_block: input {a.shape}, w1 {dw1.shape}, b1 {db1.shape}, "
            f"w2 {dw2.shape}, b2 {db2.shape}"
        )

    def screen(stage: str, arr: np.ndarray) -> None:
        _check_finite(f"ffn_block ({stage})", arr, inputs)

    flat = a if a.ndim == 2 else a.reshape(-1, d)
    h = flat @ dw1
    h += db1
    recording = current_tape() is not None
    act, th = _gelu_tiles(h, recording, screen)
    z = act @ dw2
    z += db2
    screen("linear2", z)
    y, ln_vjp, ln_saved = _ln_forward(z.reshape(a.shape), ln_gain, ln_bias, eps)
    del z
    y += a
    screen("residual_ln", y)
    out = _screened(y)
    if not recording:
        return out

    def vjp(g):
        gz, g_gain, g_bias = ln_vjp(g)
        gz = gz.reshape(-1, d)
        gh = gz @ dw2.T
        gw2 = act.T @ gz
        gb2 = gz.sum(axis=0)
        _gelu_tiles_vjp(h, th, gh)
        gx = (gh @ dw1.T).reshape(a.shape)
        gx += g  # the residual's gradient plus the first linear's
        return gx, flat.T @ gh, gh.sum(axis=0), gw2, gb2, g_gain, g_bias

    return _record(out, inputs, vjp, (h, th, act) + ln_saved)


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
