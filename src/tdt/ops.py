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
# The epsilon of every layer norm: residual_ln, attention_block, ffn_block.
LN_EPS = 1e-5

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

    def vjp(g):
        return tuple(np.split(g, np.cumsum([a.shape[axis] for a in arrs[:-1]]), axis=axis))

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


def scale(x, c: float) -> Tensor:
    a = _data(x)
    c = float(c)
    out = _result("scale", a * c, (x,))
    return _record(out, (x,), lambda g: (g * c,))


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


def _flat(a: np.ndarray) -> np.ndarray:
    """``a`` as a matrix of its last-axis rows (``a`` itself when 2-D)."""
    return a if a.ndim == 2 else a.reshape(-1, a.shape[-1])


def _affine_vjp(flat: np.ndarray, shape: tuple, w: np.ndarray, g: np.ndarray,
                bias: bool = True) -> tuple:
    """The gradients of ``flat @ w (+ b)`` from the upstream ``g``: the
    input's (as ``shape``), w's and, with ``bias``, b's."""
    gf = g.reshape(-1, w.shape[1])
    grads = ((gf @ w.T).reshape(shape), flat.T @ gf)
    return grads + (gf.sum(axis=0),) if bias else grads


def _head_axes(lead: int) -> tuple:
    """The axis order that swaps [..., n, h, hd] and [..., h, n, hd] after
    ``lead`` leading axes (its own inverse)."""
    return tuple(range(lead)) + (lead + 1, lead, lead + 2)


def heads_in(x, pairs, n_heads: int) -> tuple:
    """Project x [..., n, d] by each (weight [d, e], bias [e]) of ``pairs``,
    the query, key and value projections or a suffix of them, and split each
    projection into heads: one [..., n_heads, n, e / n_heads] tensor per
    pair, from one tape entry.

    Each projection is :func:`linear`'s product and bias add, screened, in
    one reused [rows, e] scratch, then copied head-split into its own
    output: the bits of linear, reshape and transpose. The key is a view of
    its contiguous transpose, the operand the dense scorer multiplies. The
    entry lists x once per pair, last pair first, and the vjp returns x's
    gradients in that order, so backward sums them as it summed the unfused
    projections'; weight and bias gradients are linear's products.
    """
    a = _data(x)
    ws = [_data(w) for w, _ in pairs]
    bs = [_data(b) for _, b in pairs]
    d = a.shape[-1] if a.ndim else 0
    e = ws[0].shape[-1] if ws and ws[0].ndim else 0
    if a.ndim < 2 or not 1 <= len(pairs) <= 3 or e % n_heads or any(
            w.shape != (d, e) or b.shape != (e,) for w, b in zip(ws, bs)):
        raise ShapeError(f"heads_in: input {a.shape}, weights {[w.shape for w in ws]}, "
                         f"biases {[b.shape for b in bs]}, {n_heads} heads")
    inputs = tuple(v for w, b in reversed(pairs) for v in (x, w, b))
    lead, n = a.shape[:-2], a.shape[-2]
    axes = _head_axes(len(lead))
    key_axes = axes[:-2] + (len(lead) + 2, len(lead))  # [..., n, h, hd] -> [..., h, hd, n]
    flat = _flat(a)
    y = np.empty((len(flat), e))
    outs = []
    for i, (w, b) in enumerate(zip(ws, bs)):
        np.matmul(flat, w, out=y)
        y += b
        _check_finite("heads_in", y, inputs)
        # a C-order copy: the transpose alone can be a view of the scratch y
        heads = y.reshape(lead + (n, n_heads, e // n_heads))
        if i == len(pairs) - 2:  # the key
            outs.append(_screened(heads.transpose(key_axes).copy().swapaxes(-1, -2)))
        else:
            outs.append(_screened(heads.transpose(axes).copy()))

    def vjp(gs):
        return [grad for w, g in zip(reversed(ws), reversed(gs))
                for grad in _affine_vjp(flat, a.shape, w, g.transpose(axes).reshape(-1, e))]

    return _record(tuple(outs), inputs, vjp)


def _merge_heads(heads: np.ndarray) -> np.ndarray:
    """Heads [..., h, n, hd] merged into a C-order [..., n, h * hd]."""
    axes = _head_axes(heads.ndim - 3)
    merged = np.ascontiguousarray(heads.transpose(axes))
    return merged.reshape(heads.shape[:-3] + (heads.shape[-2], -1))


def linear(x, weight, bias=None) -> Tensor:
    """Affine map along the last axis: x @ W (+ b)."""
    a, w, b = _data(x), _data(weight), None if bias is None else _data(bias)
    if w.ndim != 2 or a.shape[-1] != w.shape[0] or (b is not None and b.shape != (w.shape[1],)):
        raise ShapeError(f"linear: input {a.shape}, weight {w.shape}, "
                         f"bias {None if b is None else b.shape}")
    y = _flat(a) @ w
    if b is not None:
        y += b  # y is freshly allocated by the matmul
    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = _result("linear", y.reshape(a.shape[:-1] + (w.shape[1],)), inputs)
    return _record(out, inputs, lambda g: _affine_vjp(_flat(a), a.shape, w, g, b is not None))


# -----------------------------------------------------------------------------
# Lookup / gather
# -----------------------------------------------------------------------------


def _scatter_rows(a: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of ``a[..., idx, :]`` from its upstream gradient ``g``:
    zeros shaped like ``a`` with g's rows scatter-added at ``idx``, so a row
    gathered twice receives both gradients, summed in index order."""
    ga = np.zeros_like(a)
    gaf = ga.reshape(-1, a.shape[-2], a.shape[-1])
    rows = np.arange(gaf.shape[0])[:, None]
    np.add.at(gaf, (rows, idx.reshape(1, -1)), g.reshape(gaf.shape[0], -1, a.shape[-1]))
    return ga


def gather_rows(x, idx) -> Tensor:
    """Row gather on the second-to-last axis: out = x[..., idx, :] for an
    integer index array of any shape (token ids into an embedding table, or
    each token's segment)."""
    a = _data(x)
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim < 2:
        raise ShapeError(f"gather_rows expects [..., m, d] input, got {a.shape}")
    m = a.shape[-2]
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise UsageError(
            f"gather_rows: index out of range [0, {m}): indices span "
            f"[{idx.min()}, {idx.max()}]"
        )
    out = _screened(np.ascontiguousarray(a[..., idx, :]))
    return _record(out, (x,), lambda g: (_scatter_rows(a, idx, g),))


def add_rows(x, table, start: int = 0) -> Tensor:
    """x [..., n, d] plus rows start .. start+n-1 of ``table`` [m, d] (a
    position table), shared across x's leading axes: the bits of ``add(x,
    gather_rows(table, arange(start, start + n)))`` as one op. The vjp
    writes the rows' gradient, summed over the leading axes, into zeros
    shaped like the table, as :func:`gather_rows`' does."""
    a, t = _data(x), _data(table)
    if a.ndim < 2 or t.ndim != 2 or t.shape[1] != a.shape[-1]:
        raise ShapeError(f"add_rows: input {a.shape} vs table {t.shape}")
    rows, n = t[start : start + a.shape[-2]], a.shape[-2]
    if start < 0 or len(rows) < n:
        raise UsageError(f"add_rows: rows [{start}, {start + n}) outside the table's {len(t)}")
    out = _result("add_rows", a + rows, (x, table))

    def vjp(g):
        gt = np.zeros_like(t)
        gt[start : start + n] += g if g.ndim == 2 else g.reshape((-1,) + rows.shape).sum(axis=0)
        return g, gt

    return _record(out, (x, table), vjp)


def window_sum(x, starts: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted sums of row windows: out[..., j, :] = sum over t of
    weights[..., j, t] * x[..., starts[j] + t, :], for x [..., n, d] and
    constant weights [M, k] or [..., M, k] (no gradient).

    Rows past the end of the sequence axis count as zero vectors. The
    [..., M, k, d] windows exist only inside the op; the vjp scatters each
    window row's gradient back onto its row.
    """
    a = _data(x)
    if a.ndim < 2 or weights.ndim < 2:
        raise ShapeError(f"window_sum: input {a.shape} vs weights {weights.shape}")
    idx = np.asarray(starts, dtype=np.int64)[:, None] + np.arange(weights.shape[-1])
    valid = (idx < a.shape[-2])[:, :, None]
    safe = np.where(valid[:, :, 0], idx, 0)
    windows = a[..., safe, :] * valid
    if weights.shape != windows.shape[windows.ndim - weights.ndim - 1 : -1]:
        raise ShapeError(f"window_sum: windows {windows.shape} vs weights {weights.shape}")
    out = _result("window_sum", np.einsum("...mk,...mkd->...md", weights, windows), (x,))

    def vjp(g):
        return (_scatter_rows(a, safe, weights[..., None] * g[..., None, :] * valid),)

    return _record(out, (x,), vjp, (weights,))


# -----------------------------------------------------------------------------
# The attention sublayer
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


def _scorer_operands(dq: np.ndarray, dk: np.ndarray, scale: float) -> tuple:
    """The scaled queries (the bits of a scale op before the scorer) and the
    contiguous key transpose (``heads_in``'s keys' own memory) that the
    dense scorer multiplies; its vjp rebuilds them bit for bit."""
    return dq * scale if scale != 1.0 else dq, np.ascontiguousarray(dk.swapaxes(-1, -2))


def _dense_vjp(g: np.ndarray, p: np.ndarray, dq, dk, dv, scale: float) -> tuple:
    """Query, key and value gradients of the dense context p v from its own."""
    gp = np.matmul(g, dv.swapaxes(-1, -2))
    gv = np.matmul(p.swapaxes(-1, -2), g)
    gs = _softmax_vjp(gp, p)
    qs, kt = _scorer_operands(dq, dk, scale)
    gq = np.matmul(gs, kt.swapaxes(-1, -2))
    if scale != 1.0:
        gq *= scale
    return gq, np.matmul(qs.swapaxes(-1, -2), gs).swapaxes(-1, -2), gv


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


def _pad_rows(a: np.ndarray, before: int, after: int) -> np.ndarray:
    """``a`` with zero rows added before and after its second-to-last axis."""
    n = a.shape[-2]
    out = np.zeros(a.shape[:-2] + (before + n + after, a.shape[-1]))
    out[..., before : before + n, :] = a
    return out


def _blocks_from(s: int, nb: int) -> tuple:
    """Index of blocks s .. nb+s-1 on the block axis of [..., blocks, block, d]:
    for each query block, its left (s=0), centre (1) or right (2) neighbour."""
    return (..., slice(s, nb + s), slice(None), slice(None))


def _slot(s: int, block: int) -> tuple:
    """Index of the s-th block of key slots on the last axis of banded scores."""
    return (..., slice(s * block, (s + 1) * block))


def _key_blocks_t(dk: np.ndarray, s: int, nb: int) -> np.ndarray:
    return np.ascontiguousarray(dk[_blocks_from(s, nb)].swapaxes(-1, -2))


def _band_q_blocks(dq: np.ndarray, block: int, nb: int, scale: float) -> np.ndarray:
    """The queries scaled, the tail zero-padded, as [..., nb, block, d]."""
    lead, n, d = dq.shape[:-2], dq.shape[-2], dq.shape[-1]
    if nb * block == n:
        return (dq * scale).reshape(lead + (nb, block, d))
    qp = _pad_rows(dq, 0, nb * block - n)
    qp *= scale  # the same products as scaling first: the pad stays 0.0
    return qp.reshape(lead + (nb, block, d))


def _band_kv_blocks(a: np.ndarray, block: int, nb: int) -> np.ndarray:
    """Keys or values, one zero block more on each side, as [..., nb + 2, block, e]."""
    pad = _pad_rows(a, block, nb * block - a.shape[-2] + block)
    return pad.reshape(a.shape[:-2] + (nb + 2, block, a.shape[-1]))


def _band_probs(dq: np.ndarray, dk: np.ndarray, window: int, scale: float) -> np.ndarray:
    """Banded probabilities [..., nb, block, 3*block]: query block i scores key
    blocks i, i+1 and i+2 into one buffer that takes bias and softmax in place."""
    bias, block, nb = _band_block_bias(dq.shape[-2], window)
    q_blk, k_blk = _band_q_blocks(dq, block, nb, scale), _band_kv_blocks(dk, block, nb)
    p = np.empty(dq.shape[:-2] + (nb, block, 3 * block))
    for s in range(3):
        np.matmul(q_blk, _key_blocks_t(k_blk, s, nb), out=p[_slot(s, block)])
    p += bias
    return _softmax(p, p)


def _band_context(p: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """The banded context [..., nb * block, e], padded rows included."""
    nb, block = p.shape[-3], p.shape[-2]
    v_blk = _band_kv_blocks(dv, block, nb)
    ctx = np.matmul(p[_slot(0, block)], v_blk[_blocks_from(0, nb)])
    part = np.empty_like(ctx)
    for s in (1, 2):
        ctx += np.matmul(p[_slot(s, block)], v_blk[_blocks_from(s, nb)], out=part)
    return ctx.reshape(dv.shape[:-2] + (nb * block, dv.shape[-1]))


def _band_vjp(g: np.ndarray, p: np.ndarray, dq, dk, dv, scale: float) -> tuple:
    """Query, key and value gradients of the banded context from its own, with
    the scaled queries, keys and values padded again."""
    lead, n, d, e = dq.shape[:-2], dq.shape[-2], dq.shape[-1], dv.shape[-1]
    nb, block = p.shape[-3], p.shape[-2]
    n_pad = nb * block
    g = _pad_rows(g, 0, n_pad - n).reshape(lead + (nb, block, e))
    v_blk = _band_kv_blocks(dv, block, nb)
    gp = gv = None
    for s in (2, 1, 0):  # right, centre, left: the unfused tape's order
        ga = np.matmul(g, v_blk[_blocks_from(s, nb)].swapaxes(-1, -2))
        gp = _zero_filled_add(gp, p.shape, _slot(s, block), ga)
        gb = np.matmul(p[_slot(s, block)].swapaxes(-1, -2), g)
        gv = _zero_filled_add(gv, v_blk.shape, _blocks_from(s, nb), gb)
    del v_blk
    gs = _softmax_vjp(gp, p)
    q_blk, k_blk = _band_q_blocks(dq, block, nb, scale), _band_kv_blocks(dk, block, nb)
    gq = gk = None
    for s in (2, 1, 0):
        ga = np.matmul(gs[_slot(s, block)], _key_blocks_t(k_blk, s, nb).swapaxes(-1, -2))
        gq = ga if gq is None else np.add(gq, ga, out=gq)
        gb = np.matmul(q_blk.swapaxes(-1, -2), gs[_slot(s, block)]).swapaxes(-1, -2)
        gk = _zero_filled_add(gk, k_blk.shape, _blocks_from(s, nb), gb)
    gq = gq.reshape(lead + (n_pad, d))
    if n_pad > n:
        gq = np.ascontiguousarray(gq[..., :n, :])
    gq *= scale
    pad, rows = lead + (n_pad + 2 * block, -1), (..., slice(block, block + n), slice(None))
    return (gq, np.ascontiguousarray(gk.reshape(pad)[rows]),
            np.ascontiguousarray(gv.reshape(pad)[rows]))


def attention_block(x, q, k, v, wo, bo, ln_gain, ln_bias, bias: np.ndarray | None = None,
                    window: int | None = None, scale: float = 1.0, eps: float = LN_EPS) -> Tensor:
    """The attention sublayer x + LN(merge(softmax((q * scale) k^T + mask) v) wo + bo)
    as one op, for the residual x [..., n, e] and the heads: queries
    [..., h, n, hd], keys [..., h, m, hd] and values [..., h, m, hv]. Keys
    and values may broadcast over the queries' leading axes (one encoder
    output for every beam); their gradients are summed over those axes.

    The mask is the constant [n, m] penalty ``bias`` (None: every pair), or
    a self-attention band: ``window`` w admits |i - j| <= w/2. The band runs
    in query blocks of w/2 rows, each scoring its three neighbouring key
    blocks, so nothing n x n exists and live memory is O(n * w).

    Each stage runs the unfused chain's numpy calls (scores, context, head
    merge and projection, residual layer norm) and is screened as that chain
    was: a non-finite result raises NumericsError naming the stage. The vjp
    runs the stages backward in the chain's tape order, so outputs and
    gradients keep its bits; the banded products keep them only while BLAS
    computes a strided block view like its contiguous copy, which
    tests/digest.py checks. The probabilities count as live bytes while they
    exist. A recording keeps them and the layer norm's ``xhat`` and 1/std;
    the vjp rebuilds the context from them with the same products.
    """
    inputs = (x, q, k, v, wo, bo, ln_gain, ln_bias)
    r, dq, dk, dv, dwo, dbo = (_data(t) for t in inputs[:6])
    broadcast = tuple(i for i, (a, b) in enumerate(zip(dk.shape[:-2], dq.shape[:-2])) if a != b)
    if (dq.ndim < 3 or dk.ndim != dq.ndim or dk.shape[-1] != dq.shape[-1]
            or dv.shape[:-1] != dk.shape[:-1] or any(dk.shape[i] != 1 for i in broadcast)
            or (window is not None and dk.shape != dq.shape)
            or r.shape[:-1] != dq.shape[:-3] + dq.shape[-2:-1]
            or dwo.shape != (dq.shape[-3] * dv.shape[-1],) + r.shape[-1:]
            or dbo.shape != r.shape[-1:]):
        raise ShapeError(f"attention_block: residual {r.shape}, queries {dq.shape}, keys "
                         f"{dk.shape}, values {dv.shape}, projection {dwo.shape} + {dbo.shape}")
    n = dq.shape[-2]

    def screen(stage: str, arr: np.ndarray) -> np.ndarray:
        _check_finite(f"attention_block ({stage})", arr, inputs)
        return arr

    def context(p: np.ndarray) -> np.ndarray:  # [..., h, n or nb * block, hv]
        return np.matmul(p, dv) if window is None else _band_context(p, dv)

    if window is None:  # scores, penalty and softmax in one buffer
        p = np.matmul(*_scorer_operands(dq, dk, scale))
        if bias is not None:
            p += bias
        _softmax(p, p)
    else:
        p = _band_probs(dq, dk, window, scale)
    held = _screened(screen("softmax", p))  # counts the probabilities while they live
    merged = _merge_heads(screen("context", context(p))[..., :n, :])
    if current_tape() is None:
        del held, p  # the sublayer's largest array: free it before the projection
    z = _flat(merged) @ dwo
    z += dbo
    del merged
    y, ln_vjp, ln_saved = _ln_forward(screen("projection", z).reshape(r.shape), ln_gain,
                                      ln_bias, eps)
    del z
    y += r
    out = _screened(screen("residual_ln", y))
    if current_tape() is None:
        return out
    del held  # the entry counts them from here

    def vjp(g):
        gz, g_gain, g_bias = ln_vjp(g)
        merged = _merge_heads(context(p)[..., :n, :])
        g_merged, g_wo, g_bo = _affine_vjp(_flat(merged), merged.shape, dwo, gz)
        del merged
        h, hv = dq.shape[-3], dv.shape[-1]
        g_ctx = g_merged.reshape(r.shape[:-1] + (h, hv)).transpose(_head_axes(dq.ndim - 3))
        gq, gk, gv = (_dense_vjp if window is None else _band_vjp)(g_ctx, p, dq, dk, dv, scale)
        if broadcast:  # keys and values broadcast over these axes: sum them
            gk, gv = (a.sum(axis=broadcast, keepdims=True) for a in (gk, gv))
        return g, gq, gk, gv, g_wo, g_bo, g_gain, g_bias

    return _record(out, inputs, vjp, (p,) + ln_saved)


# -----------------------------------------------------------------------------
# Composite blocks
# -----------------------------------------------------------------------------


def residual_ln(x, branch, ln_gain, ln_bias, eps: float = LN_EPS) -> Tensor:
    """The sublayer rule x + LN(branch), as one op.

    The residual passes through untouched; only the branch is normalized, so a
    zero-weight branch leaves the input exactly unchanged. The residual is
    added into the layer norm's output buffer. No model path calls it (the
    sublayer ops fuse the same rule); the tests use it to check the layer
    norm and its vjp on their own.
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


def _gelu_out(a: np.ndarray, t: np.ndarray, s: np.ndarray) -> None:
    """GELU's last steps 0.5*a*(1 + t) on one tile, in place in ``a``, from
    its tanh term ``t``, with the tile of scratch ``s`` (which may be t)."""
    np.multiply(a, 0.5, out=a)
    np.add(t, 1.0, out=s)
    a *= s


def _gelu_tiles(h: np.ndarray, recording: bool, screen):
    """GELU, tanh form 0.5*h*(1 + tanh(sqrt(2/pi)*(h + 0.044715*h^3))), in
    place in the matrix ``h``, over row tiles, each tile through every step
    in the formula's own operation order, so the bits match the unfused
    expression.

    It works with one tile of scratch and returns None unless
    ``recording``; then it returns the tanh term, the one array the vjp
    keeps. ``screen(stage, tile)`` checks each pre-activation tile and each
    output tile while it is in cache."""
    rows, hidden = h.shape
    tile, starts = _row_tiles(rows, hidden)
    scratch = np.empty((min(rows, tile), hidden))
    th = np.empty_like(h) if recording else None
    for r0 in starts:
        a = h[r0 : r0 + tile]
        screen("linear1", a)
        s = scratch[: len(a)]
        t = s if th is None else th[r0 : r0 + tile]
        np.multiply(a, a, out=t)
        t *= _GELU_A
        t *= a
        t += a
        t *= _GELU_C
        np.tanh(t, out=t)
        _gelu_out(a, t, s)
        screen("gelu", a)
    return th


def _gelu_tiles_vjp(h: np.ndarray, th: np.ndarray, g: np.ndarray) -> None:
    """GELU's vjp over the row tiles of :func:`_gelu_tiles`, written in place
    into the upstream gradient ``g``:
    d = 0.5(1+t) + 0.5*C*h*(1 + 3A*h^2)*sech^2, with h*h recomputed per tile
    (the same bits as keeping it). Each tile of the pre-activation ``h``
    then becomes GELU's output, by the forward's own steps."""
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
        _gelu_out(a, t, w)


def ffn_block(x, w1, b1, w2, b2, ln_gain, ln_bias, eps: float = LN_EPS) -> Tensor:
    """Position-wise feed-forward sublayer x + LN(W2 gelu(W1 x + b1) + b2),
    as one op.

    The two products are each one whole GEMM, as :func:`linear` computes
    them; they are not split into row tiles because a row-tiled BLAS product
    can round differently (it does when a tile has one row). The GELU
    between them runs in place in the hidden layer, over row tiles of about
    256 KB that stay in cache through all of its steps (see
    :func:`_gelu_tiles`). The residual and layer norm are
    :func:`residual_ln`'s. Each stage's result is screened as the unfused
    ops screened theirs, and a non-finite one raises NumericsError naming
    the stage. The vjp runs the stages backward in the unfused tape's
    order (layer norm, second linear, GELU, first linear), so outputs and
    gradients are the bits of that four-op chain. Of the hidden layer it
    keeps only the tanh term: it runs the first product again and rebuilds
    the GELU output from the two, as the forward did.
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

    flat = _flat(a)

    def hidden_layer() -> np.ndarray:
        h = flat @ dw1
        h += db1
        return h

    h = hidden_layer()
    th = _gelu_tiles(h, current_tape() is not None, screen)
    z = h @ dw2
    z += db2
    screen("linear2", z)
    y, ln_vjp, ln_saved = _ln_forward(z.reshape(a.shape), ln_gain, ln_bias, eps)
    del z
    y += a
    screen("residual_ln", y)
    out = _screened(y)
    if th is None:
        return out

    def vjp(g):
        gz, g_gain, g_bias = ln_vjp(g)
        gzf = gz.reshape(-1, d)
        gh = gzf @ dw2.T
        h = hidden_layer()
        _gelu_tiles_vjp(h, th, gh)  # h is the GELU output after it
        gw2, gb2 = h.T @ gzf, gzf.sum(axis=0)
        del h
        gx, gw1, gb1 = _affine_vjp(flat, a.shape, dw1, gh)
        gx += g  # the residual's gradient plus the first linear's
        return gx, gw1, gb1, gw2, gb2, g_gain, g_bias

    return _record(out, inputs, vjp, (th,) + ln_saved)


def cross_entropy(logits, target_ids: np.ndarray, pad_id: int = 0) -> Tensor:
    """Mean token negative log-likelihood over non-pad target positions, as
    one op, for logits [..., V] and targets of the matching leading shape.

    A position's loss is its max-shifted log-sum-exp minus its target's
    logit, and its gradient is softmax minus one-hot, times the upstream
    gradient. Forward and vjp do the arithmetic of the unfused chain
    (log-sum-exp, pick, subtract, mask, sum, scale) in its order, so the
    bits are that chain's.
    """
    a = _data(logits)
    targets = np.asarray(target_ids, dtype=np.int64)
    if a.ndim < 2 or targets.shape != a.shape[:-1]:
        raise ShapeError(f"cross_entropy: logits {a.shape} vs targets {targets.shape}")
    flat = a.reshape(-1, a.shape[-1])
    targets = targets.reshape(-1)
    keep = targets != pad_id
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise UsageError("cross_entropy: all target positions are padding")
    idx = np.where(keep, targets, 0)
    if idx.min() < 0 or idx.max() >= flat.shape[1]:
        raise UsageError(f"cross_entropy: target out of range [0, {flat.shape[1]})")
    rows = np.arange(len(flat))
    keepf = keep.astype(np.float64)
    c = 1.0 / n_keep
    m = flat.max(axis=-1, keepdims=True)
    p = np.exp(flat - m)
    s = p.sum(axis=-1, keepdims=True)
    nll = (m + np.log(s)).squeeze(-1) - flat[rows, idx]
    out = _result("cross_entropy", np.sum(nll * keepf).reshape(()) * c, (logits,))
    p /= s

    def vjp(g):
        gn = np.broadcast_to(g * c, keep.shape) * keepf
        gx = np.zeros_like(p)
        gx[rows, idx] -= gn  # the target's share first, then the softmax's
        gx += np.multiply(p, gn[:, None], out=p)  # p is read by this pass only
        return (gx.reshape(a.shape),)

    return _record(out, (logits,), vjp, (p,))
