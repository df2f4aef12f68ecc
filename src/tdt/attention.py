"""Attention: one path, :func:`multi_head_attention`, for every attention
sublayer the model runs (bottom-up local, segment full, token-segment cross,
decoder self and cross); only the mask (a band's window, a boolean array,
or None) and the context differ.

``ops.heads_in`` projects straight into heads, one op per source (self
attention one, cross attention two); a layer's decode cache (``_LayerKV``,
the one owner of the cache layout) rebinds its self keys and values to
their concat with the new positions', or reuses the context's.
``ops.attention_block`` then turns the heads into the sublayer's output
x + LN(branch) as one op, over row tiles for a band or a context. A band
that leaves some pair out is scored blocked, never N x N, so live memory
grows with N * w. Masked slots get a
-1e30 additive penalty whose exponent underflows to exactly zero, so
tokens outside the mask cannot influence a row even at the bit level.

The :class:`OpCounter` tallies query-key dot products per forward pass; the
increment equals the number of admitted query-key pairs summed over heads,
which :func:`count_budget` predicts in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ConfigError, Parameter, ShapeError, Tensor, UsageError, _screened


def _check_window(window: int | None) -> None:
    """The one window rule: None (unbounded) or an even integer >= 2."""
    if window is not None and (window < 2 or window % 2 != 0):
        raise ConfigError(f"window must be None or even and >= 2, got {window}")


class OpCounter:
    """Monotone counter of query-key dot products, summed over heads."""

    __slots__ = ("score_evals",)

    def __init__(self):
        self.score_evals = 0

    def add(self, n: int) -> None:
        if n < 0:
            raise UsageError("OpCounter cannot decrease")
        self.score_evals += int(n)


# -----------------------------------------------------------------------------
# Budgets
# -----------------------------------------------------------------------------


def band_popcount(n: int, window: int | None) -> int:
    """Number of admitted pairs in a band of ``n`` positions, in closed
    form: n(w+1) - (w/2)(w/2+1) for a band that leaves some pair out
    (w < 2(n-1)), n^2 otherwise."""
    if n < 1:
        raise UsageError("sequence length must be >= 1")
    _check_window(window)
    if window is None or window >= 2 * (n - 1):
        return n * n
    half = window // 2
    return n * (window + 1) - half * (half + 1)


@dataclass(frozen=True)
class ScoreBudget:
    """Predicted score evaluations per head for one layer of each kind."""

    local: int
    segment: int
    cross: int


def count_budget(n_tokens: int, window: int | None, n_segments: int) -> ScoreBudget:
    """Exact per-head score counts: band popcount, segment^2, tokens*segments."""
    if n_tokens < 1 or n_segments < 0:
        raise UsageError("invalid budget dimensions")
    return ScoreBudget(
        local=band_popcount(n_tokens, window),
        segment=n_segments * n_segments,
        cross=n_tokens * n_segments,
    )


# -----------------------------------------------------------------------------
# Parameters
# -----------------------------------------------------------------------------


@dataclass
class AttentionParams:
    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter

    def pairs(self) -> tuple:
        """The (weight, bias) pairs of the query, key and value projections."""
        return (self.wq, self.bq), (self.wk, self.bk), (self.wv, self.bv)


def init_attention_params(rng, d_model: int, prefix: str, init_std: float = 0.02,
                          make=None) -> AttentionParams:
    """The eight projections ``{prefix}.wq`` .. ``{prefix}.bo``, each made by
    ``make(name, shape, draw)`` (a model's own) or ``Parameter(name, draw(shape))``."""
    if make is None:
        def make(name, shape, draw):
            return Parameter(name, draw(shape))

    def w(name):
        return make(f"{prefix}.{name}", (d_model, d_model),
                    lambda s: rng.split(name).normal(s, std=init_std))

    def b(name):
        return make(f"{prefix}.{name}", (d_model,), np.zeros)

    return AttentionParams(
        wq=w("wq"), bq=b("bq"), wk=w("wk"), bk=b("bk"),
        wv=w("wv"), bv=b("bv"), wo=w("wo"), bo=b("bo"),
    )


# -----------------------------------------------------------------------------
# Decode cache: one layer's keys and values
# -----------------------------------------------------------------------------


@dataclass
class _LayerKV:
    """One layer's cache for :func:`multi_head_attention`: the self keys
    and values of the positions seen so far, each [..., heads, positions,
    head_dim] (None before the first call), and the projected context's
    keys and values. Each is a plain tensor, never written after it is made:
    a step binds ``k`` and ``v`` to new tensors, so a reference taken
    earlier still holds the rows it held."""

    k: Tensor | None = None
    v: Tensor | None = None
    cross: tuple | None = None  # the context's keys and values

    def select(self, rows: np.ndarray) -> None:
        """Keep batch rows ``rows``; context keys and values of batch one serve them all."""
        if self.k is not None:
            self.k, self.v = _screened(self.k.data[rows]), _screened(self.v.data[rows])
        if self.cross is not None and self.cross[0].shape[0] > 1:
            self.cross = tuple(_screened(t.data[rows]) for t in self.cross)


# -----------------------------------------------------------------------------
# Kernels
# -----------------------------------------------------------------------------


def multi_head_attention(x, context, params: AttentionParams, ln, n_heads: int,
                         mask: int | np.ndarray | None, counter: OpCounter | None = None,
                         cache: _LayerKV | None = None):
    """The attention sublayer x + LN(attention of x [..., n, d] to itself
    (``context`` None) or to ``context`` [..., m, d]) under ``mask``, with
    ``ln`` its layer norm's (gain, bias). A batch-one context serves every
    batch row of x.

    ``mask`` is one of three things: a band window, an even int w >= 2
    that admits |i - j| <= w/2 and needs n == m (UsageError otherwise); a
    boolean [n, m] array shared across leading axes and heads; or None,
    every pair admitted. A band that leaves some pair out (w < 2(n-1)) is
    scored blocked, in O(n * w) memory; a wider one is scored as None.
    Attention to a context runs in tiles of query rows, and dense
    self-attention as one tile (``ops.attention_block``'s ``tiled``). A
    layer ``cache`` appends the new self keys and values to the cached ones
    (``ops.concat``), or projects the context's on its first call and
    reuses them; a later context must have the length and width of the
    first (ShapeError otherwise). ``counter`` gains the admitted pairs
    summed over heads and leading axes.
    """
    d = x.shape[-1]
    if n_heads < 1 or d % n_heads:
        raise ConfigError(f"width {d} does not split into {n_heads} heads")
    pairs = params.pairs()
    if context is None:
        q, k, v = ops.heads_in(x, pairs, n_heads)
        if cache is not None:
            if cache.k is not None:
                k = ops.concat([cache.k, k], axis=-2, swapped=True)  # heads_in's key layout
                v = ops.concat([cache.v, v], axis=-2)
            cache.k, cache.v = k, v
    else:
        (q,) = ops.heads_in(x, pairs[:1], n_heads)
        if cache is None:
            k, v = ops.heads_in(context, pairs[1:], n_heads)
        else:
            if cache.cross is None:
                cache.cross = ops.heads_in(context, pairs[1:], n_heads)
            k, v = cache.cross
            m, width = k.shape[-2], params.wk.shape[0]
            if context.shape[-2:] != (m, width):
                raise ShapeError(f"context rows and width {context.shape[-2:]} != the cached "
                                 f"context's {(m, width)}")
    *lead, h, n, dh = q.shape
    m = k.shape[-2]
    if m < 1:
        raise UsageError("attention requires at least one key")
    window = bias = None
    admitted = n * m
    if isinstance(mask, int):
        admitted = band_popcount(n, mask)
        if n != m:
            raise UsageError(f"a band of window {mask} needs square attention, got {n} x {m}")
        if mask < 2 * (n - 1):
            window = mask
    elif mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n, m):
            raise ShapeError(f"mask shape {mask.shape} != ({n}, {m})")
        if not mask.any(axis=1).all():
            raise UsageError("attention row with no admitted positions")
        admitted = int(mask.sum())
        if admitted < n * m:
            bias = ops.NEG_MASK * (~mask)
    gain, shift = ln
    out = ops.attention_block(x, q, k, v, params.wo, params.bo, gain, shift, bias, window,
                              1.0 / math.sqrt(dh), tiled=context is not None)
    if counter is not None:
        counter.add(math.prod(lead) * h * admitted)
    return out
