"""Attention: one core, :func:`attend`, with a dense scorer and a banded
scorer, plus masks and exact score-evaluation accounting.

Every attention the model runs (bottom-up local, segment full, token-segment
cross, decoder self and cross) is the same sequence: ``ops.heads_in``
projects the inputs straight into heads, one op per distinct source (self
attention one, cross attention two), then :func:`attend` scores, takes the
softmax and the context, and ``ops.heads_out`` merges the heads and applies
the output projection as one op, and the counter is advanced. The scorers
take the 1/sqrt(head_dim) query scale themselves. The mask picks the
scorer. A band that leaves some pair out is one op, ``ops.band_attention``,
which never materializes an N x N score matrix, so live memory grows with
N * w; its blocked layout is known to ``ops`` alone. Everything else is
scored by ``ops.attention_probs``, which forms the scores, adds the mask
penalty and takes the softmax in one buffer, and a context product.
Masked slots get a -1e30 additive penalty whose exponent underflows to
exactly zero, meaning tokens outside the mask cannot influence a row even
at the bit level. :func:`multi_head_attention` and
:func:`local_self_attention` are thin entry points over the core.

The :class:`OpCounter` tallies query-key dot products per forward pass; the
increment equals the number of admitted query-key pairs summed over heads,
which :func:`count_budget` predicts in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ConfigError, Parameter, ShapeError, UsageError


def _check_window(window: int | None) -> None:
    """The one window rule: None (unbounded) or an even integer >= 2."""
    if window is not None and (window < 2 or window % 2 != 0):
        raise ConfigError(f"window must be None or even and >= 2, got {window}")


@dataclass(frozen=True)
class AttentionConfig:
    """Width, head count and local window for one attention stack."""

    d_model: int
    n_heads: int
    window: int | None = None  # None means unbounded (full attention)

    def __post_init__(self):
        if self.d_model <= 0 or self.n_heads <= 0:
            raise ConfigError("d_model and n_heads must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        _check_window(self.window)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


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
# Masks and budgets
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskSpec:
    """Admissibility pattern: band(w) or causal. No mask at all (None)
    admits every pair."""

    kind: str
    window: int | None = None

    @staticmethod
    def band(window: int) -> "MaskSpec":
        if window is None:
            raise ConfigError("a band mask needs a window")
        _check_window(window)
        return MaskSpec("band", window=window)

    @staticmethod
    def causal() -> "MaskSpec":
        return MaskSpec("causal")


def build_mask(spec: MaskSpec, n_rows: int, n_cols: int) -> np.ndarray:
    """Boolean admissibility matrix for ``spec``.

    A band admits columns j with |i - j| <= w/2, clipped to the sequence, so
    interior rows see w+1 positions and boundary rows fewer. A causal mask
    treats its rows as the last ``n_rows`` of ``n_cols`` positions: row i
    admits columns j <= i + n_cols - n_rows.
    """
    if n_rows < 1 or n_cols < 1:
        raise UsageError("mask dimensions must be >= 1")
    if spec.kind == "band":
        if n_rows != n_cols:
            raise UsageError("band masks are defined for square attention only")
        half = spec.window // 2
        i = np.arange(n_rows)[:, None]
        j = np.arange(n_cols)[None, :]
        return np.abs(i - j) <= half
    if spec.kind == "causal":
        if n_rows > n_cols:
            raise UsageError("causal masks need at least as many columns as rows")
        i = np.arange(n_rows)[:, None] + (n_cols - n_rows)
        j = np.arange(n_cols)[None, :]
        return j <= i
    raise UsageError(f"unknown mask kind {spec.kind!r}")


def band_popcount(n: int, window: int | None) -> int:
    """Number of admitted pairs in a band mask, without materializing it."""
    if n < 1:
        raise UsageError("sequence length must be >= 1")
    _check_window(window)
    if window is None or window >= 2 * (n - 1):
        return n * n
    half = window // 2
    i = np.arange(n, dtype=np.int64)
    lo = np.maximum(0, i - half)
    hi = np.minimum(n - 1, i + half)
    return int(np.sum(hi - lo + 1))


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

    def all(self) -> list[Parameter]:
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo]

    def pairs(self) -> tuple:
        """The (weight, bias) pairs of the query, key and value projections."""
        return (self.wq, self.bq), (self.wk, self.bk), (self.wv, self.bv)


def init_attention_params(rng, d_model: int, prefix: str, init_std: float = 0.02) -> AttentionParams:
    def w(name):
        return Parameter(f"{prefix}.{name}", rng.split(name).normal((d_model, d_model), std=init_std))

    def b(name):
        return Parameter(f"{prefix}.{name}", np.zeros(d_model))

    return AttentionParams(
        wq=w("wq"), bq=b("bq"), wk=w("wk"), bk=b("bk"),
        wv=w("wv"), bv=b("bv"), wo=w("wo"), bo=b("bo"),
    )


# -----------------------------------------------------------------------------
# Kernels
# -----------------------------------------------------------------------------


def attend(q, k, v, params: AttentionParams, config: AttentionConfig,
           mask: np.ndarray | MaskSpec | None, counter: OpCounter | None = None,
           return_weights: bool = False):
    """Scaled dot-product attention over already projected, head-split
    queries [..., heads, n, head_dim] and keys/values [..., heads, m,
    head_dim], followed by the head merge and output projection back to
    [..., n, d] (``ops.heads_out``). Every attention in the library runs
    here: score (the scorer scales the queries by 1/sqrt(head_dim)),
    softmax, context, output projection, count.

    ``mask`` is a boolean [n, m] array shared across leading axes and heads,
    a :class:`MaskSpec`, or None (every pair admitted). Masked pairs get an
    additive penalty whose exponent underflows to exactly zero. A band that
    leaves some pair out (w < 2(n-1)) goes to ``ops.band_attention``, one
    op from the heads to the context that never materializes anything
    n x n (live memory O(n * w)). Every other mask is scored densely,
    scores, penalty and softmax in one buffer. ``return_weights`` adds the
    [..., heads, n, m] attention weights (a copy; no gradient).
    """
    n = q.shape[-2]
    m = k.shape[-2]
    if m < 1:
        raise UsageError("attention requires at least one key")
    if v.shape[-2] != m or k.shape[:-2] != q.shape[:-2] or v.shape[:-2] != q.shape[:-2]:
        raise ShapeError("query/key/value leading shapes disagree")
    lead = q.shape[:-3]
    batch = math.prod(lead)
    h, dh = config.n_heads, config.head_dim
    window = None
    if isinstance(mask, MaskSpec):
        if mask.kind == "band" and n == m and mask.window < 2 * (n - 1):
            window, mask = mask.window, None
        else:
            mask = build_mask(mask, n, m)
    elif mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n, m):
            raise ShapeError(f"mask shape {mask.shape} != ({n}, {m})")
        if not mask.any(axis=1).all():
            raise UsageError("attention row with no admitted positions")
    scale = 1.0 / math.sqrt(dh)
    weights = None
    if window is None:
        bias = None if mask is None or mask.all() else ops.NEG_MASK * (~mask)
        probs = ops.attention_probs(q, k, bias, scale)
        ctx = ops.matmul(probs, v)
        if return_weights:
            weights = probs.data.copy()
        del probs  # the branch's largest array: free it before the projection
        pairs = int(mask.sum()) if mask is not None else n * m
    else:
        ctx = ops.band_attention(q, k, v, window, return_weights, scale)
        if return_weights:
            ctx, weights = ctx
        pairs = band_popcount(n, window)
    out = ops.heads_out(ctx, params.wo, params.bo)
    if counter is not None:
        counter.add(batch * h * pairs)
    return (out, weights) if return_weights else out


def multi_head_attention(q_in, k_in, v_in, params: AttentionParams, config: AttentionConfig,
                         mask: np.ndarray | MaskSpec | None, counter: OpCounter | None = None,
                         return_weights: bool = False):
    """Project [..., n, d] queries and [..., m, d] keys/values into heads and
    :func:`attend` under ``mask``. Neighbouring inputs that are one object
    share one ``ops.heads_in``: self-attention projects once, cross-attention
    twice (queries; keys and values). One head with identity projections
    reduces to plain softmax(q k^T / sqrt(d)) v."""
    sources, pairs, heads = (q_in, k_in, v_in), params.pairs(), []
    i = 0
    while i < 3:
        j = i + 1
        while j < 3 and sources[j] is sources[i]:
            j += 1
        heads += ops.heads_in(sources[i], pairs[i:j], config.n_heads)
        i = j
    return attend(*heads, params, config, mask, counter, return_weights)


def local_self_attention(x, params: AttentionParams, config: AttentionConfig,
                         counter: OpCounter | None = None, return_weights: bool = False):
    """Self-attention under ``config.window``: each token attends w/2
    neighbors per side plus itself, truncated at the boundaries; a window
    of None means full attention. A window that covers every pair
    (w >= 2(N-1)) is scored densely, bit-identical to full attention."""
    mask = None if config.window is None else MaskSpec.band(config.window)
    return multi_head_attention(x, x, x, params, config, mask, counter, return_weights)

