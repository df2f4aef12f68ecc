"""The hierarchical encoder-decoder.

Encoding runs in three stages over token states of shape [N, d_model]:

1. bottom-up: N1 layers of windowed local self-attention + feed-forward,
   so each token sees at most n_bottom_up * window/2 positions of context;
2. segment level: token states are pooled into M overlapping fixed-length
   segments which are updated by N2 layers of full self-attention;
3. top-down: N3 layers in which tokens attend the segment states through
   cross-attention (or a concatenation projection in the ablation variant),
   injecting document-global context back into every position.

Every encoder layer of every stage is one block: self-attention under the
stage's window (none for segments), the top-down update where the layer has
one, and a feed-forward sublayer. With ``topdown_mode="none"`` only stage 1
runs, and the other stages' parameters are not built.

A standard causal decoder attends the final token states only. Every
sublayer has the form ``x + LayerNorm(branch)``: the residual stream is
never normalized, so a zero-weight branch is exactly the identity.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import ops
from .attention import (
    AttentionConfig,
    AttentionParams,
    MaskSpec,
    OpCounter,
    attend,
    band_popcount,
    build_mask,
    cross_attention_topdown,
    init_attention_params,
    local_self_attention,
    project_heads,
)
from .pooling import (
    SegmentationSpec,
    labels_to_weights,
    pool_average,
    pool_weighted,
)
from .rng import RngStream
from .tensor import ConfigError, Parameter, ShapeError, Tensor, UsageError, recording

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2

LN_EPS = 1e-5
# Branch layer-norm gains start small so the residual stream is dominated by
# token content rather than normalized init noise; the gains are trainable
# and grow as branches become useful.
BRANCH_GAIN_INIT = 0.1

POOLING_MODES = ("avg", "ada", "oracle_ada")
TOPDOWN_MODES = ("cross", "concat", "none")

# Value checks per ModelConfig field annotation; "X | None" also admits None.
_FIELD_CHECKS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 64
    d_model: int = 64
    n_heads: int = 4
    n_bottom_up: int = 2
    n_segment_layers: int = 1
    n_top_down: int = 1
    n_decoder_layers: int = 2
    window: int | None = 8
    kernel_size: int = 8
    stride: int = 6
    max_positions: int = 128
    ffn_mult: int = 4
    pooling_mode: str = "avg"
    topdown_mode: str = "cross"
    tie_output: bool = True

    def __post_init__(self):
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must be >= 4 (pad/bos/eos reserved)")
        if self.pooling_mode not in POOLING_MODES:
            raise ConfigError(f"pooling_mode must be one of {POOLING_MODES}")
        if self.topdown_mode not in TOPDOWN_MODES:
            raise ConfigError(f"topdown_mode must be one of {TOPDOWN_MODES}")
        if min(self.n_bottom_up, self.n_segment_layers, self.n_top_down,
               self.n_decoder_layers) < 0:
            raise ConfigError("layer counts must be non-negative")
        if self.max_positions < 1 or self.ffn_mult < 1:
            raise ConfigError("max_positions and ffn_mult must be positive")
        # Validate divisibility / window / segmentation eagerly.
        AttentionConfig(self.d_model, self.n_heads, self.window)
        SegmentationSpec(self.kernel_size, self.stride)

    @property
    def segmentation(self) -> SegmentationSpec:
        return SegmentationSpec(self.kernel_size, self.stride)

    @property
    def attention(self) -> AttentionConfig:
        return AttentionConfig(self.d_model, self.n_heads, self.window)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a mapping of fields, got {type(d).__name__}")
        types = {f.name: f.type for f in fields(ModelConfig)}
        unknown = set(d) - set(types)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in d.items():
            base, _, optional = types[name].partition(" | ")
            if not ((value is None and optional == "None") or _FIELD_CHECKS[base](value)):
                raise ConfigError(f"config field {name} must be {types[name]}, got {value!r}")
        return ModelConfig(**d)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def desk_config(**overrides) -> ModelConfig:
    """Small preset that trains in minutes on a CPU."""
    return replace(ModelConfig(), **overrides)


def paper_config(**overrides) -> ModelConfig:
    """Full-scale preset: 8 bottom-up / 4 top-down / 2 segment layers,
    12 decoder layers, window 1024, kernel 32, stride 24."""
    base = ModelConfig(
        vocab_size=50265,
        d_model=1024,
        n_heads=16,
        n_bottom_up=8,
        n_segment_layers=2,
        n_top_down=4,
        n_decoder_layers=12,
        window=1024,
        kernel_size=32,
        stride=24,
        max_positions=16384,
    )
    return replace(base, **overrides)


# -----------------------------------------------------------------------------
# Parameter bundles
# -----------------------------------------------------------------------------


@dataclass
class _LnParams:
    gain: Parameter
    bias: Parameter


@dataclass
class _FfnParams:
    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter
    ln: _LnParams


@dataclass
class _EncoderLayer:
    attn: AttentionParams
    ln_attn: _LnParams
    ffn: _FfnParams
    cross: AttentionParams | None = None
    ln_cross: _LnParams | None = None
    concat_w: Parameter | None = None
    concat_b: Parameter | None = None
    ln_concat: _LnParams | None = None


@dataclass
class _DecoderLayer:
    self_attn: AttentionParams
    ln_self: _LnParams
    cross: AttentionParams
    ln_cross: _LnParams
    ffn: _FfnParams


@dataclass
class _LayerKV:
    self_k: Tensor | None = None
    self_v: Tensor | None = None
    cross_k: Tensor | None = None
    cross_v: Tensor | None = None


class DecodeCache:
    """Keys and values that let :meth:`Model.decode` continue a prefix.

    Per decoder layer it holds the self-attention keys and values of the
    ``length`` positions decoded so far and the cross-attention keys and
    values of the encoder output, each [B, heads, positions, head_dim] with
    one row per batch row of the decode calls.
    """

    def __init__(self, n_layers: int):
        self.length = 0
        self.batch_shape: tuple = ()  # leading shape of the decoded ids
        self.layers = [_LayerKV() for _ in range(n_layers)]

    def select(self, rows) -> None:
        """Keep batch rows ``rows`` (in that order, repeats allowed), e.g.
        the parents of the beams a search step kept."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(self.batch_shape) != 1 or rows.ndim != 1 or (
            rows.size and (rows.min() < 0 or rows.max() >= self.batch_shape[0])
        ):
            raise UsageError(f"cannot select rows {rows.tolist()} of a batch {self.batch_shape}")
        self.batch_shape = rows.shape
        for kv in self.layers:
            for f in fields(kv):
                t = getattr(kv, f.name)
                if t is not None:
                    setattr(kv, f.name, Tensor(t.data[rows]))


def token_segment_assignment(n_tokens: int, spec: SegmentationSpec) -> np.ndarray:
    """For each token, the covering segment with the nearest window center
    (ties to the lower segment index).

    Segment j is centred at j*stride + (kernel-1)/2, so the nearest centre
    to token i is j = round((i - (kernel-1)/2) / stride) with halves rounded
    down, (2i - kernel + stride) // (2*stride) in integers. The segments
    covering i are those with i - kernel < j*stride <= i; distance to the
    centre is convex in j, so the nearest covering segment is that j clipped
    into the covering range.
    """
    i = np.arange(n_tokens, dtype=np.int64)
    k, d = spec.kernel, spec.stride
    nearest = (2 * i - k + d) // (2 * d)
    first = np.maximum(0, (i - k) // d + 1)  # lowest j with j*d > i - k
    last = np.minimum(i // d, spec.n_segments(n_tokens) - 1)
    return np.clip(nearest, first, last)


def top_down_concat_update(e, segs, assignment, proj_w, proj_b, ln: _LnParams,
                           eps: float = LN_EPS):
    """Concat ablation update: e + LN(proj([e_i ; s_assign(i)]))."""
    cat = ops.concat([e, ops.take_rows(segs, assignment)], axis=-1)
    return ops.residual_ln(e, ops.linear(cat, proj_w, proj_b), ln.gain, ln.bias, eps)


def _residual(x, branch, ln: _LnParams):
    """x + LayerNorm(branch): the residual stream itself is never normalized."""
    return ops.residual_ln(x, branch, ln.gain, ln.bias, LN_EPS)


# -----------------------------------------------------------------------------
# Model
# -----------------------------------------------------------------------------


class Model:
    """Owns all parameters and the forward/decode/generate surface.

    Construction is deterministic in (config, seed); the parameter registry
    preserves creation order so training and checkpointing are reproducible.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Parameter] = {}
        self.init_std = 1.0 / math.sqrt(config.d_model)
        rng = RngStream(seed).split("init")
        c = config

        # Without top-down inference the segment stage and the top-down layers
        # never run, so their parameters are not built.
        hierarchical = c.topdown_mode != "none"

        self.tok_emb = self._emb(rng, "embed.token", (c.vocab_size, c.d_model))
        self.pos_enc = self._emb(rng, "embed.pos_enc", (c.max_positions, c.d_model))
        self.pos_dec = self._emb(rng, "embed.pos_dec", (c.max_positions, c.d_model))
        self.pos_seg = None
        if hierarchical:
            m = c.segmentation.n_segments(c.max_positions)
            self.pos_seg = self._emb(rng, "embed.pos_seg", (m, c.d_model))
        self.out_w = None
        if not c.tie_output:
            self.out_w = self._emb(rng, "out.weight", (c.d_model, c.vocab_size))

        self.bottom_up = [
            self._encoder_layer(rng, f"bottom_up.{i}") for i in range(c.n_bottom_up)
        ]
        self.segment_layers = [
            self._encoder_layer(rng, f"segment.{i}")
            for i in range(c.n_segment_layers if hierarchical else 0)
        ]
        self.top_down = [
            self._encoder_layer(rng, f"top_down.{i}", c.topdown_mode)
            for i in range(c.n_top_down if hierarchical else 0)
        ]
        self.decoder = [
            self._decoder_layer(rng, f"decoder.{i}") for i in range(c.n_decoder_layers)
        ]

    # -- construction helpers -------------------------------------------------

    def _register(self, p: Parameter) -> Parameter:
        if p.name in self.params:
            raise ConfigError(f"duplicate parameter name {p.name}")
        self.params[p.name] = p
        return p

    def _emb(self, rng, name, shape) -> Parameter:
        return self._register(
            Parameter(name, rng.split(name).normal(shape, std=self.init_std))
        )

    def _ln(self, prefix) -> _LnParams:
        d = self.config.d_model
        return _LnParams(
            gain=self._register(
                Parameter(f"{prefix}.gain", np.full(d, BRANCH_GAIN_INIT))
            ),
            bias=self._register(Parameter(f"{prefix}.bias", np.zeros(d))),
        )

    def _attn(self, rng, prefix) -> AttentionParams:
        ap = init_attention_params(rng.split(prefix), self.config.d_model, prefix, self.init_std)
        for p in ap.all():
            self._register(p)
        return ap

    def _ffn(self, rng, prefix) -> _FfnParams:
        d = self.config.d_model
        hidden = d * self.config.ffn_mult
        r = rng.split(prefix)
        return _FfnParams(
            w1=self._register(Parameter(f"{prefix}.w1", r.split("w1").normal((d, hidden), std=self.init_std))),
            b1=self._register(Parameter(f"{prefix}.b1", np.zeros(hidden))),
            w2=self._register(Parameter(f"{prefix}.w2", r.split("w2").normal((hidden, d), std=1.0 / math.sqrt(hidden)))),
            b2=self._register(Parameter(f"{prefix}.b2", np.zeros(d))),
            ln=self._ln(f"{prefix}.ln"),
        )

    def _encoder_layer(self, rng, prefix, topdown: str = "none") -> _EncoderLayer:
        """Self-attention and FFN parameters, plus the top-down update's for
        a top-down layer (``topdown`` "cross" or "concat")."""
        layer = _EncoderLayer(
            attn=self._attn(rng, f"{prefix}.attn"),
            ln_attn=self._ln(f"{prefix}.ln_attn"),
            ffn=self._ffn(rng, f"{prefix}.ffn"),
        )
        if topdown == "cross":
            layer.cross = self._attn(rng, f"{prefix}.cross")
            layer.ln_cross = self._ln(f"{prefix}.ln_cross")
        if topdown == "concat":
            d = self.config.d_model
            r = rng.split(f"{prefix}.concat")
            layer.concat_w = self._register(
                Parameter(f"{prefix}.concat.w", r.normal((2 * d, d), std=1.0 / math.sqrt(2 * d)))
            )
            layer.concat_b = self._register(Parameter(f"{prefix}.concat.b", np.zeros(d)))
            layer.ln_concat = self._ln(f"{prefix}.ln_concat")
        return layer

    def _decoder_layer(self, rng, prefix) -> _DecoderLayer:
        return _DecoderLayer(
            self_attn=self._attn(rng, f"{prefix}.self_attn"),
            ln_self=self._ln(f"{prefix}.ln_self"),
            cross=self._attn(rng, f"{prefix}.cross"),
            ln_cross=self._ln(f"{prefix}.ln_cross"),
            ffn=self._ffn(rng, f"{prefix}.ffn"),
        )

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def encoder_params(self) -> dict[str, Parameter]:
        """The parameters :meth:`encode` reads: all but the decoder side."""
        return {
            name: p for name, p in self.params.items()
            if not name.startswith(("decoder.", "embed.pos_dec", "out.weight"))
        }

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- forward stages --------------------------------------------------------

    def embed(self, token_ids) -> Tensor:
        """Token plus learned absolute position embeddings.

        Accepts one sequence [N] or a same-length batch [B, N].
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim not in (1, 2):
            raise UsageError("embed expects [N] or [B, N] token ids")
        n = ids.shape[-1]
        if n < 1 or ids.size < 1:
            raise UsageError("cannot embed an empty sequence")
        if n > self.config.max_positions:
            raise UsageError(
                f"sequence length {n} exceeds max_positions {self.config.max_positions}"
            )
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise UsageError(
                f"token id out of range [0, {self.config.vocab_size})"
            )
        tok = ops.embedding(self.tok_emb, ids)
        pos = ops.embedding(self.pos_enc, np.arange(n))
        return ops.add(tok, pos)

    def _ffn_sublayer(self, x, ffn: _FfnParams):
        return ops.ffn_block(x, ffn.w1, ffn.b1, ffn.w2, ffn.b2, ffn.ln.gain, ffn.ln.bias, LN_EPS)

    def _encoder_blocks(self, x, layers, cfg: AttentionConfig, counter,
                        segs=None, assign=None) -> Tensor:
        """Run each layer as one encoder block: self-attention under
        ``cfg``, then the top-down update the layer has parameters for
        (cross-attention to ``segs``, or the concat projection of each
        token's ``assign``-ed segment), then the FFN. Each step rebinds
        ``x``, so a step's input is freed as soon as the next one runs."""
        for layer in layers:
            x = _residual(x, local_self_attention(x, layer.attn, cfg, counter), layer.ln_attn)
            if layer.cross is not None:
                x = cross_attention_topdown(
                    x, segs, layer.cross, layer.ln_cross.gain, layer.ln_cross.bias,
                    cfg, counter, LN_EPS,
                )
            elif layer.concat_w is not None:
                x = top_down_concat_update(
                    x, segs, assign, layer.concat_w, layer.concat_b, layer.ln_concat, LN_EPS
                )
            x = self._ffn_sublayer(x, layer.ffn)
        return x

    def encode_bottom_up(self, x, counter: OpCounter | None = None) -> Tensor:
        """N1 blocks of local self-attention + feed-forward."""
        return self._encoder_blocks(x, self.bottom_up, self.config.attention, counter)

    def _resolve_pool_weights(self, shape, weights, labels) -> np.ndarray | None:
        mode = self.config.pooling_mode
        if mode == "avg":
            return None
        if mode == "oracle_ada":
            if labels is None:
                raise ConfigError("pooling_mode=oracle_ada requires per-token labels")
            return labels_to_weights(np.asarray(labels))
        if weights is None:
            raise ConfigError("pooling_mode=ada requires per-token importance weights")
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != shape:
            raise UsageError(f"expected importance weights of shape {shape}, got {w.shape}")
        return w

    def encode_segments(self, x, counter: OpCounter | None = None,
                        weights=None, labels=None) -> Tensor:
        """Pool token states into segments and run N2 full-attention blocks."""
        if self.pos_seg is None:
            raise UsageError('topdown_mode="none" has no segment stage')
        spec = self.config.segmentation
        p = self._resolve_pool_weights(x.shape[:-1], weights, labels)
        segs = pool_average(x, spec) if p is None else pool_weighted(x, p, spec)
        m = segs.shape[-2]
        segs = ops.add(segs, ops.embedding(self.pos_seg, np.arange(m)))
        full = AttentionConfig(self.config.d_model, self.config.n_heads)
        return self._encoder_blocks(segs, self.segment_layers, full, counter)

    def encode_top_down(self, x, segs, counter: OpCounter | None = None) -> Tensor:
        """N3 blocks of local attention, the top-down update from the segment
        states (token-segment cross-attention, or the concat ablation's
        projection of [token ; nearest covering segment]), and FFN."""
        assign = None
        if self.config.topdown_mode == "concat":
            assign = token_segment_assignment(x.shape[-2], self.config.segmentation)
        return self._encoder_blocks(x, self.top_down, self.config.attention, counter, segs, assign)

    def encode(self, token_ids, counter: OpCounter | None = None,
               weights=None, labels=None) -> Tensor:
        """Full encoder pass; ``topdown_mode="none"`` stops after bottom-up."""
        x = self.encode_bottom_up(self.embed(token_ids), counter)
        if self.config.topdown_mode == "none":
            return x
        segs = self.encode_segments(x, counter, weights=weights, labels=labels)
        return self.encode_top_down(x, segs, counter)

    # -- decoder ----------------------------------------------------------------

    def decode(self, prefix_ids, enc_out, counter: OpCounter | None = None,
               cache: DecodeCache | None = None) -> Tensor:
        """Next-token logits at every prefix position under a causal mask.

        Accepts one prefix [T] or a batch [B, T] aligned with batched encoder
        output [B, N, d]. With ``cache``, the ids continue the
        ``cache.length`` positions that earlier calls decoded: only the new
        positions run, attending the cached keys and values, and the cache
        is extended with theirs. Its cross-attention keys and values are
        projected from ``enc_out`` on the first call and reused after.
        """
        ids = np.asarray(prefix_ids, dtype=np.int64)
        if ids.ndim not in (1, 2):
            raise UsageError("decode expects [T] or [B, T] prefix ids")
        t = ids.shape[-1]
        if t < 1:
            raise UsageError("decoder prefix must be non-empty")
        past = 0 if cache is None else cache.length
        if past + t > self.config.max_positions:
            raise UsageError(
                f"prefix length {past + t} exceeds max_positions {self.config.max_positions}"
            )
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise UsageError(f"token id out of range [0, {self.config.vocab_size})")
        if past and ids.shape[:-1] != cache.batch_shape:
            raise ShapeError(
                f"prefix batch {ids.shape[:-1]} != cached batch {cache.batch_shape}"
            )
        y = ops.add(
            ops.embedding(self.tok_emb, ids),
            ops.embedding(self.pos_dec, np.arange(past, past + t)),
        )
        mask = build_mask(MaskSpec.causal(), t, past + t)
        for i, layer in enumerate(self.decoder):
            y = self._decoder_layer_forward(
                y, layer, enc_out, mask, counter, None if cache is None else cache.layers[i]
            )
        if cache is not None:
            cache.length += t
            cache.batch_shape = ids.shape[:-1]
        if self.out_w is not None:
            return ops.linear(y, self.out_w)
        logits = ops.matmul(
            ops.reshape(y, (-1, self.config.d_model)),
            ops.transpose(self.tok_emb, (1, 0)),
        )
        return ops.reshape(logits, y.shape[:-1] + (self.config.vocab_size,))

    def _decoder_layer_forward(self, y, layer: _DecoderLayer, enc_out, mask, counter,
                               kv: _LayerKV | None) -> Tensor:
        """Causal self-attention over the past and new positions, attention
        to the encoder output, feed-forward."""
        cfg = self.config.attention
        sa, ca = layer.self_attn, layer.cross
        q = project_heads(y, sa.wq, sa.bq, cfg)
        k = project_heads(y, sa.wk, sa.bk, cfg)
        v = project_heads(y, sa.wv, sa.bv, cfg)
        if kv is not None:
            if kv.self_k is not None:
                k = ops.concat([kv.self_k, k], axis=-2)
                v = ops.concat([kv.self_v, v], axis=-2)
            kv.self_k, kv.self_v = k, v
        y = _residual(y, attend(q, k, v, sa, cfg, mask, counter), layer.ln_self)
        q = project_heads(y, ca.wq, ca.bq, cfg)
        if kv is not None and kv.cross_k is not None:
            k, v = kv.cross_k, kv.cross_v
        else:
            k = project_heads(enc_out, ca.wk, ca.bk, cfg)
            v = project_heads(enc_out, ca.wv, ca.bv, cfg)
            if kv is not None:
                kv.cross_k, kv.cross_v = k, v
        y = _residual(y, attend(q, k, v, ca, cfg, None, counter), layer.ln_cross)
        return self._ffn_sublayer(y, layer.ffn)

    def generate(self, source_ids, max_len: int, strategy: str = "greedy",
                 beam_size: int = 1, eos_id: int = EOS_ID,
                 weights=None, labels=None,
                 counter: OpCounter | None = None) -> list[int]:
        """Emit up to ``max_len`` tokens for one source sequence [N]; the
        terminating eos, when produced, is included in the returned sequence.

        Greedy breaks ties toward the lowest token id; beam search is
        length-normalized and fully deterministic. Decoding is incremental:
        each step runs the decoder on the newest token only, through
        :meth:`decode` with a :class:`DecodeCache`, and all open beams step
        together as one batch. Nothing is recorded on an active tape.
        ``counter`` receives the encoder's score evaluations and, per step,
        ``rows * n_heads * n_decoder_layers * (t + 1 + N)`` for ``rows`` open
        beams after ``t`` earlier positions.
        """
        if max_len < 1:
            raise UsageError("max_len must be >= 1")
        if beam_size < 1:
            raise UsageError("beam_size must be >= 1")
        if np.ndim(source_ids) != 1:
            raise UsageError("generate expects one source sequence [N]")
        with recording(None):
            enc = self.encode(source_ids, counter, weights=weights, labels=labels)
            enc = ops.reshape(enc, (1,) + enc.shape)  # the batch of the first step
            if strategy == "greedy" or (strategy == "beam" and beam_size == 1):
                return self._greedy(enc, max_len, eos_id, counter)
            if strategy != "beam":
                raise UsageError(f"unknown generation strategy {strategy!r}")
            return self._beam(enc, max_len, beam_size, eos_id, counter)

    def _greedy(self, enc, max_len: int, eos_id: int, counter) -> list[int]:
        cache = DecodeCache(len(self.decoder))
        tok = BOS_ID
        out: list[int] = []
        for _ in range(max_len):
            logits = self.decode([[tok]], enc, counter, cache).data[0, -1]
            tok = int(np.argmax(logits))
            out.append(tok)
            if tok == eos_id:
                break
        return out

    def _beam(self, enc, max_len: int, beam_size: int, eos_id: int, counter) -> list[int]:
        cache = DecodeCache(len(self.decoder))
        # Hypotheses: (emitted ids, total logprob, finished). Open ones own
        # the cache rows, in list order.
        hyps = [((), 0.0, False)]
        for _ in range(max_len):
            last = [[ids[-1] if ids else BOS_ID] for ids, _, done in hyps if not done]
            if not last:
                break
            logits = self.decode(last, enc, counter, cache).data[:, -1]
            # Candidates carry the cache row of their parent (-1: finished).
            candidates = []
            row = 0
            for ids, logp, done in hyps:
                if done:
                    candidates.append((ids, logp, True, -1))
                    continue
                logprobs = logits[row] - _logsumexp(logits[row])
                top = np.argsort(-logprobs, kind="stable")[: beam_size]
                for tok in top:
                    tok = int(tok)
                    candidates.append(
                        (ids + (tok,), logp + float(logprobs[tok]), tok == eos_id, row)
                    )
                row += 1
            candidates.sort(key=lambda h: (-(h[1] / len(h[0])), h[0]))
            kept = candidates[:beam_size]
            cache.select([h[3] for h in kept if not h[2]])
            hyps = [h[:3] for h in kept]
        best = max(hyps, key=lambda h: (h[1] / max(1, len(h[0])), [-i for i in h[0]]))
        return list(best[0])


def _logsumexp(v: np.ndarray) -> float:
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).sum()))


# -----------------------------------------------------------------------------
# Score budgets for full passes
# -----------------------------------------------------------------------------


def encode_score_budget(config: ModelConfig, n_tokens: int) -> int:
    """Per-head score evaluations of one encoder forward pass.

    none:   N1 * B
    cross:  N1 * B + N2 * M^2 + N3 * (B + N * M)
    concat: N1 * B + N2 * M^2 + N3 * B
    where B is the band popcount for (N, window).
    """
    b = band_popcount(n_tokens, config.window)
    total = config.n_bottom_up * b
    if config.topdown_mode == "none":
        return total
    m = config.segmentation.n_segments(n_tokens)
    total += config.n_segment_layers * m * m
    if config.topdown_mode == "cross":
        total += config.n_top_down * (b + n_tokens * m)
    else:
        total += config.n_top_down * b
    return total


def decode_score_budget(config: ModelConfig, prefix_len: int, enc_len: int) -> int:
    """Per-head score evaluations of one decoder forward pass."""
    causal = prefix_len * (prefix_len + 1) // 2
    return config.n_decoder_layers * (causal + prefix_len * enc_len)
