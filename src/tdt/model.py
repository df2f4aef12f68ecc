"""The hierarchical encoder-decoder.

Encoding runs in three stages over token states of shape [N, d_model]:

1. bottom-up: N1 layers of windowed local self-attention + feed-forward,
   so each token sees at most n_bottom_up * window/2 positions of context;
2. segment level: token states are pooled into M overlapping fixed-length
   segments which are updated by N2 layers of full self-attention;
3. top-down: N3 layers in which tokens attend the segment states through
   cross-attention, injecting document-global context back into every
   position.

A standard causal decoder attends the final token states only and reads
out through the token table (tied output weights). A model with
``n_decoder_layers=0`` is an encoder: it builds no decoder position table,
and its ``decode`` and ``generate`` raise :class:`UsageError`.

Every layer of all four stacks is one block: self-attention under the
stack's mask, an update from the stack's context where the layer has one,
and a feed-forward sublayer. The masks are the band (the config's window),
none, the band and causal (a boolean array) for bottom-up, segment, top-down
and decoder; the contexts are none, none, the segment states and the encoder
output, each attended by cross-attention. With ``topdown_mode="none"`` only
stage 1 runs, and the other stages' parameters are not built. Every
sublayer has the form ``x + LayerNorm(branch)``: the residual stream is
never normalized, so a zero-weight branch is exactly the identity.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import ops
from .attention import (
    AttentionParams,
    OpCounter,
    _LayerKV,
    _check_window,
    count_budget,
    init_attention_params,
    multi_head_attention,
)
from .pooling import (
    SegmentationSpec,
    labels_to_weights,
    pool_average,
    pool_weighted,
)
from .rng import RngStream
from .tensor import (
    ConfigError,
    Parameter,
    ShapeError,
    Tensor,
    UsageError,
    _keep_heap,
    _screened,
    recording,
)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2

# Branch layer-norm gains start small so the residual stream is dominated by
# token content rather than normalized init noise; the gains are trainable
# and grow as branches become useful.
BRANCH_GAIN_INIT = 0.1
FFN_MULT = 4  # feed-forward hidden width per model dimension

POOLING_MODES = ("avg", "ada", "oracle_ada")
TOPDOWN_MODES = ("cross", "none")

# Value checks per ModelConfig field annotation; "X | None" also admits None.
# An int field takes a Python int only: a bool is not a size, and a numpy
# integer does not serialize into the config hash or a checkpoint header.
_FIELD_CHECKS = {
    "int": lambda v: type(v) is int,
    "str": lambda v: isinstance(v, str),
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
    pooling_mode: str = "avg"
    topdown_mode: str = "cross"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            base, _, optional = f.type.partition(" | ")
            if not ((value is None and optional == "None") or _FIELD_CHECKS[base](value)):
                raise ConfigError(f"config field {f.name} must be {f.type}, got {value!r}")
        if self.vocab_size < 4:
            raise ConfigError(f"vocab_size must be >= 4 (pad/bos/eos reserved), "
                              f"got {self.vocab_size}")
        for name, modes in (("pooling_mode", POOLING_MODES), ("topdown_mode", TOPDOWN_MODES)):
            if getattr(self, name) not in modes:
                raise ConfigError(f"{name} must be one of {modes}, got {getattr(self, name)!r}")
        for name in ("n_bottom_up", "n_segment_layers", "n_top_down", "n_decoder_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("max_positions", "d_model", "n_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        _check_window(self.window)
        SegmentationSpec(self.kernel_size, self.stride)

    @property
    def segmentation(self) -> SegmentationSpec:
        return SegmentationSpec(self.kernel_size, self.stride)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a mapping of fields, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(ModelConfig)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
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
# Parameters
# -----------------------------------------------------------------------------


def make_param(name: str, shape: tuple, draw, arrays: dict | None = None) -> Parameter:
    """The one constructor of model parameters: ``Parameter(name,
    draw(shape))``, or given a table ``arrays`` its entry ``name``, popped,
    and nothing drawn. A table without ``name``, or whose entry has another
    shape, raises :class:`ConfigError`. The table's entries are float64
    arrays already screened finite, as :func:`~tdt.checkpoint.read_checkpoint`
    returns them, so they are wrapped without a second screen."""
    if arrays is None:
        return Parameter(name, draw(shape))
    if name not in arrays:
        raise ConfigError(f"parameter table mismatch: {name} missing")
    if arrays[name].shape != shape:
        raise ConfigError(f"parameter {name}: shape {arrays[name].shape} != expected {shape}")
    return Parameter(name, _screened(arrays.pop(name)))


class _LnParams(NamedTuple):
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
class _Layer:
    """One block: self-attention, cross-attention to a context where the
    layer has parameters for it, FFN."""

    self_attn: AttentionParams
    ln_self: _LnParams
    ffn: _FfnParams
    cross: AttentionParams | None = None
    ln_cross: _LnParams | None = None


class DecodeCache:
    """What lets :meth:`Model.decode` continue a prefix: the ``length``
    positions decoded so far, the ``batch_shape`` of the decoded ids, one
    :func:`~tdt.attention.multi_head_attention` cache per decoder layer
    (``layers``: self-attention keys and values, and the encoder output's
    cross-attention keys and values, with its batch: one serves all), and the
    readout its first call made (the transposed token table, which a step
    need not copy again). A layer holds exactly the decoded positions' keys
    and values, in tensors that are never written. A decode commits all four
    fields in one statement after its logits, so one that raises leaves the
    cache as it found it.
    """

    def __init__(self, n_layers: int):
        self.length = 0
        self.batch_shape: tuple = ()  # leading shape of the decoded ids
        self.layers = [_LayerKV() for _ in range(n_layers)]
        self.readout = None  # the transposed token table, once a call made it

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
            kv.select(rows)


# -----------------------------------------------------------------------------
# Model
# -----------------------------------------------------------------------------


class Model:
    """Owns all parameters and the forward/decode/generate surface.

    Construction is deterministic in (config, seed); the parameter registry
    preserves creation order so training and checkpointing are reproducible.
    With ``arrays`` (name -> array, e.g. a checkpoint's table) every
    parameter pops its entry there instead of drawing (:func:`make_param`).
    """

    def __init__(self, config: ModelConfig, seed: int = 0, arrays: dict | None = None):
        self.config = config
        self.params: dict[str, Parameter] = {}
        self.init_std = 1.0 / math.sqrt(config.d_model)
        self._arrays = arrays
        rng = RngStream(seed).split("init")
        c = config

        # Stages that never run build no parameters: without top-down
        # inference the segment stage and the top-down layers, without
        # decoder layers the decoder position table.
        hierarchical = c.topdown_mode != "none"

        # A table numpy cannot size (ValueError) or allocate (MemoryError)
        # is refused before any of it is written: the config is at fault.
        try:
            self.tok_emb = self._emb(rng, "embed.token", (c.vocab_size, c.d_model))
            self.pos_enc = self._emb(rng, "embed.pos_enc", (c.max_positions, c.d_model))
            self.pos_dec = None
            if c.n_decoder_layers > 0:
                self.pos_dec = self._emb(rng, "embed.pos_dec", (c.max_positions, c.d_model))
            self.pos_seg = None
            if hierarchical:
                m = c.segmentation.n_segments(c.max_positions)
                self.pos_seg = self._emb(rng, "embed.pos_seg", (m, c.d_model))

            self.bottom_up = [self._layer(rng, f"bottom_up.{i}") for i in range(c.n_bottom_up)]
            self.segment_layers = [
                self._layer(rng, f"segment.{i}")
                for i in range(c.n_segment_layers if hierarchical else 0)
            ]
            self.top_down = [
                self._layer(rng, f"top_down.{i}", cross=True)
                for i in range(c.n_top_down if hierarchical else 0)
            ]
            self.decoder = [
                self._layer(rng, f"decoder.{i}", cross=True, self_names=("self_attn", "ln_self"))
                for i in range(c.n_decoder_layers)
            ]
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"cannot allocate the parameter tables of this config: "
                              f"{type(exc).__name__}: {exc}") from exc
        del self._arrays

    # -- construction helpers -------------------------------------------------

    def _param(self, name, shape, draw) -> Parameter:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name}")
        self.params[name] = p = make_param(name, shape, draw, self._arrays)
        return p

    def _emb(self, rng, name, shape) -> Parameter:
        return self._param(name, shape, lambda s: rng.split(name).normal(s, std=self.init_std))

    def _ln(self, prefix) -> _LnParams:
        d = (self.config.d_model,)
        return _LnParams(
            gain=self._param(f"{prefix}.gain", d, lambda s: np.full(s, BRANCH_GAIN_INIT)),
            bias=self._param(f"{prefix}.bias", d, np.zeros),
        )

    def _attn(self, rng, prefix) -> AttentionParams:
        return init_attention_params(rng.split(prefix), self.config.d_model, prefix,
                                     self.init_std, make=self._param)

    def _ffn(self, rng, prefix) -> _FfnParams:
        d = self.config.d_model
        hidden = d * FFN_MULT
        r = rng.split(prefix)
        return _FfnParams(
            w1=self._param(f"{prefix}.w1", (d, hidden),
                           lambda s: r.split("w1").normal(s, std=self.init_std)),
            b1=self._param(f"{prefix}.b1", (hidden,), np.zeros),
            w2=self._param(f"{prefix}.w2", (hidden, d),
                           lambda s: r.split("w2").normal(s, std=1.0 / math.sqrt(hidden))),
            b2=self._param(f"{prefix}.b2", (d,), np.zeros),
            ln=self._ln(f"{prefix}.ln"),
        )

    def _layer(self, rng, prefix, cross: bool = False,
               self_names: tuple[str, str] = ("attn", "ln_attn")) -> _Layer:
        """One block's parameters: self-attention and its layer norm under
        ``self_names`` (decoder layers are named "self_attn" and "ln_self"),
        the FFN, and with ``cross`` the cross-attention and its layer norm."""
        attn, ln = self_names
        layer = _Layer(
            self_attn=self._attn(rng, f"{prefix}.{attn}"),
            ln_self=self._ln(f"{prefix}.{ln}"),
            ffn=self._ffn(rng, f"{prefix}.ffn"),
        )
        if cross:
            layer.cross = self._attn(rng, f"{prefix}.cross")
            layer.ln_cross = self._ln(f"{prefix}.ln_cross")
        return layer

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    # -- forward stages --------------------------------------------------------

    def embed(self, token_ids) -> Tensor:
        """Token plus learned absolute position embeddings.

        Accepts one sequence [N] or a same-length batch [B, N].
        """
        return self._embed_ids(token_ids, self.pos_enc, 0, "source")

    def _ids(self, token_ids, side: str) -> np.ndarray:
        """``token_ids`` as a non-empty int64 array [T] or [B, T] of ids in the
        vocabulary, or UsageError naming ``side`` ("source" or "prefix"), also
        for ragged rows, an int past 64 bits, or a float or bool dtype."""
        try:
            ids = np.asarray(token_ids)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{side} ids are not an array of integers: {exc}") from None
        if ids.ndim not in (1, 2):
            raise UsageError(f"{side} ids must be [T] or [B, T], got shape {ids.shape}")
        if ids.size < 1:
            raise UsageError(f"{side} must be non-empty, got shape {ids.shape}")
        if ids.dtype.kind not in "iu":
            raise UsageError(f"{side} ids must be integers, got dtype {ids.dtype}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise UsageError(f"{side} token id out of range [0, {self.config.vocab_size})")
        return ids.astype(np.int64, copy=False)

    def _embed_ids(self, token_ids, pos_table: Parameter, start: int, side: str) -> Tensor:
        """Token embeddings of ids [T] or [B, T] (:meth:`_ids`) plus rows
        start .. start+T-1 of ``pos_table``: the one input path of encoder
        and decoder."""
        ids = self._ids(token_ids, side)
        t = ids.shape[-1]
        if start + t > self.config.max_positions:
            raise UsageError(
                f"{side} length {start + t} exceeds max_positions {self.config.max_positions}"
            )
        return ops.add_rows(ops.gather_rows(self.tok_emb, ids), pos_table, start)

    def _blocks(self, x, layers, mask, counter, context=None, kvs=None):
        """Run each layer as one block: self-attention under ``mask``, then
        cross-attention to ``context`` where the layer has parameters for
        it, then the FFN, and yield the layer's output. With the
        layer caches ``kvs``, layer i reads and extends ``kvs[i]``. Each step
        rebinds ``x``, and each caller rebinds its own input to each output
        (``for x in self._blocks(x, ...)``), so the stack's input is freed
        after the first layer instead of staying alive in the caller."""
        mha, h = multi_head_attention, self.config.n_heads
        for i, layer in enumerate(layers):
            kv = None if kvs is None else kvs[i]
            x = mha(x, None, layer.self_attn, layer.ln_self, h, mask, counter, kv)
            if layer.cross is not None:
                x = mha(x, context, layer.cross, layer.ln_cross, h, None, counter, kv)
            f = layer.ffn
            x = ops.ffn_block(x, f.w1, f.b1, f.w2, f.b2, f.ln.gain, f.ln.bias)
            yield x

    def encode_bottom_up(self, x, counter: OpCounter | None = None) -> Tensor:
        """N1 blocks of local self-attention + feed-forward."""
        for x in self._blocks(x, self.bottom_up, self.config.window, counter):
            pass
        return x

    def _refuse_unread_pool_inputs(self, weights, labels) -> None:
        """ConfigError for a pooling input that ``pooling_mode`` does not
        read: ``weights`` outside ada, ``labels`` outside oracle_ada."""
        mode = self.config.pooling_mode
        for name, value, reader in (("weights", weights, "ada"), ("labels", labels, "oracle_ada")):
            if value is not None and mode != reader:
                raise ConfigError(f"pooling_mode={mode} does not read {name}")

    def _resolve_pool_weights(self, weights, labels) -> np.ndarray | None:
        self._refuse_unread_pool_inputs(weights, labels)
        mode = self.config.pooling_mode
        if mode == "avg":
            return None
        if mode == "oracle_ada":
            if labels is None:
                raise ConfigError("pooling_mode=oracle_ada requires per-token labels")
            return labels_to_weights(np.asarray(labels))
        if weights is None:
            raise ConfigError("pooling_mode=ada requires per-token importance weights")
        return weights

    def encode_segments(self, x, counter: OpCounter | None = None,
                        weights=None, labels=None) -> Tensor:
        """Pool token states into segments and run N2 full-attention blocks."""
        if self.pos_seg is None:
            raise UsageError('topdown_mode="none" has no segment stage')
        spec = self.config.segmentation
        p = self._resolve_pool_weights(weights, labels)
        segs = pool_average(x, spec) if p is None else pool_weighted(x, p, spec)
        segs = ops.add_rows(segs, self.pos_seg)
        for segs in self._blocks(segs, self.segment_layers, None, counter):
            pass
        return segs

    def encode_top_down(self, x, segs, counter: OpCounter | None = None) -> Tensor:
        """N3 blocks of local attention, token-segment cross-attention and
        FFN."""
        if not self.top_down:
            return x
        blocks = self._blocks(x, self.top_down, self.config.window, counter, segs)
        del x  # the stack frees its input after its first sublayer, not its first layer
        for x in blocks:
            pass
        return x

    def encode(self, token_ids, counter: OpCounter | None = None,
               weights=None, labels=None) -> Tensor:
        """Full encoder pass; ``topdown_mode="none"`` stops after bottom-up.
        A pooling input that ``pooling_mode`` does not read is refused
        (ConfigError) whatever the top-down mode. A process's first encode
        applies the heap policy of ``tensor._keep_heap``. The bottom-up
        output is handed to the top-down stack, so this frame keeps no
        reference to it."""
        self._refuse_unread_pool_inputs(weights, labels)
        _keep_heap()
        xs = [self.encode_bottom_up(self.embed(token_ids), counter)]
        if self.config.topdown_mode == "none":
            return xs.pop()
        segs = self.encode_segments(xs[0], counter, weights=weights, labels=labels)
        return self.encode_top_down(xs.pop(), segs, counter)

    # -- decoder ----------------------------------------------------------------

    def decode(self, prefix_ids, enc_out, counter: OpCounter | None = None,
               cache: DecodeCache | None = None) -> Tensor:
        """Next-token logits at every prefix position under a causal mask.

        Accepts one prefix [T] or a batch [B, T] aligned with batched encoder
        output [B, N, d]. With ``cache``, the ids continue the
        ``cache.length`` positions that earlier calls decoded: only the new
        positions run, attending the cached keys and values, and the cache
        is extended with theirs. Its cross-attention keys and values are
        projected from ``enc_out`` on the first call and reused after (a
        later ``enc_out`` of another length or width raises ShapeError),
        and so is the readout. A one-position step attends every
        cached position, so it builds no causal mask. The blocks extend
        copies of the layer caches, and the cache commits them only after
        the logits are made, so a call that raises leaves it untouched. A
        cache built for another number of decoder layers raises UsageError.
        """
        if self.pos_dec is None:
            raise UsageError("n_decoder_layers=0: the model has no decoder")
        if cache is not None and len(cache.layers) != len(self.decoder):
            raise UsageError(f"cache holds {len(cache.layers)} decoder layers, "
                             f"the model has {len(self.decoder)}")
        past = 0 if cache is None else cache.length
        y = self._embed_ids(prefix_ids, self.pos_dec, past, "prefix")
        batch, t = y.shape[:-2], y.shape[-2]
        if past and batch != cache.batch_shape:
            raise ShapeError(f"prefix batch {batch} != cached batch {cache.batch_shape}")
        mask = None if t == 1 else np.tri(t, past + t, past, dtype=bool)
        kvs = None if cache is None else [replace(kv) for kv in cache.layers]
        for y in self._blocks(y, self.decoder, mask, counter, enc_out, kvs=kvs):
            pass
        w = None if cache is None else cache.readout
        if w is None:
            w = ops.transpose(self.tok_emb, (1, 0))
        logits = ops.linear(y, w)
        if cache is not None:
            cache.layers, cache.length, cache.batch_shape, cache.readout = kvs, past + t, batch, w
        return logits

    def generate(self, source_ids, max_len: int, strategy: str = "greedy",
                 beam_size: int = 1, eos_id: int = EOS_ID,
                 weights=None, labels=None,
                 counter: OpCounter | None = None) -> list[int]:
        """Emit up to ``max_len`` (at most ``max_positions``) tokens for one
        source sequence [N]; a terminating eos is included in the output.

        Greedy breaks ties toward the lowest token id; beam search is
        length-normalized and fully deterministic; ``beam_size`` above 1
        needs ``strategy="beam"``. Decoding is incremental:
        each step runs the decoder on the newest token only, through
        :meth:`decode` with a :class:`DecodeCache`, and all open beams step
        together as one batch. Nothing is recorded on an active tape.
        ``counter`` receives the encoder's score evaluations and, per step,
        ``rows * n_heads * n_decoder_layers * (t + 1 + N)`` for ``rows`` open
        beams after ``t`` earlier positions.
        """
        if self.pos_dec is None:  # before the encode, which would be wasted
            raise UsageError("n_decoder_layers=0: the model has no decoder")
        if not 1 <= max_len <= self.config.max_positions:
            raise UsageError(f"max_len must be >= 1 and <= max_positions "
                             f"{self.config.max_positions}, got {max_len}")
        if beam_size < 1:
            raise UsageError("beam_size must be >= 1")
        if strategy not in ("greedy", "beam"):
            raise UsageError(f"unknown generation strategy {strategy!r}")
        if strategy == "greedy" and beam_size != 1:
            raise UsageError(f"beam_size={beam_size} needs strategy 'beam', not 'greedy'")
        source_ids = self._ids(source_ids, "source")
        if source_ids.ndim != 1:
            raise UsageError("generate expects one source sequence [N]")
        with recording(None):
            enc = self.encode(source_ids, counter, weights=weights, labels=labels)
            enc = ops.reshape(enc, (1,) + enc.shape)  # the batch of the first step
            if beam_size == 1:
                return self._greedy(enc, max_len, eos_id, counter)
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
            # every open row's log-probabilities and best tokens at once
            peak = logits.max(axis=-1, keepdims=True)
            logprobs = logits - (peak + np.log(np.exp(logits - peak).sum(axis=-1, keepdims=True)))
            tops = np.argsort(-logprobs, axis=-1, kind="stable")[:, :beam_size].tolist()
            # Candidates carry the cache row of their parent (-1: finished).
            candidates = []
            row = 0
            for ids, logp, done in hyps:
                if done:
                    candidates.append((ids, logp, True, -1))
                    continue
                for tok in tops[row]:
                    candidates.append(
                        (ids + (tok,), logp + float(logprobs[row, tok]), tok == eos_id, row)
                    )
                row += 1
            candidates.sort(key=lambda h: (-(h[1] / len(h[0])), h[0]))
            kept = candidates[:beam_size]
            cache.select([h[3] for h in kept if not h[2]])
            hyps = [h[:3] for h in kept]
        best = max(hyps, key=lambda h: (h[1] / max(1, len(h[0])), [-i for i in h[0]]))
        return list(best[0])


# -----------------------------------------------------------------------------
# Score budgets for full passes
# -----------------------------------------------------------------------------


def encode_score_budget(config: ModelConfig, n_tokens: int) -> int:
    """Per-head score evaluations of one encoder forward pass, from
    :func:`count_budget`'s per-layer counts (B local, M^2 segment, N * M
    cross):

    none:  N1 * B
    cross: N1 * B + N2 * M^2 + N3 * (B + N * M)
    """
    b = count_budget(n_tokens, config.window, config.segmentation.n_segments(n_tokens))
    total = config.n_bottom_up * b.local
    if config.topdown_mode == "none":
        return total
    return total + config.n_segment_layers * b.segment + config.n_top_down * (b.local + b.cross)
