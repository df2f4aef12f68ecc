"""Encoder stages, decoder, generation, and the complexity ledger."""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

import tdt
from tdt import (
    BOS_ID,
    EOS_ID,
    ConfigError,
    Model,
    ModelConfig,
    OpCounter,
    RngStream,
    UsageError,
    band_popcount,
    desk_config,
    encode_score_budget,
)
from tdt import ops
from tdt.ops import LN_EPS
from tdt.tensor import Tape, Tensor, Parameter, recording
from helpers import layer_norm_oracle


def _ids(rng, n, cfg):
    return rng.randint(3, cfg.vocab_size, n)


def _cfg(**kw):
    return desk_config(**kw)


# -----------------------------------------------------------------------------
# embed
# -----------------------------------------------------------------------------


def test_embed_zero_tables_gives_zero_states():
    m = Model(_cfg(), seed=0)
    m.tok_emb.value.data[...] = 0.0
    m.pos_enc.value.data[...] = 0.0
    out = m.embed([3, 4, 5])
    np.testing.assert_array_equal(out.data, np.zeros((3, 64)))


def test_embed_same_id_differs_only_by_position_delta():
    m = Model(_cfg(), seed=1)
    out = m.embed([7, 7]).data
    delta = m.pos_enc.value.data[1] - m.pos_enc.value.data[0]
    np.testing.assert_allclose(out[1] - out[0], delta, atol=1e-15)


def test_embed_deterministic_per_seed():
    a = Model(_cfg(), seed=5).embed([3, 9, 11]).data
    b = Model(_cfg(), seed=5).embed([3, 9, 11]).data
    np.testing.assert_array_equal(a, b)


def test_embed_input_validation():
    m = Model(_cfg(), seed=0)
    with pytest.raises(UsageError):
        m.embed([m.config.vocab_size])
    with pytest.raises(UsageError):
        m.embed(list(range(3, 3 + m.config.max_positions + 1)))
    with pytest.raises(UsageError):
        m.embed([])


@pytest.mark.parametrize(
    "ids, message",
    [([[[3]]], r"ids must be \[T\] or \[B, T\]"), (np.zeros((2, 0)), "must be non-empty"),
     (np.zeros((0, 3)), "must be non-empty"), ([3] * 17, "length 17 exceeds max_positions 16"),
     ([3, 64], r"token id out of range \[0, 64\)"), ([-1], "token id out of range")],
    ids=["rank", "empty-sequence", "empty-batch", "too-long", "past-vocab", "negative"],
)
def test_encoder_and_decoder_refuse_bad_ids_naming_their_side(ids, message):
    m = Model(_cfg(max_positions=16, vocab_size=64), seed=0)
    enc = m.encode([3, 4, 5])
    with pytest.raises(UsageError, match="source " + message):
        m.embed(ids)
    with pytest.raises(UsageError, match="prefix " + message):
        m.decode(ids, enc)


@pytest.mark.parametrize(
    "ids, message",
    [([3.7, 4.2], "must be integers, got dtype float64"),
     ([3, float("nan")], "must be integers, got dtype float64"),
     ([True, False], "must be integers, got dtype bool"), (["3", "4"], "must be integers"),
     ([None, 3], "must be integers, got dtype object"),
     ([3, 10**20], "must be integers, got dtype object"),
     ([[3, 4], [5]], "are not an array of integers"), (None, r"must be \[T\] or \[B, T\]")],
    ids=["float", "nan", "bool", "str", "none-id", "huge", "ragged", "none"],
)
def test_ids_that_are_not_integers_are_refused_naming_their_side(ids, message):
    # floats are not truncated to ids, and no conversion error escapes
    m = Model(_cfg(max_positions=16, vocab_size=64), seed=0)
    enc = m.encode([3, 4, 5])
    for call in (lambda: m.encode(ids), lambda: m.generate(ids, 4)):
        with pytest.raises(UsageError, match="source ids " + message):
            call()
    with pytest.raises(UsageError, match="prefix ids " + message):
        m.decode(ids, enc)


# -----------------------------------------------------------------------------
# bottom-up stage
# -----------------------------------------------------------------------------


def test_bottom_up_zero_layers_is_identity():
    m = Model(_cfg(n_bottom_up=0), seed=2)
    x = m.embed([3, 4, 5, 6])
    out = m.encode_bottom_up(x)
    np.testing.assert_array_equal(out.data, x.data)


def test_bottom_up_counter_is_layers_times_band_popcount():
    cfg = _cfg()
    m = Model(cfg, seed=3)
    n = 24
    counter = OpCounter()
    m.encode_bottom_up(m.embed(_ids(RngStream(0), n, cfg)), counter)
    expected = cfg.n_bottom_up * band_popcount(n, cfg.window) * cfg.n_heads
    assert counter.score_evals == expected


def test_bottom_up_receptive_field_bit_invariance():
    cfg = _cfg()  # n_bottom_up=2, window=8 -> receptive field 8
    m = Model(cfg, seed=4)
    rng = RngStream(9)
    n = 32
    ids = _ids(rng, n, cfg)
    q = 5
    rf = cfg.n_bottom_up * (cfg.window // 2)
    base = m.encode_bottom_up(m.embed(ids)).data
    far = ids.copy()
    far[q + rf + 1] = 3 if far[q + rf + 1] != 3 else 4  # distance rf+1 > rf
    perturbed = m.encode_bottom_up(m.embed(far)).data
    np.testing.assert_array_equal(base[q], perturbed[q])
    near = ids.copy()
    near[q + rf] = 3 if near[q + rf] != 3 else 4  # distance rf: inside the field
    assert np.any(m.encode_bottom_up(m.embed(near)).data[q] != base[q])


# -----------------------------------------------------------------------------
# segment stage
# -----------------------------------------------------------------------------


def test_segments_no_layers_avg_mode_is_raw_pooling_plus_positions():
    cfg = _cfg(n_segment_layers=0)
    m = Model(cfg, seed=5)
    x = m.embed(_ids(RngStream(1), 20, cfg))
    from tdt import pool_average

    raw = pool_average(x, cfg.segmentation).data
    segs = m.encode_segments(x).data
    np.testing.assert_allclose(segs - raw, m.pos_seg.value.data[: len(segs)], atol=1e-15)
    m.pos_seg.value.data[...] = 0.0
    np.testing.assert_array_equal(m.encode_segments(x).data, raw)


def test_segments_counter_contribution():
    cfg = _cfg()
    m = Model(cfg, seed=6)
    n = 30
    x = m.embed(_ids(RngStream(2), n, cfg))
    counter = OpCounter()
    m.encode_segments(x, counter)
    mm = cfg.segmentation.n_segments(n)
    assert counter.score_evals == cfg.n_segment_layers * mm * mm * cfg.n_heads


def test_singleton_segment_self_attention():
    cfg = _cfg()
    m = Model(cfg, seed=7)
    x = m.embed(_ids(RngStream(3), 6, cfg))  # 6 <= kernel 8 -> M = 1
    segs = m.encode_segments(x)
    assert segs.shape == (1, cfg.d_model)


def test_missing_pooling_inputs_raise_config_error():
    from tdt import ConfigError

    for mode in ("ada", "oracle_ada"):
        cfg = _cfg(pooling_mode=mode)
        m = Model(cfg, seed=8)
        with pytest.raises(ConfigError):
            m.encode(_ids(RngStream(4), 20, cfg))


@pytest.mark.parametrize("topdown", ["cross", "none"])
@pytest.mark.parametrize("mode, unread", [("avg", "weights"), ("oracle_ada", "weights"),
                                          ("ada", "labels")])
def test_a_pooling_input_the_mode_does_not_read_raises_config_error(mode, unread, topdown):
    cfg = _cfg(pooling_mode=mode, topdown_mode=topdown)
    m = Model(cfg, seed=8)
    ids = _ids(RngStream(4), 20, cfg)
    given = {"weights": np.linspace(-1.0, 1.0, 20), "labels": np.zeros(20, dtype=int)}
    read = {"avg": {}, "ada": {"weights": given["weights"]},
            "oracle_ada": {"labels": given["labels"]}}[mode]
    m.encode(ids, **read)  # what the mode reads is accepted
    with pytest.raises(ConfigError, match=f"does not read {unread}"):
        m.encode(ids, **read, **{unread: given[unread]})
    with pytest.raises(ConfigError, match=f"does not read {unread}"):
        m.generate(ids, 4, **read, **{unread: given[unread]})


# -----------------------------------------------------------------------------
# top-down stage
# -----------------------------------------------------------------------------


def test_top_down_zero_layers_leaves_tokens_unchanged():
    cfg = _cfg(n_top_down=0)
    m = Model(cfg, seed=9)
    x = m.embed(_ids(RngStream(5), 16, cfg))
    segs = m.encode_segments(x)
    out = m.encode_top_down(x, segs)
    np.testing.assert_array_equal(out.data, x.data)


def test_top_down_counter_contribution():
    cfg = _cfg()
    m = Model(cfg, seed=10)
    n = 26
    x = m.embed(_ids(RngStream(6), n, cfg))
    segs = m.encode_segments(x)
    counter = OpCounter()
    m.encode_top_down(x, segs, counter)
    mm = cfg.segmentation.n_segments(n)
    expected = cfg.n_top_down * (band_popcount(n, cfg.window) + n * mm) * cfg.n_heads
    assert counter.score_evals == expected


def test_top_down_and_decode_reject_empty_context():
    cfg = _cfg()
    m = Model(cfg, seed=10)
    x = m.embed(_ids(RngStream(6), 12, cfg))
    empty = Tensor(np.zeros((0, cfg.d_model)))
    with pytest.raises(UsageError):
        m.encode_top_down(x, empty)
    with pytest.raises(UsageError):
        m.decode([1, 4, 5], empty)


def test_top_down_restores_long_range_flow():
    cfg = _cfg()
    rng = RngStream(7)
    n = 48  # distance n-1 = 47 >> receptive field 8
    found_sensitive = 0
    for seed in range(3):
        m = Model(cfg, seed=seed)
        ids = _ids(RngStream(100 + seed), n, cfg)
        base = m.encode(ids).data
        far = ids.copy()
        far[0] = 3 if far[0] != 3 else 4
        diff = np.abs(m.encode(far).data[n - 1] - base[n - 1]).max()
        if diff > 1e-9:
            found_sensitive += 1
    assert found_sensitive >= 2


# -----------------------------------------------------------------------------
# encode composition
# -----------------------------------------------------------------------------


def test_topdown_none_equals_bottom_up_only():
    cfg = _cfg(topdown_mode="none")
    m = Model(cfg, seed=12)
    ids = _ids(RngStream(8), 20, cfg)
    np.testing.assert_array_equal(
        m.encode(ids).data, m.encode_bottom_up(m.embed(ids)).data
    )


def test_ablation_lattice_none_equals_cross_with_zero_topdown_layers():
    ids = _ids(RngStream(9), 20, desk_config())
    none_out = Model(_cfg(topdown_mode="none"), seed=13).encode(ids).data
    cross0 = Model(_cfg(topdown_mode="cross", n_top_down=0), seed=13)
    np.testing.assert_array_equal(cross0.encode(ids).data, none_out)


@pytest.mark.parametrize("mode", ["cross", "none"])
def test_total_counter_matches_budget_composition(mode):
    cfg = _cfg(topdown_mode=mode)
    m = Model(cfg, seed=14)
    for n in (1, 5, 10, 24, 47):  # up to n = 5 the window-8 band admits every pair
        counter = OpCounter()
        m.encode(_ids(RngStream(n), n, cfg), counter)
        assert counter.score_evals == cfg.n_heads * encode_score_budget(cfg, n)


def test_encode_deterministic_per_seed():
    cfg = _cfg()
    ids = _ids(RngStream(10), 30, cfg)
    a = Model(cfg, seed=15).encode(ids).data
    b = Model(cfg, seed=15).encode(ids).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mode", ["cross", "none"])
def test_batched_encode_matches_per_instance_bitwise(mode):
    cfg = _cfg(topdown_mode=mode)
    m = Model(cfg, seed=16)
    ids = _ids(RngStream(11), 3 * 37, cfg).reshape(3, 37)
    batched = m.encode(ids).data
    for row, out in zip(ids, batched):
        assert out.tobytes() == m.encode(row).data.tobytes()


def test_oracle_pooling_mode_uses_labels():
    cfg = _cfg(pooling_mode="oracle_ada")
    m = Model(cfg, seed=16)
    ids = _ids(RngStream(11), 20, cfg)
    labels = np.zeros(20, dtype=int)
    labels[4] = 1
    out = m.encode(ids, labels=labels)
    assert out.shape == (20, cfg.d_model)
    flipped = labels.copy()
    flipped[4], flipped[11] = 0, 1
    assert np.any(m.encode(ids, labels=flipped).data != out.data)


# -----------------------------------------------------------------------------
# decode / generate
# -----------------------------------------------------------------------------


def test_decode_logits_shape():
    cfg = _cfg()
    m = Model(cfg, seed=17)
    enc = m.encode(_ids(RngStream(12), 12, cfg))
    for t in (1, 3, 7):
        logits = m.decode([BOS_ID] + list(range(3, 2 + t)), enc)
        assert logits.shape == (t, cfg.vocab_size)


def test_decode_causality_bitwise():
    cfg = _cfg()
    m = Model(cfg, seed=18)
    enc = m.encode(_ids(RngStream(13), 10, cfg))
    prefix = [BOS_ID, 5, 9, 12, 7]
    base = m.decode(prefix, enc).data
    changed = list(prefix)
    changed[3] = 30  # position t=3
    after = m.decode(changed, enc).data
    np.testing.assert_array_equal(base[:3], after[:3])
    assert np.any(base[3:] != after[3:])


@pytest.mark.parametrize("t", [1, 2, 5])
def test_batched_decode_matches_per_row_decodes(t):
    cfg = _cfg()
    m = Model(cfg, seed=19)
    enc = m.encode(_ids(RngStream(14), 2 * 12, cfg).reshape(2, 12))
    prefix = np.concatenate(
        [np.full((2, 1), BOS_ID), _ids(RngStream(15), 2 * (t - 1), cfg).reshape(2, t - 1)],
        axis=1,
    )
    batched = m.decode(prefix, enc).data
    for i in range(2):
        row = m.decode(prefix[i], Tensor(enc.data[i])).data
        if t == 1:
            # the per-row decode's one-row products take another BLAS path
            # than the batch's two-row ones, so the last bits may differ
            np.testing.assert_allclose(batched[i], row, rtol=0, atol=1e-12)
        else:
            assert batched[i].tobytes() == row.tobytes()


def test_single_layer_identity_decoder_matches_scalar_oracle():
    cfg = _cfg(n_decoder_layers=1, n_bottom_up=0, n_top_down=0,
               n_segment_layers=0, topdown_mode="none")
    m = Model(cfg, seed=19)
    d = cfg.d_model
    layer = m.decoder[0]
    for ap in (layer.self_attn, layer.cross):
        for w in (ap.wq, ap.wk, ap.wv, ap.wo):
            w.value.data[...] = np.eye(d)
        for b in (ap.bq, ap.bk, ap.bv, ap.bo):
            b.value.data[...] = 0.0
    for ln in (layer.ln_self, layer.ln_cross, layer.ffn.ln):
        ln.gain.value.data[...] = 1.0
        ln.bias.value.data[...] = 0.0
    for p in (layer.ffn.w1, layer.ffn.b1, layer.ffn.w2, layer.ffn.b2):
        p.value.data[...] = 0.0

    src = [3, 4, 5, 6]
    enc = m.encode(src)
    prefix = [BOS_ID, 7, 8]
    logits = m.decode(prefix, enc).data

    # scalar oracle of the same identity-weight layer
    emb = m.tok_emb.value.data
    y = emb[prefix] + m.pos_dec.value.data[:3]
    dh = d // cfg.n_heads

    def attend(q_rows, k_rows, v_rows, causal):
        out = np.zeros_like(q_rows)
        t, s = len(q_rows), len(k_rows)
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(t):
                lim = i + 1 if causal else s
                logit = np.array([q_rows[i, sl] @ k_rows[j, sl] / math.sqrt(dh) for j in range(lim)])
                wts = np.exp(logit - logit.max())
                wts /= wts.sum()
                out[i, sl] = sum(wts[j] * v_rows[j, sl] for j in range(lim))
        return out

    y = y + layer_norm_oracle(attend(y, y, y, True), np.ones(d), np.zeros(d), LN_EPS)
    y = y + layer_norm_oracle(attend(y, enc.data, enc.data, False), np.ones(d), np.zeros(d), LN_EPS)
    y = y + layer_norm_oracle(np.zeros_like(y), np.ones(d), np.zeros(d), LN_EPS)
    expected = y @ emb.T
    assert np.max(np.abs(logits - expected)) <= 1e-10


def test_decoderless_model_builds_no_decoder_side_and_cannot_decode():
    cfg = _cfg(n_decoder_layers=0)
    m = Model(cfg, seed=21)
    assert m.decoder == [] and m.pos_dec is None
    assert "embed.pos_dec" not in m.params
    enc = m.encode([3, 4, 5, 6])
    with pytest.raises(UsageError):
        m.decode([BOS_ID], enc)
    counter = OpCounter()
    with pytest.raises(UsageError):
        m.generate([3, 4, 5, 6], max_len=2, counter=counter)
    assert counter.score_evals == 0  # refused before the encode


@pytest.mark.parametrize("mode", ["cross", "none"])
def test_decoderless_encode_reads_every_registered_parameter(mode):
    cfg = _cfg(n_decoder_layers=0, topdown_mode=mode)
    m = Model(cfg, seed=22)
    tape = Tape()
    with recording(tape):
        m.encode(_ids(RngStream(14), 20, cfg))
    read = {x.name for e in tape.entries for x in e.inputs if isinstance(x, Parameter)}
    assert read == set(m.params)


def _rigged_model(column_id):
    """A token table that points every logit argmax at one token: the tied
    readout's column v is token row v, so with every other row zero the
    chosen column reads the sum of the decoder state (positive at seed 20)
    and every other column 0."""
    cfg = _cfg(n_decoder_layers=1)
    m = Model(cfg, seed=20)
    m.tok_emb.value.data[...] = 0.0
    m.tok_emb.value.data[column_id] = 1.0
    return m


def test_generate_eos_at_first_step_gives_length_one():
    m = _rigged_model(EOS_ID)
    out = m.generate([3, 4, 5], max_len=10)
    assert out == [EOS_ID]


def test_generate_truncates_at_max_len():
    m = _rigged_model(9)
    out = m.generate([3, 4, 5], max_len=4)
    assert len(out) == 4


def test_beam_one_equals_greedy():
    cfg = _cfg()
    m = Model(cfg, seed=21)
    src = _ids(RngStream(14), 16, cfg)
    greedy = m.generate(src, max_len=6, strategy="greedy")
    beam1 = m.generate(src, max_len=6, strategy="beam", beam_size=1)
    assert greedy == beam1


@pytest.mark.parametrize("strategy, beam", [("greedy", 4), ("sample", 1)],
                         ids=["greedy-with-beam", "unknown"])
def test_generate_refuses_a_strategy_it_would_not_run_before_the_encode(strategy, beam):
    m = Model(_cfg(), seed=21)
    counter = OpCounter()
    with pytest.raises(UsageError, match="strategy"):
        m.generate([3, 4, 5, 6], max_len=2, strategy=strategy, beam_size=beam, counter=counter)
    assert counter.score_evals == 0


def test_beam_search_deterministic_and_bounded():
    cfg = _cfg()
    m = Model(cfg, seed=22)
    src = _ids(RngStream(15), 16, cfg)
    a = m.generate(src, max_len=5, strategy="beam", beam_size=3)
    b = m.generate(src, max_len=5, strategy="beam", beam_size=3)
    assert a == b
    assert 1 <= len(a) <= 5


# -----------------------------------------------------------------------------
# memory scaling
# -----------------------------------------------------------------------------


def test_local_encode_peak_memory_scales_linearly_not_quadratically():
    import gc

    cfg = _cfg(max_positions=1024, kernel_size=32, stride=24, window=64)
    m = Model(cfg, seed=23)
    peaks = {}
    for n in (256, 512, 1024):
        ids = RngStream(n).randint(3, cfg.vocab_size, n)
        gc.collect()
        tdt.reset_peak()
        m.encode(ids)
        peaks[n] = tdt.peak_bytes()
    # quadratic growth would give ~16x from 256 to 1024; linear ~4x plus the
    # fixed parameter/table footprint keeps the ratio well below 6
    assert peaks[1024] / peaks[256] < 6.0
    # full attention at the same N materializes N^2 scores; the banded
    # encoder must stay far below that peak
    full = Model(_cfg(max_positions=1024, window=None, topdown_mode="none"), seed=23)
    ids = RngStream(1024).randint(3, cfg.vocab_size, 1024)
    gc.collect()
    tdt.reset_peak()
    full.encode(ids)
    full_peak = tdt.peak_bytes()
    assert peaks[1024] < 0.25 * full_peak


# -----------------------------------------------------------------------------
# config validation
# -----------------------------------------------------------------------------


def test_config_from_dict_rejects_non_mapping_and_wrong_types():
    with pytest.raises(ConfigError):
        ModelConfig.from_dict([["d_model", 64]])
    for name, value in [("d_model", "x"), ("d_model", True), ("d_model", 64.0),
                        ("window", "8"), ("n_heads", True), ("pooling_mode", None)]:
        with pytest.raises(ConfigError, match=name):
            ModelConfig.from_dict({name: value})
    # retired fields: every model has one FFN width and reads out through its token table
    for name, value in [("ffn_mult", 4), ("tie_output", True)]:
        with pytest.raises(ConfigError, match=f"unknown config fields: \\['{name}'\\]"):
            ModelConfig.from_dict({name: value})
    assert ModelConfig.from_dict({"window": None}).window is None
    assert ModelConfig.from_dict(desk_config().to_dict()) == desk_config()


@pytest.mark.parametrize("build, name", [
    (lambda: ModelConfig.from_dict({"n_heads": np.int64(4)}), "n_heads"),
    (lambda: desk_config(d_model=np.int64(64)), "d_model"),
    (lambda: desk_config(d_model="64"), "d_model"),
    (lambda: ModelConfig(window=np.int32(8)), "window"),
], ids=["from_dict-numpy", "desk_config-numpy", "desk_config-str", "constructor-numpy"])
def test_every_config_path_refuses_a_field_that_is_not_its_python_type(build, name):
    # a numpy integer would fail later, in config_hash's json.dumps
    with pytest.raises(ConfigError, match=f"config field {name} must be"):
        build()


# One of each kind of value a caller or a header can hand a config field.
_VALUE_KINDS = (None, True, 1.5, "8", np.int64(8), -1, 0, 1, 3, 2**70, [], {})


def test_every_config_field_takes_each_value_kind_or_refuses_it_by_name():
    # ROADMAP item 14's config third: each field x each kind through all
    # three constructors yields a config that hashes, or a ConfigError
    # naming the field and the value; no Model is built
    start = time.perf_counter()
    for f in dataclasses.fields(ModelConfig):
        for value in _VALUE_KINDS:
            for build in (functools.partial(ModelConfig, **{f.name: value}),
                          functools.partial(ModelConfig.from_dict, {f.name: value}),
                          functools.partial(desk_config, **{f.name: value})):
                try:
                    config = build()
                except ConfigError as exc:
                    assert f.name in str(exc) and repr(value) in str(exc), (f.name, value, exc)
                else:
                    assert getattr(config, f.name) == value
                    assert len(config.config_hash()) == 64
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fields", [{"vocab_size": 2**70}, {"d_model": 2**40, "n_heads": 1}],
                         ids=["unsizable", "unallocatable"])
def test_a_model_whose_tables_cannot_be_allocated_raises_config_error(fields):
    # numpy refuses both before it allocates: a ValueError and a MemoryError
    with pytest.raises(ConfigError, match="cannot allocate the parameter tables"):
        Model(desk_config(**fields))
