"""Cached incremental generation against full-prefix oracles, its score
budget, its tape isolation and its position bound."""

import numpy as np
import pytest

from tdt import (
    BOS_ID,
    EOS_ID,
    Model,
    OpCounter,
    Parameter,
    RngStream,
    ShapeError,
    Tape,
    Tensor,
    UsageError,
    desk_config,
    backward,
    encode_score_budget,
    recording,
)
from tdt import ops
from tdt.model import DecodeCache

from helpers import mul_const, reference_beam, reference_greedy, sum_all

NO_EOS = -1  # no token id is negative, so generation runs to max_len


def _cfg(**kw):
    base = dict(vocab_size=40, d_model=16, n_heads=2, n_bottom_up=1,
                n_segment_layers=1, n_top_down=1, n_decoder_layers=2,
                window=4, kernel_size=4, stride=3, max_positions=48)
    base.update(kw)
    return desk_config(**base)


def _src(seed, n, cfg):
    return RngStream(seed).randint(3, cfg.vocab_size, n)


def _eos_heavy_model(seed):
    """Doubling the eos output column makes eos a frequent beam candidate,
    so finished hypotheses are carried next to open ones."""
    m = Model(_cfg(tie_output=False), seed=seed)
    m.out_w.value.data[:, EOS_ID] *= 2.0
    return m


def test_cached_step_logits_match_full_decode():
    cfg = _cfg()
    m = Model(cfg, seed=1)
    enc = m.encode(_src(2, 20, cfg))
    prefix = [BOS_ID] + list(_src(3, 11, cfg))
    cache = DecodeCache(cfg.n_decoder_layers)
    batch_enc = Tensor(enc.data[None])
    for t in range(len(prefix)):
        step = m.decode([prefix[t:t + 1]], batch_enc, cache=cache).data[0, -1]
        full = m.decode(prefix[: t + 1], enc).data[-1]
        assert np.max(np.abs(step - full)) <= 1e-12
    assert cache.length == len(prefix)


def test_cached_rows_follow_select():
    cfg = _cfg()
    m = Model(cfg, seed=4)
    enc = m.encode(_src(5, 18, cfg))
    a, b = [BOS_ID, 5, 6, 7], [BOS_ID, 8, 9, 10]
    cache = DecodeCache(cfg.n_decoder_layers)
    both = Tensor(np.stack([enc.data, enc.data]))
    m.decode([a[:3], b[:3]], both, cache=cache)
    cache.select([1, 1, 0])  # rows: b, b, a
    step = m.decode([[b[3]], [a[3]], [a[3]]], both, cache=cache).data[:, -1]
    full_b = m.decode(b, enc).data[-1]
    ab = [BOS_ID, 8, 9, a[3]]  # row 1 carries b's past with a's next token
    full_ab = m.decode(ab, enc).data[-1]
    full_a = m.decode(a, enc).data[-1]
    for got, want in zip(step, (full_b, full_ab, full_a)):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_cached_steps_after_a_multi_row_first_call_match_full_decode():
    cfg = _cfg()
    m = Model(cfg, seed=11)
    enc = m.encode(_src(12, 20, cfg))
    prefix = [BOS_ID] + list(_src(13, 13, cfg))
    cache = DecodeCache(cfg.n_decoder_layers)
    batch_enc = Tensor(enc.data[None])
    m.decode([prefix[:3]], batch_enc, cache=cache)  # three positions at once
    for t in range(3, len(prefix)):
        step = m.decode([prefix[t:t + 1]], batch_enc, cache=cache).data[0, -1]
        full = m.decode(prefix[: t + 1], enc).data[-1]
        assert np.max(np.abs(step - full)) <= 1e-12


def test_cached_steps_after_select_match_full_decode():
    cfg = _cfg()
    m = Model(cfg, seed=14)
    enc = m.encode(_src(15, 18, cfg))
    rows = [[BOS_ID] + list(_src(16 + r, 9, cfg)) for r in range(3)]
    cache = DecodeCache(cfg.n_decoder_layers)
    m.decode([r[:2] for r in rows], Tensor(np.stack([enc.data] * 3)), cache=cache)
    cache.select([2, 0, 2, 1])  # a repeated row, and one more row than before
    kept = [rows[2], rows[0], rows[2], rows[1]]
    batch_enc = Tensor(np.stack([enc.data] * 4))
    for t in range(2, 10):  # eight one-position steps on the selected rows
        step = m.decode([r[t:t + 1] for r in kept], batch_enc, cache=cache).data[:, -1]
        for got, r in zip(step, kept):
            assert np.max(np.abs(got - m.decode(r[: t + 1], enc).data[-1])) <= 1e-12


def test_select_keeps_the_keys_and_values_of_a_batch_one_context():
    # beam search: every row reads the one encoder output, so select gathers
    # none of it and each step reads the keys in the layout the scorer multiplies
    cfg = _cfg()
    m = Model(cfg, seed=30)
    enc = m.encode(_src(31, 14, cfg))
    cache = DecodeCache(cfg.n_decoder_layers)
    m.decode([[BOS_ID]], Tensor(enc.data[None]), cache=cache)
    before = [kv.cross for kv in cache.layers]
    cache.select([0, 0, 0])
    for kv, cross in zip(cache.layers, before):
        assert kv.cross is cross and all(t.shape[0] == 1 for t in cross)
        assert cross[0].data.swapaxes(-1, -2).flags.c_contiguous
    step = m.decode([[5], [6], [7]], Tensor(enc.data[None]), cache=cache).data[:, -1]
    for got, tok in zip(step, (5, 6, 7)):
        assert np.max(np.abs(got - m.decode([BOS_ID, tok], enc).data[-1])) <= 1e-12


def test_a_batch_one_context_gets_the_gradients_of_its_rows_summed():
    # decoding two prefix rows against one encoder output is decoding them
    # against that output stacked twice: the same logits, and the context's
    # gradient is the sum of the stacked rows'
    cfg = _cfg()
    m = Model(cfg, seed=32)
    enc = m.encode(_src(33, 10, cfg)).data
    prefix = [[BOS_ID, 5, 6], [BOS_ID, 7, 8]]
    weights = RngStream(34).normal((2, 3, cfg.vocab_size))

    def run(context):
        for p in m.parameters():
            p.zero_grad()
        tape = Tape()
        with recording(tape):
            logits = m.decode(prefix, context)
            loss = sum_all(mul_const(logits, weights))
        backward(loss, tape)
        return logits.data, {name: p.grad.copy() for name, p in m.params.items()}

    one, two = Parameter("enc", enc[None]), Parameter("enc2", np.stack([enc, enc]))
    logits_one, grads_one = run(one)
    logits_two, grads_two = run(two)
    assert logits_one.tobytes() == logits_two.tobytes()
    assert np.max(np.abs(one.grad - two.grad.sum(axis=0, keepdims=True))) <= 1e-12
    for name, g in grads_one.items():
        assert np.max(np.abs(g - grads_two[name])) <= 1e-12, name


def test_a_cached_decode_step_records_17_ops():
    # the token gather and the position rows; per decoder layer the self
    # projection, the two cache appends, the self sublayer, the cross query's
    # projection, the cross sublayer and the FFN; the readout
    cfg = _cfg()
    m = Model(cfg, seed=35)
    enc = Tensor(m.encode(_src(36, 12, cfg)).data[None])
    cache = DecodeCache(cfg.n_decoder_layers)
    m.decode([[BOS_ID]], enc, cache=cache)  # projects the context and the readout once
    tape = Tape()
    with recording(tape):
        m.decode([[5]], enc, cache=cache)
    assert cfg.n_decoder_layers == 2 and len(tape) == 2 + 2 * 7 + 1 == 17


@pytest.mark.parametrize(
    "past, lever", [(0, "ffn"), (2, "ffn"), (0, "readout")],
    ids=["first-call", "later-call", "readout"],
)
def test_a_decode_that_raises_leaves_the_cache_as_it_was(past, lever):
    from tdt import NumericsError

    cfg = _cfg()
    m = Model(cfg, seed=21)
    enc = m.encode(_src(22, 12, cfg))
    batch_enc = Tensor(enc.data[None])
    prefix = [BOS_ID, 5, 9]
    cache = DecodeCache(cfg.n_decoder_layers)
    if past:
        m.decode([prefix[:past]], batch_enc, cache=cache)
    if lever == "ffn":  # the last layer's FFN overflows after layer 0 appended its rows
        w = m.params["decoder.1.ffn.w1"].value.data
    else:  # a token row no prefix id reads: only the tied readout overflows
        w = m.tok_emb.value.data[cfg.vocab_size - 1]
    kept = w.copy()
    w[...] = 1e308
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        m.decode([prefix[past:]], batch_enc, cache=cache)
    w[...] = kept
    assert cache.length == past
    if lever == "readout":
        assert cache.batch_shape == () and cache.readout is None
        assert all(kv.k is None and kv.v is None and kv.cross is None for kv in cache.layers)
    step = m.decode([prefix[past:]], batch_enc, cache=cache).data[0, -1]
    assert np.max(np.abs(step - m.decode(prefix, enc).data[-1])) <= 1e-12


def test_cached_decode_under_a_tape_has_the_uncached_gradients():
    _check_cached_decode_gradients(tie_output=False)


def test_cached_tied_readout_under_a_tape_has_the_uncached_gradients():
    # every step reads the one transposed token table the cache keeps
    _check_cached_decode_gradients(tie_output=True)


def _check_cached_decode_gradients(tie_output):
    cfg = _cfg(tie_output=tie_output)
    m = Model(cfg, seed=17)
    src = _src(18, 16, cfg)
    prefix = [BOS_ID] + list(_src(19, 6, cfg))
    weights = RngStream(20).normal((len(prefix), cfg.vocab_size))

    def grads(cached):
        for p in m.parameters():
            p.zero_grad()
        tape = Tape()
        with recording(tape):
            enc = m.encode(src)
            if cached:
                cache, batch_enc = DecodeCache(cfg.n_decoder_layers), ops.reshape(enc, (1, 16, -1))
                steps = [m.decode([prefix[t:t + 1]], batch_enc, cache=cache)
                         for t in range(len(prefix))]
                logits = ops.reshape(ops.concat(steps, axis=-2), (len(prefix), -1))
            else:
                logits = m.decode(prefix, enc)
            loss = sum_all(mul_const(logits, weights))
        backward(loss, tape)
        return {name: p.grad.copy() for name, p in m.params.items()}

    full, stepped = grads(False), grads(True)
    assert set(full) == set(stepped)
    for name, g in full.items():
        assert np.abs(g).max() > 0, name
        np.testing.assert_allclose(stepped[name], g, rtol=1e-9, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("seed", range(4))
def test_greedy_matches_full_prefix_oracle(seed):
    cfg = _cfg()
    m = Model(cfg, seed=seed)
    src = _src(10 + seed, 24, cfg)
    for eos in (EOS_ID, NO_EOS):
        assert m.generate(src, 12, eos_id=eos) == reference_greedy(m, src, 12, eos)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("beam", (2, 3, 4))
def test_beam_matches_per_hypothesis_oracle(seed, beam):
    cfg = _cfg()
    m = Model(cfg, seed=seed)
    src = _src(20 + seed, 24, cfg)
    got = m.generate(src, 8, "beam", beam_size=beam, eos_id=NO_EOS)
    assert got == reference_beam(m, src, 8, beam, NO_EOS)


@pytest.mark.parametrize("seed", (0, 1, 3, 4, 5))
@pytest.mark.parametrize("beam", (2, 3, 4))
def test_beam_with_finished_hypotheses_matches_oracle(seed, beam):
    m = _eos_heavy_model(seed)
    src = _src(30 + seed, 16, m.config)
    trace: list = []
    want = reference_beam(m, src, 8, beam, EOS_ID, trace)
    assert m.generate(src, 8, "beam", beam_size=beam) == want
    # the rig works: some step keeps finished hypotheses beside open ones
    assert any(
        any(done for *_, done in hyps) and not all(done for *_, done in hyps)
        for hyps in trace
    )


def test_generate_records_no_tape():
    cfg = _cfg()
    m = Model(cfg, seed=2)
    src = _src(4, 16, cfg)
    tape = Tape()
    with recording(tape):
        m.generate(src, 5)
        m.generate(src, 5, "beam", beam_size=3)
    assert len(tape) == 0


def test_greedy_score_budget_equals_one_full_decode():
    cfg = _cfg()
    m = Model(cfg, seed=3)
    n, length = 20, 9
    counter = OpCounter()
    out = m.generate(_src(6, n, cfg), length, eos_id=NO_EOS, counter=counter)
    assert len(out) == length
    decoder_share = counter.score_evals - cfg.n_heads * encode_score_budget(cfg, n)
    # one full decode of the length-T prefix: per layer, T(T+1)/2 causal
    # pairs plus T * N cross pairs
    causal = length * (length + 1) // 2
    assert decoder_share == cfg.n_heads * cfg.n_decoder_layers * (causal + length * n)


def test_beam_score_budget_counts_open_rows_per_step():
    cfg = _cfg()
    m = Model(cfg, seed=3)
    n, length, beam = 20, 7, 4
    counter = OpCounter()
    m.generate(_src(6, n, cfg), length, "beam", beam_size=beam, eos_id=NO_EOS,
               counter=counter)
    # step t decodes one row at t = 0 and ``beam`` rows after; each row
    # scores t + 1 causal and n cross pairs per head per decoder layer
    expected = sum(
        (1 if t == 0 else beam) * cfg.n_heads * cfg.n_decoder_layers * ((t + 1) + n)
        for t in range(length)
    )
    decoder_share = counter.score_evals - cfg.n_heads * encode_score_budget(cfg, n)
    assert decoder_share == expected


@pytest.mark.parametrize("strategy,beam", [("greedy", 1), ("beam", 3)])
def test_position_bound_raises_usage_error_at_the_oracle_step(strategy, beam):
    cfg = _cfg(max_positions=12)
    m = Model(cfg, seed=7)
    src = _src(8, 10, cfg)
    msg = "prefix length 13 exceeds max_positions 12"
    with pytest.raises(UsageError, match=msg):
        m.generate(src, 20, strategy, beam_size=beam, eos_id=NO_EOS)
    with pytest.raises(UsageError, match=msg):
        if beam == 1:
            reference_greedy(m, src, 20, NO_EOS)
        else:
            reference_beam(m, src, 20, beam, NO_EOS)
    # the last position that fits still decodes
    assert len(m.generate(src, 12, strategy, beam_size=beam, eos_id=NO_EOS)) == 12


def test_greedy_to_the_position_bound_matches_the_oracle():
    cfg = _cfg(max_positions=12)
    m = Model(cfg, seed=8)
    src = _src(9, 10, cfg)
    assert m.generate(src, 12, eos_id=NO_EOS) == reference_greedy(m, src, 12, NO_EOS)


def test_generate_rejects_bad_beam_size_and_batched_source():
    cfg = _cfg()
    m = Model(cfg, seed=5)
    src = _src(9, 10, cfg)
    with pytest.raises(UsageError):
        m.generate(src, 4, "beam", beam_size=0)
    with pytest.raises(UsageError):
        m.generate(np.stack([src, src]), 4)


def test_cache_rejects_mismatched_batch_and_rows():
    cfg = _cfg()
    m = Model(cfg, seed=6)
    enc = m.encode(_src(10, 12, cfg))
    both = Tensor(np.stack([enc.data, enc.data]))
    cache = DecodeCache(cfg.n_decoder_layers)
    m.decode([[BOS_ID], [BOS_ID]], both, cache=cache)
    with pytest.raises(ShapeError):
        m.decode([[5], [6], [7]], both, cache=cache)
    with pytest.raises(UsageError):
        cache.select([0, 2])


def test_generation_copies_the_tied_token_table_once(monkeypatch):
    cfg = _cfg()
    m = Model(cfg, seed=21)
    src = _src(22, 16, cfg)
    transpose, calls = ops.transpose, []
    monkeypatch.setattr(ops, "transpose", lambda *a: calls.append(a) or transpose(*a))
    out = m.generate(src, 8, eos_id=NO_EOS)
    assert len(out) == 8 and len(calls) == 1
    # the kept readout gives the logits of a fresh transpose at every step
    enc = ops.reshape(m.encode(src), (1, 16, -1))
    kept, fresh = DecodeCache(cfg.n_decoder_layers), DecodeCache(cfg.n_decoder_layers)
    for tok in [BOS_ID] + out[:-1]:
        fresh.readout = None
        np.testing.assert_array_equal(m.decode([[tok]], enc, cache=kept).data,
                                      m.decode([[tok]], enc, cache=fresh).data)
    assert len(calls) == 1 + 1 + len(out)


def test_decode_on_an_empty_encoder_output_raises_and_leaves_the_cache():
    cfg = _cfg()
    m = Model(cfg, seed=23)
    empty = Tensor(np.zeros((1, 0, cfg.d_model)))
    with pytest.raises(UsageError, match="at least one key"):
        m.decode([BOS_ID], Tensor(empty.data[0]))
    cache = DecodeCache(cfg.n_decoder_layers)
    with pytest.raises(UsageError, match="at least one key"):
        m.decode([[BOS_ID]], empty, cache=cache)
    assert (cache.length, cache.batch_shape, cache.readout) == (0, (), None)
    for kv in cache.layers:
        assert kv.k is kv.v is kv.cross is None
    enc = m.encode(_src(24, 12, cfg))
    prefix = [BOS_ID] + list(_src(25, 4, cfg))
    step = m.decode([prefix], Tensor(enc.data[None]), cache=cache).data[0]
    np.testing.assert_array_equal(step, m.decode([prefix], Tensor(enc.data[None])).data[0])


@pytest.mark.parametrize("rows, width", [(0, None), (11, None), (None, 32)],
                         ids=["zero-rows", "other-length", "other-width"])
def test_a_warm_cache_refuses_another_encoder_output_and_stays_as_it_was(rows, width):
    cfg = _cfg()
    m = Model(cfg, seed=26)
    enc = Tensor(m.encode(_src(27, 12, cfg)).data[None])
    prefix = [BOS_ID] + list(_src(28, 3, cfg))
    cache = DecodeCache(cfg.n_decoder_layers)
    m.decode([prefix[:2]], enc, cache=cache)
    other = Tensor(np.ones((1, 12 if rows is None else rows, width or cfg.d_model)))
    with pytest.raises(ShapeError, match="cached context"):
        m.decode([prefix[2:3]], other, cache=cache)
    assert (cache.length, cache.batch_shape) == (2, (1,))
    step = m.decode([prefix[2:]], enc, cache=cache).data[0]
    assert np.max(np.abs(step - m.decode([prefix], enc).data[0, 2:])) <= 1e-12
