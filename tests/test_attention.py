"""Attention kernels vs dense oracles, masks, and exact score counting."""

import numpy as np
import pytest

from tdt import (
    ConfigError,
    MaskSpec,
    ModelConfig,
    OpCounter,
    RngStream,
    Tensor,
    UsageError,
    band_popcount,
    build_mask,
    count_budget,
    multi_head_attention,
)
from tdt.attention import init_attention_params
from tdt.ops import LN_EPS
from tdt.tensor import Parameter, Tape, recording
from tdt import ops
from helpers import (
    check_param_grads,
    cross_attention_oracle,
    dense_attention_oracle,
    layer_norm_oracle,
    mul_const,
    sum_all,
)


def _params(seed, d):
    return init_attention_params(RngStream(seed), d, "t")


def _ln(d):
    """A sublayer's layer norm (gain, bias) at the identity: ones and zeros."""
    return Parameter("lng", np.ones(d)), Parameter("lnb", np.zeros(d))


def _sublayer(x, branch):
    """The oracle of a sublayer's output x + LN(branch), with _ln's identity."""
    d = x.shape[-1]
    return x + layer_norm_oracle(branch, np.ones(d), np.zeros(d), LN_EPS)


def _constant_value_params(seed, d, c, b0):
    """Every value row is c (zero value weights, bias c), projected out by
    the identity plus b0: a row whose attention weights sum to s has the
    branch s * c + b0, which is c + b0 exactly when they sum to one."""
    p = _params(seed, d)
    p.wv.value.data[...] = 0.0
    p.bv.value.data[...] = c
    p.wo.value.data[...] = np.eye(d)
    p.bo.value.data[...] = b0
    return p


# -----------------------------------------------------------------------------
# build_mask
# -----------------------------------------------------------------------------


def test_band_mask_9_tokens_window_4():
    m = build_mask(MaskSpec.band(4), 9, 9)
    assert set(np.nonzero(m[0])[0]) == {0, 1, 2}
    assert set(np.nonzero(m[4])[0]) == {2, 3, 4, 5, 6}
    assert set(np.nonzero(m[8])[0]) == {6, 7, 8}


def test_band_mask_saturates_to_full():
    n = 7
    m = build_mask(MaskSpec.band(2 * (n - 1)), n, n)
    assert m.all()


def test_causal_mask_lower_triangular():
    m = build_mask(MaskSpec.causal(), 3, 3)
    np.testing.assert_array_equal(m, np.tril(np.ones((3, 3), dtype=bool)))


def test_band_mask_rejects_non_square():
    with pytest.raises(UsageError):
        build_mask(MaskSpec.band(4), 4, 6)


def test_band_spec_rejects_odd_or_tiny_window():
    with pytest.raises(ConfigError):
        MaskSpec.band(3)
    with pytest.raises(ConfigError):
        MaskSpec.band(0)


@pytest.mark.parametrize("w", [3, -4, 0, 1])
def test_one_window_rule_for_config_mask_popcount_and_budget(w):
    for build in (lambda: ModelConfig(d_model=8, n_heads=2, window=w), lambda: MaskSpec.band(w),
                  lambda: band_popcount(9, w), lambda: count_budget(9, w, 2)):
        with pytest.raises(ConfigError, match="window"):
            build()


def test_an_unbounded_window_is_full_attention_but_no_band():
    assert ModelConfig(d_model=8, n_heads=2, window=None).window is None
    assert band_popcount(9, None) == count_budget(9, None, 2).local == 81
    with pytest.raises(ConfigError):
        MaskSpec.band(None)


def test_every_band_row_admits_self():
    for n in (1, 2, 5, 9):
        for w in (2, 4, 8):
            m = build_mask(MaskSpec.band(w), n, n)
            assert np.diagonal(m).all()


def test_band_popcount_matches_mask_popcount():
    for n in (1, 2, 3, 9, 17, 64):
        for w in (2, 4, 8, 30):
            m = build_mask(MaskSpec.band(w), n, n)
            assert band_popcount(n, w) == int(m.sum())
    assert band_popcount(16, None) == 256


def test_band_popcount_closed_form_interior_dominated():
    # N(w+1) - w(w+2)/4 for N=1024, w=64
    assert band_popcount(1024, 64) == 1024 * 65 - 64 * 66 // 4


# -----------------------------------------------------------------------------
# count_budget
# -----------------------------------------------------------------------------


def test_count_budget_figure_pattern_case():
    # Frozen from the band mask popcount oracle: rows of the 9-token,
    # window-4 pattern admit 3+4+5+5+5+5+5+4+3 = 39 pairs.
    b = count_budget(9, 4, 2)
    assert b.local == int(build_mask(MaskSpec.band(4), 9, 9).sum()) == 39
    assert b.segment == 4
    assert b.cross == 18


def test_count_budget_saturated_band_is_quadratic():
    assert count_budget(10, 18, 1).local == 100
    assert count_budget(10, None, 1).local == 100


def test_count_budget_large_case_well_below_quadratic():
    b = count_budget(8192, 1024, 341)
    assert b.local < 0.15 * 8192 * 8192
    assert b.cross == 8192 * 341
    assert b.segment == 341 * 341


# -----------------------------------------------------------------------------
# multi_head_attention
# -----------------------------------------------------------------------------


def _identity_params(d):
    p = _params(0, d)
    for w in (p.wq, p.wk, p.wv, p.wo):
        w.value.data[...] = np.eye(d)
    for b in (p.bq, p.bk, p.bv, p.bo):
        b.value.data[...] = 0.0
    return p


def test_single_position_identity_projections_returns_value():
    # the branch is the one value, v itself
    d = 4
    p = _identity_params(d)
    v = RngStream(3).normal((1, d))
    out = multi_head_attention(Tensor(v), None, p, _ln(d), 1, None)
    np.testing.assert_allclose(out.data, _sublayer(v, v), atol=1e-12)


def test_full_mask_matches_dense_oracle():
    rng = RngStream(7)
    for trial in range(5):
        n = int(rng.randint(2, 64, 1)[0])
        d = 8
        x = rng.normal((n, d))
        p = _params(trial, d)
        out = multi_head_attention(Tensor(x), None, p, _ln(d), 2, None)
        expected = _sublayer(x, dense_attention_oracle(x, x, x, p, 2, None))
        assert np.max(np.abs(out.data - expected)) <= 1e-10


def test_counter_counts_admitted_pairs_per_head():
    d = 8
    x = RngStream(1).normal((16, d))
    p = _params(2, d)
    counter = OpCounter()
    multi_head_attention(Tensor(x), None, p, _ln(d), 2, None, counter)
    assert counter.score_evals == 2 * 16 * 16 == 512


def test_fully_masked_row_raises():
    d = 4
    x = RngStream(4).normal((3, d))
    p = _params(0, d)
    mask = np.ones((3, 3), dtype=bool)
    mask[2] = False
    with pytest.raises(UsageError):
        multi_head_attention(Tensor(x), None, p, _ln(d), 1, mask)


def _assert_weights_row_stochastic_and_zero_outside(x, mask, mask_arg, heads):
    """Through outputs alone: with every value row c, each row's branch is
    c + bo, so its weights sum to one; and perturbing the token at the last
    position leaves bit-identical every row whose mask leaves that token
    out, so its weight there is exactly zero."""
    n, d = x.shape
    rng = RngStream(12)
    c, b0 = rng.normal((d,)), rng.normal((d,))
    out = multi_head_attention(Tensor(x), None, _constant_value_params(5, d, c, b0), _ln(d),
                               heads, mask_arg)
    expected = _sublayer(x, np.broadcast_to(c + b0, x.shape))
    assert np.max(np.abs(out.data - expected)) <= 1e-12
    p = _params(5, d)
    base = multi_head_attention(Tensor(x), None, p, _ln(d), heads, mask_arg).data
    far = x.copy()
    far[-1] += rng.normal((d,))
    moved = multi_head_attention(Tensor(far), None, p, _ln(d), heads, mask_arg).data
    outside = ~mask[:, -1]
    assert outside.sum() >= n // 2
    assert moved[outside].tobytes() == base[outside].tobytes()
    assert np.all(np.abs(moved[~outside] - base[~outside]).max(axis=-1) > 0)


def test_attention_weights_row_stochastic():
    # a dense boolean band mask: the dense scorer with a penalty
    x = RngStream(11).normal((10, 8))
    mask = build_mask(MaskSpec.band(4), 10, 10)
    _assert_weights_row_stochastic_and_zero_outside(x, mask, mask, 2)


# -----------------------------------------------------------------------------
# banded self-attention
# -----------------------------------------------------------------------------


def test_saturated_window_bit_matches_full_attention():
    d = 8
    n = 6
    x = RngStream(21).normal((n, d))
    p = _params(9, d)
    full = multi_head_attention(Tensor(x), None, p, _ln(d), 2, None)
    local = multi_head_attention(Tensor(x), None, p, _ln(d), 2, MaskSpec.band(2 * (n - 1)))
    np.testing.assert_array_equal(local.data, full.data)
    wider = multi_head_attention(Tensor(x), None, p, _ln(d), 2, MaskSpec.band(4 * n))
    np.testing.assert_array_equal(wider.data, local.data)


def test_local_attention_matches_banded_dense_oracle_9_4():
    d = 8
    x = RngStream(33).normal((9, d))
    p = _params(13, d)
    out = multi_head_attention(Tensor(x), None, p, _ln(d), 2, MaskSpec.band(4))
    mask = build_mask(MaskSpec.band(4), 9, 9)
    expected = _sublayer(x, dense_attention_oracle(x, x, x, p, 2, mask))
    assert np.max(np.abs(out.data - expected)) <= 1e-10


def test_local_attention_oracle_equivalence_many_configs():
    rng = RngStream(55)
    for trial in range(25):
        n = int(rng.randint(2, 65, 1)[0])
        heads = int(rng.randint(1, 5, 1)[0])
        d = 8 * heads
        w_half_max = max(1, n - 1)
        w = 2 * int(rng.randint(1, w_half_max + 1, 1)[0])
        x = rng.normal((n, d))
        p = _params(1000 + trial, d)
        out = multi_head_attention(Tensor(x), None, p, _ln(d), heads, MaskSpec.band(w))
        mask = build_mask(MaskSpec.band(w), n, n)
        expected = _sublayer(x, dense_attention_oracle(x, x, x, p, heads, mask))
        assert np.max(np.abs(out.data - expected)) <= 1e-10, (n, heads, w)


def test_local_attention_counter_equals_popcount():
    d = 8
    n, w = 64, 8
    x = RngStream(3).normal((n, d))
    p = _params(4, d)
    counter = OpCounter()
    multi_head_attention(Tensor(x), None, p, _ln(d), 2, MaskSpec.band(w), counter)
    assert counter.score_evals == 2 * band_popcount(n, w)


def test_local_attention_weights_match_band_mask():
    # the blocked band: n=9, w=4 puts the last key in the padded third block
    n, w = 9, 4
    x = RngStream(8).normal((n, 4))
    _assert_weights_row_stochastic_and_zero_outside(
        x, build_mask(MaskSpec.band(w), n, n), MaskSpec.band(w), 1)


def test_local_attention_gradient_check():
    rng = RngStream(61)
    d = 8
    x = Tensor(rng.normal((10, d)))
    p = _params(71, d)
    ln = _ln(d)
    band = MaskSpec.band(4)
    probe = rng.normal((10, d))

    def loss_fn(tape=False):
        out = sum_all(mul_const(multi_head_attention(x, None, p, ln, 2, band), probe))
        return out if tape else out.item()

    check_param_grads(loss_fn, list(vars(p).values()) + list(ln))


@pytest.mark.parametrize("n", [16, 13], ids=["whole-blocks", "tail-pads"])
def test_banded_local_attention_records_one_entry_for_the_band(n):
    # one op projects x into query, key and value heads, one scores the band,
    # forms the context, merges the heads, projects them out and adds the
    # layer-normed branch to x
    d = 8
    x = Tensor(RngStream(4).normal((n, d)))
    tape = Tape()
    with recording(tape):
        multi_head_attention(x, None, _params(5, d), _ln(d), 2, MaskSpec.band(8))
    heads_in, block = tape.entries
    assert len(heads_in.out) == 3 and block.inputs[1:4] == heads_in.out
    assert block.inputs[0] is x


# -----------------------------------------------------------------------------
# Token-segment cross update: e + LN(attention of e to s), as the model runs it
# -----------------------------------------------------------------------------


def _cross_ln(d):
    return _ln(d)


def _cross_update(e, s, p, g, b, n_heads, counter=None):
    return multi_head_attention(e, s, p, (g, b), n_heads, None, counter)


def test_cross_attention_single_segment_broadcasts_branch():
    # one segment takes all of every token's weight: every branch is the same
    d = 8
    rng = RngStream(81)
    e = rng.normal((5, d))
    s = rng.normal((1, d))
    p = _params(91, d)
    g, b = _cross_ln(d)
    out = _cross_update(Tensor(e), Tensor(s), p, g, b, 2)
    branch = out.data - e
    for i in range(1, 5):
        np.testing.assert_allclose(branch[i], branch[0], atol=1e-12)


def test_cross_attention_zero_value_path_is_identity():
    d = 8
    rng = RngStream(82)
    e = rng.normal((4, d))
    s = rng.normal((3, d))
    p = _params(92, d)
    p.wv.value.data[...] = 0.0
    p.bv.value.data[...] = 0.0
    p.wo.value.data[...] = 0.0
    p.bo.value.data[...] = 0.0
    g, b = _cross_ln(d)
    out = _cross_update(Tensor(e), Tensor(s), p, g, b, 2)
    np.testing.assert_array_equal(out.data, e)


def test_cross_attention_matches_scalar_oracle():
    d = 6
    rng = RngStream(83)
    e = rng.normal((5, d))
    s = rng.normal((3, d))
    p = _params(93, d)
    p.wo.value.data[...] = np.eye(d)
    p.bo.value.data[...] = 0.0
    g, b = _cross_ln(d)
    out = _cross_update(Tensor(e), Tensor(s), p, g, b, 1)
    expected = cross_attention_oracle(e, s, p, g, b, 1)
    assert np.max(np.abs(out.data - expected)) <= 1e-10


def test_cross_attention_counter_and_empty_segments():
    d = 4
    e = RngStream(1).normal((5, d))
    s = RngStream(2).normal((3, d))
    p = _params(94, d)
    g, b = _cross_ln(d)
    counter = OpCounter()
    _cross_update(Tensor(e), Tensor(s), p, g, b, 2, counter)
    assert counter.score_evals == 2 * 5 * 3
    with pytest.raises(UsageError):
        _cross_update(Tensor(e), Tensor(np.zeros((0, d))), p, g, b, 2)


def test_cross_attention_gradient_check():
    d = 8
    rng = RngStream(84)
    e = Tensor(rng.normal((5, d)))
    s = Tensor(rng.normal((3, d)))
    p = _params(95, d)
    g, b = _cross_ln(d)
    probe = rng.normal((5, d))

    def loss_fn(tape=False):
        out = _cross_update(e, s, p, g, b, 2)
        out = sum_all(mul_const(out, probe))
        return out if tape else out.item()

    check_param_grads(loss_fn, list(vars(p).values()) + [g, b])


def test_mha_gradient_check_with_mask():
    d = 8
    rng = RngStream(85)
    x = Tensor(rng.normal((6, d)))
    p = _params(96, d)
    ln = _ln(d)
    mask = build_mask(MaskSpec.band(4), 6, 6)
    probe = rng.normal((6, d))

    def loss_fn(tape=False):
        out = multi_head_attention(x, None, p, ln, 2, mask)
        out = sum_all(mul_const(out, probe))
        return out if tape else out.item()

    check_param_grads(loss_fn, list(vars(p).values()) + list(ln))


def test_attention_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d_model=10, n_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(d_model=8, n_heads=2, window=3)


@pytest.mark.parametrize(
    "fields, message",
    [({"d_model": 0}, "must be positive"), ({"n_heads": 0}, "must be positive"),
     ({"d_model": 64, "n_heads": 3}, "not divisible"), ({"window": 3}, "window")],
    ids=["d_model-0", "n_heads-0", "n_heads-3", "window-3"],
)
def test_model_config_owns_the_width_head_and_window_checks(fields, message):
    with pytest.raises(ConfigError, match=message):
        ModelConfig(**fields)


@pytest.mark.parametrize("n_heads", [0, 3])
def test_multi_head_attention_refuses_heads_that_do_not_split_the_width(n_heads):
    d = 8
    x, s = Tensor(RngStream(5).normal((4, d))), Tensor(RngStream(6).normal((2, d)))
    for context in (None, s):
        with pytest.raises(ConfigError, match=f"width 8 does not split into {n_heads} heads"):
            multi_head_attention(x, context, _params(7, d), _ln(d), n_heads, None)


# -----------------------------------------------------------------------------
# the banded scorer against the dense oracle
# -----------------------------------------------------------------------------

def _banded_cases():
    """(N, w, heads): N=1, N < w/2, N one off a multiple of the block w/2,
    the saturating w = 2(N-1) beside the widest band below it, then random
    draws."""
    cases = [
        (1, 4, 1), (3, 8, 2), (2, 2, 1), (7, 6, 2), (11, 6, 1), (9, 4, 2),
        (13, 8, 3), (15, 8, 1), (6, 10, 2), (10, 18, 1), (10, 16, 2),
    ]
    rng = RngStream(404)
    for _ in range(8):
        n = int(rng.randint(2, 34, 1)[0])
        cases.append((n, 2 * int(rng.randint(1, n, 1)[0]), int(rng.randint(1, 4, 1)[0])))
    return cases


@pytest.mark.parametrize("lead", [(2,), (2, 3)])
def test_banded_core_matches_dense_oracle_with_batch_axes(lead):
    for trial, (n, w, heads) in enumerate(_banded_cases()):
        d = 4 * heads
        x = RngStream(trial).normal(lead + (n, d))
        p = _params(500 + trial, d)
        counter = OpCounter()
        out = multi_head_attention(Tensor(x), None, p, _ln(d), heads, MaskSpec.band(w), counter)
        mask = build_mask(MaskSpec.band(w), n, n)
        rows, got = x.reshape(-1, n, d), out.data.reshape(-1, n, d)
        for b in range(rows.shape[0]):
            expected = _sublayer(rows[b], dense_attention_oracle(rows[b], rows[b], rows[b], p,
                                                                 heads, mask))
            assert np.max(np.abs(got[b] - expected)) <= 1e-10, (lead, n, w, heads)
        assert counter.score_evals == int(np.prod(lead)) * heads * band_popcount(n, w)


def test_band_bias_is_built_once_per_shape_and_read_only():
    first = ops._band_block_bias(40, 8)
    assert ops._band_block_bias(40, 8)[0] is first[0]
    assert not first[0].flags.writeable
