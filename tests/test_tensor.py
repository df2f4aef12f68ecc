"""Tensor/Parameter/Tape invariants and allocation accounting."""

import gc
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tdt
from tdt import (
    Model,
    NumericsError,
    Parameter,
    RngStream,
    ShapeError,
    Tape,
    Tensor,
    UsageError,
    backward,
    desk_config,
    gen_keyvalue_task,
    recording,
    zero_grads,
)
from tdt import ops
from tdt.tensor import TapeEntry, current_tape
from tdt.training import batch_loss
from helpers import sum_all

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tensor_shape_data_agree():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.shape == (2, 3)
    assert t.size == 6


def test_tensor_rejects_nan_and_inf():
    with pytest.raises(NumericsError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(NumericsError):
        Tensor(np.array([np.inf]))


def test_parameter_grad_matches_shape_and_zeroing():
    p = Parameter("w", np.ones((3, 2)))
    assert p.grad.shape == (3, 2)
    p.grad += 1.0
    zero_grads([p])
    assert np.all(p.grad == 0.0)


def test_allocation_tracking_counts_live_tensors():
    gc.collect()
    base = tdt.live_bytes()
    t = Tensor(np.zeros((100, 100)))
    assert tdt.live_bytes() - base == 100 * 100 * 8
    del t
    gc.collect()
    assert tdt.live_bytes() == base


def test_peak_reset_tracks_high_water_mark():
    gc.collect()
    tdt.reset_peak()
    start = tdt.peak_bytes()
    t = Tensor(np.zeros(1000))
    del t
    gc.collect()
    assert tdt.peak_bytes() >= start + 8000
    tdt.reset_peak()
    assert tdt.peak_bytes() < start + 8000


def test_backward_requires_scalar_loss():
    tape = Tape()
    with recording(tape):
        out = ops.scale(Tensor(np.ones(3)), 2.0)
    with pytest.raises(UsageError):
        backward(out, tape)


def test_backward_linear_case_outer_product_structure():
    # loss = sum(x @ W) with x fixed: dL/dW[i, j] = sum over rows of x[:, i]
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    w = Parameter("w", np.zeros((2, 3)))
    tape = Tape()
    with recording(tape):
        loss = sum_all(ops.matmul(x, w))
    backward(loss, tape)
    expected = np.outer(x.data.sum(axis=0), np.ones(3))
    np.testing.assert_array_equal(w.grad, expected)


def test_backward_accumulates_exactly_twice_without_zero():
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Parameter("w", np.array([[1.0], [2.0]]))

    def run():
        tape = Tape()
        with recording(tape):
            loss = sum_all(ops.matmul(x, w))
        backward(loss, tape)

    run()
    once = w.grad.copy()
    run()
    np.testing.assert_array_equal(w.grad, 2.0 * once)


def test_parameter_used_twice_gets_single_summed_accumulation():
    # w enters the graph twice; grad must be the sum, applied once.
    w = Parameter("w", np.array([[2.0]]))
    x = Tensor(np.array([[3.0]]))
    tape = Tape()
    with recording(tape):
        a = ops.matmul(x, w)
        b = ops.matmul(a, w)
        loss = sum_all(b)
    backward(loss, tape)
    # d/dw (x*w*w) = 2*x*w = 12
    np.testing.assert_allclose(w.grad, [[12.0]])


def test_tape_reverse_order_and_entry_count():
    x = Tensor(np.ones((2, 2)))
    tape = Tape()
    with recording(tape):
        y = ops.scale(x, 2.0)
        z = ops.add(y, x)
        sum_all(z)
    assert len(tape) == 3
    assert tape.entries[-1].out.size == 1  # last executed is last recorded


def test_no_recording_outside_context():
    tape = Tape()
    with recording(tape):
        pass
    ops.scale(Tensor(np.ones(2)), 3.0)
    assert len(tape) == 0


def test_recording_nests_and_restores_the_outer_tape_also_on_raise():
    outer, inner = Tape(), Tape()
    seen = []
    with recording(outer):
        with recording(inner):
            seen.append(current_tape())
            with recording(None):
                seen.append(current_tape())
            seen.append(current_tape())
        seen.append(current_tape())
        with pytest.raises(UsageError), recording(inner):
            raise UsageError("inside the inner recording")
        seen.append(current_tape())
    assert seen == [inner, None, inner, outer, outer]  # Tape compares by identity
    assert current_tape() is None


def test_assign_validates_shape_and_finiteness():
    p = Parameter("w", np.ones(3))
    with pytest.raises(ShapeError):
        p.assign(np.ones(4))
    with pytest.raises(NumericsError):
        p.assign(np.array([1.0, np.nan, 2.0]))


def test_rejected_tensor_leaves_live_bytes_unchanged():
    gc.collect()
    base = tdt.live_bytes()
    with pytest.raises(NumericsError):
        Tensor(np.array([1.0, np.nan, 2.0]))
    gc.collect()
    assert tdt.live_bytes() == base


_x = np.arange(24.0).reshape(2, 3, 4)


@pytest.mark.parametrize(
    "op, shares",
    [
        (lambda x: ops.reshape(x, (6, 4)), True),
        (lambda x: ops.transpose(x, (0, 2, 1)), False),
        (lambda x: ops.concat([x, x], axis=1), False),
        # gather_rows as a table lookup and as a per-batch row gather; the
        # per-row pick inside cross_entropy; window_sum past the sequence end
        (lambda x: ops.gather_rows(ops.reshape(x, (6, 4)), np.array([[5, 0], [2, 2]])), False),
        (lambda x: ops.gather_rows(x, np.array([2, 0, 2, 1])), False),
        (lambda x: ops.cross_entropy(ops.reshape(x, (6, 4)), np.array([3, 2, 1, 0, 0, 1]), -1),
         False),
        (lambda x: ops.window_sum(x, np.array([0, 2]), np.full((2, 3), 1 / 3)), False),
    ],
    ids=["reshape", "transpose", "concat", "embedding", "take_rows", "take_index_last",
         "gather_windows"],
)
def test_structural_op_output_is_tracked_while_alive(op, shares):
    x = Tensor(_x)
    gc.collect()
    base = tdt.live_bytes()
    out = op(x)
    # a view of x's memory adds nothing: those bytes are counted with x
    assert np.shares_memory(out.data, x.data) == shares
    assert out.nbytes == (0 if shares else out.data.nbytes)
    assert tdt.live_bytes() - base == out.nbytes
    del out
    gc.collect()
    assert tdt.live_bytes() == base


@pytest.mark.parametrize(
    "op",
    [
        lambda x: ops.reshape(x, (6, 4)),
        lambda x: ops.transpose(ops.reshape(x, (1, 6, 4)), (1, 0, 2)),
    ],
    ids=["reshape", "transpose-of-reshape"],
)
def test_view_bytes_stay_counted_until_input_and_view_are_gone(op):
    gc.collect()
    base = tdt.live_bytes()
    x = Tensor(_x.copy())
    view = op(x)
    assert np.shares_memory(view.data, x.data)
    assert tdt.live_bytes() - base == _x.nbytes
    del x
    gc.collect()
    assert tdt.live_bytes() - base == _x.nbytes
    del view
    gc.collect()
    assert tdt.live_bytes() == base


@pytest.mark.parametrize(
    "op, message",
    [
        (lambda: ops.scale(Tensor([1e308]), 10.0), "scale: non-finite result from inputs [(1,)]"),
        (lambda: ops.add(Tensor([1e308]), Tensor([1e308])),
         "add: non-finite result from inputs [(1,), (1,)]"),
        (lambda: ops.attention_block(
            *(Tensor(a) for a in (np.zeros((3, 2)), np.full((1, 3, 1), 1e200),
                                  np.full((1, 3, 1), 1e200), np.ones((1, 3, 1)), np.ones((1, 2)),
                                  np.zeros(2), np.ones(2), np.zeros(2))), window=2),
         "attention_block (softmax): non-finite result from inputs [(3, 2), (1, 3, 1), "
         "(1, 3, 1), (1, 3, 1), (1, 2), (2,), (2,), (2,)]"),
    ],
    ids=["scale", "add", "band_attention"],
)
def test_numerics_error_names_op_and_input_shapes(op, message):
    # an overflowing score makes the softmax's max shift inf - inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError) as exc:
        op()
    assert str(exc.value) == message


# -----------------------------------------------------------------------------
# backward consumes its tape
# -----------------------------------------------------------------------------


def _ln_params():
    """A zero residual, a [4, 8] branch, and the layer norm's gain and bias:
    all parameters, so they are live before a test reads its baseline."""
    return (Parameter("residual", np.zeros((4, 8))),
            Parameter("x", np.arange(32.0).reshape(4, 8) % 5),
            Parameter("gain", np.ones(8)), Parameter("bias", np.zeros(8)))


def _ln_loss(tape, params):
    """sum(residual_ln(0, x)) = sum(LN(x)) over a [4, 8] input, recorded on
    ``tape``; returns the loss and the layer norm's output."""
    with recording(tape):
        y = ops.residual_ln(*params)
        loss = sum_all(y)
    return loss, y


def test_backward_pops_every_entry_and_len_keeps_the_recorded_count():
    tape = Tape()
    loss, _ = _ln_loss(tape, _ln_params())
    assert len(tape) == 2 and not tape.spent
    backward(loss, tape)
    assert tape.entries == [] and tape.spent
    assert len(tape) == 2


def test_a_spent_tape_refuses_a_second_backward_and_new_entries():
    tape, params = Tape(), _ln_params()
    loss, _ = _ln_loss(tape, params)
    backward(loss, tape)
    grads = [p.grad.copy() for p in params]
    with pytest.raises(UsageError, match="spent"):
        backward(loss, tape)
    with pytest.raises(UsageError, match="spent"), recording(tape):
        ops.scale(Tensor(np.ones(2)), 2.0)
    assert len(tape) == 2
    for p, g in zip(params, grads):
        np.testing.assert_array_equal(p.grad, g)


def test_saved_arrays_are_counted_until_backward_pops_their_entry():
    params = _ln_params()
    gc.collect()
    base = tdt.live_bytes()
    tape = Tape()
    loss, y = _ln_loss(tape, params)
    # the scalar loss, the output, and the saved xhat [4, 8] and 1/std [4, 1]
    assert tdt.live_bytes() - base == 8 + y.nbytes + 32 * 8 + 4 * 8
    backward(loss, tape)
    gc.collect()
    assert tdt.live_bytes() - base == 8 + y.nbytes
    del y
    gc.collect()
    assert tdt.live_bytes() - base == 8


def test_saved_arrays_are_released_when_an_unused_tape_is_dropped():
    params = _ln_params()
    gc.collect()
    base = tdt.live_bytes()
    tape = Tape()
    loss, y = _ln_loss(tape, params)
    assert tdt.live_bytes() - base == 8 + y.nbytes + 32 * 8 + 4 * 8
    del tape
    gc.collect()
    assert tdt.live_bytes() - base == 8 + y.nbytes


def _assert_saved_until_backward(op, params, saved: int) -> None:
    """Recording ``op(*params)`` leaves its output and ``saved`` bytes of its
    entry's own arrays live beside the scalar loss; backward frees the
    saved bytes, and dropping the output leaves the loss alone."""
    gc.collect()
    base = tdt.live_bytes()
    tape = Tape()
    with recording(tape):
        out = op(*params)
        loss = sum_all(out)
    assert tdt.live_bytes() - base == 8 + out.nbytes + saved
    backward(loss, tape)
    gc.collect()
    assert tdt.live_bytes() - base == 8 + out.nbytes
    del out
    gc.collect()
    assert tdt.live_bytes() - base == 8


def _normal_params(*shapes):
    return [Parameter(f"p{i}", RngStream(i).normal(shape)) for i, shape in enumerate(shapes)]


def _attention_shapes(h, n, m, d, e, lead=(), kv_lead=()):
    """attention_block's eight input shapes: residual, queries, keys,
    values, projection weight and bias, layer-norm gain and bias."""
    return [lead + (n, e), lead + (h, n, d), kv_lead + (h, m, d), kv_lead + (h, m, d),
            (h * d, e), (e,), (e,), (e,)]


def test_band_attention_saved_arrays_are_counted_until_backward_pops_its_entry():
    # 2 heads, n=7, w=4: blocks of 2, so 4 query blocks and one padded query row;
    # the entry keeps the probabilities and the layer norm's xhat [7, 5] and
    # 1/std [7, 1]; the vjp pads q, k and v again and rebuilds the context
    h, n, d, block, nb = 2, 7, 3, 2, 4
    saved = (h * nb * block * 3 * block + n * 5 + n) * 8
    _assert_saved_until_backward(
        lambda *p: ops.attention_block(*p, window=2 * block, scale=0.5),
        _normal_params(*_attention_shapes(h, n, n, d, 5)), saved)


@pytest.mark.parametrize("op, shapes, saved", [
    # 5 rows, d 4, hidden 16: the tanh term [5, 16], the layer norm's xhat [5, 4] and 1/std [5, 1]
    (ops.ffn_block, [(5, 4), (4, 16), (16,), (16, 4), (4,), (4,), (4,)], (5 * 16 + 5 * 4 + 5) * 8),
    # the dense probabilities [2, 3, 5], xhat [3, 6] and 1/std [3, 1]: the vjp
    # rebuilds the key transpose, the scaled queries and the context
    (lambda *p: ops.attention_block(*p, scale=0.5), _attention_shapes(2, 3, 5, 4, 6),
     (2 * 3 * 5 + 3 * 6 + 3) * 8),
    # keys and values of batch one for two rows: the probabilities [2, 2, 3, 5],
    # xhat [2, 3, 6] and 1/std [2, 3, 1], and nothing of the merged heads or
    # the projection, which the vjp rebuilds from them
    (ops.attention_block, _attention_shapes(2, 3, 5, 4, 6, (2,), (1,)),
     (2 * 2 * 3 * 5 + 2 * 3 * 6 + 2 * 3) * 8),
], ids=["ffn_block", "attention_probs", "heads_out"])
def test_an_entry_keeps_only_what_its_vjp_cannot_rebuild(op, shapes, saved):
    _assert_saved_until_backward(op, _normal_params(*shapes), saved)


def test_a_saved_view_adds_no_bytes():
    gc.collect()
    base = tdt.live_bytes()
    out, arr = Tensor(np.zeros(3)), np.zeros((4, 4))
    entry = TapeEntry(out, (), None, (arr, arr[1:], arr.T))
    assert tdt.live_bytes() - base == out.nbytes + arr.nbytes
    del entry
    gc.collect()
    assert tdt.live_bytes() - base == out.nbytes


def test_a_multi_output_entry_counts_its_outputs_and_gets_zeros_for_an_unread_one():
    x = Parameter("x", RngStream(1).normal((3, 4)))
    pairs = [(Parameter(f"w{i}", RngStream(2 + i).normal((4, 4))),
              Parameter(f"b{i}", RngStream(5 + i).normal((4,)))) for i in range(3)]
    gc.collect()
    base = tdt.live_bytes()
    tape = Tape()
    with recording(tape):
        q, k, v = ops.heads_in(x, pairs, 2)
        loss = sum_all(k)  # q and v unread
    assert tape.entries[0].out == (q, k, v)
    heads = 3 * 3 * 4 * 8
    assert tdt.live_bytes() - base == heads + 8
    del q, v
    gc.collect()
    assert tdt.live_bytes() - base == heads + 8  # the entry holds its outputs
    backward(loss, tape)
    gc.collect()
    assert tdt.live_bytes() - base == k.nbytes + 8
    for w, b in (pairs[0], pairs[2]):  # the zeros of the unread outputs
        assert not w.grad.any() and not b.grad.any()
    assert pairs[1][0].grad.any() and x.grad.any()
    # x's gradient is k's projection alone: the zeros added nothing
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)) @ pairs[1][0].value.data.T)


def test_live_bytes_return_to_the_pre_forward_level_after_a_train_step():
    cfg = desk_config()
    m = Model(cfg, seed=2)
    batch = [gen_keyvalue_task(RngStream(7).split(str(j)), 64, cfg.window,
                                cfg.n_bottom_up, cfg.vocab_size) for j in range(2)]
    gc.collect()
    base = tdt.live_bytes()
    tape = Tape()
    loss = batch_loss(m, batch, tape)
    assert len(tape) == 36
    backward(loss, tape)
    assert tape.entries == []
    del loss
    gc.collect()
    assert tdt.live_bytes() == base


def test_a_desk_forward_leaves_at_most_13_5_mb_live():
    # 8 key-value instances at N=64: the traced train_desk step's batch. Each
    # op's entry keeps only what its vjp cannot rebuild (26.61 MB when the
    # FFN kept its hidden layer and the scorers their padded and scaled copies,
    # 15.17 MB when the attention context and branch stayed on the tape).
    cfg = desk_config()
    m = Model(cfg, seed=1)
    batch = [gen_keyvalue_task(RngStream(1).split(str(j)), 64, cfg.window,
                                cfg.n_bottom_up, cfg.vocab_size) for j in range(8)]
    gc.collect()
    base = tdt.live_bytes()
    tape = Tape()
    batch_loss(m, batch, tape)
    assert len(tape) == 36
    assert tdt.live_bytes() - base <= 13.5 * 10**6


# -----------------------------------------------------------------------------
# the heap policy of a training process
# -----------------------------------------------------------------------------


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


def _run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy applies on glibc only")
def test_warm_train_steps_fault_in_no_new_pages():
    out = _run_python("""
        import resource
        from tdt import Adam, Model, RngStream, Tape, backward, desk_config, gen_keyvalue_task
        from tdt.training import batch_loss

        cfg = desk_config()
        model = Model(cfg, seed=1)
        opt = Adam(model.parameters(), lr=3e-4)
        for step in range(8):
            batch = [gen_keyvalue_task(RngStream(1).split(f"{step}/{j}"), 64, cfg.window,
                                       cfg.n_bottom_up, cfg.vocab_size) for j in range(8)]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            opt.zero_grads()
            tape = Tape()
            loss = batch_loss(model, batch, tape)
            backward(loss, tape)
            opt.step()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    faults = [int(line) for line in out.split()]
    assert len(faults) == 8
    # Without the policy glibc trims the heap that backward frees, and each
    # step faults thousands of pages back in.
    assert max(faults[3:]) < 100, faults


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy applies on glibc only")
def test_the_first_encode_applies_the_heap_policy():
    out = _run_python("""
        import tdt.tensor
        from tdt import Model, RngStream, desk_config, gen_keyvalue_task

        cfg = desk_config()
        model = Model(cfg, seed=1)
        inst = gen_keyvalue_task(RngStream(1), 64, cfg.window, cfg.n_bottom_up, cfg.vocab_size)
        print(tdt.tensor._heap_kept)
        model.encode(inst.source)
        print(tdt.tensor._heap_kept)
    """)
    assert out.split() == ["False", "True"]


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy applies on glibc only")
def test_warm_long_encodes_fault_in_no_new_pages():
    out = _run_python("""
        import resource
        from tdt import Model, RngStream, desk_config

        n = 2048
        cfg = desk_config(window=32, kernel_size=32, stride=24, max_positions=n)
        model = Model(cfg, seed=1)
        for i in range(6):
            ids = RngStream(i).randint(3, cfg.vocab_size, n)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            model.encode(ids)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    faults = [int(line) for line in out.split()]
    assert len(faults) == 6
    # Under glibc's dynamic trim an encode can return its heap top and fault
    # thousands of pages back in on the next one.
    assert max(faults[2:]) < 100, faults
