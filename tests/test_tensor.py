"""Tensor/Parameter/Tape invariants and allocation accounting."""

import gc

import numpy as np
import pytest

import tdt
from tdt import (
    NumericsError,
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    UsageError,
    backward,
    recording,
    zero_grads,
)
from tdt import ops


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
        loss = ops.sum_all(ops.matmul(x, w))
    backward(loss, tape)
    expected = np.outer(x.data.sum(axis=0), np.ones(3))
    np.testing.assert_array_equal(w.grad, expected)


def test_backward_accumulates_exactly_twice_without_zero():
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Parameter("w", np.array([[1.0], [2.0]]))

    def run():
        tape = Tape()
        with recording(tape):
            loss = ops.sum_all(ops.matmul(x, w))
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
        loss = ops.sum_all(b)
    backward(loss, tape)
    # d/dw (x*w*w) = 2*x*w = 12
    np.testing.assert_allclose(w.grad, [[12.0]])


def test_tape_reverse_order_and_entry_count():
    x = Tensor(np.ones((2, 2)))
    tape = Tape()
    with recording(tape):
        y = ops.scale(x, 2.0)
        z = ops.add(y, x)
        ops.sum_all(z)
    assert len(tape) == 3
    assert tape.entries[-1].out.size == 1  # last executed is last recorded


def test_no_recording_outside_context():
    tape = Tape()
    with recording(tape):
        pass
    ops.scale(Tensor(np.ones(2)), 3.0)
    assert len(tape) == 0


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
    "op",
    [
        lambda x: ops.reshape(x, (6, 4)),
        lambda x: ops.transpose(x, (0, 2, 1)),
        lambda x: ops.concat([x, x], axis=1),
        lambda x: ops.slice_axis(x, 1, 1, 3),
        lambda x: ops.pad_axis(x, 1, 2, 1),
        lambda x: ops.embedding(ops.reshape(x, (6, 4)), np.array([[5, 0], [2, 2]])),
        lambda x: ops.take_rows(x, np.array([2, 0, 2, 1])),
        lambda x: ops.take_index_last(ops.reshape(x, (6, 4)), np.array([3, 2, 1, 0, 0, 1])),
        lambda x: ops.gather_windows(x, np.array([0, 2]), 3),
    ],
    ids=["reshape", "transpose", "concat", "slice_axis", "pad_axis", "embedding",
         "take_rows", "take_index_last", "gather_windows"],
)
def test_structural_op_output_is_tracked_while_alive(op):
    x = Tensor(_x)
    gc.collect()
    base = tdt.live_bytes()
    out = op(x)
    assert out.nbytes == out.data.nbytes > 0
    assert tdt.live_bytes() - base == out.nbytes
    del out
    gc.collect()
    assert tdt.live_bytes() == base


@pytest.mark.parametrize(
    "op, message",
    [
        (lambda: ops.scale(Tensor([1e308]), 10.0), "scale: non-finite result from inputs [(1,)]"),
        (lambda: ops.add(Tensor([1e308]), Tensor([1e308])),
         "add: non-finite result from inputs [(1,), (1,)]"),
    ],
    ids=["scale", "add"],
)
def test_numerics_error_names_op_and_input_shapes(op, message):
    with np.errstate(over="ignore"), pytest.raises(NumericsError) as exc:
        op()
    assert str(exc.value) == message
