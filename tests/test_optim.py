"""Adam optimizer contract."""

import numpy as np
import pytest

from tdt import Adam, NumericsError, Parameter


def test_zero_gradient_leaves_parameters_unchanged():
    p = Parameter("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.value.data, [1.0, -2.0])


def test_single_step_hand_formula():
    # p=1, g=1, lr=0.1, defaults, t=1:
    # m_hat = 1, v_hat = 1 -> p' = 1 - 0.1 * 1 / (sqrt(1) + 1e-8) ~= 0.9
    p = Parameter("p", np.array([1.0]))
    p.grad[:] = 1.0
    opt = Adam([p], lr=0.1)
    opt.step()
    assert abs(p.value.data[0] - 0.9) < 1e-6


def test_quadratic_bowl_converges():
    # f(p) = p^2 from p=1, lr=0.05: |p| < 1e-2 within 500 steps
    p = Parameter("p", np.array([1.0]))
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grads()
        p.grad[:] = 2.0 * p.value.data
        opt.step()
    assert abs(p.value.data[0]) < 1e-2


def test_nonfinite_gradient_aborts_with_parameter_name():
    p = Parameter("layer.weight", np.array([1.0]))
    p.grad[:] = np.nan
    opt = Adam([p], lr=0.1)
    with pytest.raises(NumericsError, match="layer.weight"):
        opt.step()


def test_nonfinite_gradient_changes_nothing():
    # a finite gradient on `a` and a NaN on `b`: the step raises before `a`,
    # any moment or the step count moves
    a = Parameter("a", np.array([1.0]))
    b = Parameter("b", np.array([2.0]))
    a.grad[:] = 1.0
    b.grad[:] = np.nan
    opt = Adam([a, b], lr=0.1)
    with pytest.raises(NumericsError, match="'b'"):
        opt.step()
    assert a.value.data[0] == 1.0 and b.value.data[0] == 2.0
    assert opt.t == 0
    # the next step is bit-identical to a first step from fresh state
    b.grad[:] = 0.0
    opt.step()
    fresh = Parameter("a", np.array([1.0]))
    fresh.grad[:] = 1.0
    Adam([fresh], lr=0.1).step()
    assert a.value.data[0] == fresh.value.data[0] and b.value.data[0] == 2.0


def test_determinism_across_runs():
    def run():
        p = Parameter("p", np.array([1.0, 2.0, 3.0]))
        opt = Adam([p], lr=0.01)
        for step in range(50):
            opt.zero_grads()
            p.grad[:] = np.sin(p.value.data * (step + 1))
            opt.step()
        return p.value.data.copy()

    np.testing.assert_array_equal(run(), run())
