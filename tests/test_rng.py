"""Determinism and splitting of the counter-based random stream."""

import numpy as np
import pytest

from tdt import RngStream, UsageError


def test_same_seed_same_sequence():
    a = RngStream(1234).u64(100)
    b = RngStream(1234).u64(100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(1).u64(64)
    b = RngStream(2).u64(64)
    assert (a != b).any()


def test_counter_advances_and_resumes():
    s = RngStream(7)
    first = s.uniform((10,))
    s2 = RngStream(7, counter=10)
    second_direct = s2.uniform((10,))
    second_cont = s.uniform((10,))
    np.testing.assert_array_equal(second_cont, second_direct)


def test_split_is_order_independent():
    s = RngStream(42)
    a1 = s.split("init").normal((4,))
    b1 = s.split("data").normal((4,))
    s2 = RngStream(42)
    b2 = s2.split("data").normal((4,))
    a2 = s2.split("init").normal((4,))
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)


def test_split_children_differ_from_parent_and_each_other():
    s = RngStream(9)
    draws = {
        "parent": RngStream(9).u64(16).tobytes(),
        "a": s.split("a").u64(16).tobytes(),
        "b": s.split("b").u64(16).tobytes(),
        "a/0": s.split("a").split(0).u64(16).tobytes(),
    }
    assert len(set(draws.values())) == len(draws)


def test_uniform_range_and_mean():
    u = RngStream(5).uniform((20000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    z = RngStream(11).normal((20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_randint_bounds_and_coverage():
    draws = RngStream(3).randint(5, 9, 2000)
    assert draws.min() == 5 and draws.max() == 8
    assert set(np.unique(draws)) == {5, 6, 7, 8}


def test_shuffled_is_permutation_and_deterministic():
    items = list(range(20))
    a = RngStream(13).shuffled(items)
    b = RngStream(13).shuffled(items)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


@pytest.mark.parametrize("n", [0, 1, 2, 16, 33])
def test_shuffled_matches_one_choice_int_per_swap(n):
    items = [f"item{i}" for i in range(n)]
    ref, out = RngStream(29), list(items)
    for i in range(n - 1, 0, -1):
        j = ref.choice_int(0, i + 1)
        out[i], out[j] = out[j], out[i]
    stream = RngStream(29)
    assert stream.shuffled(items) == out
    assert stream.counter == ref.counter == max(n - 1, 0)


def test_randint_rejects_empty_range():
    for low, high in ((3, 3), (5, 2)):
        with pytest.raises(UsageError):
            RngStream(0).randint(low, high)
