"""Synthetic task generators."""

import numpy as np
import pytest

from tdt import RngStream, UsageError, gen_copy_task, gen_keyvalue_task
from tdt.tasks import (
    FILLER_BASE,
    KEY_TOKEN,
    N_VALUES,
    QUERY_BASE,
    VALUE_BASE,
)


def test_copy_length_one():
    inst = gen_copy_task(RngStream(1), (1, 1), 16)
    assert len(inst.source) == 1
    assert inst.target == inst.source


def test_copy_target_equals_source_many_draws():
    rng = RngStream(2)
    for _ in range(10_000):
        inst = gen_copy_task(rng, (1, 9), 16)
        assert inst.target == inst.source
        assert all(3 <= t < 16 for t in inst.source)


def test_copy_seed_determinism():
    a = [gen_copy_task(RngStream(3, counter=i * 100), (2, 8), 32) for i in range(20)]
    b = [gen_copy_task(RngStream(3, counter=i * 100), (2, 8), 32) for i in range(20)]
    assert [x.source for x in a] == [x.source for x in b]


def test_copy_vocab_too_small():
    with pytest.raises(UsageError):
        gen_copy_task(RngStream(0), (1, 4), 3)


def test_keyvalue_structure_and_distance_bound():
    # N=64, w=8, n_bottom_up=2: the queried slot sits far beyond the
    # receptive field (block positions 0..15 vs query at position 63)
    rng = RngStream(5)
    for _ in range(500):
        inst = gen_keyvalue_task(rng, 64, 8, 2, 64)
        src = inst.source
        assert len(src) == 64
        q = src[-1]
        assert QUERY_BASE <= q < QUERY_BASE + N_VALUES
        slot = q - QUERY_BASE
        assert inst.target == [src[slot]]
        assert VALUE_BASE <= src[slot] < VALUE_BASE + N_VALUES
        assert src[-2] == KEY_TOKEN
        assert (64 - 1) - slot > 8  # beyond the bottom-up receptive field


def test_keyvalue_oracle_labels_mark_key_and_queried_slot():
    rng = RngStream(6)
    for _ in range(200):
        inst = gen_keyvalue_task(rng, 64, 8, 2, 64)
        labels = np.array(inst.labels)
        assert labels.sum() == 2
        slot = inst.source[-1] - QUERY_BASE
        assert labels[slot] == 1
        assert labels[62] == 1  # the KEY marker position
        assert inst.source[slot] == inst.target[0]


def test_keyvalue_block_holds_every_value_exactly_once():
    # counts, presence, and local neighborhoods are uninformative: the first
    # sixteen positions are a permutation of all sixteen values
    rng = RngStream(7)
    for _ in range(200):
        inst = gen_keyvalue_task(rng, 64, 8, 2, 64)
        block = inst.source[:N_VALUES]
        assert sorted(block) == list(range(VALUE_BASE, VALUE_BASE + N_VALUES))
        for tok in inst.source[N_VALUES:-2]:
            assert tok >= FILLER_BASE


def test_keyvalue_answer_slot_uniform():
    rng = RngStream(8)
    counts = np.zeros(N_VALUES)
    for _ in range(3000):
        inst = gen_keyvalue_task(rng, 64, 8, 2, 64)
        counts[inst.source[-1] - QUERY_BASE] += 1
    assert counts.min() > 120  # uniform would be 187.5


def test_keyvalue_target_value_uniform():
    rng = RngStream(9)
    counts = np.zeros(N_VALUES)
    for _ in range(3000):
        inst = gen_keyvalue_task(rng, 64, 8, 2, 64)
        counts[inst.target[0] - VALUE_BASE] += 1
    assert counts.min() > 120


def test_keyvalue_too_short_raises():
    with pytest.raises(UsageError):
        gen_keyvalue_task(RngStream(9), 18, 8, 2, 64)
    with pytest.raises(UsageError):
        gen_keyvalue_task(RngStream(9), 40, 16, 4, 64)  # receptive field 32


def test_keyvalue_needs_a_finite_window():
    with pytest.raises(UsageError, match="finite window"):
        gen_keyvalue_task(RngStream(0), 64, None, 2, 64)


def test_keyvalue_vocab_too_small_raises():
    with pytest.raises(UsageError):
        gen_keyvalue_task(RngStream(10), 64, 8, 2, FILLER_BASE)


def test_keyvalue_determinism():
    a = gen_keyvalue_task(RngStream(11), 64, 8, 2, 64)
    b = gen_keyvalue_task(RngStream(11), 64, 8, 2, 64)
    assert a.source == b.source and a.target == b.target and a.labels == b.labels
