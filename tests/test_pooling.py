"""Segmentation, both pooling rules vs scalar oracles, and importance labels."""

import numpy as np
import pytest

from tdt import (
    ConfigError,
    RngStream,
    SegmentationSpec,
    Tensor,
    build_importance_labels,
    labels_to_weights,
    pool_average,
    pool_weighted,
    segment_index_map,
)
from tdt.pooling import DEFAULT_STOPWORDS, stem_word


def pool_average_oracle(e, k, stride):
    """Window loop, literal 1/k divisor, zero padding."""
    n = e.shape[0]
    m = 1 if n <= k else -(-(n - k) // stride) + 1
    out = np.zeros((m, e.shape[1]))
    for j in range(m):
        for t in range(k):
            idx = j * stride + t
            if idx < n:
                out[j] += e[idx] / k
    return out


def pool_weighted_oracle(e, p, k, stride):
    """Scalar loop of the normalized in-window weighting."""
    n = e.shape[0]
    m = 1 if n <= k else -(-(n - k) // stride) + 1
    out = np.zeros((m, e.shape[1]))
    for j in range(m):
        idxs = [j * stride + t for t in range(k) if j * stride + t < n]
        mx = max(p[i] for i in idxs)
        z = sum(np.exp(p[i] - mx) for i in idxs)
        for i in idxs:
            out[j] += np.exp(p[i] - mx) / z * e[i]
    return out


# -----------------------------------------------------------------------------
# segmentation
# -----------------------------------------------------------------------------


def test_single_segment_when_shorter_than_kernel():
    spec = SegmentationSpec(32, 24)
    segs = segment_index_map(7, spec)
    assert segs == [(0, 32)]  # 25 padded slots


def test_segment_count_exact_division():
    spec = SegmentationSpec(32, 24)
    segs = segment_index_map(8192, spec)
    assert len(segs) == 341
    covered = set()
    for start, length in segs:
        covered.update(range(start, min(start + length, 8192)))
    assert covered == set(range(8192))
    # zero padding: last segment ends exactly at the boundary
    assert segs[-1][0] + segs[-1][1] == 8192


def test_kernel_length_input_single_unpadded_segment():
    spec = SegmentationSpec(32, 24)
    assert segment_index_map(32, spec) == [(0, 32)]


def test_stride_greater_than_kernel_rejected():
    with pytest.raises(ConfigError):
        SegmentationSpec(8, 9)


def test_interior_tokens_covered_once_or_twice_with_default_overlap():
    spec = SegmentationSpec(32, 24)
    n = 200
    counts = np.zeros(n, dtype=int)
    for start, length in segment_index_map(n, spec):
        for i in range(start, min(start + length, n)):
            counts[i] += 1
    assert counts.min() >= 1
    assert set(counts.tolist()) <= {1, 2}  # overlap is exactly 8 tokens


def test_shift_equivariance_by_one_stride():
    spec = SegmentationSpec(8, 4)
    rng = RngStream(3)
    base = rng.normal((40, 5))
    shifted = np.concatenate([rng.normal((4, 5)), base], axis=0)
    a = pool_average(Tensor(base), spec).data
    b = pool_average(Tensor(shifted), spec).data
    # interior segments of the shifted input reproduce the original ones
    np.testing.assert_allclose(b[1:9], a[0:8], atol=1e-12)


# -----------------------------------------------------------------------------
# pooling rules
# -----------------------------------------------------------------------------


def test_average_pool_constant_input():
    spec = SegmentationSpec(4, 4)
    e = np.tile([[2.0, -1.0, 0.5]], (8, 1))
    out = pool_average(Tensor(e), spec).data
    np.testing.assert_allclose(out, np.tile([[2.0, -1.0, 0.5]], (2, 1)), atol=1e-15)


def test_average_pool_hand_means():
    spec = SegmentationSpec(2, 2)
    e = np.array([[1.0], [3.0], [5.0], [7.0]])
    out = pool_average(Tensor(e), spec).data
    np.testing.assert_allclose(out, [[2.0], [6.0]])


def test_average_pool_matches_window_loop_oracle():
    rng = RngStream(17)
    spec = SegmentationSpec(32, 24)
    e = rng.normal((50, 6))
    out = pool_average(Tensor(e), spec).data
    np.testing.assert_allclose(out, pool_average_oracle(e, 32, 24), atol=1e-12)


def test_weighted_pool_uniform_weights_is_unpadded_mean():
    rng = RngStream(19)
    spec = SegmentationSpec(32, 24)
    e = rng.normal((50, 4))
    out = pool_weighted(Tensor(e), np.full(50, 3.7), spec).data
    # uniform weights: arithmetic mean over the real tokens of each window
    for j, (start, length) in enumerate(segment_index_map(50, spec)):
        real = e[start : min(start + length, 50)]
        np.testing.assert_allclose(out[j], real.mean(axis=0), atol=1e-12)


def test_weighted_pool_saturated_weight_selects_token():
    spec = SegmentationSpec(8, 8)
    rng = RngStream(23)
    e = rng.normal((8, 5))
    p = np.zeros(8)
    p[3] = 40.0
    out = pool_weighted(Tensor(e), p, spec).data
    np.testing.assert_allclose(out[0], e[3], atol=1e-12)


def test_weighted_pool_matches_scalar_oracle():
    rng = RngStream(29)
    spec = SegmentationSpec(32, 24)
    e = rng.normal((50, 6))
    p = rng.normal((50,), std=2.0)
    out = pool_weighted(Tensor(e), p, spec).data
    np.testing.assert_allclose(out, pool_weighted_oracle(e, p, 32, 24), atol=1e-12)


def test_pooling_oracle_property_sweep():
    rng = RngStream(31)
    for trial in range(30):
        n = int(rng.randint(1, 80, 1)[0])
        k = int(rng.randint(1, 20, 1)[0])
        stride = int(rng.randint(1, k + 1, 1)[0])
        spec = SegmentationSpec(k, stride)
        e = rng.normal((n, 3))
        p = rng.normal((n,), std=3.0)
        np.testing.assert_allclose(
            pool_average(Tensor(e), spec).data, pool_average_oracle(e, k, stride),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            pool_weighted(Tensor(e), p, spec).data, pool_weighted_oracle(e, p, k, stride),
            atol=1e-12,
        )
        # constant weights reduce to the unpadded-window mean
        const = pool_weighted(Tensor(e), np.zeros(n), spec).data
        for j, (start, length) in enumerate(segment_index_map(n, spec)):
            real = e[start : min(start + length, n)]
            np.testing.assert_allclose(const[j], real.mean(axis=0), atol=1e-12)


def test_pooled_rows_lie_in_window_convex_hull():
    rng = RngStream(37)
    spec = SegmentationSpec(6, 4)
    e = rng.normal((30, 4))
    p = rng.normal((30,))
    for pooled in (pool_average(Tensor(e), spec).data, pool_weighted(Tensor(e), p, spec).data):
        for j, (start, length) in enumerate(segment_index_map(30, spec)):
            real = e[start : min(start + length, 30)]
            lo, hi = real.min(axis=0), real.max(axis=0)
            # average pooling divides by k, so padded windows shrink toward 0
            lo = np.minimum(lo, 0.0)
            hi = np.maximum(hi, 0.0)
            assert np.all(pooled[j] >= lo - 1e-12)
            assert np.all(pooled[j] <= hi + 1e-12)


# -----------------------------------------------------------------------------
# importance labels
# -----------------------------------------------------------------------------


def test_stemmer_rules():
    assert stem_word("cats") == "cat"
    assert stem_word("runs") == "run"
    assert stem_word("ran") == "ran"
    assert stem_word("classes") == "class"
    assert stem_word("studies") == "studi"
    assert stem_word("played") == "play"
    assert stem_word("eating") == "eat"
    assert stem_word("sing") == "sing"  # remainder too short to strip
    assert stem_word("Used") == "used"  # remainder too short to strip
    assert stem_word("HOPES") == "hope"


def test_labels_hand_traced_example():
    labels = build_importance_labels(
        ["the", "cats", "ran"], ["cat", "runs"], {"the"}
    )
    np.testing.assert_array_equal(labels, [0, 1, 0])


def test_labels_ref_equals_doc_all_ones():
    doc = ["alpha", "beta", "gamma"]
    labels = build_importance_labels(doc, doc, frozenset())
    np.testing.assert_array_equal(labels, [1, 1, 1])


def test_labels_empty_reference_all_zeros():
    labels = build_importance_labels(["alpha", "beta"], [], frozenset())
    np.testing.assert_array_equal(labels, [0, 0])


def test_labels_idempotent_under_reference_duplication():
    doc = ["storms", "hit", "the", "coast", "hard"]
    ref = ["storm", "coastal"]
    a = build_importance_labels(doc, ref)
    b = build_importance_labels(doc, ref + ref)
    np.testing.assert_array_equal(a, b)


def test_default_stopword_list_has_fifty_words():
    assert len(DEFAULT_STOPWORDS) == 50


def test_labels_to_weights_values_and_validation():
    w = labels_to_weights(np.array([1, 0, 1]))
    np.testing.assert_array_equal(w, [1.0, 0.0, 1.0])


def test_label_weight_softmax_arithmetic():
    # window of 2 with weights (1, 0): softmax = (e, 1)/(e+1)
    spec = SegmentationSpec(2, 2)
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = labels_to_weights(np.array([1, 0]))
    out = pool_weighted(Tensor(e), w, spec).data
    expect = np.exp(1) / (np.exp(1) + 1) * e[0] + 1 / (np.exp(1) + 1) * e[1]
    np.testing.assert_allclose(out[0], expect, atol=1e-12)
    np.testing.assert_allclose(out[0][0], 0.7310585786300049, atol=1e-12)


def test_labels_roundtrip_into_weighted_pooling():
    rng = RngStream(41)
    words = ["storm", "flood", "calm", "rains", "wind", "the", "a"]
    for trial in range(10):
        n = int(rng.randint(5, 40, 1)[0])
        doc = [words[int(i)] for i in rng.randint(0, len(words), n)]
        ref = ["storms", "raining"]
        labels = build_importance_labels(doc, ref)
        weights = labels_to_weights(labels)
        e = rng.normal((n, 4))
        out = pool_weighted(Tensor(e), weights, SegmentationSpec(8, 6)).data
        assert np.all(np.isfinite(out))
