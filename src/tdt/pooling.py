"""Segment pooling and importance labelling.

Token states are cut into fixed-length overlapping windows (kernel k, stride
d_s <= k so no token is dropped) and pooled into one vector per segment,
either with uniform weights or with a softmax over per-token importance
weights normalized within each window. Zero-vector right padding fills the
last window; padded slots contribute nothing to either pooling rule.

Importance labels mark non-stopword tokens whose stemmed form appears in a
stemmed reference word list. Stemming is a fixed rule-based suffix stripper,
so the labelling pipeline is deterministic and dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ConfigError, Tensor, UsageError


@dataclass(frozen=True)
class SegmentationSpec:
    """Kernel size and stride of the segment windows."""

    kernel: int
    stride: int

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1:
            raise ConfigError("kernel and stride must be positive")
        if self.stride > self.kernel:
            raise ConfigError(
                f"stride {self.stride} > kernel {self.kernel} would drop tokens"
            )

    def n_segments(self, n_tokens: int) -> int:
        if n_tokens < 1:
            raise UsageError("n_tokens must be >= 1")
        if n_tokens <= self.kernel:
            return 1
        return -(-(n_tokens - self.kernel) // self.stride) + 1


def segment_index_map(n_tokens: int, spec: SegmentationSpec) -> list[tuple[int, int]]:
    """(start, length) per segment; segment j covers tokens j*stride .. +kernel-1.

    Lengths are always the kernel size; slots at index >= n_tokens in the last
    window are padding.
    """
    m = spec.n_segments(n_tokens)
    return [(j * spec.stride, spec.kernel) for j in range(m)]


def _window_starts(n_tokens: int, spec: SegmentationSpec) -> np.ndarray:
    return np.arange(spec.n_segments(n_tokens), dtype=np.int64) * spec.stride


def pool_average(states, spec: SegmentationSpec) -> Tensor:
    """Uniform pooling: each segment is the window sum divided by the kernel
    size, with padded slots contributing zero vectors."""
    n = states.shape[-2]
    starts = _window_starts(n, spec)
    weights = np.full((len(starts), spec.kernel), 1.0 / spec.kernel)
    return ops.window_sum(states, starts, weights)


def pool_weighted(states, token_weights: np.ndarray, spec: SegmentationSpec) -> Tensor:
    """Importance-weighted pooling: softmax of the weights within each window,
    restricted to unpadded slots, then a convex combination of the tokens.

    ``token_weights`` has shape [n] (or [..., n] matching the states' leading
    axes) and needs no normalization of its own.
    """
    n = states.shape[-2]
    p = np.asarray(token_weights, dtype=np.float64)
    if p.shape != states.shape[:-1]:
        raise UsageError(
            f"expected token weights of shape {states.shape[:-1]}, got {p.shape}"
        )
    if not np.all(np.isfinite(p)):
        raise UsageError("token weights must be finite")
    starts = _window_starts(n, spec)
    idx = starts[:, None] + np.arange(spec.kernel)[None, :]
    valid = idx < n
    logits = np.where(valid, p[..., np.where(valid, idx, 0)], -np.inf)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=-1, keepdims=True)
    return ops.window_sum(states, starts, weights)


# -----------------------------------------------------------------------------
# Importance labels
# -----------------------------------------------------------------------------

# 50 common English function words; override with a one-word-per-line file.
DEFAULT_STOPWORDS = frozenset(
    """the a an and or but if then else of to in on at by for with from as is
    are was were be been being it its this that these those he she they we you
    i his her their our your not no do does did have has""".split()
)


def stem_word(word: str) -> str:
    """Lowercase and strip plural/inflection suffixes with fixed rules.

    Plural pass (first match only): "sses" -> "ss", "ies" -> "i", drop a
    trailing "s" when the word is longer than 3. Suffix pass (first match
    only): drop "ing" or "ed" when at least 3 characters remain.
    """
    w = word.lower()
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("s") and len(w) > 3:
        w = w[:-1]
    if w.endswith("ing") and len(w) - 3 >= 3:
        w = w[:-3]
    elif w.endswith("ed") and len(w) - 2 >= 3:
        w = w[:-2]
    return w


def load_stopwords(path) -> frozenset:
    """One word per line, UTF-8; blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip().lower() for line in fh if line.strip())


def build_importance_labels(doc_tokens, ref_tokens, stopwords=DEFAULT_STOPWORDS) -> np.ndarray:
    """label[i] = 1 iff doc token i is a non-stopword whose stem occurs among
    the stemmed reference tokens. An empty reference yields all zeros."""
    ref_stems = {stem_word(r) for r in ref_tokens}
    labels = np.zeros(len(doc_tokens), dtype=np.int64)
    for i, tok in enumerate(doc_tokens):
        if tok.lower() in stopwords:
            continue
        if stem_word(tok) in ref_stems:
            labels[i] = 1
    return labels


def labels_to_weights(labels) -> np.ndarray:
    """Binary labels to pooling weights: 1.0 where labelled, 0.0 elsewhere."""
    return np.where(np.asarray(labels) != 0, 1.0, 0.0)
