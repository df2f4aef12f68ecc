"""Synthetic sequence-to-sequence tasks.

The copy task checks basic trainability. The key-value task isolates the
document-global pathway: a block of sixteen values opens the document, the
final query symbol names a slot in that block, and the target is the value
stored there. The block sits far beyond the bottom-up receptive field
(n_bottom_up * window/2) from the query, every value appears exactly once,
and the block layout is symmetric, so token counts, token presence, local
neighborhoods, and positional priors are all uninformative about which value
is queried. Resolving the query takes either document-global context (the
segment pathway, which the oracle importance labels feed directly by
boosting the queried slot's pooling weight) or a learned sixteen-way
query-to-position association executed across the whole document.

Token id layout within a vocabulary of size V >= 37:
    0 pad, 1 bos, 2 eos, 3 KEY marker,
    4..19   the sixteen query symbols (query r asks for block slot r),
    20..35  the sixteen values,
    36..V-1 filler tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .tensor import UsageError

N_VALUES = 16
KEY_TOKEN = 3
QUERY_BASE = 4
VALUE_BASE = QUERY_BASE + N_VALUES  # 20
FILLER_BASE = VALUE_BASE + N_VALUES  # 36
COPY_CONTENT_BASE = 3


@dataclass
class TaskInstance:
    source: list[int]
    target: list[int]
    labels: list[int] | None = None


def gen_copy_task(rng: RngStream, n_range: tuple[int, int], vocab_size: int) -> TaskInstance:
    """Source of random content ids; target equals the source."""
    if vocab_size < 4:
        raise UsageError("copy task needs vocab_size >= 4 (pad/bos/eos reserved)")
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise UsageError(f"bad length range {n_range}")
    n = int(rng.randint(lo, hi + 1, 1)[0])
    ids = rng.randint(COPY_CONTENT_BASE, vocab_size, n).tolist()
    return TaskInstance(source=ids, target=list(ids))


def keyvalue_receptive_field(window: int, n_bottom_up: int) -> int:
    return n_bottom_up * (window // 2)


def gen_keyvalue_task(
    rng: RngStream,
    n_tokens: int,
    window: int,
    n_bottom_up: int,
    vocab_size: int,
) -> TaskInstance:
    """Slot retrieval from a value block far outside the local horizon.

    source = [sixteen values in random order, fillers ..., KEY, QUERY_r];
    the query symbol names slot r and the target is the value stored there.
    The block sits more than n_bottom_up * window/2 positions before the
    query, every value appears exactly once (counts, presence, and position
    carry no information about which one is queried), and the oracle labels
    mark the KEY marker and the queried slot -- the importance-weight channel
    through pooling is the direct route to the answer.
    """
    if vocab_size < FILLER_BASE + 1:
        raise UsageError(f"key-value task needs vocab_size >= {FILLER_BASE + 1}")
    if window is None:
        raise UsageError("key-value task needs a finite window")
    rf = keyvalue_receptive_field(window, n_bottom_up)
    n_fill = n_tokens - N_VALUES - 2  # block + fillers + KEY + QUERY
    if n_fill < 0:
        raise UsageError(
            f"n_tokens={n_tokens} cannot hold the {N_VALUES}-value block, "
            "marker, and query"
        )
    if (n_tokens - 1) - (N_VALUES - 1) <= rf:
        raise UsageError(
            f"n_tokens={n_tokens} too short for window={window}, "
            f"n_bottom_up={n_bottom_up} (receptive field {rf})"
        )
    block = rng.shuffled(list(range(VALUE_BASE, VALUE_BASE + N_VALUES)))
    slot = int(rng.randint(0, N_VALUES, 1)[0])
    fillers = rng.randint(FILLER_BASE, vocab_size, n_fill).tolist()
    source = block + fillers + [KEY_TOKEN, QUERY_BASE + slot]
    labels = [0] * n_tokens
    labels[slot] = 1
    labels[n_tokens - 2] = 1  # the KEY marker
    return TaskInstance(source=source, target=[block[slot]], labels=labels)
