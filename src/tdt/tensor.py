"""Dense float64 tensors with a tape for reverse-mode gradients.

Values are immutable once produced: every operation returns a fresh array
(or a view of its input) and writes only into scratch buffers of its own,
which a fused op may reuse in place before one of them becomes its output.
No tensor is written after it is made. Parameters are the only mutable
objects and are touched exclusively by the optimizer and ``zero_grads``.

A :class:`Tape` records one entry per differentiable op: its output, its
inputs and its vjp closure, with the arrays that closure saved. ``backward``
consumes the tape, popping each entry once its vjp has run, so what only
that entry kept is freed as the pass goes and a tape is spent afterwards.

The engine serves one thread of control per process: one active tape and
one record of live tensor bytes, so benchmarks can report peak allocation
without relying on OS RSS. Construction adds a tensor's ``nbytes`` to that
record and ``Tensor.__del__`` subtracts them, so a tensor is counted exactly
while it is alive. A view of another tensor's memory (a reshape, or a
transpose or slice that needed no copy) adds no bytes and keeps that tensor
alive instead, so shared bytes are counted once, until both are gone. A tape
entry counts the arrays its vjp saved (those that are not views) the same
way, from recording until backward pops it or its tape is dropped.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np


class TdtError(Exception):
    """Base class for all library errors."""


class ShapeError(TdtError):
    """Operand shapes do not agree."""


class ConfigError(TdtError):
    """Invalid or incomplete configuration."""


class NumericsError(TdtError):
    """A value became NaN or infinite."""


class UsageError(TdtError):
    """An operation was called outside its contract."""


class CheckpointError(TdtError):
    """A checkpoint file is malformed or incompatible."""


# -----------------------------------------------------------------------------
# Allocation accounting (one record per process)
# -----------------------------------------------------------------------------


class _AllocState:
    __slots__ = ("live", "peak")

    def __init__(self):
        self.live = 0
        self.peak = 0


_ALLOC = _AllocState()


def _count(nbytes: int) -> None:
    """Add ``nbytes`` to the live total and raise the peak to meet it."""
    _ALLOC.live += nbytes
    if _ALLOC.live > _ALLOC.peak:
        _ALLOC.peak = _ALLOC.live


def live_bytes() -> int:
    """Bytes currently held by live tensors and tape entries: one record for
    the process, which runs one thread of control."""
    return _ALLOC.live


def peak_bytes() -> int:
    """High-water mark of live tensor bytes since the last reset."""
    return _ALLOC.peak


def reset_peak() -> int:
    """Reset the high-water mark to the current live total and return it."""
    _ALLOC.peak = _ALLOC.live
    return _ALLOC.peak


# -----------------------------------------------------------------------------
# Tensor / Parameter
# -----------------------------------------------------------------------------


class Tensor:
    """Immutable dense array of 64-bit reals.

    Arithmetic operations screen their result: NaN or Inf raises
    :class:`NumericsError` at the point of creation. Structural operations
    (reshapes, slices, concatenations, gathers) only rearrange values that
    were screened when they were made, so they wrap their result unscreened.
    """

    __slots__ = ("data", "nbytes", "_base")
    _alloc = _ALLOC  # reached through the class, so __del__ finds it at shutdown

    def __init__(self, data):
        self.nbytes = 0  # keeps __del__ exact if the conversion or screen raises
        arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
            raise NumericsError("tensor contains NaN or Inf")
        self._track(arr)

    def _track(self, arr: np.ndarray) -> None:
        self.data = arr
        self.nbytes = arr.nbytes
        _count(arr.nbytes)

    def __del__(self):
        if self.nbytes:
            self._alloc.live -= self.nbytes

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() on a non-scalar tensor")
        return float(self.data.reshape(()))

    def to_array(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        v = self.data.view()
        v.flags.writeable = False
        return v

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _all_finite(arr: np.ndarray) -> bool:
    """The finiteness screen of every arithmetic result. Fast path: a NaN or
    Inf entry makes the sum non-finite. A non-finite sum of genuinely finite
    entries (overflow) passes the precise check."""
    if math.isfinite(float(np.add.reduce(arr, axis=None))):  # arr.sum() minus its wrapper
        return True
    with np.errstate(all="ignore"):
        return bool(np.all(np.isfinite(arr)))


def _screened(arr: np.ndarray) -> Tensor:
    """A tensor over a float64 array whose values were already screened,
    e.g. a reshape, slice or gather of other tensors' data."""
    t = Tensor.__new__(Tensor)
    t._track(arr)
    return t


def _view(arr: np.ndarray, x) -> Tensor:
    """A tensor over ``arr``, a reshape, transpose or slice of the data of
    ``x`` (a Tensor or Parameter). If ``arr`` shares that memory it adds no
    bytes and holds ``x``'s tensor, which stays counted until both are gone;
    a copy is counted like any new tensor."""
    base = x.value if isinstance(x, Parameter) else x
    if arr.base is None or not np.may_share_memory(arr, base.data):
        return _screened(arr)
    t = Tensor.__new__(Tensor)
    t.data, t.nbytes, t._base = arr, 0, base
    return t


class Parameter:
    """Named trainable value with a gradient buffer of the same shape."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.grad = np.zeros(self.value.shape, dtype=np.float64)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def assign(self, data: np.ndarray) -> None:
        """Overwrite the value in place (optimizer / checkpoint loading only)."""
        if data.shape != self.value.shape:
            raise ShapeError(
                f"parameter {self.name}: cannot assign shape {data.shape} "
                f"over {self.value.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise NumericsError(f"parameter {self.name}: non-finite assignment")
        self.value.data[...] = data

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


# -----------------------------------------------------------------------------
# Tape
# -----------------------------------------------------------------------------


class TapeEntry:
    """One recorded op: its output, its inputs and its vjp closure.

    ``out`` is one tensor or a tuple of them. The vjp of a tuple takes one
    gradient per output, zeros for an output nothing read. ``saved`` holds
    the arrays the closure keeps besides the inputs' and the output's data
    (a layer norm's ``xhat``, softmax probabilities, the FFN's tanh term):
    only what the vjp cannot rebuild bit for bit from them. Those that own
    their memory are counted as live bytes while the entry lives; a view
    among them belongs to the array it views, which is counted where it
    lives. What a vjp rebuilds (a hidden layer, padded copies) is scratch
    of ``backward`` and is not counted, nor are gradients: in training the
    tracker's peak reads that much under ``tracemalloc``'s (19% on the
    desk train step).
    """

    __slots__ = ("out", "inputs", "vjp", "nbytes")
    _alloc = _ALLOC  # as Tensor's

    def __init__(self, out: Tensor | tuple, inputs: tuple, vjp, saved: tuple = ()):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp
        self.nbytes = sum(a.nbytes for a in saved if a.base is None)
        if self.nbytes:
            _count(self.nbytes)

    def __del__(self):
        if self.nbytes:
            self._alloc.live -= self.nbytes


class Tape:
    """Ordered record of executed differentiable operations.

    Entries, with their intermediates, stay alive until :func:`backward`
    consumes them, visiting operations in exact reverse execution order, or
    until the tape is dropped unused. A tape supports one backward pass:
    afterwards it is spent, ``entries`` is empty and ``len`` still gives the
    number of entries recorded.
    """

    __slots__ = ("entries", "_recorded")

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self._recorded: int | None = None  # the entry count, once spent

    @property
    def spent(self) -> bool:
        return self._recorded is not None

    def append(self, entry: TapeEntry) -> None:
        if self._recorded is not None:
            raise UsageError("recording onto a tape that backward has spent")
        self.entries.append(entry)

    def __len__(self) -> int:
        """Entries recorded, including those backward has consumed."""
        return len(self.entries) if self._recorded is None else self._recorded


_tape: Tape | None = None  # the active tape; None outside any recording


def current_tape() -> Tape | None:
    return _tape


@contextmanager
def recording(tape: Tape | None):
    """Direct operations onto ``tape``; ``None`` suspends recording. The
    previous tape is restored on the way out, also when the block raises."""
    global _tape
    prev, _tape = _tape, tape
    try:
        yield tape
    finally:
        _tape = prev


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)
# The ceiling of glibc's own dynamic mmap threshold on 64-bit; its dynamic
# rule keeps the trim threshold at twice the mmap threshold.
_MMAP_THRESHOLD_BYTES = 32 << 20

_heap_kept = False  # whether this process has applied the heap policy


def _keep_heap() -> None:
    """Make glibc keep the heap a request freed for the next request.

    ``backward`` frees the tape entry by entry, and glibc trims the heap top
    it leaves (or unmaps arrays above its dynamic mmap threshold), so every
    forward then faults those pages in again; under the same dynamic rule a
    change in allocation order can make a long encode trim and re-fault its
    heap on every call. Fixed thresholds at the dynamic rule's ceiling keep
    that memory mapped. Called by every ``backward`` and ``Model.encode``;
    only a process's first call acts, and it is a no-op off glibc.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):  # the name is unknown off glibc
        return
    if not libc_version.startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt  # the running process's own libc
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate dLoss/dParam into every Parameter reachable from ``loss``,
    consuming ``tape``.

    Each entry leaves the tape as its vjp runs and is released before the
    next one's, so its saved arrays, and its output once no later entry
    holds it, are freed during the pass (the free-as-you-go half of Chen et
    al., arXiv 1604.06174). A second backward
    on the spent tape raises UsageError. Each parameter's ``grad`` receives
    exactly one accumulation per call, so two backward passes over two
    tapes without ``zero_grads`` double the gradients. An input listed more
    than once in an entry receives its gradients in the listed order. The
    first call in a process applies the heap policy of :func:`_keep_heap`.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise UsageError("backward expects a scalar loss tensor")
    if tape.spent:
        raise UsageError("backward on a spent tape: a tape supports one backward pass")
    _keep_heap()
    entries = tape.entries
    tape._recorded = len(entries)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    touched: dict[int, Parameter] = {}
    while entries:
        entry = entries.pop()
        out = entry.out
        if type(out) is tuple:
            g_out = tuple(grads.pop(id(o), None) for o in out)
            if all(g is None for g in g_out):
                continue
            g_out = tuple(np.zeros_like(o.data) if g is None else g
                          for o, g in zip(out, g_out))
        else:
            g_out = grads.pop(id(out), None)
            if g_out is None:
                continue
        in_grads = entry.vjp(g_out)
        for obj, g in zip(entry.inputs, in_grads):
            if g is None:
                continue
            key = id(obj)
            if isinstance(obj, Parameter):
                touched[key] = obj
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
    for key, p in touched.items():
        g = grads.get(key)
        if g is not None:
            p.grad += g.reshape(p.grad.shape)
