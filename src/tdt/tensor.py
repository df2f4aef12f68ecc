"""Dense float64 tensors with a tape for reverse-mode gradients.

Values are immutable once produced: every operation allocates a fresh array.
Parameters are the only mutable objects and are touched exclusively by the
optimizer and ``zero_grads``.

Live tensor bytes are tracked per thread so benchmarks can report peak
allocation without relying on OS RSS. Each tensor keeps two slots, the
creating thread's counters and its own ``nbytes``: construction adds the bytes
there and ``Tensor.__del__`` subtracts them, so a tensor is counted exactly
while it is alive.
"""

from __future__ import annotations

import math
import threading

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
# Allocation accounting (per thread of control)
# -----------------------------------------------------------------------------


class _AllocState:
    __slots__ = ("live", "peak")

    def __init__(self):
        self.live = 0
        self.peak = 0


_alloc_local = threading.local()


def _alloc_state() -> _AllocState:
    st = getattr(_alloc_local, "state", None)
    if st is None:
        st = _AllocState()
        _alloc_local.state = st
    return st


def live_bytes() -> int:
    """Bytes currently held by tensors created on this thread."""
    return _alloc_state().live


def peak_bytes() -> int:
    """High-water mark of live tensor bytes since the last reset."""
    return _alloc_state().peak


def reset_peak() -> int:
    """Reset the high-water mark to the current live total and return it."""
    st = _alloc_state()
    st.peak = st.live
    return st.peak


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

    __slots__ = ("data", "nbytes", "_alloc")

    def __init__(self, data):
        self.nbytes = 0  # keeps __del__ exact if the conversion or screen raises
        arr = np.asarray(data, dtype=np.float64)
        # Fast finiteness screen: a NaN/Inf entry makes the sum non-finite.
        # A non-finite sum of genuinely finite entries (overflow) is accepted
        # after the precise check.
        if not math.isfinite(float(arr.sum())):
            with np.errstate(all="ignore"):
                if not np.all(np.isfinite(arr)):
                    raise NumericsError("tensor contains NaN or Inf")
        self._track(arr)

    def _track(self, arr: np.ndarray) -> None:
        self.data = arr
        st = self._alloc = _alloc_state()
        self.nbytes = arr.nbytes
        st.live += arr.nbytes
        if st.live > st.peak:
            st.peak = st.live

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


def _screened(arr: np.ndarray) -> Tensor:
    """A tensor over a float64 array whose values were already screened,
    e.g. a reshape, slice or gather of other tensors' data."""
    t = Tensor.__new__(Tensor)
    t._track(arr)
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
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out: Tensor, inputs: tuple, vjp):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered record of executed differentiable operations.

    Replaying the tape backwards visits operations in exact reverse execution
    order; the tape holds strong references so intermediates stay alive until
    the tape itself is dropped.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def append(self, entry: TapeEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)


_tape_local = threading.local()


def current_tape():
    return getattr(_tape_local, "tape", None)


class recording:
    """Context manager that directs operations onto ``tape``; ``None``
    suspends recording."""

    def __init__(self, tape: Tape | None):
        self.tape = tape
        self._prev = None

    def __enter__(self) -> Tape:
        self._prev = current_tape()
        _tape_local.tape = self.tape
        return self.tape

    def __exit__(self, exc_type, exc, tb):
        _tape_local.tape = self._prev
        return False


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate dLoss/dParam into every Parameter reachable from ``loss``.

    Each parameter's ``grad`` receives exactly one accumulation per call, so
    two backward passes without ``zero_grads`` double the gradients.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise UsageError("backward expects a scalar loss tensor")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    touched: dict[int, Parameter] = {}
    for entry in reversed(tape.entries):
        g_out = grads.pop(id(entry.out), None)
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
