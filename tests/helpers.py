"""Shared test oracles: finite differences, dense attention, scalar loops,
full-prefix generation; and the test-only readout ops
``mul_const`` and ``sum_all``.

The oracles here are deliberately independent of the library's compute paths:
dense attention is an explicit per-head loop, pooling oracles walk windows
one token at a time, gradients come from central finite differences, and the
generation oracles re-decode the whole prefix of one hypothesis at a time
instead of stepping a key/value cache.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

from tdt import RngStream, Tape, Tensor, backward, ops, recording

# The build that tests/digest.py's recorded value was taken on: numpy, its
# BLAS, and the CPU features by which a DYNAMIC_ARCH OpenBLAS picks its
# kernels at run time. Another build may round a product differently, so
# a test of exact bits across products of other shapes runs only here.
RECORDED_ON = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}


def numpy_build() -> dict:
    """This process's numpy build, in the terms of ``RECORDED_ON``."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"]["found"]}


def skip_unless_recorded_build() -> None:
    """Skip the calling test on any build but ``RECORDED_ON``."""
    build = numpy_build()
    if build != RECORDED_ON:
        pytest.skip(f"the digest was recorded on {RECORDED_ON}; this build is {build}")

FD_H = 1e-5
FD_RTOL = 1e-4


def mul_const(x, factor: np.ndarray) -> Tensor:
    """Multiply by a constant array (no gradient to the factor): a test-only
    op on the library's tape, for weighting an output before a readout."""
    out = ops._result("mul_const", ops._data(x) * factor, (x,))
    return ops._record(out, (x,), lambda g: (g * factor,))


def sum_all(x) -> Tensor:
    """The sum of every entry as a 0-d tensor: the tests' scalar readout."""
    a = ops._data(x)
    out = ops._result("sum_all", np.sum(a).reshape(()), (x,))
    return ops._record(out, (x,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def held_bytes(make):
    """``make()`` and the bytes it left allocated, under ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        obj = make()
        gc.collect()
        return obj, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


def finite_diff(loss_fn, param, flat_index: int, h: float = FD_H) -> float:
    """Central difference of loss_fn() w.r.t. one coordinate of ``param``."""
    flat = param.value.data.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + h
    up = loss_fn()
    flat[flat_index] = orig - h
    down = loss_fn()
    flat[flat_index] = orig
    return (up - down) / (2.0 * h)


def check_param_grads(loss_fn, params, seed: int = 0, n_coords: int = 20,
                      h: float = FD_H, rtol: float = FD_RTOL) -> float:
    """Backward pass vs central differences on sampled coordinates.

    ``loss_fn()`` must rebuild the loss from scratch (pure forward, float).
    Returns the worst relative error seen; asserts every sampled coordinate
    is within ``rtol``.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    tape = Tape()
    with recording(tape):
        loss = loss_fn(tape=True)
    backward(loss, tape)
    rng = RngStream(seed).split("fd-coords")
    worst = 0.0
    for p in params:
        size = p.value.size
        if size == 0:
            continue
        k = min(n_coords, size)
        coords = sorted(set(int(c) for c in rng.randint(0, size, k)))
        for c in coords:
            fd = finite_diff(lambda: loss_fn(tape=False), p, c, h)
            ad = p.grad.reshape(-1)[c]
            err = rel_err(ad, fd)
            worst = max(worst, err)
            assert err <= rtol, (
                f"grad mismatch {p.name}[{c}]: autodiff {ad:.10g} vs fd {fd:.10g} "
                f"(rel err {err:.3g})"
            )
    return worst


# -----------------------------------------------------------------------------
# Dense attention oracle (explicit loops, no shared code paths)
# -----------------------------------------------------------------------------


def band_mask(n: int, window: int) -> np.ndarray:
    """The dense [n, n] band: position i admits j with |i - j| <= window/2."""
    i, j = np.indices((n, n))
    return abs(i - j) <= window // 2


def dense_attention_oracle(xq, xk, xv, ap, n_heads: int, mask) -> np.ndarray:
    """Brute-force multi-head attention: per-head row loops over a boolean mask."""

    def val(p):
        return p.value.data

    q = xq @ val(ap.wq) + val(ap.bq)
    k = xk @ val(ap.wk) + val(ap.bk)
    v = xv @ val(ap.wv) + val(ap.bv)
    n, d = q.shape
    m = k.shape[0]
    dh = d // n_heads
    out = np.zeros((n, d))
    for h in range(n_heads):
        qs = q[:, h * dh : (h + 1) * dh]
        ks = k[:, h * dh : (h + 1) * dh]
        vs = v[:, h * dh : (h + 1) * dh]
        for i in range(n):
            logits = np.full(m, -np.inf)
            for j in range(m):
                if mask is None or mask[i, j]:
                    logits[j] = qs[i] @ ks[j] / math.sqrt(dh)
            mx = logits.max()
            w = np.exp(logits - mx)
            w = w / w.sum()
            out[i, h * dh : (h + 1) * dh] = w @ vs
    return out @ val(ap.wo) + val(ap.bo)


def cross_attention_oracle(e, s, ap, ln_gain, ln_bias, n_heads: int,
                           eps: float = 1e-5) -> np.ndarray:
    """Scalar-loop oracle of the token-segment update with branch layer norm."""
    branch_ctx = dense_context(e, s, ap, n_heads)
    branch = branch_ctx @ ap.wo.value.data + ap.bo.value.data
    normed = np.zeros_like(branch)
    g, b = ln_gain.value.data, ln_bias.value.data
    for i in range(branch.shape[0]):
        row = branch[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        normed[i] = (row - mu) / math.sqrt(var + eps) * g + b
    return e + normed


def dense_context(xq, xkv, ap, n_heads: int) -> np.ndarray:
    """Per-head softmax(q k^T / sqrt(dh)) v with no mask, loop form."""

    def val(p):
        return p.value.data

    q = xq @ val(ap.wq) + val(ap.bq)
    k = xkv @ val(ap.wk) + val(ap.bk)
    v = xkv @ val(ap.wv) + val(ap.bv)
    n, d = q.shape
    m = k.shape[0]
    dh = d // n_heads
    ctx = np.zeros((n, d))
    for h in range(n_heads):
        qs = q[:, h * dh : (h + 1) * dh]
        ks = k[:, h * dh : (h + 1) * dh]
        vs = v[:, h * dh : (h + 1) * dh]
        for i in range(n):
            logits = np.array([qs[i] @ ks[j] / math.sqrt(dh) for j in range(m)])
            w = np.exp(logits - logits.max())
            w /= w.sum()
            ctx[i, h * dh : (h + 1) * dh] = w @ vs
    return ctx


def layer_norm_oracle(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      eps: float) -> np.ndarray:
    out = np.zeros_like(x)
    flat = x.reshape(-1, x.shape[-1])
    of = out.reshape(-1, x.shape[-1])
    for i in range(flat.shape[0]):
        row = flat[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        of[i] = (row - mu) / math.sqrt(var + eps) * gain + bias
    return out


def random_params_attention(rng: RngStream, d_model: int, prefix: str = "t"):
    from tdt.attention import init_attention_params

    return init_attention_params(rng, d_model, prefix)


# -----------------------------------------------------------------------------
# Generation oracles: full-prefix decoding, one hypothesis at a time
# -----------------------------------------------------------------------------


def _logsumexp(v: np.ndarray) -> float:
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).sum()))


def reference_greedy(model, source_ids, max_len: int, eos_id: int) -> list[int]:
    """Greedy search that re-decodes the whole prefix for every token."""
    from tdt import BOS_ID

    enc = model.encode(source_ids)
    prefix = [BOS_ID]
    out: list[int] = []
    for _ in range(max_len):
        logits = model.decode(prefix, enc)
        nxt = int(np.argmax(logits.data[-1]))
        out.append(nxt)
        if nxt == eos_id:
            break
        prefix.append(nxt)
    return out


def reference_beam(model, source_ids, max_len: int, beam_size: int, eos_id: int,
                   trace: list | None = None) -> list[int]:
    """Length-normalized beam search with one full-prefix decode per open
    hypothesis per step. ``trace`` receives the hypotheses kept at each step
    as (ids, total logprob, finished) tuples."""
    from tdt import BOS_ID

    enc = model.encode(source_ids)
    hyps = [((), 0.0, False)]
    for _ in range(max_len):
        candidates = []
        any_open = False
        for ids, logp, done in hyps:
            if done:
                candidates.append((ids, logp, True))
                continue
            any_open = True
            logits = model.decode([BOS_ID] + list(ids), enc).data[-1]
            logprobs = logits - _logsumexp(logits)
            top = np.argsort(-logprobs, kind="stable")[:beam_size]
            for tok in top:
                tok = int(tok)
                candidates.append((ids + (tok,), logp + float(logprobs[tok]), tok == eos_id))
        if not any_open:
            break
        candidates.sort(key=lambda h: (-(h[1] / len(h[0])), h[0]))
        hyps = candidates[:beam_size]
        if trace is not None:
            trace.append(list(hyps))
    best = max(hyps, key=lambda h: (h[1] / max(1, len(h[0])), [-i for i in h[0]]))
    return list(best[0])


# -----------------------------------------------------------------------------
# Checkpoint layout
# -----------------------------------------------------------------------------


def first_param_offsets(blob: bytes) -> tuple[int, int]:
    """Byte offsets of the first parameter's name and first extent in a
    checkpoint: magic, version, header length and header, count, then
    name length, name, dtype tag, ndim, extents."""
    hlen = int.from_bytes(blob[8:12], "little")
    at = 12 + hlen + 4
    nlen = int.from_bytes(blob[at : at + 4], "little")
    name_at = at + 4
    return name_at, name_at + nlen + 1 + 4


def checkpoint_fields(blob: bytes) -> tuple[list[int], list[tuple[int, int]]]:
    """The offset at which each field of a checkpoint starts, plus its end,
    and the (start, end) byte span of each parameter record, parsed
    independently of the reader."""

    def u32(at):
        return int.from_bytes(blob[at : at + 4], "little")

    at = 12 + u32(8)  # the parameter count
    starts = [0, 4, 8, 12, at, at + 4]
    count = u32(at)
    at += 4
    records = []
    for _ in range(count):
        first = at
        nlen = u32(at)
        starts += [at + 4, at + 4 + nlen, at + 5 + nlen]
        tag, ndim = blob[at + 4 + nlen], u32(at + 5 + nlen)
        at += 9 + nlen
        size = 8 if tag == 0 else 4
        for _ in range(ndim):
            starts.append(at)
            size *= int.from_bytes(blob[at : at + 8], "little")
            at += 8
        starts.append(at)  # the data
        at += size
        records.append((first, at))
        starts.append(at)  # the next record, or the end of the file
    return starts, records
