"""Binary checkpoint format.

Layout (all integers little-endian):

    magic  b"TDTX"
    u32    format version (currently 3)
    u32    length of the UTF-8 JSON header
    bytes  JSON header: {"kind": ..., "config": {...}}
    u32    number of parameters
    per parameter, in sorted name order:
        u32   name length, then UTF-8 name
        u8    dtype tag: 0 = f64, 1 = f32
        u32   ndim, then u64 extents
        bytes little-endian flat data

Compute always runs in f64; the f32 tag is a storage-only option. A save /
load / save round trip is byte-identical. Version 2 dropped the ``dropout``
config field and the parameters nothing reads (the segment and top-down
tables of ``topdown_mode="none"``, a tagger's decoder); version 3 dropped
the ``ffn_mult`` and ``tie_output`` fields and the untied ``out.weight``.
Older versions, and every malformed file, raise :class:`CheckpointError`;
so does a header whose config is no longer valid, such as the retired
``topdown_mode="concat"``, or one whose tables cannot be allocated.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .tensor import CheckpointError, ConfigError, Parameter

MAGIC = b"TDTX"
VERSION = 3
_DTYPES = {"f64": 0, "f32": 1}
_MAX_NDIM = 64  # numpy's limit on array dimensions


def write_checkpoint(path, kind: str, config: dict, params: dict, dtype: str = "f64") -> None:
    if dtype not in _DTYPES:
        raise CheckpointError(f"unsupported checkpoint dtype {dtype!r}")
    header = json.dumps(
        {"kind": kind, "config": config}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    np_dtype = "<f8" if dtype == "f64" else "<f4"
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            p = params[name]
            arr = p.value.data if isinstance(p, Parameter) else np.asarray(p)
            blob = name.encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<B", _DTYPES[dtype]))
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(np.ascontiguousarray(arr, dtype=np_dtype).tobytes())


def _read_exact(fh, n: int) -> bytes:
    """Read ``n`` bytes, refusing before the read when fewer are left."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointError(f"checkpoint truncated: {n} bytes wanted, {left} left")
    return fh.read(n)


def read_checkpoint(path) -> tuple[str, dict, dict, str]:
    """Returns (kind, config dict, name -> f64 array, storage dtype)."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version} (expected {VERSION})"
            )
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            header = json.loads(_read_exact(fh, hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from exc
        if not isinstance(header, dict) or "kind" not in header or "config" not in header:
            raise CheckpointError(f"{path}: header missing kind/config")
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        arrays = {}
        storage = "f64"
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4))
            try:
                name = _read_exact(fh, nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: parameter name is not UTF-8: {exc}") from exc
            (tag,) = struct.unpack("<B", _read_exact(fh, 1))
            if tag not in (0, 1):
                raise CheckpointError(f"{path}: parameter {name}: unknown dtype tag {tag}")
            storage = "f64" if tag == 0 else "f32"
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4))
            if ndim > _MAX_NDIM:
                raise CheckpointError(f"{path}: parameter {name}: ndim {ndim} > {_MAX_NDIM}")
            shape = tuple(
                struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(ndim)
            )
            np_dtype = "<f8" if tag == 0 else "<f4"
            nbytes = math.prod(shape) * (8 if tag == 0 else 4)
            data = np.frombuffer(_read_exact(fh, nbytes), dtype=np_dtype)
            try:  # a zero extent lets any other extent through the size check
                data = data.reshape(shape)
            except ValueError as exc:
                raise CheckpointError(f"{path}: parameter {name}: shape {shape}: {exc}") from exc
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: parameter {name}: non-finite values")
            arrays[name] = data.astype(np.float64)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after parameter table")
    return header["kind"], header["config"], arrays, storage


def assign_params(params: dict, arrays: dict, path="checkpoint") -> None:
    """Copy loaded arrays onto a parameter registry, validating the shape table."""
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter table mismatch (missing={missing[:5]}, extra={extra[:5]})"
        )
    for name, p in params.items():
        arr = arrays[name]
        if arr.shape != p.value.shape:
            raise CheckpointError(
                f"{path}: parameter {name}: shape {arr.shape} != expected {p.value.shape}"
            )
        p.assign(arr)


def save_model(model, path, dtype: str = "f64") -> None:
    write_checkpoint(path, "model", model.config.to_dict(), model.params, dtype)


def load_checkpoint(path, kind: str, build):
    """Read a ``kind`` checkpoint, build ``build(ModelConfig)`` from its
    header and assign the stored arrays to the result's ``params``. A header
    config that is not a valid :class:`ModelConfig`, or that ``build``
    refuses (a table too large to allocate), is a malformed file and raises
    :class:`CheckpointError`, like every other."""
    from .model import ModelConfig

    found, config, arrays, _ = read_checkpoint(path)
    if found != kind:
        raise CheckpointError(f"{path}: expected a {kind} checkpoint, got kind={found!r}")
    try:
        obj = build(ModelConfig.from_dict(config))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: invalid config in header: {exc}") from exc
    assign_params(obj.params, arrays, path)
    return obj


def load_model(path):
    from .model import Model

    return load_checkpoint(path, "model", Model)
