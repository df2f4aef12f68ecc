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
load / save round trip is byte-identical. Loading builds the header's model
once, each parameter taking its stored array (:func:`~tdt.model.make_param`
checks the name and shape first), so nothing is drawn; each array is screened
for NaN and Inf once, as it is read. A tagger's head width is that of its
stored ``tagger.head.b``. Version 2 dropped the
``dropout`` config field and the parameters nothing reads (the segment and
top-down tables of ``topdown_mode="none"``, a tagger's decoder); version 3
dropped the ``ffn_mult`` and ``tie_output`` fields and the untied
``out.weight``. Older versions, and every malformed file, raise
:class:`CheckpointError`: a name repeated or out of order, a header config
that is no longer valid (the retired ``topdown_mode="concat"``) or does not
describe the table, and a stored name the model does not build.
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


def read_checkpoint(path) -> tuple[str, dict, dict, str]:
    """Returns (kind, config dict, name -> f64 array, storage dtype)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            """Read ``n`` bytes, refusing before the read when fewer are left."""
            left = size - fh.tell()
            if n > left:
                raise CheckpointError(f"checkpoint truncated: {n} bytes wanted, {left} left")
            return fh.read(n)

        if read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
        (version,) = struct.unpack("<I", read(4))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version} (expected {VERSION})"
            )
        (hlen,) = struct.unpack("<I", read(4))
        try:
            header = json.loads(read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from exc
        if not isinstance(header, dict) or "kind" not in header or "config" not in header:
            raise CheckpointError(f"{path}: header missing kind/config")
        (count,) = struct.unpack("<I", read(4))
        arrays = {}
        storage = "f64"
        last = None
        for _ in range(count):
            (nlen,) = struct.unpack("<I", read(4))
            try:
                name = read(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: parameter name is not UTF-8: {exc}") from exc
            if last is not None and name <= last:  # the writer writes each name once, sorted
                raise CheckpointError(f"{path}: parameter {name}: repeated or out of order")
            last = name
            (tag,) = struct.unpack("<B", read(1))
            if tag not in (0, 1):
                raise CheckpointError(f"{path}: parameter {name}: unknown dtype tag {tag}")
            storage = "f64" if tag == 0 else "f32"
            (ndim,) = struct.unpack("<I", read(4))
            if ndim > _MAX_NDIM:
                raise CheckpointError(f"{path}: parameter {name}: ndim {ndim} > {_MAX_NDIM}")
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
            np_dtype = "<f8" if tag == 0 else "<f4"
            nbytes = math.prod(shape) * (8 if tag == 0 else 4)
            data = np.frombuffer(read(nbytes), dtype=np_dtype)
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


def save_model(model, path, dtype: str = "f64") -> None:
    write_checkpoint(path, "model", model.config.to_dict(), model.params, dtype)


def load_checkpoint(path, kind: str, build):
    """Read a ``kind`` checkpoint and return ``build(config, arrays=table)``,
    which takes every parameter from the table and draws nothing. A header
    config that is not a valid :class:`ModelConfig` or does not describe the
    table, and a stored name ``build`` leaves over, raise
    :class:`CheckpointError`, like every other malformed file."""
    from .model import ModelConfig

    found, config, arrays, _ = read_checkpoint(path)
    if found != kind:
        raise CheckpointError(f"{path}: expected a {kind} checkpoint, got kind={found!r}")
    try:
        obj = build(ModelConfig.from_dict(config), arrays=arrays)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: invalid config in header: {exc}") from exc
    if arrays:
        raise CheckpointError(f"{path}: parameter table mismatch (extra={sorted(arrays)[:5]})")
    return obj


def load_model(path):
    from .model import Model

    return load_checkpoint(path, "model", Model)
