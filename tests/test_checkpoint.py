"""Checkpoint format: round trips, validation, storage dtypes."""

import itertools
import json
import time

import numpy as np
import pytest

import tdt
from tdt import CheckpointError, Model, RngStream, Tagger, desk_config, load_model, save_model
from tdt.checkpoint import load_checkpoint, read_checkpoint, write_checkpoint
from tdt.cli import run_cli
from helpers import checkpoint_fields, first_param_offsets, held_bytes


def _model(seed=0, **kw):
    return Model(desk_config(**kw), seed=seed)


def test_save_load_bit_identical_parameters(tmp_path):
    m = _model(seed=3)
    path = tmp_path / "m.tdtx"
    save_model(m, path)
    loaded = load_model(path)
    assert set(loaded.params) == set(m.params)
    for name, p in m.params.items():
        np.testing.assert_array_equal(loaded.params[name].value.data, p.value.data)


def test_save_load_save_byte_identical(tmp_path):
    m = _model(seed=4)
    a, b = tmp_path / "a.tdtx", tmp_path / "b.tdtx"
    save_model(m, a)
    save_model(load_model(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_decoderless_model_round_trips_without_decoder_side(tmp_path):
    m = _model(seed=6, n_decoder_layers=0)
    path = tmp_path / "m.tdtx"
    save_model(m, path)
    assert set(load_model(path).params) == set(m.params)
    # a file that still holds the decoder-side tables does not match
    extra = {**m.params, "embed.pos_dec": np.zeros((m.config.max_positions, m.config.d_model))}
    write_checkpoint(path, "model", m.config.to_dict(), extra)
    with pytest.raises(CheckpointError, match="parameter table mismatch"):
        load_model(path)


def test_encode_identical_after_round_trip(tmp_path):
    m = _model(seed=5)
    ids = RngStream(1).randint(3, m.config.vocab_size, 20)
    before = m.encode(ids).data
    path = tmp_path / "m.tdtx"
    save_model(m, path)
    after = load_model(path).encode(ids).data
    np.testing.assert_array_equal(before, after)


def test_a_loaded_model_that_generates_holds_only_its_weights(tmp_path):
    path = tmp_path / "m.tdtx"
    save_model(_model(seed=7), path)
    source = RngStream(7).randint(3, 64, 32)

    def load_and_generate():
        m = load_model(path)
        m.generate(source, 4)
        return m

    m, held = held_bytes(load_and_generate)
    weights = sum(p.value.data.nbytes for p in m.parameters())
    assert held <= 1.1 * weights, (held, weights)


def test_a_load_screens_each_stored_array_once(tmp_path, monkeypatch):
    path = tmp_path / "m.tdtx"
    save_model(_model(seed=8), path)
    checks = []

    def counted(check):
        def run(*args, **kwargs):
            checks.append(check.__name__)
            return check(*args, **kwargs)
        return run

    monkeypatch.setattr(np, "isfinite", counted(np.isfinite))  # read_checkpoint's screen
    monkeypatch.setattr(tdt.tensor, "_all_finite", counted(tdt.tensor._all_finite))  # Tensor's
    m = load_model(path)
    assert len(checks) == len(m.params), sorted(set(checks))


def test_a_wide_probe_head_loads_back_bit_identical(tmp_path):
    head = Tagger(desk_config(), seed=9, width=16)
    path = tmp_path / "t.tdtx"
    write_checkpoint(path, "tagger", head.config.to_dict(), head.params)
    loaded = load_checkpoint(path, "tagger", Tagger)
    ids = RngStream(9).randint(3, 64, 48).reshape(2, 24)
    logits = loaded.logits(ids).data
    assert logits.shape == (2, 24, 16)
    np.testing.assert_array_equal(logits, head.logits(ids).data)


def test_corrupted_magic_rejected(tmp_path):
    m = _model(seed=6)
    path = tmp_path / "m.tdtx"
    save_model(m, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_model(path)


def test_version_mismatch_rejected(tmp_path):
    m = _model(seed=7)
    path = tmp_path / "m.tdtx"
    save_model(m, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_model(path)


def test_truncated_file_rejected(tmp_path):
    m = _model(seed=8)
    path = tmp_path / "m.tdtx"
    save_model(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_model(path)


def test_shape_mismatch_rejected(tmp_path):
    m = _model(seed=9)
    path = tmp_path / "m.tdtx"
    # write a checkpoint whose config promises a different d_model
    other = desk_config(d_model=32, n_heads=4)
    write_checkpoint(path, "model", other.to_dict(), m.params)
    with pytest.raises(CheckpointError):
        load_model(path)


def test_f32_storage_round_trip(tmp_path):
    m = _model(seed=10)
    a, b = tmp_path / "a.tdtx", tmp_path / "b.tdtx"
    save_model(m, a, dtype="f32")
    kind, config, arrays, storage = read_checkpoint(a)
    assert storage == "f32"
    loaded = load_model(a)
    # values quantized to f32 but round trip through f32 is byte-exact
    save_model(loaded, b, dtype="f32")
    assert a.read_bytes() == b.read_bytes()
    for name, p in m.params.items():
        np.testing.assert_array_equal(
            loaded.params[name].value.data,
            p.value.data.astype(np.float32).astype(np.float64),
        )


def test_a_retired_concat_checkpoint_is_refused(tmp_path, capsys):
    # the concat top-down variant is retired; the file layout is unchanged
    m = _model(seed=11)
    path = tmp_path / "m.tdtx"
    write_checkpoint(path, "model", {**m.config.to_dict(), "topdown_mode": "concat"}, m.params)
    with pytest.raises(CheckpointError, match="topdown_mode"):
        load_model(path)
    assert run_cli(["generate", "--ckpt", str(path), "--source", "3,4,5"]) == 3
    assert "topdown_mode" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2])
def test_older_version_files_rejected(tmp_path, version):
    path = tmp_path / "m.tdtx"
    save_model(_model(seed=12), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"version {version} "):
        load_model(path)


def test_non_utf8_parameter_name_rejected(tmp_path):
    path = tmp_path / "m.tdtx"
    save_model(_model(seed=13), path)
    blob = bytearray(path.read_bytes())
    name_at, _ = first_param_offsets(blob)
    blob[name_at] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="UTF-8"):
        read_checkpoint(path)


@pytest.mark.parametrize("extent", [10**6, 2**63, 2**64 - 1])
def test_extent_past_end_of_file_rejected(tmp_path, extent):
    path = tmp_path / "m.tdtx"
    save_model(_model(seed=14), path)
    blob = bytearray(path.read_bytes())
    _, extent_at = first_param_offsets(blob)
    blob[extent_at : extent_at + 8] = extent.to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)


def test_malformed_parameter_records_name_the_parameter(tmp_path):
    path = tmp_path / "m.tdtx"
    save_model(_model(seed=15), path)
    blob = bytearray(path.read_bytes())
    _, extent_at = first_param_offsets(blob)
    blob[extent_at - 4] |= 0x80  # ndim past numpy's 64
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=rf"parameter \S+: ndim {blob[extent_at - 4]} > 64"):
        load_model(path)

    write_checkpoint(path, "model", {}, {"w": np.array([1.0, np.nan])})
    with pytest.raises(CheckpointError, match="parameter w: non-finite"):
        read_checkpoint(path)
    m = _model(seed=15)
    m.params["embed.token"].value.data[0, 0] = np.inf
    save_model(m, path)
    with pytest.raises(CheckpointError, match="parameter embed.token: non-finite"):
        load_model(path)

    write_checkpoint(path, "model", {}, {"w": np.zeros((0, 4))})
    blob = bytearray(path.read_bytes())
    _, extent_at = first_param_offsets(blob)
    blob[extent_at + 8 : extent_at + 16] = (2**63).to_bytes(8, "little")  # 0 x 2^63 floats
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="parameter w: shape"):
        read_checkpoint(path)


def test_truncated_or_bit_flipped_file_raises_only_checkpoint_error(tmp_path):
    """Every truncation through the header, the first parameter record and
    into its data, and a flip of bit 0 or 7 of every byte up to its first
    values: each load succeeds or raises CheckpointError, nothing else."""
    path, bad = tmp_path / "m.tdtx", tmp_path / "bad.tdtx"
    save_model(_model(seed=16), path)
    blob = path.read_bytes()
    _, extent_at = first_param_offsets(blob)
    data_at = extent_at + 8 * int.from_bytes(blob[extent_at - 4 : extent_at], "little")

    def cases():
        for n in range(data_at + 1024):
            yield f"truncated to {n}", blob[:n]
        for i in range(data_at + 8):
            for bit in (0, 7):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                yield f"bit {bit} of byte {i} flipped", bytes(flipped)

    escaped = []
    for what, data in cases():
        bad.write_bytes(data)
        try:
            load_model(bad)
        except CheckpointError:
            pass
        except Exception as exc:  # anything else escapes the format's contract
            escaped.append(f"{what}: {type(exc).__name__}: {exc}")
    assert not escaped, escaped[:5]


def _with_count(blob, table, count):
    """``table`` (the bytes after the parameter count) under a new count."""
    hlen = int.from_bytes(blob[8:12], "little")
    return blob[: 12 + hlen] + count.to_bytes(4, "little") + table


@pytest.mark.parametrize("where", ["appended", "adjacent"])
def test_repeated_or_out_of_order_parameter_name_refused(tmp_path, where):
    path = tmp_path / "m.tdtx"
    save_model(_model(seed=17), path)
    blob = path.read_bytes()
    _, records = checkpoint_fields(blob)
    table_at = records[0][0]
    record = blob[slice(*records[0])]
    if where == "appended":  # bottom_up.0.attn.bk again after the last name
        table = blob[table_at:] + record
    else:  # the first record twice in a row
        table = record + blob[table_at:]
    path.write_bytes(_with_count(blob, table, len(records) + 1))
    with pytest.raises(CheckpointError,
                       match=r"parameter bottom_up\.0\.attn\.bk: repeated or out of order"):
        read_checkpoint(path)
    with pytest.raises(CheckpointError, match="repeated or out of order"):
        load_model(path)


def test_a_header_wider_than_its_table_is_refused_before_allocating(tmp_path):
    m = _model(seed=18)
    path = tmp_path / "m.tdtx"
    write_checkpoint(path, "model", {**m.config.to_dict(), "d_model": 384}, m.params)
    live = tdt.reset_peak()
    t0 = time.perf_counter()
    with pytest.raises(CheckpointError,
                       match=r"embed\.token: shape \(64, 64\) != expected \(64, 384\)"):
        load_model(path)
    assert time.perf_counter() - t0 < 0.05
    assert tdt.peak_bytes() == live  # no tensor was made


def _refuse_draws(monkeypatch):
    """Make every normal draw raise: what runs after this draws nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("a random draw")

    monkeypatch.setattr(RngStream, "normal", refuse)


def test_loading_draws_nothing(tmp_path, monkeypatch):
    m, t = _model(seed=19), Tagger(desk_config(), seed=19)
    model_path, tagger_path = tmp_path / "m.tdtx", tmp_path / "t.tdtx"
    save_model(m, model_path)
    write_checkpoint(tagger_path, "tagger", t.config.to_dict(), t.params)
    _refuse_draws(monkeypatch)
    for saved, loaded in ((m, load_model(model_path)),
                          (t, load_checkpoint(tagger_path, "tagger", Tagger))):
        assert list(loaded.params) == list(saved.params)
        for name, p in saved.params.items():
            np.testing.assert_array_equal(loaded.params[name].value.data, p.value.data)


def test_a_header_with_one_more_layer_names_the_missing_one(tmp_path, monkeypatch):
    m = _model(seed=20)
    path = tmp_path / "m.tdtx"
    write_checkpoint(path, "model", {**m.config.to_dict(), "n_bottom_up": 3}, m.params)
    _refuse_draws(monkeypatch)
    with pytest.raises(CheckpointError,
                       match=r"parameter table mismatch: bottom_up\.2\.attn\.wq missing"):
        load_model(path)


def test_checkpoint_mutations_load_or_raise_checkpoint_error_quickly(tmp_path):
    """A d_model 8 checkpoint truncated at every field boundary, each byte
    before its table XORed with 0x01 and with 0x10, bytes of its table XORed
    with seeded masks, its first record repeated, and the values of every
    pair of its header's config fields swapped: each load returns a model or
    raises CheckpointError, and within 50 ms."""
    path, bad = tmp_path / "m.tdtx", tmp_path / "bad.tdtx"
    save_model(_model(seed=21, d_model=8), path)
    blob = path.read_bytes()
    starts, records = checkpoint_fields(blob)
    table_at = records[0][0]
    rng = RngStream(21).split("mutations")
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + hlen])

    def xor(i, mask):
        return f"byte {i} ^ {mask:#04x}", blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:]

    def swapped(a, b):
        config = {**header["config"], a: header["config"][b], b: header["config"][a]}
        text = json.dumps({**header, "config": config}, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return (f"header {a} <-> {b}",
                blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + hlen:])

    def cases():
        for n in starts:
            yield f"truncated to {n}", blob[:n]
        for i in range(table_at):
            yield xor(i, 0x01)
            yield xor(i, 0x10)
        spots = rng.randint(table_at, len(blob), 256)
        masks = rng.randint(1, 256, 256)
        for i, mask in zip(spots.tolist(), masks.tolist()):
            yield xor(i, mask)
        first = blob[slice(*records[0])]
        yield "first record repeated", _with_count(blob, first + blob[table_at:], len(records) + 1)
        for a, b in itertools.combinations(sorted(header["config"]), 2):
            yield swapped(a, b)

    escaped, slow, n_cases = [], [], 0
    for what, data in cases():
        n_cases += 1
        bad.write_bytes(data)
        t0 = time.perf_counter()
        try:
            load_model(bad)
        except CheckpointError:
            pass
        except Exception as exc:  # anything else escapes the format's contract
            escaped.append(f"{what}: {type(exc).__name__}: {exc}")
        if time.perf_counter() - t0 > 0.05:
            slow.append(what)
    assert n_cases > 1000
    assert not escaped, escaped[:5]
    assert not slow, slow[:5]
