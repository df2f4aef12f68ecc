"""Row-tiled sublayers: the tile rule, bit parity between tile sizes, the
memory bound of a long encode, and the layout of the decode cache's keys."""

import gc

import numpy as np

import tdt
from tdt import BOS_ID, Model, RngStream, Tape, Tensor, backward, desk_config, ops
from tdt.model import DecodeCache
from tdt.tasks import TaskInstance
from tdt.training import batch_loss

from helpers import skip_unless_recorded_build


def test_tiles_cover_the_rows_in_blocks_of_four(monkeypatch):
    for budget in (1, 7, 40, 100, 1 << 18):
        monkeypatch.setattr(ops, "_TILE_BYTES", budget)
        for units in range(1, 120):
            for unit_bytes in (1, 3, 8, 24, 1 << 20):
                span, bounds = ops._tiles(units, unit_bytes)
                starts = [start for start, _ in bounds]
                assert starts == [0] + [stop for _, stop in bounds[:-1]]
                assert bounds[-1][1] == units
                assert all(start % 4 == 0 for start in starts)
                sizes = [stop - start for start, stop in bounds]
                assert span == max(sizes)
                assert min(sizes) >= 4 or len(sizes) == 1
                assert max(sizes) <= max(4, budget // unit_bytes) + 3


def _tiled_outputs() -> dict:
    """Every output that the sublayer tiles compute, at N = 203, which
    leaves ragged last tiles: encoder outputs of cross and none with avg
    pooling and of cross with oracle_ada, a cached decode of a 5-token
    prefix and two steps after it, beam-3 output, and the loss and every
    gradient of a desk step over 4 instances."""
    n = 203
    ids = RngStream(29).randint(3, 64, n)
    labels = (np.arange(n) % 5 == 0).astype(np.int64)
    out = {}
    for mode, pooling in (("cross", "avg"), ("none", "avg"), ("cross", "oracle_ada")):
        m = Model(desk_config(max_positions=256, topdown_mode=mode, pooling_mode=pooling),
                  seed=5)
        kwargs = {"labels": labels} if pooling == "oracle_ada" else {}
        out[f"{mode}/{pooling}/encode"] = m.encode(ids, **kwargs).data
    m = Model(desk_config(max_positions=256), seed=6)
    enc = Tensor(m.encode(ids).data[None])
    cache = DecodeCache(m.config.n_decoder_layers)
    out["cached/prefix"] = m.decode([[BOS_ID, 7, 9, 11, 13]], enc, cache=cache).data
    for t in range(2):
        out[f"cached/step{t}"] = m.decode([[20 + t]], enc, cache=cache).data
    out["beam3"] = np.array(m.generate(ids, max_len=6, strategy="beam", beam_size=3))
    rows = RngStream(30).randint(3, 64, 4 * n).reshape(4, n)
    tape = Tape()
    loss = batch_loss(m, [TaskInstance(list(r), list(r[:7])) for r in rows], tape)
    backward(loss, tape)
    out["step/loss"] = loss.data
    for name, p in m.params.items():
        out[f"step/grad/{name}"] = p.grad
    return out


def test_tiles_of_four_to_seven_units_keep_every_bit_of_the_default_tiles(monkeypatch):
    # the tile rule's promise at these shapes, on the recorded build: tiles
    # on the BLAS row blocks keep the bits of the default tiles' products
    skip_unless_recorded_build()
    default = _tiled_outputs()
    monkeypatch.setattr(ops, "_TILE_BYTES", 1)
    small = _tiled_outputs()
    assert default.keys() == small.keys()
    for key, want in default.items():
        assert small[key].tobytes() == want.tobytes(), key


def test_long_encode_tracked_peak_stays_under_its_bound():
    # encode_long's 2048-token encode holds one tile of scores and hidden
    # units at a time; the whole-document scratch peaked 7.80 MB above entry
    cfg = desk_config(window=32, kernel_size=32, stride=24, max_positions=2048,
                      topdown_mode="cross")
    m = Model(cfg, seed=0)
    ids = RngStream(5).randint(3, cfg.vocab_size, 2048)
    gc.collect()
    entry = tdt.reset_peak()
    m.encode(ids)
    assert tdt.peak_bytes() - entry < 6.0e6


def test_cached_keys_stay_in_the_layout_the_scorer_multiplies():
    # the cache joins keys in heads_in's [..., hd, n] memory, so a step's
    # dense scorer reads them without a copy, also after a beam select
    cfg = desk_config()
    m = Model(cfg, seed=7)
    enc = Tensor(m.encode(RngStream(8).randint(3, cfg.vocab_size, 24)).data[None])
    cache, tok = DecodeCache(cfg.n_decoder_layers), BOS_ID
    for _ in range(3):  # three greedy steps
        tok = int(m.decode([[tok]], enc, cache=cache).data[0, -1].argmax())
    cache.select([0, 0])
    m.decode([[tok], [tok]], Tensor(enc.data[[0, 0]]), cache=cache)
    for kv in cache.layers:
        assert kv.k.shape[-3:-1] == (cfg.n_heads, 4)
        assert kv.k.data.swapaxes(-1, -2).flags.c_contiguous
