"""Benchmark records vs closed-form budgets, and output formats."""

import csv
import io
import json

import numpy as np
import pytest

from tdt import ConfigError, Model, ModelConfig, encode_score_budget
from tdt import bench
from tdt.bench import (
    VARIANTS,
    BenchRecord,
    bench_cell,
    bench_sweep,
    records_to_csv,
    records_to_json,
    variant_config,
)


def _base(**kw):
    d = dict(kernel_size=32, stride=24, max_positions=256, vocab_size=64)
    d.update(kw)
    return ModelConfig(**d)


def _budget(rec, base):
    """The cell's closed-form count, summed over heads."""
    cfg = variant_config(rec.variant, rec.window, base)
    return cfg.n_heads * encode_score_budget(cfg, rec.n_tokens)


def test_variant_config_mapping():
    base = _base()
    assert variant_config("full", 32, base).window is None
    assert variant_config("full", 32, base).topdown_mode == "none"
    assert variant_config("local-only", 32, base).window == 32
    assert variant_config("topdown-cross", 32, base).topdown_mode == "cross"
    assert variant_config("topdown-concat", 32, base).topdown_mode == "concat"
    with pytest.raises(ConfigError):
        variant_config("nope", 32, base)


def test_sweep_counts_match_budget_exactly():
    base = _base()
    records = bench_sweep([64, 128], 16, variants=VARIANTS, trials=3, seed=1, base=base)
    assert len(records) == len(VARIANTS) * 2
    for rec in records:
        assert not rec.failed
        assert rec.score_evals == _budget(rec, base)
        assert rec.wall_ms_median > 0
        assert rec.peak_bytes > 0


def test_bench_cell_runs_one_untimed_warm_up_encode(monkeypatch):
    base = _base()
    counters = []
    encode = Model.encode

    def counting_encode(self, ids, counter=None, **kw):
        counters.append(counter)
        return encode(self, ids, counter, **kw)

    monkeypatch.setattr(Model, "encode", counting_encode)
    rec = bench_cell("topdown-cross", 64, 16, base, trials=3, seed=1)
    assert len(counters) == 3 + 1
    assert counters[0] is None  # the warm-up is neither timed nor counted
    assert rec.score_evals == _budget(rec, base)


def test_full_variant_score_quadruples_when_n_doubles():
    base = _base()
    records = bench_sweep([64, 128], 16, variants=("full",), trials=3, seed=2, base=base)
    by_n = {r.n_tokens: r.score_evals for r in records}
    assert by_n[128] == 4 * by_n[64]


def test_local_variant_grows_subquadratically():
    base = _base()
    records = bench_sweep([64, 128], 8, variants=("local-only",), trials=3, seed=3, base=base)
    by_n = {r.n_tokens: r.score_evals for r in records}
    assert by_n[128] < 2.2 * by_n[64]


def test_csv_columns_and_round_trip():
    rec = BenchRecord(
        variant="topdown-cross", n_tokens=128, window=16, n_segments=5,
        score_evals=1234, wall_ms_median=1.5, peak_bytes=1000, seed=7,
    )
    text = records_to_csv([rec])
    header = text.splitlines()[0]
    assert header == "variant,N,w,M,score_evals,wall_ms_median,peak_bytes,seed"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["variant"] == "topdown-cross"
    assert int(rows[0]["score_evals"]) == 1234
    assert int(rows[0]["N"]) == 128
    blob = json.loads(records_to_json([rec]))
    assert blob[0]["M"] == 5
    assert blob[0]["w"] == 16


def test_full_variant_emits_inf_window():
    rec = BenchRecord(
        variant="full", n_tokens=64, window=None, n_segments=3,
        score_evals=10, wall_ms_median=1.0, peak_bytes=10, seed=0,
    )
    rows = list(csv.DictReader(io.StringIO(records_to_csv([rec]))))
    assert rows[0]["w"] == "inf"


def test_sweep_validates_grid_and_trials():
    base = _base()
    with pytest.raises(ConfigError):
        bench_sweep([], 8, base=base)
    with pytest.raises(ConfigError):
        bench_sweep([64], 8, trials=2, base=base)


def test_bench_peak_bytes_cross_well_below_full():
    base = _base(max_positions=512)
    records = bench_sweep(
        [512], 64, variants=("full", "topdown-cross"), trials=3, seed=5, base=base
    )
    by_variant = {r.variant: r for r in records}
    assert (
        by_variant["topdown-cross"].peak_bytes < 0.5 * by_variant["full"].peak_bytes
    )


def test_ablate_checks_every_window_before_the_first_training(monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("ablate trained before checking its grid")

    monkeypatch.setattr(bench, "train", train)
    with pytest.raises(ConfigError, match="window"):
        bench.ablate([0, 1, 2], windows=(8, 3), base_window=8, steps=1)


def test_ablate_reports_one_row_per_cell_and_no_ordering_flags(monkeypatch):
    monkeypatch.setattr(bench, "train", lambda *args, **kwargs: None)
    monkeypatch.setattr(bench, "eval_accuracy", lambda model, val: {"token_acc": 0.5})
    # a repeated sweep window is one cell, trained once per seed
    table = bench.ablate([0, 1, 2], windows=(4, 8, 4), base_window=8, steps=1, n_eval=1)
    assert sorted(table) == ["base_window", "rows", "seeds", "steps"]
    assert [(r["variant"], r["window"]) for r in table["rows"]] == [
        ("cross", 8), ("concat", 8), ("none", 8), ("cross", 4)]
    assert all(r["per_seed"] == [0.5, 0.5, 0.5] for r in table["rows"])
