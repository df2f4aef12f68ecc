"""Benchmark records vs closed-form budgets, output formats, and the probe ablation."""

import csv
import io
import json

import numpy as np
import pytest

from tdt import (
    ConfigError,
    Model,
    ModelConfig,
    RngStream,
    desk_config,
    encode_score_budget,
    gen_keyvalue_task,
)
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
from tdt.cli import run_cli
from tdt.tasks import N_VALUES
from tdt.training import Tagger


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


ABLATE_KEYS = ["base_window", "chance", "rows", "seeds", "steps"]
ROW_KEYS = ["mean_acc", "per_seed", "pooling", "sd_acc", "variant", "window"]


def _refuse_training(monkeypatch):
    def train_head(*args, **kwargs):
        raise AssertionError("ablate trained before checking its grid")

    monkeypatch.setattr(bench, "train_head", train_head)


def test_ablate_checks_every_window_before_the_first_training(monkeypatch):
    _refuse_training(monkeypatch)
    with pytest.raises(ConfigError, match="window"):
        bench.ablate([0, 1, 2], windows=(8, 3), base_window=8, steps=1)


def test_ablate_refuses_ada_pooling_before_the_first_training(monkeypatch, tmp_path, capsys):
    # the probe has no tagger to weight ada pooling with
    _refuse_training(monkeypatch)
    with pytest.raises(ConfigError, match="ada"):
        bench.ablate([0, 1, 2], windows=(8,), steps=1, base=desk_config(pooling_mode="ada"))
    cfg = tmp_path / "ada.json"
    cfg.write_text(json.dumps({"pooling_mode": "ada"}))
    assert run_cli(["ablate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ablate cannot pool with ada")
    assert not (tmp_path / "out").exists()


def test_ablate_reports_one_row_per_cell_and_no_ordering_flags(monkeypatch):
    monkeypatch.setattr(bench, "train_head", lambda *args, **kwargs: None)
    monkeypatch.setattr(bench, "head_accuracy", lambda head, items: 0.5)
    # a repeated sweep window is one cell, trained once per seed
    table = bench.ablate([0, 1, 2], windows=(4, 8, 4), base_window=8, steps=1, n_eval=1,
                         base=desk_config(pooling_mode="oracle_ada"))
    assert sorted(table) == ABLATE_KEYS
    assert [(r["variant"], r["pooling"], r["window"]) for r in table["rows"]] == [
        ("cross", "oracle_ada", 8), ("none", "avg", 8), ("cross", "oracle_ada", 4)]
    assert all(r["per_seed"] == [0.5, 0.5, 0.5] for r in table["rows"])


def test_ablate_json_keys_and_chance_level(tmp_path):
    # two runs with the same seeds write the same bytes
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run_cli(["ablate", "--seeds", "3", "--windows", "8", "--steps", "1",
                        "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    table = json.loads(outs[0].read_text())
    assert sorted(table) == ABLATE_KEYS
    assert table["chance"] == 1 / N_VALUES
    assert [sorted(row) for row in table["rows"]] == [ROW_KEYS] * 2
    assert all(len(row["per_seed"]) == 3 for row in table["rows"])


@pytest.mark.parametrize("mode, blind", [("none", True), ("cross", False)])
def test_the_query_sees_the_value_block_only_through_the_top_down_path(mode, blind):
    # N=64 on the desk preset: the block ends 48 positions before the query,
    # beyond the 8 the bottom-up layers see, so only the segment level reaches it
    cfg = desk_config(topdown_mode=mode)
    inst = gen_keyvalue_task(RngStream(5), 64, cfg.window, cfg.n_bottom_up, cfg.vocab_size)
    permuted = inst.source[N_VALUES - 1::-1] + inst.source[N_VALUES:]
    probe = Tagger(cfg, seed=0, width=N_VALUES)  # untrained
    query = [probe.logits(ids).data[-1] for ids in (inst.source, permuted)]
    assert query[0].shape == (N_VALUES,)
    assert np.array_equal(*query) == blind
