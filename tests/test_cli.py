"""Command-line surface: subcommands, exit codes, formats."""

import json
import os
import time

import numpy as np
import pytest

from tdt import Model, RngStream, desk_config, load_model, save_model
from tdt.cli import build_parser, run_cli
from tdt.checkpoint import load_checkpoint, read_checkpoint, write_checkpoint
from tdt.training import DEFAULT_LR, Tagger
from helpers import first_param_offsets


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_budget_subcommand_output(capsys):
    code, out, _ = run(capsys, "budget", "--N", "9", "--w", "4", "--M", "2")
    assert code == 0
    # 39 = popcount of the 9-token window-4 band (3+4+5+5+5+5+5+4+3)
    assert out.strip() == "local=39 segment=4 cross=18"


def test_unknown_flag_exits_2(capsys):
    code, _, err = run(capsys, "budget", "--N", "9", "--w", "4", "--M", "2", "--bogus")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_config_file_exits_2_naming_path(capsys):
    code, _, err = run(
        capsys, "train", "--config", "/nonexistent/cfg.json", "--steps", "1"
    )
    assert code == 2
    assert "/nonexistent/cfg.json" in err


def test_invalid_config_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_field": 1}))
    code, _, err = run(capsys, "train", "--config", str(cfg), "--steps", "1")
    assert code == 2


def test_train_eval_generate_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "train", "--task", "copy", "--steps", "2", "--n-tokens", "6",
        "--seed", "3", "--out", str(out_dir),
    )
    assert code == 0
    ckpt = json.loads(out)["checkpoint"]
    assert os.path.exists(ckpt)
    assert os.path.exists(out_dir / "report.json")

    code, out, _ = run(
        capsys, "eval", "--ckpt", ckpt, "--task", "copy", "--n-instances", "4",
        "--n-tokens", "6", "--seed", "3",
    )
    assert code == 0
    metrics = json.loads(out)
    assert set(metrics) == {"token_acc", "seq_acc"}

    code, out, _ = run(
        capsys, "generate", "--ckpt", ckpt, "--source", "3,4,5", "--max-len", "4"
    )
    assert code == 0
    ids = [int(v) for v in out.split()]
    assert 1 <= len(ids) <= 4


def test_generate_beam_matches_library(tmp_path, capsys):
    ckpt = tmp_path / "model.tdtx"
    save_model(Model(desk_config(), seed=11), ckpt)
    source = [3, 9, 14, 5, 27, 8, 40, 12]
    code, out, _ = run(
        capsys, "generate", "--ckpt", str(ckpt), "--source", ",".join(map(str, source)),
        "--max-len", "6", "--strategy", "beam", "--beam", "4",
    )
    assert code == 0
    expected = load_model(ckpt).generate(source, max_len=6, strategy="beam", beam_size=4)
    assert [int(v) for v in out.split()] == expected


@pytest.mark.parametrize("argv", [
    ("generate", "--source", "3,4,5", "--beam", "4"),
    ("eval", "--task", "copy", "--n-instances", "2", "--n-tokens", "6", "--beam", "3"),
], ids=["generate", "eval"])
def test_a_beam_width_without_the_beam_strategy_exits_2(tmp_path, capsys, argv):
    ckpt = tmp_path / "model.tdtx"
    save_model(Model(desk_config(), seed=11), ckpt)
    code, out, err = run(capsys, *argv[:1], "--ckpt", str(ckpt), *argv[1:])
    assert code == 2 and out == ""
    assert "strategy" in err


def test_train_determinism_across_invocations(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run(
            capsys, "train", "--task", "copy", "--steps", "2", "--n-tokens", "6",
            "--seed", "7", "--out", str(out_dir),
        )
        assert code == 0
    assert (a / "checkpoint.tdtx").read_bytes() == (b / "checkpoint.tdtx").read_bytes()
    assert (a / "report.json").read_text() == (b / "report.json").read_text()


def test_train_lr_default_is_library_default():
    assert build_parser().parse_args(["train"]).lr == DEFAULT_LR


def test_tdt_seed_env_overrides_flag(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("TDT_SEED", "42")
    for out_dir, seed in ((a, "1"), (b, "2")):
        code, _, _ = run(
            capsys, "train", "--task", "copy", "--steps", "2", "--n-tokens", "6",
            "--seed", seed, "--out", str(out_dir),
        )
        assert code == 0
    # different --seed values, same TDT_SEED: identical results
    assert (a / "checkpoint.tdtx").read_bytes() == (b / "checkpoint.tdtx").read_bytes()


def test_non_integer_tdt_seed_exits_2_naming_value(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TDT_SEED", "x")
    code, _, err = run(capsys, "train", "--steps", "1", "--out", str(tmp_path))
    assert code == 2
    assert err.strip() == "error: not an integer: 'x'"


@pytest.mark.parametrize("task, n_tokens", [("copy", "6"), ("keyvalue", "64")])
def test_train_ada_config_exits_2_suggesting_oracle_ada(tmp_path, capsys, task, n_tokens):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pooling_mode": "ada"}))
    code, _, err = run(
        capsys, "train", "--config", str(cfg), "--task", task, "--n-tokens", n_tokens,
        "--steps", "1", "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "tagger weights" in err and "oracle_ada" in err
    assert not (tmp_path / "out").exists()


def test_tag_labels_mode(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    ref = tmp_path / "ref.txt"
    doc.write_text("the cats ran\nstorms hit hard\n")
    ref.write_text("cat runs\nstorm\n")
    code, out, _ = run(capsys, "tag", "--mode", "labels", "--doc", str(doc), "--ref", str(ref))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 1 0"
    assert lines[1] == "1 0 0"


def test_tag_labels_with_stopword_file(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    ref = tmp_path / "ref.txt"
    stop = tmp_path / "stop.txt"
    doc.write_text("alpha beta\n")
    ref.write_text("alpha beta\n")
    stop.write_text("alpha\n")
    code, out, _ = run(
        capsys, "tag", "--mode", "labels", "--doc", str(doc), "--ref", str(ref),
        "--stopwords", str(stop),
    )
    assert code == 0
    assert out.strip() == "0 1"


@pytest.mark.parametrize("mode, flags, message", [
    ("run", (), "tag --mode run needs --ckpt"),
    ("labels", (), "tag --mode labels needs --ref"),
    ("labels", ("--ref", "doc.txt", "--ckpt", "t.tdtx"), "--ckpt is read by tag --mode run only"),
    ("labels", ("--ref", "doc.txt", "--vocab", "v.txt"), "--vocab is read by tag --mode run only"),
    ("run", ("--ckpt", "t.tdtx", "--ref", "doc.txt"), "--ref is read by tag --mode labels only"),
    ("run", ("--ckpt", "t.tdtx", "--stopwords", "s.txt"),
     "--stopwords is read by tag --mode labels only"),
], ids=["run-no-ckpt", "labels-no-ref", "labels-ckpt", "labels-vocab", "run-ref",
        "run-stopwords"])
def test_tag_needs_its_mode_input_and_refuses_the_other_modes_flags(
        tmp_path, capsys, monkeypatch, mode, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.txt").write_text("3 4 5\n")
    code, out, err = run(capsys, "tag", "--mode", mode, "--doc", "doc.txt", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_train_tagger_and_run_mode(tmp_path, capsys):
    out = tmp_path / "tagger.tdtx"
    code, text, _ = run(
        capsys, "train-tagger", "--steps", "2", "--n-tokens", "64",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0
    assert json.loads(text) == {"tagger": str(out), "aborted": False, "steps_completed": 2}
    kind, _, _, _ = read_checkpoint(out)
    assert kind == "tagger"

    doc = tmp_path / "ids.txt"
    doc.write_text("3 4 5 6 7 8\n")
    code, text, _ = run(capsys, "tag", "--mode", "run", "--ckpt", str(out), "--doc", str(doc))
    assert code == 0
    weights = [float(v) for v in text.split()]
    assert len(weights) == 6


def test_train_tagger_reports_a_non_finite_abort(tmp_path, capsys, monkeypatch):
    import tdt.cli as cli

    real = cli.train_tagger
    monkeypatch.setattr(cli, "train_tagger", lambda *a, **kw: real(*a, lr=1e200, **kw))
    out = tmp_path / "tagger.tdtx"
    code, text, _ = run(
        capsys, "train-tagger", "--steps", "4", "--n-tokens", "64",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0
    record = json.loads(text)
    assert record["aborted"] is True
    assert record["steps_completed"] < 4
    # the written tagger holds the last completed step's parameters, so it runs
    doc = tmp_path / "ids.txt"
    doc.write_text("3 4 5 6 7 8\n")
    code, text, err = run(capsys, "tag", "--mode", "run", "--ckpt", str(out), "--doc", str(doc))
    assert (code, err) == (0, "")
    assert np.all(np.isfinite([float(v) for v in text.split()]))


@pytest.mark.parametrize(
    "flags, kwargs",
    [(["--batch-size", "0"], {"batch_size": 0}), (["--lr", "nan"], {"lr": float("nan")}),
     (["--lr", "-1"], {"lr": -1.0}), (["--lr", "0"], {"lr": 0.0}),
     (["--lr", "inf"], {"lr": float("inf")})],
    ids=["batch-size-0", "lr-nan", "lr-negative", "lr-zero", "lr-inf"],
)
def test_training_refuses_inputs_that_train_nothing(tmp_path, capsys, flags, kwargs):
    from tdt import ConfigError, gen_copy_task, train, train_tagger

    cfg = desk_config()
    with pytest.raises(ConfigError):
        train(Model(cfg, seed=0), lambda rng: gen_copy_task(rng, (4, 4), cfg.vocab_size),
              steps=3, seed=0, **kwargs)
    with pytest.raises(ConfigError):
        train_tagger(cfg, lambda rng: ([3, 4, 5, 6], [0, 1, 0, 1]), steps=3, seed=0, **kwargs)
    code, _, err = run(capsys, "train", "--steps", "3", "--n-tokens", "8",
                       "--out", str(tmp_path / "run"), *flags)
    assert code == 2 and err


@pytest.mark.parametrize(
    "flags, kwargs",
    [(["--batch-size", "0"], {"batch_size": 0}), (["--lr", "nan"], {"lr": float("nan")})],
    ids=["batch-size-0", "lr-nan"],
)
def test_training_of_zero_steps_still_refuses_bad_inputs(tmp_path, capsys, flags, kwargs):
    from tdt import ConfigError, gen_copy_task, train, train_tagger

    cfg = desk_config()
    with pytest.raises(ConfigError):
        train(Model(cfg, seed=0), lambda rng: gen_copy_task(rng, (4, 4), cfg.vocab_size),
              steps=0, seed=0, **kwargs)
    with pytest.raises(ConfigError):
        train_tagger(cfg, lambda rng: ([3, 4, 5, 6], [0, 1, 0, 1]), steps=0, seed=0, **kwargs)
    code, _, err = run(capsys, "train", "--steps", "0", "--n-tokens", "8",
                       "--out", str(tmp_path / "run"), *flags)
    assert code == 2 and err
    assert not (tmp_path / "run").exists()


def test_a_negative_step_count_is_refused_before_any_training(tmp_path, capsys):
    from tdt import ConfigError, gen_copy_task, train, train_tagger

    cfg = desk_config()
    with pytest.raises(ConfigError, match="steps"):
        train(Model(cfg, seed=0), lambda rng: gen_copy_task(rng, (4, 4), cfg.vocab_size),
              steps=-1, seed=0)
    with pytest.raises(ConfigError, match="steps"):
        train_tagger(cfg, lambda rng: ([3, 4, 5, 6], [0, 1, 0, 1]), steps=-1, seed=0)
    for command in ("train-tagger", "ablate"):
        code, out, err = run(capsys, command, "--steps", "-1", "--out", str(tmp_path / "out"))
        assert (code, out, err) == (2, "", "error: steps must be >= 0\n")
        assert not (tmp_path / "out").exists()


def test_copy_task_at_max_positions_leaves_room_for_bos(tmp_path, capsys):
    # max_positions 16 and --n-tokens 16: a 16-token target made a 17-token
    # decoder input (BOS + target) before the copy length was capped at 15
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"max_positions": 16}))
    code, _, err = run(
        capsys, "train", "--task", "copy", "--config", str(cfg), "--n-tokens", "16",
        "--steps", "3", "--seed", "1", "--out", str(tmp_path / "run"),
    )
    assert (code, err) == (0, "")


def test_eval_refuses_a_tagger_unless_the_model_pools_ada(tmp_path, capsys):
    model_ckpt, tagger_ckpt = tmp_path / "m.tdtx", tmp_path / "t.tdtx"
    cfg = desk_config()
    assert cfg.pooling_mode != "ada"
    save_model(Model(cfg, seed=0), model_ckpt)
    tagger = Tagger(cfg, seed=0)
    write_checkpoint(tagger_ckpt, "tagger", tagger.config.to_dict(), tagger.params)
    code, out, err = run(capsys, "eval", "--ckpt", str(model_ckpt), "--tagger", str(tagger_ckpt),
                         "--n-instances", "1", "--n-tokens", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: a tagger weights ada pooling")


def test_bench_csv_output(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--N-list", "64", "--w", "8",
        "--variants", "full,local-only", "--trials", "3", "--format", "csv",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("variant,N,w,M,score_evals")
    assert len(lines) == 3


def test_bench_exits_3_when_a_count_disagrees_with_the_budget(monkeypatch, capsys):
    from tdt import bench

    monkeypatch.setattr(bench, "encode_score_budget", lambda cfg, n: 0)
    code, out, err = run(capsys, "bench", "--N-list", "16", "--w", "8", "--variants", "full")
    assert (code, out) == (3, "")
    assert "full/N=16: counter" in err and "disagrees with budget" in err


def test_bench_on_an_empty_grid_exits_2(capsys):
    code, out, err = run(capsys, "bench", "--N-list", "", "--w", "8")
    assert (code, out) == (2, "")
    assert err.strip() == "error: bench grid must be non-empty"


def test_generate_takes_one_source_flag(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.tdtx"
    save_model(Model(desk_config(), seed=0), ckpt)
    doc = tmp_path / "ids.txt"
    doc.write_text("3 4\n")
    argv = ("generate", "--ckpt", str(ckpt), "--max-len", "2")
    assert run(capsys, *argv, "--source", "3,4")[0] == 0
    assert run(capsys, *argv, "--source-file", str(doc))[0] == 0
    code, out, err = run(capsys, *argv, "--source", "3,4", "--source-file", str(doc))
    assert (code, out) == (2, "")
    assert "argument --source-file: not allowed with argument --source" in err


@pytest.mark.parametrize(
    "command, ids",
    [("generate", ""), ("generate", "3,4,999"), ("tag", "3 4 999\n"), ("tag", "3 4\n\n")],
    ids=["generate-empty", "generate-id", "tag-id", "tag-empty"],
)
def test_usage_errors_exit_2(tmp_path, capsys, command, ids):
    ckpt = tmp_path / "ckpt.tdtx"
    if command == "generate":
        save_model(Model(desk_config(), seed=0), ckpt)
        argv = ("generate", "--ckpt", str(ckpt), "--source", ids)
    else:
        tagger = Tagger(desk_config(), seed=0)
        write_checkpoint(ckpt, "tagger", tagger.config.to_dict(), tagger.params)
        doc = tmp_path / "ids.txt"
        doc.write_text(ids)
        argv = ("tag", "--mode", "run", "--ckpt", str(ckpt), "--doc", str(doc))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command", ["generate-source", "generate-file", "tag", "bench"]
)
def test_non_integer_ids_exit_2_naming_token(tmp_path, capsys, command):
    ckpt = tmp_path / "ckpt.tdtx"
    doc = tmp_path / "ids.txt"
    doc.write_text("3 x 4\n")
    if command == "tag":
        tagger = Tagger(desk_config(), seed=0)
        write_checkpoint(ckpt, "tagger", tagger.config.to_dict(), tagger.params)
        argv = ("tag", "--mode", "run", "--ckpt", str(ckpt), "--doc", str(doc))
    elif command == "bench":
        argv = ("bench", "--N-list", "64,x", "--w", "8")
    else:
        save_model(Model(desk_config(), seed=0), ckpt)
        argv = ("generate", "--ckpt", str(ckpt))
        argv += ("--source", "3,x") if command == "generate-source" else ("--source-file", str(doc))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "'x'" in err


def test_eval_missing_checkpoint_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--ckpt", "/nonexistent.tdtx", "--task", "copy")
    assert code == 2
    assert "nonexistent" in err


def test_generate_on_corrupted_extent_exits_3(tmp_path, capsys):
    path = tmp_path / "m.tdtx"
    save_model(Model(desk_config(), seed=0), path)
    blob = bytearray(path.read_bytes())
    _, extent_at = first_param_offsets(blob)
    blob[extent_at : extent_at + 8] = (2**63).to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    code, _, err = run(capsys, "generate", "--ckpt", str(path), "--source", "3,4,5")
    assert code == 3
    assert "truncated" in err


# the last two are retired fields, now unknown
@pytest.mark.parametrize("text", ['{"d_model": "x"}', '{"d_model": true}', "[1, 2]",
                                  '{"ffn_mult": 4}', '{"tie_output": true}'])
def test_wrong_typed_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "train", "--config", str(cfg), "--steps", "1")
    assert code == 2
    assert err.startswith("error:")


# the last two build tables numpy refuses before allocating (ValueError, MemoryError)
@pytest.mark.parametrize("bad", [{"d_model": "x"}, {"n_heads": 3}, {"vocab_size": 2**70},
                                 {"d_model": 2**40, "n_heads": 1}],
                         ids=["wrong-type", "indivisible", "unsizable", "unallocatable"])
def test_malformed_checkpoint_config_exits_3(tmp_path, capsys, bad):
    cfg = desk_config()
    assert cfg.d_model == 64
    header = {**cfg.to_dict(), **bad}
    model_ckpt, tagger_ckpt = tmp_path / "m.tdtx", tmp_path / "t.tdtx"
    write_checkpoint(model_ckpt, "model", header, Model(cfg, seed=0).params)
    write_checkpoint(tagger_ckpt, "tagger", header, Tagger(cfg, seed=0).params)
    doc = tmp_path / "ids.txt"
    doc.write_text("3 4 5\n")
    for argv in (("generate", "--ckpt", str(model_ckpt), "--source", "3,4,5"),
                 ("tag", "--mode", "run", "--ckpt", str(tagger_ckpt), "--doc", str(doc))):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "invalid config in header" in err


def test_tagger_checkpoint_with_decoder_layers_in_header_loads(tmp_path, capsys):
    # Taggers used to keep the caller's n_decoder_layers in their header.
    cfg = desk_config()
    tagger = Tagger(cfg, seed=4)
    ckpt = tmp_path / "t.tdtx"
    write_checkpoint(ckpt, "tagger", {**tagger.config.to_dict(), "n_decoder_layers": 2},
                     tagger.params)
    loaded = load_checkpoint(ckpt, "tagger", Tagger)
    np.testing.assert_array_equal(loaded.weights([3, 4, 5, 6]), tagger.weights([3, 4, 5, 6]))
    doc = tmp_path / "ids.txt"
    doc.write_text("3 4 5 6\n")
    code, text, _ = run(capsys, "tag", "--mode", "run", "--ckpt", str(ckpt), "--doc", str(doc))
    assert code == 0
    assert len(text.split()) == 4


@pytest.mark.parametrize("command, flag", [
    ("generate", ("--seed", "3")), ("generate", ("--out", "x")),
    ("eval", ("--config", "c.json")), ("tag", ("--seed", "1")), ("train", ("--format", "csv")),
], ids=["generate-seed", "generate-out", "eval-config", "tag-seed", "train-format"])
def test_a_shared_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, monkeypatch,
                                                            command, flag):
    monkeypatch.chdir(tmp_path)
    save_model(Model(desk_config(), seed=0), "m.tdtx")
    (tmp_path / "c.json").write_text("{}")
    (tmp_path / "doc.txt").write_text("the cat sat\n")
    argv = {
        "generate": ("generate", "--ckpt", "m.tdtx", "--source", "3,4,5", "--max-len", "2"),
        "eval": ("eval", "--ckpt", "m.tdtx", "--n-instances", "1", "--n-tokens", "6"),
        "tag": ("tag", "--mode", "labels", "--doc", "doc.txt", "--ref", "doc.txt"),
        "train": ("train", "--steps", "1", "--n-tokens", "6", "--out", "run"),
    }[command]
    code, _, err = run(capsys, *argv, *flag)
    assert code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    code, _, _ = run(capsys, *argv)  # the same command without the flag runs
    assert code == 0


def test_each_subcommand_takes_only_the_shared_flags_it_reads():
    sub = next(a for a in build_parser()._actions if a.choices and "train" in a.choices)
    shared = {"--config", "--preset", "--seed", "--out", "--format"}
    taken = {
        name: sorted(shared & {o for a in p._actions for o in a.option_strings})
        for name, p in sub.choices.items()
    }
    assert taken == {
        "budget": [],
        "train": ["--config", "--out", "--preset", "--seed"],
        "eval": ["--out", "--seed"],
        "generate": [],
        "tag": ["--out"],
        "train-tagger": ["--config", "--out", "--preset", "--seed"],
        "bench": ["--config", "--format", "--out", "--preset", "--seed"],
        "ablate": ["--config", "--out", "--preset", "--seed"],
    }
    assert sum(map(len, taken.values())) == 20


@pytest.mark.parametrize("w", ["3", "-4"])
def test_budget_with_an_invalid_window_exits_2(capsys, w):
    code, out, err = run(capsys, "budget", "--N", "9", "--w", w, "--M", "2")
    assert code == 2
    assert out == "" and "window" in err


@pytest.mark.parametrize("command", ["train", "train-tagger", "ablate"])
def test_keyvalue_on_a_null_window_config_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"window": None}))
    argv = [command, "--config", str(cfg), "--steps", "1", "--n-tokens", "64",
            "--out", str(tmp_path / "out")]
    if command == "train":
        argv += ["--task", "keyvalue"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.strip() == "error: key-value task needs a finite window"
    assert not (tmp_path / "out").exists()


# A source id or a length past 64 bits: no numpy integer holds it.
OVERFLOW = "99999999999999999999"


def test_budget_of_a_length_no_array_could_hold_is_exact(capsys):
    n = int(OVERFLOW)
    code, out, err = run(capsys, "budget", "--N", OVERFLOW, "--w", "4", "--M", "1")
    assert code == 0 and err == ""
    assert out.strip() == f"local={5 * n - 6} segment=1 cross={n}"


def test_a_source_id_past_64_bits_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "model.tdtx"
    save_model(Model(desk_config(), seed=0), ckpt)
    code, out, err = run(capsys, "generate", "--ckpt", str(ckpt), "--source", OVERFLOW)
    assert code == 2 and out == ""
    assert err == "error: source ids must be integers, got dtype object\n"


# -----------------------------------------------------------------------------
# argv mutations: junk in the value of one flag at a time
# -----------------------------------------------------------------------------

# The bound on every case's wall time, set before the first run.
ARGV_CASE_SECONDS = 1.0
# Junk values; "{missing}" and "{dir}" stand for a missing path and a directory.
ARGV_JUNK = ("x", "", "1.5", "-1", "nan", "3,,x", "{missing}", "{dir}")
# Drawn junk is made of these characters: no nonzero digit, so no drawn value
# asks for a positive count of steps, trials or instances.
ARGV_ALPHABET = "0-.,xe"


def _fast_argvs(root) -> list:
    """One argv per subcommand (two for generate's sources and for tag's
    modes), run from ``root``, that exits 0 fast: a d_model 8 model, and
    --steps 0 where the subcommand trains. Each flag takes one value."""
    fields = dict(vocab_size=64, d_model=8, n_heads=2, n_bottom_up=1, n_segment_layers=1,
                  n_top_down=1, n_decoder_layers=1, window=4, kernel_size=4, stride=2,
                  max_positions=32)
    (root / "cfg.json").write_text(json.dumps(fields))
    cfg = desk_config(**fields)
    save_model(Model(cfg, seed=0), root / "model.tdtx")
    tagger = Tagger(cfg, seed=0)
    write_checkpoint(root / "tagger.tdtx", "tagger", tagger.config.to_dict(), tagger.params)
    for name, text in (("ids.txt", "3 4 5\n"), ("doc.txt", "a b c\n"), ("ref.txt", "b c\n"),
                       ("stop.txt", "a\n"), ("vocab.txt", "<pad>\n<bos>\n<eos>\na\nb\nc\n")):
        (root / name).write_text(text)
    shared = ["--config", "cfg.json", "--preset", "desk", "--seed", "0"]
    return [
        ["budget", "--N", "9", "--w", "4", "--M", "2"],
        ["train", *shared, "--out", "run", "--task", "copy", "--steps", "0", "--n-tokens", "6",
         "--lr", "0.001", "--batch-size", "2"],
        ["eval", "--seed", "0", "--out", "eval.json", "--ckpt", "model.tdtx", "--task", "copy",
         "--n-instances", "1", "--n-tokens", "6", "--strategy", "greedy", "--beam", "1"],
        ["generate", "--ckpt", "model.tdtx", "--source", "3,4,5", "--max-len", "2",
         "--strategy", "greedy", "--beam", "1"],
        ["generate", "--ckpt", "model.tdtx", "--source-file", "ids.txt", "--max-len", "2"],
        ["tag", "--out", "tags.txt", "--mode", "labels", "--doc", "doc.txt", "--ref", "ref.txt",
         "--stopwords", "stop.txt"],
        ["tag", "--out", "weights.txt", "--mode", "run", "--doc", "doc.txt",
         "--ckpt", "tagger.tdtx", "--vocab", "vocab.txt"],
        ["train-tagger", *shared, "--out", "tagger2.tdtx", "--steps", "0", "--n-tokens", "32"],
        ["bench", *shared, "--out", "bench.json", "--format", "json", "--N-list", "8",
         "--w", "4", "--variants", "topdown-cross", "--trials", "3"],
        ["ablate", *shared, "--out", "ablate.json", "--seeds", "3", "--windows", "4",
         "--steps", "0", "--n-tokens", "32"],
    ]


def test_junk_in_any_flag_exits_0_2_or_3_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TDT_SEED", raising=False)
    bases = _fast_argvs(tmp_path)
    for argv in bases:
        assert run_cli(argv) == 0, argv
    capsys.readouterr()
    paths = {"{missing}": str(tmp_path / "missing" / "none"), "{dir}": str(tmp_path)}
    rng = RngStream(14).split("argv")
    cases = [["budget", "--N", OVERFLOW, "--w", "4", "--M", "1"],
             ["generate", "--ckpt", "model.tdtx", "--source", OVERFLOW]]
    for b, argv in enumerate(bases):
        for i in range(2, len(argv), 2):  # the value of each flag
            draw = rng.split(f"{b}/{i}")
            drawn = ["".join(ARGV_ALPHABET[k] for k in
                             draw.randint(0, len(ARGV_ALPHABET), draw.choice_int(1, 5)))
                     for _ in range(2)]
            for token in ARGV_JUNK + tuple(drawn):
                cases.append(argv[:i] + [paths.get(token, token)] + argv[i + 1:])
    for argv in cases:
        start = time.perf_counter()
        try:
            code = run_cli(argv)
        except Exception as exc:  # the process would exit 1 with a traceback
            pytest.fail(f"{argv} raised {exc!r}")
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, code, err)
        assert elapsed <= ARGV_CASE_SECONDS, (argv, elapsed)
        if code:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
            assert "Traceback" not in err, argv
