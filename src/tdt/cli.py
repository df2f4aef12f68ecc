"""Command-line surface.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime error. The
environment variable TDT_SEED, when set, overrides ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attention import count_budget
from .bench import (
    VARIANTS,
    ablate,
    bench_sweep,
    records_to_csv,
    records_to_json,
)
from .checkpoint import load_checkpoint, load_model, save_model, write_checkpoint
from .model import Model, ModelConfig, desk_config, paper_config
from .pooling import DEFAULT_STOPWORDS, build_importance_labels, load_stopwords
from .rng import RngStream
from .tasks import gen_copy_task, gen_keyvalue_task
from .tensor import ConfigError, TdtError, UsageError
from .training import DEFAULT_LR, Tagger, eval_accuracy, train, train_tagger


def _add_common(p: argparse.ArgumentParser, config: bool = True, seed: bool = True,
                fmt: bool = False) -> None:
    """The shared flags a subcommand reads: ``--config`` and ``--preset``
    (the model it builds), ``--seed``, ``--out``, and ``--format``."""
    if config:
        p.add_argument("--config", help="JSON file of ModelConfig fields")
        p.add_argument("--preset", choices=("paper", "desk"), default="desk")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="json")


def _resolve_seed(args) -> int:
    env = os.environ.get("TDT_SEED")
    if env is not None:
        return _ints([env])[0]
    return args.seed


def _load_config(args, **overrides) -> ModelConfig:
    base = paper_config() if args.preset == "paper" else desk_config()
    d = base.to_dict()
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        with open(args.config, encoding="utf-8") as fh:
            try:
                fields = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(fields, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        d.update(fields)
    d.update(overrides)
    return ModelConfig.from_dict(d)


def _emit(args, text: str) -> None:
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _task_fn(name: str, cfg: ModelConfig, n_tokens: int):
    if name == "copy":
        hi = min(n_tokens, cfg.max_positions - 1)  # the decoder reads BOS + target
        return lambda rng: gen_copy_task(rng, (max(1, hi // 2), hi), cfg.vocab_size)
    if name == "keyvalue":
        return lambda rng: gen_keyvalue_task(
            rng, n_tokens, cfg.window, cfg.n_bottom_up, cfg.vocab_size
        )
    raise ConfigError(f"unknown task {name!r} (use copy or keyvalue)")


# -----------------------------------------------------------------------------
# Subcommands
# -----------------------------------------------------------------------------


def _cmd_budget(args) -> int:
    budget = count_budget(args.N, args.w, args.M)
    print(f"local={budget.local} segment={budget.segment} cross={budget.cross}")
    return 0


def _cmd_train(args) -> int:
    seed = _resolve_seed(args)
    cfg = _load_config(args)
    model = Model(cfg, seed=seed)
    fn = _task_fn(args.task, cfg, args.n_tokens)
    report = train(
        model, fn, steps=args.steps, seed=seed, lr=args.lr, batch_size=args.batch_size
    )
    out_dir = "." if args.out is None else args.out
    os.makedirs(out_dir, exist_ok=True)
    ckpt = os.path.join(out_dir, "checkpoint.tdtx")
    save_model(model, ckpt)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    print(json.dumps({"checkpoint": ckpt, "final_metrics": report.final_metrics}))
    return 0


def _cmd_eval(args) -> int:
    seed = _resolve_seed(args)
    model = load_model(args.ckpt)
    cfg = model.config
    fn = _task_fn(args.task, cfg, args.n_tokens)
    rng = RngStream(seed)
    instances = [fn(rng.split(f"eval/{j}")) for j in range(args.n_instances)]
    tagger = None if args.tagger is None else load_checkpoint(args.tagger, "tagger", Tagger)
    metrics = eval_accuracy(
        model, instances, strategy=args.strategy, beam_size=args.beam, tagger=tagger
    )
    _emit(args, json.dumps(metrics, indent=2) + "\n")
    return 0


def _cmd_generate(args) -> int:
    model = load_model(args.ckpt)
    if args.source_file is not None:
        with open(args.source_file, encoding="utf-8") as fh:
            source = _ints(fh.read().split())
    else:
        source = _int_list(args.source)
    out = model.generate(
        source, max_len=args.max_len, strategy=args.strategy, beam_size=args.beam
    )
    print(" ".join(str(t) for t in out))
    return 0


def _read_token_lines(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines()]


# Per tag mode: the flag it needs, then the flag it may take.
_TAG_MODE_FLAGS = {"labels": ("ref", "stopwords"), "run": ("ckpt", "vocab")}


def _cmd_tag(args) -> int:
    for mode, (needed, optional) in _TAG_MODE_FLAGS.items():
        if mode == args.mode and getattr(args, needed) is None:
            raise UsageError(f"tag --mode {mode} needs --{needed}")
        for flag in (needed, optional):
            if mode != args.mode and getattr(args, flag) is not None:
                raise UsageError(f"--{flag} is read by tag --mode {mode} only")
    if args.mode == "labels":
        docs = _read_token_lines(args.doc)
        refs = _read_token_lines(args.ref)
        if len(docs) != len(refs):
            raise ConfigError(
                f"doc file has {len(docs)} lines but ref file has {len(refs)}"
            )
        stop = DEFAULT_STOPWORDS if args.stopwords is None else load_stopwords(args.stopwords)
        lines = []
        for doc, ref in zip(docs, refs):
            labels = build_importance_labels(doc, ref, stop)
            lines.append(" ".join(str(int(v)) for v in labels))
        _emit(args, "\n".join(lines) + "\n")
        return 0
    # mode == "run": emit tagger weights for id sequences
    tagger = load_checkpoint(args.ckpt, "tagger", Tagger)
    vocab = None if args.vocab is None else _load_vocab(args.vocab)
    lines = []
    for toks in _read_token_lines(args.doc):
        if vocab is not None:
            ids = []
            for t in toks:
                if t not in vocab:
                    raise ConfigError(f"token {t!r} not in vocabulary {args.vocab}")
                ids.append(vocab[t])
        else:
            ids = _ints(toks)
        w = tagger.weights(ids)
        lines.append(" ".join(f"{v:.6g}" for v in w))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _load_vocab(path: str) -> dict:
    """One token per line; id = line number."""
    with open(path, encoding="utf-8") as fh:
        return {line.rstrip("\n"): i for i, line in enumerate(fh)}


def _cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    # an empty grid is bench_sweep's ConfigError
    cfg = _load_config(args, window=args.w, max_positions=max(args.N_list, default=1))
    records = bench_sweep(
        args.N_list, args.w, variants=args.variants, trials=args.trials,
        seed=seed, base=cfg,
    )
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    _emit(args, text)
    return 0


def _cmd_ablate(args) -> int:
    seed = _resolve_seed(args)
    cfg = _load_config(args)
    seeds = [seed + i for i in range(args.seeds)]
    table = ablate(
        seeds,
        windows=args.windows,
        base_window=cfg.window,
        steps=args.steps,
        n_tokens=args.n_tokens,
        base=cfg,
    )
    _emit(args, json.dumps(table, indent=2) + "\n")
    return 0


def _cmd_train_tagger(args) -> int:
    seed = _resolve_seed(args)
    cfg = _load_config(args)
    fn = _task_fn("keyvalue", cfg, args.n_tokens)

    def doc_fn(rng):
        inst = fn(rng)
        return inst.source, inst.labels

    tagger, report = train_tagger(cfg, doc_fn, steps=args.steps, seed=seed)
    out = "tagger.tdtx" if args.out is None else args.out
    write_checkpoint(out, "tagger", tagger.config.to_dict(), tagger.params)
    print(json.dumps({"tagger": out, "aborted": report.aborted,
                      "steps_completed": len(report.losses)}))
    return 0


def _ints(tokens) -> list[int]:
    """Parse integer tokens; a token that is not one is a usage error."""
    out = []
    for v in tokens:
        try:
            out.append(int(v))
        except ValueError:
            raise UsageError(f"not an integer: {v!r}") from None
    return out


def _int_list(text: str) -> list[int]:
    return _ints(v for v in text.split(",") if v != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdt", description="hierarchical encoder-decoder toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="print per-head score budgets for one layer of each kind")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.set_defaults(fn=_cmd_budget)

    p = sub.add_parser("train", help="train on a synthetic task")
    _add_common(p)
    p.add_argument("--task", default="copy", choices=("copy", "keyvalue"))
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--n-tokens", type=int, default=24, dest="n_tokens")
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--batch-size", type=int, default=8)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a synthetic task")
    _add_common(p, config=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", default="copy", choices=("copy", "keyvalue"))
    p.add_argument("--n-instances", type=int, default=64, dest="n_instances")
    p.add_argument("--n-tokens", type=int, default=24, dest="n_tokens")
    p.add_argument("--strategy", default="greedy", choices=("greedy", "beam"))
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--tagger", help="tagger checkpoint for ada pooling")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("generate", help="generate from a checkpoint")
    p.add_argument("--ckpt", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--source", default="", help="comma-separated token ids")
    source.add_argument("--source-file", dest="source_file")
    p.add_argument("--max-len", type=int, default=32, dest="max_len")
    p.add_argument("--strategy", default="greedy", choices=("greedy", "beam"))
    p.add_argument("--beam", type=int, default=1)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("tag", help="build importance labels or run a tagger")
    _add_common(p, config=False, seed=False)
    p.add_argument("--mode", choices=("labels", "run"), default="labels")
    p.add_argument("--doc", required=True, help="one whitespace-tokenized document per line")
    p.add_argument("--ref", help="reference summaries, aligned line by line (mode=labels)")
    p.add_argument("--stopwords", help="stopword file, one word per line (mode=labels)")
    p.add_argument("--ckpt", help="tagger checkpoint (mode=run)")
    p.add_argument("--vocab", help="vocabulary file, id = line number (mode=run)")
    p.set_defaults(fn=_cmd_tag)

    p = sub.add_parser("train-tagger", help="train an importance tagger on key-value labels")
    _add_common(p)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--n-tokens", type=int, default=64, dest="n_tokens")
    p.set_defaults(fn=_cmd_train_tagger)

    p = sub.add_parser("bench", help="complexity/memory sweep")
    _add_common(p, fmt=True)
    p.add_argument("--N-list", type=_int_list, default=[128, 256], dest="N_list")
    p.add_argument("--w", type=int, default=32)
    p.add_argument("--variants", type=lambda s: s.split(","), default=list(VARIANTS))
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("ablate", help="variant x window ablation on the key-value task")
    _add_common(p)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--windows", type=_int_list, default=[4, 8, 16])
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--n-tokens", type=int, default=64, dest="n_tokens")
    p.set_defaults(fn=_cmd_ablate)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        # A flag whose type is _int_list can raise UsageError while parsing.
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        # argparse prints usage itself; normalize --help to 0, errors to 2
        return 0 if exc.code == 0 else 2
    except (ConfigError, UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TdtError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
