"""Complexity and memory benchmarks, and the key-value probe ablation.

Each benchmark cell runs one untimed warm-up encoder forward, then one per
trial, and reports three things: the exact number of query-key dot products
(deterministic; a count other than ``n_heads`` times the closed-form
``encode_score_budget`` raises TdtError), the median wall time of the
trials, and ``peak_bytes``: the highest tensor-allocation tracker peak of a
trial above the bytes live when that trial started (the model's parameters
and tables among them), so it counts what one encode allocates. Cells
that exhaust memory are recorded as failed and the sweep continues.

Variants mirror the ablation rows: "full" is unwindowed self-attention with
no segment level, "local-only" drops the top-down update, and
"topdown-cross" is the complete model.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tensor_mod
from .attention import OpCounter
from .model import Model, ModelConfig, encode_score_budget
from .rng import RngStream
from .tasks import N_VALUES, VALUE_BASE, TaskInstance, gen_keyvalue_task
from .tensor import ConfigError, TdtError
from .training import Tagger, head_accuracy, train_head

# variant -> (whether it attends within the sweep's window, top-down mode)
_VARIANTS = {
    "full": (False, "none"),
    "local-only": (True, "none"),
    "topdown-cross": (True, "cross"),
}
VARIANTS = tuple(_VARIANTS)

CSV_COLUMNS = ("variant", "N", "w", "M", "score_evals", "wall_ms_median", "peak_bytes", "seed")


@dataclass
class BenchRecord:
    variant: str
    n_tokens: int
    window: int | None
    n_segments: int
    score_evals: int
    wall_ms_median: float
    peak_bytes: int
    seed: int
    failed: bool = False

    def to_row(self) -> dict:
        return {
            "variant": self.variant,
            "N": self.n_tokens,
            "w": "inf" if self.window is None else self.window,
            "M": self.n_segments,
            "score_evals": self.score_evals,
            "wall_ms_median": self.wall_ms_median,
            "peak_bytes": self.peak_bytes,
            "seed": self.seed,
            "failed": self.failed,
        }


def variant_config(variant: str, window: int | None, base: ModelConfig) -> ModelConfig:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown bench variant {variant!r} (use one of {VARIANTS})")
    windowed, mode = _VARIANTS[variant]
    return replace(base, window=window if windowed else None, topdown_mode=mode)


def bench_cell(
    variant: str,
    n_tokens: int,
    window: int | None,
    base: ModelConfig,
    trials: int = 3,
    seed: int = 0,
) -> BenchRecord:
    """Time and count one encoder configuration at one sequence length.

    One untimed encode runs first, so the trials time a warm model."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    cfg = variant_config(variant, window, base)
    if n_tokens > cfg.max_positions:
        cfg = replace(cfg, max_positions=n_tokens)
    m = cfg.segmentation.n_segments(n_tokens)
    rng = RngStream(seed).split(f"bench/{variant}/{n_tokens}")
    ids = rng.randint(3, cfg.vocab_size, n_tokens)
    try:
        model = Model(cfg, seed=seed)
        model.encode(ids)
        times = []
        evals = 0
        peak = 0
        for _ in range(trials):
            counter = OpCounter()
            live = tensor_mod.reset_peak()
            t0 = time.perf_counter()
            model.encode(ids, counter)
            times.append((time.perf_counter() - t0) * 1000.0)
            evals = counter.score_evals
            peak = max(peak, tensor_mod.peak_bytes() - live)
    except MemoryError:
        return BenchRecord(
            variant=variant, n_tokens=n_tokens, window=window, n_segments=m,
            score_evals=0, wall_ms_median=0.0, peak_bytes=0, seed=seed, failed=True,
        )
    if evals != cfg.n_heads * encode_score_budget(cfg, n_tokens):
        raise TdtError(f"bench cell {variant}/N={n_tokens}: counter {evals} disagrees with budget")
    return BenchRecord(
        variant=variant,
        n_tokens=n_tokens,
        window=cfg.window,
        n_segments=m,
        score_evals=evals,
        wall_ms_median=float(np.median(times)),
        peak_bytes=peak,
        seed=seed,
    )


def bench_sweep(
    n_list,
    window: int,
    variants=VARIANTS,
    trials: int = 3,
    seed: int = 0,
    base: ModelConfig | None = None,
) -> list[BenchRecord]:
    if not n_list or not variants:
        raise ConfigError("bench grid must be non-empty")
    if trials < 3:
        raise ConfigError("timing needs at least 3 trials")
    if base is None:
        base = ModelConfig(kernel_size=32, stride=24, max_positions=max(n_list))
    records = []
    for variant in variants:
        for n in n_list:
            records.append(bench_cell(variant, n, window, base, trials, seed))
    return records


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        row = r.to_row()
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    return json.dumps([r.to_row() for r in records], indent=2) + "\n"


# -----------------------------------------------------------------------------
# Ablation: a key-value probe read at the query position
# -----------------------------------------------------------------------------


def probe_item(inst: TaskInstance) -> tuple:
    """A key-value instance as a head item ``(ids, targets, labels)``: the
    one target is the queried value's index, at the query position (the
    last), and every other position's is -1."""
    targets = [-1] * len(inst.source)
    targets[-1] = inst.target[0] - VALUE_BASE
    return inst.source, targets, inst.labels


def ablate(seeds, windows=(4, 8, 16), base_window: int = 8, steps: int = 600,
           n_tokens: int = 64, n_eval: int = 64, base: ModelConfig | None = None) -> dict:
    """Train a ``N_VALUES``-way encoder probe for cross and none at the base
    window plus cross at each other sweep window (once each) on the
    key-value task; report its accuracy at the query position per
    (variant, pooling, window), seed by seed, beside the chance level.

    The probe reads the encoder alone (the base's decoder fields are
    ignored), so a token beyond the bottom-up receptive field reaches the
    query only through the top-down path. ``none`` pools with ``avg``, the
    others with the base's mode; ``ada`` is refused. Every cell's config
    and evaluation set is built, and so checked, before the first training
    run. Identical seeds reproduce the table bit-identically.
    """
    seeds = list(seeds)
    if len(seeds) < 3:
        raise ConfigError("ablation requires at least 3 seeds")
    if base is None:
        base = ModelConfig()
    grid = [("cross", base_window), ("none", base_window)]
    grid += [("cross", w) for w in dict.fromkeys(windows) if w != base_window]
    configs = [
        replace(base, topdown_mode=variant, window=window,
                pooling_mode="avg" if variant == "none" else base.pooling_mode)
        for variant, window in grid
    ]
    if base.pooling_mode == "ada":
        raise ConfigError("ablate cannot pool with ada: the probe has no tagger weights")

    def task_fn(rng):
        return gen_keyvalue_task(rng, n_tokens, base_window, base.n_bottom_up, base.vocab_size)

    evals = {
        seed: [probe_item(task_fn(RngStream(seed).split(f"ablate-eval/{j}")))
               for j in range(n_eval)]
        for seed in seeds
    }
    rows = []
    for (variant, window), cfg in zip(grid, configs):
        accs = []
        for seed in seeds:
            head = Tagger(cfg, seed=seed, width=N_VALUES)
            train_head(head, lambda rng: probe_item(task_fn(rng)), steps, seed)
            accs.append(head_accuracy(head, evals[seed]))
        rows.append({"variant": variant, "pooling": cfg.pooling_mode, "window": window,
                     "mean_acc": float(np.mean(accs)), "sd_acc": float(np.std(accs)),
                     "per_seed": accs})
    return {"rows": rows, "chance": 1.0 / N_VALUES, "base_window": base_window,
            "steps": steps, "seeds": seeds}
