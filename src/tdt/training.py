"""Training loops, encoder heads, and evaluation.

``train`` fits a seq2seq model and ``train_head`` an encoder with a linear
head (the importance tagger, the key-value probe); both run one optimizer
loop (``_steps``). Everything is bit-reproducible for a given (seed,
config): batches come from counter-based streams keyed by step and batch
index, each batch is split into groups of same-shape items that run as one
stacked forward (never padded), gradients accumulate across the groups in a
fixed order, and Adam (fixed β1, β2 and ε; only the learning rate is a knob)
takes one step per batch. ``train`` validates on a fixed seed-derived
instance set and restores the best-validation parameter snapshot when it
finishes; a non-finite loss or gradient aborts the run and restores the
last good snapshot.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import ops
from .model import BOS_ID, EOS_ID, PAD_ID, Model, ModelConfig, make_param
from .optim import Adam, check_lr
from .rng import RngStream
from .tensor import (
    ConfigError,
    NumericsError,
    Tape,
    Tensor,
    UsageError,
    backward,
    recording,
)

# Default Adam learning rate of train, of the head trainer train_head and of `tdt train`.
DEFAULT_LR = 1e-3


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    final_metrics: dict = field(default_factory=dict)
    seed: int = 0
    config_hash: str = ""
    steps: int = 0
    best_step: int | None = None
    aborted: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def batch_loss(model: Model, instances, tape: Tape | None = None, loss_scale: float = 1.0):
    """Cross-entropy averaged over a same-shape batch in one stacked forward.

    All instances must share source and target lengths; the value equals the
    mean of the per-instance losses. Under ``oracle_ada`` pooling the
    instances' oracle labels are fed to the encoder; ``ada`` pools with tagger
    weights, which training does not have, so ``train`` refuses it.
    """
    instances = list(instances)
    src = np.array([inst.source for inst in instances], dtype=np.int64)
    dec_in = np.array([[BOS_ID] + list(inst.target) for inst in instances], dtype=np.int64)
    dec_out = np.array([list(inst.target) + [EOS_ID] for inst in instances], dtype=np.int64)
    kwargs = {}
    if model.config.pooling_mode == "oracle_ada":
        if any(inst.labels is None for inst in instances):
            raise ConfigError("pooling_mode=oracle_ada requires instances with oracle labels")
        kwargs["labels"] = np.array([inst.labels for inst in instances], dtype=np.int64)

    with recording(tape) if tape is not None else nullcontext():
        logits = model.decode(dec_in, model.encode(src, **kwargs))
        loss = ops.cross_entropy(logits, dec_out, PAD_ID)
        return loss if loss_scale == 1.0 else ops.scale(loss, loss_scale)


def _check_loop(lr, batch_size, steps) -> None:
    """ConfigError for what no training run accepts, checked before any
    step (also before a run of zero steps): a negative step count, a batch
    size below 1, or a learning rate that is not a positive finite number."""
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    check_lr(lr)


def _steps(params, lr, steps, root, batch_size, item_fn, key, group_loss):
    """The optimizer loop of ``train`` and ``train_head``: yields
    ``(step, summed loss)`` after each of ``steps`` Adam steps.

    Step ``s`` draws ``item_fn(root.split(f"train/{s}/{j}"))`` for ``j`` below
    ``batch_size``, groups the items by ``key(item)`` in first-seen order, and
    records one tape per group holding ``group_loss(group, scale)``, the
    group's mean loss times ``scale = len(group) / batch_size``, so the losses
    sum to the batch mean. A ``NumericsError`` propagates to the caller, and
    the inputs :func:`_check_loop` refuses raise ``ConfigError``.
    """
    _check_loop(lr, batch_size, steps)
    opt = Adam(params, lr)
    for step in range(1, steps + 1):
        # Every op screens its result and raises NumericsError, so numpy's
        # own overflow and invalid-value warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            opt.zero_grads()
            groups: dict = {}
            for j in range(batch_size):
                item = item_fn(root.split(f"train/{step}/{j}"))
                groups.setdefault(key(item), []).append(item)
            total = 0.0
            for group in groups.values():
                tape = Tape()
                with recording(tape):
                    loss = group_loss(group, len(group) / batch_size)
                backward(loss, tape)
                total += loss.item()
            opt.step()
        yield step, total


def _snapshot(model: Model) -> dict[str, np.ndarray]:
    return {name: p.value.data.copy() for name, p in model.params.items()}


def _restore(model: Model, snap: dict[str, np.ndarray]) -> None:
    for name, p in model.params.items():
        p.value.data[...] = snap[name]


def train(
    model: Model,
    task_fn,
    steps: int,
    seed: int,
    lr: float = DEFAULT_LR,
    batch_size: int = 8,
    val_size: int = 32,
) -> TrainReport:
    """Train ``model`` on instances drawn from ``task_fn(rng) -> TaskInstance``.

    Validates every ``max(1, steps // 4)`` steps and after the last, keeps
    the parameter snapshot with the best validation token accuracy, and
    restores it before returning. ``steps == 0`` leaves the model untouched.
    ``pooling_mode="ada"`` is refused: it pools with tagger weights, which
    training does not have.

    The default ``lr`` is ``DEFAULT_LR`` (1e-3), a from-scratch rate: Adam
    moves each coordinate by about ``lr`` per step, and weights start at
    ``init_std = d_model ** -0.5`` (0.125 at d_model=64). In 60 steps a
    weight can move about 0.06 at 1e-3, half its init scale; a
    fine-tuning-scale rate a third as large allows about 0.02, too little
    to train from scratch.
    """
    _check_loop(lr, batch_size, steps)
    if model.config.pooling_mode == "ada":
        raise ConfigError(
            "pooling_mode=ada pools with tagger weights, which training does not "
            "have; train with pooling_mode=oracle_ada"
        )
    report = TrainReport(seed=seed, config_hash=model.config.config_hash(), steps=steps)
    if steps == 0:
        return report
    root = RngStream(seed)
    val_set = [task_fn(root.split(f"val/{j}")) for j in range(val_size)]
    eval_every = max(1, steps // 4)
    best_snap = _snapshot(model)
    best_acc = -1.0
    try:
        for step, loss in _steps(
            model.parameters(), lr, steps, root, batch_size, task_fn,
            key=lambda inst: (len(inst.source), len(inst.target), inst.labels is None),
            group_loss=lambda group, scale: batch_loss(model, group, loss_scale=scale),
        ):
            report.losses.append(loss)
            if step % eval_every == 0 or step == steps:
                metrics = eval_accuracy(model, val_set)
                if metrics["token_acc"] > best_acc:
                    best_acc = metrics["token_acc"]
                    best_snap = _snapshot(model)
                    report.best_step = step
    except NumericsError:
        report.aborted = True
    _restore(model, best_snap)
    report.final_metrics = (
        eval_accuracy(model, val_set) if best_acc >= 0 else {"token_acc": 0.0, "seq_acc": 0.0}
    )
    return report


def eval_accuracy(
    model: Model,
    instances,
    strategy: str = "greedy",
    beam_size: int = 1,
    tagger=None,
) -> dict:
    """Exact-match token and sequence accuracy over a task set.

    Each instance generates up to one token more than its target, and a
    trailing eos is stripped before comparison. The accounting is a plain
    sum of per-instance counts, so it is invariant to evaluation order.
    Adaptive pooling ("ada") pools with a tagger's weights, and a tagger
    for another mode is refused before the first generation; oracle mode
    reads each instance's labels. A missing pooling input is the model's
    ConfigError.
    """
    instances = list(instances)
    if not instances:
        raise ConfigError("eval_accuracy requires a non-empty task set")
    mode = model.config.pooling_mode
    if tagger is not None and mode != "ada":
        raise ConfigError(f"a tagger weights ada pooling, but this model pools with {mode}")
    tok_hits = 0
    tok_total = 0
    seq_hits = 0
    for inst in instances:
        gen = model.generate(
            inst.source, max_len=len(inst.target) + 1, strategy=strategy, beam_size=beam_size,
            weights=None if tagger is None else tagger.weights(inst.source),
            labels=inst.labels if mode == "oracle_ada" else None,
        )
        if gen and gen[-1] == EOS_ID:
            gen = gen[:-1]
        tgt = list(inst.target)
        tok_total += len(tgt)
        tok_hits += sum(1 for a, b in zip(gen, tgt) if a == b)
        seq_hits += int(gen == tgt)
    return {
        "token_acc": tok_hits / max(1, tok_total),
        "seq_acc": seq_hits / len(instances),
    }


# -----------------------------------------------------------------------------
# Encoder heads: the importance tagger and the key-value probe
# -----------------------------------------------------------------------------


class Tagger:
    """An encoder-only :class:`Model` plus a linear head of ``width`` outputs
    at every token; ``params`` is exactly what :meth:`logits` reads. Under
    ``oracle_ada`` the encoder pools with the labels given to :meth:`logits`.
    The importance tagger is the width-1 case, whose raw ``z`` are its pooling
    weights (the per-window softmax does its own normalization). Given
    ``arrays``, the encoder and the head take their values from it as
    :class:`Model` does, popping the entries they use, and the width is that
    of the stored ``tagger.head.b`` (a checkpoint's header does not hold it)."""

    def __init__(self, config: ModelConfig, seed: int = 0, width: int = 1,
                 arrays: dict | None = None):
        stored_b = (arrays or {}).get("tagger.head.b")
        if stored_b is not None and stored_b.ndim == 1:
            width = stored_b.shape[0]
        if width < 1:
            raise ConfigError(f"a head needs width >= 1, got {width}")
        self.config = config = replace(config, n_decoder_layers=0)
        self.encoder = Model(config, seed=seed, arrays=arrays)
        rng = RngStream(seed).split("tagger")
        self.head_w = make_param("tagger.head.w", (config.d_model, width),
                                 lambda s: rng.split("w").normal(s, std=0.02), arrays)
        self.head_b = make_param("tagger.head.b", (width,), np.zeros, arrays)
        self.params = {**self.encoder.params, "tagger.head.w": self.head_w,
                       "tagger.head.b": self.head_b}

    def logits(self, token_ids, labels=None) -> Tensor:
        """Class logits [..., N, C] at every token: the ``width`` outputs, or
        for width 1 the two classes [0, z]."""
        oracle = self.config.pooling_mode == "oracle_ada"
        enc = self.encoder.encode(token_ids, labels=labels if oracle else None)
        z = ops.linear(enc, self.head_w, self.head_b)
        return z if z.shape[-1] > 1 else ops.concat([Tensor(np.zeros(z.shape)), z], axis=-1)

    def weights(self, token_ids) -> np.ndarray:
        """The width-1 head's ``z`` per token: the pooling weights ``ada`` reads.
        A wider head has no such weights and raises ``UsageError``."""
        if self.head_b.shape != (1,):
            raise UsageError(f"weights needs a width-1 head, not width {self.head_b.shape[0]}")
        return self.logits(token_ids).data[..., 1].copy()


def _columns(items) -> list:
    """Same-length ``(token_ids, targets, labels)`` items as three arrays."""
    return [None if col[0] is None else np.array(col, dtype=np.int64) for col in zip(*items)]


def train_head(head: Tagger, item_fn, steps: int, seed: int, lr: float = DEFAULT_LR,
               batch_size: int = 8) -> TrainReport:
    """Fit ``head`` on ``item_fn(rng) -> (token_ids, targets, labels)`` items
    with one cross-entropy over its logits at every token whose target is
    not -1; ``labels`` are what ``oracle_ada`` pools with, or None. A
    non-finite value aborts the run and restores the parameters the last
    completed step's forward ran on, whose loss is the last one reported.
    """
    report = TrainReport(seed=seed, config_hash=head.config.config_hash(), steps=steps)

    def group_loss(group, scale):
        ids, targets, labels = _columns(group)
        return ops.scale(ops.cross_entropy(head.logits(ids, labels), targets, pad_id=-1), scale)

    # the parameters of the last completed step's forward, and the current ones
    snaps = [_snapshot(head)] * 2
    try:
        # the stream's name predates the probe; it keeps tagger runs as they were
        for _, loss in _steps(
            list(head.params.values()), lr, steps, RngStream(seed).split("tagger-train"),
            batch_size, item_fn, key=lambda item: len(item[0]), group_loss=group_loss,
        ):
            report.losses.append(loss)
            snaps = [snaps[1], _snapshot(head)]
    except NumericsError:
        report.aborted = True
        _restore(head, snaps[0])
    return report


def head_accuracy(head: Tagger, items) -> float:
    """Top-1 accuracy over the target positions of same-length items;
    items that hold no target position raise ``UsageError``."""
    ids, targets, labels = _columns(items)
    scored = targets != -1
    if not scored.any():
        raise UsageError("head_accuracy: the items hold no target position")
    hits = head.logits(ids, labels).data.argmax(axis=-1) == targets
    return float(hits[scored].mean())


def train_tagger(config: ModelConfig, doc_fn, steps: int, seed: int, lr: float = DEFAULT_LR,
                 batch_size: int = 8) -> tuple[Tagger, TrainReport]:
    """Fit an average-pooling tagger with :func:`train_head` on
    ``doc_fn(rng) -> (token_ids, labels)`` pairs: the two-class
    cross-entropy of logits [0, z], which is softplus(z) - z * y. A label
    other than 0 or 1 raises ``UsageError``.
    """
    tagger = Tagger(replace(config, pooling_mode="avg"), seed=seed)

    def item_fn(rng):
        ids, labels = doc_fn(rng)
        if not np.isin(labels, (0, 1)).all():  # else cross_entropy would skip a -1
            bad = sorted(set(np.ravel(labels).tolist()) - {0, 1})
            raise UsageError(f"tagger labels must be 0 or 1, got {bad}")
        return ids, labels, None

    return tagger, train_head(tagger, item_fn, steps, seed, lr, batch_size)
