"""Training loops, tagger training, and exact-match evaluation.

``train`` and ``train_tagger`` share one optimizer loop (``_steps``). Everything
is bit-reproducible for a given (seed, config): batches come from
counter-based streams keyed by step and batch index, each batch is split into
groups of same-shape items that run as one stacked forward (never padded),
gradients accumulate across the groups in a fixed order, and Adam (fixed β1,
β2 and ε; only the learning rate is a knob) takes one step per batch.
``train`` validates on a fixed seed-derived instance set and restores the
best-validation parameter snapshot when it finishes; a non-finite loss or
gradient aborts the run and restores the last good snapshot.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import ops
from .model import BOS_ID, EOS_ID, PAD_ID, Model, ModelConfig
from .optim import Adam
from .rng import RngStream
from .tensor import (
    ConfigError,
    NumericsError,
    Parameter,
    Tape,
    Tensor,
    backward,
    recording,
)

# Default Adam learning rate of train, train_tagger, bench.ablate and `tdt train`.
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


def _steps(params, lr, steps, root, batch_size, item_fn, key, group_loss):
    """The optimizer loop of ``train`` and ``train_tagger``: yields
    ``(step, summed loss)`` after each of ``steps`` Adam steps.

    Step ``s`` draws ``item_fn(root.split(f"train/{s}/{j}"))`` for ``j`` below
    ``batch_size``, groups the items by ``key(item)`` in first-seen order, and
    records one tape per group holding ``group_loss(group, scale)``, the
    group's mean loss times ``scale = len(group) / batch_size``, so the losses
    sum to the batch mean. A ``NumericsError`` propagates to the caller; a
    ``batch_size`` below 1 raises ``ConfigError``, as ``Adam`` does for a
    learning rate that is not a positive finite number.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
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
    if steps < 0:
        raise ConfigError("steps must be >= 0")
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
    Adaptive pooling ("ada") requires a tagger whose logits become the
    pooling weights, and no other mode takes one; oracle mode reads each
    instance's labels.
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
        kwargs = {}
        if mode == "ada":
            if tagger is None:
                raise ConfigError("pooling_mode=ada evaluation requires a tagger")
            kwargs["weights"] = tagger.weights(inst.source)
        elif mode == "oracle_ada":
            if inst.labels is None:
                raise ConfigError("pooling_mode=oracle_ada requires instance labels")
            kwargs["labels"] = inst.labels
        gen = model.generate(
            inst.source, max_len=len(inst.target) + 1, strategy=strategy,
            beam_size=beam_size, **kwargs
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
# Importance tagger
# -----------------------------------------------------------------------------


class Tagger:
    """Encoder plus a per-token scoring head.

    The raw head logits are used directly as pooling weights at evaluation
    time (the per-window softmax does its own normalization). The encoder
    is built with average pooling and no decoder layers, so ``params``, the
    encoder's parameters plus the head, is exactly what :meth:`logits` reads.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        config = replace(config, pooling_mode="avg", n_decoder_layers=0)
        self.config = config
        self.encoder = Model(config, seed=seed)
        rng = RngStream(seed).split("tagger")
        d = config.d_model
        self.head_w = Parameter("tagger.head.w", rng.split("w").normal((d, 1), std=0.02))
        self.head_b = Parameter("tagger.head.b", np.zeros(1))
        self.params = {**self.encoder.params, "tagger.head.w": self.head_w,
                       "tagger.head.b": self.head_b}

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def logits(self, token_ids):
        ids = np.asarray(token_ids, dtype=np.int64)
        enc = self.encoder.encode(ids)
        return ops.reshape(ops.linear(enc, self.head_w, self.head_b), ids.shape)

    def weights(self, token_ids) -> np.ndarray:
        return self.logits(token_ids).data.copy()


def train_tagger(
    config: ModelConfig,
    doc_fn,
    steps: int,
    seed: int,
    lr: float = DEFAULT_LR,
    batch_size: int = 8,
) -> tuple[Tagger, TrainReport]:
    """Fit a tagger on ``doc_fn(rng) -> (token_ids, labels)`` pairs with
    per-token binary cross-entropy: the two-class cross-entropy of logits
    [0, z], which is softplus(z) - z * y.

    A non-finite value aborts the run and restores the parameters the last
    completed step's forward ran on, whose loss is the last one reported.
    """
    tagger = Tagger(config, seed=seed)
    report = TrainReport(seed=seed, config_hash=tagger.config.config_hash(), steps=steps)

    def group_loss(group, scale):
        ids = np.array([ids for ids, _ in group], dtype=np.int64)
        labels = np.array([labels for _, labels in group], dtype=np.int64)
        z = ops.reshape(tagger.logits(ids), ids.shape + (1,))
        two_class = ops.concat([Tensor(np.zeros(z.shape)), z], axis=-1)
        return ops.scale(ops.cross_entropy(two_class, labels, pad_id=-1), scale)

    # the parameters of the last completed step's forward, and the current ones
    snaps = [_snapshot(tagger)] * 2
    try:
        for _, loss in _steps(
            tagger.parameters(), lr, steps, RngStream(seed).split("tagger-train"),
            batch_size, doc_fn, key=lambda doc: len(doc[0]), group_loss=group_loss,
        ):
            report.losses.append(loss)
            snaps = [snaps[1], _snapshot(tagger)]
    except NumericsError:
        report.aborted = True
        _restore(tagger, snaps[0])
    return tagger, report
