"""Bit-identity digest of the model's observable outputs.

Prints one sha256 over, for each top-down mode (``cross`` and ``none``):
encoder outputs (unbatched and batched), decode logits, the logits of a
cached greedy decode step by step and of a cached step after
``DecodeCache.select``, greedy and beam-3 generations, the batch loss and
every gradient, and ``save_model`` bytes;
then one 2048-token encode of the ``encode_long`` shape, a 15-step training
run, and the tagger's weights, training losses and checkpoint bytes. Two trees
that print the same digest compute the same bits. Run against a tree with

    PYTHONPATH=<tree>/src python tests/digest.py

The file name keeps pytest from collecting it. It uses only long-standing
public API, so it runs on older trees too.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from tdt import (
    BOS_ID,
    Model,
    RngStream,
    Tape,
    Tensor,
    backward,
    desk_config,
    gen_copy_task,
    gen_keyvalue_task,
    save_model,
    train,
    train_tagger,
    zero_grads,
)
from tdt.checkpoint import write_checkpoint
from tdt.model import DecodeCache
from tdt.tasks import TaskInstance
from tdt.training import batch_loss

_H = hashlib.sha256()


def feed(label: str, x) -> None:
    a = np.ascontiguousarray(np.asarray(x))
    _H.update(f"{label}:{a.dtype.str}:{a.shape};".encode())
    _H.update(a.tobytes())


def feed_file(label: str, write) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt.tdtx")
        write(path)
        with open(path, "rb") as fh:
            _H.update(f"{label};".encode())
            _H.update(fh.read())


def feed_params(label: str, params: dict) -> None:
    for name in sorted(params):
        feed(f"{label}/{name}", params[name].value.data)


def cached_logits(tag: str, m: Model, enc, prefix) -> None:
    """Logits of cached decode steps: a greedy decode of 8 tokens on the
    first row of ``enc``, then ``prefix``'s first 3 positions for both rows
    followed by one step after selecting rows [1, 0, 1]."""
    cache = DecodeCache(m.config.n_decoder_layers)
    first, tok = Tensor(enc.data[:1]), BOS_ID
    for t in range(8):
        logits = m.decode([[tok]], first, cache=cache).data
        feed(f"{tag}/cached_greedy/{t}", logits)
        tok = int(logits[0, -1].argmax())
    cache = DecodeCache(m.config.n_decoder_layers)
    feed(f"{tag}/cached_prefix", m.decode(prefix[:, :3], enc, cache=cache).data)
    cache.select([1, 0, 1])
    feed(f"{tag}/cached_select", m.decode(prefix[[1, 0, 1], 3:], Tensor(enc.data[[1, 0, 1]]),
                                          cache=cache).data)


def model_outputs() -> None:
    ids = RngStream(11).randint(3, 64, 2 * 24).reshape(2, 24)
    src = ids[0].tolist()
    prefix = np.array([[1, 5, 9, 13], [1, 6, 10, 14]])
    labels = np.zeros((2, 24), dtype=np.int64)
    labels[:, [2, 17]] = 1
    for tag in ("cross", "none"):
        m = Model(desk_config(topdown_mode=tag), seed=3)
        feed(f"{tag}/encode1", m.encode(ids[0]).data)
        enc = m.encode(ids)
        feed(f"{tag}/encode2", enc.data)
        feed(f"{tag}/decode", m.decode(prefix, enc).data)
        cached_logits(tag, m, enc, prefix)
        feed(f"{tag}/greedy", m.generate(src, max_len=8))
        feed(f"{tag}/beam3", m.generate(src, max_len=8, strategy="beam", beam_size=3))
        insts = [TaskInstance(list(r), list(r[:6])) for r in ids]
        tape = Tape()
        loss = batch_loss(m, insts, tape)
        backward(loss, tape)
        feed(f"{tag}/loss", loss.data)
        for name, p in m.params.items():
            feed(f"{tag}/grad/{name}", p.grad)
        zero_grads(m.parameters())
        feed_file(f"{tag}/ckpt", lambda path: save_model(m, path))
    m = Model(desk_config(pooling_mode="oracle_ada"), seed=4)
    feed("oracle_ada/encode", m.encode(ids, labels=labels).data)
    m = Model(desk_config(pooling_mode="ada"), seed=4)
    feed("ada/encode", m.encode(ids[0], weights=np.linspace(-1.0, 1.0, 24)).data)


def long_encode() -> None:
    n = 2048
    cfg = desk_config(window=32, kernel_size=32, stride=24, max_positions=n, topdown_mode="cross")
    ids = RngStream(5).randint(3, cfg.vocab_size, n)
    feed("long/encode", Model(cfg, seed=0).encode(ids).data)


def train_run() -> None:
    m = Model(desk_config(), seed=2)
    report = train(m, lambda rng: gen_copy_task(rng, (4, 8), 64), steps=15, seed=2,
                   batch_size=4, val_size=4)
    feed("train/losses", report.losses)
    feed("train/metrics", [report.final_metrics["token_acc"], report.final_metrics["seq_acc"]])
    feed("train/best_step", -1 if report.best_step is None else report.best_step)
    feed_params("train/params", m.params)


def tagger_run() -> None:
    cfg = desk_config()

    def doc_fn(rng):
        inst = gen_keyvalue_task(rng, 64, cfg.window, cfg.n_bottom_up, cfg.vocab_size)
        return inst.source, inst.labels

    tagger, report = train_tagger(cfg, doc_fn, steps=3, seed=6, batch_size=2)
    feed("tagger/losses", report.losses)
    feed_params("tagger/params", tagger.params)
    feed_file("tagger/ckpt", lambda path: write_checkpoint(
        path, "tagger", tagger.config.to_dict(), tagger.params))


def compute() -> str:
    """The digest of the tree that ``tdt`` is imported from."""
    global _H
    _H = hashlib.sha256()
    model_outputs()
    long_encode()
    train_run()
    tagger_run()
    return _H.hexdigest()


def main() -> None:
    print(compute())


if __name__ == "__main__":
    main()
