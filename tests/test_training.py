"""Training loop contract, evaluation accounting, tagger plumbing."""

import numpy as np
import pytest

from tdt import (
    ConfigError,
    Model,
    NumericsError,
    RngStream,
    Tape,
    UsageError,
    backward,
    desk_config,
    gen_copy_task,
    gen_keyvalue_task,
    recording,
    zero_grads,
)
from tdt.checkpoint import load_checkpoint, write_checkpoint
from tdt.model import EOS_ID
from tdt.tasks import TaskInstance
from tdt.training import (
    Tagger,
    batch_loss,
    eval_accuracy,
    head_accuracy,
    train,
    train_tagger,
)


def _copy_fn(cfg, n=10):
    return lambda rng: gen_copy_task(rng, (n, n), cfg.vocab_size)


def test_zero_steps_leaves_model_unchanged():
    cfg = desk_config()
    m = Model(cfg, seed=1)
    before = {k: p.value.data.copy() for k, p in m.params.items()}
    report = train(m, _copy_fn(cfg), steps=0, seed=0)
    assert report.losses == []
    for k, p in m.params.items():
        np.testing.assert_array_equal(p.value.data, before[k])


def test_identical_seeds_identical_reports_and_params():
    cfg = desk_config()

    def run():
        m = Model(cfg, seed=2)
        rep = train(m, _copy_fn(cfg, 6), steps=6, seed=11, batch_size=4, val_size=4)
        return rep, {k: p.value.data.copy() for k, p in m.params.items()}

    rep_a, params_a = run()
    rep_b, params_b = run()
    assert rep_a.to_dict() == rep_b.to_dict()
    for k in params_a:
        np.testing.assert_array_equal(params_a[k], params_b[k])


def test_loss_decreases_on_copy_task():
    cfg = desk_config()
    m = Model(cfg, seed=3)
    rep = train(m, _copy_fn(cfg, 8), steps=60, seed=5, val_size=4)
    first = np.mean(rep.losses[:10])
    last = np.mean(rep.losses[-10:])
    assert last < first - 0.5


def test_batched_loss_equals_sequential_mean_and_grads():
    cfg = desk_config(pooling_mode="oracle_ada", topdown_mode="cross")
    m = Model(cfg, seed=3)
    fn = lambda rng: gen_keyvalue_task(rng, 64, 8, 2, cfg.vocab_size)
    batch = [fn(RngStream(0).split(f"i/{j}")) for j in range(4)]

    zero_grads(m.parameters())
    seq_total = 0.0
    for inst in batch:
        tape = Tape()
        loss = batch_loss(m, [inst], tape, loss_scale=0.25)
        backward(loss, tape)
        seq_total += loss.item()
    seq_grads = {n: p.grad.copy() for n, p in m.params.items()}

    zero_grads(m.parameters())
    tape = Tape()
    loss_b = batch_loss(m, batch, tape)
    backward(loss_b, tape)
    assert abs(seq_total - loss_b.item()) < 1e-12
    worst = max(np.max(np.abs(seq_grads[n] - p.grad)) for n, p in m.params.items())
    assert worst < 1e-10


def test_abort_restores_last_good_state():
    cfg = desk_config()
    m = Model(cfg, seed=4)
    before = {k: p.value.data.copy() for k, p in m.params.items()}
    calls = {"n": 0}

    def poisoned(rng):
        calls["n"] += 1
        if calls["n"] > 12:
            raise NumericsError("synthetic non-finite loss")
        return gen_copy_task(rng, (6, 6), cfg.vocab_size)

    report = train(m, poisoned, steps=50, seed=6, batch_size=4, val_size=2)
    assert report.aborted
    for k, p in m.params.items():
        assert np.all(np.isfinite(p.value.data))
    # aborted before the first eval: parameters restored to the start
    np.testing.assert_array_equal(m.params["embed.token"].value.data, before["embed.token"])


class _StubModel:
    """Fixed-output generator for accounting tests."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.config = desk_config()
        self.calls = 0

    def generate(self, source, max_len, strategy="greedy", beam_size=1, **kw):
        out = self.outputs[self.calls % len(self.outputs)]
        self.calls += 1
        return list(out)


def test_eval_accuracy_exact_match_accounting():
    instances = [
        TaskInstance(source=[3], target=[5, 6]),
        TaskInstance(source=[3], target=[7, 8]),
    ]
    stub = _StubModel([[5, 6, EOS_ID], [7, 9]])
    metrics = eval_accuracy(stub, instances)
    # first: both tokens right (trailing eos stripped); second: one of two
    assert metrics["token_acc"] == 0.75
    assert metrics["seq_acc"] == 0.5


def test_eval_accuracy_order_invariant():
    instances = [
        TaskInstance(source=[3], target=[5]),
        TaskInstance(source=[3], target=[6]),
        TaskInstance(source=[3], target=[7]),
    ]
    a = eval_accuracy(_StubModel([[5], [6], [9]]), instances)
    b = eval_accuracy(_StubModel([[6], [9], [5]]), instances[1:] + instances[:1])
    assert a == b


def test_eval_accuracy_empty_set_raises():
    with pytest.raises(ConfigError):
        eval_accuracy(_StubModel([[1]]), [])


def test_untrained_model_at_or_below_chance_on_keyvalue():
    cfg = desk_config()
    m = Model(cfg, seed=7)
    fn = lambda rng: gen_keyvalue_task(rng, 64, 8, 2, cfg.vocab_size)
    rng = RngStream(88)
    instances = [fn(rng.split(i)) for i in range(160)]
    acc = eval_accuracy(m, instances)["token_acc"]
    # chance is 1/16; allow three binomial standard deviations upward
    sd = (0.0625 * 0.9375 / 160) ** 0.5
    assert acc <= 0.0625 + 3 * sd


def test_missing_labels_for_oracle_mode_raises():
    cfg = desk_config(pooling_mode="oracle_ada")
    m = Model(cfg, seed=8)
    inst = TaskInstance(source=[3, 4, 5], target=[5])
    with pytest.raises(ConfigError):
        batch_loss(m, [inst])


def test_train_refuses_ada_before_drawing():
    cfg = desk_config(pooling_mode="ada")
    m = Model(cfg, seed=9)

    def never(rng):
        raise AssertionError("train drew an instance")

    with pytest.raises(ConfigError, match="tagger weights.*oracle_ada"):
        train(m, never, steps=2, seed=0)


def test_ada_eval_requires_tagger():
    cfg = desk_config(pooling_mode="ada")
    m = Model(cfg, seed=9)
    inst = TaskInstance(source=[3, 4, 5], target=[5], labels=[0, 0, 1])
    with pytest.raises(ConfigError):
        eval_accuracy(m, [inst])


# -----------------------------------------------------------------------------
# tagger
# -----------------------------------------------------------------------------


def test_tagger_weights_shape_and_determinism():
    cfg = desk_config()
    t1 = Tagger(cfg, seed=5)
    t2 = Tagger(cfg, seed=5)
    ids = RngStream(1).randint(3, cfg.vocab_size, 20)
    w1, w2 = t1.weights(ids), t2.weights(ids)
    assert w1.shape == (20,)
    np.testing.assert_array_equal(w1, w2)


def test_tagger_forces_average_pooling_for_its_own_encoder(tmp_path):
    doc = ([3, 4, 5, 6], [0, 1, 0, 1])
    t, _ = train_tagger(desk_config(pooling_mode="oracle_ada"), lambda rng: doc, steps=1, seed=0)
    assert t.config.pooling_mode == "avg"
    write_checkpoint(tmp_path / "t.tdtx", "tagger", t.config.to_dict(), t.params)
    loaded = load_checkpoint(tmp_path / "t.tdtx", "tagger", Tagger)
    assert loaded.config.pooling_mode == "avg"
    np.testing.assert_array_equal(loaded.weights(doc[0]), t.weights(doc[0]))


def test_tagger_builds_no_decoder_layers():
    t = Tagger(desk_config(), seed=0)
    assert t.encoder.decoder == []
    assert "embed.pos_dec" not in t.encoder.params
    assert set(t.params) == set(t.encoder.params) | {"tagger.head.w", "tagger.head.b"}


@pytest.mark.parametrize("width", [0, -1])
def test_a_head_of_no_outputs_is_refused(width):
    with pytest.raises(ConfigError, match="width"):
        Tagger(desk_config(), seed=0, width=width)


def test_head_accuracy_refuses_items_with_no_target_position():
    items = [([3, 4, 5, 6], [-1, -1, -1, -1], None)] * 2
    with pytest.raises(UsageError, match="no target position"):
        head_accuracy(Tagger(desk_config(), seed=0, width=4), items)


def test_tagger_all_zero_labels_drives_loss_down():
    # constant data, all-zero labels: probabilities drift toward zero and the
    # binary cross-entropy falls below 0.1 well within 1000 steps
    cfg = desk_config()
    doc = RngStream(2).randint(3, cfg.vocab_size, 16)

    def doc_fn(rng):
        return doc, np.zeros(16, dtype=np.int64)

    tagger, report = train_tagger(cfg, doc_fn, steps=250, seed=3)
    assert min(report.losses) < 0.1


def test_an_aborted_tagger_keeps_the_parameters_of_its_last_completed_step():
    cfg = desk_config()

    def doc_fn(rng):
        inst = gen_keyvalue_task(rng, 64, 8, 2, cfg.vocab_size)
        return inst.source, inst.labels

    # lr 1e200: step 1 completes, step 2's forward on its update overflows
    tagger, report = train_tagger(cfg, doc_fn, steps=4, seed=5, lr=1e200)
    assert report.aborted and len(report.losses) == 1
    assert np.all(np.isfinite(tagger.weights(doc_fn(RngStream(0))[0])))
    initial = Tagger(cfg, seed=5)  # what step 1's forward ran on
    for name, p in tagger.params.items():
        np.testing.assert_array_equal(p.value.data, initial.params[name].value.data)


@pytest.mark.parametrize("labels", [[-1, -1, 1, 0], [0, 2, 1, 0]], ids=["minus-one", "two"])
def test_tagger_refuses_labels_other_than_zero_and_one(labels):
    # a -1 was skipped as padding: the step trained on fewer positions
    with pytest.raises(UsageError, match="tagger labels must be 0 or 1"):
        train_tagger(desk_config(), lambda rng: ([3, 4, 5, 6], labels), steps=1, seed=0)


def test_tagger_weights_feed_weighted_pooling_directly():
    from tdt import Tensor, pool_weighted, SegmentationSpec

    cfg = desk_config()
    tagger = Tagger(cfg, seed=6)
    ids = RngStream(3).randint(3, cfg.vocab_size, 20)
    w = tagger.weights(ids)
    e = RngStream(4).normal((20, 8))
    out = pool_weighted(Tensor(e), w, SegmentationSpec(8, 6))
    assert np.all(np.isfinite(out.data))


# -----------------------------------------------------------------------------
# every parameter is read
# -----------------------------------------------------------------------------


def _unread(params: dict, tape) -> list[str]:
    read = {id(x) for entry in tape.entries for x in entry.inputs}
    return [name for name, p in params.items() if id(p) not in read]


@pytest.mark.parametrize("mode", ["cross", "concat", "none"])
@pytest.mark.parametrize("tie", [True, False])
def test_loss_and_tagger_read_every_parameter(mode, tie):
    cfg = desk_config(topdown_mode=mode, tie_output=tie)
    m = Model(cfg, seed=1)
    batch = [gen_copy_task(RngStream(j), (12, 12), cfg.vocab_size) for j in range(2)]
    tape = Tape()
    batch_loss(m, batch, tape)
    assert _unread(m.params, tape) == []
    tagger = Tagger(cfg, seed=1)
    tape = Tape()
    with recording(tape):
        tagger.logits(RngStream(2).randint(3, cfg.vocab_size, 12))
    assert _unread(tagger.params, tape) == []
