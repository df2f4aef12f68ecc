"""The benchmark's workloads. Each is a closed loop with one client.

A workload builds its model in ``setup`` (which also runs the set-up probes
and the warm-up requests), makes one request's input in ``prepare`` outside
the timed region, does the request's work in ``run`` (the timed region) and
checks the output in ``check``. Inputs come only from the seed, so the same
seed gives the same inputs. Every call into ``tdt`` goes through its public
API; the call sites carry the spans of the traced run.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

from tdt import (
    Adam,
    TdtError,
    Model,
    OpCounter,
    RngStream,
    Tape,
    backward,
    desk_config,
    encode_score_budget,
    gen_keyvalue_task,
    load_model,
    save_model,
)
from tdt.training import batch_loss

# No token id is negative, so generation never stops early and every request
# emits exactly ``max_len`` tokens: the work per request stays fixed.
NO_EOS = -1


def source_key(i):
    """Every fourth timed request repeats the source of the request three
    before it, so determinism is checked on every run."""
    return i - 3 if isinstance(i, int) and i % 4 == 3 else i


def attempt(wl, inp):
    """Run one request; return (seconds in ``run``, failure or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except TdtError as exc:
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return seconds, wl.check(inp, out)


def band_pairs(n: int, window: int) -> int:
    """Query-key pairs with |i - j| <= window/2 among n positions, counted
    row by row (independent of the library's own band formula)."""
    half = window // 2
    return sum(min(n - 1, i + half) - max(0, i - half) + 1 for i in range(n))


class Workload:
    name = ""
    n_tokens = 64  # tokens per source sequence
    sequences = 1  # source sequences encoded per request
    warmup = 2  # warm-up requests run in set-up, outside every metric

    def __init__(self, seed: int, tracer, out_dir):
        self.seed = seed
        self.tr = tracer
        self.out_dir = out_dir
        self.cfg = desk_config()
        self._first: dict = {}

    def request_count(self, seconds: float) -> int | None:
        """Fixed number of timed requests, or None to run until time is up."""
        return None

    def build(self) -> None:
        self.model = Model(self.cfg, seed=self.seed)

    def probe(self) -> list[str | None]:
        """Set-up checks beyond the warm-up: one failure or None per check."""
        return []

    def setup(self) -> list[str | None]:
        """Build the model, run the probes and the warm-up requests; return
        one failure or None per check."""
        self.build()
        outcomes = self.probe()
        for k in range(self.warmup):
            outcomes.append(attempt(self, self.prepare(f"warmup/{k}"))[1])
        return outcomes

    def draw(self, key, count: int = 1):
        with self.tr.span("tasks.gen_keyvalue_task"):
            c = self.cfg
            return [
                gen_keyvalue_task(RngStream(self.seed).split(f"{self.name}/{key}/{j}"),
                                  self.n_tokens, c.window, c.n_bottom_up, c.vocab_size)
                for j in range(count)
            ]

    def prepare(self, i):
        key = source_key(i)
        return key, self.draw(key)[0].source

    def notes(self) -> list[tuple]:
        """(name, value, unit) printed beside the metrics, outside the result line."""
        return []

    def same_as_first(self, key, value) -> str | None:
        if self._first.setdefault(key, value) != value:
            return f"source {key} repeated gave a different output"
        return None

    def stage_budgets(self) -> dict[str, int]:
        """Exact score evaluations per request of each encoder stage."""
        c, n = self.cfg, self.n_tokens
        band = band_pairs(n, c.window)
        m = 1 if n <= c.kernel_size else -(-(n - c.kernel_size) // c.stride) + 1
        per = c.n_heads * self.sequences
        return {
            "bottom_up": per * c.n_bottom_up * band,
            "segment": per * c.n_segment_layers * m * m,
            "top_down": per * c.n_top_down * (band + n * m),
        }


class EncodeLong(Workload):
    """One 2048-token encode per request, no tape, a fresh OpCounter."""

    name = "encode_long"
    n_tokens = 2048

    def __init__(self, seed, tracer, out_dir):
        super().__init__(seed, tracer, out_dir)
        self.cfg = desk_config(window=32, kernel_size=32, stride=24,
                               max_positions=self.n_tokens, topdown_mode="cross")
        self.budget = self.cfg.n_heads * encode_score_budget(self.cfg, self.n_tokens)

    def run(self, inp):
        counter = OpCounter()
        return self.model.encode(inp[1], counter), counter

    def check(self, inp, out) -> str | None:
        enc, counter = out
        if counter.score_evals != self.budget:
            return f"score_evals {counter.score_evals} != budget {self.budget}"
        if enc.shape != (self.n_tokens, self.cfg.d_model):
            return f"encoder output shape {enc.shape}"
        return self.same_as_first(inp[0], hashlib.sha256(enc.to_array().tobytes()).digest())

    def tokens(self, inp) -> int:
        return self.n_tokens


class TrainDesk(Workload):
    """One optimizer step per request: the inner loop of ``training.train``."""

    name = "train_desk"
    sequences = 8
    # Steps are counted, not timed, so the last loss is deterministic per seed.
    steps_per_second = 9

    def request_count(self, seconds: float) -> int:
        return max(1, round(seconds * self.steps_per_second))

    def build(self) -> None:
        super().build()
        self.opt = Adam(self.model.parameters(), lr=3e-4)

    def prepare(self, i):
        return i

    def run(self, step) -> float:
        batch = self.draw(step, self.sequences)
        self.opt.zero_grads()
        tape = Tape()
        with self.tr.span("training.batch_loss"):
            loss = batch_loss(self.model, batch, tape)
        with self.tr.span("tensor.backward") as sp:
            backward(loss, tape)
        if sp is not None:
            sp.counts["tape_entries"] = len(tape)
        with self.tr.span("optim.adam_step"):
            self.opt.step()
        return loss.item()

    def check(self, step, loss) -> str | None:
        self.last_loss = loss
        return None if math.isfinite(loss) else f"step {step}: loss {loss}"

    def notes(self) -> list[tuple]:
        return [("final_loss", self.last_loss, "nats")]

    def tokens(self, step) -> int:
        return self.sequences * (self.n_tokens + 1)  # source plus the one-token target


class GenerateGreedy(Workload):
    """Greedy generation of 64 tokens from a 64-token source, on a model
    loaded from a checkpoint as ``tdt generate --ckpt`` does."""

    name = "generate_greedy"
    strategy, beam_size, max_len = "greedy", 1, 64
    warmup = 1

    def build(self) -> None:
        path = self.out_dir / f"desk-{os.getpid()}.tdtx"
        save_model(Model(self.cfg, seed=self.seed), path)
        try:
            with self.tr.span("checkpoint.load_model"):
                self.model = load_model(path)
        finally:
            path.unlink()

    def probe(self) -> list[str | None]:
        src = self.prepare("probe")[1]
        greedy = self.model.generate(src, 16, "greedy", eos_id=NO_EOS)
        beam1 = self.model.generate(src, 16, "beam", beam_size=1, eos_id=NO_EOS)
        return [None if greedy == beam1 else "beam search with beam_size=1 differs from greedy"]

    def run(self, inp) -> list[int]:
        return self.model.generate(inp[1], self.max_len, self.strategy,
                                   beam_size=self.beam_size, eos_id=NO_EOS)

    def check(self, inp, out) -> str | None:
        if len(out) != self.max_len or not all(0 <= t < self.cfg.vocab_size for t in out):
            return f"source {inp[0]}: bad output {out}"
        return self.same_as_first(inp[0], tuple(out))

    def tokens(self, inp) -> int:
        return self.max_len


class GenerateBeam(GenerateGreedy):
    """Beam-4 generation of 32 tokens; otherwise as ``generate_greedy``."""

    name = "generate_beam"
    strategy, beam_size, max_len = "beam", 4, 32


WORKLOADS = {w.name: w for w in (EncodeLong, TrainDesk, GenerateGreedy, GenerateBeam)}
