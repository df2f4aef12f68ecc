"""Banded local attention vs dense full attention, on three axes:

1. equivalence: with the band mask applied, the blocked implementation gives
   the same numbers as dense masked attention;
2. exact counting: the OpCounter matches the closed-form budget;
3. memory: tracked peak allocation of a full encoder pass stays far below the
   full-attention baseline at the same length.
"""

import gc

import numpy as np

import tdt
from tdt import (
    MaskSpec,
    Model,
    OpCounter,
    Parameter,
    RngStream,
    Tensor,
    build_mask,
    desk_config,
    encode_score_budget,
    multi_head_attention,
)
from tdt.attention import init_attention_params

rng = RngStream(0)
d, heads, n, w = 32, 4, 24, 8
x = Tensor(rng.normal((n, d)))
params = init_attention_params(rng.split("p"), d, "demo")
ln = (Parameter("demo.ln.gain", np.ones(d)), Parameter("demo.ln.bias", np.zeros(d)))

local = multi_head_attention(x, None, params, ln, heads, MaskSpec.band(w))
dense = multi_head_attention(x, None, params, ln, heads, build_mask(MaskSpec.band(w), n, n))
print(f"banded vs dense-masked, max abs diff: {np.abs(local.data - dense.data).max():.2e}")

counter = OpCounter()
multi_head_attention(x, None, params, ln, heads, MaskSpec.band(w), counter)
print(f"counter: {counter.score_evals}  (budget: {heads * tdt.band_popcount(n, w)})")

print("\nPeak tracked allocation of one encoder forward at N=1024, d=64:")
cfg = desk_config(max_positions=1024, kernel_size=32, stride=24, window=64)
ids = RngStream(7).randint(3, cfg.vocab_size, 1024)
for label, conf in [
    ("topdown-cross, w=64", cfg),
    ("full attention     ", desk_config(max_positions=1024, window=None, topdown_mode="none")),
]:
    model = Model(conf, seed=0)
    gc.collect()
    base = tdt.reset_peak()
    model.encode(ids)
    peak = tdt.peak_bytes() - base
    print(f"    {label}: {peak / 1e6:7.1f} MB above the resident parameters")
    del model
