"""End-to-end and per-layer benchmark of the tdt encoder-decoder.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload encode_long --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop with one client
and one BLAS thread, checks every output, prints each metric by name with its
unit, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time,
latency percentiles, throughput and peak RSS. ``--trace 1`` reports its
per-layer metrics instead: it alternates traced and untraced requests (the
difference is the tracing overhead), takes each layer's self time from the
traced ones, runs two more requests under ``tracemalloc`` to compare the
tensor tracker's peak with it, and writes the spans to ``.perfbench/``.

The exit code is 0 only when every request and set-up probe passed its
checks. The benchmark imports ``tdt`` from ``src/`` of the checkout it sits
in and fails without printing a result when that is missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5  # set-ups per run; setup_s takes their median
MEMORY_PROBES = 2  # requests measured under tracemalloc in the traced run


def set_up(workload_cls, seed, tracer, out_dir, trace):
    """Build the workload SETUPS times; keep the last. Returns it, the
    set-up times and the outcomes (failure or None) of its checks."""
    times, outcomes = [], []
    for k in range(SETUPS):
        wl = workload_cls(seed, tracer, out_dir)
        t0 = time.perf_counter()
        with tracer.recording(f"setup/{k}") if trace else nullcontext():
            outcomes += wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, times, outcomes


def timed_requests(wl, tracer, seconds, trace):
    """The closed loop. With ``trace`` every odd request is recorded."""
    from workloads import attempt

    count = wl.request_count(seconds)
    deadline = time.perf_counter() + seconds
    lat, traced, failures, tokens = [], [], [], 0
    i = 0
    while (i < count) if count is not None else (i < 2 or time.perf_counter() < deadline):
        recorded = trace and i % 2 == 1
        with tracer.recording(i) if recorded else nullcontext():
            inp = wl.prepare(i)
            seconds_i, failure = attempt(wl, inp)
        lat.append(seconds_i)
        traced.append(recorded)
        tokens += wl.tokens(inp)
        if failure:
            failures.append(f"request {i}: {failure}")
        i += 1
    return lat, traced, failures, tokens


def memory_probe(wl):
    """Peak bytes above the level at request start, by the tensor tracker
    and by tracemalloc, over MEMORY_PROBES requests."""
    import tdt
    from workloads import attempt

    tracked = traced = 0
    failures = []
    for k in range(MEMORY_PROBES):
        inp = wl.prepare(f"memory/{k}")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            live = tdt.live_bytes()
            tdt.reset_peak()
            _, failure = attempt(wl, inp)
            traced = max(traced, tracemalloc.get_traced_memory()[1] - base)
            tracked = max(tracked, tdt.peak_bytes() - live)
        finally:
            tracemalloc.stop()
        if failure:
            failures.append(f"memory probe {k}: {failure}")
    return tracked / 1e6, traced / 1e6, failures


def end_to_end(lat, tokens, setup_s):
    """The bounded metrics, and the unbounded figures printed beside them.

    On a shared machine a request's wall time moves between a fast and a
    slow level as other tenants load the host, and the share of time spent
    at each level changes from run to run. p90 sits at the slow level and
    repeats between runs; the median and the mean (hence tokens/s) fall
    between the levels and drift with that share, and the fastest request
    drifts with the host's load over minutes, so those are printed but not
    bounded.
    """
    ms = sorted(x * 1e3 for x in lat)
    metrics = {
        "setup_s": setup_s,
        "latency_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    printed = [
        ("latency_ms_p50", statistics.median(ms), "ms"),
        ("latency_ms_min", ms[0], "ms"),
        ("tokens_per_s", tokens / sum(lat), "1/s"),
        ("requests", len(ms), "count"),
    ]
    return metrics, printed


def per_layer(wl, tracer, lat, traced, memory):
    """Per-request medians over the recorded requests; and the failures of
    the per-stage score budgets."""
    ids = [i for i, t in enumerate(traced) if t]
    rows = [tracer.layers(i) for i in ids]
    setups = [tracer.layers(f"setup/{k}") for k in range(SETUPS)]

    def med(rows, span, field):
        return statistics.median(r[span][field] if span in r else 0 for r in rows)

    budgets = wl.stage_budgets()
    stages = {"bottom_up": "model.encode_bottom_up", "segment": "model.encode_segments",
              "top_down": "model.encode_top_down"}
    failures = [
        f"request {i}: {stage} score_evals {r[span]['score_evals']} != {budgets[stage]}"
        for i, r in zip(ids, rows)
        for stage, span in stages.items()
        if span not in r or r[span]["score_evals"] != budgets[stage]
    ]
    untraced_ms = statistics.median(x for x, t in zip(lat, traced) if not t)
    traced_ms = statistics.median(x for x, t in zip(lat, traced) if t)
    metrics = {
        "model.embed_ms": med(rows, "model.embed", "self_ms"),
        "model.encode_bottom_up_ms": med(rows, "model.encode_bottom_up", "self_ms"),
        "model.encode_segments_ms": med(rows, "model.encode_segments", "self_ms"),
        "model.encode_top_down_ms": med(rows, "model.encode_top_down", "self_ms"),
        "model.generate_ms": med(rows, "model.generate", "self_ms"),
        "model.decode_ms": med(rows, "model.decode", "self_ms"),
        "model.decode_calls": med(rows, "model.decode", "calls"),
        "model.decode_prefix_tokens": med(rows, "model.decode", "prefix_tokens"),
        "attention.bottom_up_score_evals": med(rows, "model.encode_bottom_up", "score_evals"),
        "attention.segment_score_evals": med(rows, "model.encode_segments", "score_evals"),
        "attention.top_down_score_evals": med(rows, "model.encode_top_down", "score_evals"),
        "training.batch_loss_ms": med(rows, "training.batch_loss", "self_ms"),
        "tensor.backward_ms": med(rows, "tensor.backward", "self_ms"),
        "tensor.tape_entries": med(rows, "tensor.backward", "tape_entries"),
        "optim.adam_step_ms": med(rows, "optim.adam_step", "self_ms"),
        "tasks.batch_gen_ms": med(rows, "tasks.gen_keyvalue_task", "self_ms"),
        "tensor.tracked_peak_mb": memory[0],
        "tensor.tracemalloc_peak_mb": memory[1],
        "checkpoint.load_ms": med(setups, "checkpoint.load_model", "self_ms"),
        "trace.overhead_pct": (traced_ms / untraced_ms - 1.0) * 100.0,
    }
    return metrics, failures


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    src = ROOT / "src"
    if not (src / "tdt" / "__init__.py").is_file():
        print(f"perfbench: no tdt package under {src}", file=sys.stderr)
        return 2
    # One client, one BLAS thread: on a small shared machine a second BLAS
    # thread adds contention noise and a slow first call.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace = bool(args.trace)
    tracer = Tracer()
    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))

    wl, setup_times, outcomes = set_up(WORKLOADS[args.workload], args.seed, tracer, out_dir, trace)
    failures = [f"set-up: {f}" for f in outcomes if f]
    lat, traced, request_failures, tokens = timed_requests(wl, tracer, args.seconds, trace)
    failures += request_failures
    attempted = len(outcomes) + len(lat)
    printed = []
    if trace:
        tracked_mb, tracemalloc_mb, probe_failures = memory_probe(wl)
        failures += probe_failures
        attempted += MEMORY_PROBES
        metrics, budget_failures = per_layer(wl, tracer, lat, traced, (tracked_mb, tracemalloc_mb))
        failures += budget_failures
        section = "per_layer"
        stem = out_dir / f"trace-{args.workload}-seed{args.seed}"
        meta = {"workload": args.workload, "seed": args.seed, "env": env}
        tracer.write(f"{stem}.json", f"{stem}.chrome.json", meta)
        print(f"# spans written to {stem}.json and {stem}.chrome.json")
        print(f"# tracker peak {tracked_mb:.3f} MB vs tracemalloc peak {tracemalloc_mb:.3f} MB:"
              f" {tracemalloc_mb - tracked_mb:.3f} MB of numpy temporaries and other"
              " allocations are not tracked")
    else:
        setup_s = import_s + statistics.median(setup_times)
        print(f"# setup_s = imports {import_s:.3f} s + median of set-ups "
              f"[{', '.join(f'{t:.3f}' for t in setup_times)}] s")
        metrics, printed = end_to_end(lat, tokens, setup_s)
        section = "end_to_end"

    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match {section} in BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:34s} {value:16.4f} {units[name]}")
    print(f"{args.workload:16s} {'failed_ratio':34s} {len(failures) / max(1, attempted):16.4f}"
          f" ({len(failures)} of {attempted})")
    for name, value, unit in printed + wl.notes():
        print(f"{args.workload:16s} {name:34s} {value:16.4f} {unit} (not bounded)")
    for failure in failures:
        print(f"# FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
