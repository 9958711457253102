"""Bench: wall-clock cost of the telemetry layer on the Figure 1 scenario.

Three configurations of the same scaled-down Figure 1 microreboot run are
timed:

* ``plain`` — tracing and spans disabled (the default).  Instrumentation
  publishes unconditionally and the bus/collector no-op, so no events
  exist afterwards; this run pins the *disabled-mode* overhead budget.
* ``spans`` — the causal span layer enabled (per-request call trees
  feeding a PathAnalyzer), TraceBus still off.
* ``traced`` — the TraceBus enabled, spans off.

Wall-clock comparisons are noisy, so each configuration is timed several
times interleaved and the best (least-noise) time per configuration is
compared.  The measured numbers are written to ``BENCH_telemetry.json`` at
the repository root so the perf trajectory is tracked across PRs.
"""

import json
import time

from benchmarks import benchfile
from repro.experiments.figure1 import run_one_policy
from repro.telemetry import set_default_spans, set_default_tracing
from repro.telemetry.trace import begin_capture, end_capture

ROUNDS = 5
N_CLIENTS = 60
FAULT_TIMES = (60.0, 120.0, 180.0)
DURATION = 240.0
MAX_OVERHEAD = 0.10


def timed_run(traced=False, spans=False):
    previous_trace = set_default_tracing(traced)
    previous_spans = set_default_spans(spans)
    scope = begin_capture()
    started = time.perf_counter()
    try:
        run_one_policy("microreboot", 0, N_CLIENTS, FAULT_TIMES, DURATION)
    finally:
        elapsed = time.perf_counter() - started
        set_default_tracing(previous_trace)
        set_default_spans(previous_spans)
        end_capture(scope)
    return elapsed, sum(bus.published for bus in scope)


def test_telemetry_overhead_under_budget():
    timed_run()  # warm up imports, JIT-less but caches still matter
    times = {"plain": [], "spans": [], "traced": []}
    events = {"plain": 0, "spans": 0, "traced": 0}
    for _ in range(ROUNDS):
        for config, kwargs in (
            ("plain", {}),
            ("spans", {"spans": True}),
            ("traced", {"traced": True}),
        ):
            elapsed, published = timed_run(**kwargs)
            times[config].append(elapsed)
            events[config] += published

    # Disabled telemetry records nothing at all; enabled records plenty.
    assert events["plain"] == 0
    assert events["traced"] > 0

    best = {config: min(series) for config, series in times.items()}
    trace_overhead = best["traced"] / best["plain"] - 1
    span_overhead = best["spans"] / best["plain"] - 1
    events_per_sec = events["traced"] / ROUNDS / best["traced"]

    report = {
        "scenario": "figure1-microreboot",
        "n_clients": N_CLIENTS,
        "sim_duration_s": DURATION,
        "rounds": ROUNDS,
        "plain_s": round(best["plain"], 4),
        "traced_s": round(best["traced"], 4),
        "spans_s": round(best["spans"], 4),
        "trace_overhead_pct": round(100 * trace_overhead, 2),
        "span_overhead_pct": round(100 * span_overhead, 2),
        "events_per_run": events["traced"] // ROUNDS,
        "events_per_sec": round(events_per_sec),
    }
    benchfile.record("telemetry", report)
    print("\n" + json.dumps(report, indent=2))

    assert trace_overhead < MAX_OVERHEAD, (
        f"tracing added {100 * trace_overhead:.1f}% wall-clock overhead "
        f"(budget {100 * MAX_OVERHEAD:.0f}%)"
    )
    # The span layer does strictly more bookkeeping per request than the
    # bus (object per component call), so its enabled budget is looser —
    # what must stay tight is the *disabled* path, covered by "plain"
    # being the baseline every overhead above is measured against.
    assert span_overhead < 2 * MAX_OVERHEAD, (
        f"spans added {100 * span_overhead:.1f}% wall-clock overhead "
        f"(budget {100 * 2 * MAX_OVERHEAD:.0f}%)"
    )
