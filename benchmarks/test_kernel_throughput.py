"""Bench: raw kernel hot-loop throughput, new kernel vs the pre-PR one.

Two pure-kernel workloads (no eBid, no telemetry) exercise the paths every
campaign spends its wall-clock in:

* ``timeouts`` — the dominant plain-delay case: many processes sleeping on
  ``kernel.timeout`` in a drain-the-queue ``run()``;
* ``queue`` — event succeed/fail wake-ups through a FIFO mailbox,
  the synchronization shape of request handling.

Each workload runs against the live ``repro.sim`` AND against
``benchmarks/legacy_sim.py`` (a frozen copy of the seed kernel) in the
same interpreter.  Comparing the two inside one run makes the speedup gate
machine-independent — both sides always see the same hardware — so the
≥25% improvement contract survives CI runner roulette.

A second, recorded-baseline gate guards against *future* regressions: when
the committed ``BENCH_kernel.json`` was measured on comparable hardware
(its legacy number within 25% of this run's), current events/sec must not
drop more than 10% below the recorded figure.  ``REPRO_BENCH_GATE=0``
disables both gates; ``REPRO_BENCH_REBASELINE=1`` re-records.
"""

import json
import time

from benchmarks import benchfile, legacy_sim
from repro.sim.kernel import Kernel
from repro.sim.resources import Queue

ROUNDS = 5
TIMEOUT_PROCS, TIMEOUT_ROUNDS = 200, 500
QUEUE_PAIRS, QUEUE_ROUNDS = 50, 400

#: The tentpole contract: ≥25% more events/sec than the pre-PR kernel.
MIN_IMPROVEMENT = 0.25
#: The recorded baseline only binds when it came from comparable hardware.
MACHINE_TOLERANCE = 0.25


def bench_timeouts(kernel_factory):
    """(elapsed seconds, events processed) for the plain-delay workload."""
    kernel = kernel_factory()

    def proc(i):
        delay = 0.5 + (i % 7) * 0.25
        for _ in range(TIMEOUT_ROUNDS):
            yield kernel.timeout(delay)

    for i in range(TIMEOUT_PROCS):
        kernel.process(proc(i))
    started = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - started
    # start event + timeouts + completion event, per process
    return elapsed, TIMEOUT_PROCS * (TIMEOUT_ROUNDS + 2)


def bench_queue(kernel_factory, queue_factory):
    """(elapsed, events) for the succeed/wake mailbox workload."""
    kernel = kernel_factory()

    def producer(mailbox):
        for n in range(QUEUE_ROUNDS):
            mailbox.put(n)
            yield kernel.timeout(1.0)

    def consumer(mailbox):
        for _ in range(QUEUE_ROUNDS):
            yield mailbox.get()

    for _ in range(QUEUE_PAIRS):
        mailbox = queue_factory(kernel)
        kernel.process(producer(mailbox))
        kernel.process(consumer(mailbox))
    started = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - started
    # per pair: 2 starts + timeouts + gets + 2 completions
    return elapsed, QUEUE_PAIRS * (2 * QUEUE_ROUNDS + 4)


def measure(kernel_factory, queue_factory):
    """Best-of-ROUNDS events/sec per workload, plus the aggregate."""
    best = {}
    for name, runner in (
        ("timeouts", lambda: bench_timeouts(kernel_factory)),
        ("queue", lambda: bench_queue(kernel_factory, queue_factory)),
    ):
        samples = [runner() for _ in range(ROUNDS)]
        elapsed, events = min(samples)  # least-noise round
        best[name] = {"elapsed_s": elapsed, "events": events}
    total_events = sum(w["events"] for w in best.values())
    total_s = sum(w["elapsed_s"] for w in best.values())
    return {
        "workloads": {
            name: round(w["events"] / w["elapsed_s"])
            for name, w in best.items()
        },
        "events_per_sec": round(total_events / total_s),
    }


def test_kernel_throughput_vs_pre_pr_kernel():
    recorded = benchfile.recorded("kernel", "kernel")
    current = measure(Kernel, Queue)
    legacy = measure(legacy_sim.Kernel, legacy_sim.Queue)
    improvement = current["events_per_sec"] / legacy["events_per_sec"] - 1

    payload = {
        "rounds": ROUNDS,
        "workloads": {
            name: {
                "events_per_sec": current["workloads"][name],
                "legacy_events_per_sec": legacy["workloads"][name],
            }
            for name in current["workloads"]
        },
        "events_per_sec": current["events_per_sec"],
        "legacy_events_per_sec": legacy["events_per_sec"],
        "improvement_pct": round(100 * improvement, 1),
    }
    benchfile.record("kernel", payload, "kernel")
    print("\n" + json.dumps(payload, indent=2))

    if not benchfile.gate_enabled():
        return

    assert improvement >= MIN_IMPROVEMENT, (
        f"kernel is only {100 * improvement:.1f}% faster than the pre-PR "
        f"implementation (contract: ≥{100 * MIN_IMPROVEMENT:.0f}%)"
    )

    if recorded and "legacy_events_per_sec" in recorded:
        machine_drift = abs(
            legacy["events_per_sec"] / recorded["legacy_events_per_sec"] - 1
        )
        if machine_drift <= MACHINE_TOLERANCE:
            floor = (1 - benchfile.MAX_REGRESSION) * recorded["events_per_sec"]
            assert current["events_per_sec"] >= floor, (
                f"kernel throughput regressed: {current['events_per_sec']} "
                f"events/sec vs recorded baseline "
                f"{recorded['events_per_sec']} (>10% drop)"
            )
