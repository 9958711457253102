"""Bench: cost of the observability layer on the chaos-campaign scenario.

Two configurations of the same smoke-sized chaos run are timed:

* ``traced`` — the TraceBus enabled but nothing subscribed: every event is
  published and ring-buffered, none is stitched.  This is the baseline the
  observability layer's cost is measured against.
* ``observed`` — the same run with the :class:`IncidentTracker` and
  :class:`SloEngine` attached (the ``repro run chaos`` default).

Both configurations publish the *same* event stream (the tracker and the
SLO engine are passive subscribers; they schedule nothing), so the honest
cost metric is event throughput: events/second through the bus must not
drop more than 10% when observability is attached.  Because the metric is
a ratio of two interleaved runs on the same machine, it is stable across
hosts in a way raw wall-clock is not.

The measured numbers are recorded in the ``overhead`` section of
``BENCH_observability.json`` (the ``cluster`` section belongs to
``benchmarks/test_cluster_observability.py``).  ``REPRO_BENCH_GATE=0``
disables the gate; ``REPRO_BENCH_REBASELINE=1`` re-records baselines.
"""

import json
import time

from benchmarks import benchfile
from repro.experiments.chaos import ChaosClusterRig
from repro.faults.chaos import ChaosSpec

ROUNDS = 3
SEED = 0
N_NODES = 2
CLIENTS_PER_NODE = 20
TAIL = 40.0
#: Events/sec with observability attached must stay within 10% of the
#: publish-only throughput.
MAX_OVERHEAD = 0.10

def timed_run(observability):
    rig = ChaosClusterRig(
        seed=SEED,
        n_nodes=N_NODES,
        clients_per_node=CLIENTS_PER_NODE,
        hardened=True,
        spec=ChaosSpec.smoke(),
        observability=observability,
    )
    if not observability:
        # The baseline pays for publishing the identical event stream,
        # just with no subscribers stitching it.
        rig.kernel.trace.enabled = True
    started = time.perf_counter()
    outcome = rig.run(tail=TAIL)
    elapsed = time.perf_counter() - started
    return elapsed, rig.kernel.trace.published, outcome


def test_observability_overhead_under_budget():
    timed_run(False)  # warm-up: imports and allocator caches
    times = {"traced": [], "observed": []}
    events = {"traced": 0, "observed": 0}
    outcomes = {}
    for _ in range(ROUNDS):
        for config, enabled in (("traced", False), ("observed", True)):
            elapsed, published, outcome = timed_run(enabled)
            times[config].append(elapsed)
            events[config] += published
            outcomes[config] = outcome

    # Passivity: attaching the tracker + SLO engine must not change what
    # the simulation *does* — same requests, same recoveries, same event
    # stream — only what it reports.
    for key in ("good_requests", "failed_requests", "recovery_actions"):
        assert outcomes["observed"][key] == outcomes["traced"][key], (
            f"observability perturbed the run: {key} differs "
            f"({outcomes['observed'][key]} vs {outcomes['traced'][key]})"
        )
    assert events["observed"] >= events["traced"]  # only adds slo.violated

    # And it must actually observe something on a chaos run.
    assert outcomes["observed"]["incidents"]["count"] > 0
    assert outcomes["observed"]["slo"]["windows"] > 0

    best = {config: min(series) for config, series in times.items()}
    per_run = {config: events[config] / ROUNDS for config in events}
    events_per_sec = {
        config: per_run[config] / best[config] for config in best
    }
    overhead = events_per_sec["traced"] / events_per_sec["observed"] - 1

    report = {
        "scenario": "chaos-smoke-hardened",
        "n_nodes": N_NODES,
        "clients_per_node": CLIENTS_PER_NODE,
        "rounds": ROUNDS,
        "traced_s": round(best["traced"], 4),
        "observed_s": round(best["observed"], 4),
        "events_per_run": int(per_run["observed"]),
        "traced_events_per_sec": round(events_per_sec["traced"]),
        "observed_events_per_sec": round(events_per_sec["observed"]),
        "overhead_pct": round(100 * overhead, 2),
        "incidents": outcomes["observed"]["incidents"]["count"],
        "slo_windows": outcomes["observed"]["slo"]["windows"],
        "slo_violations": outcomes["observed"]["slo"]["violations"],
    }
    benchfile.record("observability", report, "overhead")
    print("\n" + json.dumps(report, indent=2))

    if not benchfile.gate_enabled():
        return

    assert overhead < MAX_OVERHEAD, (
        f"observability dropped event throughput by {100 * overhead:.1f}% "
        f"(budget {100 * MAX_OVERHEAD:.0f}%): "
        f"{events_per_sec['observed']:.0f}/s observed vs "
        f"{events_per_sec['traced']:.0f}/s publish-only"
    )
