"""Bench: multi-shard fault storms + elastic resharding, gated.

Three contracts ride ``BENCH_scale.json``:

* **standard scale** (the acceptance configuration) — ``repro run storm``
  at K=8 simultaneous shard faults on 128 shards / 1M sessions must keep
  cluster availability ≥ 0.999 with the healthy-shard median at 1.0, and
  the elastic arm must migrate sessions with zero loss (population
  conservation) while strictly beating the static arm on failed
  requests — all inside wall/RSS budgets;
* **determinism** — same seed ⇒ same outcome payload including the storm
  schedule and the reshard/migration plans, run to run and jobs=1 vs
  jobs=2 (checked at smoke scale);
* **throughput** — the smoke run carries the standing 10% regression
  gate against the recorded baseline.

``REPRO_BENCH_GATE=0`` disables the gates; ``REPRO_BENCH_REBASELINE=1``
re-records the baseline.
"""

import time

from benchmarks import benchfile
from benchmarks.benchfile import MAX_REGRESSION, rss_mib, total_requests
from repro.experiments import storm

#: Budgets for the three-arm standard run (measured ≈160 s / ≈80 MiB on a
#: 1-core sandbox; generous multiples so only complexity regressions trip).
STANDARD_WALL_BUDGET_S = 480.0
STANDARD_RSS_BUDGET_MIB = 768.0
#: The acceptance gates (ISSUE 9): cluster availability under the storm,
#: and the untouched shards' median.
MIN_STORM_AVAILABILITY = 0.999
HEALTHY_MEDIAN = 1.0


def test_storm_standard_scale_acceptance():
    """K=8 storm at 1M sessions: containment + elastic-beats-static."""
    started = time.perf_counter()
    _result, outcomes = storm.run(seed=0, scale="standard", jobs=1)
    wall = time.perf_counter() - started
    rss = rss_mib()

    static, elastic = outcomes["storm"], outcomes["storm+elastic"]
    for arm, o in outcomes.items():
        assert o["sessions"] == 1_000_000, arm
        assert o["population"] == o["sessions"], (
            f"{arm}: session population not conserved"
        )
    assert outcomes["steady"]["failed_requests"] == 0

    # Containment under the storm (static capacity).
    assert static["availability"] >= MIN_STORM_AVAILABILITY
    assert static["storm"]["healthy_median"] == HEALTHY_MEDIAN
    assert len(static["storm"]["shards"]) == 8
    assert static["recovery_actions"] > 0

    # The elastic arm: zero-loss migration, strictly fewer failures.
    assert elastic["availability"] >= MIN_STORM_AVAILABILITY
    assert elastic["storm"]["healthy_median"] == HEALTHY_MEDIAN
    reshard = elastic["reshard"]
    assert reshard["sessions_migrated"] > 0
    assert reshard["in_transit_at_end"] == 0
    assert len(reshard["replacements"]) > 0
    assert elastic["failed_requests"] < static["failed_requests"], (
        "scale-out during the storm must beat static capacity"
    )

    requests = total_requests(outcomes)
    payload = {
        "sessions": static["sessions"],
        "shards": static["shards"],
        "k_shards": len(static["storm"]["shards"]),
        "arms": len(outcomes),
        "requests": requests,
        "requests_per_sec": round(requests / wall),
        "wall_s": round(wall, 1),
        "wall_budget_s": STANDARD_WALL_BUDGET_S,
        "peak_rss_mib": round(rss, 1),
        "rss_budget_mib": STANDARD_RSS_BUDGET_MIB,
        "availability_storm": static["availability"],
        "availability_elastic": elastic["availability"],
        "failed_requests_storm": static["failed_requests"],
        "failed_requests_elastic": elastic["failed_requests"],
        "healthy_median_storm": static["storm"]["healthy_median"],
        "sessions_migrated": reshard["sessions_migrated"],
        "replacements": len(reshard["replacements"]),
    }
    benchfile.record("scale", payload, "storm")
    print(f"\nstorm standard: {payload}")

    if benchfile.gate_enabled():
        assert wall <= STANDARD_WALL_BUDGET_S, (
            f"storm standard took {wall:.1f}s "
            f"(budget {STANDARD_WALL_BUDGET_S:.0f}s)"
        )
        assert rss <= STANDARD_RSS_BUDGET_MIB, (
            f"storm standard peaked at {rss:.0f} MiB "
            f"(budget {STANDARD_RSS_BUDGET_MIB:.0f} MiB)"
        )


def test_storm_smoke_determinism_and_regression():
    """Schedules, plans and payloads: same seed ⇒ same bytes; jobs agree."""
    recorded = benchfile.recorded("scale", "storm_smoke")

    started = time.perf_counter()
    result_a, outcomes_a = storm.run(seed=0, scale="smoke", jobs=1)
    wall = time.perf_counter() - started
    result_b, outcomes_b = storm.run(seed=0, scale="smoke", jobs=1)
    _result_p, outcomes_p = storm.run(seed=0, scale="smoke", jobs=2)

    assert outcomes_a == outcomes_b, "same seed must give the same payload"
    assert outcomes_a == outcomes_p, "jobs=1 and jobs=2 must agree exactly"
    assert result_a.rows == result_b.rows
    assert result_a.notes[:-1] == result_b.notes[:-1]

    # The payload equality above already covers these; spelled out so a
    # failure names the drifting artifact directly.
    assert (
        outcomes_a["storm"]["storm"]["schedule"]
        == outcomes_p["storm"]["storm"]["schedule"]
    )
    assert (
        outcomes_a["storm+elastic"]["reshard"]["plans"]
        == outcomes_p["storm+elastic"]["reshard"]["plans"]
    )
    # The smoke storm still clears the acceptance bars.
    assert outcomes_a["storm"]["availability"] >= MIN_STORM_AVAILABILITY
    assert (
        outcomes_a["storm+elastic"]["failed_requests"]
        < outcomes_a["storm"]["failed_requests"]
    )

    requests = total_requests(outcomes_a)
    throughput = round(requests / wall)
    payload = {
        "sessions": outcomes_a["steady"]["sessions"],
        "shards": outcomes_a["steady"]["shards"],
        "requests": requests,
        "requests_per_sec": throughput,
        "wall_s": round(wall, 2),
        "availability_storm": outcomes_a["storm"]["availability"],
        "availability_elastic": outcomes_a["storm+elastic"]["availability"],
        "sessions_migrated": (
            outcomes_a["storm+elastic"]["reshard"]["sessions_migrated"]
        ),
    }
    benchfile.record("scale", payload, "storm_smoke")
    print(f"\nstorm smoke: {payload}")

    gate = benchfile.gate_enabled()
    if gate and recorded and recorded.get("requests_per_sec"):
        floor = (1 - MAX_REGRESSION) * recorded["requests_per_sec"]
        assert throughput >= floor, (
            f"storm smoke throughput regressed: {throughput} requests/sec "
            f"vs recorded {recorded['requests_per_sec']} "
            f"(>{100 * MAX_REGRESSION:.0f}% drop)"
        )
