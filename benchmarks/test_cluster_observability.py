"""Bench: the cluster observability plane — passive, cheap, correlated.

Three contracts, recorded in the ``cluster`` section of
``BENCH_observability.json``:

* **passivity + determinism** (smoke scale) — a storm+elastic run with
  the plane enabled must produce a byte-identical arm outcome once the
  ``cluster`` section is popped, the plane's own payload must be
  identical run-to-run, and an in-process run must equal a spawned
  worker's (``jobs=2``) — the plane adds observation, never behaviour;
* **overhead** (standard scale) — enabling the plane on the steady
  1M-session / 128-shard arm must cost < 10% wall clock;
* **storm correlation** (standard scale) — the K=8 storm must come back
  as ONE meta-incident covering all eight struck shards, with the
  elastic migrations attributed to it and the cluster MTTR phases
  summing exactly to its span; the run's request throughput carries the
  standing 10% regression gate against the recorded baseline.

``REPRO_BENCH_GATE=0`` disables the gates; ``REPRO_BENCH_REBASELINE=1``
re-records the baseline.
"""

import time

import pytest

from benchmarks import benchfile
from benchmarks.benchfile import MAX_REGRESSION, rss_mib
from repro.experiments.megascale import MegascaleRig
from repro.experiments.storm import StormRig
from repro.faults.chaos import StormSpec
from repro.parallel import TrialSpec, run_campaign

#: Wall-clock cost of the plane on the standard steady arm.
MAX_PLANE_OVERHEAD = 0.10
OVERHEAD_ROUNDS = 2

SMOKE = dict(n_sessions=50_000, n_shards=16, nodes_per_shard=1,
             duration=150.0)
STANDARD = dict(n_sessions=1_000_000, n_shards=128, nodes_per_shard=1,
                duration=240.0)


def _smoke_run(cluster_plane, seed=0):
    rig = StormRig(
        seed=seed, storm=True, elastic=True, storm_spec=StormSpec.smoke(),
        cluster_plane=cluster_plane, **SMOKE,
    )
    return rig.run()


def test_plane_is_passive_and_deterministic_at_smoke_scale():
    """Plane on vs off: same arm outcome.  Same seed: same rollup."""
    with_plane = _smoke_run(True)
    again = _smoke_run(True)
    assert with_plane == again, "same seed must give an identical payload"

    cluster = with_plane.pop("cluster")
    again.pop("cluster")
    without = _smoke_run(False)
    assert "cluster" not in without
    assert with_plane == without, (
        "enabling the cluster plane changed the arm outcome"
    )

    # jobs=2: the spawned-worker path must agree with in-process.
    spec = TrialSpec(
        task="repro.experiments.storm:run_one_arm",
        kwargs={"arm": "storm+elastic", "scale": "smoke",
                "k_shards": 4, "load_skew": 0.0, **SMOKE},
        tag="storm+elastic", seed=0,
    )
    worker = run_campaign([spec], jobs=2)[0].value
    assert worker.pop("arm") == "storm+elastic"
    assert worker.pop("cluster") == cluster
    assert worker == without

    # The plane actually saw the smoke storm.
    assert cluster["summary"]["shards"] >= SMOKE["n_shards"]
    assert cluster["summary"]["probes"] > 0
    assert len(cluster["meta_incidents"]) == 1
    struck = set(without["storm"]["shards"])
    assert set(cluster["meta_incidents"][0]["shards"]) >= struck


def test_plane_overhead_under_budget_at_standard_scale():
    """The plane on the steady 1M/128 arm: < 10% wall clock."""
    times = {"off": [], "on": []}
    for _ in range(OVERHEAD_ROUNDS):
        for config, enabled in (("off", False), ("on", True)):
            rig = MegascaleRig(
                seed=0, fault=False, cluster_plane=enabled, **STANDARD
            )
            started = time.perf_counter()
            outcome = rig.run()
            times[config].append(time.perf_counter() - started)
            assert outcome["failed_requests"] == 0
    best = {config: min(series) for config, series in times.items()}
    overhead = best["on"] / best["off"] - 1

    payload = benchfile.recorded("observability", "cluster") or {}
    payload["overhead"] = {
        "scenario": "megascale-steady-standard",
        "rounds": OVERHEAD_ROUNDS,
        "plane_off_s": round(best["off"], 2),
        "plane_on_s": round(best["on"], 2),
        "overhead_pct": round(100 * overhead, 2),
    }
    benchfile.record("observability", payload, "cluster")

    if benchfile.gate_enabled():
        assert overhead < MAX_PLANE_OVERHEAD, (
            f"cluster plane costs {100 * overhead:.1f}% wall clock "
            f"(budget {100 * MAX_PLANE_OVERHEAD:.0f}%)"
        )


def test_storm_correlation_standard_scale():
    """K=8 storm → one meta-incident covering all struck shards."""
    rig = StormRig(
        seed=0, storm=True, elastic=True,
        storm_spec=StormSpec.standard(), **STANDARD,
    )
    started = time.perf_counter()
    outcome = rig.run()
    wall = time.perf_counter() - started
    rss = rss_mib()

    cluster = outcome["cluster"]
    struck = set(outcome["storm"]["shards"])
    assert len(struck) == 8

    # ONE meta-incident, covering every struck shard.
    metas = cluster["meta_incidents"]
    assert len(metas) == 1, (
        f"the K=8 storm must stitch into one meta-incident, got "
        f"{len(metas)}"
    )
    meta = metas[0]
    assert set(meta["shards"]) >= struck, (
        f"meta-incident missed struck shards: "
        f"{sorted(struck - set(meta['shards']))}"
    )
    assert meta["mode"] == "simultaneous"
    assert cluster["unclustered_incidents"] == 0

    # Elasticity attributed: every replacement and its migrations.
    replacements = outcome["reshard"]["replacements"]
    assert len(meta["replacements"]) == len(replacements) > 0
    assert len(meta["migrations"]) > 0

    # Cluster MTTR phases sum exactly to the meta-incident span.
    phases = meta["phases"]
    assert set(phases) == {"detect", "decide", "migrate", "drain"}
    assert all(value >= 0.0 for value in phases.values())
    assert sum(phases.values()) == pytest.approx(meta["span"], abs=1e-4)

    # The rollup plane saw the whole cluster and flagged the sick shards.
    summary = cluster["summary"]
    assert summary["shards"] >= STANDARD["n_shards"]
    assert summary["sessions"] == STANDARD["n_sessions"]
    assert summary["probe_p99"] is not None
    assert len(cluster["capacity_signals"]) > 0
    pressured = set(summary["pressured_shards"])
    assert pressured <= struck, (
        "capacity pressure fired on a shard the storm never struck"
    )

    requests = outcome["good_requests"] + outcome["failed_requests"]
    payload = benchfile.recorded("observability", "cluster") or {}
    recorded = payload.get("correlation")
    payload["correlation"] = {
        "scenario": "storm-elastic-standard",
        "sessions": STANDARD["n_sessions"],
        "shards": summary["shards"],
        "k_shards": len(struck),
        "meta_incidents": len(metas),
        "meta_shards": len(meta["shards"]),
        "meta_span_s": meta["span"],
        "phases": phases,
        "migrations_attributed": len(meta["migrations"]),
        "capacity_signals": len(cluster["capacity_signals"]),
        "slo_violations": summary["slo_violations"],
        "requests": requests,
        "wall_s": round(wall, 2),
        "rss_mib": round(rss, 1),
        "requests_per_sec": round(requests / wall),
    }
    benchfile.record("observability", payload, "cluster")

    if not benchfile.gate_enabled():
        return
    if recorded and recorded.get("requests_per_sec"):
        floor = recorded["requests_per_sec"] * (1 - MAX_REGRESSION)
        assert payload["correlation"]["requests_per_sec"] >= floor, (
            f"storm+plane throughput regressed more than "
            f"{100 * MAX_REGRESSION:.0f}%: "
            f"{payload['correlation']['requests_per_sec']}/s vs recorded "
            f"{recorded['requests_per_sec']}/s"
        )
