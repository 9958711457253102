"""Bench: chaos campaign — determinism contract + hardened-pipeline gate.

Runs the smoke-sized chaos campaign (2 nodes, fixed seed) twice:

* once with ``--jobs 1`` and once with ``--jobs 2`` — the rendered
  experiment table must be byte-identical, the determinism contract that
  lets chaos results be compared across machines and worker counts;
* the same run's outcomes feed the headline gate: the hardened pipeline
  must beat the seed pipeline on the same fault schedule with *strictly*
  fewer failed client requests AND strictly fewer recovery actions.

The measured numbers are recorded in ``BENCH_chaos.json``.  A committed
baseline doubles as a regression gate: the hardened arm's failures and
recovery-action count must not creep more than 10% above the recorded
figures.  ``REPRO_BENCH_GATE=0`` disables the gates;
``REPRO_BENCH_REBASELINE=1`` re-records the baseline.
"""

from benchmarks import benchfile
from repro.experiments import chaos

SEED = 0
#: Regression tolerance against the committed baseline.
MAX_REGRESSION = 0.10


def _quick(jobs):
    result, outcomes = chaos.run(seed=SEED, quick=True, jobs=jobs)
    return result.render(), outcomes


def test_chaos_campaign_determinism_and_hardening_gate():
    recorded = benchfile.recorded("chaos")

    sequential_text, outcomes = _quick(jobs=1)
    parallel_text, _ = _quick(jobs=2)

    assert parallel_text == sequential_text, (
        "chaos campaign output must be byte-identical between "
        "--jobs 1 and --jobs 2"
    )

    # Observability contract: every recovery action the campaign executed
    # is attributed to exactly one incident, and each incident's phase
    # decomposition (detection/diagnosis/recovery/residual) sums to its
    # wall-clock span (tolerance covers the 6-decimal export rounding).
    for arm, outcome in outcomes.items():
        incidents = outcome["incidents"]
        assert incidents["actions_attributed"] == outcome["recovery_actions"], (
            f"{arm}: {outcome['recovery_actions']} recovery actions ran but "
            f"{incidents['actions_attributed']} were attributed to incidents"
        )
        for record in outcome["incident_records"]:
            drift = abs(sum(record["phases"].values()) - record["span"])
            assert drift < 1e-4, (
                f"{arm} incident #{record['id']} ({record['key']}): phases "
                f"sum to {sum(record['phases'].values())}, span is "
                f"{record['span']}"
            )

    seed_arm, hardened = outcomes["seed"], outcomes["hardened"]
    payload = {
        "spec": "smoke",
        "seed": SEED,
        "chaos_events": seed_arm["chaos_events"],
        "seed_pipeline": {
            "failed_requests": seed_arm["failed_requests"],
            "recovery_actions": seed_arm["recovery_actions"],
            "availability": seed_arm["availability"],
        },
        "hardened_pipeline": {
            "failed_requests": hardened["failed_requests"],
            "recovery_actions": hardened["recovery_actions"],
            "availability": hardened["availability"],
            "deferred": hardened["deferred"],
            "quarantines": hardened["quarantines"],
        },
    }
    benchfile.record("chaos", payload)
    print(f"\nchaos: {payload}")

    if not benchfile.gate_enabled():
        return

    # Headline gate: same fault schedule, strictly better on both axes.
    assert hardened["failed_requests"] < seed_arm["failed_requests"], (
        f"hardened pipeline failed {hardened['failed_requests']} requests, "
        f"seed pipeline {seed_arm['failed_requests']} — hardening must "
        "strictly reduce failures"
    )
    assert hardened["recovery_actions"] < seed_arm["recovery_actions"], (
        f"hardened pipeline ran {hardened['recovery_actions']} recoveries, "
        f"seed pipeline {seed_arm['recovery_actions']} — hardening must "
        "strictly reduce recovery work"
    )

    # Regression gate against the committed baseline.
    if recorded:
        baseline = recorded.get("hardened_pipeline", {})
        for key in ("failed_requests", "recovery_actions"):
            limit = baseline.get(key, 0) * (1 + MAX_REGRESSION)
            assert hardened[key] <= limit, (
                f"hardened {key} regressed: {hardened[key]} vs recorded "
                f"{baseline.get(key)} (+{MAX_REGRESSION:.0%} allowed); "
                "re-record with REPRO_BENCH_REBASELINE=1 if intentional"
            )
