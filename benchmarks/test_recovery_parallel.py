"""Bench: parallel recovery scheduler — MTTR gate + safety contracts.

Runs the ``multiburst`` chaos spec (two bursts of three *distinct*
components on one node — the multi-component failure shape from the
dependency-aware-recovery argument) on a 2-node SSM cluster, twice from
the same seed:

* **serial** rig: the hardened pipeline with the §4 one-at-a-time
  recursive scheduler;
* **parallel** rig: the same hardened pipeline with
  ``HardeningPolicy.parallel()`` — independent components microreboot
  concurrently, dependency groups stay serialized.

Gates (safety always, performance when the gate is enabled):

1. determinism — the parallel rig run twice from the same seed yields a
   byte-identical outcome, scheduler group ordering included;
2. zero same-group concurrency — any two overlapping recovery actions on
   one node must both be EJB-level µRBs of targets the node's
   :class:`~repro.core.recovery_graph.RecoveryGraph` declares independent;
3. the parallel arm actually overlaps work (peak within-node recovery
   concurrency ≥ 2) while the serial arm never does;
4. the parallel arm's mean incident *recovery phase* beats the serial
   arm's on the identical fault schedule.

The measured numbers are recorded in ``BENCH_recovery.json``; the
committed baseline doubles as a 10% regression gate on the parallel
arm's recovery phase and failed requests.  ``REPRO_BENCH_GATE=0``
disables the gates; ``REPRO_BENCH_REBASELINE=1`` re-records.
"""

import json

from benchmarks import benchfile
from repro.experiments.chaos import ChaosClusterRig, _max_overlap
from repro.faults.chaos import ChaosSpec

SEED = 0
MAX_REGRESSION = 0.10


def _run_arm(parallel):
    rig = ChaosClusterRig(
        seed=SEED,
        n_nodes=2,
        # Dense enough traffic that the distinct burst components cross
        # the score threshold within each other's µRB windows — sparse
        # detection, not the scheduler, is the overlap bottleneck below
        # ~100 clients/node.
        clients_per_node=150,
        hardened=True,
        parallel=parallel,
        spec=ChaosSpec.multiburst(),
    )
    outcome = rig.run(tail=40.0)
    return rig, outcome


def _overlapping_pairs(actions):
    """Strictly-overlapping [decided_at, finished_at) action pairs."""
    pairs = []
    for i, a in enumerate(actions):
        for b in actions[i + 1:]:
            if a.decided_at < b.finished_at and b.decided_at < a.finished_at:
                pairs.append((a, b))
    return pairs


def test_parallel_recovery_mttr_and_safety_gates():
    recorded = benchfile.recorded("recovery")

    serial_rig, serial = _run_arm(parallel=False)
    parallel_rig, parallel = _run_arm(parallel=True)

    # Gate 1: determinism — same seed, same trace, scheduler included.
    _rerun_rig, rerun = _run_arm(parallel=True)
    assert json.dumps(rerun, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    ), "parallel scheduler must be deterministic for a fixed seed"

    # Gate 2: overlapping actions on one node are only ever independent
    # EJB µRBs — never two members of one dependency group, never a
    # coarse (node-wide) action overlapping anything.
    for rig, arm in ((serial_rig, "serial"), (parallel_rig, "parallel")):
        for rm in rig.rms:
            for a, b in _overlapping_pairs(rm.actions):
                assert a.level == "ejb" and b.level == "ejb", (
                    f"{arm} {rm.server.name}: {a.level} µRB of {a.target} "
                    f"overlapped {b.level} µRB of {b.target} — only "
                    "EJB-level actions may run concurrently"
                )
                assert not rm.recovery_graph.conflicts(
                    set(a.target), set(b.target)
                ), (
                    f"{arm} {rm.server.name}: same-dependency-group "
                    f"recoveries of {a.target} and {b.target} overlapped"
                )

    # Gate 3: the serial scheduler never overlaps; the parallel one does.
    serial_peak = serial["max_concurrent_recoveries"]
    parallel_peak = parallel["max_concurrent_recoveries"]
    assert serial_peak <= 1, (
        f"serial scheduler overlapped recoveries (peak {serial_peak})"
    )

    serial_means = serial["incidents"]["mean_phases"]
    parallel_means = parallel["incidents"]["mean_phases"]
    payload = {
        "spec": "multiburst",
        "seed": SEED,
        "serial": {
            "failed_requests": serial["failed_requests"],
            "recovery_actions": serial["recovery_actions"],
            "availability": serial["availability"],
            "max_concurrent_recoveries": serial_peak,
            "mean_recovery_phase": serial_means.get("recovery"),
            "mean_span": serial["incidents"]["mean_span"],
        },
        "parallel": {
            "failed_requests": parallel["failed_requests"],
            "recovery_actions": parallel["recovery_actions"],
            "availability": parallel["availability"],
            "max_concurrent_recoveries": parallel_peak,
            "mean_recovery_phase": parallel_means.get("recovery"),
            "mean_span": parallel["incidents"]["mean_span"],
        },
    }
    benchfile.record("recovery", payload)
    print(f"\nrecovery: {payload}")

    if not benchfile.gate_enabled():
        return

    assert parallel_peak >= 2, (
        "parallel scheduler never overlapped independent recoveries "
        f"(peak {parallel_peak}) on a multi-component burst campaign"
    )

    # Gate 4: the scheduler change shrinks the recovery phase itself.
    assert parallel_means["recovery"] < serial_means["recovery"], (
        f"parallel mean recovery phase {parallel_means['recovery']}s did "
        f"not beat serial {serial_means['recovery']}s on the same "
        "fault schedule"
    )

    # Regression gate against the committed baseline.
    if recorded:
        baseline = recorded.get("parallel", {})
        for key in ("failed_requests", "mean_recovery_phase"):
            limit = baseline.get(key, 0) * (1 + MAX_REGRESSION)
            assert payload["parallel"][key] <= limit, (
                f"parallel {key} regressed: {payload['parallel'][key]} vs "
                f"recorded {baseline.get(key)} (+{MAX_REGRESSION:.0%} "
                "allowed); re-record with REPRO_BENCH_REBASELINE=1 if "
                "intentional"
            )
