"""The benchmark's three workloads: sizes, arms, and how to run them.

In simulated time every workload is a closed loop: each emulated client
or cohort session waits for its reply, then thinks (exponential, mean
7 s).  On the host one simulation runs at a time, so each workload is
measured as work per host second at the fixed sizes below.

This module imports nothing from the program at import time, so
``run.py`` can read names and sizes without loading the simulator.
"""

from dataclasses import dataclass

#: Per-client engine, 3 nodes + LB + SSM, ``ChaosSpec.standard()``.
CHAOS = {"n_nodes": 3, "clients_per_node": 30, "spec": "standard",
         "tail_s": 60.0}
#: Between megascale smoke (50k/16) and standard (1M/128).
COHORT = {"n_sessions": 250_000, "n_shards": 32, "duration_s": 150.0}
#: The same cohort size under a K-shard simultaneous storm.
STORM = {**COHORT, "k_shards": 4, "storm_start_s": 30.0,
         "storm_duration_s": 90.0}


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple
    sizes: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chaos-cluster", ("seed", "hardened", "parallel-recovery"), CHAOS),
        Workload("cohort-steady", ("steady",), COHORT),
        Workload("cohort-storm", ("storm", "storm+elastic"), STORM),
    )
}


def import_program():
    """Import every module an arm needs (part of the measured set-up)."""
    import repro.experiments.chaos  # noqa: F401
    import repro.experiments.megascale  # noqa: F401
    import repro.experiments.storm  # noqa: F401


def build_arm(workload, arm, seed):
    """Construct the rig for one arm through the program's public API."""
    if workload == "chaos-cluster":
        from repro.experiments.chaos import ChaosClusterRig
        from repro.faults.chaos import ChaosSpec

        return ChaosClusterRig(
            seed=seed,
            n_nodes=CHAOS["n_nodes"],
            clients_per_node=CHAOS["clients_per_node"],
            hardened=(arm != "seed"),
            parallel=(arm == "parallel-recovery"),
            spec=ChaosSpec.standard(),
        )
    if workload == "cohort-steady":
        from repro.experiments.megascale import MegascaleRig

        return MegascaleRig(
            seed=seed,
            n_sessions=COHORT["n_sessions"],
            n_shards=COHORT["n_shards"],
            duration=COHORT["duration_s"],
        )
    if workload == "cohort-storm":
        from repro.experiments.storm import StormRig
        from repro.faults.chaos import StormSpec

        return StormRig(
            seed=seed,
            n_sessions=STORM["n_sessions"],
            n_shards=STORM["n_shards"],
            duration=STORM["duration_s"],
            storm=True,
            elastic=(arm == "storm+elastic"),
            storm_spec=StormSpec(
                start=STORM["storm_start_s"],
                duration=STORM["storm_duration_s"],
                k_shards=STORM["k_shards"],
            ),
        )
    raise KeyError(workload)


def run_arm(workload, rig):
    """Run a built rig to its outcome, as ``repro run`` does."""
    if workload == "chaos-cluster":
        return rig.run(tail=CHAOS["tail_s"])
    return rig.run()
