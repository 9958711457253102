"""Byte-identity guard for recovery behaviour.

Pins a SHA-256 digest of every recovery manager's action log together
with every ``rm.*`` trace record, for small runs that between them reach
each dispatch path: the serial pipeline with and without hardening, the
dependency-grouped parallel scheduler, proactive preemption, heap
exhaustion inside and after an incident, and the process-restart policy.
A refactor of the recovery manager must leave all of them unchanged; a
deliberate behaviour change updates the digests and says why.
"""

import hashlib

import pytest

from repro.core import (
    FailureKind,
    FailureReport,
    HardeningPolicy,
    RecoveryManager,
)
from repro.experiments.chaos import ChaosClusterRig
from repro.faults.chaos import ChaosSpec
from tests.toyapp import URL_PATH_MAP, build_toy_system

EXPECTED = {
    "chaos-seed": (
        "3ee7853aa14eba0d6a8c8df4b485be5c"
        "15482a2bc92e7f92e012d5297a63b2a9"
    ),
    "chaos-hardened": (
        "607e64eef01aad3b5ce230ebfecb9e4e"
        "5e5054c6c363ac70b04409384d4bf253"
    ),
    "chaos-parallel-recovery": (
        "d6a01b242d84b9c159fb486ab4cfabf8"
        "34791cf3f18c07b0b67d42a6ca3ea450"
    ),
    "prediction-proactive": (
        "8d606967e25a2458cf542eb6ef2a0629"
        "c498098bec8225283d68697408e7f8d5"
    ),
    "toy-one-group-exhaustion": (
        "792b7c23a3a3e74082e0cd9a22e2d5f0"
        "327f8ed561e1bd7a017f0cff9bd95b40"
    ),
    "toy-groups-exhaustion": (
        "200ce35c3c6762deb5d22846c2f545d6"
        "a54331d76f4d806921152a81f62257cd"
    ),
    "toy-process-restart": (
        "cfce4e025d6185b85736194327c8a3a3"
        "4a06a2a0db57ef5bb398b1f7a3e9396d"
    ),
}


def record_rm_events(kernel):
    events = []
    kernel.trace.enabled = True
    kernel.trace.subscribe(events.append, "rm.*")
    return events


def digest(rms, events):
    sha = hashlib.sha256()
    for rm in rms:
        for a in rm.actions:
            entry = (a.decided_at, a.level, a.target, a.trigger.value,
                     a.finished_at, a.error)
            sha.update(repr(entry).encode())
    for event in events:
        entry = (event.t, event.kind, sorted(event.fields.items()))
        sha.update(repr(entry).encode())
    return sha.hexdigest()


def run_rig(tail, **kwargs):
    rig = ChaosClusterRig(seed=0, n_nodes=2, clients_per_node=20, **kwargs)
    events = record_rm_events(rig.kernel)
    rig.run(tail=tail)
    return digest(rig.rms, events)


def run_chaos_arm(arm):
    """``repro run chaos --quick`` sizing for one arm."""
    return run_rig(
        40.0,
        hardened=(arm != "seed"),
        parallel=(arm == "parallel-recovery"),
        spec=ChaosSpec.smoke(),
    )


def run_prediction_proactive():
    """``repro run prediction --quick`` sizing for the proactive arm."""
    spec = ChaosSpec.leaky(leak_bytes=36 * 1024 * 1024, duration=300.0)
    return run_rig(40.0, hardened=True, spec=spec, prediction="proactive")


def run_toy_process_restart():
    system = build_toy_system()
    # Default server names come from a process-wide counter.
    system.server.name = "toy-server"
    kernel = system.kernel
    events = record_rm_events(kernel)
    rm = RecoveryManager(
        kernel, system.coordinator, URL_PATH_MAP, policy="process-restart"
    )
    rm.start()

    def burst(url, kind=FailureKind.HTTP_ERROR, n=3, at=None):
        for _ in range(n):
            rm.report(FailureReport(
                time=kernel.now if at is None else at, url=url,
                operation=url.rsplit("/", 1)[-1], kind=kind,
            ))

    burst("/toy/greet")
    kernel.run(until=20.0)
    burst("/toy/balance", at=1.0)  # predates the restart: stale
    burst("/toy/greet", kind=FailureKind.APP_SPECIFIC, n=20)  # grace
    kernel.run(until=80.0)
    burst("/toy/transfer", kind=FailureKind.RESOURCE_EXHAUSTION, n=1)
    kernel.run(until=120.0)
    burst("/toy/balance", n=4)
    kernel.run(until=200.0)
    assert [a.level for a in rm.actions] == ["jvm", "jvm", "jvm"]
    return digest([rm], events)


def run_toy_exhaustion(parallel):
    """Heap exhaustion inside and after an incident, on the toy system."""
    system = build_toy_system()
    system.server.name = "toy-server"
    kernel = system.kernel
    events = record_rm_events(kernel)
    rm = RecoveryManager(
        kernel, system.coordinator, URL_PATH_MAP,
        hardening=HardeningPolicy(parallel_recovery=parallel),
    )
    rm.start()

    def report(url, kind=FailureKind.HTTP_ERROR, n=1):
        for _ in range(n):
            rm.report(FailureReport(
                time=kernel.now, url=url,
                operation=url.rsplit("/", 1)[-1], kind=kind,
            ))

    report("/toy/greet", n=3)
    kernel.run(until=5.0)
    system.server.heap.leak("Account", 50 * 1024 * 1024)
    report("/toy/balance", n=2)
    report("/toy/balance", kind=FailureKind.RESOURCE_EXHAUSTION)
    kernel.run(until=60.0)
    system.server.heap.leak("Greeter", 80 * 1024 * 1024)
    report("/toy/greet", kind=FailureKind.RESOURCE_EXHAUSTION)
    kernel.run(until=70.0)
    report("/toy/transfer", kind=FailureKind.RESOURCE_EXHAUSTION)
    kernel.run(until=150.0)
    return digest([rm], events)


RUNS = {
    "chaos-seed": lambda: run_chaos_arm("seed"),
    "chaos-hardened": lambda: run_chaos_arm("hardened"),
    "chaos-parallel-recovery": lambda: run_chaos_arm("parallel-recovery"),
    "prediction-proactive": run_prediction_proactive,
    "toy-process-restart": run_toy_process_restart,
    "toy-one-group-exhaustion": lambda: run_toy_exhaustion(False),
    "toy-groups-exhaustion": lambda: run_toy_exhaustion(True),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_recovery_digest_is_pinned(name):
    assert RUNS[name]() == EXPECTED[name]
