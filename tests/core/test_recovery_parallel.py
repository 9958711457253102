"""The dependency-aware parallel recovery scheduler on the toy system."""

import pytest

from repro.core import (
    FailureKind,
    FailureReport,
    HardeningPolicy,
    RecoveryManager,
    RecoveryStormLimiter,
)
from tests.toyapp import URL_PATH_MAP, build_toy_system


def make_rm(system, **kwargs):
    defaults = dict(
        score_threshold=3,
        escalation_window=45.0,
        hardening=HardeningPolicy(parallel_recovery=True),
    )
    defaults.update(kwargs)
    rm = RecoveryManager(
        system.kernel, system.coordinator, URL_PATH_MAP, **defaults
    )
    rm.start()
    return rm


def report(rm, system, url, kind=FailureKind.HTTP_ERROR, at=None):
    rm.report(
        FailureReport(
            time=system.kernel.now if at is None else at,
            url=url,
            operation=url.rsplit("/", 1)[-1],
            kind=kind,
        )
    )


def burst(rm, system, url, n=3):
    for _ in range(n):
        report(rm, system, url)


def overlapping(a, b):
    return a.decided_at < b.finished_at and b.decided_at < a.finished_at


def test_independent_groups_microreboot_concurrently():
    system = build_toy_system()
    rm = make_rm(system)
    burst(rm, system, "/toy/greet")
    burst(rm, system, "/toy/balance")
    system.kernel.run(until=5.0)
    assert [a.level for a in rm.actions] == ["ejb", "ejb"]
    assert rm.actions[0].target == ("Greeter",)
    assert rm.actions[1].target == ("Account", "Ledger")
    assert overlapping(rm.actions[0], rm.actions[1])
    assert all(a.ok for a in rm.actions)


def test_same_group_recoveries_stay_serialized():
    system = build_toy_system()
    rm = make_rm(system)
    # The balance burst dispatches the Account group; the transfer burst
    # implicates Transfer, whose targets conflict with the in-flight
    # group (Transfer references Account and Ledger) — so it must wait,
    # and the completed group recovery then retires its evidence.
    burst(rm, system, "/toy/balance")
    burst(rm, system, "/toy/transfer")
    system.kernel.run(until=5.0)
    assert len(rm.actions) == 1
    assert rm.actions[0].target == ("Account", "Ledger")


def test_parallel_schedule_is_deterministic_across_fresh_systems():
    def run_one():
        system = build_toy_system()
        rm = make_rm(system)
        burst(rm, system, "/toy/greet")
        burst(rm, system, "/toy/balance")
        system.kernel.run(until=5.0)
        return [
            (a.level, a.target, a.decided_at, a.finished_at, a.ok)
            for a in rm.actions
        ]

    assert run_one() == run_one()


def test_storm_limiter_caps_global_concurrency():
    system = build_toy_system()
    limiter = RecoveryStormLimiter(system.kernel, limit=1)
    deferred = []
    rm = make_rm(system, storm_limiter=limiter)
    rm.defer_listeners.append(
        lambda reason, level, targets, ttl: deferred.append((reason, targets))
    )
    burst(rm, system, "/toy/greet")
    burst(rm, system, "/toy/balance")
    system.kernel.run(until=1.0)
    # Only the Greeter µRB was admitted; the independent Account group
    # was storm-deferred, not cancelled.
    assert [a.target for a in rm.actions] == [("Greeter",)]
    assert ("storm", ("Account",)) in deferred
    # Scores survived the deferral: the next report re-diagnoses from
    # current evidence and dispatches now that the slot is free.
    report(rm, system, "/toy/balance")
    system.kernel.run(until=5.0)
    assert [a.target for a in rm.actions] == [
        ("Greeter",), ("Account", "Ledger"),
    ]
    assert not overlapping(rm.actions[0], rm.actions[1])
    assert limiter.active == 0


def test_ladders_are_per_group_and_coarse_waits_for_inflight():
    system = build_toy_system()
    rm = make_rm(system)
    burst(rm, system, "/toy/greet")
    system.kernel.run(until=1.0)
    assert [a.target for a in rm.actions] == [("Greeter",)]
    assert sorted(rm._ladders) == ["Greeter"]

    # Greeter keeps failing (its ladder is spent: the target was tried)
    # while the Account group's first recovery is still in flight — the
    # node-wide escalation must wait for the node to be quiet.
    burst(rm, system, "/toy/balance")
    burst(rm, system, "/toy/greet")
    system.kernel.run(until=1.1)
    # The Account µRB is mid-flight; Greeter's coarse demand is waiting.
    assert sorted(rm._ladders) == ["Account", "Greeter"]
    assert len(rm._inflight) == 1
    assert not any(a.level == "war" for a in rm.actions)

    system.kernel.run(until=2.0)
    assert [a.level for a in rm.actions] == ["ejb", "ejb"]
    report(rm, system, "/toy/greet")
    system.kernel.run(until=5.0)
    war = rm.actions[-1]
    assert war.level == "war"
    assert war.decided_at >= rm.actions[1].finished_at


def test_parallel_scheduler_requires_recursive_policy():
    system = build_toy_system()
    with pytest.raises(ValueError, match="recursive"):
        RecoveryManager(
            system.kernel,
            system.coordinator,
            URL_PATH_MAP,
            hardening=HardeningPolicy(parallel_recovery=True),
            policy="process-restart",
        )


def test_staleness_is_per_component_not_global():
    system = build_toy_system()
    rm = make_rm(system)
    burst(rm, system, "/toy/greet")
    system.kernel.run(until=1.0)
    finished = rm.actions[0].finished_at
    assert rm.actions[0].target == ("Greeter",)

    # A report stamped before the Greeter µRB finished is stale for
    # Greeter's path — but the same stamp is perfectly fresh evidence
    # for the never-recovered Account group.
    stale_stamp = finished / 2
    report(rm, system, "/toy/greet", at=stale_stamp)
    report(rm, system, "/toy/balance", at=stale_stamp)
    system.kernel.run(until=2.0)
    assert rm.metrics.counter("rm.reports.stale").value == 1
    assert rm.scores.get("Account") == 1
    assert "Greeter" not in rm.scores


def test_war_demand_needs_twice_the_evidence_when_unlocalized():
    system = build_toy_system()
    rm = make_rm(system)
    # Interleaved failures across every URL push ToyWAR over the normal
    # threshold while each bean is still below it: the parallel
    # scheduler must wait for a localized culprit instead of coarsening.
    for url in ("/toy/greet", "/toy/balance", "/toy/transfer"):
        report(rm, system, url)
    system.kernel.run(until=1.0)
    assert rm.scores["ToyWAR"] == 3
    assert rm.actions == []

    # Twice the threshold of unlocalized evidence is a coarse demand.
    for url in ("/toy/greet", "/toy/balance", "/toy/transfer"):
        report(rm, system, url)
    system.kernel.run(until=2.0)
    assert [a.level for a in rm.actions] == ["ejb"]
    # (Account crossed threshold on the way — the specific candidate
    # still wins over the node-wide rung.)
    assert rm.actions[0].target == ("Account", "Ledger")
