"""Output checks reject corrupted outcomes; digests ignore hash order;
measured interpreters ignore the workspace's bytecode caches."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import py_compile

import pytest

from perfbench import checks, run
from repro.workload.metrics import (
    ActionRecord, OperationRecord, TawAccounting,
)

ROOT = Path(__file__).resolve().parents[2]


def cohort_outcome():
    """A shape-faithful storm+elastic outcome that passes every check."""
    return {
        "sessions": 1_000,
        "population": 1_000,
        "good_requests": 990,
        "failed_requests": 10,
        "availability": 0.99,
        "recovery_actions": 2,
        "reshard": {"in_transit_at_end": 0, "sessions_migrated": 40},
        "incidents": {"actions_attributed": 2},
    }


def chaos_outcome():
    return {
        "good_requests": 700,
        "failed_requests": 7,
        "availability": 0.9901,
        "recovery_actions": 3,
        "incidents": {"actions_attributed": 3},
        "incident_records": [
            {"id": 1, "span": 4.5,
             "phases": {"detection": 1.0, "diagnosis": 0.5,
                        "recovery": 2.0, "residual": 1.0}},
        ],
    }


COHORT_COUNTED = {"good": 990, "failed": 10}
CHAOS_COUNTED = {"good": 700, "failed": 7, "operations": 707}


def test_clean_outcomes_pass():
    assert checks.violations(cohort_outcome(), COHORT_COUNTED) == []
    assert checks.violations(chaos_outcome(), CHAOS_COUNTED) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda o: o.update(population=o["population"] - 1),
        lambda o: o.update(failed_requests=o["failed_requests"] + 1),
        lambda o: o.update(availability=1.0001),
        lambda o: o.update(availability=None),
        lambda o: o["reshard"].update(in_transit_at_end=1),
    ],
    ids=["population-off-by-one", "good-plus-failed", "availability-above-1",
         "availability-missing", "sessions-in-transit"],
)
def test_corrupted_cohort_outcome_is_rejected(corrupt):
    outcome = cohort_outcome()
    corrupt(outcome)
    assert checks.violations(outcome, COHORT_COUNTED)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda o: o["incidents"].update(actions_attributed=2),
        lambda o: o["incident_records"][0]["phases"].update(residual=1.5),
    ],
    ids=["unattributed-action", "phases-do-not-sum-to-span"],
)
def test_corrupted_chaos_outcome_is_rejected(corrupt):
    outcome = chaos_outcome()
    corrupt(outcome)
    assert checks.violations(outcome, CHAOS_COUNTED)


def client_sink():
    """A metrics sink fed as the per-client engine feeds it: one
    committed and one failed action of two operations each."""
    metrics = TawAccounting()
    for ok in (True, False):
        action = ActionRecord("buy", client_id=1, started_at=1.0)
        for when in (1.0, 2.0):
            action.operations.append(OperationRecord(
                "buy", "/buy", issued_at=when, completed_at=when + 0.1,
                ok=ok or when == 1.0, response_time=0.1,
            ))
        metrics.record_action(action)
    return metrics


def cohort_sink():
    """A metrics sink fed as the cohort engine feeds it: batches only."""
    metrics = TawAccounting()
    metrics.record_batch(3, good_ops=5, bad_ops=1)
    metrics.record_batch(4, good_ops=6)
    return metrics


def outcome_of(metrics):
    good, failed = metrics.good_requests, metrics.failed_requests
    return {"good_requests": good, "failed_requests": failed,
            "availability": good / (good + failed)}


@pytest.mark.parametrize(
    "sink, counted",
    [(client_sink, {"good": 2, "failed": 2, "operations": 4}),
     (cohort_sink, {"good": 11, "failed": 1})],
    ids=["per-client", "cohort"],
)
def test_request_counters_are_checked_against_counts_kept_apart(
    sink, counted
):
    metrics = sink()
    assert checks.counted_requests(metrics) == counted
    assert checks.violations(outcome_of(metrics), counted) == []

    # A request the counter saw but the per-second series did not.
    metrics.registry.counter("taw.requests.failed").inc()
    assert checks.violations(
        outcome_of(metrics), checks.counted_requests(metrics)
    )


def test_request_counters_are_checked_against_recorded_actions():
    metrics = client_sink()
    # An operation recorded on an action but never counted.
    metrics.actions[0].operations.append(
        OperationRecord("buy", "/buy", issued_at=4.0, completed_at=4.1,
                        ok=True)
    )
    assert checks.violations(
        outcome_of(metrics), checks.counted_requests(metrics)
    )


def test_digest_ignores_dict_order_but_not_content():
    outcome = chaos_outcome()
    reordered = dict(reversed(list(copy.deepcopy(outcome).items())))
    assert checks.digest(reordered) == checks.digest(outcome)
    outcome["failed_requests"] += 1
    assert checks.digest(outcome) != checks.digest(reordered)


def test_digest_refuses_values_without_a_fixed_order():
    with pytest.raises(TypeError):
        checks.digest({"shards": {"shard000", "shard001"}})


DIGEST_SCRIPT = """
import json
from perfbench import checks
from repro.experiments.storm import StormRig
from repro.faults.chaos import StormSpec
outcome = StormRig(seed=5, n_sessions=4000, n_shards=6, duration=40.0,
                   storm=True, elastic=True,
                   storm_spec=StormSpec(start=10.0, duration=20.0,
                                        k_shards=2)).run()
members = list({f"shard{i:03d}" for i in range(40)})
print(json.dumps([checks.digest(outcome), members]))
"""


def test_digest_is_stable_across_hash_seeds():
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        proc = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        results.append(json.loads(proc.stdout))
    (digest_1, order_1), (digest_2, order_2) = results
    assert order_1 != order_2, "the two interpreters share a hash seed"
    assert digest_1 == digest_2


def test_measured_interpreters_ignore_workspace_bytecode(tmp_path):
    """A ``__pycache__`` next to the source is never read: here it holds
    bytecode of other source, marked never to be checked against it."""
    (tmp_path / "planted.py").write_text("X = 'source'\n")
    other = tmp_path / "other.py"
    other.write_text("X = 'stale bytecode'\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    py_compile.compile(
        str(other),
        cfile=str(cache / f"planted.{sys.implementation.cache_tag}.pyc"),
        invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH,
    )

    def imported_x(env):
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
        proc = subprocess.run(
            [sys.executable, "-c", "import planted; print(planted.X)"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        return proc.stdout.strip()

    plain = dict(os.environ, PYTHONPATH=str(ROOT))
    plain.pop("PYTHONPYCACHEPREFIX", None)
    assert imported_x(plain) == "stale bytecode"
    assert imported_x(run.child_env()) == "source"
