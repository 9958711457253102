"""Tests for the parallel campaign runner (repro.parallel)."""

import pytest

from repro.parallel import (
    CampaignError,
    TrialSpec,
    available_jobs,
    campaign_summary,
    normalize_jobs,
    run_arms,
    run_campaign,
)
from repro.parallel.demo import simulate_trial
from repro.parallel.worker import TaskResolutionError, resolve_task, run_trial

DEMO = "repro.parallel.demo:simulate_trial"
SPECS = [
    TrialSpec(task=DEMO, kwargs={"arm": 3, "requests": 5},
              tag=f"trial-{i}", seed=i)
    for i in range(6)
]


# --- task resolution ---------------------------------------------------------

def test_resolve_task_returns_the_callable():
    assert resolve_task(DEMO) is simulate_trial


def test_resolve_task_supports_dotted_attributes():
    fn = resolve_task("repro.parallel.campaign:TrialSpec.__init__")
    assert callable(fn)


@pytest.mark.parametrize("bad", [
    "no-colon", ":fn", "module:", "repro.parallel.demo:nope",
    "no.such.module:fn", "repro.parallel.demo:__doc__",
])
def test_resolve_task_rejects_bad_addresses(bad):
    with pytest.raises(TaskResolutionError):
        resolve_task(bad)


# --- envelopes ---------------------------------------------------------------

def test_run_trial_injects_seed_and_times_the_trial():
    result = run_trial((3, SPECS[3]))
    assert result.ok
    assert result.index == 3 and result.tag == "trial-3" and result.seed == 3
    assert result.value["seed"] == 3
    assert result.elapsed_s > 0 and result.pid > 0


def test_run_trial_captures_exceptions_in_the_envelope():
    spec = TrialSpec(task=DEMO, kwargs={"arm": "not-a-number"}, tag="boom")
    result = run_trial((0, spec))
    assert not result.ok
    assert result.value is None
    assert "TypeError" in result.error
    assert "Traceback" in result.traceback


def test_campaign_check_raises_with_worker_traceback():
    bad = TrialSpec(task="repro.parallel.demo:missing", tag="gone")
    with pytest.raises(CampaignError) as excinfo:
        run_campaign([SPECS[0], bad], jobs=1)
    message = str(excinfo.value)
    assert "trial 1" in message and "gone" in message
    assert "TaskResolutionError" in message


def test_campaign_check_false_returns_failed_envelopes():
    bad = TrialSpec(task="repro.parallel.demo:missing", tag="gone")
    results = run_campaign([bad, SPECS[0]], jobs=1, check=False)
    assert [r.ok for r in results] == [False, True]
    assert campaign_summary(results)["errors"] == 1


# --- ordering and determinism ------------------------------------------------

def test_results_come_back_in_spec_order():
    for jobs in (1, 2):
        results = run_campaign(SPECS, jobs=jobs)
        assert [r.index for r in results] == list(range(len(SPECS)))
        assert [r.tag for r in results] == [s.tag for s in SPECS]


def test_parallel_values_identical_to_sequential():
    # The tentpole contract: jobs=N output is byte-identical to jobs=1.
    sequential = [r.value for r in run_campaign(SPECS, jobs=1)]
    parallel = [r.value for r in run_campaign(SPECS, jobs=2)]
    assert parallel == sequential


def test_identical_seed_identical_digest():
    a = simulate_trial(4, seed=7, requests=6)
    b = simulate_trial(4, seed=7, requests=6)
    c = simulate_trial(4, seed=8, requests=6)
    assert a == b
    assert c["log_digest"] != a["log_digest"]


def test_single_spec_campaign_stays_in_process():
    import os

    results = run_campaign([SPECS[0]], jobs=8)
    assert results[0].pid == os.getpid()


# --- arm campaigns -----------------------------------------------------------

ARMS = (4, 2, 3)


def test_run_arms_keys_outcomes_by_arm_in_arm_order():
    outcomes = run_arms(simulate_trial, ARMS, seed=5, requests=5)
    assert list(outcomes) == list(ARMS)
    for arm in ARMS:
        assert outcomes[arm] == simulate_trial(arm, seed=5, requests=5)
    assert len({o["log_digest"] for o in outcomes.values()}) == len(ARMS)


def test_run_arms_parallel_outcomes_equal_sequential():
    sequential = run_arms(simulate_trial, ARMS, seed=5, jobs=1, requests=5)
    parallel = run_arms(simulate_trial, ARMS, seed=5, jobs=2, requests=5)
    assert parallel == sequential


def test_run_arms_failure_names_the_arm():
    with pytest.raises(CampaignError) as excinfo:
        run_arms(simulate_trial, (2, "not-a-number"), seed=0, requests=5)
    message = str(excinfo.value)
    assert "trial 1 ('not-a-number')" in message
    assert "TypeError" in message


# --- job counts --------------------------------------------------------------

def test_normalize_jobs_contract():
    assert normalize_jobs(4) == 4
    assert normalize_jobs(1) == 1
    cores = available_jobs()
    assert normalize_jobs(0) == cores
    assert normalize_jobs(None) == cores
    assert normalize_jobs(-3) == cores
    assert cores >= 1


def test_campaign_summary_shape():
    summary = campaign_summary(run_campaign(SPECS[:3], jobs=1))
    assert summary["trials"] == 3
    assert summary["errors"] == 0
    assert summary["workers"] == 1
    assert summary["total_trial_s"] >= summary["max_trial_s"] > 0


def test_empty_campaign():
    assert run_campaign([], jobs=4) == []
    summary = campaign_summary([])
    assert summary == {"trials": 0, "errors": 0, "workers": 0,
                       "total_trial_s": 0.0, "max_trial_s": 0.0}
