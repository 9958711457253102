"""Stateful property tests: the recovery manager's dispatch invariants.

A hypothesis ``RuleBasedStateMachine`` drives a recovery manager on the toy
system with random failure reports, clock advances and preemptive µRBs,
for both groupings (one group spanning the node, and the
:class:`~repro.core.recovery_graph.RecoveryGraph` groups) with hardening
on and off.  After every step it checks:

* no two in-flight actions conflict, and with one node-wide group at most
  one action is in flight;
* a report stamped exactly at a quarantine's ``until`` is scored (the
  half-open ``[begin, until)`` rule);
* ``_backoff_until[key]`` only moves forward while a key's flap history
  keeps growing (see ``test_backoff_shrinks_once_flap_history_ages``);
* every diagnosis, including the re-diagnosis after a deferral, names a
  candidate that is hot in the scores of that instant;
* ``preempt`` leaves the reactive state (scores, ladders, tried sets, the
  last action's end, backoff and flap history) untouched.
"""

import copy

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core import (
    FailureKind,
    FailureReport,
    HardeningPolicy,
    RecoveryManager,
    RecoveryStormLimiter,
)
from tests.toyapp import URL_PATH_MAP, build_toy_system

URLS = sorted(URL_PATH_MAP)
KINDS = (
    FailureKind.HTTP_ERROR,
    FailureKind.HTTP_ERROR,
    FailureKind.TIMEOUT,
    FailureKind.APP_SPECIFIC,
    FailureKind.RESOURCE_EXHAUSTION,
)
COMPONENTS = ("Account", "Audit", "Greeter", "Ledger", "Transfer", "Nobody")

#: Reactive recovery state besides the ladders (which carry each
#: incident's tried set and last action's end).
REACTIVE_FIELDS = (
    "scores",
    "_recent_reports",
    "_node_last_end",
    "_recovery_history",
    "_backoff_until",
)


def ladder_state(ladder):
    return (
        ladder.key,
        ladder.last_action_end,
        ladder.last_level_index,
        ladder.last_action_ok,
        frozenset(ladder.tried),
        ladder.ejb_attempts,
    )


def reactive_state(rm):
    state = {name: copy.deepcopy(getattr(rm, name))
             for name in REACTIVE_FIELDS}
    state["ladders"] = {
        key: ladder_state(ladder) for key, ladder in rm._ladders.items()
    }
    state["node_ladder"] = ladder_state(rm._node_ladder)
    return state


def url_through(component):
    for url in URLS:
        if component in URL_PATH_MAP[url]:
            return url
    return None


class RecoveryMachine(RuleBasedStateMachine):
    PARALLEL = False
    HARDENED = False

    def __init__(self):
        super().__init__()
        self.system = build_toy_system()
        self.kernel = self.system.kernel
        self.kernel.trace.enabled = True
        hardening = HardeningPolicy(
            enabled=self.HARDENED,
            parallel_recovery=self.PARALLEL,
            flap_debounce=1.0,
            flap_threshold=2,
            quarantine_ttl=30.0,
        )
        limiter = None
        if self.HARDENED:
            limiter = RecoveryStormLimiter(
                self.kernel, limit=1, window=20.0, window_limit=3
            )
        self.rm = RecoveryManager(
            self.kernel,
            self.system.coordinator,
            URL_PATH_MAP,
            score_threshold=3,
            escalation_window=45.0,
            recurring_limit=30,
            hardening=hardening,
            storm_limiter=limiter,
        )
        self.rm.start()
        #: id(action) -> action, between its begin and end listeners.
        self.inflight = {}
        self.rm.begin_listeners.append(self._on_begin)
        self.rm.listeners.append(
            lambda action: self.inflight.pop(id(action), None)
        )
        self.kernel.trace.subscribe(self._on_diagnosis, "rm.diagnosis")
        self.backoff_seen = {}
        self.history_seen = {}

    # ------------------------------------------------------------------
    # Checks that must hold at the instant something happens
    # ------------------------------------------------------------------
    def _on_begin(self, action):
        for other in self.inflight.values():
            assert not self.PARALLEL, (
                f"one node-wide group ran {action.level} {action.target} "
                f"while {other.level} {other.target} was in flight"
            )
            assert action.level == "ejb" and other.level == "ejb", (
                f"node-wide {action.level}/{other.level} action overlapped"
            )
            assert not self.rm.recovery_graph.conflicts(
                set(action.target), set(other.target)
            ), f"{action.target} overlapped conflicting {other.target}"
        self.inflight[id(action)] = action

    def _on_diagnosis(self, event):
        rm = self.rm
        scores = {}
        for _time, path, weight in rm._recent_reports:
            for component in path:
                scores[component] = scores.get(component, 0.0) + weight
        assert rm.scores == scores, "scores drifted from the evidence"
        candidate = event.fields["candidate"]
        if candidate is not None:
            assert rm.scores.get(candidate, 0.0) >= rm.score_threshold
            assert candidate not in rm.active_quarantines()

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(
        url=st.sampled_from(URLS),
        kind=st.sampled_from(KINDS),
        count=st.integers(min_value=1, max_value=4),
        age=st.sampled_from((0.0, 0.0, 0.0, 0.5, 5.0)),
    )
    def report(self, url, kind, count, age):
        stamp = max(0.0, self.kernel.now - age)
        for _ in range(count):
            self.rm.report(
                FailureReport(
                    time=stamp,
                    url=url,
                    operation=url.rsplit("/", 1)[-1],
                    kind=kind,
                )
            )
        self.kernel.run(until=self.kernel.now + 0.01)

    @rule(url=st.sampled_from(URLS), count=st.integers(min_value=3, max_value=6))
    def burst(self, url, count):
        self.report(url, FailureKind.HTTP_ERROR, count, 0.0)

    @rule(dt=st.sampled_from((0.05, 0.3, 2.0, 10.0, 30.0, 50.0)))
    def advance(self, dt):
        self.kernel.run(until=self.kernel.now + dt)

    @rule(component=st.sampled_from(COMPONENTS))
    def preempt(self, component):
        rm = self.rm
        quiet = not rm.recovering and not len(rm.inbox)
        before = reactive_state(rm)
        action = rm.preempt(component)
        assert reactive_state(rm) == before
        if action is None or not quiet:
            return
        # With nothing else in flight, running the preemptive µRB to
        # completion must not touch reactive state either.
        for _ in range(100):
            if action.finished_at is not None:
                break
            self.kernel.run(until=self.kernel.now + 0.05)
        assert action.finished_at is not None
        assert reactive_state(rm) == before

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def one_group_runs_one_action(self):
        if not self.PARALLEL:
            assert len(self.inflight) <= 1

    @invariant()
    def quarantine_is_half_open(self):
        rm = self.rm
        for name, until in rm.quarantined.items():
            url = url_through(name)
            if url is None:
                continue
            path = URL_PATH_MAP[url]
            # Another quarantine on the same path may still be running.
            others = any(
                other_until > until
                for other, other_until in rm.quarantined.items()
                if other != name and other in path
            )
            for stamp, explained in ((until, others), (until - 1e-6, True)):
                report = FailureReport(
                    time=stamp, url=url, operation="x",
                    kind=FailureKind.HTTP_ERROR,
                )
                assert rm._explained_by_quarantine(report) == explained

    @invariant()
    def backoff_only_moves_forward(self):
        rm = self.rm
        for key, until in rm._backoff_until.items():
            history = rm._recovery_history.get(key, [])
            previous = self.backoff_seen.get(key)
            if (
                previous is not None
                and len(history) >= self.history_seen.get(key, 0)
            ):
                assert until >= previous, f"backoff of {key} moved back"
            self.backoff_seen[key] = until
            self.history_seen[key] = len(history)

    @invariant()
    def limiter_slots_are_released(self):
        limiter = self.rm.storm_limiter
        if limiter is not None and not self.rm.recovering:
            assert limiter.active == 0


def machine(parallel, hardened):
    cls = type(
        f"Machine_parallel{parallel}_hardened{hardened}",
        (RecoveryMachine,),
        {"PARALLEL": parallel, "HARDENED": hardened},
    )
    cls.TestCase.settings = settings(
        max_examples=15,
        stateful_step_count=30,
        deadline=None,
        derandomize=True,
    )
    return cls.TestCase


TestOneGroupPlain = machine(parallel=False, hardened=False)
TestOneGroupHardened = machine(parallel=False, hardened=True)
TestGroupsPlain = machine(parallel=True, hardened=False)
TestGroupsHardened = machine(parallel=True, hardened=True)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: a flap strike can shorten a backoff in force",
)
def test_backoff_shrinks_once_flap_history_ages():
    """A strike must not shorten a backoff set moments earlier.

    A key's backoff is ``at + base * factor ** (repeats - 1)``, and the
    repeat count only covers ``flap_window``.  When older entries age out
    between two records, the later record sets an earlier ``until`` than
    the one already in force (here 266 s after 299 s).  The fix, keeping
    the later of the two, changes recovery timing and so lands on its own.
    """
    system = build_toy_system()
    rm = RecoveryManager(
        system.kernel,
        system.coordinator,
        URL_PATH_MAP,
        hardening=HardeningPolicy.hardened(),
    )
    for at in (0.0, 5.0, 179.0):
        rm._record_repeat("Greeter", at)
    in_force = rm._backoff_until["Greeter"]
    rm._record_repeat("Greeter", 186.0)
    assert rm._backoff_until["Greeter"] >= in_force
