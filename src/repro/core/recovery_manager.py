"""The recovery manager (§4): diagnosis scores + the recursive policy.

The RM listens (on the simulated analogue of a UDP port) for failure
reports from the monitors, each carrying the failed URL and the failure
type.  Using a static URL-prefix → call-path map, it increments a score for
every component on the path of a failed URL and recovers when a score
crosses a hand-tuned threshold, always trying the cheapest action first:

    EJB µRB → WAR µRB → application restart → JVM restart → OS reboot
    → notify a human.

Diagnosis is deliberately "simplistic ... often yields false positives"
(§4) — the paper's point is that µRBs are cheap enough to tolerate sloppy
diagnosis.  One refinement mirrors the rejuvenation service: reports whose
failure kind is resource exhaustion are diagnosed by heap attribution (the
biggest leaker gets microrebooted) rather than by call-path scores.

A second, opt-in diagnosis mode (``diagnosis="path-analysis"``) replaces
the static map with the live Pinpoint-style anomaly ranking of a
:class:`~repro.diagnosis.PathAnalyzer` fed by the span layer: µRB targets
are picked by observed failed-vs-successful path membership, falling back
to the static map while too few paths have been observed.  The static mode
stays the default so the paper's Table 1–4 experiments reproduce unchanged.

Every recovery goes through one pipeline — decide, gate, execute — on an
escalation ladder kept per *dependency group*: a group's µRBs climb its
own EJB rung, and the node-wide rungs (WAR and coarser) climb one node
ladder and are node-exclusive.  ``HardeningPolicy.parallel_recovery``
picks the grouping:

* off (the default, the paper's §4 pipeline): one group spans the node.
  Its ladder *is* the node ladder, so one recovery runs at a time, and
  reports queued during it are stale and dropped.
* on: the groups of a :class:`~repro.core.recovery_graph.RecoveryGraph`
  (static descriptor edges merged with the analyzer's observed call
  paths).  Independent components microreboot concurrently while actions
  within one group stay serialized; the shared storm limiter is the
  global concurrency cap.  Dispatch demands a localized culprit: a
  *specific* (non-web) component must cross the score threshold, or the
  web component must reach twice the threshold, before anything runs —
  so a multi-component burst is not coarsened just because every failing
  path crosses the WAR.  Dispatch order is deterministic (sorted group
  keys, one dispatch per report), preserving the same-seed ⇒ same-trace
  contract.

Backoff, quarantine and defer semantics are the same under both groupings,
and per target.
"""

import enum
from dataclasses import dataclass, field

from repro.appserver.http import longest_prefix
from repro.core.hardening import HardeningPolicy
from repro.core.recovery_graph import RecoveryGraph
from repro.diagnosis.path_analysis import PathAnalyzer
from repro.sim.resources import Queue
from repro.telemetry.metrics import MetricsRegistry


class FailureKind(enum.Enum):
    """What a monitor observed (the §4 detector taxonomy)."""

    NETWORK = "network"  # cannot connect / connection reset
    HTTP_ERROR = "http-error"  # 4xx or 5xx status
    KEYWORD = "keyword"  # failure keywords in a 200 page
    APP_SPECIFIC = "app-specific"  # negative ids, login loop, ...
    COMPARISON_MISMATCH = "comparison"  # differs from known-good instance
    RESOURCE_EXHAUSTION = "resource-exhaustion"  # OOM signatures
    TIMEOUT = "timeout"  # no response within the client's patience
    PREDICTED = "predicted"  # no failure yet: a health alert predicted one


@dataclass
class FailureReport:
    """One monitor observation delivered to the RM."""

    time: float
    url: str
    operation: str
    kind: FailureKind
    detail: str = ""
    client_id: int = 0
    #: Session cookie of the failing client, when it had one: lets a
    #: cluster rig attribute the report to the node holding that session.
    cookie: str = None


@dataclass
class RecoveryAction:
    """One recovery the RM performed (for timelines and assertions)."""

    decided_at: float
    level: str
    target: tuple
    trigger: FailureKind
    finished_at: float = None
    #: Set when the action itself raised; the RM records it and moves on.
    error: str = None

    @property
    def ok(self):
        return self.error is None


@dataclass
class _GroupLadder:
    """Escalation state for one dependency group's incident.

    Keyed by the group's canonical name, so two independent components
    escalating at once never share attempts, tried sets, or level state.
    """

    key: str
    last_action_end: float = None
    last_level_index: int = -1
    last_action_ok: bool = True
    tried: set = field(default_factory=set)
    ejb_attempts: int = 0


@dataclass
class _Inflight:
    """One dispatched-but-unfinished recovery."""

    action: "RecoveryAction"
    level_index: int
    #: The ladder the action climbs; None for a preemptive µRB, which
    #: belongs to no incident.
    ladder: _GroupLadder
    #: Expanded component targets, or None for node-exclusive actions
    #: (which conflict with everything).
    targets: frozenset = None
    candidate: str = None
    #: Holds a storm-limiter slot to release on completion.
    admitted: bool = False


#: The recursive policy's escalation ladder (§4).
LEVELS = ("ejb", "war", "application", "jvm", "os", "human")
_WAR = LEVELS.index("war")
_JVM = LEVELS.index("jvm")

#: Levels whose recovery disrupts the entire node.  For backoff accounting
#: they share one key: an application restart followed immediately by a JVM
#: restart followed by an OS reboot is one node being recycled three times,
#: not three independent recoveries.
NODE_WIDE_LEVELS = ("application", "jvm", "os")


class RecoveryManager:
    """Automated failure diagnosis and recursive recovery.

    With one group spanning the node (``self.one_group``) the ladder is
    the paper's serial pipeline.  Four differences do not fall out of the
    grouping, and each stays a branch on that one fact:

    1. :meth:`_group` — a µRB's group is the whole node (None,
       node-exclusive) rather than its expanded recovery group.
    2. :meth:`_demanded` — the web component's score alone demands
       recovery at the plain threshold.  With many groups it must reach
       twice the threshold, since every failing path crosses the WAR.
    3. :meth:`_dispatch` — the one ladder is known before any diagnosis.
       So a busy node declines at once, and an open incident coarsens
       without a diagnosis when its ladder is spent, the report is
       resource exhaustion, or no untried candidate is hot.
    4. :meth:`_run` — the action runs inline in the event loop, and the
       reports queued meanwhile are dropped: they predate it.
    """

    def __init__(
        self,
        kernel,
        coordinator,
        url_path_map,
        node_controller=None,
        score_threshold=3,
        escalation_window=45.0,
        recurring_limit=8,
        recurring_window=600.0,
        policy="recursive",
        post_recovery_grace=30.0,
        max_ejb_attempts=2,
        score_window=25.0,
        kind_weights=None,
        metrics=None,
        diagnosis="static-map",
        path_analyzer=None,
        hardening=None,
        storm_limiter=None,
    ):
        if policy not in ("recursive", "process-restart"):
            raise ValueError(f"unknown recovery policy {policy!r}")
        if diagnosis not in ("static-map", "path-analysis"):
            raise ValueError(f"unknown diagnosis mode {diagnosis!r}")
        self.kernel = kernel
        self.coordinator = coordinator
        self.url_path_map = dict(url_path_map)
        self.node_controller = node_controller
        self.score_threshold = score_threshold
        self.escalation_window = escalation_window
        self.recurring_limit = recurring_limit
        self.recurring_window = recurring_window
        #: "recursive" is the paper's cheapest-first ladder; the
        #: "process-restart" policy restarts the JVM on every recovery —
        #: the baseline Figure 1 compares microreboots against.
        self.policy = policy
        #: Reports stamped before last-recovery-end + grace are dropped:
        #: right after a recovery, residual failures (e.g. one login
        #: prompt per client whose session a JVM restart destroyed) are
        #: expected and must not immediately re-trigger recovery.
        self.post_recovery_grace = post_recovery_grace
        #: How many distinct EJB targets to try before coarsening.
        self.max_ejb_attempts = max_ejb_attempts
        #: component -> number of mapped URL prefixes containing it; used
        #: to prefer components *specific* to the failing URLs over ones
        #: (like entity beans) that appear on almost every path.
        self._paths_containing = {}
        for path in self.url_path_map.values():
            for component in path:
                self._paths_containing[component] = (
                    self._paths_containing.get(component, 0) + 1
                )
        #: Scores are computed over a sliding window so a brief, self-
        #: healing burst (e.g. each client's one login prompt after a JVM
        #: restart lost the sessions) decays instead of accumulating
        #: towards the threshold forever.
        self.score_window = score_window
        #: Failure kinds may be down-weighted; application-specific
        #: login prompts are characteristically self-healing (the client
        #: re-logs-in), so they count less towards recovery decisions.
        self.kind_weights = dict(kind_weights or {FailureKind.APP_SPECIFIC: 0.2})
        self._recent_reports = []  # (time, path components, weight)

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._reports_received = self.metrics.counter("rm.reports.received")
        self._reports_stale = self.metrics.counter("rm.reports.stale")
        self._actions_by_level = self.metrics.family("rm.actions.by_level")
        self._action_errors = self.metrics.counter("rm.actions.errors")
        self._diagnosis_by_mode = self.metrics.family("rm.diagnosis.by_mode")

        #: Pipeline hardening (off by default — the paper's pipeline).
        self.hardening = hardening if hardening is not None else HardeningPolicy.disabled()
        #: Shared cluster-wide limiter, or None (no storm limiting).
        self.storm_limiter = storm_limiter
        #: backoff key (component name or level) -> recent recovery times.
        self._recovery_history = {}
        #: backoff key -> simulated time before which it may not recover.
        self._backoff_until = {}
        #: component -> quarantine expiry time.
        self.quarantined = {}
        self._backoff_deferred = self.metrics.counter("rm.backoff.deferred")
        self._quarantines = self.metrics.counter("rm.quarantine.count")
        self._reports_quarantined = self.metrics.counter("rm.reports.quarantined")

        #: "static-map" (the paper's §4 diagnosis) or "path-analysis"
        #: (Pinpoint-style ranking fed by the span layer).
        self.diagnosis = diagnosis
        if diagnosis == "path-analysis" and path_analyzer is None:
            path_analyzer = PathAnalyzer(kernel=kernel)
        self.path_analyzer = path_analyzer
        #: Audit log of every EJB-level target choice: which mode produced
        #: it and what the analyzer saw at that moment.
        self.diagnosis_log = []

        #: The grouping: the dependency groups of a RecoveryGraph, or
        #: (None) one group spanning the node — the paper's serial
        #: pipeline.  ``parallel_recovery`` is the only selector.
        self.recovery_graph = None
        if self.hardening.parallel_recovery:
            if policy != "recursive":
                raise ValueError(
                    "parallel recovery requires the recursive policy "
                    "(process-restart has no per-group ladder to parallelize)"
                )
            self.recovery_graph = RecoveryGraph(
                self.server.descriptors_for(coordinator.app_name),
                analyzer=self.path_analyzer,
            )
        self.one_group = self.recovery_graph is None

        #: Escalation state: one ladder per dependency group (none under
        #: one group) plus the node ladder for the node-wide rungs, which
        #: under one group is the group's own ladder; in-flight
        #: dispatches; per-component and node-wide staleness cutoffs.
        self._ladders = {}
        self._node_ladder = _GroupLadder("node")
        self._inflight = []
        self._component_last_end = {}
        self._node_last_end = None
        self._dispatch_seq = 0

        self.inbox = Queue(kernel)
        self.scores = {}
        self.actions = []
        self.human_notified = False
        self._process = None
        #: Observers called with each completed RecoveryAction (the load
        #: balancer hooks in here for failover coordination, §5.3).
        self.listeners = []
        #: Observers called with each RecoveryAction *before* it executes
        #: (cluster rigs open the failover window here).
        self.begin_listeners = []
        #: Observers called as ``listener(component, active_set)`` when a
        #: quarantine begins or lifts; cluster rigs steer requests for
        #: quarantined components to healthy nodes (§6.1 microfailover).
        self.quarantine_listeners = []
        #: Observers called as ``listener(reason, level, targets, ttl)``
        #: when a recovery is deferred (backoff/storm).  A deferred
        #: node-wide recovery means "this node is sick but rebooting it
        #: again now would hurt more" — cluster rigs tell the load
        #: balancer to route around the node for the backoff's remainder
        #: (the ``ttl``).
        self.defer_listeners = []

    @property
    def recovering(self):
        """True while any recovery, reactive or preemptive, is in flight."""
        return bool(self._inflight)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def server(self):
        return self.coordinator.server

    def start(self):
        """Spawn the RM's event loop."""
        if self._process is None or not self._process.is_alive:
            self._process = self.kernel.process(self._run(), name="recovery-manager")
        return self._process

    def report(self, failure_report):
        """Deliver one failure report (monitors call this)."""
        self.inbox.put(failure_report)

    # ------------------------------------------------------------------
    # Diagnosis
    # ------------------------------------------------------------------
    def path_for_url(self, url):
        """Longest-prefix match into the static URL → call-path map."""
        best = longest_prefix(url, self.url_path_map)
        return list(self.url_path_map.get(best, ()))

    def _score(self, report):
        weight = self.kind_weights.get(report.kind, 1.0)
        self._recent_reports.append(
            (report.time, tuple(self.path_for_url(report.url)), weight)
        )
        self._refresh_scores()

    def _refresh_scores(self):
        """Recompute ``self.scores`` over the sliding window."""
        horizon = self.kernel.now - self.score_window
        self._recent_reports = [
            entry for entry in self._recent_reports if entry[0] >= horizon
        ]
        scores = {}
        for _time, path, weight in self._recent_reports:
            for component in path:
                scores[component] = scores.get(component, 0.0) + weight
        self.scores = scores

    def _top_candidate(self, exclude):
        """Best EJB candidate not yet tried this incident.

        Ranked by *specificity-weighted* score: a component's raw score
        divided by how many mapped URLs contain it.  A bean serving only
        the failing URL outranks an entity bean that sits on most paths,
        even when their raw scores tie — without this, shared substrates
        absorb the blame for every failure above them.
        """
        war = self.server.web_component_name
        candidates = [
            (score / self._paths_containing.get(name, 1), score, name)
            for name, score in self.scores.items()
            if score >= self.score_threshold
            and name != war
            and name not in exclude
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda entry: (-entry[0], -entry[1], entry[2]))
        return candidates[0][2]

    def _path_candidate(self, exclude):
        """Best untried target from the live anomaly ranking, or None.

        Returns None (deferring to the static map) while the analyzer has
        not yet observed enough paths — and enough *failed* paths — for
        the chi-square statistic to mean anything, or when everything it
        implicates has already been tried this incident.
        """
        analyzer = self.path_analyzer
        if analyzer is None or not analyzer.ready():
            return None
        war = self.server.web_component_name
        for name, _score in analyzer.rank():
            if name == war or name in exclude:
                continue
            if name not in self.server.containers:
                continue
            return name
        return None

    def _candidate(self, exclude, record=False):
        """Best untried EJB µRB target under the configured diagnosis mode."""
        mode, candidate = "static-map", None
        if self.diagnosis == "path-analysis":
            candidate = self._path_candidate(exclude)
            mode = "path-analysis" if candidate is not None else "static-fallback"
        if candidate is None:
            candidate = self._top_candidate(exclude)
        if record:
            self._record_diagnosis(mode, candidate)
        return candidate

    def _record_diagnosis(self, mode, candidate):
        """Append to the audit log and publish an ``rm.diagnosis`` event."""
        entry = {"time": self.kernel.now, "mode": mode, "candidate": candidate}
        if self.path_analyzer is not None:
            entry.update(self.path_analyzer.explain(limit=3))
        self.diagnosis_log.append(entry)
        self._diagnosis_by_mode.inc(mode)
        self.kernel.trace.publish(
            "rm.diagnosis",
            server=self.server.name,
            mode=mode,
            candidate=candidate,
            paths=entry.get("paths"),
            failed=entry.get("failed"),
            ranking=tuple(
                f"{name}:{score}" for name, score in entry.get("ranking") or ()
            ),
        )

    def _biggest_leaker(self):
        """Memory-attribution diagnosis for resource-exhaustion reports."""
        for owner in self.server.heap.owners_by_leak():
            if owner in self.server.containers:
                return owner
        return None

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def _run(self):
        while True:
            report = yield self.inbox.get()
            self._reports_received.inc()
            self.kernel.trace.publish(
                "rm.report",
                server=self.server.name,
                url=report.url,
                failure=report.kind.value,
                client=report.client_id,
            )
            if self._is_stale(report):
                continue
            if self.quarantined and self._explained_by_quarantine(report):
                # The failure is already explained: a quarantined (flapping)
                # component sits on the failed URL's path and is answering
                # fast 503s by design.  Feeding the report into the scores
                # would just re-trigger the reboot loop quarantine exists
                # to break.
                self._reports_quarantined.inc()
                self.kernel.trace.publish(
                    "rm.report.quarantined", server=self.server.name,
                    url=report.url, failure=report.kind.value,
                )
                continue
            self._score(report)
            entry = self._dispatch(report)
            if entry is None:
                continue
            if self.one_group:
                # The paper's pipeline: recover inline; reports queued
                # meanwhile predate the recovery and are stale.
                yield from self._execute(entry)
                self.inbox.drain()
            else:
                self._spawn(self._execute(entry), "recovery")

    def _spawn(self, body, kind):
        self._dispatch_seq += 1
        self.kernel.process(
            body, name=f"rm-{self.server.name}-{kind}-{self._dispatch_seq}"
        )

    def _is_stale(self, report):
        """Drop reports that predate the recovery that would answer them.

        A report is stale when it predates the last finished recovery of a
        component *on its own path*, or the last node-wide recovery (under
        one group, every recovery).  Evidence about one group is not
        discarded because an independent group just finished recovering.
        """
        cutoff = self._node_last_end or 0.0
        for component in self.path_for_url(report.url):
            cutoff = max(cutoff, self._component_last_end.get(component, 0.0))
        if report.time < cutoff:
            self._reports_stale.inc()
            return True
        # Expected aftermath: a session-destroying recovery produces one
        # login prompt per client; give the population time to re-log-in
        # before reacting.  µRBs preserve sessions, so only node-wide
        # recoveries open the grace window.
        return (
            self._node_last_end is not None
            and report.kind is FailureKind.APP_SPECIFIC
            and report.time < self._node_last_end + self.post_recovery_grace
        )

    # ------------------------------------------------------------------
    # Decide and gate
    # ------------------------------------------------------------------
    def _demanded(self, report):
        """Is there enough evidence to recover at all?

        With many groups, dispatch demands a *localized* culprit: during a
        multi-component burst every failing path crosses the web
        component, so its raw score crosses threshold while the specific
        beans are still accumulating — and acting on that alone would
        coarsen exactly the incidents independent groups exist to keep
        fine-grained.  The web component alone must therefore reach twice
        the threshold.
        """
        if report.kind is FailureKind.RESOURCE_EXHAUSTION:
            return True
        war = self.server.web_component_name
        war_threshold = self.score_threshold * (1 if self.one_group else 2)
        return any(
            score >= (war_threshold if name == war else self.score_threshold)
            for name, score in self.scores.items()
        )

    def _group(self, candidate):
        """The targets a µRB of ``candidate`` conflicts on.

        Its expanded recovery group, or None (node-exclusive) when one
        group spans the node.
        """
        if self.one_group:
            return None
        try:
            return frozenset(self.coordinator.expand_targets([candidate]))
        except Exception:  # noqa: BLE001 — unknown to the coordinator
            # (e.g. a stale URL-map name): dispatch the bare candidate
            # anyway; the execution hits the same error, records an
            # errored action, and still advances the candidate's backoff
            # key.
            return frozenset((candidate,))

    def _conflicts(self, targets, entry):
        if targets is None or entry.targets is None:
            return True  # a node-exclusive action conflicts with everything
        return self.recovery_graph.conflicts(targets, entry.targets)

    def _ladder_for(self, targets):
        if targets is None:
            return self._node_ladder
        key = self.recovery_graph.group_key(targets)
        ladder = self._ladders.get(key)
        if ladder is None:
            ladder = _GroupLadder(key)
            self._ladders[key] = ladder
        return ladder

    def _reset_stale_ladders(self, now):
        """Ladders quiet past the escalation window start fresh incidents."""
        busy = [entry.ladder for entry in self._inflight]

        def stale(ladder):
            return (
                ladder.last_action_end is not None
                and now - ladder.last_action_end > self.escalation_window
                and not any(ladder is other for other in busy)
            )

        self._ladders = {
            key: ladder for key, ladder in self._ladders.items()
            if not stale(ladder)
        }
        if stale(self._node_ladder):
            self._node_ladder = _GroupLadder("node")

    def _spent(self, ladder):
        """Is this ladder's fine grain used up within its incident?"""
        return (
            ladder.last_level_index > 0
            # An errored µRB is evidence the fine-grained machinery itself
            # is hurt; coarsen instead of retrying at the same grain.
            or not ladder.last_action_ok
            or ladder.ejb_attempts >= self.max_ejb_attempts
        )

    def _dispatch(self, report):
        """Decide and gate one recovery; returns its in-flight entry or None.

        Recursive policy: try finer targets first, escalate when stuck.  A
        group quiet past the escalation window starts back at the EJB
        rung; within an incident another µRB is attempted while untried
        hot candidates remain (up to ``max_ejb_attempts``), after which
        the node-wide rungs are climbed.  A hot candidate whose group is
        already recovering is skipped (its group stays serialized) and
        the next-hottest *independent* candidate is considered instead.
        Candidates are re-diagnosed from the current scores on every
        dispatch — a deferred recovery never acts on a candidate captured
        earlier.
        """
        if self.human_notified or not self._demanded(report):
            return None
        now = self.kernel.now
        resource = report.kind is FailureKind.RESOURCE_EXHAUSTION
        self._reset_stale_ladders(now)
        exclude = self.active_quarantines().union(
            self._node_ladder.tried,
            *(ladder.tried for ladder in self._ladders.values()),
        )
        if self.one_group:
            # The one ladder is known before any diagnosis: a busy node
            # declines, and an open incident whose fine grain is used up
            # (or whose report is exhaustion) climbs without diagnosing.
            if self._inflight:
                return None
            ladder = self._node_ladder
            if self.policy == "process-restart" or (
                ladder.last_action_end is not None
                and (
                    resource
                    or self._spent(ladder)
                    or self._candidate(exclude) is None
                )
            ):
                return self._dispatch_coarse(report, now, resource)
        skip = set()
        while True:
            if resource:
                candidate = self._biggest_leaker()
                if candidate is not None and self._in_backoff(candidate, now):
                    # The leaker was µRB'd recently and the heap is
                    # exhausted *again*: deferring would leave the node
                    # in OOM meltdown until the backoff lapses (every
                    # request fails, and each report re-extends the
                    # backoff via the flap strike).  Exhaustion does not
                    # pass on its own — count the flap evidence, then
                    # coarsen: the node-wide rungs free every
                    # component's leak at once.
                    self._flap_strike(candidate)
                    candidate = None
                if candidate in exclude | skip:
                    candidate = None
            else:
                candidate = self._candidate(exclude | skip, record=True)
            if candidate is None:
                return self._dispatch_coarse(report, now, resource)
            targets = self._group(candidate)
            ladder = self._ladder_for(targets)
            if self._spent(ladder):
                # This group's fine grain is spent within its incident:
                # walk the node-wide rungs instead.
                return self._dispatch_coarse(report, now, resource)
            if not resource and self._in_backoff(candidate, now):
                # The chosen target is still inside its backoff: wait it
                # out rather than recycling the component.
                self._flap_strike(candidate)
                return self._defer("backoff", "ejb", (candidate,))
            if any(self._conflicts(targets, entry) for entry in self._inflight):
                if resource:
                    return None  # its group is mid-recovery: wait, don't coarsen
                # Same dependency group already recovering: stay
                # serialized within the group, look for an independent
                # candidate instead.
                skip |= targets
                skip.add(candidate)
                continue
            named = () if targets is None else (candidate,)
            entry = self._launch(0, report.kind, ladder, targets, candidate, named)
            if entry is not None:
                ladder.tried.update(targets or ())
                ladder.ejb_attempts += 1
            return entry

    def _dispatch_coarse(self, report, now, resource):
        """The node-wide rungs (WAR and coarser) are node-exclusive."""
        if self._inflight:
            # Wait for the in-flight recoveries: scores survive, so the
            # escalation is retried on the next report once the node is
            # quiet.
            return None
        ladder = self._node_ladder
        if self.policy == "process-restart":
            level_index = _JVM
        else:
            level_index = min(
                max(ladder.last_level_index + 1, _WAR), len(LEVELS) - 1
            )
        level = LEVELS[level_index]
        hardening = self.hardening
        if hardening.enabled and level == "war" and not resource:
            # About to coarsen beyond single-component µRBs — but when the
            # hottest candidate overall (tried this incident or not) is a
            # component we recently recovered and it is still in backoff,
            # the recovery evidently did not stick.  That is flap
            # evidence: grounds for waiting (and eventually quarantining
            # the flapper), not for escalating to a far more disruptive
            # level.
            hot = self._candidate(self.active_quarantines())
            if hot is not None and self._in_backoff(hot, now):
                self._flap_strike(hot)
                return self._defer("backoff", level, (hot,))
        if hardening.enabled and level != "human":
            key = "node" if level in NODE_WIDE_LEVELS else level
            if now < self._backoff_until.get(key, 0.0):
                # A coarse recovery just ran (or was recently deferred):
                # give the node room to breathe — and external trouble
                # (a flaky LB link, a slow disk) time to pass — before
                # recycling it at an even coarser grain.
                return self._defer("backoff", level, ())
        return self._launch(level_index, report.kind, ladder, None, None, ())

    def _launch(self, level_index, trigger, ladder, targets, candidate, named):
        """Take a storm-limiter slot and register the recovery as in flight.

        The storm limiter is the global concurrency cap.  A denied
        recovery is deferred, not cancelled: scores survive, and the next
        report re-diagnoses from scratch.  Returns the in-flight entry, or
        None when deferred.
        """
        level = LEVELS[level_index]
        limited = self.storm_limiter is not None and level != "human"
        if limited and not self.storm_limiter.admit(who=self.server.name):
            return self._defer("storm", level, named)
        action = RecoveryAction(
            decided_at=self.kernel.now,
            level=level,
            target=() if candidate is None else (candidate,),
            trigger=trigger,
        )
        entry = _Inflight(
            action, level_index, ladder, targets, candidate, admitted=limited
        )
        self._inflight.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------
    def _execute(self, entry):
        """Generator: run one admitted recovery to completion.

        The one act/record contract: an action that raises is recorded
        like any other, its storm slot released and its backoff advanced,
        so a failed action cannot wedge the RM.  A preemptive µRB (no
        ladder) skips the incident bookkeeping: scores, tried sets,
        ladders and backoff/flap history stay exactly as they were.
        """
        action, ladder = entry.action, entry.ladder
        level = action.level
        preemptive = ladder is None
        marks = {"preemptive": True} if preemptive else {}
        try:
            # Everything from here on runs inside the action: group
            # expansion can raise (a stale URL-map name unknown to the
            # coordinator), and when it does the admitted storm-limiter
            # slot must still be released and the candidate's backoff key
            # must still advance — otherwise storms of failing actions
            # wedge the limiter.
            if level == "ejb":
                action.target = tuple(
                    self.coordinator.expand_targets([entry.candidate])
                )
                if not preemptive:
                    ladder.tried.update(action.target)
            self.kernel.trace.publish(
                "rm.decision",
                server=self.server.name,
                level=level,
                target=action.target,
                trigger=action.trigger.value,
                **marks,
            )
            for listener in self.begin_listeners:
                listener(action)
            if level == "ejb":
                yield from self.coordinator.microreboot(list(action.target))
            elif level == "war":
                event = yield from self.coordinator.microreboot_war()
                action.target = event.components
            elif level == "application":
                event = yield from self.coordinator.restart_application()
                action.target = event.components
            elif level == "jvm":
                yield from self._restart_jvm()
            elif level == "os":
                yield from self._reboot_os()
            else:  # human
                self.human_notified = True
        except Exception as exc:  # noqa: BLE001 - a failed action must not
            # wedge the RM: it is recorded and the incident state moves on
            # exactly like the success path, so the ladder then tries the
            # next-coarser level.
            action.error = f"{type(exc).__name__}: {exc}"
            self._action_errors.inc()
            if not preemptive:
                # The ladder must not keep excluding targets that were
                # never actually recovered; the cleared ladder coarsens on
                # the next report via last_action_ok.
                ladder.tried = set()
                ladder.ejb_attempts = 0
        finally:
            finished = action.finished_at = self.kernel.now
            self.actions.append(action)
            self._actions_by_level.inc(level)
            self._inflight.remove(entry)
            if preemptive:
                for name in entry.targets or ():
                    self._component_last_end[name] = finished
            else:
                ladder.last_action_end = finished
                ladder.last_level_index = entry.level_index
                ladder.last_action_ok = action.ok
                self._forget_evidence(entry.targets, finished)
            self.kernel.trace.publish(
                "rm.action.end",
                server=self.server.name,
                level=level,
                target=action.target,
                ok=action.ok,
                error=action.error,
                duration=action.finished_at - action.decided_at,
                **marks,
            )
            if not preemptive:
                self._check_recurring()
            if entry.admitted:
                self.storm_limiter.release()
            # Deliberately NO _note_recovery for a preemptive µRB: it is
            # planned maintenance, not failure-driven recovery.  Counting
            # it toward flap detection would quarantine a slowly-leaking
            # component for being rejuvenated on schedule, and advancing
            # its backoff would defer the *reactive* recovery that an
            # actual failure needs.  The policy's per-component cooldown
            # is the preemption loop-guard (same contract as
            # RejuvenationService, whose rolling µRBs bypass the RM).
            if not preemptive and self.hardening.enabled and level != "human":
                self._note_recovery(level, action)
            for listener in self.listeners:
                listener(action)

    def _forget_evidence(self, components, finished):
        """Evidence through just-recycled components is stale; keep the rest.

        ``components`` None means the node itself was recycled (every
        action under one group), so all evidence predates it.  Otherwise
        only reports whose path touches the recovered components are
        dropped, so independent groups keep the evidence their own
        (possibly imminent) recoveries are based on.
        """
        if components is None:
            self._node_last_end = finished
            self._component_last_end = {}
            self.scores = {}
            self._recent_reports = []
            if self.path_analyzer is not None:
                # Paths observed before the recovery are as stale as the
                # scores: re-targeting must be based on post-recovery data.
                self.path_analyzer.clear()
            return
        for component in components:
            self._component_last_end[component] = finished
        self._recent_reports = [
            entry
            for entry in self._recent_reports
            if not (set(entry[1]) & components)
        ]
        self._refresh_scores()
        if self.path_analyzer is not None:
            self.path_analyzer.forget(components)

    # ------------------------------------------------------------------
    # Preemptive recovery (health alerts → µRB before failure)
    # ------------------------------------------------------------------
    def preempt(self, component):
        """Schedule a preemptive µRB of ``component`` (no failure yet).

        The entry point the proactive rejuvenation policy calls when a
        health alert predicts trouble.  A preemptive action *respects*
        the reactive safeguards — it declines while the target is
        quarantined, in backoff, or conflicting with a recovery in flight,
        and takes a storm-limiter slot — but deliberately leaves all
        reactive state alone: it neither advances backoff/flap counters
        (planned maintenance is not flapping; the policy cooldown guards
        against preempt loops) nor consumes the real incident's EJB
        attempts or escalation ladder.

        Returns the dispatched :class:`RecoveryAction`, or None when the
        preemption was declined (busy, quarantined, deferred, unknown
        component, or the RM already gave up to a human).
        """
        now = self.kernel.now
        if (
            self.human_notified
            or component not in self.server.containers
            or component in self.active_quarantines()
        ):
            return None
        if self._in_backoff(component, now):
            self._defer("backoff", "ejb", (component,))
            return None
        targets = self._group(component)
        if any(self._conflicts(targets, entry) for entry in self._inflight):
            return None
        entry = self._launch(
            0, FailureKind.PREDICTED, None, targets, component, (component,)
        )
        if entry is None:
            return None
        self._spawn(self._execute_preemptive(entry), "preempt")
        return entry.action

    def _execute_preemptive(self, entry):
        """Process body of a preemptive µRB (see :meth:`_execute`).

        Kept under its own name: the repository benchmark's traced run
        probes it (``perfbench/layers.py``).
        """
        yield from self._execute(entry)

    # ------------------------------------------------------------------
    # Hardening: backoff, flap quarantine, storm deferral
    # ------------------------------------------------------------------
    def _defer(self, reason, level, targets):
        """Skip this recovery without acting or mutating incident state.

        The failure scores survive untouched, so the recovery is retried
        on the next report once the backoff lapses or the storm window
        frees up — deferred, not cancelled.
        """
        if reason == "backoff":
            self._backoff_deferred.inc()
        self.kernel.trace.publish(
            "rm.recovery.deferred",
            server=self.server.name,
            reason=reason,
            level=level,
            targets=tuple(targets),
        )
        # How long the deferral holds: listeners (e.g. the LB routing
        # around a sick node) should not give up before the RM is even
        # allowed to act again.
        ttl = 0.0
        if reason == "backoff":
            if level == "ejb" and targets:
                keys = tuple(targets)
            elif level in NODE_WIDE_LEVELS:
                keys = ("node",)
            else:
                keys = (level,)
            until = max(
                (self._backoff_until.get(key, 0.0) for key in keys),
                default=0.0,
            )
            ttl = max(0.0, until - self.kernel.now)
        for listener in self.defer_listeners:
            listener(reason, level, tuple(targets), ttl)
        return None

    def active_quarantines(self):
        """Components currently quarantined (read-only; no pruning)."""
        now = self.kernel.now
        return {
            name for name, until in self.quarantined.items() if until > now
        }

    def _in_backoff(self, key, now):
        return self.hardening.enabled and now < self._backoff_until.get(key, 0.0)

    def _explained_by_quarantine(self, report):
        """True when a quarantined component sits on the report's path.

        Judged against the *report's own timestamp* with the half-open
        ``[begin, until)`` contract (the TawAccounting convention used
        throughout): a report stamped at exactly ``t == until`` is
        post-quarantine evidence — the sentinel was already unbound when
        the failure was observed — and must be scored, not suppressed.
        """
        active = {
            name
            for name, until in self.quarantined.items()
            if until > report.time
        }
        if not active:
            return False
        return bool(active & set(self.path_for_url(report.url)))

    def _record_repeat(self, key, at, level="ejb"):
        """Count one flap/backoff repeat for ``key``; returns the count.

        Each repeat inside ``flap_window`` extends the key's backoff
        exponentially.
        """
        hardening = self.hardening
        horizon = at - hardening.flap_window
        history = [
            t for t in self._recovery_history.get(key, ()) if t >= horizon
        ]
        history.append(at)
        self._recovery_history[key] = history
        repeats = len(history)
        backoff = min(
            hardening.backoff_max,
            hardening.backoff_base * hardening.backoff_factor ** (repeats - 1),
        )
        self._backoff_until[key] = at + backoff
        self.kernel.trace.publish(
            "rm.backoff.set",
            server=self.server.name,
            target=key,
            level=level,
            until=at + backoff,
            repeats=repeats,
        )
        return repeats

    def _flap_strike(self, name):
        """A target still in backoff is wanted again: count flap evidence.

        Debounced (``flap_debounce``) so one burst of failure reports
        registers as a single pulse; enough distinct pulses within
        ``flap_window`` quarantine the target.
        """
        now = self.kernel.now
        history = self._recovery_history.get(name, ())
        if history and now - history[-1] < self.hardening.flap_debounce:
            return
        repeats = self._record_repeat(name, now)
        if (
            repeats >= self.hardening.flap_threshold
            and name not in self.active_quarantines()
            and name in self.server.containers
        ):
            self._quarantine(name, now)

    def _note_recovery(self, level, action):
        """Record a finished recovery for backoff and flap accounting.

        EJB-level actions are keyed per component (the whole expanded
        recovery group); node-wide actions share the ``"node"`` key; the
        WAR level is keyed by its level string — so a node that keeps
        being recycled backs off exactly like a component that keeps
        flapping.
        """
        finished = action.finished_at
        if level == "ejb" and action.target:
            keys = list(action.target)
        elif level in NODE_WIDE_LEVELS:
            keys = ["node"]
        else:
            keys = [level]
        for key in keys:
            repeats = self._record_repeat(key, finished, level=level)
            if (
                level == "ejb"
                and repeats >= self.hardening.flap_threshold
                and key not in self.active_quarantines()
                and key in self.server.containers
            ):
                self._quarantine(key, finished)

    def _quarantine(self, name, now):
        """Flap detected: park ``name`` behind a fast-503 sentinel.

        Requests that would invoke the component get an immediate
        ``Retry-After`` answer (no threads killed, no transactions
        aborted), and reports explained by the quarantine are suppressed,
        breaking the reboot loop for ``quarantine_ttl`` seconds.
        """
        until = now + self.hardening.quarantine_ttl
        self.quarantined[name] = until
        self._quarantines.inc()
        retry_after = getattr(self.coordinator.retry_policy, "retry_after", 2.0)
        self.server.naming.bind_sentinel(name, retry_after)
        self.kernel.trace.publish(
            "rm.quarantine.begin", server=self.server.name,
            component=name, until=until,
        )
        self.kernel.process(
            self._lift_quarantine(name, until), name=f"quarantine-lift-{name}"
        )
        for listener in self.quarantine_listeners:
            listener(name, self.active_quarantines())

    def _lift_quarantine(self, name, until):
        """Generator: restore the component's binding at quarantine expiry."""
        yield self.kernel.timeout(max(0.0, until - self.kernel.now))
        if self.quarantined.get(name) != until:
            return  # re-quarantined meanwhile; that process owns the lift
        del self.quarantined[name]
        if self.server.naming.is_sentinel(name) and name in self.server.containers:
            self.server.naming.bind(name, name)
        self.kernel.trace.publish(
            "rm.quarantine.end", server=self.server.name, component=name
        )
        for listener in self.quarantine_listeners:
            listener(name, self.active_quarantines())

    def _restart_jvm(self):
        if self.node_controller is not None:
            yield from self.node_controller.restart_jvm()
        else:
            yield from self.server.restart_jvm()

    def _reboot_os(self):
        if self.node_controller is None:
            # No node abstraction (single-server rigs): a JVM restart is
            # the coarsest action available; escalate to the human next.
            yield from self.server.restart_jvm()
        else:
            yield from self.node_controller.reboot_os()

    def _check_recurring(self):
        """Notify a human on endless reboot cycles (§4)."""
        cutoff = self.kernel.now - self.recurring_window
        recent = [a for a in self.actions if a.finished_at >= cutoff]
        if len(recent) >= self.recurring_limit:
            self.human_notified = True
