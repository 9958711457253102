"""Shared scaffolding for the cluster experiments (§5.3)."""

import resource
import time
from collections import Counter

from repro.cluster.cluster import build_cluster
from repro.cluster.load_balancer import FailoverMode
from repro.core.hardening import RecoveryStormLimiter
from repro.core.recovery_manager import NODE_WIDE_LEVELS, RecoveryManager
from repro.ebid.descriptors import URL_PATH_MAP
from repro.experiments.common import PopulationRig
from repro.faults.chaos import COMPONENT_TARGETS
from repro.faults.injector import FaultInjector
from repro.observability import (
    ComponentHealthRegistry,
    EstimatorHub,
    IncidentTracker,
    SloEngine,
)
from repro.parallel import run_arms
from repro.telemetry.spans import SpanCollector
from repro.workload.client import ClientPopulation
from repro.workload.markov import WorkloadProfile


def wire_recovery_failover(rm, node, balancer):
    """LB coordination (§5.3): full failover for node-wide recoveries,
    component-scoped MICRO failover for µRBs — and for quarantines.

    A quarantined component answers fast 503s on its own node, but in a
    cluster the other nodes are healthy: keeping a MICRO failover window
    open for the quarantined components (§6.1) turns the quarantine from
    "requests fail fast" into "requests go elsewhere".

    The balancer holds one failover record per node, so with the parallel
    scheduler several overlapping µRBs must *union* their target sets:
    each begin/end re-asserts the union of every in-flight action's
    targets plus the active quarantines, and the window closes only when
    both are empty.

    Shared by every rig that pairs per-node recovery managers with a
    load balancer (chaos campaign, health prediction, megascale).
    """
    active_micro = {}

    def micro_union():
        union = set(rm.active_quarantines())
        for targets in active_micro.values():
            union |= targets
        return union

    def sync_micro(_name=None, _active=None):
        union = micro_union()
        if union:
            balancer.begin_failover(
                node, mode=FailoverMode.MICRO, components=union
            )
        else:
            balancer.end_failover(node)

    def begin(action):
        if action.level in NODE_WIDE_LEVELS:
            balancer.begin_failover(node, mode=FailoverMode.FULL)
        elif action.level in ("ejb", "war") and action.target:
            active_micro[id(action)] = set(action.target)
            sync_micro()

    def end(action):
        # Closing this action's failover window must not strand a
        # concurrent action's redirect or an active quarantine's:
        # re-assert the remaining union.
        active_micro.pop(id(action), None)
        sync_micro()

    def deferred(reason, level, targets, ttl):
        # A deferred coarse recovery = the RM knows this node is sick but
        # is letting it breathe.  Meanwhile, route traffic around it
        # (sessions live in the external store, so they can be served
        # anywhere) instead of feeding requests to a broken node — for
        # the whole backoff, not just one degraded-ttl window.
        if level != "ejb":
            balancer.note_degraded(
                node, f"recovery-deferred-{reason}", ttl=ttl
            )

    rm.begin_listeners.append(begin)
    rm.listeners.append(end)
    rm.quarantine_listeners.append(sync_micro)
    rm.defer_listeners.append(deferred)


class ClusterRecoveryRig:
    """The recovery pipeline and passive observers of the cluster rigs.

    The chaos rig (and the prediction campaign on it), megascale and storm
    all run one :class:`RecoveryManager` per node behind one shared storm
    limiter, LB-coordinated through :func:`wire_recovery_failover`, and
    watch the run with the same TraceBus subscribers.  Subclasses set
    ``kernel``, ``cluster`` and ``hardening`` before calling these methods,
    ``metrics`` before :meth:`_start_observers` and ``rms`` before
    :meth:`_actions`.  The order of the calls is part of the output: the bus
    delivers in subscription order, and the kernel breaks same-time ties
    by the order in which work was scheduled.
    """

    storm_limiter = None
    incident_tracker = None
    slo_engine = None
    estimator_hub = None
    health_registry = None

    def _start_storm_limiter(self):
        self.storm_limiter = RecoveryStormLimiter(
            self.kernel,
            limit=self.hardening.storm_limit,
            window=self.hardening.storm_window,
            window_limit=self.hardening.storm_window_limit,
        )

    def _start_rms(self, nodes):
        """One started, LB-coordinated RecoveryManager per node."""
        rms = []
        for node in nodes:
            rm = RecoveryManager(
                self.kernel,
                node.system.coordinator,
                URL_PATH_MAP,
                node_controller=node,
                # High enough that the blunt §4 notify-a-human cutoff does
                # not end a campaign early: the comparisons are between
                # the graduated safeguards, same limit in every arm.
                recurring_limit=60,
                hardening=self.hardening,
                storm_limiter=self.storm_limiter,
            )
            wire_recovery_failover(rm, node, self.cluster.load_balancer)
            rm.start()
            rms.append(rm)
        return rms

    def _start_observers(self, health, alert_engine=None):
        """Incident stitching + rolling SLOs, plus component health scores
        when ``health`` is set.

        All are passive TraceBus subscribers, so they change what a run
        *reports*, never what it *does*.  They need the bus publishing, so
        starting them enables tracing on this kernel.
        """
        self.kernel.trace.enabled = True
        self.incident_tracker = IncidentTracker(
            kernel=self.kernel, url_path_map=URL_PATH_MAP
        )
        self.slo_engine = SloEngine(self.metrics, kernel=self.kernel)
        if health:
            self.estimator_hub = EstimatorHub(
                kernel=self.kernel,
                tracker=self.incident_tracker,
                url_path_map=URL_PATH_MAP,
            )
            self.health_registry = ComponentHealthRegistry(
                kernel=self.kernel,
                hub=self.estimator_hub,
                alert_engine=alert_engine,
            )
            self._register_health(self.cluster.nodes)

    def _register_health(self, nodes):
        for node in nodes:
            self.health_registry.register(
                node.system.server.name, COMPONENT_TARGETS
            )

    def _finish_observers(self, horizon):
        if self.incident_tracker is not None:
            self.incident_tracker.finalize(horizon)
        if self.slo_engine is not None:
            self.slo_engine.evaluate(horizon)

    def _actions(self):
        """Every recovery action of every RM, RM by RM."""
        return [a for rm in self.rms for a in rm.actions]


def count_by_level(actions):
    """Recovery actions per level, in level-name order."""
    return dict(sorted(Counter(action.level for action in actions).items()))


def run_timed_arms(trial, arms, seed, jobs, **kwargs):
    """:func:`~repro.parallel.run_arms`, plus a note on what it cost.

    The note reports the campaign's wall time and this process's peak RSS
    (the driver's, not the workers').
    """
    started = time.monotonic()
    outcomes = run_arms(trial, arms, seed, jobs=jobs, **kwargs)
    wall = time.monotonic() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcomes, (
        f"wall {wall:.1f}s, peak RSS {peak_rss_kb / 1024:.0f} MiB "
        "(driver process)"
    )


class ClusterRig(PopulationRig):
    """N nodes + load balancer + clients, with scripted recovery."""

    def __init__(
        self,
        n_nodes,
        clients_per_node,
        seed=0,
        session_store="fasts",
        dataset=None,
        retry_policy=None,
    ):
        self.cluster = build_cluster(
            n_nodes,
            seed=seed,
            session_store=session_store,
            dataset=dataset,
            retry_policy=retry_policy,
        )
        self.kernel = self.cluster.kernel
        # One collector for the whole cluster: traces start at the LB and
        # are tagged (by the admitting server) with the node that actually
        # served the request — failover redirects stay visible per-path.
        # Enabled only via the spans default (e.g. `repro run --trace`).
        self.span_collector = SpanCollector(self.kernel)
        self.cluster.load_balancer.span_collector = self.span_collector
        for node in self.cluster.nodes:
            node.system.server.span_collector = self.span_collector
        self.reports = []
        self.population = ClientPopulation(
            self.kernel,
            self.cluster.load_balancer,
            self.cluster.dataset,
            n_clients=n_nodes * clients_per_node,
            rng_registry=self.cluster.rng,
            profile=WorkloadProfile(),
            reporter=self.reports.append,
        )
        self.metrics = self.population.metrics

    def injector_for(self, node_index):
        return FaultInjector(self.cluster.nodes[node_index].system)

    # ------------------------------------------------------------------
    def script_recovery(
        self,
        bad_node,
        recovery,  # "microreboot" or "process-restart"
        components=("BrowseCategories",),
        failover=FailoverMode.FULL,
        detection_threshold=6,
        inject_at=None,
    ):
        """Spawn a watcher that performs one recovery once failures appear.

        Mirrors §5.3's flow: detectors report failures; when the RM decides
        to recover, it first notifies the LB (failover begins), recovers
        the node, then notifies the LB again (affinity restored).  Returns
        a dict filled with recovery timestamps.
        """
        outcome = {"recovered_at": None, "detected_at": None}
        balancer = self.cluster.load_balancer

        def watcher():
            while True:
                fresh = [
                    r for r in self.reports
                    if inject_at is None or r.time >= inject_at
                ]
                if len(fresh) >= detection_threshold:
                    break
                yield self.kernel.timeout(0.5)
            outcome["detected_at"] = self.kernel.now
            if failover is not FailoverMode.NONE:
                balancer.begin_failover(
                    bad_node, mode=failover, components=components
                )
            if recovery == "microreboot":
                yield from bad_node.system.coordinator.microreboot(
                    list(components)
                )
            else:
                yield from bad_node.restart_jvm()
            balancer.end_failover(bad_node)
            outcome["recovered_at"] = self.kernel.now

        self.kernel.process(watcher(), name="recovery-script")
        return outcome
