"""What the traced run instruments, and the per-layer metrics it reports.

:data:`PROBES` names every public entry point the traced run wraps, from
outside the program, with a :class:`~perfbench.spans.SpanRecorder`; the
layer is the span name's prefix.  :func:`layer_metrics` turns the
analysed spans plus the counters the program itself keeps (read off the
rigs after each arm, see :func:`arm_facts`) into the per-layer metrics
that ``BENCHMARK.json`` lists.

A layer's ``self_s`` is the self time of all its spans: time inside the
layer's functions minus time in instrumented calls they made.  Code that
no probe covers is charged to the innermost probe around it; whatever
runs directly under ``Kernel.run`` (event dispatch, process resumption,
uninstrumented callbacks) is ``sim.self_s``.
"""

import importlib
import sys

#: (module, attribute path, layer).  Generator functions are timed per
#: resume, so a simulated process is charged only while it runs.
PROBES = (
    ("repro.sim.kernel", "Kernel.run", "sim"),
    ("repro.workload.client", "EmulatedClient.run", "workload.client"),
    ("repro.workload.client", "EmulatedClient._do_operation",
     "workload.client"),
    ("repro.appserver.server", "ApplicationServer.handle_request",
     "appserver"),
    ("repro.appserver.server", "ApplicationServer._request_lifecycle",
     "appserver"),
    ("repro.appserver.server", "ApplicationServer._serve", "appserver"),
    ("repro.appserver.container", "Container.invoke", "appserver"),
    *(
        ("repro.stores.database", f"Database.{name}", "stores.database")
        for name in (
            "read", "select", "count", "max_pk", "insert", "update",
            "delete", "commit_transaction", "rollback_transaction",
            "open_session", "close_sessions_owned_by", "crash", "recover",
        )
    ),
    *(
        ("repro.stores.ssm", f"SSM.{name}", "stores.ssm")
        for name in ("read", "write", "delete", "crash", "restart")
    ),
    ("repro.cluster.load_balancer", "LoadBalancer.handle_request",
     "cluster.load_balancer"),
    ("repro.cluster.load_balancer", "LoadBalancer._forward",
     "cluster.load_balancer"),
    *(
        ("repro.core.recovery_manager", f"RecoveryManager.{name}",
         "core.recovery_manager")
        for name in ("report", "_run", "_execute", "_execute_preemptive",
                     "_lift_quarantine")
    ),
    *(
        ("repro.core.microreboot", f"MicrorebootCoordinator.{name}",
         "core.microreboot")
        for name in ("microreboot", "microreboot_war", "restart_application")
    ),
    ("repro.faults.chaos", "ChaosEngine._run", "faults"),
    ("repro.faults.chaos", "ChaosEngine._apply", "faults"),
    ("repro.faults.chaos", "ShardStormEngine._run", "faults"),
    ("repro.faults.chaos", "ShardStormEngine._apply", "faults"),
    ("repro.workload.cohort", "CohortEngine._run", "workload.cohort"),
    ("repro.workload.cohort", "CohortEngine.run_tick", "workload.cohort"),
    ("repro.workload.cohort", "CohortEngine._place_sessions",
     "workload.cohort"),
    ("repro.workload.cohort", "CohortEngine.begin_migration",
     "workload.cohort"),
    ("repro.workload.cohort", "binomial", "workload.cohort"),
    ("repro.workload.cohort", "multinomial", "workload.cohort"),
    ("repro.cluster.sharding", "stable_hash", "cluster.sharding"),
    *(
        ("repro.cluster.sharding", f"ShardRing.{name}", "cluster.sharding")
        for name in ("shard_for", "preference", "add_shard", "remove_shard",
                     "arc_measures")
    ),
    ("repro.cluster.elasticity", "ReshardCoordinator.add_shard",
     "cluster.elasticity"),
    ("repro.cluster.elasticity", "ReshardCoordinator.remove_shard",
     "cluster.elasticity"),
    ("repro.cluster.elasticity", "ElasticPolicy._run", "cluster.elasticity"),
    ("repro.experiments.megascale", "ProbeOutcomeModel._run",
     "experiments.megascale"),
    ("repro.experiments.megascale", "ProbeOutcomeModel._probe",
     "experiments.megascale"),
    ("repro.experiments.megascale", "ProbeOutcomeModel.outcome",
     "experiments.megascale"),
    ("repro.telemetry.trace", "TraceBus.publish", "telemetry.trace"),
    ("repro.telemetry.metrics", "Histogram.observe_many",
     "telemetry.metrics"),
    ("repro.observability.incidents", "IncidentTracker.feed",
     "observability.incidents"),
    ("repro.observability.incidents", "IncidentTracker.finalize",
     "observability.incidents"),
    ("repro.observability.slo", "SloEngine._on_request_end",
     "observability.slo"),
    ("repro.observability.slo", "SloEngine.evaluate", "observability.slo"),
    ("repro.observability.health", "ComponentHealthRegistry.feed",
     "observability.health"),
    ("repro.observability.cluster", "ShardMetricsAggregator._on_event",
     "observability.cluster"),
    ("repro.observability.cluster", "ShardMetricsAggregator.observe_probe",
     "observability.cluster"),
    ("repro.observability.cluster", "ShardMetricsAggregator.collect",
     "observability.cluster"),
    ("repro.observability.cluster", "ClusterIncidentCorrelator.correlate",
     "observability.cluster"),
    ("repro.ebid.app", "build_database", "ebid"),
    ("repro.cluster.cluster", "build_cluster", "cluster"),
    ("repro.cluster.cluster", "build_sharded_cluster", "cluster"),
)

TICK = "workload.cohort:CohortEngine.run_tick"

#: Which end-to-end metric a change in each layer should move, and on
#: which workload the layer does most of its work.
LAYER_EFFECTS = {
    "sim": ("sim_requests_per_s", ("chaos-cluster",)),
    "workload.client": ("sim_requests_per_s", ("chaos-cluster",)),
    "appserver": ("sim_requests_per_s", ("chaos-cluster",)),
    "stores": ("sim_requests_per_s", ("chaos-cluster",)),
    "cluster.load_balancer": ("wall_s", ("chaos-cluster", "cohort-storm")),
    "core": ("wall_s (flat under a scheduler refactor)", ("chaos-cluster",)),
    "faults": ("none: a count that explains the others",
               ("chaos-cluster", "cohort-storm")),
    "workload.cohort": ("sim_requests_per_s, wall_s; place_s -> setup_s",
                        ("cohort-steady", "cohort-storm")),
    "cluster.sharding": ("setup_s, wall_s", ("cohort-steady", "cohort-storm")),
    "cluster.elasticity": ("wall_s", ("cohort-storm",)),
    "experiments.megascale": ("wall_s", ("cohort-steady", "cohort-storm")),
    "telemetry": ("wall_s",
                  ("chaos-cluster", "cohort-steady", "cohort-storm")),
    "observability": ("wall_s", ("chaos-cluster", "cohort-storm")),
    "ebid / cluster build": ("setup_s", ("chaos-cluster", "cohort-steady")),
}


def layers_loaded(workload):
    """The layers that do most of their work on ``workload``."""
    return [layer for layer, (_moves, on) in LAYER_EFFECTS.items()
            if workload in on]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Installs :data:`PROBES` around a recorder; :meth:`uninstall`
    restores every original."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.session_ticks = 0
        self._undo = []

    def install(self):
        for module_name, path, layer in PROBES:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapped = self.recorder.wrap(original, f"{layer}:{path}")
            if f"{layer}:{path}" == TICK:
                wrapped = self._count_sessions(wrapped)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapped)
            else:
                # A module-level function is also reachable through every
                # ``from module import name`` binding made before now.
                for module in list(sys.modules.values()):
                    if getattr(module, attr, None) is original:
                        self._replace(module, attr, original, wrapped)

    def _count_sessions(self, run_tick):
        """Add up the sessions each tick advances (those in the shard
        tables; sessions inside a migration window are paused)."""
        def counted(engine):
            counts = engine.counts
            self.session_ticks += sum(
                sum(counts[shard]) for shard in engine.shards
            )
            return run_tick(engine)

        return counted

    def _replace(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def arm_facts(rig):
    """Counters the program keeps itself, read off a rig after its run."""
    actions = [a for rm in rig.rms for a in rm.actions]
    balancer = rig.cluster.load_balancer
    facts = {
        "events": rig.kernel.events_processed,
        "total_requests": rig.metrics.total_requests,
        "good_requests": rig.metrics.good_requests,
        "lb_failed_over": balancer.requests_failed_over,
        "lb_shed": balancer.requests_shed,
        "rm_actions": len(actions),
        "rm_actions_ok": sum(1 for a in actions if a.ok),
    }
    probe_model = getattr(rig, "probe_model", None)
    if probe_model is not None:
        facts["probes_sent"] = probe_model.probes_sent
        facts["probes_failed"] = probe_model.probes_failed
        facts["cohort_details"] = rig.engine.total_details
        facts["sessions_migrated"] = rig.engine.sessions_migrated
    return facts


def _frac(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _quantile(values, q):
    """Nearest-rank quantile (0 when there are no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans, facts, session_ticks, ticks):
    """Every per-layer metric of ``BENCHMARK.json`` except
    ``trace_overhead_frac``, which needs the untraced run too.

    ``spans`` is :func:`~perfbench.spans.analyse` output; ``facts`` the
    summed :func:`arm_facts` of every arm of the run; ``ticks`` the
    durations of the :data:`TICK` spans.
    """
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    layer_self, layer_calls = {}, {}
    for name, entry in spans.items():
        layer = name.split(":", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_s"]
        layer_calls[layer] = layer_calls.get(layer, 0) + entry["calls"]

    def self_s(layer):
        return layer_self.get(layer, 0.0)

    sim_self = self_s("sim")
    tick_total = total(TICK)
    good = facts.get("good_requests", 0)
    out = {
        "sim.events": facts["events"],
        "sim.self_s": sim_self,
        "sim.us_per_event": _frac(sim_self * 1e6, facts["events"]),
        "workload.client.requests": calls(
            "workload.client:EmulatedClient._do_operation"),
        "workload.client.self_s": self_s("workload.client"),
        "appserver.requests": calls(
            "appserver:ApplicationServer.handle_request"),
        "appserver.invokes": calls("appserver:Container.invoke"),
        "appserver.self_s": self_s("appserver"),
        "stores.database.calls": layer_calls.get("stores.database", 0),
        "stores.database.self_s": self_s("stores.database"),
        "stores.ssm.calls": layer_calls.get("stores.ssm", 0),
        "stores.ssm.self_s": self_s("stores.ssm"),
        "cluster.load_balancer.requests": calls(
            "cluster.load_balancer:LoadBalancer.handle_request"),
        "cluster.load_balancer.self_s": self_s("cluster.load_balancer"),
        "cluster.load_balancer.failed_over": facts["lb_failed_over"],
        "cluster.load_balancer.shed": facts["lb_shed"],
        "core.recovery_manager.reports": calls(
            "core.recovery_manager:RecoveryManager.report"),
        "core.recovery_manager.actions": facts["rm_actions"],
        "core.recovery_manager.actions_ok_frac": _frac(
            facts["rm_actions_ok"], facts["rm_actions"]),
        "core.recovery_manager.self_s": self_s("core.recovery_manager"),
        "core.microreboot.calls": layer_calls.get("core.microreboot", 0),
        "core.microreboot.self_s": self_s("core.microreboot"),
        "faults.events": (calls("faults:ChaosEngine._apply")
                          + calls("faults:ShardStormEngine._apply")),
        "workload.cohort.ticks": calls(TICK),
        "workload.cohort.tick_p50_ms": _quantile(ticks, 0.5) * 1e3,
        "workload.cohort.tick_p90_ms": _quantile(ticks, 0.9) * 1e3,
        "workload.cohort.self_s": self_s("workload.cohort"),
        "workload.cohort.session_ticks": session_ticks,
        "workload.cohort.session_ticks_per_s": _frac(
            session_ticks, tick_total),
        "workload.cohort.details": facts.get("cohort_details", 0),
        "workload.cohort.good_click_frac": (
            _frac(good, facts["total_requests"])
            if "cohort_details" in facts else 0.0
        ),
        "workload.cohort.binomial.calls": calls("workload.cohort:binomial"),
        "workload.cohort.binomial.s": total("workload.cohort:binomial"),
        "workload.cohort.multinomial.calls": calls(
            "workload.cohort:multinomial"),
        "workload.cohort.multinomial.s": total("workload.cohort:multinomial"),
        "workload.cohort.place_s": total(
            "workload.cohort:CohortEngine._place_sessions"),
        "cluster.sharding.lookups": calls(
            "cluster.sharding:ShardRing.shard_for"),
        "cluster.sharding.hash_calls": calls("cluster.sharding:stable_hash"),
        "cluster.sharding.self_s": self_s("cluster.sharding"),
        "cluster.elasticity.reshards": (
            calls("cluster.elasticity:ReshardCoordinator.add_shard")
            + calls("cluster.elasticity:ReshardCoordinator.remove_shard")),
        "cluster.elasticity.sessions_migrated": facts.get(
            "sessions_migrated", 0),
        "cluster.elasticity.self_s": self_s("cluster.elasticity"),
        "experiments.megascale.probes": calls(
            "experiments.megascale:ProbeOutcomeModel._probe"),
        "experiments.megascale.probes_failed_frac": _frac(
            facts.get("probes_failed", 0), facts.get("probes_sent", 0)),
        "experiments.megascale.outcome_calls": calls(
            "experiments.megascale:ProbeOutcomeModel.outcome"),
        "telemetry.trace.publishes": calls(
            "telemetry.trace:TraceBus.publish"),
        "telemetry.trace.publish_s": total(
            "telemetry.trace:TraceBus.publish"),
        "telemetry.trace.self_s": self_s("telemetry.trace"),
        "telemetry.metrics.observe_many.calls": calls(
            "telemetry.metrics:Histogram.observe_many"),
        "telemetry.metrics.observe_many.s": total(
            "telemetry.metrics:Histogram.observe_many"),
        "observability.incidents.feed_calls": calls(
            "observability.incidents:IncidentTracker.feed"),
        "observability.incidents.self_s": self_s("observability.incidents"),
        "observability.slo.self_s": self_s("observability.slo"),
        "observability.health.self_s": self_s("observability.health"),
        "observability.cluster.observe_probe.calls": calls(
            "observability.cluster:ShardMetricsAggregator.observe_probe"),
        "observability.cluster.self_s": self_s("observability.cluster"),
        "observability.cluster.collect_s": total(
            "observability.cluster:ShardMetricsAggregator.collect"),
        "observability.cluster.correlate_s": total(
            "observability.cluster:ClusterIncidentCorrelator.correlate"),
        "ebid.dataset_s": total("ebid:build_database"),
        "cluster.build_s": (total("cluster:build_cluster")
                            + total("cluster:build_sharded_cluster")),
    }
    return out
