"""Cluster observability plane: shard rollups, storm correlation, capacity.

The megascale/storm stack (1M sessions, 128 sharded nodes) outgrew the flat
run-scoped incident/SLO layer: a K-shard fault storm is *one* operational
event, not K unrelated incidents, and the autoscaling work needs per-shard
load/latency signals with hysteresis-friendly semantics.  Three pieces:

* :class:`ShardMetricsAggregator` — folds cohort batch outcomes, probe
  results, LB failover counters, and storm/reshard events into bounded
  per-shard rollups (availability, Gaw, probe p50/p99 via mergeable
  :class:`~repro.telemetry.metrics.Histogram` sketches, failover rate,
  population, migration flow) plus a deterministic cluster-level
  reduction.  It also runs the **capacity signal engine**: a per-shard
  load score smoothed by a sustained-pressure EWMA with hysteresis bands,
  publishing sticky ``capacity.pressure`` / ``capacity.relief`` events —
  the interface scale-out/in policies will consume.
* :class:`ClusterIncidentCorrelator` — stitches concurrent shard-attributed
  incidents into :class:`MetaIncident` records (storm detection: K shards
  degrading within a correlation window; wave detection via onset
  ordering), attributes elasticity actions (shard replacements, migration
  windows), and decomposes cluster MTTR into consecutive
  detect/decide/migrate/drain phases that sum exactly to the meta-incident
  span — the same clamped-segment contract as
  :meth:`~repro.observability.incidents.Incident.phases`.
* Offline helpers — the aggregator publishes ``shard.rollup`` /
  ``shard.window`` summary events at collect time, so recorded timelines
  can rebuild the whole view (``repro shards``, ``repro slo --shard``)
  without replaying the workload.

Everything here is **passive**: the plane subscribes and samples but never
schedules kernel work, so arm outcomes are byte-identical with the plane
on or off, and all state lives in plain deterministic containers (same
seed ⇒ same rollup, jobs=1 ≡ jobs=N).
"""

import re

from repro.observability.slo import SloPolicy, SloWindow, compute_windows
from repro.telemetry.metrics import Histogram
from repro.telemetry.trace import RESERVED_KEYS

#: Anything named ``shardNNN`` or ``shardNNN-<resource>`` belongs to that
#: shard; flat single-node names (``node1``) deliberately never match, so
#: pre-cluster timelines keep their shard-free rendering.
_SHARD_NAME_RE = re.compile(r"^(shard\d+)(?:-|$)")

#: Bus kinds the aggregator folds into per-shard rollups.
SHARD_ROLLUP_KINDS = (
    "cohort.failures",
    "cohort.migrate",
    "cohort.migrate.arrived",
    "lb.failover.begin",
    "lb.link.fault",
    "ssm.crash",
    "storm.begin",
    "storm.event",
    "storm.end",
    "reshard.migrate",
    "reshard.policy",
)

#: Seconds of recent user-visible failures feeding the capacity stress term.
SIGNAL_WINDOW = 20.0
#: Fraction of a shard's population failing inside SIGNAL_WINDOW that
#: saturates the user-stress term.
STRESS_SATURATION = 0.05


def shard_of_name(name):
    """The shard a cluster resource name belongs to, or None.

    Matches node (``shard003-n1``), brick (``shard003-ssm-b2``) and bare
    shard names; anything else — including flat single-node servers —
    attributes to no shard.
    """
    if not name:
        return None
    match = _SHARD_NAME_RE.match(str(name))
    return match.group(1) if match else None


def shard_of_incident(incident, shard_of_node=None):
    """Attribute an incident to a shard via its server, then its key.

    ``shard_of_node`` is the authoritative cluster map when available
    (it remembers departed nodes); the name pattern is the offline
    fallback.  Infra incidents keyed ``link:shard003-n1`` attribute
    through the key suffix.
    """
    server = getattr(incident, "server", None)
    if shard_of_node and server in shard_of_node:
        return shard_of_node[server]
    shard = shard_of_name(server)
    if shard:
        return shard
    key = getattr(incident, "key", None) or ""
    if ":" in key:
        return shard_of_name(key.split(":", 1)[1])
    return None


class _ShardRollup:
    """Mutable per-shard accumulator behind the aggregator."""

    __slots__ = (
        "shard", "good", "bad", "sessions", "probes", "probe_failures",
        "probe_latency", "failovers", "link_faults", "brick_crashes",
        "storm_events", "storm_kinds", "migrated_in", "migrated_out",
        "series",
    )

    def __init__(self, shard):
        self.shard = shard
        self.good = 0
        self.bad = 0
        self.sessions = 0
        self.probes = 0
        self.probe_failures = 0
        self.probe_latency = Histogram(f"probe.latency.{shard}")
        self.failovers = 0
        self.link_faults = 0
        self.brick_crashes = 0
        self.storm_events = 0
        self.storm_kinds = set()
        self.migrated_in = 0
        self.migrated_out = 0
        self.series = []  # [window_start, good, bad] folded buckets


class ShardMetricsAggregator:
    """Passive per-shard rollup + capacity signal engine.

    Three intake channels, all observer-side:

    * a TraceBus subscription over :data:`SHARD_ROLLUP_KINDS`;
    * :meth:`observe_probe`, called by the probe model per probe (the
      probe EWMAs keep no history, so p50/p99 need live observation);
    * :meth:`collect`, an end-of-run read-only pull of the cohort
      engine's per-shard good/bad series and populations.

    Capacity signals are evaluated at most once per simulated second per
    shard (piggybacked on the per-second probes, mirroring the health
    registry's alert throttle): ``score = relative_load × (1 + 2·probe
    stress + 2·user stress)`` sits at 1.0 for a healthy, evenly loaded
    shard, and the sustained-pressure EWMA must clear ``pressure_high``
    to fire ``capacity.pressure`` and fall back through ``pressure_low``
    to fire ``capacity.relief`` — the hysteresis band keeps the ring from
    flapping.
    """

    def __init__(self, bus=None, cluster=None, policy=None,
                 pressure_high=1.6, pressure_low=1.15, pressure_alpha=0.35,
                 probe_alpha=0.3):
        if pressure_low >= pressure_high:
            raise ValueError("hysteresis bands must satisfy low < high")
        self.policy = policy or SloPolicy()
        self.pressure_high = pressure_high
        self.pressure_low = pressure_low
        self.pressure_alpha = pressure_alpha
        self.probe_alpha = probe_alpha
        self.capacity_signals = []
        self.migrations = []  # reshard.migrate windows, for attribution
        self.replacement_checks = 0  # reshard.policy sightings
        self.storm = None
        self.duration = None
        self._bus = bus
        self._cluster = cluster
        self._engine = None
        self._mean_sessions = None
        self._rollups = {}
        self._probe_stress = {}
        self._recent_bad = {}  # shard -> [[second, count], ...] trimmed
        self._recent_bad_sum = {}
        self._ewma = {}
        self._peak = {}
        self._pressured = {}
        self._last_eval = {}
        self._collected = False
        if bus is not None:
            bus.subscribe(self._on_event, kinds=SHARD_ROLLUP_KINDS)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_engine(self, engine):
        """Attach the cohort engine for load context and the final pull."""
        self._engine = engine
        shards = max(1, len(engine.shard_sessions) or 1)
        total = sum(engine.shard_sessions.values())
        self._mean_sessions = max(1.0, total / shards)

    def _rollup(self, shard):
        rollup = self._rollups.get(shard)
        if rollup is None:
            rollup = self._rollups[shard] = _ShardRollup(shard)
        return rollup

    def _shard_of_node(self, node):
        if self._cluster is not None:
            shard = self._cluster.shard_of_node.get(node)
            if shard:
                return shard
        return shard_of_name(node)

    # ------------------------------------------------------------------
    # Intake: bus events
    # ------------------------------------------------------------------
    def _on_event(self, event):
        kind = event.kind
        fields = event.fields
        if kind == "cohort.failures":
            shard = fields.get("shard")
            if shard:
                self._note_bad(shard, event.t, fields.get("count", 0))
        elif kind == "cohort.migrate":
            source, target = fields.get("source"), fields.get("target")
            sessions = fields.get("sessions", 0)
            if source:
                self._rollup(source).migrated_out += sessions
        elif kind == "cohort.migrate.arrived":
            target = fields.get("target")
            if target:
                self._rollup(target).migrated_in += fields.get("sessions", 0)
        elif kind == "lb.failover.begin":
            shard = self._shard_of_node(fields.get("node"))
            if shard:
                self._rollup(shard).failovers += 1
        elif kind == "lb.link.fault":
            shard = self._shard_of_node(fields.get("node"))
            if shard:
                self._rollup(shard).link_faults += 1
        elif kind == "ssm.crash":
            shard = shard_of_name(fields.get("store"))
            if shard:
                self._rollup(shard).brick_crashes += 1
        elif kind == "storm.begin":
            self.storm = {
                "at": round(event.t, 6),
                "shards": list(fields.get("shards", ())),
                "events": fields.get("events"),
                "horizon": fields.get("horizon"),
            }
        elif kind == "storm.event":
            shard = fields.get("shard")
            if shard:
                rollup = self._rollup(shard)
                rollup.storm_events += 1
                rollup.storm_kinds.add(fields.get("kind"))
        elif kind == "storm.end":
            if self.storm is not None:
                self.storm["ended_at"] = round(event.t, 6)
        elif kind == "reshard.migrate":
            self.migrations.append(
                {
                    "at": round(event.t, 6),
                    "source": fields.get("source"),
                    "target": fields.get("target"),
                    "sessions": fields.get("sessions", 0),
                    "window": fields.get("window", 0.0),
                }
            )
        elif kind == "reshard.policy":
            self.replacement_checks += 1

    def _note_bad(self, shard, t, count):
        second = int(t)
        recent = self._recent_bad.setdefault(shard, [])
        if recent and recent[-1][0] == second:
            recent[-1][1] += count
        else:
            recent.append([second, count])
        self._recent_bad_sum[shard] = (
            self._recent_bad_sum.get(shard, 0) + count
        )
        self._trim_recent(shard, t)

    def _trim_recent(self, shard, now):
        recent = self._recent_bad.get(shard)
        if not recent:
            return
        horizon = now - SIGNAL_WINDOW
        total = self._recent_bad_sum.get(shard, 0)
        while recent and recent[0][0] < horizon:
            total -= recent.pop(0)[1]
        self._recent_bad_sum[shard] = total

    # ------------------------------------------------------------------
    # Intake: probes
    # ------------------------------------------------------------------
    def observe_probe(self, t, shard, op, ok, latency):
        """Record one synthetic probe outcome (called by the probe model)."""
        rollup = self._rollup(shard)
        rollup.probes += 1
        if not ok:
            rollup.probe_failures += 1
        rollup.probe_latency.observe(latency)
        stress = self._probe_stress.get(shard, 0.0)
        self._probe_stress[shard] = stress + self.probe_alpha * (
            (0.0 if ok else 1.0) - stress
        )
        last = self._last_eval.get(shard)
        if last is None or t - last >= 1.0:
            self._last_eval[shard] = t
            self._evaluate_capacity(shard, t)

    # ------------------------------------------------------------------
    # Capacity signal engine
    # ------------------------------------------------------------------
    def _evaluate_capacity(self, shard, t):
        sessions = 0
        relative_load = 1.0
        if self._engine is not None:
            sessions = self._engine.shard_sessions.get(shard, 0)
            relative_load = sessions / self._mean_sessions
        self._trim_recent(shard, t)
        recent_bad = self._recent_bad_sum.get(shard, 0)
        user_stress = min(
            1.0, recent_bad / max(1.0, STRESS_SATURATION * sessions)
        )
        probe_stress = self._probe_stress.get(shard, 0.0)
        score = relative_load * (1.0 + 2.0 * probe_stress + 2.0 * user_stress)
        previous = self._ewma.get(shard, 1.0)
        ewma = previous + self.pressure_alpha * (score - previous)
        self._ewma[shard] = ewma
        if ewma > self._peak.get(shard, 0.0):
            self._peak[shard] = ewma
        pressured = self._pressured.get(shard, False)
        if not pressured and ewma >= self.pressure_high:
            self._pressured[shard] = True
            self._signal("pressure", shard, t, score, ewma)
        elif pressured and ewma <= self.pressure_low:
            self._pressured[shard] = False
            self._signal("relief", shard, t, score, ewma)

    def headroom(self, shard):
        """Remaining capacity before the pressure band, in [0, 1]."""
        ewma = self._ewma.get(shard, 1.0)
        return max(0.0, 1.0 - ewma / self.pressure_high)

    def _signal(self, name, shard, t, score, ewma):
        record = {
            "t": round(t, 6),
            "shard": shard,
            "signal": name,
            "score": round(score, 6),
            "ewma": round(ewma, 6),
            "headroom": round(max(0.0, 1.0 - ewma / self.pressure_high), 6),
        }
        self.capacity_signals.append(record)
        if self._bus is not None:
            self._bus.publish(
                f"capacity.{name}", shard=shard,
                score=record["score"], ewma=record["ewma"],
                headroom=record["headroom"],
            )

    # ------------------------------------------------------------------
    # Collection + reduction
    # ------------------------------------------------------------------
    def collect(self, engine=None, duration=None):
        """End-of-run pull: fold the cohort series, judge per-shard SLO
        windows, and publish the ``shard.*`` summary events.

        Read-only against the engine; safe to call after the kernel has
        drained.  Idempotent per run (the rig calls it once).
        """
        engine = engine if engine is not None else self._engine
        self.duration = duration
        shard_slo = {}
        if engine is not None:
            width = self.policy.window
            shards = sorted(
                set(engine.shard_good_series) | set(engine.shard_bad_series)
            )
            for shard in shards:
                good_series = engine.shard_good_series.get(shard, {})
                bad_series = engine.shard_bad_series.get(shard, {})
                rollup = self._rollup(shard)
                rollup.good = sum(good_series.values())
                rollup.bad = sum(bad_series.values())
                rollup.sessions = engine.shard_sessions.get(shard, 0)
                buckets = {}
                for second, n in good_series.items():
                    start = int(second // width) * width
                    entry = buckets.setdefault(start, [0, 0])
                    entry[0] += n
                for second, n in bad_series.items():
                    start = int(second // width) * width
                    entry = buckets.setdefault(start, [0, 0])
                    entry[1] += n
                rollup.series = [
                    [start, good, bad]
                    for start, (good, bad) in sorted(buckets.items())
                ]
                if duration is not None:
                    windows = compute_windows(
                        good_series, bad_series, [], duration,
                        policy=self.policy,
                    )
                    violations = [w for w in windows if w.violated]
                    availabilities = [
                        w.availability for w in windows
                        if w.availability is not None
                    ]
                    shard_slo[shard] = {
                        "windows": len(windows),
                        "violations": len(violations),
                        "min_availability": (
                            round(min(availabilities), 6)
                            if availabilities else None
                        ),
                    }
                    self._publish_windows(shard, windows)
        self._slo = shard_slo
        self._collected = True
        self._publish_rollups()

    def _publish_windows(self, shard, windows):
        if self._bus is None:
            return
        for window in windows:
            self._bus.publish(
                "shard.window", shard=shard,
                start=round(window.start, 6), end=round(window.end, 6),
                good=window.good, bad=window.bad,
                violated=window.violated,
            )
            if window.violated:
                self._bus.publish(
                    "slo.shard.violated", shard=shard,
                    start=round(window.start, 6), end=round(window.end, 6),
                    availability=(
                        round(window.availability, 6)
                        if window.availability is not None else None
                    ),
                    reasons=list(window.reasons),
                )

    def _publish_rollups(self):
        if self._bus is None:
            return
        for row in self.rows():
            fields = {k: v for k, v in row.items() if k != "series"}
            slo = fields.pop("slo", None) or {}
            self._bus.publish(
                "shard.rollup",
                slo_windows=slo.get("windows"),
                slo_violations=slo.get("violations"),
                slo_min_availability=slo.get("min_availability"),
                **fields,
            )

    def rows(self):
        """Per-shard rollup rows, shard-sorted, plain data."""
        out = []
        duration = self.duration
        for shard in sorted(self._rollups):
            rollup = self._rollups[shard]
            total = rollup.good + rollup.bad
            quantiles = rollup.probe_latency.percentiles()
            row = {
                "shard": shard,
                "sessions": rollup.sessions,
                "good": rollup.good,
                "bad": rollup.bad,
                "availability": (
                    round(rollup.good / total, 6) if total else None
                ),
                "gaw_per_second": (
                    round(rollup.good / duration, 3)
                    if duration else None
                ),
                "probes": rollup.probes,
                "probe_failures": rollup.probe_failures,
                "probe_p50": (
                    round(quantiles["p50"], 6)
                    if quantiles["p50"] is not None else None
                ),
                "probe_p99": (
                    round(quantiles["p99"], 6)
                    if quantiles["p99"] is not None else None
                ),
                "failovers": rollup.failovers,
                "link_faults": rollup.link_faults,
                "brick_crashes": rollup.brick_crashes,
                "storm_events": rollup.storm_events,
                "storm_kinds": sorted(
                    k for k in rollup.storm_kinds if k
                ),
                "migrated_in": rollup.migrated_in,
                "migrated_out": rollup.migrated_out,
                "capacity_score": round(self._ewma.get(shard, 1.0), 6),
                "peak_score": round(self._peak.get(shard, 1.0), 6),
                "pressured": self._pressured.get(shard, False),
                "headroom": round(self.headroom(shard), 6),
                "slo": getattr(self, "_slo", {}).get(shard),
                "series": [list(b) for b in rollup.series],
            }
            out.append(row)
        return out

    def cluster_summary(self):
        """Deterministic cluster-level reduction over the shard rollups.

        Probe latency quantiles come from merging the per-shard sketches
        in sorted shard order — bucket addition is exact, so the merged
        p50/p99 equal a single cluster-wide sketch's.
        """
        merged = Histogram("probe.latency.cluster")
        good = bad = probes = probe_failures = failovers = 0
        sessions = 0
        for shard in sorted(self._rollups):
            rollup = self._rollups[shard]
            good += rollup.good
            bad += rollup.bad
            sessions += rollup.sessions
            probes += rollup.probes
            probe_failures += rollup.probe_failures
            failovers += rollup.failovers
            merged.merge(rollup.probe_latency)
        total = good + bad
        quantiles = merged.percentiles()
        slo = getattr(self, "_slo", {})
        return {
            "shards": len(self._rollups),
            "sessions": sessions,
            "good": good,
            "bad": bad,
            "availability": round(good / total, 6) if total else None,
            "probes": probes,
            "probe_failures": probe_failures,
            "probe_p50": (
                round(quantiles["p50"], 6)
                if quantiles["p50"] is not None else None
            ),
            "probe_p99": (
                round(quantiles["p99"], 6)
                if quantiles["p99"] is not None else None
            ),
            "failovers": failovers,
            "pressured_shards": sorted(
                s for s, p in self._pressured.items() if p
            ),
            "pressure_events": len(self.capacity_signals),
            "migrations": len(self.migrations),
            "sessions_migrated": sum(
                m["sessions"] for m in self.migrations
            ),
            "slo_violations": sum(
                (v or {}).get("violations", 0) for v in slo.values()
            ),
        }


class MetaIncident:
    """K shards degrading together: one cluster-level operational event."""

    def __init__(self, mid, members, window):
        # members: [(incident, shard)] sorted by onset.
        self.id = mid
        self.incidents = [incident for incident, _ in members]
        self._members = members
        self.window = window
        self.shards = sorted({shard for _, shard in members})
        onsets = {}
        for incident, shard in members:
            t = incident.opened_at
            if shard not in onsets or t < onsets[shard]:
                onsets[shard] = t
        self.onsets = onsets
        self.opened_at = min(i.opened_at for i in self.incidents)
        self.replacements = []
        self.migrations = []
        self.absorbed = []

    @property
    def onset_order(self):
        return sorted(self.onsets, key=lambda s: (self.onsets[s], s))

    @property
    def onset_spread(self):
        values = list(self.onsets.values())
        return max(values) - min(values)

    def mode(self, simultaneous_threshold=5.0):
        """``simultaneous`` vs ``wave`` via onset ordering spread."""
        return (
            "simultaneous" if self.onset_spread <= simultaneous_threshold
            else "wave"
        )

    def absorb(self, shards):
        """Fold in struck-but-silent shards from the storm schedule.

        A brick-crash or slowdown shard can degrade without ever opening
        a tracked incident (the replica absorbs the crash; the slowdown
        only stretches latency).  The ``storm.begin`` event is the
        evidence those shards were part of the same operational event, so
        they join :attr:`shards` (and are listed as ``absorbed``) — but
        they keep no observed onset, so the simultaneous/wave
        classification and the MTTR phases stay grounded in incident
        evidence.
        """
        silent = [s for s in shards if s not in self.onsets]
        self.absorbed = sorted(set(self.absorbed) | set(silent))
        self.shards = sorted(set(self.shards) | set(shards))

    @property
    def end(self):
        ends = [i.end for i in self.incidents]
        ends.extend(m["at"] + m.get("window", 0.0) for m in self.migrations)
        ends.extend(r["at"] for r in self.replacements)
        return max(ends)

    @property
    def span(self):
        return max(0.0, self.end - self.opened_at)

    def phases(self):
        """Cluster MTTR as consecutive detect/decide/migrate/drain segments.

        Same clamping contract as :meth:`Incident.phases`: each boundary
        is clamped into ``[previous, end]`` so the four values always sum
        exactly to :attr:`span` no matter how evidence is ordered.

        * **detect** — onset to the first failure report anywhere in the
          meta-incident;
        * **decide** — to the first recovery decision or replacement;
        * **migrate** — to the last migration-window end / recovery
          finish (the repair-in-flight phase);
        * **drain** — the tail until the last member incident closes.
        """
        end = self.end
        t0 = self.opened_at
        reports = [
            i.first_report_at for i in self.incidents
            if i.first_report_at is not None
        ]
        t1 = min(reports) if reports else t0
        t1 = min(max(t1, t0), end)
        decisions = [
            a["decided_at"] for i in self.incidents for a in i.actions
        ]
        decisions.extend(r["at"] for r in self.replacements)
        t2 = min(decisions) if decisions else t1
        t2 = min(max(t2, t1), end)
        repairs = [
            a["finished_at"] for i in self.incidents for a in i.actions
        ]
        repairs.extend(m["at"] + m.get("window", 0.0) for m in self.migrations)
        t3 = max(repairs) if repairs else t2
        t3 = min(max(t3, t2), end)
        return {
            "detect": t1 - t0,
            "decide": t2 - t1,
            "migrate": t3 - t2,
            "drain": end - t3,
        }

    def to_dict(self):
        return {
            "id": self.id,
            "shards": list(self.shards),
            "incidents": [i.id for i in self.incidents],
            "opened_at": round(self.opened_at, 6),
            "end": round(self.end, 6),
            "span": round(self.span, 6),
            "mode": self.mode(),
            "onsets": {s: round(t, 6) for s, t in self.onsets.items()},
            "onset_order": self.onset_order,
            "phases": {k: round(v, 6) for k, v in self.phases().items()},
            "absorbed": list(self.absorbed),
            "reports": sum(i.reports for i in self.incidents),
            "recovered": sum(1 for i in self.incidents if i.recovered),
            "replacements": [dict(r) for r in self.replacements],
            "migrations": [dict(m) for m in self.migrations],
        }


class ClusterIncidentCorrelator:
    """Stitch shard-attributed incidents into meta-incidents.

    Greedy onset clustering: incidents sorted by open time join the
    current cluster while they open within ``window`` seconds of the
    cluster's running end, so pulse chains bridge without bounding the
    storm's total length; clusters touching at least ``k_min`` distinct
    shards become :class:`MetaIncident` records.
    """

    def __init__(self, window=60.0, k_min=2):
        self.window = window
        self.k_min = k_min
        self.meta_incidents = []
        self.unclustered = 0

    def correlate(self, incidents, replacements=(), migrations=(),
                  shard_of_node=None, storm=None):
        attributed = []
        for incident in incidents:
            shard = shard_of_incident(incident, shard_of_node)
            if shard:
                attributed.append((incident, shard))
        attributed.sort(key=lambda pair: (pair[0].opened_at, pair[0].id))
        clusters = []
        current, current_end = [], None
        for incident, shard in attributed:
            if current and incident.opened_at <= current_end + self.window:
                current.append((incident, shard))
                current_end = max(current_end, incident.end)
            else:
                if current:
                    clusters.append(current)
                current = [(incident, shard)]
                current_end = incident.end
        if current:
            clusters.append(current)

        metas, leftovers = [], 0
        for cluster in clusters:
            shards = {shard for _, shard in cluster}
            if len(shards) >= self.k_min:
                meta = MetaIncident(len(metas) + 1, cluster, self.window)
                self._attribute(meta, replacements, migrations)
                metas.append(meta)
            else:
                leftovers += len(cluster)
        if storm and storm.get("shards"):
            onset = storm.get("at", 0.0)
            ended = storm.get("ended_at", onset)
            for meta in metas:
                if (
                    meta.opened_at <= ended + self.window
                    and meta.end >= onset - self.window
                ):
                    meta.absorb(storm["shards"])
                    break  # one storm, one meta-incident
        self.meta_incidents = metas
        self.unclustered = leftovers
        return metas

    def _attribute(self, meta, replacements, migrations):
        """Elasticity actions inside the meta-incident's (padded) span."""
        lo = meta.opened_at - 1.0
        hi = max(i.end for i in meta.incidents) + self.window
        shards = set(meta.shards)
        for record in replacements:
            if lo <= record["at"] <= hi and record.get("replaced") in shards:
                meta.replacements.append(dict(record))
        for record in migrations:
            involved = (
                record.get("source") in shards
                or record.get("target") in shards
            )
            if lo <= record["at"] <= hi and involved:
                meta.migrations.append(dict(record))
        meta.replacements.sort(key=lambda r: r["at"])
        meta.migrations.sort(key=lambda m: m["at"])


# ----------------------------------------------------------------------
# Offline (timeline) surfaces
# ----------------------------------------------------------------------
def shards_from_timeline(records):
    """Rebuild the per-shard rollup view from recorded JSONL events.

    ``shard.rollup`` events carry the summary rows (latest per shard
    wins, matching a rerun), ``shard.window`` events rebuild the bounded
    series, and ``capacity.*`` / ``reshard.migrate`` / ``storm.begin``
    events restore the signal stream and storm context.
    """
    rows = {}
    windows = {}
    signals = []
    migrations = []
    storm = None
    for record in records:
        kind = record.get("kind")
        if kind == "shard.rollup":
            row = {
                k: v for k, v in record.items() if k not in RESERVED_KEYS
            }
            shard = row.get("shard")
            if shard:
                rows[shard] = row
        elif kind == "shard.window":
            shard = record.get("shard")
            if shard:
                windows.setdefault(shard, []).append(
                    [
                        record.get("start"), record.get("end"),
                        record.get("good", 0), record.get("bad", 0),
                        bool(record.get("violated")),
                    ]
                )
        elif kind in ("capacity.pressure", "capacity.relief"):
            signals.append(
                {
                    "t": record.get("t"),
                    "shard": record.get("shard"),
                    "signal": kind.split(".", 1)[1],
                    "score": record.get("score"),
                    "ewma": record.get("ewma"),
                    "headroom": record.get("headroom"),
                }
            )
        elif kind == "reshard.migrate":
            migrations.append(
                {
                    "at": record.get("t"),
                    "source": record.get("source"),
                    "target": record.get("target"),
                    "sessions": record.get("sessions", 0),
                    "window": record.get("window", 0.0),
                }
            )
        elif kind == "storm.begin":
            storm = {
                "at": record.get("t"),
                "shards": list(record.get("shards", ())),
                "events": record.get("events"),
                "horizon": record.get("horizon"),
            }
    for shard, row in rows.items():
        row["windows"] = sorted(windows.get(shard, []))
    return {
        "shards": [rows[s] for s in sorted(rows)],
        "capacity_signals": signals,
        "migrations": migrations,
        "storm": storm,
    }


def shard_windows_from_records(records, shard, policy=None):
    """SLO windows for one shard, rebuilt from ``shard.window`` events.

    Megascale/storm timelines carry no per-request ``request.end``
    events (the cohort engine accounts in batches), so the per-shard SLO
    view replays the judged windows the plane exported instead.
    """
    policy = policy or SloPolicy()
    windows = []
    for record in records:
        if record.get("kind") != "shard.window":
            continue
        if record.get("shard") != shard:
            continue
        window = SloWindow(
            start=record.get("start", 0.0),
            end=record.get("end", 0.0),
            good=record.get("good", 0),
            bad=record.get("bad", 0),
            availability_target=policy.availability_target,
        )
        availability = window.availability
        if window.total >= policy.min_requests and availability is not None \
                and availability < policy.availability_target:
            window.reasons.append(
                f"availability {availability:.4f} < "
                f"{policy.availability_target:.4f}"
            )
        window.violated = bool(window.reasons)
        windows.append(window)
    windows.sort(key=lambda w: w.start)
    return windows


def timeline_shards(records):
    """Sorted shard names seen anywhere in a timeline (for --shard help)."""
    shards = set()
    for record in records:
        shard = record.get("shard")
        if shard:
            shards.add(shard)
        for key in ("source", "target", "server", "node"):
            shard = shard_of_name(record.get(key))
            if shard:
                shards.add(shard)
    return sorted(shards)
