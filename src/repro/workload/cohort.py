"""Cohort-vectorized workload engine: a million sessions without a
million processes.

The per-client engine (:mod:`repro.workload.client`) gives every emulated
user its own kernel process — perfect fidelity at the paper's hundreds of
clients, hopeless at a million.  This module keeps the *statistics* of
that population (the Table 1 Markov mix, exponential think times, Taw's
all-or-nothing action accounting) while dropping the per-session event
machinery:

* the session population lives in **array-based per-state tables**: one
  integer count per ``(shard, Markov state)`` cell, where a state is a
  position inside an action's operation script.  A million sessions cost
  a few thousand integers, not a million generators;
* per think-time tick, each cell samples how many of its sessions click
  (a binomial draw with ``p = tick / (think + latency)`` — the matched-
  rate discretization of the exponential think process, so the mean
  inter-click gap equals the per-client engine's ``think + RT`` exactly
  and Little's-law offered load carries over),
  splits them into successes and failures against the shard's live
  outcome model, and pools all end-of-action sessions into **one
  aggregate multinomial draw per shard** over the flattened
  next-action distribution — the same chain the per-client profile
  samples one session at a time;
* every draw comes from a **dedicated per-shard RNG stream**
  (``cohort/<shard>``), so results are deterministic for a seed and
  independent of shard iteration order or anything else in the rig;
* metrics feed the existing :class:`~repro.workload.metrics.TawAccounting`
  through its bounded batch interface (counters, per-second series and
  the DDSketch response-time histogram — never per-action records), so
  memory stays flat no matter the population;
* **per-session detail is lazy**: sessions have no identity until one
  fails.  Failed clicks materialize up to a bounded number of
  :class:`SessionDetail` records per tick, which the rig forwards to the
  recovery managers as failure reports — the cohort analogue of the
  paper's client-side detectors.

The engine never talks HTTP itself; it consumes an *outcome model*
``outcome(shard, operation) -> (fail_probability, latency_seconds)``.
The megascale scenario grounds that model in reality by probing each
shard through the real load balancer / application-server stack every
tick, so injected faults, failovers and recoveries show up in the cohort
numbers with live-measured timing.
"""

from dataclasses import dataclass
from math import exp, log, sqrt

from repro.ebid.descriptors import operation_url
from repro.workload.markov import ACTION_TEMPLATES, WorkloadProfile

#: Actions whose failure ends the session (mirrors EmulatedClient: a failed
#: Login/Register aborts; everything else continues to the next action).
SESSION_FATAL_ACTIONS = frozenset({"Login", "Register", "Logout"})


# ----------------------------------------------------------------------
# Deterministic aggregate samplers
# ----------------------------------------------------------------------
def binomial(rng, n, p):
    """One Binomial(n, p) draw from ``rng``, exact for the regimes the
    cohort tables actually visit.

    Small cells (the small-N equivalence regime) sum explicit Bernoulli
    draws; larger cells with a modest mean use pmf inversion (exact, a
    handful of iterations); only huge cells with a large mean fall back
    to the clamped normal approximation, where the relative error is far
    below the engine's documented tolerance.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n < 32:
        hits = 0
        for _ in range(n):
            if rng.random() < p:
                hits += 1
        return hits
    mean = n * p
    if mean <= 32.0:
        # Inversion on the binomial pmf: p0 = (1-p)^n, then the
        # multiplicative recurrence.  Iterations ~ mean + a few sd.
        log_q = n * log(1.0 - p)
        pmf = exp(log_q)
        ratio = p / (1.0 - p)
        u = rng.random()
        k = 0
        while u > pmf and k < n:
            u -= pmf
            k += 1
            pmf *= ratio * (n - k + 1) / k
        return k
    sd = sqrt(mean * (1.0 - p))
    draw = int(rng.gauss(mean, sd) + 0.5)
    return min(n, max(0, draw))


def proportional_split(counts, take):
    """Split ``take`` units across cells proportionally to ``counts``.

    Largest-remainder apportionment, capped per cell and RNG-free, so a
    migration plan is a pure function of the tables it drains — the
    determinism contract (same seed ⇒ same plan, jobs=1 ≡ jobs=N) needs
    nothing beyond the tables themselves.  Returns a list of takes,
    ``0 <= take_i <= counts[i]`` and ``sum == min(take, sum(counts))``.
    """
    total = sum(counts)
    take = min(take, total)
    out = [0] * len(counts)
    if take <= 0:
        return out
    remaining = take
    quotas = []
    for i, count in enumerate(counts):
        if count <= 0:
            continue
        exact = take * count / total
        base = min(count, int(exact))
        out[i] = base
        remaining -= base
        quotas.append((exact - base, count, i))
    # Hand out the remainder by largest fractional part (ties broken by
    # cell index, for a stable order), skipping saturated cells; loop in
    # case caps force a second pass.
    while remaining > 0:
        quotas.sort(key=lambda q: (-q[0], q[2]))
        progressed = False
        for frac, count, i in quotas:
            if remaining <= 0:
                break
            if out[i] < count:
                out[i] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # every cell saturated (take == total)
            break
    return out


def multinomial(rng, n, probs):
    """Split ``n`` across categories with probabilities ``probs``.

    Sequential conditional binomials — the standard reduction, so the
    whole split costs ``len(probs)`` binomial draws however large ``n``
    gets.  ``probs`` must sum to ~1; the last category absorbs rounding.
    """
    counts = [0] * len(probs)
    remaining = n
    remaining_p = 1.0
    for i, p in enumerate(probs):
        if remaining <= 0:
            break
        if remaining_p <= 0.0 or i == len(probs) - 1:
            counts[i] = remaining
            remaining = 0
            break
        share = min(1.0, p / remaining_p)
        take = binomial(rng, remaining, share)
        counts[i] = take
        remaining -= take
        remaining_p -= p
    return counts


# ----------------------------------------------------------------------
# The flattened Markov state space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CohortState:
    """One Markov state: the next operation a session will issue."""

    index: int
    action: str
    op_index: int
    operation: str
    n_ops: int

    @property
    def is_last(self):
        return self.op_index == self.n_ops - 1


class CohortStateSpace:
    """Flattened (action, op-position) states plus pooled transitions.

    Two distributions cover every end-of-action transition, so each shard
    needs exactly two multinomial draws per tick:

    * ``entry``: which action starts a fresh session (Login vs Register);
    * ``next_action``: where a session goes after finishing any non-Logout
      action — continue with a weighted mid action, log out, or (having
      declined both) chain straight into a new session's first action.
      This is the per-client ``session_actions`` generator flattened into
      a single categorical.
    """

    def __init__(self, profile=None):
        self.profile = profile or WorkloadProfile()
        self.states = []
        self._by_key = {}
        for action in sorted(ACTION_TEMPLATES):
            ops = ACTION_TEMPLATES[action]
            for i, op in enumerate(ops):
                state = CohortState(
                    index=len(self.states),
                    action=action,
                    op_index=i,
                    operation=op,
                    n_ops=len(ops),
                )
                self.states.append(state)
                self._by_key[(action, i)] = state.index

        p = self.profile
        entry = {
            self.entry_index("Login"): 1.0 - p.register_probability,
            self.entry_index("Register"): p.register_probability,
        }
        self.entry_dist = self._as_dist(entry)

        cont = p._continue_probability
        total = sum(p.mid_action_weights.values())
        next_action = {}
        for name, weight in p.mid_action_weights.items():
            next_action[self.entry_index(name)] = cont * weight / total
        stop = 1.0 - cont
        next_action[self.entry_index("Logout")] = (
            next_action.get(self.entry_index("Logout"), 0.0)
            + stop * p.logout_probability
        )
        abandon = stop * (1.0 - p.logout_probability)
        for idx, share in entry.items():
            next_action[idx] = next_action.get(idx, 0.0) + abandon * share
        self.next_action_dist = self._as_dist(next_action)

    @staticmethod
    def _as_dist(mapping):
        """(state indices tuple, probabilities tuple), deterministic order."""
        items = sorted(mapping.items())
        return tuple(i for i, _ in items), tuple(pr for _, pr in items)

    def entry_index(self, action):
        return self._by_key[(action, 0)]

    def state_index(self, action, op_index=0):
        return self._by_key[(action, op_index)]

    def __len__(self):
        return len(self.states)


# ----------------------------------------------------------------------
# Lazy per-session detail
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionDetail:
    """A failed click, materialized into a concrete session's story.

    Sessions are anonymous counts until something goes wrong; the engine
    mints a stable synthetic identity only then, bounded per tick, so the
    recovery pipeline gets individually attributable failure reports
    without the engine ever holding per-session state.
    """

    session_id: int
    shard: str
    action: str
    operation: str
    url: str
    at: float


class CohortEngine:
    """Batched Markov workload over a sharded session population."""

    def __init__(
        self,
        kernel,
        rng_registry,
        outcome,
        n_sessions,
        shards,
        ring=None,
        profile=None,
        metrics=None,
        tick=1.0,
        reporter=None,
        max_details_per_tick=3,
        detail_retention=200,
    ):
        """Args:
            outcome: ``outcome(shard, operation) -> (fail_p, latency_s)``,
                consulted live each tick per (shard, state) cell.
            shards: shard names; with a ``ring`` the sessions are
                apportioned over the shards' ring arc lengths, else
                spread round-robin.
            reporter: optional callable receiving each materialized
                :class:`SessionDetail` (at most ``max_details_per_tick``
                per shard per tick) — the cohort failure-detector feed.
        """
        from repro.workload.metrics import TawAccounting

        if n_sessions <= 0:
            raise ValueError(f"n_sessions must be positive, got {n_sessions}")
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        self.kernel = kernel
        self.outcome = outcome
        self.n_sessions = n_sessions
        self.shards = list(shards)
        self.space = CohortStateSpace(profile)
        self.profile = self.space.profile
        #: Per-state constants every tick reads, built once: (operation,
        #: action, ops a failed click voids, ops a finished action
        #: commits, is last, failure ends the session, success ends it).
        self._state_consts = [
            (
                state.operation,
                state.action,
                state.op_index + 1,
                state.n_ops,
                state.is_last,
                state.action in SESSION_FATAL_ACTIONS,
                state.action == "Logout",
            )
            for state in self.space.states
        ]
        self.metrics = metrics if metrics is not None else TawAccounting()
        self.tick = tick
        self.reporter = reporter
        self.max_details_per_tick = max_details_per_tick
        self.detail_retention = detail_retention
        self._rng_registry = rng_registry
        self._rngs = {
            shard: rng_registry.stream(f"cohort/{shard}")
            for shard in self.shards
        }

        #: shard -> [count per state index] — the whole population.
        self.counts = {}
        self.shard_sessions = self._place_sessions(ring)
        for shard in self.shards:
            rng = self._rngs[shard]
            table = [0] * len(self.space)
            indices, probs = self.space.entry_dist
            for idx, n in zip(
                indices, multinomial(rng, self.shard_sessions[shard], probs)
            ):
                table[idx] += n
            self.counts[shard] = table

        #: Aggregate operation mix (issued clicks per operation name).
        self.ops_issued = {}
        #: Finished actions per action name (committed + failed): the same
        #: events the per-client engine's ``record_action`` sees, so the
        #: two engines' action mixes are directly comparable.
        self.actions_finished = {}
        #: shard -> {second: failed clicks} / {second: good clicks}.
        self.shard_bad_series = {shard: {} for shard in self.shards}
        self.shard_good_series = {shard: {} for shard in self.shards}
        #: Materialized failures: bounded list + full count.
        self.details = []
        self.details_dropped = 0
        self.total_details = 0
        self._detail_serial = 0
        self.ticks_run = 0
        self._process = None
        #: Elastic resharding state: sessions mid-migration (extracted
        #: from their source shard, not yet released into the target),
        #: retired shards (kept for summary/accounting completeness), and
        #: the per-move log the reshard plans are gated on.
        self._in_transit = []  # [release_time, target shard, state vector]
        self._retired = []
        self.migrations = []
        self.sessions_migrated = 0

    # ------------------------------------------------------------------
    def _place_sessions(self, ring):
        """Shard → session count.

        With a ring, ``n_sessions`` is split over the shards' arc lengths
        by largest remainder, in engine shard order: each shard gets its
        exact expected share under uniform key hashing, in O(shards)
        instead of one SHA-256 per session.  Without one, sessions are
        spread round-robin.
        """
        if ring is None:
            base, extra = divmod(self.n_sessions, len(self.shards))
            return {
                shard: base + (i < extra)
                for i, shard in enumerate(self.shards)
            }
        arcs = ring.arc_lengths()
        if not arcs:
            raise ValueError("cannot place sessions on an empty ring")
        known = set(self.shards)
        for shard, arc in arcs.items():
            if arc and shard not in known:
                raise ValueError(
                    f"ring places sessions on unknown shard {shard!r}"
                )
        takes = proportional_split(
            [arcs.get(shard, 0) for shard in self.shards], self.n_sessions
        )
        return dict(zip(self.shards, takes))

    # ------------------------------------------------------------------
    # Elastic resharding: shards join/leave, sessions migrate live
    # ------------------------------------------------------------------
    def add_shard(self, shard):
        """A shard joins: empty tables, its own dedicated RNG stream."""
        if shard in self.shards or shard in self._retired:
            raise ValueError(f"shard {shard!r} already known to the engine")
        self.shards.append(shard)
        self._rngs[shard] = self._rng_registry.stream(f"cohort/{shard}")
        self.counts[shard] = [0] * len(self.space)
        self.shard_sessions[shard] = 0
        self.shard_good_series[shard] = {}
        self.shard_bad_series[shard] = {}

    def retire_shard(self, shard):
        """A drained shard leaves the tick loop.

        Its series and session history stay behind so cluster-level
        availability accounting remains complete; only future ticks stop
        visiting it.  Refuses while sessions still live there or are in
        flight toward it — retiring those would *lose* them.
        """
        if shard not in self.shards:
            raise KeyError(shard)
        if sum(self.counts[shard]):
            raise ValueError(f"retire_shard({shard!r}): sessions still live")
        if any(target == shard for _t, target, _v in self._in_transit):
            raise ValueError(f"retire_shard({shard!r}): migrations inbound")
        self.shards.remove(shard)
        self._retired.append(shard)

    def begin_migration(self, source, target, count, window=2.0):
        """Extract ``count`` sessions from ``source``; release them into
        ``target`` after ``window`` simulated seconds.

        Copy-then-cutover: the extracted sessions spend the window in an
        in-transit buffer — briefly unavailable (they issue no clicks, so
        migration shows up as a Gaw dip, never as failures) but always
        counted, so :meth:`population` conservation holds throughout.
        The per-cell extraction is largest-remainder proportional over
        the source's occupied cells: deterministic, RNG-free, and
        statistically faithful to the cohort's state mix.
        Returns how many sessions actually moved (≤ ``count``).
        """
        if target not in self.counts or target in self._retired:
            raise KeyError(target)
        table = self.counts[source]
        takes = proportional_split(table, count)
        moved = sum(takes)
        if moved <= 0:
            return 0
        vector = [0] * len(table)
        for idx, take in enumerate(takes):
            if take:
                table[idx] -= take
                vector[idx] = take
        self.shard_sessions[source] -= moved
        self._in_transit.append([self.kernel.now + window, target, vector])
        self.sessions_migrated += moved
        self.migrations.append(
            {
                "source": source,
                "target": target,
                "sessions": moved,
                "at": round(self.kernel.now, 6),
                "window": window,
            }
        )
        if self.kernel.trace.enabled:
            self.kernel.trace.publish(
                "cohort.migrate", source=source, target=target,
                sessions=moved, window=window,
            )
        return moved

    def in_transit(self):
        """Sessions currently inside a migration window."""
        return sum(sum(vector) for _t, _target, vector in self._in_transit)

    def _release_arrivals(self, now):
        """Fold due in-transit vectors into their target shard's tables."""
        due, keep = [], []
        for entry in self._in_transit:
            (due if entry[0] <= now + 1e-9 else keep).append(entry)
        if not due:
            return
        self._in_transit = keep
        for _t, target, vector in due:
            table = self.counts[target]
            arrived = 0
            for idx, n in enumerate(vector):
                if n:
                    table[idx] += n
                    arrived += n
            self.shard_sessions[target] += arrived
            if self.kernel.trace.enabled:
                self.kernel.trace.publish(
                    "cohort.migrate.arrived", target=target, sessions=arrived
                )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def start(self, duration):
        """Spawn the engine's kernel process, ticking for ``duration``."""
        self._process = self.kernel.process(
            self._run(duration), name="cohort-engine"
        )
        return self._process

    def _run(self, duration):
        end = self.kernel.now + duration
        while self.kernel.now < end - 1e-9:
            yield self.kernel.timeout(min(self.tick, end - self.kernel.now))
            self.run_tick()

    def run_tick(self):
        """Advance every cohort by one think-time tick."""
        now = self.kernel.now
        if self._in_transit:
            self._release_arrivals(now)
        bucket = int(now)
        space = self.space
        states = space.states
        consts = self._state_consts
        pools = (space.next_action_dist, space.entry_dist)
        think = self.profile.think_time_mean
        tick = self.tick
        outcome = self.outcome
        metrics = self.metrics
        ops_issued = self.ops_issued
        actions_finished = self.actions_finished
        trace = self.kernel.trace
        for shard in self.shards:
            table = self.counts[shard]
            rng = self._rngs[shard]
            good_ops = bad_ops = good_actions = bad_actions = 0
            rt_clicks = {}  # latency -> clicks: one sketch update each
            pool_next = 0  # sessions drawing their next action
            pool_entry = 0  # sessions starting a fresh session
            moves = []  # (state index, +sessions) applied after the scan
            details_budget = self.max_details_per_tick
            for idx, count in enumerate(table):
                if count <= 0:
                    continue
                (operation, action, voided, n_ops, is_last, fatal,
                 logout) = consts[idx]
                fail_p, latency = outcome(shard, operation)
                latency = max(0.0, latency)
                gap = think + latency
                # Matched-rate discretization: a geometric with success
                # probability tick/gap has mean inter-click gap exactly
                # ``gap`` ticks×tick, so the offered click rate equals the
                # per-client engine's 1/(think + RT) per session.
                p_fire = min(1.0, tick / gap)
                fired = binomial(rng, count, p_fire)
                if fired <= 0:
                    continue
                failed = (
                    binomial(rng, fired, fail_p) if fail_p > 0.0 else 0
                )
                ok = fired - failed
                moves.append((idx, -fired))
                ops_issued[operation] = ops_issued.get(operation, 0) + fired
                rt_clicks[latency] = rt_clicks.get(latency, 0) + fired
                if failed:
                    bad_ops += failed * voided
                    bad_actions += failed
                    actions_finished[action] = (
                        actions_finished.get(action, 0) + failed
                    )
                    if fatal:
                        pool_entry += failed
                    else:
                        pool_next += failed
                    if details_budget > 0:
                        details_budget -= self._materialize(
                            shard, states[idx], now,
                            min(failed, details_budget),
                        )
                if ok:
                    if is_last:
                        good_ops += ok * n_ops
                        good_actions += ok
                        actions_finished[action] = (
                            actions_finished.get(action, 0) + ok
                        )
                        if logout:
                            pool_entry += ok
                        else:
                            pool_next += ok
                    else:
                        moves.append((idx + 1, ok))
            # Pooled end-of-action transitions: one multinomial per pool.
            for pool, (indices, probs) in zip((pool_next, pool_entry), pools):
                if pool <= 0:
                    continue
                for idx, n in zip(indices, multinomial(rng, pool, probs)):
                    if n:
                        moves.append((idx, n))
            for idx, delta in moves:
                table[idx] += delta
            # Bounded accounting: counters + series + histogram only.
            metrics.record_batch(
                bucket,
                good_ops=good_ops,
                bad_ops=bad_ops,
                good_actions=good_actions,
                bad_actions=bad_actions,
            )
            for latency, n in rt_clicks.items():
                metrics.record_response_times(latency, n)
            if good_ops:
                series = self.shard_good_series[shard]
                series[bucket] = series.get(bucket, 0) + good_ops
            if bad_ops:
                series = self.shard_bad_series[shard]
                series[bucket] = series.get(bucket, 0) + bad_ops
                if trace.enabled:
                    trace.publish(
                        "cohort.failures",
                        shard=shard,
                        count=bad_ops,
                        actions=bad_actions,
                    )
        self.ticks_run += 1

    def _materialize(self, shard, state, now, n):
        """Mint up to ``n`` concrete failed-session records (lazy detail)."""
        made = 0
        for _ in range(n):
            self._detail_serial += 1
            detail = SessionDetail(
                session_id=self._detail_serial,
                shard=shard,
                action=state.action,
                operation=state.operation,
                url=operation_url(state.operation),
                at=now,
            )
            self.total_details += 1
            if len(self.details) < self.detail_retention:
                self.details.append(detail)
            else:
                self.details_dropped += 1
            if self.reporter is not None:
                self.reporter(detail)
            made += 1
        return made

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def population(self):
        """Total sessions currently tracked (conservation invariant).

        Includes sessions inside a migration window: in transit is
        unavailable, not lost.
        """
        return (
            sum(sum(table) for table in self.counts.values())
            + self.in_transit()
        )

    def operations_mix(self):
        """Operation → fraction of issued clicks (Table 1's shape)."""
        total = sum(self.ops_issued.values())
        if total == 0:
            return {}
        return {op: n / total for op, n in sorted(self.ops_issued.items())}

    def action_mix(self):
        """Action → fraction of finished actions (committed + failed).

        Counts exactly the events the per-client engine's
        ``record_action`` counts, so the two mixes are comparable one to
        one in the equivalence contract.
        """
        total = sum(self.actions_finished.values())
        if not total:
            return {}
        return {
            a: c / total for a, c in sorted(self.actions_finished.items())
        }

    def shard_summary(self):
        """Per-shard sessions, clicks and availability (sorted rows).

        Retired shards keep their rows: their clicks happened and still
        count toward cluster availability; ``sessions`` shows the 0 they
        drained to.
        """
        rows = []
        for shard in list(self.shards) + self._retired:
            good = sum(self.shard_good_series[shard].values())
            bad = sum(self.shard_bad_series[shard].values())
            total = good + bad
            rows.append(
                {
                    "shard": shard,
                    "sessions": self.shard_sessions[shard],
                    "good": good,
                    "bad": bad,
                    "availability": (
                        round(good / total, 4) if total else None
                    ),
                }
            )
        return rows

    def worst_shard(self):
        """The shard with the lowest availability (None when idle)."""
        rows = [r for r in self.shard_summary() if r["availability"] is not None]
        if not rows:
            return None
        return min(rows, key=lambda r: (r["availability"], r["shard"]))
