"""Recovery-pipeline hardening: backoff, quarantine, storm limiting.

The paper's evaluation (§5.1, Table 2) injects one fault at a time and
implicitly assumes the recovery pipeline itself is well behaved.  Under
correlated faults that assumption breaks in three characteristic ways:

* **reboot loops** — a component that is re-broken faster than it can be
  microrebooted gets recycled over and over, and every cycle kills threads
  and aborts transactions (collateral failures for innocent requests);
* **recovery storms** — a shared-infrastructure fault (session store
  outage, load-balancer link trouble) makes *every* node's monitor scores
  cross threshold at once, so the whole cluster reboots simultaneously and
  availability drops to zero even though no node was actually broken;
* **degraded-node pile-ups** — a slow (not dead) node keeps accepting
  traffic; requests queue behind the slowdown until they time out, which
  the detectors read as failures, which triggers reboots of a node whose
  only crime was being slow.

This module holds the knobs (:class:`HardeningPolicy`) and the one piece
of genuinely shared state (:class:`RecoveryStormLimiter`).  The mechanisms
live where the decisions are made: exponential per-target backoff and
flap-detection quarantine in
:class:`~repro.core.recovery_manager.RecoveryManager`, degraded-node load
shedding in :class:`~repro.cluster.load_balancer.LoadBalancer`.

Everything is off by default (``HardeningPolicy.disabled()``), so the
paper's Table 1–6 / Figure 1–6 reproductions run the original, unhardened
pipeline unchanged.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class HardeningPolicy:
    """Knobs for the hardened recovery pipeline.

    Attributes:
        enabled: master switch; disabled reproduces the paper's pipeline.
        backoff_base: seconds a just-recovered target is protected from
            another recovery of the same target.
        backoff_factor: multiplier applied for every *repeat* recovery of
            the same target inside ``flap_window``.
        backoff_max: ceiling for the per-target backoff interval.
        flap_threshold: flap repeats for the same target within
            ``flap_window`` before the target is declared flapping and
            quarantined instead of rebooted again.  A repeat is either a
            completed recovery of the target or a (debounced) demand to
            recover it again while it is still in backoff.
        flap_window: sliding window (seconds) for both the repeat counter
            behind the exponential backoff and the flap detector.
        flap_debounce: minimum seconds between counted repeats of the same
            target, so one burst of failure reports cannot register as
            several independent flap pulses.
        quarantine_ttl: how long a quarantined component answers fast
            ``503 Retry-After`` (via its naming sentinel) instead of being
            invoked — and instead of triggering further recoveries.
        storm_limit: cluster-wide cap on *concurrent* recovery actions.
        storm_window: sliding window (seconds) for the rapid-fire cap.
        storm_window_limit: cap on recovery actions *started* within
            ``storm_window`` — looser than ``storm_limit`` (serial
            recoveries are normal; a cluster-wide stampede is not).
        parallel_recovery: how the recovery manager groups components
            for its one escalation ladder.  Off, one group spans the node:
            the paper's serial pipeline, one recovery at a time.  On, the
            dependency groups of a ``RecoveryGraph``: independent
            components microreboot concurrently (the storm limiter is the
            global concurrency cap) while actions within one group stay
            serialized on that group's ladder.
        shed_degraded: the load balancer sheds or reroutes
            non-session-critical requests away from degraded nodes.
        shed_latency: mean forwarded-response latency (seconds) above
            which the balancer marks a node degraded.
        shed_failure_threshold: forward failures inside the latency sample
            window that also mark a node degraded.
        degraded_ttl: seconds a node stays marked degraded after the last
            bad observation.
        shed_retry_after: ``Retry-After`` seconds on shed responses.
        latency_samples: per-node response-time samples the balancer keeps
            (and the minimum count before it will judge a node degraded).
    """

    enabled: bool = False
    #: Long enough to cover one full µRB + re-detection cycle (scores must
    #: re-cross the threshold from zero, which takes the detectors tens of
    #: seconds): a target re-implicated inside this interval is flapping,
    #: not freshly broken.
    backoff_base: float = 40.0
    backoff_factor: float = 2.0
    backoff_max: float = 120.0
    flap_threshold: int = 3
    flap_window: float = 180.0
    flap_debounce: float = 5.0
    quarantine_ttl: float = 60.0
    storm_limit: int = 2
    storm_window: float = 60.0
    storm_window_limit: int = 8
    parallel_recovery: bool = False
    shed_degraded: bool = True
    shed_latency: float = 0.4
    shed_failure_threshold: int = 6
    degraded_ttl: float = 30.0
    shed_retry_after: float = 2.0
    latency_samples: int = 10

    def __post_init__(self):
        # Same contract as RetryPolicy: bad knobs fail loudly at
        # construction, not silently mid-campaign.
        for name in ("backoff_base", "backoff_max", "flap_window",
                     "flap_debounce", "quarantine_ttl", "storm_window",
                     "shed_latency", "degraded_ttl", "shed_retry_after"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1.0, got {self.backoff_factor!r}"
            )
        for name in ("flap_threshold", "storm_limit", "storm_window_limit",
                     "shed_failure_threshold", "latency_samples"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")

    @classmethod
    def disabled(cls):
        """The paper's pipeline: no backoff, quarantine, or shedding."""
        return cls(enabled=False)

    @classmethod
    def hardened(cls):
        """Every safeguard on, with the defaults above."""
        return cls(enabled=True)

    @classmethod
    def parallel(cls):
        """Hardened defaults plus recovery grouped by dependency."""
        return cls(enabled=True, parallel_recovery=True)


class RecoveryStormLimiter:
    """Cluster-wide cap on concurrent / in-window recovery actions.

    One limiter instance is shared by every node's recovery manager; each
    manager asks :meth:`admit` before executing an action and calls
    :meth:`release` when the action finishes.  Denied managers simply skip
    the action — their failure scores survive, so recovery is *deferred*
    until the window frees up, not cancelled.
    """

    def __init__(self, kernel, limit=2, window=60.0, window_limit=8):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit!r}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window!r}")
        if window_limit < limit:
            raise ValueError(
                f"window_limit must be >= limit, got {window_limit!r}"
            )
        self.kernel = kernel
        self.limit = limit
        self.window = window
        self.window_limit = window_limit
        self.active = 0
        self.denied = 0
        self.admitted = 0
        self._admit_times = []

    def _in_window(self):
        horizon = self.kernel.now - self.window
        self._admit_times = [t for t in self._admit_times if t >= horizon]
        return len(self._admit_times)

    def admit(self, who=""):
        """True if another recovery action may start right now."""
        if self.active >= self.limit or self._in_window() >= self.window_limit:
            self.denied += 1
            self.kernel.trace.publish(
                "rm.storm.denied",
                who=who,
                active=self.active,
                in_window=len(self._admit_times),
                limit=self.limit,
            )
            return False
        self.active += 1
        self.admitted += 1
        self._admit_times.append(self.kernel.now)
        return True

    def release(self):
        self.active = max(0, self.active - 1)
