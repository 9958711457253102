"""The client-side load balancer (§5.3).

"Under failure-free operation, LB distributes new incoming login requests
evenly between the nodes and, for established sessions, LB implements
session affinity."  During a recovery the balancer supports three schemes:

* ``FULL`` failover: every request bound for the recovering node is
  redirected uniformly to the good nodes;
* ``MICRO`` failover (§6.1): only requests whose URL call path touches the
  recovering component(s) are redirected;
* ``NONE``: requests keep flowing to the recovering node (the paper's
  "µRB without failover", which Figure 1's averages favour).

With a :class:`~repro.core.hardening.HardeningPolicy` enabled, the
balancer additionally practices graceful degradation: it watches each
node's forwarded-response latency and forward failures, marks nodes
*degraded*, routes fresh (cookie-less, non-session-critical) requests away
from them, and — when every node is degraded — sheds those requests with a
fast ``503 Retry-After`` instead of queueing them behind a slowdown.
Session-critical requests always keep flowing: affinity outranks shedding.

The balancer is also a chaos injection surface: :meth:`inject_link_fault`
degrades the LB→node link (extra forward delay and/or a drop probability),
which clients observe as slow responses and network errors.
"""

import enum

from repro.appserver.http import HttpResponse, HttpStatus
from repro.core.hardening import HardeningPolicy
from repro.telemetry.metrics import MetricsRegistry


class LinkDropError(Exception):
    """The (chaos-degraded) LB→node link dropped a forwarded request."""


class FailoverMode(enum.Enum):
    NONE = "none"
    FULL = "full"
    MICRO = "micro"


class LoadBalancer:
    """Routes client requests to cluster nodes."""

    def __init__(
        self, kernel, nodes, url_path_map=None, metrics=None, hardening=None,
        ring=None, shard_of_node=None,
    ):
        """``ring``/``shard_of_node`` switch on consistent-hash sharding:
        cookie-less requests route to their ``client_id``'s owner shard
        (instead of global round-robin) and failover walks the owner's
        brick-group replicas first, then the ring's successor shards.
        Both default to None, which keeps the classic small-cluster
        behavior bit-for-bit.
        """
        self.kernel = kernel
        self.nodes = list(nodes)
        self.url_path_map = dict(url_path_map or {})
        self.ring = ring
        self._node_shard = dict(shard_of_node or {})
        if ring is not None and not self._node_shard:
            raise ValueError("a ring needs shard_of_node to map nodes")
        #: shard -> [nodes serving it], in self.nodes order.
        self._shard_nodes = {}
        for node in self.nodes:
            shard = self._node_shard.get(node.name)
            if shard is not None:
                self._shard_nodes.setdefault(shard, []).append(node)
        self._shard_cursor = {}
        self._ring_successors_cache = {}
        self.hardening = (
            hardening if hardening is not None else HardeningPolicy.disabled()
        )
        self._affinity = {}  # cookie -> node
        #: Shared round-robin cursor over the *stable* ``self.nodes`` order.
        #: Never modded by a shifting candidate-list length: during failover
        #: ineligible nodes are skipped in place, so the rotation (and thus
        #: the spread) survives nodes leaving and rejoining.
        self._round_robin = 0
        #: node -> (FailoverMode, components being recovered)
        self._recovering = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Span layer (wired by the rig): when set, traces are attached at
        #: the balancer, so the path records which node served the request.
        self.span_collector = None
        self._routed = self.metrics.counter("lb.requests.routed")
        self._failed_over = self.metrics.counter("lb.requests.failed_over")
        self._forward_failures = self.metrics.counter("lb.forward.failures")
        self.sessions_failed_over = set()
        #: node name -> (delay seconds, drop probability, rng) chaos faults.
        self._link_faults = {}
        self._link_dropped = self.metrics.counter("lb.link.dropped")
        #: Graceful-degradation state (active only when hardening enables
        #: ``shed_degraded``): recent per-node latency samples, recent
        #: forward-failure times, and degraded-until marks.
        self._latency = {}
        self._fail_times = {}
        self._degraded_until = {}
        #: node name -> why it was last marked degraded ("latency",
        #: "failures", or an external reason from :meth:`note_degraded`).
        self._degraded_reason = {}
        self._shed = self.metrics.counter("lb.requests.shed")
        self._degraded_marks = self.metrics.counter("lb.degraded.marks")
        #: Shard-aware failover accounting: rerouted within the owner's
        #: replica group vs escaped to a ring-successor shard.
        self._shard_local_failover = self.metrics.counter(
            "lb.shard.failover.local"
        )
        self._shard_cross_failover = self.metrics.counter(
            "lb.shard.failover.cross"
        )

    @property
    def requests_routed(self):
        return int(self._routed.value)

    @property
    def requests_failed_over(self):
        return int(self._failed_over.value)

    @property
    def forward_failures(self):
        return int(self._forward_failures.value)

    @property
    def requests_shed(self):
        return int(self._shed.value)

    # ------------------------------------------------------------------
    # Elastic resharding: shards join and leave a live balancer
    # ------------------------------------------------------------------
    def add_shard_nodes(self, shard, nodes):
        """Register a joining shard's nodes for routing.

        The caller owns the cutover ordering (nodes registered *before*
        the ring learns the shard, so the first rerouted request already
        has somewhere to go).  Any cached ring-successor walks are stale
        the moment the ring changes, so the cache is dropped wholesale.
        """
        for node in nodes:
            self.nodes.append(node)
            self._node_shard[node.name] = shard
            self._shard_nodes.setdefault(shard, []).append(node)
        self._ring_successors_cache.clear()
        self.kernel.trace.publish(
            "lb.shard.join", shard=shard,
            nodes=tuple(node.name for node in nodes),
        )

    def remove_shard(self, shard):
        """Deregister a departed shard from every routing structure.

        Pruning has to be total: a surviving cursor, degraded mark, ring
        reference, or affinity pin could hand a request to a node that no
        longer serves anyone.  Returns the removed nodes (the caller may
        still drain their in-flight work).
        """
        members = self._shard_nodes.pop(shard, [])
        names = {node.name for node in members}
        self.nodes = [node for node in self.nodes if node.name not in names]
        self._shard_cursor.pop(shard, None)
        # Every cached successor walk enumerates *other* shards too, so a
        # per-shard pop is not enough: drop the whole cache.
        self._ring_successors_cache.clear()
        self._affinity = {
            cookie: node
            for cookie, node in self._affinity.items()
            if node.name not in names
        }
        for name in names:
            self._node_shard.pop(name, None)
            self._recovering.pop(name, None)
            self._link_faults.pop(name, None)
            self._latency.pop(name, None)
            self._fail_times.pop(name, None)
            self._degraded_until.pop(name, None)
            self._degraded_reason.pop(name, None)
        self.kernel.trace.publish(
            "lb.shard.leave", shard=shard, nodes=tuple(sorted(names))
        )
        return members

    def drop_affinity(self, cookies):
        """Forget affinity pins for migrated sessions: their state moved
        to another shard's brick group, so the next request must re-route
        by the ring instead of returning to the old node."""
        for cookie in cookies:
            self._affinity.pop(cookie, None)

    # ------------------------------------------------------------------
    # Chaos injection surface: LB → node link faults
    # ------------------------------------------------------------------
    def inject_link_fault(self, node, delay=0.0, drop_rate=0.0, rng=None):
        """Degrade the link to ``node``: extra delay and/or dropped forwards."""
        if drop_rate > 0 and rng is None:
            raise ValueError("drop_rate needs an rng for the drop draws")
        self._link_faults[node.name] = (delay, drop_rate, rng)
        self.kernel.trace.publish(
            "lb.link.fault", node=node.name, delay=delay, drop_rate=drop_rate
        )

    def clear_link_fault(self, node):
        """The link to ``node`` heals."""
        if self._link_faults.pop(node.name, None) is not None:
            self.kernel.trace.publish("lb.link.heal", node=node.name)

    # ------------------------------------------------------------------
    # Recovery coordination (the RM notifies us, §5.3)
    # ------------------------------------------------------------------
    def begin_failover(self, node, mode=FailoverMode.FULL, components=()):
        """A node is about to recover: start redirecting per ``mode``."""
        self._recovering[node.name] = (mode, frozenset(components))
        self.kernel.trace.publish(
            "lb.failover.begin",
            node=node.name,
            mode=mode.value,
            components=tuple(components),
        )

    def end_failover(self, node):
        """The node recovered: requests are distributed as before."""
        if self._recovering.pop(node.name, None) is not None:
            self.kernel.trace.publish("lb.failover.end", node=node.name)

    def recovering_nodes(self):
        return set(self._recovering)

    def node_for_session(self, cookie):
        """The node holding ``cookie``'s session affinity, or None.

        Cluster rigs use this to deliver a failure report to the recovery
        manager of the node that actually served the failing client.
        """
        if not cookie:
            return None
        return self._affinity.get(cookie)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def handle_request(self, request):
        """Route one request; returns an event (same contract as a server)."""
        self._routed.inc()
        if self.span_collector is not None:
            self.span_collector.attach(request)
        node = self._route(request)
        done = self.kernel.event()
        if node is None:
            # Graceful degradation: every node is degraded, so queueing this
            # non-session request behind the slowdown would only deepen it.
            # Answer a fast 503 instead; Retry-After pushes the client past
            # the degraded window.
            self._shed.inc()
            self.kernel.trace.publish("lb.shed", url=request.url)
            return done.succeed(
                HttpResponse(
                    status=HttpStatus.SERVICE_UNAVAILABLE,
                    body="<html>error: service degraded, retry later</html>",
                    retry_after=self.hardening.shed_retry_after,
                )
            )
        self.kernel.process(
            self._forward(node, request, done),
            name=f"lb-{request.request_id}",
        )
        return done

    def _forward(self, node, request, done):
        started = self.kernel.now
        fault = self._link_faults.get(node.name)
        if fault is not None:
            delay, drop_rate, rng = fault
            if delay > 0:
                yield self.kernel.timeout(delay)
            if drop_rate > 0 and rng.random() < drop_rate:
                # The connection dies mid-flight; the client observes a
                # network error, its strongest failure signal.
                self._link_dropped.inc()
                self._note_forward_failure(node)
                self.kernel.trace.publish(
                    "lb.link.drop", node=node.name, url=request.url
                )
                done.fail(LinkDropError(f"link to {node.name} dropped request"))
                return
        try:
            response = yield node.server.handle_request(request)
        except Exception as exc:  # noqa: BLE001 - propagate, never hang
            # The forwarded event failed: without failing ``done`` the
            # client would wait on it forever and Taw would never account
            # the request.
            self._forward_failures.inc()
            self._note_forward_failure(node)
            self.kernel.trace.publish(
                "lb.forward.error",
                node=node.name,
                url=request.url,
                error=f"{type(exc).__name__}: {exc}",
            )
            done.fail(exc)
            return
        self._note_latency(node, self.kernel.now - started)
        cookie = (response.payload or {}).get("cookie")
        if cookie:
            self._affinity[cookie] = node
        done.succeed(response)

    def _route(self, request):
        node = self._affinity.get(request.cookie) if request.cookie else None
        if node is None:
            # Cookie-less requests carry no session state: they may be
            # routed anywhere, away from degraded nodes, or shed (None).
            return self._fresh_node(request)
        redirect = self._recovering.get(node.name)
        if redirect is None:
            if self._shedding() and node.name in self.degraded_nodes():
                # Session state lives in the external store, so a session
                # pinned to a degraded (slow or link-flaky) node can be
                # served anywhere: route around the degradation instead
                # of queueing behind it — failover without a reboot.
                # ``_fresh_node`` skips degraded nodes, so this stays put
                # (returns the pinned node) when nowhere is healthier.
                target = self._fresh_node(request)
                if target is not None and target is not node:
                    self._failed_over.inc()
                    self.sessions_failed_over.add(request.cookie)
                    self.kernel.trace.publish(
                        "lb.degraded.reroute",
                        url=request.url,
                        from_node=node.name,
                        to_node=target.name,
                    )
                    return target
            return node
        mode, components = redirect
        if mode is FailoverMode.NONE:
            return node
        if mode is FailoverMode.MICRO and not self._touches(request, components):
            return node
        self._failed_over.inc()
        if request.cookie:
            self.sessions_failed_over.add(request.cookie)
        target = self._next_good_node(exclude=node, request=request)
        trace = self.kernel.trace
        if trace.enabled:  # hoisted: one publish per redirected request
            trace.publish(
                "lb.failover",
                url=request.url,
                from_node=node.name,
                to_node=target.name,
                mode=mode.value,
            )
        return target

    def _touches(self, request, components):
        """Would this request's call path enter any recovering component?"""
        best = None
        for prefix in self.url_path_map:
            if request.url.startswith(prefix) and (
                best is None or len(prefix) > len(best)
            ):
                best = prefix
        path = self.url_path_map.get(best, ())
        return bool(set(path) & components)

    # ------------------------------------------------------------------
    # Graceful degradation (hardening)
    # ------------------------------------------------------------------
    def _shedding(self):
        return self.hardening.enabled and self.hardening.shed_degraded

    def degraded_nodes(self):
        """Names of nodes currently marked degraded."""
        now = self.kernel.now
        return {
            name for name, until in self._degraded_until.items() if until > now
        }

    def _note_latency(self, node, elapsed):
        if not self._shedding():
            return
        samples = self._latency.setdefault(node.name, [])
        samples.append(elapsed)
        if len(samples) > self.hardening.latency_samples:
            del samples[0]
        if (
            len(samples) >= self.hardening.latency_samples
            and sum(samples) / len(samples) > self.hardening.shed_latency
        ):
            self._mark_degraded(node.name, "latency")

    def _note_forward_failure(self, node):
        if not self._shedding():
            return
        horizon = self.kernel.now - self.hardening.degraded_ttl
        times = [
            t for t in self._fail_times.get(node.name, ()) if t >= horizon
        ]
        times.append(self.kernel.now)
        self._fail_times[node.name] = times
        if len(times) >= self.hardening.shed_failure_threshold:
            self._mark_degraded(node.name, "failures")

    def note_degraded(self, node, reason, ttl=None):
        """External evidence (e.g. the RM deferring a node-wide recovery
        on backoff) that ``node`` is sick: route around it for ``ttl``
        seconds (default ``degraded_ttl``)."""
        if self._shedding():
            self._mark_degraded(node.name, reason, ttl=ttl)

    def _mark_degraded(self, name, reason, ttl=None):
        now = self.kernel.now
        if ttl is None or ttl <= 0:
            ttl = self.hardening.degraded_ttl
        fresh = self._degraded_until.get(name, 0.0) <= now
        self._degraded_until[name] = max(
            self._degraded_until.get(name, 0.0), now + ttl
        )
        self._degraded_reason[name] = reason
        if fresh:
            self._degraded_marks.inc()
            self.kernel.trace.publish(
                "lb.degraded", node=name, reason=reason,
                until=self._degraded_until[name],
            )
        return self._degraded_until[name]

    def _eligible(self, node, request=None):
        """May ``request`` be routed to ``node`` despite recovery windows?

        A node in FULL failover takes nothing; a node in MICRO failover
        (a µRB, or a long-lived component quarantine) stays eligible for
        requests that never touch the recovering components — excluding
        it wholesale would turn every quarantine into a node outage.
        """
        entry = self._recovering.get(node.name)
        if entry is None:
            return True
        mode, components = entry
        if mode is FailoverMode.NONE:
            return True
        if mode is FailoverMode.MICRO and request is not None:
            return not self._touches(request, components)
        return False

    # ------------------------------------------------------------------
    # Consistent-hash shard routing (active only when a ring is wired)
    # ------------------------------------------------------------------
    def shard_of(self, node):
        """The shard ``node`` serves, or None without a ring."""
        return self._node_shard.get(node.name)

    def _node_in_shard(self, shard, request=None, exclude=None,
                       skip_degraded=False):
        """An eligible node of ``shard``'s replica group, or None.

        Rotates a per-shard cursor so a multi-node group spreads load
        evenly; honours recovery windows and (optionally) degraded marks.
        """
        nodes = self._shard_nodes.get(shard)
        if not nodes:
            return None
        degraded = self.degraded_nodes() if skip_degraded else ()
        cursor = self._shard_cursor.get(shard, 0)
        for i in range(len(nodes)):
            node = nodes[(cursor + i) % len(nodes)]
            if node is exclude or node.name in degraded:
                continue
            if not self._eligible(node, request):
                continue
            self._shard_cursor[shard] = (cursor + i + 1) % len(nodes)
            return node
        return None

    def _ring_successor_shards(self, shard):
        """Deterministic distinct-shard walk order when ``shard``'s own
        group cannot serve (derived from the ring, cached)."""
        order = self._ring_successors_cache.get(shard)
        if order is None:
            order = tuple(
                s for s in self.ring.preference(shard) if s != shard
            )
            self._ring_successors_cache[shard] = order
        return order

    def _ring_route(self, request):
        """Owner-shard placement for a cookie-less request, or None.

        Hashes the request's ``client_id`` on the ring, then walks the
        ring lazily (owner shard first, ring successors after) until a
        shard has an eligible node.  Returning None sends the caller down
        the legacy global path, which owns the shed-vs-best-effort call.
        """
        key = request.client_id if request is not None else 0
        skip_degraded = self._shedding()
        for pos, shard in enumerate(self.ring.walk(key)):
            node = self._node_in_shard(
                shard, request, skip_degraded=skip_degraded
            )
            if node is not None:
                if pos:
                    self._shard_cross_failover.inc()
                return node
        return None

    def _fresh_node(self, request=None):
        """Node for a cookie-less request, or None to shed it.

        Honours degraded marks on top of the recovering-node rules; the
        rotation cursor is shared with :meth:`_next_good_node` so the
        round-robin spread stays coherent.
        """
        if self.ring is not None:
            node = self._ring_route(request)
            if node is not None:
                return node
        if not self._shedding():
            return self._next_good_node(request=request)
        degraded = self.degraded_nodes()
        if not degraded:
            return self._next_good_node(request=request)
        candidates = [
            node
            for node in self.nodes
            if node.name not in degraded and self._eligible(node, request)
        ]
        if not candidates:
            # Everywhere is degraded, so the marks carry no routing
            # information.  Shed (fast 503) only when every node is
            # *latency*-degraded — queueing more requests behind a
            # cluster-wide slowdown deepens it.  For failure- or
            # deferral-driven marks, refusing service is strictly worse
            # than trying a node: route normally, best effort.
            if all(
                self._degraded_reason.get(name) == "latency"
                for name in degraded
            ):
                return None
            return self._next_good_node(request=request)
        eligible = {id(node) for node in candidates}
        for _ in range(len(self.nodes)):
            node = self.nodes[self._round_robin % len(self.nodes)]
            self._round_robin += 1
            if id(node) in eligible:
                return node
        return candidates[0]

    def _next_good_node(self, exclude=None, request=None):
        if self.ring is not None:
            shard = (
                self._node_shard.get(exclude.name)
                if exclude is not None else None
            )
            if shard is not None:
                # Shard-aware failover: the replicated brick group means
                # any sibling node of the shard can serve the session —
                # reroute within the group first, then walk the ring.
                skip_degraded = self._shedding()
                node = self._node_in_shard(
                    shard, request, exclude=exclude,
                    skip_degraded=skip_degraded,
                )
                if node is not None:
                    self._shard_local_failover.inc()
                    return node
                for successor in self._ring_successor_shards(shard):
                    node = self._node_in_shard(
                        successor, request, skip_degraded=skip_degraded
                    )
                    if node is not None:
                        self._shard_cross_failover.inc()
                        return node
            else:
                node = self._ring_route(request)
                if node is not None and node is not exclude:
                    return node
        candidates = [
            node
            for node in self.nodes
            if node is not exclude and self._eligible(node, request)
        ]
        if not candidates:
            candidates = [n for n in self.nodes if n is not exclude] or self.nodes
        eligible = {id(node) for node in candidates}
        # Walk the stable ring from the shared cursor, skipping ineligible
        # nodes in place; modding by len(candidates) would re-seat the whole
        # rotation every time the candidate list changed length (failover
        # begin/end), skewing the spread toward some nodes.
        for _ in range(len(self.nodes)):
            node = self.nodes[self._round_robin % len(self.nodes)]
            self._round_robin += 1
            if id(node) in eligible:
                return node
        return candidates[0]
