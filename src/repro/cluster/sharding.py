"""Consistent-hash session sharding and replicated SSM brick groups.

Growing the cluster past a handful of nodes (§5.3 stops at 8) needs two
pieces the paper's deployment never had to name:

* a :class:`ShardRing` — the classic consistent-hash ring with virtual
  nodes.  Placement is derived from SHA-256 digests of ``"shard#vnode"``
  strings, so it is deterministic across processes and runs (no reliance
  on Python's per-process string hashing), spreads keys evenly at ~64
  virtual nodes per shard, and moves only ``~1/n`` of the keys when a
  shard joins or leaves;
* a :class:`BrickGroup` — SSM already claims its bricks replicate session
  state ([26]); at one-brick scale that replication was invisible.  A
  brick group makes it real: writes go to every live brick, reads fall
  through to the first live brick that still has the object, and a single
  brick crash therefore no longer loses session availability for the
  whole shard.

The :class:`~repro.cluster.load_balancer.LoadBalancer` consults the ring
for session→shard routing (cookie-less requests hash their ``client_id``;
established sessions keep cookie affinity) and uses the ring's preference
order for shard-aware failover: reroute within the shard group first —
the replicated brick group means any node of the group can serve the
session — then walk the ring's successor shards.
"""

import hashlib
from bisect import bisect_right
from itertools import islice

from repro.stores.ssm import SSM


def stable_hash(key):
    """A 64-bit integer hash of ``key``, stable across processes.

    ``hash()`` would be cheaper but strings are salted per interpreter;
    determinism across spawn workers is part of the jobs=1 ≡ jobs=N
    contract, so placement has to come from a real digest.
    """
    if isinstance(key, bytes):
        data = key
    else:
        data = str(key).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class ShardRing:
    """Consistent-hash ring mapping session keys to named shards."""

    def __init__(self, shards=(), vnodes=64):
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self._points = []  # sorted [(hash, shard)]
        self._hashes = []  # parallel list of hashes, for bisect
        self._shards = []
        for shard in shards:
            self.add_shard(shard)

    def __len__(self):
        return len(self._shards)

    @property
    def shards(self):
        """Shard names in insertion order."""
        return tuple(self._shards)

    def add_shard(self, shard):
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.append(shard)
        for i in range(self.vnodes):
            point = (stable_hash(f"{shard}#{i}"), shard)
            self._points.append(point)
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def remove_shard(self, shard):
        if shard not in self._shards:
            raise KeyError(shard)
        self._shards.remove(shard)
        self._points = [p for p in self._points if p[1] != shard]
        self._hashes = [h for h, _ in self._points]

    def shard_for(self, key):
        """The shard owning ``key`` (deterministic placement)."""
        if not self._points:
            raise ValueError("shard_for on an empty ring")
        index = bisect_right(self._hashes, stable_hash(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def walk(self, key):
        """Distinct shards in ring order, starting at ``key``'s owner.

        Lazy: ``key`` is hashed once and ring points are visited only as
        far as the caller reads, so a router that stops at the owner pays
        one bisect; the walk ends once every shard has been yielded.
        """
        points = self._points
        if not points:
            raise ValueError("walk on an empty ring")
        n = len(points)
        remaining = len(self._shards)
        start = bisect_right(self._hashes, stable_hash(key))
        seen = set()
        for offset in range(n):
            shard = points[(start + offset) % n][1]
            if shard not in seen:
                seen.add(shard)
                yield shard
                remaining -= 1
                if not remaining:
                    return

    def preference(self, key, limit=None):
        """Distinct shards in ring order starting at ``key``'s owner.

        The first entry is :meth:`shard_for`; the rest are the successor
        shards a shard-aware failover walks when the owner is unavailable.
        """
        return list(islice(self.walk(key), limit))

    def counts(self, keys):
        """Shard → how many of ``keys`` it owns (balance diagnostics)."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts

    def arc_lengths(self):
        """Shard → how many of the 2^64 hash values it owns (exact ints).

        Computed by walking the sorted ring once — no key enumeration.
        The lengths sum to exactly 2^64, so apportioning a population over
        them is exact: the cohort engine places sessions this way.
        """
        if not self._points:
            return {}
        owned = {shard: 0 for shard in self._shards}
        # bisect_right routing means the point at hash h owns the arc
        # (prev_h, h]; the first point also owns the wraparound arc past
        # the last point, which the negative prev handles.
        prev = self._points[-1][0] - (1 << 64)
        for h, shard in self._points:
            owned[shard] += h - prev
            prev = h
        return owned

    def arc_measures(self):
        """Shard → fraction of the 2^64 hash space it owns.

        The exact stationary key share of each shard under uniform
        hashing.  Elastic resharding diffs these measures before and
        after a churn to plan the *minimal* session delta: a joining
        shard's intake from each donor is exactly the measure the donor
        lost, and a leaving shard's keys land on each survivor in
        proportion to the measure it gained.
        """
        space = 1 << 64
        return {
            shard: arc / space for shard, arc in self.arc_lengths().items()
        }


class BrickGroup:
    """A replicated group of SSM bricks serving one shard's sessions.

    Presents the same store interface as a single :class:`SSM` (the
    application server neither knows nor cares), but writes replicate to
    every live brick and reads fall through the replicas, so the group
    stays available while *any* brick lives.  ``crashed`` in the
    single-brick sense maps to "every brick crashed".
    """

    survives_microreboot = True
    survives_jvm_restart = True

    def __init__(self, kernel, n_bricks=2, lease_ttl=SSM.DEFAULT_LEASE_TTL,
                 name="BrickGroup"):
        if n_bricks <= 0:
            raise ValueError(f"a brick group needs >=1 brick, got {n_bricks}")
        self.kernel = kernel
        self.name = name
        self.bricks = [
            SSM(kernel, lease_ttl=lease_ttl, name=f"{name}/brick{i}")
            for i in range(n_bricks)
        ]
        self._access_time = 0.0

    # ``access_time`` is assigned by build_ebid_system the same way it is
    # for a bare SSM; fan it out so per-brick accounting stays coherent.
    @property
    def access_time(self):
        return self._access_time

    @access_time.setter
    def access_time(self, value):
        self._access_time = value
        for brick in self.bricks:
            brick.access_time = value

    @property
    def crashed(self):
        return all(brick.crashed for brick in self.bricks)

    @property
    def live_bricks(self):
        return [brick for brick in self.bricks if not brick.crashed]

    def __len__(self):
        ids = set()
        for brick in self.bricks:
            ids.update(brick.session_ids())
        return len(ids)

    # ------------------------------------------------------------------
    # Store API (same contract as SSM)
    # ------------------------------------------------------------------
    def read(self, session_id):
        """First live replica's copy, or None when every replica misses.

        A crashed brick is skipped, not consulted: its reads would miss
        anyway.  Falling through on a *live* miss matters too — a brick
        that was down during the session's write rejoins empty, and the
        read must not stop there.
        """
        for brick in self.bricks:
            if brick.crashed:
                continue
            data = brick.read(session_id)
            if data is not None:
                return data
        return None

    def write(self, session_id, data):
        """Replicate to every live brick (crashed bricks drop the write)."""
        for brick in self.bricks:
            if not brick.crashed:
                brick.write(session_id, data)

    def delete(self, session_id):
        for brick in self.bricks:
            brick.delete(session_id)

    def session_ids(self):
        ids = set()
        for brick in self.bricks:
            ids.update(brick.session_ids())
        return sorted(ids)

    # ------------------------------------------------------------------
    # Chaos surface
    # ------------------------------------------------------------------
    def crash_brick(self, index):
        """One brick of the group becomes unreachable."""
        self.bricks[index].crash()

    def restart_brick(self, index):
        """The brick rejoins *empty* (crash-only semantics).

        Whatever the brick held when it crashed is stale by exactly the
        writes it missed while down; serving that copy as the group's
        first live hit would hand the application old session state.
        Wiping on rejoin makes the next read fall through to a current
        replica, and the next write-all-live replication backfills this
        brick — the lease renewals of active sessions do that for free.
        """
        brick = self.bricks[index]
        if brick.crashed:
            brick.wipe()
        brick.restart()

    # ------------------------------------------------------------------
    # Lifecycle notifications
    # ------------------------------------------------------------------
    def notify_jvm_exit(self, server):
        """Bricks live outside every JVM: nothing is lost."""
