"""Lease bookkeeping (§2, "Leases").

"Resources in a frequently-microrebooting system should be leased, to
improve the reliability of cleaning up after µRBs."  SSM's session storage
model is lease-based: orphaned session state is garbage-collected
automatically when its lease expires.
"""

import math


class LeaseTable:
    """Expiry times per key, driven by the simulation clock."""

    def __init__(self, kernel, default_ttl):
        if default_ttl <= 0:
            raise ValueError(f"lease TTL must be positive, got {default_ttl}")
        self.kernel = kernel
        self.default_ttl = default_ttl
        self._expiry = {}
        #: No lease expires before this time (a lower bound: renewals and
        #: releases leave it low), so collection can skip the scan until
        #: the clock reaches it.
        self._earliest = math.inf
        self.expired_count = 0

    def __len__(self):
        return len(self._expiry)

    def grant(self, key, ttl=None):
        """Grant (or re-grant) a lease on ``key``."""
        expiry = self.kernel.now + (ttl or self.default_ttl)
        self._expiry[key] = expiry
        if expiry < self._earliest:
            self._earliest = expiry

    def renew(self, key, ttl=None):
        """Extend an existing lease; returns False if it already lapsed."""
        if key not in self._expiry:
            return False
        self.grant(key, ttl)
        return True

    def release(self, key):
        """Drop the lease explicitly (e.g. user logged out)."""
        self._expiry.pop(key, None)

    def is_live(self, key):
        return key in self._expiry and self._expiry[key] > self.kernel.now

    def collect_expired(self):
        """Remove and return keys whose leases have lapsed."""
        now = self.kernel.now
        if now < self._earliest:
            return []
        expired = [key for key, when in self._expiry.items() if when <= now]
        for key in expired:
            del self._expiry[key]
        self._earliest = min(self._expiry.values(), default=math.inf)
        self.expired_count += len(expired)
        return expired
