"""Host speed, sampled while a workload runs, and timings scaled by it.

On a shared host the speed at which this program runs changes by up to
2x within minutes, as other tenants come and go on the same cores.  A
fixed pure-Python loop slows down with it.  So while a workload runs,
a ``SIGALRM`` handler times such a loop every :data:`INTERVAL_S` of real
time, between two bytecodes of the main thread.  The loop is half
integer arithmetic and half small-object work (allocation, method calls,
dict updates): on this program's workloads, arithmetic alone slowed
less than the program when the host slowed, and object work alone more.

:meth:`HostSpeed.scaled` turns a host interval into seconds at the
reference speed, at which the loop takes :data:`REFERENCE_S`: the
interval without the loops run inside it, times ``REFERENCE_S`` over
the loop's mean time there.

The loop costs about 2% of the run, and its own time is taken out.  It
does not touch the program's state, so outcomes stay byte-identical.
"""

import signal
import time

#: Arithmetic iterations and object steps of the reference loop, about
#: 0.5 ms each on a 2 GHz Xeon.
ARITHMETIC = 6_000
OBJECT_STEPS = 700
#: Real time between two samples.
INTERVAL_S = 0.05
#: Loop time that defines the reference speed.
REFERENCE_S = 1e-3
#: Fewest samples one interval is scaled by; a shorter interval borrows
#: the samples that follow it.
MIN_SAMPLES = 8


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, d):
        return _Pair(self.b, (self.a + d) & 0xFFFF)


def _loop():
    total = 0
    for i in range(ARITHMETIC):
        total += i * i
    pair, counts = _Pair(0, 1), {}
    for i in range(OBJECT_STEPS):
        pair = pair.step(i & 7)
        counts[i & 63] = counts.get(i & 63, 0) + pair.a
    return total, counts


class HostSpeed:
    """Loop timings taken every :data:`INTERVAL_S` between :meth:`start`
    and :meth:`stop`, as ``(started, seconds)`` on the monotonic clock."""

    def __init__(self, samples=None):
        self.samples = list(samples or [])

    def _sample(self, _signum, _frame):
        started = time.monotonic()
        _loop()
        self.samples.append((started, time.monotonic() - started))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start, end):
        """Seconds the host interval ``[start, end)`` would have taken at
        the reference speed, without the loops run inside it."""
        inside = [s for t, s in self.samples if start <= t < end]
        own = sum(inside)
        if len(inside) < MIN_SAMPLES:
            inside = [s for t, s in self.samples if t >= start][:MIN_SAMPLES]
        if not inside:
            return end - start - own
        mean = sum(inside) / len(inside)
        return (end - start - own) * REFERENCE_S / mean

    def loop_s(self):
        """Median loop time over the whole run (0 with no samples)."""
        times = sorted(s for _t, s in self.samples)
        return times[len(times) // 2] if times else 0.0
