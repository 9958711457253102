"""Timings scaled to the reference host speed."""

import signal
import time

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import REFERENCE_S, HostSpeed


def samples_every(step, count, loop_s, first=0.0):
    return [(first + i * step, loop_s) for i in range(count)]


def test_interval_is_scaled_by_the_loop_time_inside_it():
    # A host at half the reference speed: the loop takes twice as long.
    speed = HostSpeed(samples_every(0.1, 20, 2 * REFERENCE_S))
    own = 10 * 2 * REFERENCE_S  # ten samples start inside [0.0, 1.0)
    assert speed.scaled(0.0, 1.0) == pytest.approx((1.0 - own) / 2)


def test_scaling_follows_the_speed_of_each_interval():
    slow = samples_every(0.1, 10, 2 * REFERENCE_S)
    fast = samples_every(0.1, 10, REFERENCE_S / 2, first=1.0)
    speed = HostSpeed(slow + fast)
    assert speed.scaled(0.0, 1.0) == pytest.approx(
        (1.0 - 10 * 2 * REFERENCE_S) / 2
    )
    assert speed.scaled(1.0, 2.0) == pytest.approx(
        (1.0 - 10 * REFERENCE_S / 2) * 2
    )


def test_short_interval_borrows_the_samples_that_follow_it():
    speed = HostSpeed(
        [(0.05, 4 * REFERENCE_S)]
        + samples_every(0.1, hostspeed.MIN_SAMPLES, REFERENCE_S, first=0.2)
    )
    mean = (4 + hostspeed.MIN_SAMPLES - 1) * REFERENCE_S / hostspeed.MIN_SAMPLES
    assert speed.scaled(0.0, 0.1) == pytest.approx(
        (0.1 - 4 * REFERENCE_S) * REFERENCE_S / mean
    )


def test_without_samples_host_time_is_kept():
    assert HostSpeed().scaled(2.0, 5.5) == 3.5
    assert HostSpeed().loop_s() == 0.0


def test_sampler_runs_only_between_start_and_stop():
    speed = HostSpeed()
    speed.start()
    try:
        deadline = time.monotonic() + 8 * hostspeed.INTERVAL_S
        while time.monotonic() < deadline:
            pass
    finally:
        speed.stop()
    taken = len(speed.samples)
    assert taken >= 3
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    time.sleep(3 * hostspeed.INTERVAL_S)
    assert len(speed.samples) == taken
    assert speed.loop_s() > 0.0
