"""Span recorder: self-time arithmetic, per-resume generator timing,
and the installed probes leaving the simulation untouched."""

import pytest

from perfbench import checks, layers
from perfbench.run import PER_LAYER
from perfbench.spans import SpanRecorder, analyse, durations, read_spans


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def recorder(clock):
    return SpanRecorder(clock=clock)


def test_nested_calls_self_time_is_span_minus_children(recorder, clock):
    def leaf():
        clock.advance(3.0)

    def outer():
        clock.advance(1.0)
        leaf()
        clock.advance(2.0)
        leaf()
        return "done"

    leaf = recorder.wrap(leaf, "b:leaf")
    outer = recorder.wrap(outer, "a:outer")
    assert outer() == "done"

    stats = analyse(recorder)
    assert stats["a:outer"] == {
        "calls": 1, "spans": 1, "total_s": 9.0, "self_s": 3.0,
    }
    assert stats["b:leaf"] == {
        "calls": 2, "spans": 2, "total_s": 6.0, "self_s": 6.0,
    }
    assert durations(recorder, "b:leaf") == [3.0, 3.0]
    assert durations(recorder, "c:never-called") == []


def test_recursion_counts_outermost_span_once(recorder, clock):
    def countdown(n):
        clock.advance(1.0)
        if n:
            countdown(n - 1)

    countdown = recorder.wrap(countdown, "a:countdown")
    countdown(2)

    stats = analyse(recorder)["a:countdown"]
    assert stats["spans"] == 3
    assert stats["total_s"] == 3.0  # not 3 + 2 + 1
    assert stats["self_s"] == 3.0


def test_generator_is_timed_per_resume_only(recorder, clock):
    def process():
        clock.advance(1.0)
        got = yield "first"
        clock.advance(2.0)
        yield got
        clock.advance(4.0)
        return "result"

    process = recorder.wrap(process, "a:process")
    gen = process()
    assert next(gen) == "first"
    clock.advance(100.0)  # suspended: not the generator's time
    assert gen.send("echo") == "echo"
    clock.advance(100.0)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "result"

    stats = analyse(recorder)["a:process"]
    assert stats["calls"] == 1
    assert stats["spans"] == 3
    assert stats["total_s"] == 7.0
    assert stats["self_s"] == 7.0


def test_yield_from_nests_inner_resumes_under_outer(recorder, clock):
    def inner():
        clock.advance(3.0)
        yield "tick"
        clock.advance(5.0)
        return 7

    def outer():
        clock.advance(1.0)
        value = yield from inner()
        clock.advance(2.0)
        return value

    inner = recorder.wrap(inner, "b:inner")
    outer = recorder.wrap(outer, "a:outer")
    gen = outer()
    assert next(gen) == "tick"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == 7

    stats = analyse(recorder)
    assert stats["a:outer"]["total_s"] == 11.0
    assert stats["a:outer"]["self_s"] == 3.0
    assert stats["b:inner"]["self_s"] == 8.0
    assert stats["a:outer"]["spans"] == stats["b:inner"]["spans"] == 2


def test_throw_and_close_reach_the_wrapped_generator(recorder):
    seen = []

    def process():
        try:
            yield 1
        except KeyError as exc:
            seen.append(("caught", exc.args[0]))
        try:
            yield 2
        finally:
            seen.append("closed")

    gen = recorder.wrap(process, "a:process")()
    assert next(gen) == 1
    assert gen.throw(KeyError("boom")) == 2
    gen.close()
    assert seen == [("caught", "boom"), "closed"]
    assert not recorder._stack


def test_exception_closes_the_span(recorder, clock):
    def fails():
        clock.advance(1.0)
        raise ValueError("x")

    fails = recorder.wrap(fails, "a:fails")
    with pytest.raises(ValueError):
        fails()
    assert analyse(recorder)["a:fails"]["total_s"] == 1.0
    assert not recorder._stack


def test_spans_round_trip_through_a_file(recorder, clock, tmp_path):
    def work():
        clock.advance(0.5)

    work = recorder.wrap(work, "a:work")
    work()
    work()
    path = tmp_path / "run.spans"
    recorder.write(path)
    assert analyse(read_spans(path)) == analyse(recorder)


def test_probes_are_passive_and_report_every_layer_metric():
    from repro.experiments.megascale import MegascaleRig

    def outcome():
        rig = MegascaleRig(seed=3, n_sessions=2_000, n_shards=4,
                           duration=10.0)
        return rig, rig.run()

    _rig, plain = outcome()
    instrumentation = layers.Instrumentation(SpanRecorder())
    instrumentation.install()
    try:
        rig, traced = outcome()
    finally:
        instrumentation.uninstall()
    assert checks.digest(traced) == checks.digest(plain)

    recorder = instrumentation.recorder
    metrics = layers.layer_metrics(
        analyse(recorder), layers.arm_facts(rig),
        instrumentation.session_ticks, durations(recorder, layers.TICK),
    )
    assert set(metrics) == set(PER_LAYER) - {"trace_overhead_frac"}
    assert metrics["workload.cohort.ticks"] == 10
    assert metrics["workload.cohort.session_ticks"] == 10 * 2_000
    assert metrics["sim.events"] == rig.kernel.events_processed

    # Uninstalling restored every original: a fresh run records nothing.
    before = len(instrumentation.recorder)
    outcome()
    assert len(instrumentation.recorder) == before
