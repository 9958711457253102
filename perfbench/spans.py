"""In-memory span recorder for the traced benchmark run.

A span is one timed call into an instrumented function: its name, the
span that was open when it started (its parent), and its start and end
on the host clock.  Spans live in flat typed arrays while the workload
runs and are written out once, after the last arm finishes.

Generator functions — the simulator's processes — are timed **per
resume**: every ``send``/``throw`` that runs the generator's body is one
span, so time spent suspended in the kernel's event queue is never
charged to the generator.  Because the recorder keeps a stack, a resume
that drives a nested instrumented generator (``yield from``) becomes the
parent of the nested resume, exactly like a nested ordinary call.

Self time is a span's duration minus the durations of its direct
children; :func:`analyse` derives it, per name, from the recorded spans.
"""

import array
import functools
import inspect
import json
import time


class SpanRecorder:
    """Records spans into parallel arrays (index = span id, enter order)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        #: Calls per name id (a generator counts once, at creation).
        self.calls = []
        self.name_of = array.array("I")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def enter(self, nid):
        """Open a span; returns its index for :meth:`exit`."""
        index = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def exit(self, index):
        self.end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {index} closed while span {popped} was innermost"
            )

    def __len__(self):
        return len(self.start)

    # ------------------------------------------------------------------
    def wrap(self, fn, name):
        """Return ``fn`` instrumented under ``name``.

        Ordinary functions get one span per call.  Generator functions
        return a generator that times each resume of the original.
        """
        nid = self.name_id(name)
        calls = self.calls

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[nid] += 1
                inner = fn(*args, **kwargs)
                outer = self._resumes(inner, nid)
                # Processes spawned without a name take the generator's.
                outer.__name__ = inner.__name__
                outer.__qualname__ = inner.__qualname__
                return outer

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            index = self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)

        return wrapper

    def _resumes(self, inner, nid):
        """Drive ``inner`` with every send/throw inside its own span."""
        value, error = None, None
        while True:
            index = self.enter(nid)
            try:
                if error is None:
                    target = inner.send(value)
                else:
                    target = inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit(index)
            value, error = None, None
            try:
                value = yield target
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - re-thrown into inner
                error = exc

    # ------------------------------------------------------------------
    def write(self, path):
        """One JSON header line (names, calls, count), then the four
        arrays' raw bytes in native byte order: name id, parent, start,
        end."""
        header = {
            "names": self.names,
            "calls": self.calls,
            "spans": len(self),
            "typecodes": [a.typecode for a in self._arrays()],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in self._arrays():
                arr.tofile(out)

    def _arrays(self):
        return (self.name_of, self.parent, self.start, self.end)


def read_spans(path):
    """Load a file written by :meth:`SpanRecorder.write` back into a
    recorder (for offline analysis)."""
    recorder = SpanRecorder()
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        for name in header["names"]:
            recorder.name_id(name)
        recorder.calls[:] = header["calls"]
        for arr in recorder._arrays():
            arr.fromfile(src, header["spans"])
    return recorder


def durations(recorder, name):
    """Durations of every span recorded under ``name``, in enter order."""
    nid = recorder._ids.get(name)
    return [
        end - start
        for of, start, end in zip(recorder.name_of, recorder.start,
                                  recorder.end)
        if of == nid
    ]


def analyse(recorder):
    """Aggregate spans per name.

    Returns ``{name: {"calls", "spans", "total_s", "self_s"}}``.
    ``total_s`` sums only the outermost span of each nesting of one name,
    so a recursive call is not counted twice; ``self_s`` sums every
    span's duration minus its direct children's.
    """
    n = len(recorder)
    names, name_of, parent = recorder.names, recorder.name_of, recorder.parent
    starts, ends = recorder.start, recorder.end
    duration = array.array("d", map(float.__sub__, ends, starts))
    children = array.array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p] += duration[i]

    stats = [
        {"calls": calls, "spans": 0, "total_s": 0.0, "self_s": 0.0}
        for calls in recorder.calls
    ]
    # Spans are stored in enter order, i.e. a preorder walk of the call
    # forest, so the ancestors of span i are exactly the open stack once
    # everything that is not i's parent has been popped.
    open_stack = []
    open_names = [0] * len(names)
    for i in range(n):
        p = parent[i]
        while open_stack and open_stack[-1] != p:
            open_names[name_of[open_stack.pop()]] -= 1
        nid = name_of[i]
        entry = stats[nid]
        entry["spans"] += 1
        entry["self_s"] += duration[i] - children[i]
        if not open_names[nid]:
            entry["total_s"] += duration[i]
        open_stack.append(i)
        open_names[nid] += 1

    return dict(zip(names, stats))
