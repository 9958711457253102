"""Generator-based simulated processes."""

from types import GeneratorType

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import _PENDING, Event


class Process(Event):
    """A simulated thread of control, driven by a Python generator.

    The generator yields :class:`Event` objects; the process sleeps until the
    yielded event triggers and then resumes with the event's value (or with
    the event's exception thrown in at the yield point).  A process is itself
    an event: it triggers with the generator's return value when the
    generator finishes, or fails with the escaping exception if the generator
    raises.

    Processes may be interrupted with :meth:`interrupt`, which throws
    :class:`~repro.sim.errors.Interrupt` into the generator at its current
    yield point.  This is the mechanism the microreboot machinery uses to
    kill shepherd threads executing inside a recycled component.
    """

    __slots__ = ("_generator", "name", "_waiting_on")

    def __init__(self, kernel, generator, name=None):
        if not isinstance(generator, GeneratorType):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(kernel)
        self._generator = generator
        self.name = name or generator.__name__
        self._waiting_on = None
        # Kick the process off via an immediately-scheduled event so that it
        # starts running in kernel event order, not synchronously.
        start = Event(kernel)
        start.callbacks.append(self._resume)
        start.succeed()

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is a no-op (it is already dead, as
        with POSIX signals to reaped processes).  The interrupt is delivered
        through the normal event queue so ordering relative to other events
        at the same instant is deterministic.
        """
        if self.triggered:
            return
        trigger = Event(self.kernel)
        trigger.callbacks.append(self._resume)
        trigger.defused = True  # delivery to the generator is the handling
        trigger.fail(Interrupt(cause))

    def _resume(self, trigger):
        """Advance the generator with the triggered event ``trigger``."""
        if self._value is not _PENDING:  # i.e. self.triggered, sans property
            # The process already finished (e.g. an interrupt raced with the
            # event it was waiting for); drop the stale wakeup.
            return
        if (
            self._waiting_on is not None
            and trigger is not self._waiting_on
            and self._waiting_on.callbacks is not None
        ):
            # Interrupted while waiting: stop listening to the old event so a
            # later trigger does not resume us at the wrong yield point, and
            # mark the event abandoned so resource queues skip it.
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on.abandoned = True
        self._waiting_on = None

        event = trigger
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event.defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.defused = False
                self.fail(exc)
                return

            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
                try:
                    self._generator.throw(exc)
                except BaseException as err:  # noqa: BLE001 - report the real error
                    self.fail(err)
                    return
                raise exc  # pragma: no cover - generator swallowed the error

            if target.callbacks is None:
                # Already processed: resume immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._waiting_on = target
            return

    def __repr__(self):
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"
