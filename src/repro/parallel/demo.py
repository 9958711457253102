"""A tiny self-contained campaign trial, for tests and documentation.

The determinism contract the parallel runner depends on is: *identical
seed in, identical trace out*, no matter which process runs the trial.
:func:`simulate_trial` exercises every kernel mechanism that contract
rests on — same-timestamp FIFO ordering, named RNG streams, event
succeed/fail wake-ups — in a fraction of a second, and returns a value
whose equality is a strong proxy for byte-identical execution: the full
ordered event log is folded into a SHA-256 digest.
"""

import hashlib

from repro.sim.kernel import Kernel
from repro.sim.resources import Queue
from repro.sim.rng import RngRegistry


def simulate_trial(arm=10, seed=0, requests=40):
    """Simulate a toy open-queue system; returns a deterministic digest.

    Each of ``arm`` clients sleeps a seeded think time, posts a job to a
    shared mailbox, and a single server process drains it with seeded
    service times.  The arm is the client count, so a
    :func:`~repro.parallel.run_arms` campaign over it compares load
    levels.  The returned dict is plain data (spawn-picklable).
    """
    clients = arm
    kernel = Kernel()
    rng = RngRegistry(seed)
    mailbox = Queue(kernel)
    log = []

    def client(client_id):
        stream_name = f"client-{client_id}"
        for n in range(requests):
            yield kernel.timeout(rng.exponential(stream_name, mean=2.0))
            mailbox.put((client_id, n))
            log.append(("put", round(kernel.now, 9), client_id, n))

    def server():
        for _ in range(clients * requests):
            client_id, n = yield mailbox.get()
            yield kernel.timeout(rng.exponential("service", mean=0.05))
            log.append(("done", round(kernel.now, 9), client_id, n))

    for client_id in range(clients):
        kernel.process(client(client_id), name=f"client-{client_id}")
    kernel.process(server(), name="server")
    kernel.run()

    digest = hashlib.sha256(repr(log).encode("utf-8")).hexdigest()
    return {
        "seed": seed,
        "events_processed": kernel.events_processed,
        "finished_at": round(kernel.now, 9),
        "log_digest": digest,
    }
