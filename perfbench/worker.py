"""Run one workload once, in this (fresh) interpreter, and report.

Started by ``perfbench/run.py``, one process per measurement, so every
measurement pays imports, cluster build and the cold dataset snapshot
cache exactly as a user's ``repro run`` does.  Prints one JSON line.

Timestamps are ``time.monotonic()``, a system-wide clock, so the parent's
reading taken just before it started this interpreter (``--t0``) is
comparable with ours.  Untraced runs report their times both as host
seconds (``host_*``) and scaled to the reference host speed
(``perfbench/hostspeed.py``).
"""

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

from perfbench import checks, layers, workloads
from perfbench.hostspeed import HostSpeed
from perfbench.spans import SpanRecorder, analyse, durations

#: Where a traced run leaves its spans, one file per workload.
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench" / "spans"


def _sum_facts(all_facts):
    total = {}
    for facts in all_facts:
        for key, value in facts.items():
            total[key] = total.get(key, 0) + value
    return total


def run(workload_name, seed, t0, trace=False):
    speed = HostSpeed()
    if not trace:
        # Spans would charge the sampling loop to whatever layer it
        # interrupts, so traced runs keep host time only.
        speed.start()
    workload = workloads.WORKLOADS[workload_name]
    workloads.import_program()
    instrumentation = None
    if trace:
        instrumentation = layers.Instrumentation(SpanRecorder())
        instrumentation.install()

    first_event = None
    outcomes, arm_results = [], []
    for arm in workload.arms:
        try:
            rig = workloads.build_arm(workload_name, arm, seed)
            if first_event is None:
                first_event = time.monotonic()
            outcome = workloads.run_arm(workload_name, rig)
            facts = layers.arm_facts(rig)
            counted = checks.counted_requests(rig.metrics)
        except Exception:  # noqa: BLE001 - a crashed arm is a failed operation
            arm_results.append(
                {"arm": arm, "error": traceback.format_exc(limit=8)}
            )
            continue
        finally:
            # Let this arm's rig go before the next is built, as
            # ``repro run`` does, so peak RSS is one arm's, not two.
            rig = None
        outcomes.append((arm, outcome, facts, counted))
    finished = time.monotonic()
    speed.stop()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    requests = 0
    for arm, outcome, _facts, counted in outcomes:
        requests += outcome["good_requests"] + outcome["failed_requests"]
        arm_results.append(
            {
                "arm": arm,
                "digest": checks.digest(outcome),
                "violations": checks.violations(outcome, counted),
            }
        )
    order = {arm: i for i, arm in enumerate(workload.arms)}
    arm_results.sort(key=lambda r: order[r["arm"]])

    if first_event is None:
        first_event = finished
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "arms": arm_results,
        "wall_s": speed.scaled(t0, finished),
        "setup_s": speed.scaled(t0, first_event),
        "simulate_s": speed.scaled(first_event, finished),
        "host_wall_s": finished - t0,
        "host_setup_s": first_event - t0,
        "loop_ms": speed.loop_s() * 1e3,
        "requests": requests,
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }
    if instrumentation is not None:
        instrumentation.uninstall()
        recorder = instrumentation.recorder
        report["spans"] = len(recorder)
        report["layers"] = layers.layer_metrics(
            analyse(recorder),
            _sum_facts(facts for _arm, _outcome, facts, _counted in outcomes),
            instrumentation.session_ticks,
            durations(recorder, layers.TICK),
        )
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        recorder.write(SPANS_DIR / f"{workload_name}.spans")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.t0, trace=bool(args.trace))
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
