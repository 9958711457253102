"""Repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chaos-cluster --seed 0 \\
        --seconds 30 --trace 0

For ``--seconds`` seconds it starts one fresh interpreter after another
(``perfbench/worker.py``), each running every arm of the workload once at
``--jobs 1`` from the seed, and reports medians over them:

* ``--trace 0``: the end-to-end metrics (``wall_s``, ``setup_s``,
  ``sim_requests_per_s``, ``peak_rss_mib``) with the span recorder off,
  times scaled to the reference host speed (``perfbench/hostspeed.py``);
* ``--trace 1``: untraced and traced interpreters alternate; the traced
  ones give the per-layer metrics and ``trace_overhead_frac`` compares
  the two kinds' median host wall time.

Every arm's outcome is checked (``perfbench/checks.py``) and digested;
all runs of one invocation share the seed, so all digests of an arm must
agree, traced or not.  The last line of standard output is the result
object; the line before it is the full record (provenance, sizes, run
count, median and quartiles of every metric and of the unscaled host
times), also written under ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench"
#: The benchmark's own bytecode cache (``PYTHONPYCACHEPREFIX``).
PYCACHE = OUT / "pycache"
#: Fewest interpreters a run measures, however short ``--seconds`` is.
MIN_RUNS = 3
#: The same floor for ``--trace 1``, counted in untraced/traced pairs.
MIN_TRACED_PAIRS = 2
#: Every interpreter is started and ended within this many seconds of
#: the invocation's start (a hung one is killed), so that a run ends
#: within three minutes whatever ``--seconds`` says.
DEADLINE_S = 170.0

_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metric name -> unit, in report order, as ``BENCHMARK.json`` lists them.
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}


def child_env():
    """Environment of every measured interpreter.

    Bytecode is read from :data:`PYCACHE` only, which :func:`warm_bytecode`
    fills before the first measurement and no measured interpreter
    writes.  So every interpreter imports compiled modules, as from an
    installed package, whatever ``__pycache__`` directories the
    workspace holds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


WARM = """
import compileall, sys
from perfbench import worker, workloads
workloads.import_program()
sys.exit(0 if compileall.compile_dir(sys.argv[1], quiet=1) else 1)
"""


def warm_bytecode():
    """Compile the program, the benchmark and the standard-library
    modules they import into :data:`PYCACHE`."""
    env = child_env()
    del env["PYTHONDONTWRITEBYTECODE"]
    subprocess.run(
        [sys.executable, "-c", WARM, str(ROOT / "src")],
        cwd=ROOT, env=env, check=True, timeout=DEADLINE_S / 4,
    )


def run_child(workload, seed, trace, timeout):
    """One fresh interpreter running ``workload`` once; its report, or
    ``None`` if it crashed."""
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--t0", repr(t0)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: interpreter timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Median and quartiles (quartiles equal the median below 2 values)."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end(report):
    return {
        "wall_s": report["wall_s"],
        "setup_s": report["setup_s"],
        "sim_requests_per_s": report["requests"] / report["simulate_s"],
        "peak_rss_mib": report["peak_rss_mib"],
    }


#: Host-time figures of the untraced runs, kept in the record beside the
#: scaled metrics.
HOST = {"host_wall_s": "s", "host_setup_s": "s", "loop_ms": "ms"}


def provenance():
    """Where the numbers came from: code, interpreter, machine."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "commit": _git_head(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def _git_head():
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace, deadline):
    """Run interpreters for ``seconds``: a round (one untraced run, plus
    one traced run with ``trace``) starts only if it should end inside
    the window.  Returns the untraced and traced reports and the count of
    crashed runs."""
    plain, traced, crashed = [], [], 0
    floor = MIN_TRACED_PAIRS if trace else MIN_RUNS
    started = time.monotonic()
    longest = rounds = 0
    while True:
        round_started = time.monotonic()
        for kind in ((0, 1) if trace else (0,)):
            remaining = deadline - time.monotonic()
            report = run_child(workload, seed, kind, timeout=remaining)
            if report is None:
                crashed += 1
            else:
                (traced if kind else plain).append(report)
        rounds += 1
        now = time.monotonic()
        longest = max(longest, now - round_started)
        if crashed and not (plain or traced):
            break
        if rounds >= floor and now - started + longest > seconds:
            break
        if now + longest > deadline:
            break
    return plain, traced, crashed


def judge(workload, reports, crashed):
    """(attempted, failed, problems, digests) over every arm of every
    report; an arm whose digest differs from the first one seen fails."""
    arms = WORKLOADS[workload].arms
    attempted = crashed * len(arms)
    failed = crashed * len(arms)
    problems = [f"{crashed} interpreter(s) crashed"] if crashed else []
    digests = {}
    for report in reports:
        for result in report["arms"]:
            attempted += 1
            broken = result.get("error") or result.get("violations")
            if not broken and digests.setdefault(
                result["arm"], result["digest"]
            ) != result["digest"]:
                broken = [f"digest {result['digest'][:12]} != "
                          f"{digests[result['arm']][:12]} of the same seed"]
            if broken:
                failed += 1
                problems.append(f"{result['arm']}: {broken}")
    return attempted, failed, problems, digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    warm_bytecode()
    plain, traced, crashed = measure(
        args.workload, args.seed, args.seconds, args.trace, deadline
    )
    if not plain:
        print("every interpreter crashed; no result", file=sys.stderr)
        return 1
    attempted, failed, problems, digests = judge(
        args.workload, plain + traced, crashed
    )
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    samples = {name: [end_to_end(r)[name] for r in plain]
               for name in END_TO_END}
    units = dict(END_TO_END)
    if args.trace:
        if not traced:
            print("every traced interpreter crashed; no result",
                  file=sys.stderr)
            return 1
        samples = {name: [r["layers"][name] for r in traced]
                   for name in PER_LAYER
                   if name != "trace_overhead_frac"}
        plain_wall = statistics.median(r["host_wall_s"] for r in plain)
        traced_wall = statistics.median(r["host_wall_s"] for r in traced)
        samples["trace_overhead_frac"] = [traced_wall / plain_wall - 1.0]
        units = dict(PER_LAYER)

    workload = WORKLOADS[args.workload]
    record = {
        "record": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "runs": len(plain),
        "traced_runs": len(traced),
        "sizes": workload.sizes,
        "arms": list(workload.arms),
        "layers_loaded": layers.layers_loaded(args.workload),
        "layer_effects": layers.LAYER_EFFECTS,
        "digests": digests,
        "provenance": provenance(),
        "metrics": {
            name: {"unit": units[name], **spread(values), "values": values}
            for name, values in samples.items()
        },
        "host": {
            name: {"unit": unit, **spread(values), "values": values}
            for name, unit in HOST.items()
            for values in ([r[name] for r in plain],)
        },
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": record["metrics"][name]["median"],
                   "unit": units[name]}
            for name in samples
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
