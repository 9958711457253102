"""One reader and writer for the repository's ``BENCH_*.json`` files.

Each benchmark records its measured numbers in ``BENCH_<name>.json`` at
the repository root, as the whole file or as one named section of it.
The committed file doubles as the baseline the regression gates compare
against.  ``REPRO_BENCH_GATE=0`` disables the gates;
``REPRO_BENCH_REBASELINE=1`` ignores the committed baseline, so the run
re-records it.
"""

import json
import os
import resource
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Throughput may not drop more than this far below the recorded baseline.
MAX_REGRESSION = 0.10


def _flag(name, default=""):
    return os.environ.get(name, default) not in ("", "0")


def gate_enabled():
    return _flag("REPRO_BENCH_GATE", "1")


def _path(name):
    return ROOT / f"BENCH_{name}.json"


def _load(name):
    path = _path(name)
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def recorded(name, section=None):
    """The committed baseline, or one section of it.

    None when the file or section is absent, or when re-baselining.
    """
    if _flag("REPRO_BENCH_REBASELINE"):
        return None
    report = _load(name)
    if section is not None:
        return report.get(section)
    return report or None


def record(name, payload, section=None):
    """Write ``payload`` as the whole file, or merge it in as a section."""
    report = payload if section is None else {**_load(name), section: payload}
    _path(name).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report


def rss_mib():
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def total_requests(outcomes):
    return sum(
        o["good_requests"] + o["failed_requests"] for o in outcomes.values()
    )
