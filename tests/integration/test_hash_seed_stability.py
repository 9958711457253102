"""``repro run --trace`` timelines do not depend on the string-hash seed.

Each run is a fresh interpreter, because ``PYTHONHASHSEED`` is read only at
start-up.  Anything that publishes a set's iteration order into the
timeline (as ``lb.failover.begin`` once did) makes the two files differ.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def chaos_timeline(tmp_path, hash_seed):
    trace = tmp_path / f"chaos-{hash_seed}.jsonl"
    pythonpath = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=pythonpath)
    subprocess.run(
        [sys.executable, "-m", "repro", "run", "chaos", "--quick",
         "--seed", "0", "--trace", str(trace)],
        env=env, cwd=tmp_path, check=True, capture_output=True,
    )
    return trace.read_bytes()


def test_chaos_timeline_is_identical_across_hash_seeds(tmp_path):
    assert chaos_timeline(tmp_path, 1) == chaos_timeline(tmp_path, 2)
