"""Replay-vs-live equivalence over a storm timeline.

A recorded storm timeline pushed through :func:`health_from_timeline`
must rebuild the same predictive view the live rig computed: same
stitched incidents, same MTTR phase decompositions, and — for every
component the replay can see — the same health score.  This is the
contract that makes ``repro health`` on a captured megascale/storm
timeline trustworthy.
"""

import pytest

from repro.ebid.descriptors import URL_PATH_MAP
from repro.experiments.storm import StormRig
from repro.faults.chaos import StormSpec
from repro.observability import health_from_timeline
from repro.observability.health import HEALTH_KINDS
from repro.observability.incidents import TRACKED_KINDS
from repro.telemetry import capture_to_jsonl, read_timeline

REPLAYED_KINDS = TRACKED_KINDS + HEALTH_KINDS + (
    "detector.report", "rm.report",
)


def _replayed(kind):
    return any(
        kind == pattern or (
            pattern.endswith("*") and kind.startswith(pattern[:-1])
        )
        for pattern in REPLAYED_KINDS
    )


@pytest.fixture(scope="module")
def storm_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "storm.jsonl"
    with capture_to_jsonl(path):
        rig = StormRig(
            seed=11, n_sessions=2000, n_shards=4, duration=90.0,
            storm=True, storm_spec=StormSpec.smoke(),
        )
        rig.run()
    return rig, read_timeline(path)


def test_replayed_incidents_match_live(storm_run):
    rig, records = storm_run
    live = rig.incident_tracker.incidents
    _rows, _alerts, replayed = health_from_timeline(
        records, url_path_map=URL_PATH_MAP
    )
    assert len(replayed) == len(live) > 0
    for mine, theirs in zip(replayed, live):
        assert mine.key == theirs.key
        assert mine.server == theirs.server
        assert mine.opened_at == theirs.opened_at
        assert mine.phases() == theirs.phases()


def test_replayed_health_scores_match_live(storm_run):
    rig, records = storm_run
    # The replay snapshots at the last replayed-kind timestamp; score the
    # live registry at the same instant (scores decay with time).
    end = max(r["t"] for r in records if _replayed(r["kind"]))
    rows, _alerts, _incidents = health_from_timeline(
        records, url_path_map=URL_PATH_MAP
    )
    assert rows, "replay produced no health rows"
    live = {
        (row["server"], row["component"]): row
        for row in rig.health_registry.snapshot(end)
    }
    seen = 0
    for row in rows:
        key = (row["server"], row["component"])
        if key not in live:  # live pre-registers every healthy component
            continue
        seen += 1
        assert row["score"] == live[key]["score"], key
        for signal in ("hazard", "burn", "flap", "heap"):
            assert row[signal] == live[key][signal], (key, signal)
    assert seen > 0
    # The storm left a mark: at least one struck-shard component is
    # scored below perfect in both views.
    degraded = [row for row in rows if row["score"] < 100.0]
    assert degraded
    assert all(str(row["server"]).startswith("shard") for row in degraded)
