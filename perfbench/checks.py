"""Output checks on each arm's simulated outcome, and its digest.

An arm passes when it ran to completion and every invariant below holds.
They hold for every seed, so a violation is a bug in the program (or in
a change under test), never bad luck:

* the good and failed request counters the outcome reports agree with
  the per-second series the metrics sink keeps apart from them, and
  good + failed equals the operations of the recorded actions (the
  per-client engine records actions; the cohort engine does not);
* availability lies in [0, 1];
* a cohort run keeps its whole session population, and no session is
  left inside a migration window at the end;
* each stitched incident's phases sum to its span, and every recovery
  action is attributed to an incident.

The digest is a SHA-256 over the whole outcome as key-sorted JSON, so
it does not depend on dict insertion order.  Same-seed runs must produce
equal digests, which is how a performance change shows that it left the
simulation byte-identical.
"""

import hashlib
import json

#: Incident phases are exported rounded to 6 decimals; their sum may
#: drift from the rounded span by a few ulps of that rounding.
PHASE_TOLERANCE = 1e-4


def counted_requests(metrics):
    """Requests as a rig's ``TawAccounting`` counts them apart from its
    good/failed counters: the per-second series, and the operations of
    the recorded actions when there are any."""
    counted = {
        "good": sum(metrics.good_taw_series().values()),
        "failed": sum(metrics.bad_taw_series().values()),
    }
    if metrics.actions:
        counted["operations"] = sum(
            len(action.operations) for action in metrics.actions
        )
    return counted


def violations(outcome, counted):
    """Every invariant the outcome breaks, as readable strings.

    ``counted`` is :func:`counted_requests` of the arm's rig.
    """
    found = []
    good, failed = outcome["good_requests"], outcome["failed_requests"]
    if (good, failed) != (counted["good"], counted["failed"]):
        found.append(
            f"good {good} / failed {failed} != per-second series "
            f"{counted['good']} / {counted['failed']}"
        )
    operations = counted.get("operations")
    if operations is not None and good + failed != operations:
        found.append(
            f"good {good} + failed {failed} != {operations} operations "
            f"in the recorded actions"
        )
    availability = outcome["availability"]
    if availability is None or not 0.0 <= availability <= 1.0:
        found.append(f"availability {availability!r} outside [0, 1]")
    if "sessions" in outcome and outcome["population"] != outcome["sessions"]:
        found.append(
            f"population {outcome['population']} != sessions "
            f"{outcome['sessions']}"
        )
    reshard = outcome.get("reshard")
    if reshard is not None and reshard["in_transit_at_end"] != 0:
        found.append(
            f"{reshard['in_transit_at_end']} sessions still in transit"
        )
    incidents = outcome.get("incidents")
    if incidents is not None and "incident_records" in outcome:
        if incidents["actions_attributed"] != outcome["recovery_actions"]:
            found.append(
                f"{incidents['actions_attributed']} actions attributed to "
                f"incidents, {outcome['recovery_actions']} ran"
            )
        for record in outcome["incident_records"]:
            phases = sum(record["phases"].values())
            if abs(phases - record["span"]) > PHASE_TOLERANCE:
                found.append(
                    f"incident {record['id']}: phases sum to {phases}, "
                    f"span is {record['span']}"
                )
    return found


def digest(outcome):
    """SHA-256 hex digest of the outcome as key-sorted JSON.

    Sets and other values without a fixed order are refused
    (``TypeError``) rather than encoded in hash order.
    """
    text = json.dumps(outcome, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
