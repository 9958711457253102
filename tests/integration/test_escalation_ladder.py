"""The full escalation ladder preserves session state at every rung (§4).

Drives a single-node SSM cluster's recovery manager up the recursive
recovery policy — EJB µRB (including the recovery-group expansion),
WAR, application, JVM restart, OS reboot — and checks after each rung
that the conversational session established before the first failure
still works: the crash-only contract says recovery may cost time, never
session state, because sessions live in the external store.
"""

from repro.appserver.http import HttpRequest, HttpStatus
from repro.cluster import build_cluster
from repro.core import FailureKind, FailureReport, RecoveryManager
from repro.core.hardening import HardeningPolicy
from repro.ebid.descriptors import URL_PATH_MAP
from repro.ebid.schema import DatasetConfig

#: A URL whose path touches Item, a member of the eBid recovery group
#: (Category → Region → User → Item → Bid), so one of the EJB-level µRBs
#: expands to the whole group.
FAILING_URL = "/ebid/SearchItemsByCategory"


def issue(cluster, url, params=None, cookie=None):
    request = HttpRequest(
        url=url, operation=url.rsplit("/", 1)[-1], params=params or {},
        cookie=cookie,
    )
    return cluster.kernel.run_until_triggered(
        cluster.load_balancer.handle_request(request)
    )


def establish_session(cluster):
    response = issue(
        cluster, "/ebid/Authenticate", {"user_id": 1, "password": "pw1"},
    )
    cookie = response.payload["cookie"]
    issue(cluster, "/ebid/MakeBid", {"item_id": 3}, cookie=cookie)
    return cookie


def assert_session_alive(cluster, cookie, context):
    """The session (and its selected-item state) must still be usable."""
    response = issue(cluster, "/ebid/MakeBid", {"item_id": 3}, cookie=cookie)
    assert response.status == HttpStatus.OK, (
        f"after {context}: MakeBid failed with {response.status}"
    )
    assert not response.payload.get("login_required"), (
        f"after {context}: session state was lost"
    )


def test_escalation_ladder_preserves_session_state():
    cluster = build_cluster(
        1, dataset=DatasetConfig.tiny(), session_store="ssm",
    )
    kernel = cluster.kernel
    node = cluster.nodes[0]
    rm = RecoveryManager(
        kernel,
        node.system.coordinator,
        URL_PATH_MAP,
        node_controller=node,
        escalation_window=1000.0,
        recurring_limit=100,
    )
    rm.start()

    cookie = establish_session(cluster)

    def drive_until(level):
        """Feed failure reports until an action at ``level`` completes."""

        def driver():
            for _ in range(40):
                if any(
                    a.level == level and a.finished_at is not None
                    for a in rm.actions
                ):
                    return
                for _ in range(3):
                    rm.report(
                        FailureReport(
                            time=kernel.now,
                            url=FAILING_URL,
                            operation="SearchItemsByCategory",
                            kind=FailureKind.HTTP_ERROR,
                        )
                    )
                yield kernel.timeout(30.0)

        kernel.run_until_triggered(kernel.process(driver()))
        assert any(
            a.level == level and a.finished_at is not None
            for a in rm.actions
        ), f"never reached a completed {level!r} action"

    # Rung by rung: recover, then prove the session survived the rung.
    for level in ("ejb", "war", "application", "jvm", "os"):
        drive_until(level)
        assert_session_alive(cluster, cookie, f"{level} recovery")

    levels = [a.level for a in rm.actions]
    assert levels.index("war") < levels.index("application")
    assert levels.index("application") < levels.index("jvm")
    assert levels.index("jvm") < levels.index("os")

    # The EJB rung includes the recovery-group expansion: rebooting Item
    # drags the whole coupled group down together (§5.2).
    group_targets = [a.target for a in rm.actions if a.level == "ejb"]
    assert any(len(target) > 1 for target in group_targets), (
        f"no group µRB among EJB actions: {group_targets}"
    )


def test_interleaved_ladders_stay_independent():
    """Two independent components escalate on fully disjoint ladders.

    BrowseCategories and ViewUserInfo fail concurrently under the
    parallel scheduler: their first µRBs overlap, and from then on every
    piece of per-target hardening state — escalation ladder, backoff
    key, flap-strike history, eventual quarantine — stays keyed to its
    own component.  BrowseCategories keeps flapping and is quarantined;
    ViewUserInfo (one clean recovery) must not inherit a single strike.
    Sessions on uninvolved bricks survive the whole episode.
    """
    cluster = build_cluster(
        1, dataset=DatasetConfig.tiny(), session_store="ssm",
    )
    kernel = cluster.kernel
    node = cluster.nodes[0]
    rm = RecoveryManager(
        kernel,
        node.system.coordinator,
        URL_PATH_MAP,
        node_controller=node,
        hardening=HardeningPolicy(
            enabled=True, parallel_recovery=True,
            backoff_base=60.0, backoff_factor=2.0, backoff_max=300.0,
            flap_threshold=3, flap_window=500.0, flap_debounce=0.0,
            quarantine_ttl=300.0,
        ),
        # Short enough that each 20s wave opens a fresh incident (the
        # per-group ladders reset); the backoff keys live much longer.
        escalation_window=15.0,
        recurring_limit=100,
    )
    rm.start()

    cookie = establish_session(cluster)

    def wave(urls):
        for url in urls:
            for _ in range(3):
                rm.report(
                    FailureReport(
                        time=kernel.now,
                        url=url,
                        operation=url.rsplit("/", 1)[-1],
                        kind=FailureKind.HTTP_ERROR,
                    )
                )

    # Wave 1: both components fail at the same instant.  Their µRBs are
    # dispatched concurrently on separate per-group ladders.
    wave(["/ebid/BrowseCategories", "/ebid/ViewUserInfo"])
    kernel.run(until=kernel.now + 2.0)
    assert sorted(a.target for a in rm.actions) == [
        ("BrowseCategories",), ("ViewUserInfo",),
    ]
    assert all(a.level == "ejb" and a.ok for a in rm.actions)
    first, second = rm.actions
    assert first.decided_at < second.finished_at
    assert second.decided_at < first.finished_at
    # Each component escalates on its own ladder (the hot entity group
    # also got one while being considered — and skipped — as a
    # conflicting candidate).
    assert {"BrowseCategories", "ViewUserInfo"} <= set(rm._ladders)
    assert rm._ladders["BrowseCategories"] is not rm._ladders["ViewUserInfo"]

    # Waves 2-4: only BrowseCategories keeps failing.  Each wave lands
    # inside its backoff (a flap strike), never re-recycles it, and the
    # third strike quarantines it.  ViewUserInfo is never touched again.
    for _ in range(3):
        kernel.run(until=kernel.now + 18.0)
        wave(["/ebid/BrowseCategories"])
        kernel.run(until=kernel.now + 2.0)

    assert len(rm.actions) == 2  # no re-recovery, no coarse escalation
    # Disjoint flap histories and backoff keys: three strikes against
    # the flapper, exactly the one clean recovery against the other.
    assert len(rm._recovery_history["BrowseCategories"]) == 3
    assert len(rm._recovery_history["ViewUserInfo"]) == 1
    assert (
        rm._backoff_until["BrowseCategories"]
        > rm._backoff_until["ViewUserInfo"]
    )
    assert rm.active_quarantines() == {"BrowseCategories"}
    assert node.system.server.naming.is_sentinel("BrowseCategories")
    assert not node.system.server.naming.is_sentinel("ViewUserInfo")
    # The quarantined flapper's reports are dropped as already explained
    # (the rest of the quarantining wave, then all of the final wave).
    assert rm.metrics.counter("rm.reports.quarantined").value == 5

    # The crash-only contract held throughout: the session established
    # before the first failure still works on the untouched paths.
    assert_session_alive(cluster, cookie, "interleaved ladders")
