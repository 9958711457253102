"""Integration tests: why recovery groups exist (§3.2).

The EntityGroup members hold cross-container metadata references to each
other.  Microrebooting the whole group keeps them consistent; recycling one
member alone (possible only with an ablated coordinator) leaves its peers
holding references to a destroyed incarnation.
"""

import pytest

from repro.appserver.errors import StaleReferenceError
from repro.appserver.http import HttpRequest, HttpStatus
from repro.core.microreboot import MicrorebootCoordinator
from repro.ebid.app import build_ebid_system
from repro.ebid.schema import DatasetConfig


@pytest.fixture
def system():
    return build_ebid_system(dataset=DatasetConfig.tiny(), seed=12)


def issue(system, url, params=None):
    request = HttpRequest(url=url, operation=url.rsplit("/", 1)[-1],
                          params=params or {})
    return system.kernel.run_until_triggered(system.server.handle_request(request))


def warm(system):
    """Touch the group members so peer generations are snapshotted."""
    issue(system, "/ebid/ViewItem", {"item_id": 2})
    issue(system, "/ebid/BrowseCategories")
    issue(system, "/ebid/ViewBidHistory", {"item_id": 2})


def test_group_peers_are_symmetric(system):
    item = system.server.containers["Item"]
    bid = system.server.containers["Bid"]
    assert "Bid" in item.group_peers
    assert "Item" in bid.group_peers
    assert "ViewItem" not in item.group_peers  # session beans go via JNDI


def test_group_microreboot_keeps_references_fresh(system):
    warm(system)
    system.kernel.run_until_triggered(
        system.kernel.process(system.coordinator.microreboot(["Item"]))
    )
    # The whole group was recycled together: everything still works.
    assert issue(system, "/ebid/ViewItem", {"item_id": 2}).status == HttpStatus.OK
    assert issue(system, "/ebid/ViewBidHistory", {"item_id": 2}).status == HttpStatus.OK


def test_singleton_microreboot_leaves_stale_references(system):
    warm(system)
    ablated = MicrorebootCoordinator(
        system.server, "ebid", honor_groups=False
    )
    system.kernel.run_until_triggered(
        system.kernel.process(ablated.microreboot(["Item"]))
    )
    # Bid's metadata now points at Item's destroyed incarnation.
    response = issue(system, "/ebid/ViewBidHistory", {"item_id": 2})
    assert response.status == HttpStatus.INTERNAL_SERVER_ERROR
    assert "stale reference" in response.body

    # Recycling the proper recovery group repairs everything.
    system.kernel.run_until_triggered(
        system.kernel.process(system.coordinator.microreboot(["Item"]))
    )
    assert issue(system, "/ebid/ViewBidHistory", {"item_id": 2}).status == HttpStatus.OK


def test_stale_reference_raises_typed_error(system):
    warm(system)
    item = system.server.containers["Item"]
    item.initialize()  # recycle Item behind everyone's back
    bid = system.server.containers["Bid"]
    with pytest.raises(StaleReferenceError) as excinfo:
        bid._validate_group_references()
    assert excinfo.value.peer == "Item"


def test_jvm_restart_resets_all_peer_generations(system):
    warm(system)
    system.kernel.run_until_triggered(
        system.kernel.process(system.server.restart_jvm())
    )
    assert issue(system, "/ebid/ViewBidHistory", {"item_id": 2}).status == HttpStatus.OK


def test_first_stale_peer_is_the_first_in_name_order(system):
    """With two recycled peers, the error names the same one whatever the
    string-hash seed: peers are checked in sorted order."""
    user = system.server.containers["User"]
    assert user.group_peers == ("Item", "Region")
    user._validate_group_references()  # snapshot both peers' generations
    for peer in ("Region", "Item"):
        system.server.containers[peer].initialize()
    with pytest.raises(StaleReferenceError) as excinfo:
        user._validate_group_references()
    assert excinfo.value.peer == "Item"
