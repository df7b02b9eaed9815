"""Acceptance: one clustered recover yields one coherent trace tree."""

import pytest

from repro import obs
from repro.core import ArchitectureRef, ModelSaveInfo
from repro.distsim.environment import SharedStores, make_service
from repro.filestore.network import NetworkModel
from tests.conftest import make_tiny_cnn

ARCH = ArchitectureRef.from_factory(
    "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def cluster_service(tmp_path):
    stores = SharedStores.cluster_at(
        tmp_path / "cluster",
        shards=3,
        replicas=2,
        network=NetworkModel(bandwidth_bytes_per_s=1e9, latency_s=1e-4),
        workers=2,
        chunk_cache_bytes=8 << 20,
    )
    return make_service("param_update", stores)


def test_recover_trace_spans_every_layer(cluster_service):
    """A single recover over ``SharedStores.cluster_at`` must produce ONE
    trace tree reaching from the service through the sharded store down
    to a member store and its network link."""
    service = cluster_service
    base_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
    derived_id = service.save_model(
        ModelSaveInfo(make_tiny_cnn(), ARCH, base_model_id=base_id)
    )
    obs.tracer().reset()  # isolate the recover's trace from the saves'

    service.recover_model(derived_id)

    tracer = obs.tracer()
    [root] = [sp for sp in tracer.spans() if sp.name == "service.recover_model"]
    names = {sp.name for sp in tracer.spans(trace_id=root.trace_id)}
    assert {
        "service.recover_model",   # service layer
        "recover.document",        # recursive chain recovery
        "store.recover_chunks",    # sharded store (FileStore interface)
        "cluster.member_fetch",    # member store selection
        "net.transfer",            # simulated network link
    } <= names

    # every span in the buffer belongs to that one recover trace
    assert {sp.trace_id for sp in tracer.spans()} == {root.trace_id}

    tree = tracer.tree(root.trace_id)
    [top] = tree["roots"]
    assert top["span"]["name"] == "service.recover_model"
    assert top["children"]  # nested structure, not a flat list


def test_cluster_counters_cover_save_and_recover(cluster_service):
    service = cluster_service
    model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
    service.recover_model(model_id)
    registry = obs.registry()
    assert registry.value("mmlib_saves_total", approach="param_update") == 1
    assert registry.value("mmlib_recovers_total", approach="param_update") == 1
    assert registry.value("mmlib_network_round_trips_total") > 0
    assert registry.value("mmlib_docstore_requests_total") == 0  # in-process docs
