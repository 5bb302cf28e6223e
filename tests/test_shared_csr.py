"""SharedCSR: zero-copy shared-memory CSR snapshots.

The contract under test: a published snapshot attaches into an
equal-in-every-column, equal-in-every-answer graph without copying; the
publisher owns (and reliably reclaims) the segment; attachers never
unlink; corrupted segments are rejected at attach time.
"""

from __future__ import annotations

import pickle

import pytest

from repro.roadnet import GridConfig, generate_grid_network
from repro.roadnet.csr import CSRGraph
from repro.roadnet.sharedcsr import LAYOUT_VERSION, MAGIC, SharedCSR


@pytest.fixture(scope="module")
def network():
    return generate_grid_network(GridConfig(rows=6, cols=6, seed=3))


def _columns_equal(a: CSRGraph, b: CSRGraph) -> None:
    assert list(a.node_ids) == list(b.node_ids)
    assert list(a.xs) == list(b.xs)
    assert list(a.ys) == list(b.ys)
    assert list(a.indptr) == list(b.indptr)
    assert list(a.adj) == list(b.adj)
    assert list(a.sids) == list(b.sids)
    assert list(a.weights) == list(b.weights)
    assert list(a.rindptr) == list(b.rindptr)
    assert list(a.radj) == list(b.radj)
    assert a.directed == b.directed
    assert a.node_count == b.node_count
    assert a.edge_count == b.edge_count


class TestPublishAttach:
    @pytest.mark.parametrize("directed", [False, True])
    def test_attached_columns_equal(self, network, directed):
        graph = network.csr(directed)
        published = SharedCSR.publish(graph)
        try:
            attached = SharedCSR.attach(published.name)
            try:
                _columns_equal(graph, attached.graph)
            finally:
                attached.close()
        finally:
            published.unlink()

    def test_attached_answers_identical(self, network):
        graph = network.csr(False)
        ids = list(graph.node_ids)
        pairs = [(ids[0], ids[-1]), (ids[3], ids[17]), (ids[5], ids[5])]
        published = SharedCSR.publish(graph)
        try:
            attached = SharedCSR.attach(published.name)
            try:
                for a, b in pairs:
                    assert attached.graph.bidirectional_distance_counted(
                        a, b
                    ) == graph.bidirectional_distance_counted(a, b)
                    assert attached.graph.multi_target_distances(
                        a, [b]
                    ) == graph.multi_target_distances(a, [b])
                    assert attached.graph.shortest_route(
                        a, b
                    ) == graph.shortest_route(a, b)
                assert attached.graph.single_source(ids[0]) == (
                    graph.single_source(ids[0])
                )
            finally:
                attached.close()
        finally:
            published.unlink()

    def test_attached_graph_pickles_by_materializing(self, network):
        # Workers may hand an attached graph to pickle (e.g. a nested
        # fan-out); __getstate__ must materialize the shared views into
        # private arrays rather than trying to pickle memoryviews.
        graph = network.csr(False)
        published = SharedCSR.publish(graph)
        try:
            attached = SharedCSR.attach(published.name)
            try:
                clone = pickle.loads(pickle.dumps(attached.graph))
            finally:
                attached.close()
        finally:
            published.unlink()
        # The segment is gone; the clone must still answer from its own
        # private copies.
        _columns_equal(graph, clone)
        ids = list(graph.node_ids)
        assert clone.bidirectional_distance_counted(ids[0], ids[-1]) == (
            graph.bidirectional_distance_counted(ids[0], ids[-1])
        )
        assert clone.shortest_route(ids[0], ids[-1]) == (
            graph.shortest_route(ids[0], ids[-1])
        )

    def test_header_sanity(self, network):
        published = SharedCSR.publish(network.csr(False))
        try:
            attached = SharedCSR.attach(published.name)
            try:
                header = memoryview(attached._shm.buf)[:40].cast("q")
                try:
                    assert header[0] == MAGIC
                    assert header[1] == LAYOUT_VERSION
                    assert header[2] == 0  # undirected
                finally:
                    header.release()
            finally:
                attached.close()
        finally:
            published.unlink()


class TestLifecycle:
    def test_close_is_idempotent(self, network):
        published = SharedCSR.publish(network.csr(False))
        attached = SharedCSR.attach(published.name)
        attached.close()
        attached.close()
        published.unlink()

    def test_unlink_implies_close_and_is_idempotent(self, network):
        published = SharedCSR.publish(network.csr(False))
        name = published.name
        published.unlink()
        published.unlink()
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(name)

    def test_attacher_cannot_unlink(self, network):
        published = SharedCSR.publish(network.csr(False))
        try:
            attached = SharedCSR.attach(published.name)
            try:
                with pytest.raises(ValueError):
                    attached.unlink()
            finally:
                attached.close()
        finally:
            published.unlink()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=4096)
        try:
            with pytest.raises(ValueError):
                SharedCSR.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()


class TestFromArrays:
    def test_directed_requires_reverse_columns(self, network):
        graph = network.csr(True)
        with pytest.raises(ValueError):
            CSRGraph(
                True,
                graph.node_ids,
                graph.xs,
                graph.ys,
                graph.indptr,
                graph.adj,
                graph.sids,
                graph.weights,
            )

    def test_undirected_aliases_forward(self, network):
        graph = network.csr(False)
        rebuilt = CSRGraph(
            False,
            graph.node_ids,
            graph.xs,
            graph.ys,
            graph.indptr,
            graph.adj,
            graph.sids,
            graph.weights,
        )
        assert rebuilt.rindptr is rebuilt.indptr
        assert rebuilt.radj is rebuilt.adj
        _columns_equal(graph, rebuilt)
