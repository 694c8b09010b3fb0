"""Depender graphs: layered construction, k-resilient push, catch-up."""

import pytest

from revokebench.depender import (
    CatchUpUnavailable,
    MessageKind,
    PropagationMessage,
    build_graph,
    propagate,
    rejoin,
)


def msg(seq, kind=MessageKind.OTHER):
    return PropagationMessage(sequence=seq, kind=kind)


class TestBuild:
    def test_single_node(self, rng):
        graph = build_graph(1, 3, rng)
        assert graph.nodes[0].parents == ()
        assert graph.nodes[0].children == []

    def test_k1_is_a_tree(self, rng):
        graph = build_graph(20, 1, rng)
        for node_id, node in graph.nodes.items():
            if node_id != 0:
                assert len(node.parents) == 1

    def test_parent_and_child_bounds(self, rng):
        for n, k in ((30, 2), (50, 3), (17, 4)):
            graph = build_graph(n, k, rng)
            for node_id, node in graph.nodes.items():
                assert len(node.children) <= k
                if node_id != 0:
                    assert 1 <= len(node.parents) <= k

    def test_parents_strictly_shallower(self, rng):
        graph = build_graph(50, 3, rng)
        for node in graph.nodes.values():
            for p in node.parents:
                assert graph.nodes[p].layer < node.layer  # acyclic by layering

    def test_small_parent_sets_include_all_shallower(self, rng):
        """A node with fewer than k parents adopted every shallower node,
        which is what makes the < k failure bound hold."""
        graph = build_graph(50, 3, rng)
        for node in graph.nodes.values():
            if node.node_id != 0 and len(node.parents) < 3:
                shallower = {
                    other.node_id
                    for other in graph.nodes.values()
                    if other.layer < node.layer
                }
                assert set(node.parents) == shallower

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            build_graph(0, 3, rng)
        with pytest.raises(ValueError):
            build_graph(5, 0, rng)


class TestPropagate:
    def test_no_failures_everyone_receives_once(self, rng):
        graph = build_graph(40, 3, rng)
        report = propagate(graph, msg(0))
        assert all(report.received.values())
        for node in graph.nodes.values():
            assert len(node.log) == 1  # duplicate suppression

    def test_forward_load_bounded_by_k(self, rng):
        for k in (1, 2, 3):
            graph = build_graph(45, k, rng)
            report = propagate(graph, msg(0))
            assert max(report.forwards.values()) <= k

    def test_below_k_failures_never_cut_delivery(self, rng):
        """Oracle: exhaustive enumeration of every failure set of size k-1."""
        graph = build_graph(30, 2, rng)
        non_root = [n for n in graph.nodes if n != 0]
        for failed in non_root:  # every singleton (k - 1 = 1)
            report = propagate(graph, msg(graph.next_sequence), {failed})
            assert not report.missed({failed}), failed

    def test_full_parent_cut_blocks_a_node(self, rng):
        """Oracle: a constructed cut — failing one node's whole parent set."""
        graph = build_graph(50, 3, rng)
        victim = next(
            n for n in graph.nodes if n != 0 and len(graph.nodes[n].parents) == 3
        )
        cut = set(graph.nodes[victim].parents)
        assert len(cut) == 3
        report = propagate(graph, msg(0), cut)
        assert not report.received[victim]

    def test_root_failure_rejected(self, rng):
        graph = build_graph(5, 2, rng)
        with pytest.raises(ValueError):
            propagate(graph, msg(0), {0})

    def test_sequence_must_increase(self, rng):
        graph = build_graph(5, 2, rng)
        propagate(graph, msg(5))
        with pytest.raises(ValueError):
            propagate(graph, msg(5))


class TestRejoin:
    def test_up_to_date_node_gets_nothing(self, rng):
        graph = build_graph(10, 2, rng)
        propagate(graph, msg(0))
        propagate(graph, msg(1))
        assert rejoin(graph, 5, last_seen_sequence=1) == []

    def test_missed_messages_replayed_exactly(self, rng):
        graph = build_graph(10, 2, rng)
        for seq in range(5):
            propagate(graph, msg(seq), failed={5} if seq >= 2 else set())
        missed = rejoin(graph, 5, last_seen_sequence=1)
        assert [m.sequence for m in missed] == [2, 3, 4]
        assert graph.nodes[5].last_sequence == 4

    def test_no_live_parent_raises(self, rng):
        graph = build_graph(10, 2, rng)
        propagate(graph, msg(0))
        node = next(n for n in graph.nodes if n != 0)
        with pytest.raises(CatchUpUnavailable):
            rejoin(graph, node, 0, failed=set(graph.nodes[node].parents))

    def test_full_document_prunes_earlier_history(self, rng):
        """Oracle: the minimal sufficient set is the latest full document plus
        the deltas after it."""
        graph = build_graph(10, 2, rng)
        history = [
            msg(0, MessageKind.FULL),
            msg(1, MessageKind.DELTA),
            msg(2, MessageKind.DELTA),
            msg(3, MessageKind.FULL),
            msg(4, MessageKind.DELTA),
        ]
        for m in history:
            propagate(graph, m, failed={7} if m.sequence >= 1 else set())
        donor = graph.nodes[graph.nodes[7].parents[0]]
        assert [m.sequence for m in donor.log] == [3, 4]  # earlier base + deltas pruned
        missed = rejoin(graph, 7, last_seen_sequence=0)
        assert [m.sequence for m in missed] == [3, 4]


def test_node_state_is_local_only(rng):
    """No global state: a node's fields hold neighbor ids and its own log,
    never references to other node objects or to the graph."""
    graph = build_graph(25, 3, rng)
    propagate(graph, msg(0))
    for node in graph.nodes.values():
        assert set(vars(node)) == {
            "node_id", "layer", "parents", "children", "log", "last_sequence"
        }
        assert all(isinstance(p, int) for p in node.parents)
        assert all(isinstance(c, int) for c in node.children)
        assert all(isinstance(m, PropagationMessage) for m in node.log)
