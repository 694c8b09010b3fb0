"""Depender graphs: layered construction, k-resilient push, catch-up."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=80),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_children_are_listed_in_ascending_id_order(self, n, k, seed):
        """propagate pushes to a node's children in list order, which is
        ascending by id (the order it pushed in when it sorted them)
        because build_graph adds each node to its parents as it places it."""
        graph = build_graph(n, k, random.Random(seed))
        for node in graph.nodes.values():
            assert node.children == sorted(set(node.children))

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


def reference_propagate(graph, message, failed):
    """Oracle: the push written out plainly, one forward counted per child
    in sorted order, every node's log pruned on a full message."""
    received = {n: False for n in graph.nodes}
    forwards = {n: 0 for n in graph.nodes}
    logs = {n: list(node.log) for n, node in graph.nodes.items()}

    def retain(n):
        if message.kind is MessageKind.FULL:
            logs[n] = [m for m in logs[n] if m.kind is MessageKind.OTHER]
        logs[n].append(message)

    received[graph.root] = True
    retain(graph.root)
    queue = [graph.root]
    while queue:
        nxt = []
        for u in queue:
            for child in sorted(graph.nodes[u].children):
                forwards[u] += 1
                if child in failed or received[child]:
                    continue
                received[child] = True
                retain(child)
                nxt.append(child)
        queue = nxt
    return received, forwards, logs


class TestPropagateAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_reports_and_logs_equal_the_reference(self, n, k, seed, data):
        graph = build_graph(n, k, random.Random(seed))
        kinds = st.sampled_from(list(MessageKind))
        for sequence in range(data.draw(st.integers(min_value=1, max_value=6))):
            failed = set(data.draw(st.lists(st.integers(min_value=1, max_value=max(1, n - 1)))))
            failed &= set(graph.nodes) - {graph.root}
            message = msg(sequence, data.draw(kinds))
            want = reference_propagate(graph, message, failed)
            report = propagate(graph, message, failed)
            assert (report.received, report.forwards) == want[:2]
            assert list(report.received) == list(report.forwards) == list(graph.nodes)
            assert {i: node.log for i, node in graph.nodes.items()} == want[2]


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
