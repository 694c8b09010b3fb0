"""Fault-tolerant distribution overlay for revocation information.

A layered DAG with redundancy parameter k: the root pushes messages down,
every other node keeps at most k parents and k children, and fewer than k
failures cannot cut any live node off. Nodes retain the messages needed to
catch a rejoining child up, pruned once a full document supersedes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable


class MessageKind(Enum):
    FULL = "full"  # self-contained snapshot; supersedes everything before it
    DELTA = "delta"
    OTHER = "other"


# read per retain through module names, not the class (see crl._FULL)
_FULL, _OTHER = MessageKind.FULL, MessageKind.OTHER


@dataclass(frozen=True)
class PropagationMessage:
    sequence: int
    kind: MessageKind = MessageKind.OTHER


class CatchUpUnavailable(RuntimeError):
    """All of a rejoining node's parents are down; retry later."""


@dataclass
class DependerNode:
    """Per-node state: ids of neighbors and the retained message log only.

    Deliberately holds no reference to the graph or to other node objects,
    so behavior is a function of at most k parents, k children, and the log.
    """

    node_id: int
    layer: int
    parents: tuple[int, ...]
    children: list[int] = field(default_factory=list)
    log: list[PropagationMessage] = field(default_factory=list)
    last_sequence: int = -1
    others: int = 0  # the OTHER messages in the log, which a full does not prune

    def retain(self, message: PropagationMessage) -> None:
        kind = message.kind
        if kind is _FULL and self.log:
            # Earlier fulls and their deltas are no longer needed for catch-up;
            # with no OTHER message among them, nothing is left to keep.
            self.log = [m for m in self.log if m.kind is _OTHER] if self.others else []
        elif kind is _OTHER:
            self.others += 1
        self.log.append(message)
        self.last_sequence = message.sequence


@dataclass
class DependerGraph:
    k: int
    root: int
    nodes: dict[int, DependerNode]
    layers: list[list[int]]
    next_sequence: int = 0


def build_graph(n: int, k: int, rng) -> DependerGraph:
    """Layered construction: each new node joins the shallowest layer where it
    can take min(k, nodes-above) distinct parents that still have child
    capacity; parents come only from strictly shallower layers.

    Any node with fewer than k parents therefore has *every* shallower node
    as a parent (including the root), which is what makes fewer than k
    non-root failures survivable.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 nodes and k >= 1")
    root = DependerNode(node_id=0, layer=0, parents=())
    nodes = {0: root}
    layers: list[list[int]] = [[0]]

    for node_id in range(1, n):
        # A brand-new deepest layer always admits (every layer holds >= k
        # zero-child nodes once it closes), so this loop terminates there.
        for depth in range(1, len(layers) + 1):
            shallower = [i for layer in layers[:depth] for i in layer]
            need = min(k, len(shallower))
            candidates = [i for i in shallower if len(nodes[i].children) < k]
            if len(candidates) < need:
                continue
            chosen = sorted(rng.sample(sorted(candidates), need))
            node = DependerNode(node_id=node_id, layer=depth, parents=tuple(chosen))
            for p in chosen:
                nodes[p].children.append(node_id)
            nodes[node_id] = node
            if depth == len(layers):
                layers.append([])
            layers[depth].append(node_id)
            break
        else:
            raise AssertionError("layered placement cannot fail at a new deepest layer")
    return DependerGraph(k=k, root=0, nodes=nodes, layers=layers)


@dataclass
class DeliveryReport:
    received: dict[int, bool]
    forwards: dict[int, int]

    def missed(self, failed: set[int]) -> list[int]:
        return sorted(n for n, got in self.received.items() if not got and n not in failed)


def propagate(
    graph: DependerGraph,
    message: PropagationMessage,
    failed: Iterable[int] = (),
) -> DeliveryReport:
    """Push one message from the root through every live path.

    A node forwards to all of its children on first receipt only (later
    copies are suppressed by sequence number), so per-node forwarding load is
    bounded by k.
    """
    down = set(failed)
    if graph.root in down:
        raise ValueError("root failure is out of scope; use a live root")
    if message.sequence < graph.next_sequence:
        raise ValueError(
            f"sequence {message.sequence} not increasing (next is {graph.next_sequence})"
        )
    graph.next_sequence = message.sequence + 1

    nodes = graph.nodes
    received = dict.fromkeys(nodes, False)
    forwards = dict.fromkeys(nodes, 0)
    received[graph.root] = True
    nodes[graph.root].retain(message)
    queue = [graph.root]
    while queue:
        nxt: list[int] = []
        for u in queue:
            children = nodes[u].children  # ascending: build_graph adds them by id
            forwards[u] += len(children)
            for child in children:
                if child in down or received[child]:
                    continue
                received[child] = True
                nodes[child].retain(message)
                nxt.append(child)
        queue = nxt
    return DeliveryReport(received=received, forwards=forwards)


def rejoin(
    graph: DependerGraph,
    node_id: int,
    last_seen_sequence: int,
    failed: Iterable[int] = (),
) -> list[PropagationMessage]:
    """Catch-up for a node that was away: a live parent replays its retained
    messages past the node's last seen sequence number."""
    down = set(failed)
    node = graph.nodes[node_id]
    donors = [p for p in node.parents if p not in down]
    if not donors:
        raise CatchUpUnavailable(f"node {node_id} has no live parent")
    donor = graph.nodes[min(donors)]
    missed = [m for m in donor.log if m.sequence > last_seen_sequence]
    for m in missed:
        node.retain(m)
    return missed
