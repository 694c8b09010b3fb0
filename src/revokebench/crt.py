"""Certificate revocation trees: sorted range leaves over the revoked
serials, a binary hash tree over them, a signed root, and logarithmic proofs
that a serial is (or is not) revoked.

A leaf (i, j) asserts that i and j are revoked and nothing strictly between
them is, so equality at an endpoint proves revocation and strict containment
proves validity. Sentinel endpoints make the empty set representable.

A leaf is a `core.Checked` tuple, because a tree builds one per gap and
every validation hashes one: a tuple is hashed in C, so an update's old-leaf
memo is a plain dict of tuples. Every way of building a leaf checks lo < hi
(so `parse_proof` of a bad leaf raises), except `_leaves_for`, which checks
the end serials of its strictly increasing input once, making every gap
between them strictly increasing too. The signed root is a `core.Signed`
record, signed on its own by `Signed.sign` once its fields are built; it
holds its signed bytes, which every client of the tree verifies.

Proofs and tree files travel as wire bytes, read through `core.Reader`.
`read_signed_root` is the one root decoder, and the root it returns holds
the bytes received: `parse_proof` reads it at a proof's end, and
`parse_tree` at a tree file's start, before the serials. `parse_tree`
rebuilds the levels over those serials with `_build_levels`, the level
builder of every tree, and takes them only if they give the signed root,
so a prover needs the tree file and no key.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (
    Checked, KeyStore, Reader, Signature, Signed, check_time, keep_payload, pack_u8, pack_u32,
    pack_u64,
)

SENTINEL_LO = 0
SENTINEL_HI = 2**64 - 1

# Leaf and node hashes are 32-byte BLAKE2s, kept apart from each other and
# from the one-way function by their personalisation. Every hash continues a
# copy of its state before any input.
_LEAF_STATE = hashlib.blake2s(person=b"crt-leaf")
_NODE_STATE = hashlib.blake2s(person=b"crt-node")
_pack_leaf = struct.Struct(">QQ").pack

SIDE_LEFT = 0  # sibling sits to the left of the running hash
SIDE_RIGHT = 1


class CrtVerdict(Enum):
    REVOKED = "revoked"
    VALID = "valid"
    PROOF_INVALID = "proof_invalid"
    PROOF_EXPIRED = "proof_expired"


class _CrtLeafFields(NamedTuple):
    lo: int
    hi: int


class CrtLeaf(Checked, _CrtLeafFields):
    __slots__ = ()

    def _check(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("leaf endpoints must be strictly increasing")

    def covers(self, serial: int) -> bool:
        return self.lo <= serial <= self.hi

    def to_bytes(self) -> bytes:
        return _pack_leaf(self.lo, self.hi)


def leaf_hash(leaf: CrtLeaf) -> bytes:
    h = _LEAF_STATE.copy()
    h.update(_pack_leaf(*leaf))
    return h.digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    h = _NODE_STATE.copy()
    h.update(left + right)
    return h.digest()


@dataclass(frozen=True)
class SignedRoot(Signed):
    root: bytes
    issued_at: int
    next_update: int
    signature: Signature

    def _payload(self) -> bytes:
        return self.root + pack_u64(self.issued_at) + pack_u64(self.next_update)


@dataclass(frozen=True)
class CrtProof:
    leaf: CrtLeaf
    leaf_index: int
    siblings: tuple[tuple[bytes, int], ...]  # (hash, side), leaf level first
    signed_root: SignedRoot

    def to_bytes(self) -> bytes:
        parts = [self.leaf.to_bytes(), pack_u32(self.leaf_index), pack_u8(len(self.siblings))]
        parts.extend(h + pack_u8(side) for h, side in self.siblings)
        parts.append(self.signed_root.to_bytes())
        return b"".join(parts)

    @cached_property
    def wire_size(self) -> int:
        # leaf, index, sibling count, (hash, side) per sibling, signed root
        siblings = sum(len(h) + 1 for h, _ in self.siblings)
        return 16 + 4 + 1 + siblings + self.signed_root.wire_size


def read_signed_root(r: Reader) -> SignedRoot:
    """Read SignedRoot.to_bytes() at the reader's position. The root holds
    the payload bytes it was read from, which its signature must cover."""
    start = r.pos
    root, issued_at, next_update = r.take(32), r.uint(8), r.uint(8)
    payload = r.data[start : r.pos]
    signature = Signature(r.text(), r.blob())
    return keep_payload(SignedRoot(root, issued_at, next_update, signature), payload)


def parse_proof(data: bytes) -> CrtProof:
    """Decode CrtProof.to_bytes() strictly; any other bytes raise DecodeError."""
    r = Reader(data, "proof")
    lo, hi, leaf_index = r.uint(8), r.uint(8), r.uint(4)
    siblings = tuple((r.take(32), r.bit()) for _ in range(r.uint(1)))  # sides are 0 or 1
    signed_root = read_signed_root(r)
    r.done()
    try:
        leaf = CrtLeaf(lo, hi)
    except ValueError as exc:
        raise r.error(f"leaf is invalid: {exc}") from exc
    return CrtProof(leaf, leaf_index, siblings, signed_root)


@dataclass(frozen=True)
class CrtTree:
    """Immutable snapshot: leaves, all hash levels, and the signed root.

    levels[0] holds the leaf hashes; an odd trailing node at any level is
    promoted unchanged, so upper levels shrink by ceil-halving until a single
    root remains.
    """

    serials: tuple[int, ...]
    leaves: tuple[CrtLeaf, ...]
    levels: tuple[tuple[bytes, ...], ...]
    signed_root: SignedRoot

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def leaf_for(self, serial: int) -> int:
        """Index of the unique leaf covering serial under the half-open rule.

        Consecutive leaves share their revoked endpoints; picking the leaf
        with lo <= serial < hi (the last leaf owning its hi) makes the
        covering leaf unique while endpoint equality still reads as revoked.
        """
        if not SENTINEL_LO < serial < SENTINEL_HI:
            raise ValueError("serial collides with a sentinel endpoint")
        # Leaf i ends at serials[i] (the last at SENTINEL_HI), so the covering
        # leaf is the first whose hi exceeds serial.
        return bisect_right(self.serials, serial)

    def to_bytes(self) -> bytes:
        """The tree file: the signed root's wire bytes, then a u32 count and
        the revoked serials as u64s, ascending."""
        n = len(self.serials)
        return self.signed_root.to_bytes() + pack_u32(n) + struct.pack(f">{n}Q", *self.serials)


def parse_tree(data: bytes) -> CrtTree:
    """Decode CrtTree.to_bytes() strictly and rebuild the levels over its
    serials. Serials out of order, or a root they do not hash to, raise
    DecodeError. Nothing is signed or verified here: the root keeps the
    signature made when the tree was built, and each proof carries it to a
    verifier."""
    r = Reader(data, "tree file")
    signed_root = read_signed_root(r)
    count = r.uint(4)
    serials = struct.unpack(f">{count}Q", r.take(8 * count))
    r.done()
    bounds = (SENTINEL_LO, *serials, SENTINEL_HI)
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise r.error("serials are not strictly ascending between the sentinels")
    leaves = _leaves_for(serials)
    levels, _ = _build_levels([leaf_hash(lf) for lf in leaves], {})
    if levels[-1][0] != signed_root.root:
        raise r.error("root does not match its serials")
    return CrtTree(serials, tuple(leaves), tuple(levels), signed_root)


def _build_levels(
    leaf_hashes: list[bytes], node_memo: dict[bytes, bytes]
) -> tuple[list[tuple[bytes, ...]], int]:
    """The tree's levels over leaf_hashes, and how many internal nodes were
    hashed. A child pair found in node_memo reuses its parent; every other
    pair is hashed and added to it."""
    levels = [tuple(leaf_hashes)]
    hashed = 0
    cur = leaf_hashes
    while len(cur) > 1:
        nxt = []
        for i in range(0, len(cur) - 1, 2):
            key = cur[i] + cur[i + 1]
            h = node_memo.get(key)
            if h is None:
                h = node_memo[key] = node_hash(cur[i], cur[i + 1])
                hashed += 1
            nxt.append(h)
        if len(cur) % 2:
            nxt.append(cur[-1])  # promote the odd node unchanged
        levels.append(tuple(nxt))
        cur = nxt
    return levels, hashed


def _leaves_for(serials: Sequence[int]) -> list[CrtLeaf]:
    """Gap leaves over sorted unique serials, each strictly between the
    sentinels.

    Sorted unique serials strictly increase, so once the first and last are
    inside the sentinels every gap has lo < hi, and the leaves are built in
    bulk without a check each.
    """
    for s in (serials[0], serials[-1]) if serials else ():
        if not SENTINEL_LO < s < SENTINEL_HI:
            raise ValueError(f"serial {s} collides with a sentinel endpoint")
    bounds = [SENTINEL_LO, *serials, SENTINEL_HI]
    return list(map(tuple.__new__, repeat(CrtLeaf), zip(bounds, bounds[1:])))


def crt_build(
    revoked: Iterable[int],
    now: int,
    validity: int,
    keystore: KeyStore,
    key_id: str,
) -> CrtTree:
    """Tree over the sentinel-bounded gaps between consecutive revoked
    serials: the update of the empty tree that adds them all."""
    return crt_update(None, revoked, (), now, validity, keystore, key_id)[0]


@dataclass(frozen=True)
class CrtUpdateStats:
    """Hash work an update actually caused, for the simulator's CPU proxy."""

    recomputed_internal: int
    recomputed_leaves: int


def crt_update(
    tree: Optional[CrtTree],
    add: Iterable[int],
    remove_expired: Iterable[int],
    now: int,
    validity: int,
    keystore: KeyStore,
    key_id: str,
) -> tuple[CrtTree, CrtUpdateStats]:
    """New snapshot after adding fresh revocations and dropping expired ones.

    The result is structurally identical to a tree hashed afresh over the
    final set. tree=None stands for the empty set, so a first build is an
    update too.
    Every old leaf hash is reused, and so is every internal node whose child
    pair also occurs in the old tree; the rest is recomputed and counted (the
    counts are what the simulator compares across schemes). Leaf positions
    are not stable: one insert or removal shifts every later leaf, which
    re-pairs the nodes to its right. A tail insert recomputes only its path,
    but 30 random inserts into 100k revoked serials recompute about two
    thirds of the 100k internal nodes (62k to 74k in four draws).
    A `now` or `now + validity` off the u64 clock raises OverflowError
    before any work.
    """
    check_time(now)
    next_update = check_time(now + validity)
    current = set(tree.serials) if tree is not None else set()
    add = set(add)
    remove = set(remove_expired)
    if add & current:
        raise ValueError(f"already revoked: {sorted(add & current)}")
    if not remove <= current:
        raise ValueError(f"not currently revoked: {sorted(remove - current)}")
    serials = sorted((current | add) - remove)

    old_leaf_memo: dict[CrtLeaf, bytes] = {}
    node_memo: dict[bytes, bytes] = {}
    if tree is not None:
        old_leaf_memo = dict(zip(tree.leaves, tree.levels[0]))
        for level, parent in zip(tree.levels, tree.levels[1:]):
            # each pair's concatenation -> its parent; an odd last node has
            # no pair, and zip stops before its promoted copy in the parent
            node_memo.update(zip(map(bytes.__add__, level[0::2], level[1::2]), parent))

    leaves = _leaves_for(serials)
    new_leaf_hashes = []
    leaf_count = 0
    for lf in leaves:
        h = old_leaf_memo.get(lf)
        if h is None:
            h = leaf_hash(lf)
            leaf_count += 1
        new_leaf_hashes.append(h)

    levels, hashed = _build_levels(new_leaf_hashes, node_memo)
    signed_root = SignedRoot.sign(
        keystore, key_id, root=levels[-1][0], issued_at=now, next_update=next_update
    )
    new_tree = CrtTree(
        serials=tuple(serials),
        leaves=tuple(leaves),
        levels=tuple(levels),
        signed_root=signed_root,
    )
    return new_tree, CrtUpdateStats(recomputed_internal=hashed, recomputed_leaves=leaf_count)


def crt_prove(tree: CrtTree, serial: int) -> CrtProof:
    """Covering leaf plus the sibling hashes along its path to the root."""
    index = tree.leaf_for(serial)
    siblings = []
    idx = index
    for level in tree.levels[:-1]:
        if idx ^ 1 < len(level):  # promoted odd nodes contribute no sibling
            side = SIDE_LEFT if idx % 2 else SIDE_RIGHT
            siblings.append((level[idx ^ 1], side))
        idx //= 2
    return CrtProof(
        leaf=tree.leaves[index],
        leaf_index=index,
        siblings=tuple(siblings),
        signed_root=tree.signed_root,
    )


def crt_verify(
    proof: CrtProof,
    serial: int,
    keystore: KeyStore,
    key_id: str,
    now: int,
) -> CrtVerdict:
    """Recompute the root from the leaf and siblings, then classify.

    Hash or signature mismatch, or a leaf that does not cover the serial,
    is proof_invalid; a genuine proof past its next_update is proof_expired.
    """
    if not SENTINEL_LO < serial < SENTINEL_HI:
        return CrtVerdict.PROOF_INVALID
    cur = leaf_hash(proof.leaf)
    for sib, side in proof.siblings:
        cur = node_hash(sib, cur) if side == SIDE_LEFT else node_hash(cur, sib)
    if cur != proof.signed_root.root:
        return CrtVerdict.PROOF_INVALID
    if not proof.signed_root.verify(keystore, key_id):
        return CrtVerdict.PROOF_INVALID
    if not proof.leaf.covers(serial):
        return CrtVerdict.PROOF_INVALID
    if now >= proof.signed_root.next_update:
        return CrtVerdict.PROOF_EXPIRED
    if serial == proof.leaf.lo or serial == proof.leaf.hi:
        return CrtVerdict.REVOKED
    return CrtVerdict.VALID
