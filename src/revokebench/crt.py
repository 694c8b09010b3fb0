"""Certificate revocation trees: sorted range leaves over the revoked
serials, a binary hash tree over them, a signed root, and logarithmic proofs
that a serial is (or is not) revoked.

A leaf (i, j) asserts that i and j are revoked and nothing strictly between
them is, so equality at an endpoint proves revocation and strict containment
proves validity. Sentinel endpoints make the empty set representable.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

from .core import KeyStore, Signature, pack_u8, pack_u32, pack_u64

SENTINEL_LO = 0
SENTINEL_HI = 2**64 - 1

_LEAF_TAG = b"\x00crt-leaf"
_NODE_TAG = b"\x01crt-node"

SIDE_LEFT = 0  # sibling sits to the left of the running hash
SIDE_RIGHT = 1


class CrtVerdict(Enum):
    REVOKED = "revoked"
    VALID = "valid"
    PROOF_INVALID = "proof_invalid"
    PROOF_EXPIRED = "proof_expired"


@dataclass(frozen=True)
class CrtLeaf:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("leaf endpoints must be strictly increasing")

    def covers(self, serial: int) -> bool:
        return self.lo <= serial <= self.hi

    def to_bytes(self) -> bytes:
        return pack_u64(self.lo) + pack_u64(self.hi)


def leaf_hash(leaf: CrtLeaf) -> bytes:
    return hashlib.sha256(_LEAF_TAG + leaf.to_bytes()).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_TAG + left + right).digest()


@dataclass(frozen=True)
class SignedRoot:
    root: bytes
    issued_at: int
    next_update: int
    signature: Signature

    def signed_payload(self) -> bytes:
        return self.root + pack_u64(self.issued_at) + pack_u64(self.next_update)

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.signature.to_bytes()


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
        return len(self.to_bytes())


def parse_proof(data: bytes) -> CrtProof:
    """Decode CrtProof.to_bytes(); a truncated or over-long proof raises ValueError."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise ValueError(f"proof truncated: needs {pos + n} bytes, has {len(data)}")
        pos += n
        return data[pos - n : pos]

    lo = int.from_bytes(take(8), "big")
    hi = int.from_bytes(take(8), "big")
    leaf_index = int.from_bytes(take(4), "big")
    count = take(1)[0]
    siblings = []
    for _ in range(count):
        siblings.append((take(32), take(1)[0]))
    root = take(32)
    issued_at = int.from_bytes(take(8), "big")
    next_update = int.from_bytes(take(8), "big")
    key_id = take(int.from_bytes(take(4), "big")).decode("utf-8")
    mac = take(int.from_bytes(take(4), "big"))
    if pos != len(data):
        raise ValueError(f"proof has {len(data) - pos} trailing bytes")
    return CrtProof(
        leaf=CrtLeaf(lo, hi),
        leaf_index=leaf_index,
        siblings=tuple(siblings),
        signed_root=SignedRoot(root, issued_at, next_update, Signature(key_id, mac)),
    )


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


def _build_levels(
    leaf_hashes: list[bytes],
    node_memo: Optional[dict[bytes, bytes]] = None,
    counter: Optional[list[int]] = None,
) -> list[tuple[bytes, ...]]:
    levels = [tuple(leaf_hashes)]
    cur = leaf_hashes
    while len(cur) > 1:
        nxt = []
        for i in range(0, len(cur) - 1, 2):
            key = cur[i] + cur[i + 1]
            if node_memo is not None:
                h = node_memo.get(key)
                if h is None:
                    h = node_hash(cur[i], cur[i + 1])
                    if counter is not None:
                        counter[0] += 1
                node_memo[key] = h
            else:
                h = node_hash(cur[i], cur[i + 1])
                if counter is not None:
                    counter[0] += 1
            nxt.append(h)
        if len(cur) % 2:
            nxt.append(cur[-1])  # promote the odd node unchanged
        levels.append(tuple(nxt))
        cur = nxt
    return levels


def _leaves_for(serials: list[int]) -> list[CrtLeaf]:
    bounds = [SENTINEL_LO] + serials + [SENTINEL_HI]
    return [CrtLeaf(a, b) for a, b in zip(bounds, bounds[1:])]


def _sign_root(root: bytes, now: int, validity: int, keystore: KeyStore, key_id: str) -> SignedRoot:
    unsigned = SignedRoot(root, now, now + validity, Signature(key_id, b""))
    return SignedRoot(root, now, now + validity, keystore.sign(unsigned.signed_payload(), key_id))


def crt_build(
    revoked: Iterable[int],
    now: int,
    validity: int,
    keystore: KeyStore,
    key_id: str,
) -> CrtTree:
    """Tree over the sentinel-bounded gaps between consecutive revoked serials."""
    serials = sorted(set(revoked))
    for s in serials:
        if not SENTINEL_LO < s < SENTINEL_HI:
            raise ValueError(f"serial {s} collides with a sentinel endpoint")
    leaves = _leaves_for(serials)
    levels = _build_levels([leaf_hash(lf) for lf in leaves])
    return CrtTree(
        serials=tuple(serials),
        leaves=tuple(leaves),
        levels=tuple(levels),
        signed_root=_sign_root(levels[-1][0], now, validity, keystore, key_id),
    )


@dataclass(frozen=True)
class CrtUpdateStats:
    """Hash work an update actually caused, for the simulator's CPU proxy."""

    recomputed_internal: int
    recomputed_leaves: int


def crt_update(
    tree: CrtTree,
    add: Iterable[int],
    remove_expired: Iterable[int],
    now: int,
    validity: int,
    keystore: KeyStore,
    key_id: str,
) -> tuple[CrtTree, CrtUpdateStats]:
    """New snapshot after adding fresh revocations and dropping expired ones.

    The result is structurally identical to crt_build over the final set;
    every hash already present anywhere in the old tree is reused, and only
    genuinely new node inputs are recomputed (the reported counts are what
    the simulator compares across schemes).
    """
    current = set(tree.serials)
    add = set(add)
    remove = set(remove_expired)
    if add & current:
        raise ValueError(f"already revoked: {sorted(add & current)}")
    if not remove <= current:
        raise ValueError(f"not currently revoked: {sorted(remove - current)}")
    serials = sorted((current | add) - remove)

    old_leaf_memo = {leaf: h for leaf, h in zip(tree.leaves, tree.levels[0])}
    node_memo: dict[bytes, bytes] = {}
    for level, parent in zip(tree.levels, tree.levels[1:]):
        for i in range(0, len(level) - 1, 2):
            node_memo[level[i] + level[i + 1]] = parent[i // 2]

    leaves = _leaves_for(serials)
    new_leaf_hashes = []
    leaf_count = 0
    for lf in leaves:
        h = old_leaf_memo.get(lf)
        if h is None:
            h = leaf_hash(lf)
            leaf_count += 1
        new_leaf_hashes.append(h)

    counter = [0]
    levels = _build_levels(new_leaf_hashes, node_memo=node_memo, counter=counter)
    new_tree = CrtTree(
        serials=tuple(serials),
        leaves=tuple(leaves),
        levels=tuple(levels),
        signed_root=_sign_root(levels[-1][0], now, validity, keystore, key_id),
    )
    return new_tree, CrtUpdateStats(recomputed_internal=counter[0], recomputed_leaves=leaf_count)


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
    if not keystore.verify(proof.signed_root.signed_payload(), proof.signed_root.signature, key_id):
        return CrtVerdict.PROOF_INVALID
    if not proof.leaf.covers(serial):
        return CrtVerdict.PROOF_INVALID
    if now >= proof.signed_root.next_update:
        return CrtVerdict.PROOF_EXPIRED
    if serial == proof.leaf.lo or serial == proof.leaf.hi:
        return CrtVerdict.REVOKED
    return CrtVerdict.VALID
