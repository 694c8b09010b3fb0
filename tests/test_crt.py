"""Revocation trees: range leaves, proofs, verification, incremental updates."""

import dataclasses
import hashlib
import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revokebench.core import DecodeError, KeyStore, OneWayFunction, Reader
from revokebench.crt import (
    SENTINEL_HI,
    SENTINEL_LO,
    SIDE_LEFT,
    SIDE_RIGHT,
    CrtLeaf,
    CrtProof,
    CrtVerdict,
    SignedRoot,
    crt_build,
    crt_prove,
    crt_update,
    crt_verify,
    leaf_hash,
    node_hash,
    parse_proof,
    parse_tree,
    read_signed_root,
)


def build(keystore, revoked, now=0, validity=86400):
    return crt_build(revoked, now, validity, keystore, "ca")


class TestBuild:
    def test_empty_set_single_leaf(self, keystore):
        tree = build(keystore, [])
        assert tree.leaves == (CrtLeaf(SENTINEL_LO, SENTINEL_HI),)
        proof = crt_prove(tree, 12345)
        assert proof.siblings == ()
        assert crt_verify(proof, 12345, keystore, "ca", 0) is CrtVerdict.VALID

    def test_single_revocation_two_leaves(self, keystore):
        tree = build(keystore, [5])
        assert tree.leaves == (CrtLeaf(SENTINEL_LO, 5), CrtLeaf(5, SENTINEL_HI))

    def test_leaf_count_is_revoked_plus_one(self, keystore, rng):
        serials = sorted(rng.sample(range(1, 10_000), 37))
        tree = build(keystore, serials)
        assert len(tree.leaves) == 38

    def test_sentinel_serials_rejected(self, keystore):
        """By crt_build and by crt_update, from the empty set or by adding."""
        for serial in (SENTINEL_LO, SENTINEL_HI):
            with pytest.raises(ValueError):
                build(keystore, [serial])
            with pytest.raises(ValueError):
                crt_update(None, [serial], [], 0, 86400, keystore, "ca")
            with pytest.raises(ValueError):
                crt_update(build(keystore, [5]), [serial], [], 0, 86400, keystore, "ca")


class TestPaperExample:
    """Eight leaves; the query answered by leaf L2 needs exactly the level-0
    sibling at index 3, the level-1 node at index 0, the level-2 node at 1."""

    def test_query_14_uses_leaf_2_and_three_siblings(self, keystore):
        tree = build(keystore, [5, 10, 15, 20, 25, 30, 35])
        assert len(tree.leaves) == 8
        proof = crt_prove(tree, 14)
        assert proof.leaf_index == 2
        assert proof.leaf == CrtLeaf(10, 15)
        assert proof.siblings == (
            (tree.levels[0][3], SIDE_RIGHT),
            (tree.levels[1][0], SIDE_LEFT),
            (tree.levels[2][1], SIDE_RIGHT),
        )
        assert crt_verify(proof, 14, keystore, "ca", 100) is CrtVerdict.VALID


class TestProveAndVerify:
    def test_classification_matches_membership(self, keystore, rng):
        """Oracle: direct set membership over the whole small serial space."""
        for _ in range(5):
            revoked = set(rng.sample(range(1, 100), rng.randrange(0, 40)))
            tree = build(keystore, revoked)
            for serial in range(1, 100):
                proof = crt_prove(tree, serial)
                verdict = crt_verify(proof, serial, keystore, "ca", 10)
                expected = CrtVerdict.REVOKED if serial in revoked else CrtVerdict.VALID
                assert verdict is expected

    def test_endpoint_is_revoked(self, keystore):
        tree = build(keystore, [5, 9])
        proof = crt_prove(tree, 5)
        assert proof.leaf.lo == 5 or proof.leaf.hi == 5
        assert crt_verify(proof, 5, keystore, "ca", 0) is CrtVerdict.REVOKED

    def test_perturbed_sibling_invalid(self, keystore):
        tree = build(keystore, [5, 9, 12, 40])
        proof = crt_prove(tree, 10)
        sib, side = proof.siblings[0]
        bad = CrtProof(
            leaf=proof.leaf,
            leaf_index=proof.leaf_index,
            siblings=((bytes([sib[0] ^ 1]) + sib[1:], side),) + proof.siblings[1:],
            signed_root=proof.signed_root,
        )
        assert crt_verify(bad, 10, keystore, "ca", 0) is CrtVerdict.PROOF_INVALID

    def test_leaf_not_covering_serial_invalid(self, keystore):
        tree = build(keystore, [5, 9])
        proof = crt_prove(tree, 7)
        assert crt_verify(proof, 100, keystore, "ca", 0) is CrtVerdict.PROOF_INVALID

    def test_expired_proof(self, keystore):
        tree = build(keystore, [5], now=0, validity=1000)
        proof = crt_prove(tree, 7)
        assert crt_verify(proof, 7, keystore, "ca", 1000) is CrtVerdict.PROOF_EXPIRED
        assert crt_verify(proof, 7, keystore, "ca", 999) is CrtVerdict.VALID

    def test_cross_tree_soundness(self, keystore, rng):
        """A proof from a tree over a different revocation set never verifies
        against this tree's signed root."""
        set_a = sorted(rng.sample(range(1, 500), 20))
        set_b = sorted(rng.sample(range(500, 1000), 20))
        tree_a = build(keystore, set_a)
        tree_b = build(keystore, set_b)
        for serial in rng.sample(range(1, 1000), 30):
            proof_b = crt_prove(tree_b, serial)
            grafted = CrtProof(
                leaf=proof_b.leaf,
                leaf_index=proof_b.leaf_index,
                siblings=proof_b.siblings,
                signed_root=tree_a.signed_root,
            )
            assert crt_verify(grafted, serial, keystore, "ca", 0) is CrtVerdict.PROOF_INVALID

    def test_proof_length_bound(self, keystore, rng):
        for count in (1, 2, 3, 17, 100, 1023):
            revoked = sorted(rng.sample(range(1, 100_000), count))
            tree = build(keystore, revoked)
            bound = math.ceil(math.log2(len(tree.leaves)))
            for serial in rng.sample(range(1, 100_000), 40):
                proof = crt_prove(tree, serial)
                assert len(proof.siblings) <= bound


class TestUpdate:
    def test_noop_keeps_root(self, keystore):
        tree = build(keystore, [5, 9], now=0)
        updated, stats = crt_update(tree, [], [], 100, 86400, keystore, "ca")
        assert updated.root == tree.root
        assert updated.signed_root.issued_at == 100
        assert stats.recomputed_internal == 0

    def test_insert_splits_one_leaf(self, keystore):
        tree = build(keystore, [5, 20])
        updated, _ = crt_update(tree, [10], [], 0, 86400, keystore, "ca")
        assert CrtLeaf(5, 10) in updated.leaves
        assert CrtLeaf(10, 20) in updated.leaves
        assert CrtLeaf(5, 20) not in updated.leaves

    def test_tail_insert_is_path_local(self, keystore):
        revoked = list(range(10, 5000, 10))
        tree = build(keystore, revoked)
        updated, stats = crt_update(tree, [5001], [], 0, 86400, keystore, "ca")
        assert stats.recomputed_internal <= math.ceil(math.log2(len(updated.leaves))) + 1

    def test_preconditions(self, keystore):
        tree = build(keystore, [5, 9])
        with pytest.raises(ValueError):
            crt_update(tree, [5], [], 0, 86400, keystore, "ca")
        with pytest.raises(ValueError):
            crt_update(tree, [], [7], 0, 86400, keystore, "ca")

    def test_random_sequences_match_rebuild(self, keystore, rng):
        """Oracle: rebuild from scratch after every update, the first update
        being from the empty set (tree=None)."""
        current = set(rng.sample(range(1, 2000), 50))
        tree, _ = crt_update(None, sorted(current), [], 0, 86400, keystore, "ca")
        assert tree == build(keystore, current)
        for _ in range(15):
            add = set(rng.sample([s for s in range(1, 2000) if s not in current],
                                 rng.randrange(0, 8)))
            remove = set(rng.sample(sorted(current), rng.randrange(0, 5)))
            tree, _ = crt_update(tree, sorted(add), sorted(remove), 0, 86400, keystore, "ca")
            current = (current | add) - remove
            fresh = build(keystore, current)
            assert tree.root == fresh.root
            assert tree.leaves == fresh.leaves
            assert tree.levels == fresh.levels


class TestWire:
    def test_round_trip(self, keystore, rng):
        tree = build(keystore, sorted(rng.sample(range(1, 1000), 23)))
        proof = crt_prove(tree, 512)
        parsed = parse_proof(proof.to_bytes())
        assert parsed == proof
        assert crt_verify(parsed, 512, keystore, "ca", 0) == crt_verify(
            proof, 512, keystore, "ca", 0
        )

    def test_every_truncation_and_extension_rejected(self, keystore, rng):
        tree = build(keystore, sorted(rng.sample(range(1, 1000), 23)))
        data = crt_prove(tree, 512).to_bytes()
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                parse_proof(data[:cut])
        with pytest.raises(ValueError):
            parse_proof(data + b"\x00")

    @pytest.mark.parametrize("side", [2, 7, 255])
    def test_a_side_byte_other_than_0_or_1_is_rejected(self, keystore, side):
        """crt_verify reads any side but 0 as right, so a proof whose side
        bytes could be anything but 0 or 1 would have many encodings."""
        proof = crt_prove(build(keystore, [5, 11, 20]), 14)
        data = proof.to_bytes()
        assert crt_verify(parse_proof(data), 14, keystore, "ca", 0) is CrtVerdict.VALID
        for i in range(len(proof.siblings)):
            at = 16 + 4 + 1 + 33 * i + 32  # leaf, index, count, then (hash, side) pairs
            assert data[at] == proof.siblings[i][1]
            with pytest.raises(DecodeError, match=f"proof has {side} at byte {at}"):
                parse_proof(data[:at] + bytes([side]) + data[at + 1 :])


serial_sets = st.sets(st.integers(SENTINEL_LO + 1, SENTINEL_HI - 1), max_size=12)


class TestTreeFile:
    """parse_tree reads back exactly the bytes CrtTree.to_bytes writes, with
    the levels rebuilt and the signed root as it was signed."""

    @settings(max_examples=40, deadline=None)
    @given(revoked=serial_sets)
    def test_round_trip(self, revoked):
        keystore = KeyStore()
        keystore.generate("ca", random.Random(3))
        tree = crt_build(revoked, 7, 100, keystore, "ca")
        data = tree.to_bytes()
        parsed = parse_tree(data)
        assert parsed == tree and parsed.to_bytes() == data
        assert keystore.sign_count == 1  # nothing was signed again
        root = parsed.signed_root
        assert vars(root)["_held"] == root._payload() and root.verify(keystore, "ca")

    @settings(max_examples=20, deadline=None)
    @given(revoked=serial_sets)
    def test_every_truncation_and_extension_is_rejected(self, revoked):
        keystore = KeyStore()
        keystore.generate("ca", random.Random(3))
        data = crt_build(revoked, 7, 100, keystore, "ca").to_bytes()
        for cut in range(len(data)):
            with pytest.raises(DecodeError, match="tree file truncated"):
                parse_tree(data[:cut])
        for extra in (0, 1, 255):
            with pytest.raises(DecodeError, match="tree file has 1 trailing bytes"):
                parse_tree(data + bytes([extra]))

    def test_every_single_byte_change_is_rejected_or_fails_verify(self, keystore):
        data = build(keystore, [5, 11, 20]).to_bytes()
        for i in range(len(data)):
            for value in range(256):
                if value == data[i]:
                    continue
                try:
                    changed = parse_tree(data[:i] + bytes([value]) + data[i + 1 :])
                except DecodeError:
                    continue
                assert not changed.signed_root.verify(keystore, "ca"), (i, value)

    @pytest.mark.parametrize(
        "serials, problem",
        [
            ((11, 5), "not strictly ascending"),
            ((5, 5), "not strictly ascending"),
            ((SENTINEL_LO, 5), "not strictly ascending"),
            ((5, SENTINEL_HI), "not strictly ascending"),
            ((5, 12), "root does not match its serials"),
        ],
    )
    def test_serials_that_are_not_the_trees_are_rejected(self, keystore, serials, problem):
        tree = build(keystore, [5, 11])
        data = tree.signed_root.to_bytes() + struct.pack(">IQQ", 2, *serials)
        with pytest.raises(DecodeError, match=problem):
            parse_tree(data)


class TestSignedRootWire:
    """read_signed_root, the one root decoder of proofs and tree files."""

    @settings(max_examples=40, deadline=None)
    @given(
        revoked=serial_sets,
        issued_at=st.integers(0, 2**63),
        validity=st.integers(1, 2**63 - 1),
        key_id=st.text(max_size=8),
    )
    def test_round_trip(self, revoked, issued_at, validity, key_id):
        keystore = KeyStore()
        keystore.register(key_id, b"secret")
        signed = crt_build(revoked, issued_at, validity, keystore, key_id).signed_root
        reader = Reader(signed.to_bytes(), "root")
        parsed = read_signed_root(reader)
        reader.done()
        assert parsed == signed and vars(parsed)["_held"] == parsed._payload()
        assert parsed.verify(keystore, key_id)

    def test_every_truncation_extension_and_byte_change(self, keystore):
        data = build(keystore, [5]).signed_root.to_bytes()

        def parse(data):
            reader = Reader(data, "root")
            root = read_signed_root(reader)
            reader.done()
            return root

        for cut in range(len(data)):
            with pytest.raises(DecodeError):
                parse(data[:cut])
        with pytest.raises(DecodeError):
            parse(data + b"\x00")
        for i in range(len(data)):
            for value in range(256):
                if value != data[i]:
                    try:
                        changed = parse(data[:i] + bytes([value]) + data[i + 1 :])
                    except DecodeError:
                        continue
                    assert not changed.verify(keystore, "ca"), (i, value)



class TestLeafRecord:
    """A leaf is an immutable value record, and every way of building one
    checks lo < hi."""

    @pytest.mark.parametrize("lo,hi", [(5, 5), (6, 5), (SENTINEL_HI, SENTINEL_LO)])
    def test_every_construction_checks_the_endpoints(self, lo, hi):
        with pytest.raises(ValueError):
            CrtLeaf(lo, hi)
        with pytest.raises(ValueError):
            CrtLeaf._make((lo, hi))
        with pytest.raises(ValueError):
            CrtLeaf(1, 9)._replace(lo=lo, hi=hi)

    def test_fields_cannot_be_set(self):
        leaf = CrtLeaf(1, 9)
        with pytest.raises(AttributeError):
            leaf.lo = 0
        with pytest.raises(AttributeError):
            leaf.extra = 1

    def test_equal_and_hashable_by_value(self):
        leaf = CrtLeaf(1, 9)
        assert leaf == CrtLeaf(1, 9) and hash(leaf) == hash(CrtLeaf(1, 9))
        assert len({leaf, CrtLeaf(1, 9), leaf._replace(hi=10)}) == 2

    def test_a_tree_builds_the_leaves_the_constructor_builds(self, keystore):
        tree = build(keystore, [3, 7])
        assert tree.leaves == (CrtLeaf(SENTINEL_LO, 3), CrtLeaf(3, 7), CrtLeaf(7, SENTINEL_HI))
        assert all(type(lf) is CrtLeaf for lf in tree.leaves)

    @pytest.mark.parametrize("lo,hi", [(40, 40), (40, 12)])
    def test_parse_proof_rejects_a_leaf_out_of_order(self, keystore, lo, hi):
        proof = crt_prove(build(keystore, [12, 40]), 20)
        data = struct.pack(">QQ", lo, hi) + proof.to_bytes()[16:]
        with pytest.raises(ValueError):
            parse_proof(data)


class TestLeafFor:
    @settings(max_examples=60, deadline=None)
    @given(
        revoked=st.sets(st.integers(SENTINEL_LO + 1, SENTINEL_HI - 1), max_size=30),
        probes=st.lists(st.integers(SENTINEL_LO + 1, SENTINEL_HI - 1), max_size=10),
    )
    @example(revoked=set(), probes=[1, 12345, SENTINEL_HI - 1])
    @example(revoked={1, SENTINEL_HI - 1}, probes=[2, SENTINEL_HI - 2])
    def test_matches_the_linear_definition(self, revoked, probes):
        keystore = KeyStore()
        keystore.generate("ca", random.Random(1))
        tree = build(keystore, revoked)
        # every revoked endpoint and its neighbours, plus the extremes
        edges = {s + d for s in revoked for d in (-1, 0, 1)} | {SENTINEL_LO + 1, SENTINEL_HI - 1}
        for serial in sorted(edges - {SENTINEL_LO, SENTINEL_HI}) + probes:
            (expected,) = [i for i, lf in enumerate(tree.leaves) if lf.lo <= serial < lf.hi]
            assert tree.leaf_for(serial) == expected

    def test_sentinels_are_rejected(self, keystore):
        tree = build(keystore, [5])
        for serial in (SENTINEL_LO, SENTINEL_HI):
            with pytest.raises(ValueError):
                tree.leaf_for(serial)


def reference_leaf_hash(lo: int, hi: int) -> bytes:
    return hashlib.blake2s(struct.pack(">Q", lo) + struct.pack(">Q", hi), person=b"crt-leaf").digest()


def reference_node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.blake2s(left + right, person=b"crt-node").digest()


class TestHashReference:
    """The personalised hash states against a one-shot hashlib call."""

    @settings(max_examples=200)
    @given(
        lo=st.integers(SENTINEL_LO, SENTINEL_HI - 1),
        gap=st.integers(1, SENTINEL_HI),
    )
    @example(lo=SENTINEL_LO, gap=SENTINEL_HI)
    def test_leaf_hash(self, lo, gap):
        hi = min(lo + gap, SENTINEL_HI)
        assert leaf_hash(CrtLeaf(lo, hi)) == reference_leaf_hash(lo, hi)
        assert CrtLeaf(lo, hi).to_bytes() == struct.pack(">QQ", lo, hi)

    @settings(max_examples=200)
    @given(left=st.binary(max_size=80), right=st.binary(max_size=80))
    @example(left=b"", right=b"")
    def test_node_hash(self, left, right):
        assert node_hash(left, right) == reference_node_hash(left, right)
        # repeated calls do not disturb the shared seeded state
        assert node_hash(left, right) == reference_node_hash(left, right)

    @settings(max_examples=100)
    @given(
        lo=st.integers(SENTINEL_LO, SENTINEL_HI - 1),
        gap=st.integers(1, SENTINEL_HI),
        tail=st.binary(min_size=16, max_size=16),
    )
    def test_owf_leaf_and_node_hashes_differ_on_the_same_bytes(self, lo, gap, tail):
        """The personalisation keeps the three hashes apart: the same input
        bytes give a different output under each."""
        hi = min(lo + gap, SENTINEL_HI)
        leaf_bytes = struct.pack(">QQ", lo, hi)
        leaf = leaf_hash(CrtLeaf(lo, hi))
        assert leaf != node_hash(leaf_bytes[:8], leaf_bytes[8:])
        assert leaf[:16] != OneWayFunction(128).apply(leaf_bytes)
        data = leaf_bytes + tail
        assert node_hash(data[:16], data[16:]) != OneWayFunction(256).apply(data)

    def test_verify_path_equals_reference_fold(self, keystore, rng):
        tree = build(keystore, sorted(rng.sample(range(1, 10_000), 300)))
        for serial in rng.sample(range(1, 10_000), 50):
            proof = crt_prove(tree, serial)
            cur = reference_leaf_hash(proof.leaf.lo, proof.leaf.hi)
            for sib, side in proof.siblings:
                cur = reference_node_hash(sib, cur) if side == SIDE_LEFT else reference_node_hash(cur, sib)
            assert cur == tree.root
            assert crt_verify(proof, serial, keystore, "ca", 0) in (
                CrtVerdict.VALID,
                CrtVerdict.REVOKED,
            )


class TestProofWireSize:
    @pytest.mark.parametrize("revoked_count", [0, 1, 2, 3, 4, 5, 6, 10, 22])
    def test_small_trees_with_promoted_nodes(self, keystore, revoked_count):
        revoked = list(range(10, 10 + 10 * revoked_count, 10))
        tree = build(keystore, revoked)
        for serial in range(1, 12 + 10 * revoked_count):
            proof = crt_prove(tree, serial)
            assert proof.wire_size == len(proof.to_bytes())
            assert proof.signed_root.wire_size == len(proof.signed_root.to_bytes())

    def test_single_leaf_tree_has_no_siblings(self, keystore):
        proof = crt_prove(build(keystore, []), 7)
        assert proof.siblings == ()
        assert proof.wire_size == len(proof.to_bytes()) == 16 + 4 + 1 + len(
            proof.signed_root.to_bytes()
        )

    def test_depths_up_to_17(self, keystore):
        """2**16 + 1 leaves: every leaf but the last has 17 siblings; the
        last is promoted up to the top level and has one."""
        tree = build(keystore, range(1, 2**16 + 1))
        assert len(tree.levels) == 18
        counts = set()
        for serial in (1, 2, 3, 2**15 + 7, 2**16 - 1, 2**16, 2**16 + 5):
            proof = crt_prove(tree, serial)
            counts.add(len(proof.siblings))
            assert proof.wire_size == len(proof.to_bytes())
        assert counts == {1, 17}


class TestTamperRejection:
    def proof(self, keystore):
        tree = build(keystore, [5, 9, 12, 40, 77])
        return crt_prove(tree, 20)

    def test_flipped_sibling_side(self, keystore):
        proof = self.proof(keystore)
        for i, (sib, side) in enumerate(proof.siblings):
            siblings = list(proof.siblings)
            siblings[i] = (sib, 1 - side)
            bad = dataclasses.replace(proof, siblings=tuple(siblings))
            assert crt_verify(bad, 20, keystore, "ca", 0) is CrtVerdict.PROOF_INVALID

    def test_flipped_leaf_endpoint(self, keystore):
        proof = self.proof(keystore)
        assert proof.leaf == CrtLeaf(12, 40)
        for leaf in (CrtLeaf(11, 40), CrtLeaf(13, 40), CrtLeaf(12, 39), CrtLeaf(12, 41)):
            bad = dataclasses.replace(proof, leaf=leaf)
            assert crt_verify(bad, 20, keystore, "ca", 0) is CrtVerdict.PROOF_INVALID

    def test_wrong_root(self, keystore):
        proof = self.proof(keystore)
        root = proof.signed_root.root
        for i in (0, 15, 31):
            flipped = root[:i] + bytes([root[i] ^ 0x80]) + root[i + 1 :]
            bad = dataclasses.replace(
                proof, signed_root=dataclasses.replace(proof.signed_root, root=flipped)
            )
            assert crt_verify(bad, 20, keystore, "ca", 0) is CrtVerdict.PROOF_INVALID
        # a correctly signed root over another tree
        other = build(keystore, [5, 9, 12, 40, 78]).signed_root
        assert isinstance(other, SignedRoot) and other.root != root
        bad = dataclasses.replace(proof, signed_root=other)
        assert crt_verify(bad, 20, keystore, "ca", 0) is CrtVerdict.PROOF_INVALID
        assert crt_verify(proof, 20, keystore, "ca", 0) is CrtVerdict.VALID
