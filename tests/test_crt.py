"""Revocation trees: range leaves, proofs, verification, incremental updates."""

import math

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revokebench.core import KeyStore
from revokebench.crt import (
    SENTINEL_HI,
    SENTINEL_LO,
    SIDE_LEFT,
    SIDE_RIGHT,
    CrtLeaf,
    CrtProof,
    CrtVerdict,
    crt_build,
    crt_prove,
    crt_update,
    crt_verify,
    parse_proof,
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
        with pytest.raises(ValueError):
            build(keystore, [0])
        with pytest.raises(ValueError):
            build(keystore, [SENTINEL_HI])


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
        """Oracle: rebuild from scratch after every update."""
        current = set(rng.sample(range(1, 2000), 50))
        tree = build(keystore, current)
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
