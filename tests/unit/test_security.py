"""Security tests: ACL/RI, crypto, deferred enforcement with masking."""

import pytest

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.crdt import Counter
from repro.security import (AclState, KeyService, OWN, READ,
                            SecurityEnforcer, UPDATE, decode_acl, decrypt,
                            encode_acl, encrypt, sign, verify)


def txn(counter, issuer, key=ObjectKey("docs", "book"),
        snapshot_vector=None, local_deps=(), entries=None):
    op = Counter().prepare("increment", 1)
    return Transaction(Dot(counter, issuer), issuer,
                       Snapshot(VectorClock(snapshot_vector or {}),
                                local_deps),
                       CommitStamp(entries), [WriteOp(key, op)],
                       issuer=issuer)


class TestAclState:
    def test_direct_grant(self):
        acl = AclState()
        acl.grant("book", "alice", OWN)
        assert acl.check("book", "alice", OWN)
        assert not acl.check("book", "bob", OWN)

    def test_own_implies_other_permissions(self):
        acl = AclState()
        acl.grant("book", "alice", OWN)
        assert acl.check("book", "alice", READ)
        assert acl.check("book", "alice", UPDATE)

    def test_read_does_not_imply_update(self):
        acl = AclState()
        acl.grant("book", "bob", READ)
        assert not acl.check("book", "bob", UPDATE)

    def test_object_inheritance_paper_example(self):
        # (book, shelf) in RI and (shelf, Bob, read) in ACL  =>  Bob reads
        # the book (paper section 6.4, predicate C2).
        acl = AclState()
        acl.set_object_parent("book", "shelf")
        acl.grant("shelf", "bob", READ)
        assert acl.check("book", "bob", READ)

    def test_user_inheritance(self):
        acl = AclState()
        acl.set_user_parent("intern", "staff")
        acl.grant("wiki", "staff", UPDATE)
        assert acl.check("wiki", "intern", UPDATE)

    def test_multi_level_inheritance(self):
        acl = AclState()
        acl.set_object_parent("page", "chapter")
        acl.set_object_parent("chapter", "book")
        acl.grant("book", "alice", READ)
        assert acl.check("page", "alice", READ)

    def test_cycle_rejected(self):
        acl = AclState()
        acl.set_object_parent("a", "b")
        with pytest.raises(ValueError):
            acl.set_object_parent("b", "a")

    def test_revoke(self):
        acl = AclState()
        acl.grant("book", "alice", READ)
        acl.revoke("book", "alice", READ)
        assert not acl.check("book", "alice", READ)

    def test_unlink_parent(self):
        acl = AclState()
        acl.set_object_parent("book", "shelf")
        acl.grant("shelf", "bob", READ)
        acl.set_object_parent("book", None)
        assert not acl.check("book", "bob", READ)

    def test_copy_independent(self):
        acl = AclState()
        acl.grant("x", "u", READ)
        copy = acl.copy()
        copy.revoke("x", "u", READ)
        assert acl.check("x", "u", READ)


class TestCrypto:
    def test_key_determinism_within_deployment(self):
        svc = KeyService()
        assert svc.issue("group/g1").secret == svc.issue("group/g1").secret

    def test_keys_differ_per_scope(self):
        svc = KeyService()
        assert svc.issue("a").secret != svc.issue("b").secret

    def test_revoked_scope_rejected(self):
        svc = KeyService()
        svc.issue("s")
        svc.revoke("s")
        with pytest.raises(PermissionError):
            svc.issue("s")

    def test_encrypt_decrypt_roundtrip(self):
        key = KeyService().issue("obj")
        nonce = b"nonce-1"
        ciphertext = encrypt(key, b"attack at dawn", nonce)
        assert ciphertext != b"attack at dawn"
        assert decrypt(key, ciphertext, nonce) == b"attack at dawn"

    def test_different_nonce_different_ciphertext(self):
        key = KeyService().issue("obj")
        assert encrypt(key, b"msg", b"n1") != encrypt(key, b"msg", b"n2")

    def test_sign_verify(self):
        key = KeyService().issue("obj")
        payload = {"op": "increment", "amount": 3}
        signature = sign(key, payload)
        assert verify(key, payload, signature)
        assert not verify(key, {"op": "increment", "amount": 4}, signature)

    def test_wrong_key_fails_verification(self):
        svc = KeyService()
        signature = sign(svc.issue("a"), "data")
        assert not verify(svc.issue("b"), "data", signature)

    def test_acl_entry_encoding(self):
        entry = encode_acl("book", "alice", OWN)
        assert decode_acl(entry) == ("book", "alice", OWN)


class TestEnforcer:
    def _enforcer_with(self, *grants):
        enforcer = SecurityEnforcer()
        enforcer.load_from_values(
            [encode_acl(*grant) for grant in grants], {}, {})
        return enforcer

    def test_default_open_for_unrestricted_objects(self):
        enforcer = SecurityEnforcer()
        assert enforcer.allows(txn(1, "anyone"))

    def test_restricted_object_requires_grant(self):
        enforcer = self._enforcer_with(("docs/book", "alice", UPDATE))
        assert enforcer.allows(txn(1, "alice"))
        assert not enforcer.allows(txn(2, "bob"))

    def test_system_transactions_always_allowed(self):
        enforcer = self._enforcer_with(("docs/book", "alice", UPDATE))
        t = txn(1, "bob")
        t.issuer = None
        assert enforcer.allows(t)

    def test_evaluate_masks_denied(self):
        enforcer = self._enforcer_with(("docs/book", "alice", UPDATE))
        bad = txn(1, "bob")
        assert not enforcer.evaluate(bad)
        assert enforcer.is_masked(bad.dot)

    def test_transitive_masking_via_local_dep(self):
        enforcer = self._enforcer_with(("docs/book", "alice", UPDATE))
        bad = txn(1, "bob")
        dependent = txn(2, "alice", local_deps=[bad.dot])
        enforcer.evaluate(bad)
        assert not enforcer.evaluate(dependent)

    def test_transitive_masking_via_vector(self):
        enforcer = self._enforcer_with(("docs/book", "alice", UPDATE))
        bad = txn(1, "bob", entries={"dc0": 5})
        dependent = txn(2, "alice", snapshot_vector={"dc0": 5})
        enforcer.evaluate(bad)
        assert not enforcer.evaluate(dependent)

    def test_independent_txn_not_masked(self):
        enforcer = self._enforcer_with(("docs/book", "alice", UPDATE))
        bad = txn(1, "bob", entries={"dc0": 5})
        independent = txn(2, "alice", snapshot_vector={})
        enforcer.evaluate(bad)
        assert enforcer.evaluate(independent)

    def test_recompute_unmasks_after_grant(self):
        enforcer = self._enforcer_with(("docs/book", "alice", UPDATE))
        bad = txn(1, "bob")
        enforcer.evaluate(bad)
        assert enforcer.is_masked(bad.dot)
        enforcer.load_from_values(
            [encode_acl("docs/book", "alice", UPDATE),
             encode_acl("docs/book", "bob", UPDATE)], {}, {})
        enforcer.recompute([bad])
        assert not enforcer.is_masked(bad.dot)

    def test_recompute_transitive_fixpoint(self):
        enforcer = self._enforcer_with(("docs/book", "alice", UPDATE))
        bad = txn(1, "bob", entries={"dc0": 1})
        mid = txn(2, "alice", snapshot_vector={"dc0": 1},
                  entries={"dc0": 2})
        leaf = txn(3, "alice", snapshot_vector={"dc0": 2})
        masked = enforcer.recompute([bad, mid, leaf])
        assert masked == {bad.dot, mid.dot, leaf.dot}

    def test_inherited_restriction(self):
        enforcer = SecurityEnforcer()
        enforcer.load_from_values(
            [encode_acl("shelf", "alice", UPDATE)],
            {"docs/book": "shelf"}, {})
        assert enforcer.allows(txn(1, "alice"))
        assert not enforcer.allows(txn(2, "bob"))
