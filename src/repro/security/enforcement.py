"""Deferred ACL enforcement with transitive masking (paper sections 5.3, 6.4).

Colony checks ACLs *after* commit: a committed transaction that fails the
check against the locally visible security metadata is not shown to the
application — and neither is anything that causally depends on it.  The
store itself stays TCC+; security only narrows the exposed window, and the
window is recomputed whenever the local copy of the ACL/RI relations
changes (so a late-arriving policy update retroactively hides data, exactly
the bookshelf scenario of section 6.4).

Security metadata itself lives in CRDT objects inside the reserved
``_security`` bucket, so policy changes propagate with the same TCC+
guarantees as data:

* object ``acl``   — an OR-set of ``"object|user|permission"`` strings;
* object ``ri_objects`` / ``ri_users`` — grow-only maps of LWW registers,
  child -> parent, encoding the inheritance forests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from ..core.dot import Dot
from ..core.txn import ObjectKey, Transaction
from .acl import UPDATE, AclState

SECURITY_BUCKET = "_security"
ACL_OBJECT = ObjectKey(SECURITY_BUCKET, "acl")
RI_OBJECTS = ObjectKey(SECURITY_BUCKET, "ri_objects")
RI_USERS = ObjectKey(SECURITY_BUCKET, "ri_users")
#: The security objects and their types: a replica with security on
#: holds them for its own protocol, whatever its interest.
SECURITY_OBJECTS: Mapping[ObjectKey, str] = {
    ACL_OBJECT: "orset", RI_OBJECTS: "gmap", RI_USERS: "gmap"}


def encode_acl(obj: str, user: str, permission: str) -> str:
    return f"{obj}|{user}|{permission}"


def decode_acl(entry: str):
    obj, user, permission = entry.split("|", 2)
    return obj, user, permission


def acl_object_name(key: ObjectKey) -> str:
    """The RI/ACL object name for a data object."""
    return f"{key.bucket}/{key.key}"


class SecurityEnforcer:
    """Evaluates transaction visibility against the local security state.

    Default-open: an object on which *nobody* holds any explicit
    permission is writable by everyone (applications that never configure
    security are unaffected).  As soon as one tuple mentions the object
    (or an ancestor), writes require an explicit grant.
    """

    def __init__(self, acl: Optional[AclState] = None):
        self.acl = acl or AclState()
        self._restricted: Set[str] = set()
        self._masked: Dict[Dot, Transaction] = {}
        self._rebuild_restriction_index()

    # -- security state maintenance --------------------------------------------
    def load_from_values(self, acl_entries: Iterable[str],
                         object_parents: Dict[str, str],
                         user_parents: Dict[str, str]) -> None:
        """Rebuild the ACL/RI state from materialised CRDT values."""
        state = AclState()
        for entry in acl_entries:
            state.grant(*decode_acl(entry))
        for child, parent in object_parents.items():
            state.set_object_parent(child, parent)
        for child, parent in user_parents.items():
            state.set_user_parent(child, parent)
        self.acl = state
        self._rebuild_restriction_index()

    def _rebuild_restriction_index(self) -> None:
        self._restricted = {obj for obj, _u, _p in self.acl.tuples()}

    def _is_restricted(self, obj_name: str) -> bool:
        return any(ancestor in self._restricted
                   for ancestor in self.acl.object_ancestry(obj_name))

    # -- per-transaction check ----------------------------------------------------
    def allows(self, txn: Transaction) -> bool:
        """Does the issuer hold UPDATE on every object the txn writes?

        Transactions without an issuer are system/internal traffic and are
        always allowed.
        """
        if txn.issuer is None:
            return True
        for write in txn.writes:
            if write.key.bucket == SECURITY_BUCKET:
                target = SECURITY_BUCKET
            else:
                target = acl_object_name(write.key)
            if not self._is_restricted(target):
                continue
            if not self.acl.check(target, txn.issuer, UPDATE):
                return False
        return True

    # -- masking -------------------------------------------------------------------
    def depends_on_masked(self, txn: Transaction) -> bool:
        for masked in self._masked.values():
            if masked.dot in txn.snapshot.local_deps:
                return True
            if not masked.commit.is_symbolic \
                    and masked.commit.included_in(txn.snapshot.vector):
                return True
        return False

    def evaluate(self, txn: Transaction) -> bool:
        """Post-commit check; a False return masks the transaction."""
        if txn.dot in self._masked:
            return False
        if not self.allows(txn) or self.depends_on_masked(txn):
            self._masked[txn.dot] = txn
            return False
        return True

    def recompute(self, txns: Iterable[Transaction]) -> Set[Dot]:
        """Re-derive the masked set from scratch after a policy change.

        Iterates to a fixpoint so that transitive dependants of a newly
        masked transaction are masked too — and previously masked
        transactions whose grants were restored become visible again.
        """
        self._masked = {}
        pending = list(txns)
        # First pass: direct ACL failures.
        for txn in pending:
            if not self.allows(txn):
                self._masked[txn.dot] = txn
        # Fixpoint: transitive dependants.
        changed = True
        while changed:
            changed = False
            for txn in pending:
                if txn.dot in self._masked:
                    continue
                if self.depends_on_masked(txn):
                    self._masked[txn.dot] = txn
                    changed = True
        return set(self._masked)

    @property
    def masked_dots(self) -> FrozenSet[Dot]:
        return frozenset(self._masked)

    def is_masked(self, dot: Dot) -> bool:
        return dot in self._masked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SecurityEnforcer({len(self.acl.tuples())} tuples,"
                f" masked={len(self._masked)})")
