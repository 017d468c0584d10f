"""End-to-end security tests: ACL updates as transactions, masking (§6.4)."""

from repro.core import ObjectKey
from repro.security import (ACL_OBJECT, UPDATE, encode_acl)
from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster

from repro.edge import EdgeNode

BOOK = ObjectKey("docs", "book")


def world(seed=31):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    return sim


def secure_edge(sim, node_id, user):
    node = sim.spawn(EdgeNode, node_id, dc_id="dc0", user=user,
                     security_enabled=True)
    node.declare_interest(BOOK, "orset")
    node.connect()
    return node


def grant(node, obj, user, permission=UPDATE):
    def body(tx):
        yield tx.update(ACL_OBJECT, "orset", "add",
                        encode_acl(obj, user, permission))
    node.run_transaction(body)


def revoke(node, obj, user, permission=UPDATE):
    def body(tx):
        yield tx.update(ACL_OBJECT, "orset", "remove",
                        encode_acl(obj, user, permission))
    node.run_transaction(body)


def add_book_item(node, item):
    def body(tx):
        yield tx.update(BOOK, "orset", "add", item)
    node.run_transaction(body)


class TestAclFlow:
    def test_default_open_before_any_policy(self):
        sim = world()
        alice = secure_edge(sim, "alice-dev", "alice")
        sim.run_for(300)
        add_book_item(alice, "chapter-1")
        sim.run_for(500)
        assert alice.read_value(BOOK, "orset") == {"chapter-1"}

    def test_policy_propagates_like_data(self):
        sim = world()
        alice = secure_edge(sim, "alice-dev", "alice")
        bob = secure_edge(sim, "bob-dev", "bob")
        sim.run_for(300)
        grant(alice, "docs/book", "alice")
        sim.run_for(2000)
        assert bob.enforcer.acl.check("docs/book", "alice", UPDATE)

    def test_unauthorised_update_masked_at_reader(self):
        sim = world()
        alice = secure_edge(sim, "alice-dev", "alice")
        bob = secure_edge(sim, "bob-dev", "bob")
        carl = secure_edge(sim, "carl-dev", "carl")
        sim.run_for(300)
        grant(alice, "docs/book", "alice")   # restrict the book to alice
        sim.run_for(2000)
        add_book_item(bob, "graffiti")       # bob is not allowed
        sim.run_for(2000)
        # The store converges (TCC+) but the visibility layer masks the
        # disallowed update at every correct node.
        assert carl.read_value(BOOK, "orset") == set()

    def test_authorised_update_visible(self):
        sim = world()
        alice = secure_edge(sim, "alice-dev", "alice")
        carl = secure_edge(sim, "carl-dev", "carl")
        sim.run_for(300)
        grant(alice, "docs/book", "alice")
        sim.run_for(2000)
        add_book_item(alice, "chapter-1")
        sim.run_for(2000)
        assert carl.read_value(BOOK, "orset") == {"chapter-1"}

    def test_late_policy_retroactively_masks(self):
        # The bookshelf anomaly (section 6.4): data may appear briefly,
        # but once the policy update is delivered it disappears.
        sim = world()
        alice = secure_edge(sim, "alice-dev", "alice")
        bob = secure_edge(sim, "bob-dev", "bob")
        carl = secure_edge(sim, "carl-dev", "carl")
        sim.run_for(300)
        add_book_item(bob, "bob-was-here")   # allowed: default-open
        sim.run_for(2000)
        assert carl.read_value(BOOK, "orset") == {"bob-was-here"}
        grant(alice, "docs/book", "alice")   # now restrict to alice
        sim.run_for(2000)
        assert carl.read_value(BOOK, "orset") == set()

    def test_regrant_unmasks(self):
        sim = world()
        alice = secure_edge(sim, "alice-dev", "alice")
        bob = secure_edge(sim, "bob-dev", "bob")
        sim.run_for(300)
        grant(alice, "docs/book", "alice")
        sim.run_for(2000)
        add_book_item(bob, "draft")
        sim.run_for(2000)
        assert alice.read_value(BOOK, "orset") == set()
        grant(alice, "docs/book", "bob")     # bob becomes legitimate
        sim.run_for(2000)
        assert alice.read_value(BOOK, "orset") == {"draft"}


class TestUnderACapacity:
    def test_the_security_objects_are_never_evicted(self):
        """A capacity bounds the application's objects: the ones held
        for the security protocol stay, and keep taking the policy."""
        sim = world()
        alice = secure_edge(sim, "alice-dev", "alice")
        bob = sim.spawn(EdgeNode, "bob-dev", dc_id="dc0", user="bob",
                        security_enabled=True, cache_capacity=3)
        pages = [ObjectKey("docs", f"page{i}") for i in range(4)]
        for page in pages:
            bob.declare_interest(page, "orset")
        bob.connect()
        sim.run_for(300)
        grant(alice, "docs/book", "alice")
        sim.run_for(2000)
        assert bob.enforcer.acl.check("docs/book", "alice", UPDATE)
        assert ACL_OBJECT in bob.cache
        assert pages[0] not in bob.cache
        assert bob.cache.stats.evictions == 1
