"""Tests for incremental Poptrie updates (Section 3.5)."""

import random

import pytest

from tests.conftest import make_random_rib, random_keys

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.core.update import UpdateStats, commit, stage
from repro.data.updates import Update, fold_updates, generate_update_stream
from repro.errors import UpdateRejectedError
from repro.lookup import registry
from repro.net.prefix import Prefix
from repro.net.values import NO_ROUTE
from repro.robust.txn import TransactionalPoptrie


def equivalent_to_rebuild(up: TransactionalPoptrie) -> bool:
    """Structure-level equivalence with a from-scratch compilation."""
    rebuilt = Poptrie.from_rib(up.rib, up.trie.config)
    return (
        rebuilt.inode_count == up.trie.inode_count
        and rebuilt.leaf_count == up.trie.leaf_count
    )


class TestBasicUpdates:
    def test_announce_then_lookup(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/8"), 1)
        assert up.lookup(Prefix.parse("10.1.1.1/32").value) == 1

    def test_withdraw_restores_covering_route(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/8"), 1)
        up.announce(Prefix.parse("10.64.0.0/10"), 2)
        up.withdraw(Prefix.parse("10.64.0.0/10"))
        assert up.lookup(Prefix.parse("10.64.1.1/32").value) == 1

    def test_withdraw_to_empty(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        p = Prefix.parse("10.0.0.0/8")
        up.announce(p, 1)
        up.withdraw(p)
        assert up.lookup(Prefix.parse("10.0.0.1/32").value) == NO_ROUTE

    def test_reannounce_changes_nexthop(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        p = Prefix.parse("192.0.2.0/24")
        up.announce(p, 1)
        up.announce(p, 2)
        assert up.lookup(Prefix.parse("192.0.2.9/32").value) == 2

    def test_reannounce_same_nexthop_is_noop(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        p = Prefix.parse("192.0.2.0/24")
        up.announce(p, 1)
        generation = up.generation
        up.announce(p, 1)
        assert up.generation == generation  # no structural work done

    def test_generation_increments(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/8"), 1)
        up.announce(Prefix.parse("10.0.0.0/24"), 2)
        assert up.generation == 2

    def test_withdraw_missing_raises(self):
        # Regression: this used to escape as an untyped KeyError from the
        # RIB internals; it is now a typed rejection raised up front.
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        with pytest.raises(UpdateRejectedError):
            up.withdraw(Prefix.parse("10.0.0.0/8"))


class TestUpdateValidation:
    """Satellite regression tests: invalid updates are rejected with a
    typed error *before* any state (RIB, trie, allocators) is mutated.

    Previously a negative next hop raised ``OverflowError`` from the array
    layer and an overflowing one ``StructuralLimitError`` — both *after*
    the RIB had been mutated, leaving RIB and trie silently divergent.
    """

    @staticmethod
    def _fingerprint(up):
        return (
            len(up.rib),
            up.rib.node_count,
            up.generation,
            up.stats.updates,
            up.trie.inode_count,
            up.trie.leaf_count,
            up.trie.node_alloc.used_slots,
            up.trie.leaf_alloc.used_slots,
        )

    @pytest.fixture
    def up(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/8"), 1)
        up.announce(Prefix.parse("10.32.0.0/11"), 2)
        return up

    @pytest.mark.parametrize("bad_hop", [-1, 0, NO_ROUTE, 1 << 16, 1 << 40, "7", 2.0, None])
    def test_bad_nexthop_rejected_without_mutation(self, up, bad_hop):
        before = self._fingerprint(up)
        with pytest.raises(UpdateRejectedError):
            up.announce(Prefix.parse("192.0.2.0/24"), bad_hop)
        assert self._fingerprint(up) == before
        assert up.rib.get(Prefix.parse("192.0.2.0/24")) == NO_ROUTE

    def test_withdraw_unknown_rejected_without_mutation(self, up):
        before = self._fingerprint(up)
        with pytest.raises(UpdateRejectedError):
            up.withdraw(Prefix.parse("203.0.113.0/24"))
        assert self._fingerprint(up) == before

    def test_wrong_width_rejected(self, up):
        with pytest.raises(UpdateRejectedError):
            up.announce(Prefix.parse("2001:db8::/32"), 1)
        with pytest.raises(UpdateRejectedError):
            up.withdraw(Prefix.parse("2001:db8::/32"))

    def test_32bit_leaves_accept_wide_nexthop(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16, leaf_bits=32))
        up.announce(Prefix.parse("10.0.0.0/8"), 1 << 20)
        assert up.lookup(Prefix.parse("10.1.1.1/32").value) == 1 << 20


class TestTopLevelPaths:
    def test_short_prefix_rewrites_direct_range(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/8"), 3)
        assert up.stats.toplevel_replacements == 1
        assert up.lookup(Prefix.parse("10.200.0.1/32").value) == 3

    def test_long_prefix_under_leaf_entry_converts_it(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/8"), 1)
        up.announce(Prefix.parse("10.0.0.0/24"), 2)  # entry leaf -> subtree
        assert up.lookup(Prefix.parse("10.0.0.1/32").value) == 2
        assert up.lookup(Prefix.parse("10.0.1.1/32").value) == 1

    def test_subtree_collapses_back_to_leaf_entry(self):
        """Section 3.5: nodes reduced to a single covering leaf are removed
        and the leaf is brought to the upper level."""
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/8"), 1)
        up.announce(Prefix.parse("10.0.0.0/24"), 2)
        nodes_with_subtree = up.trie.inode_count
        up.withdraw(Prefix.parse("10.0.0.0/24"))
        assert up.trie.inode_count < nodes_with_subtree
        from repro.core.poptrie import DIRECT_LEAF

        assert up.trie.direct[0x0A00] & DIRECT_LEAF

    def test_default_route_update(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("0.0.0.0/0"), 7)
        assert up.lookup(Prefix.parse("203.0.113.1/32").value) == 7
        up.withdraw(Prefix.parse("0.0.0.0/0"))
        assert up.lookup(Prefix.parse("203.0.113.1/32").value) == NO_ROUTE


class TestNoDirectPointing:
    def test_updates_with_s0(self):
        up = TransactionalPoptrie(PoptrieConfig(s=0))
        up.announce(Prefix.parse("10.0.0.0/8"), 1)
        up.announce(Prefix.parse("10.0.0.0/26"), 2)
        assert up.lookup(Prefix.parse("10.0.0.1/32").value) == 2
        up.withdraw(Prefix.parse("10.0.0.0/26"))
        assert up.lookup(Prefix.parse("10.0.0.1/32").value) == 1
        assert equivalent_to_rebuild(up)


class TestStats:
    def test_replacement_counters_accumulate(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/24"), 1)
        up.announce(Prefix.parse("10.0.0.128/25"), 2)
        stats = up.stats
        assert stats.updates == 2
        assert stats.inodes_replaced > 0
        assert stats.leaves_replaced > 0

    def test_per_update_rates(self):
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        up.announce(Prefix.parse("10.0.0.0/24"), 1)
        top, leaves, inodes = up.stats.per_update()
        assert top <= 1.0 and leaves >= 0 and inodes >= 0


@pytest.mark.parametrize("s", [0, 12, 16])
def test_randomized_update_sequences_match_rebuild(s):
    """Invariant 4: after any update sequence the structure is lookup- and
    node-count-equivalent to a fresh compilation of the same RIB."""
    rng = random.Random(s * 1000 + 7)
    up = TransactionalPoptrie(PoptrieConfig(s=s))
    live = []
    for step in range(400):
        if live and rng.random() < 0.4:
            prefix = live.pop(rng.randrange(len(live)))
            up.withdraw(prefix)
        else:
            length = rng.randint(1, 32)
            value = rng.getrandbits(length) << (32 - length) if length else 0
            prefix = Prefix(value, length, 32)
            if not up.rib.get(prefix):
                live.append(prefix)
            up.announce(prefix, rng.randint(1, 40))
        if step % 100 == 99:
            for key in random_keys(400, seed=step):
                assert up.lookup(key) == up.rib.lookup(key)
            assert equivalent_to_rebuild(up)
            up.trie.node_alloc.check_invariants()
            up.trie.leaf_alloc.check_invariants()


def test_update_memory_is_reclaimed():
    """Announce/withdraw cycles must not leak allocator slots."""
    up = TransactionalPoptrie(PoptrieConfig(s=16))
    up.announce(Prefix.parse("10.0.0.0/8"), 1)
    baseline = up.trie.node_alloc.used_slots
    for i in range(50):
        p = Prefix.parse(f"10.0.{i}.0/24")
        up.announce(p, 2)
        up.withdraw(p)
    assert up.trie.node_alloc.used_slots == baseline


def test_lock_free_shape_builds_before_swap(monkeypatch):
    """The update builds replacement blocks before touching the published
    entry: until the direct-array write happens, readers must see the old
    answer.  We verify by checking the lookup result is never 'half new'."""
    up = TransactionalPoptrie(PoptrieConfig(s=16))
    up.announce(Prefix.parse("10.0.0.0/8"), 1)
    key = Prefix.parse("10.0.0.1/32").value

    observed = []
    original_serialize = None
    from repro.core import builder as builder_module

    original_serialize = builder_module.Serializer.serialize

    def spying_serialize(self, tmp):
        # Mid-update (new blocks being written): readers still see 1.
        observed.append(up.trie.lookup(key))
        return original_serialize(self, tmp)

    monkeypatch.setattr(builder_module.Serializer, "serialize", spying_serialize)
    up.announce(Prefix.parse("10.0.0.0/24"), 2)
    assert observed and all(result == 1 for result in observed)
    assert up.lookup(key) == 2


def _nested_message(rng: random.Random, rib) -> list:
    """Up to a dozen updates, most of them nested around one address,
    withdrawing some of the routes they meet."""
    around = rng.getrandbits(32)
    message, seen = [], set()
    for _ in range(rng.randint(1, 12)):
        length = rng.randint(0, 32)
        value = around if rng.random() < 0.6 else rng.getrandbits(32)
        prefix = Prefix(value >> (32 - length) << (32 - length), length, 32)
        if prefix in seen:
            continue
        seen.add(prefix)
        if rib.get(prefix) and rng.random() < 0.4:
            message.append(Update("W", prefix))
        else:
            message.append(Update("A", prefix, rng.randint(1, 50)))
    return message


@pytest.mark.parametrize("s", [0, 8, 16])
def test_message_patches_cover_disjoint_regions(s):
    """``stage`` stages each touched region once: no two writes hit the
    same slot, no block is freed twice, and publishing the patch leaves
    the trie equal to a fresh compile of the RIB."""
    rng = random.Random(s + 5)
    rib = make_random_rib(300, seed=s)
    trie = Poptrie.from_rib(rib, PoptrieConfig(s=s))
    for _ in range(60):
        message = _nested_message(rng, rib)
        fold_updates(rib, message)
        patch = stage(trie, rib, [u.prefix for u in message])
        slots = [("node", write[0]) for write in patch.node_writes]
        slots += [("direct", index) for index, _ in patch.direct_writes]
        for base, span, _ in patch.direct_fills:
            slots += [("direct", index) for index in range(base, base + span)]
        assert len(slots) == len(set(slots))
        frees = [(kind, offset) for kind, offset, _ in patch.frees]
        assert len(frees) == len(set(frees))
        commit(trie, patch, UpdateStats(), len(message))
    trie.verify(rib, samples=2000)
    assert equivalent_to_rebuild(TransactionalPoptrie(rib=rib, trie=trie))


@pytest.mark.parametrize("name", ["Poptrie18", "Poptrie0"])
def test_stream_in_32_update_messages_matches_the_rib(name):
    """A 500-update stream sent as 32-update messages through
    ``apply_updates`` matches the RIB oracle and passes verification."""
    rib = make_random_rib(2000, seed=5)
    trie = registry.get(name).from_rib(rib)
    stream = generate_update_stream(rib, 500, seed=9)
    for at in range(0, len(stream), 32):
        message = stream[at:at + 32]
        report = trie.apply_updates(message)
        assert (report["applied"], report["rejected"]) == (len(message), 0)
    assert trie.txn_stats.commits > 0
    for key in random_keys(4000, seed=2):
        assert trie.lookup(key) == rib.lookup(key)
    trie.verify(rib, samples=2000)
    trie.node_alloc.check_invariants()
    trie.leaf_alloc.check_invariants()
