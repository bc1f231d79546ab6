"""Hypothesis stateful testing of the incremental update engine.

A rule-based state machine drives arbitrary interleavings of announce,
re-announce, withdraw and lookup against a :class:`TransactionalPoptrie`,
with the RIB as the oracle; announcements under an allocation fault
check that a failed update rolls back (a periodic fault fails the
rebuild it falls back to as well) or degrades to a rebuild without the
RIB and the trie drifting apart.  Hypothesis explores and *shrinks* operation
sequences, so a failure here comes with a minimal reproducing script —
much stronger than the fixed-seed fuzzing elsewhere in the suite.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.errors import InjectedFault
from repro.net.prefix import Prefix
from repro.net.values import NO_ROUTE
from repro.robust.faults import FaultPlan
from repro.robust.txn import TransactionalPoptrie

prefix_values = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=1, max_value=32),
)

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


def to_prefix(raw):
    value, length = raw
    mask = ((1 << length) - 1) << (32 - length)
    return Prefix(value & mask, length, 32)


class UpdateMachine(RuleBasedStateMachine):
    @initialize(s=st.sampled_from([0, 10, 16]), periodic=st.booleans())
    def setup(self, s, periodic):
        self.up = TransactionalPoptrie(PoptrieConfig(s=s))
        self.periodic = periodic
        self.live = {}

    @rule(raw=prefix_values, hop=st.integers(min_value=1, max_value=40))
    def announce(self, raw, hop):
        prefix = to_prefix(raw)
        self.up.announce(prefix, hop)
        self.live[prefix] = hop

    @rule(raw=prefix_values, hop=st.integers(min_value=1, max_value=40),
          fail_at=st.integers(min_value=1, max_value=4))
    def announce_under_fault(self, raw, hop, fail_at):
        prefix = to_prefix(raw)
        rollbacks = self.up.txn_stats.rollbacks
        if self.periodic:
            plan = FaultPlan(alloc_fail_every=fail_at)
        else:
            plan = FaultPlan(alloc_fail_at=fail_at)
        try:
            with plan:
                self.up.announce(prefix, hop)
        except InjectedFault:
            # The stage and the rebuild it fell back to both failed:
            # rolled back, so the RIB still holds the old route.
            assert self.up.txn_stats.rollbacks == rollbacks + 1
        else:
            self.live[prefix] = hop
        assert self.up.rib.get(prefix) == self.live.get(prefix, NO_ROUTE)
        assert len(self.up.rib) == len(self.live)

    @precondition(lambda self: self.live)
    @rule(pick=st.randoms(use_true_random=False),
          hop=st.integers(min_value=1, max_value=40))
    def reannounce(self, pick, hop):
        prefix = pick.choice(sorted(self.live, key=lambda p: p.sort_key()))
        self.up.announce(prefix, hop)
        self.live[prefix] = hop

    @precondition(lambda self: self.live)
    @rule(pick=st.randoms(use_true_random=False))
    def withdraw(self, pick):
        prefix = pick.choice(sorted(self.live, key=lambda p: p.sort_key()))
        self.up.withdraw(prefix)
        del self.live[prefix]

    @rule(address=addresses)
    def lookup_matches_rib(self, address):
        assert self.up.lookup(address) == self.up.rib.lookup(address)

    @invariant()
    def boundaries_match_rib(self):
        # Check the boundary addresses of a few live prefixes each step.
        for prefix in list(self.live)[:5]:
            for key in (prefix.first_address(), prefix.last_address()):
                assert self.up.lookup(key) == self.up.rib.lookup(key)

    def teardown(self):
        if not hasattr(self, "up"):
            return
        # Structure equals a fresh compile (invariant 4 of DESIGN.md).
        rebuilt = Poptrie.from_rib(self.up.rib, self.up.trie.config)
        assert rebuilt.inode_count == self.up.trie.inode_count
        assert rebuilt.leaf_count == self.up.trie.leaf_count
        self.up.trie.node_alloc.check_invariants()
        self.up.trie.leaf_alloc.check_invariants()
        self.up.trie.verify(self.up.rib)


TestUpdateStateMachine = UpdateMachine.TestCase
TestUpdateStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
