"""The vectorized compile against the scalar reference compile.

``Poptrie.from_rib`` compiles level by level in numpy
(:mod:`repro.core.compiler`); :func:`repro.core.poptrie.build_scalar`
is the one-node-at-a-time path it replaced, kept as the oracle.  The
two must agree on every byte a trie holds: the six arrays with their
lengths, both allocators' complete states, the logical counts and the
memory map the cache simulator replays — and on the fault sites they
visit and the tables they refuse.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_rib

from repro.bench.build import trie_state
from repro.core.poptrie import Poptrie, PoptrieConfig, build_scalar
from repro.data.updates import StreamReport, Update
from repro.errors import InjectedFault, StructuralLimitError
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.robust.faults import FaultPlan
from repro.robust.txn import TransactionalPoptrie


def assert_same_compile(rib, config, fib_size=None):
    """Both compiles raise the same error, or build the same trie."""
    outcomes = []
    for compile_ in (build_scalar, Poptrie.from_rib):
        try:
            outcomes.append(trie_state(compile_(rib, config, fib_size=fib_size)))
        except StructuralLimitError as error:
            outcomes.append(("raised", str(error)))
    assert outcomes[0] == outcomes[1]
    return outcomes[1]


@st.composite
def ribs(draw, width):
    """A RIB built by inserts, some deletes (which free node ids that
    later inserts reuse, so ids leave preorder) and re-inserts, with
    lengths drawn towards the stride boundaries.  One RIB in four has
    next hops past 16 bits: uint32 slots, or 16-bit leaves refused up
    front or, under a small explicit FIB size, at the first wide leaf
    written."""
    k = draw(st.sampled_from((1, 2, 6)))
    s = min(draw(st.sampled_from((0, 1, k, 16, 18))), width)
    edges = sorted({0, s, min(s + k, width), width, max(s - 1, 0)})
    length = st.one_of(st.sampled_from(edges), st.integers(0, width))
    hop = st.integers(1, 70_000 if draw(st.integers(0, 3)) == 0 else 40)
    route = st.tuples(length, st.integers(0, (1 << width) - 1), hop)
    rib = Rib(width=width)
    inserted = []
    for length_, bits, hop in draw(st.lists(route, max_size=60)):
        value = bits >> (width - length_) << (width - length_) if length_ else 0
        prefix = Prefix(value, length_, width)
        rib.insert(prefix, hop)
        inserted.append(prefix)
    for prefix in draw(st.lists(st.sampled_from(inserted), max_size=20)) if inserted else ():
        if rib.get(prefix):
            rib.delete(prefix)
    for length_, bits, hop in draw(st.lists(route, max_size=20)):
        value = bits >> (width - length_) << (width - length_) if length_ else 0
        rib.insert(Prefix(value, length_, width), hop)
    config = PoptrieConfig(
        k=k,
        s=s,
        use_leafvec=draw(st.booleans()),
        leaf_bits=draw(st.sampled_from((16, 32))),
    )
    return rib, config, draw(st.sampled_from((None, 2)))


@settings(max_examples=120, deadline=None)
@given(ribs(32))
def test_compile_matches_scalar_oracle_v4(case):
    assert_same_compile(*case)


@settings(max_examples=60, deadline=None)
@given(ribs(128))
def test_compile_matches_scalar_oracle_v6(case):
    assert_same_compile(*case)


@pytest.mark.parametrize("width", (32, 128))
@pytest.mark.parametrize("s", (0, 1, 6, 16, 18))
@pytest.mark.parametrize("use_leafvec", (True, False))
def test_empty_and_default_only_ribs(width, s, use_leafvec):
    config = PoptrieConfig(s=s, use_leafvec=use_leafvec)
    empty = Rib(width=width)
    assert_same_compile(empty, config)
    default = Rib(width=width)
    default.insert(Prefix(0, 0, width), 7)
    state = assert_same_compile(default, config)
    assert state["counts"] == ((0, 0) if s else (1, 1 if use_leafvec else 64))


@pytest.mark.parametrize("s", (0, 16, 18))
def test_random_table_with_growth_and_moves(s):
    """Enough routes that both allocators grow several times and the
    memory map moves its regions, at both leaf widths."""
    rib = make_random_rib(3000, seed=7, max_nexthop=300)
    for leaf_bits in (16, 32):
        state = assert_same_compile(rib, PoptrieConfig(s=s, leaf_bits=leaf_bits))
        assert state["node_alloc"][6] > 0 and state["leaf_alloc"][6] > 0


@pytest.mark.parametrize("s", (0, 16, 18))
def test_fault_site_visits_match_the_oracle(s):
    """Under a plan that never fires, a compile visits ``build`` once
    per internal node and ``alloc`` once per block, as the scalar path
    does, so the sweep's fault periods keep their meaning."""
    rib = make_random_rib(400, seed=42)
    counters = []
    for compile_ in (build_scalar, Poptrie.from_rib):
        with FaultPlan() as plan:
            trie = compile_(rib, PoptrieConfig(s=s))
        counters.append(plan.counters)
        assert plan.counters["build"] == trie.inode_count
    assert counters[0] == counters[1]
    if s == 16:
        assert counters[1] == {"alloc": 779, "build": 390}


@pytest.mark.parametrize(
    "plan_kwargs",
    (
        {"alloc_fail_at": 97},
        {"build_fail_at": 101},
        {"alloc_fail_at": 5, "build_fail_at": 3},
        {"build_fail_every": 7, "alloc_fail_every": 11},
    ),
)
def test_faults_fire_where_the_oracle_fires(plan_kwargs):
    rib = make_random_rib(400, seed=42)
    outcomes = []
    for compile_ in (build_scalar, Poptrie.from_rib):
        with FaultPlan(**plan_kwargs) as plan:
            with pytest.raises(InjectedFault) as raised:
                compile_(rib, PoptrieConfig(s=16))
        outcomes.append((str(raised.value), plan.counters, plan.fired))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("s", (0, 18))
def test_structural_limit_raises_like_the_oracle(s):
    """A next hop wider than a 16-bit leaf, let through by an explicit
    FIB size, is refused when its leaf is written — by both compiles."""
    rib = Rib()
    rib.insert(Prefix.parse("10.0.0.0/8"), 65536)
    rib.insert(Prefix.parse("10.1.2.0/24"), 3)
    for compile_ in (build_scalar, Poptrie.from_rib):
        with pytest.raises(StructuralLimitError, match="65536 exceeds 16-bit"):
            compile_(rib, PoptrieConfig(s=s), fib_size=2)
    assert_same_compile(rib, PoptrieConfig(s=s), fib_size=2)
    # Under a plan the refusal lands at the same fault-site count.
    counters = []
    for compile_ in (build_scalar, Poptrie.from_rib):
        with FaultPlan() as plan:
            with pytest.raises(StructuralLimitError):
                compile_(rib, PoptrieConfig(s=s), fib_size=2)
        counters.append(plan.counters)
    assert counters[0] == counters[1]


def test_failed_compile_leaves_the_rib_resizable():
    """The compile reads the RIB's columns through numpy views; none may
    outlive it, even when it raises, or the RIB could not grow."""
    rib = Rib()
    rib.insert(Prefix.parse("10.0.0.0/8"), 65536)
    rib.insert(Prefix.parse("10.1.2.0/24"), 3)
    try:
        Poptrie.from_rib(rib, PoptrieConfig(s=18), fib_size=2)
    except StructuralLimitError as error:
        kept = error  # a traceback holds the compile's frames
    rib.insert(Prefix.parse("192.0.2.0/24"), 4)
    assert kept.__traceback__ is not None


def test_failed_staged_rebuild_unfolds_and_leaves_the_rib_resizable(monkeypatch):
    """A message whose stage fails goes to a staged rebuild; when that
    compile fails inside the expansion (a numpy MemoryError, say) the
    message is refused and unfolded.  The refusal a caller keeps must
    not pin the RIB's columns, or the next insert could not grow them."""
    from repro.core import compiler, poptrie

    rib = make_random_rib(400, seed=42)
    up = TransactionalPoptrie(PoptrieConfig(s=16), rib=rib)
    before = sorted(rib.routes())
    gone = [prefix for prefix, _ in before if prefix.length > 16][:3]

    def failing(*args):
        raise MemoryError("injected")

    class Keeping(StreamReport):
        def refuse(self, position, error):
            super().refuse(position, error)
            kept.append(error)

    kept = []
    monkeypatch.setattr(poptrie, "stage", failing)
    monkeypatch.setattr(compiler, "_fill", failing)  # inside _expand
    report = up.trie.apply_updates([Update("W", prefix) for prefix in gone], Keeping())
    monkeypatch.undo()
    assert report["rejected"] == 3 and up.txn_stats.rollbacks == 3
    assert sorted(rib.routes()) == before
    assert all(error.__traceback__ is not None for error in kept)
    up.announce(Prefix.parse("198.51.100.77/32"), 5)  # appends RIB nodes
    assert up.trie.verify(rib)
