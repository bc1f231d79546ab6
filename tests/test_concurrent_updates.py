"""Concurrent reader stress test for the lock-free update protocol.

The paper's Section 3.5 requirement: readers must never be blocked and
must never observe a half-built structure.  CPython's GIL interleaves
the reader and writer at bytecode granularity, which is exactly the
adversarial schedule we want: if the updater ever published a pointer
before the block behind it was fully written — or freed a block before
unlinking it — the reader would crash (index error) or return a value
that was never a legal answer.

The reader validates every result against the set of answers that are
legal at *some* point of the run (values are monotonic per-key between
the old and new table states around each update).
"""

import random
import sys
import threading

import pytest

from repro.core.poptrie import PoptrieConfig
from repro.errors import InjectedFault
from repro.net.prefix import Prefix
from repro.robust.faults import FaultPlan
from repro.robust.txn import TransactionalPoptrie


@pytest.mark.parametrize("s", [0, 16])
def test_reader_never_sees_torn_state(s):
    up = TransactionalPoptrie(PoptrieConfig(s=s))
    rng = random.Random(77)

    # Seed table.
    live = []
    for _ in range(300):
        length = rng.randint(1, 32)
        prefix = Prefix(rng.getrandbits(length) << (32 - length), length, 32)
        if not up.rib.get(prefix):
            live.append(prefix)
        up.announce(prefix, rng.randint(1, 30))

    #: All FIB indices ever used, plus "no route" — the only legal answers.
    legal = set(range(0, 31))
    errors = []
    stop = threading.Event()

    def reader():
        reader_rng = random.Random(99)
        lookup = up.lookup
        while not stop.is_set():
            key = reader_rng.getrandbits(32)
            try:
                result = lookup(key)
            except Exception as exc:  # index errors = torn structure
                errors.append(f"reader crashed: {exc!r}")
                return
            if result not in legal:
                errors.append(f"illegal result {result} for {key:#x}")
                return

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        writer_rng = random.Random(5)
        for _ in range(1200):
            if errors:
                break
            if live and writer_rng.random() < 0.45:
                prefix = live.pop(writer_rng.randrange(len(live)))
                up.withdraw(prefix)
            else:
                length = writer_rng.randint(1, 32)
                prefix = Prefix(
                    writer_rng.getrandbits(length) << (32 - length), length, 32
                )
                if not up.rib.get(prefix):
                    live.append(prefix)
                up.announce(prefix, writer_rng.randint(1, 30))
    finally:
        stop.set()
        for thread in threads:
            thread.join()

    assert not errors, errors
    # And after the dust settles, the structure is exactly consistent.
    verify_rng = random.Random(3)
    for _ in range(2000):
        key = verify_rng.getrandbits(32)
        assert up.lookup(key) == up.rib.lookup(key)


@pytest.mark.parametrize("s", [0, 16])
def test_reader_never_sees_aborted_update(s):
    """Readers run while the writer suffers injected faults: an update
    that aborts and rolls back must never be observable from the reader
    thread — same legality check as above, plus rollback-specific
    bookkeeping (the fault sweep in test_robust.py covers the
    single-threaded exactness of each rollback)."""
    up = TransactionalPoptrie(PoptrieConfig(s=s))
    rng = random.Random(88)

    live = []
    for _ in range(300):
        length = rng.randint(1, 32)
        prefix = Prefix(rng.getrandbits(length) << (32 - length), length, 32)
        if not up.rib.get(prefix):
            live.append(prefix)
        up.announce(prefix, rng.randint(1, 30))

    legal = set(range(0, 31))
    errors = []
    stop = threading.Event()

    def reader():
        reader_rng = random.Random(101)
        while not stop.is_set():
            key = reader_rng.getrandbits(32)
            try:
                result = up.lookup(key)
            except Exception as exc:  # index errors = torn structure
                errors.append(f"reader crashed: {exc!r}")
                return
            if result not in legal:
                errors.append(f"illegal result {result} for {key:#x}")
                return

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    aborted = 0
    try:
        writer_rng = random.Random(7)
        with FaultPlan(alloc_fail_every=13, build_fail_every=29):
            for _ in range(600):
                if errors:
                    break
                try:
                    if live and writer_rng.random() < 0.45:
                        kind, prefix = "W", live.pop(writer_rng.randrange(len(live)))
                        up.withdraw(prefix)
                    else:
                        length = writer_rng.randint(1, 32)
                        kind, prefix = "A", Prefix(
                            writer_rng.getrandbits(length) << (32 - length),
                            length, 32,
                        )
                        fresh = not up.rib.get(prefix)
                        up.announce(prefix, writer_rng.randint(1, 30))
                        if fresh:
                            live.append(prefix)
                except InjectedFault:
                    aborted += 1
                    if kind == "W":
                        # The rolled-back withdrawal left its prefix live;
                        # re-track it so later withdrawals stay valid.
                        live.append(prefix)
    finally:
        stop.set()
        for thread in threads:
            thread.join()

    assert not errors, errors
    assert aborted > 0, "the plan must actually have aborted some updates"
    assert up.txn_stats.rollbacks == aborted
    # After the dust settles: exact agreement with the shadow RIB, and the
    # full invariant check holds despite the aborted updates.
    verify_rng = random.Random(9)
    for _ in range(2000):
        key = verify_rng.getrandbits(32)
        assert up.lookup(key) == up.rib.lookup(key)
    up.trie.verify(up.rib, samples=1000)


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "kernel"])
def test_reader_never_sees_a_half_adopted_rebuild(batch):
    """A staged rebuild publishes a whole new state with one ``__dict__``
    rebind.  Every update here fails its stage (a one-shot build fault)
    and is serviced by a rebuild, while readers with a tiny switch
    interval look up keys the updates never cover, one at a time or as
    one kernel batch: each must keep its answer, which a lookup mixing
    old and new arrays would not."""
    rng = random.Random(12)
    up = TransactionalPoptrie(PoptrieConfig(s=0))
    for _ in range(300):
        length = rng.randint(1, 32)
        up.announce(Prefix(rng.getrandbits(length) << (32 - length), length, 32),
                    rng.randint(1, 30))
    # The updates stay under 0.0.0.0/4; the readers' keys avoid it.
    keys = [rng.getrandbits(32) | (1 << 31) for _ in range(500)]
    expected = {key: up.lookup(key) for key in keys}
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            if batch:
                try:
                    results = up.trie.lookup_batch(keys)
                except Exception as exc:  # index errors = torn structure
                    errors.append(f"reader crashed: {exc!r}")
                    return
                if list(results) != [expected[key] for key in keys]:
                    errors.append("a batch answer changed")
                    return
                continue
            for key in keys:
                try:
                    result = up.lookup(key)
                except Exception as exc:  # index errors = torn structure
                    errors.append(f"reader crashed: {exc!r}")
                    return
                if result != expected[key]:
                    errors.append(f"{key:#x}: {result} != {expected[key]}")
                    return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader) for _ in range(3)]
    try:
        for thread in threads:
            thread.start()
        for _ in range(60):
            if errors:
                break
            length = rng.randint(5, 28)
            prefix = Prefix(rng.getrandbits(length - 4) << (32 - length), length, 32)
            with FaultPlan(build_fail_at=1):
                up.announce(prefix, rng.randint(1, 30))
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert up.txn_stats.fallback_rebuilds == 60
