"""Outside-in tracing: spans around calls into each layer's public functions.

:func:`install` wraps the public entry points the per-layer metrics are
named after (``protocol.decode_request``, ``BuddyAllocator.snapshot``,
``Journal.append``, ...) with a recorder.  Each span records its name,
start, end, parent span and one layer-specific value (the request id of
a protocol call, the key count of a ``lookup_batch`` call, the update
count of an ``apply_stream`` call).  Spans stay in memory and are written
out once, when the traced process ends.  :func:`analyze` turns a span
list into the per-layer metrics.

Nothing under ``src/`` is edited: the wrappers replace attributes on the
imported modules and classes, so the program runs unmodified otherwise.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List

from stats import median, percentile, self_time, union_length
from wire import CONTROL_IDS

# Span record layout: [span id, name, start, end, parent id, value].
ID, NAME, START, END, PARENT, VALUE = range(6)

#: Span kinds that block an ``apply_stream`` message besides its own code.
TXN_STEPS = ("mem.snapshot", "mem.restore", "journal", "rib.update")


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.objects: Dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr, name, value=None, only_under=None, keep=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``value(args, result)`` extracts the span's value; ``only_under``
        records the span only while a span of that name is open on the
        same thread; ``keep(args, result)`` runs after each call (used to
        hold on to the structures whose size is reported).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder else raw
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = local.__dict__
            active = state.setdefault("active", defaultdict(int))
            if only_under and not active[only_under]:
                return func(*args, **kwargs)
            stack = state.setdefault("stack", [])
            record = [next(ids), name, clock(), 0.0, stack[-1] if stack else 0, None]
            stack.append(record[ID])
            active[name] += 1
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                record[END] = clock()
                stack.pop()
                active[name] -= 1
                if value is not None:
                    try:
                        record[VALUE] = value(args, result)
                    except (AttributeError, IndexError, TypeError):
                        pass
                spans.append(record)
                if keep is not None:
                    keep(args, result)

        setattr(owner, attr, binder(wrapper) if binder else wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump({"spans": self.spans, "extras": self.extras()}, stream)

    def extras(self) -> dict:
        """Layer state read once at the end: table size and txn outcomes."""
        out = {"table_bytes": 0, "rollbacks": 0, "rebuilds": 0}
        txn = self.objects.get("txn")
        trie = txn.trie if txn is not None else self.objects.get("trie")
        if trie is not None:
            out["table_bytes"] = trie.memory_bytes()
        if txn is not None:
            stats = txn.txn_stats
            out["rollbacks"] = stats.rollbacks
            out["rebuilds"] = stats.fallback_rebuilds + stats.threshold_rebuilds
        return out


def install(tracer: Tracer) -> None:
    """Wrap every public entry point a per-layer metric is named after."""
    from repro.core.poptrie import Poptrie
    from repro.data import tableio
    from repro.lookup.base import LookupStructure
    from repro.lookup.kernels import PoptrieKernel
    from repro.mem.buddy import BuddyAllocator
    from repro.net.rib import Rib
    from repro.robust.journal import Journal
    from repro.robust.txn import TransactionalPoptrie
    from repro.server import protocol
    from repro.server.handle import TableHandle

    def keep_trie(args, trie):
        if trie is not None and trie.width == 32:
            tracer.objects["trie"] = trie

    def keep_txn(args, _):
        tracer.objects["txn"] = args[0]

    wrap = tracer.wrap
    wrap(tableio, "load_table", "tableio.load")
    wrap(Poptrie, "from_rib", "core.build", keep=keep_trie)
    wrap(TransactionalPoptrie, "__init__", "core.build", keep=keep_txn)
    wrap(protocol, "decode_request", "protocol.decode",
         value=lambda args, request: request.request_id)
    wrap(protocol, "encode_response", "protocol.encode",
         value=lambda args, _: args[0])
    wrap(LookupStructure, "lookup_batch", "lookup.call",
         value=lambda args, _: len(args[1]))
    wrap(PoptrieKernel, "state_from_structure", "kernel.state")
    wrap(TransactionalPoptrie, "apply_stream", "txn.msg",
         value=lambda args, _: len(args[1]))
    wrap(TransactionalPoptrie, "announce", "txn.update")
    wrap(TransactionalPoptrie, "withdraw", "txn.update")
    wrap(BuddyAllocator, "snapshot", "mem.snapshot")
    wrap(BuddyAllocator, "restore", "mem.restore")
    # The RIB is also filled route by route while a table loads; only
    # the mutations an update makes are this layer's update cost.
    wrap(Rib, "insert", "rib.update", only_under="txn.update")
    wrap(Rib, "delete", "rib.update", only_under="txn.update")
    wrap(Journal, "append", "journal.append")
    wrap(Journal, "flush", "journal.flush")
    wrap(Journal, "checkpoint", "journal.checkpoint")
    wrap(TableHandle, "swap", "handle.swap")


def load(path: str):
    with open(path) as stream:
        data = json.load(stream)
    return data["spans"], data["extras"]


def _us(seconds: float) -> float:
    return seconds * 1e6


def _p50_us(records) -> float:
    return _us(median([r[END] - r[START] for r in records])) if records else 0.0


def analyze(
    spans: List[list], extras: dict, setups: int = 1, windows: Dict = None,
) -> Dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    ``setups`` is how many times the run built its tables; build time is
    reported per set-up.  ``windows`` may bound, by span start time, the
    spans behind the request-path metrics (``"requests"``: the open-loop
    phases whose latency they explain) and the ``lookup_batch`` metrics
    (``"lookups"``: the closed-loop phases whose throughput they
    explain); each is a list of ``(start, end)`` intervals.
    """
    by_name: Dict[str, List[list]] = defaultdict(list)
    by_id = {}
    for record in spans:
        by_name[record[NAME]].append(record)
        by_id[record[ID]] = record
    windows = windows or {}

    def within(names, window) -> Dict[str, List[list]]:
        bounds = windows.get(window, [(float("-inf"), float("inf"))])
        return {
            n: [r for r in by_name[n] if any(lo <= r[START] <= hi for lo, hi in bounds)]
            for n in names
        }

    requests = within(("protocol.decode", "protocol.encode", "lookup.call"), "requests")
    lookups = within(("lookup.call", "kernel.state"), "lookups")

    def has_ancestor(record, name) -> bool:
        parent = by_id.get(record[PARENT])
        while parent is not None:
            if parent[NAME] == name:
                return True
            parent = by_id.get(parent[PARENT])
        return False

    def total(name) -> float:
        return sum(
            r[END] - r[START] for r in by_name[name] if not has_ancestor(r, name)
        )

    out: Dict[str, float] = {
        "tableio.load_s": total("tableio.load"),
        "core.build_s": total("core.build") / setups,
        "core.table_bytes": float(extras.get("table_bytes", 0)),
        "protocol.decode_us": _p50_us(requests["protocol.decode"]),
        "protocol.encode_us": _p50_us(requests["protocol.encode"]),
        "kernel.state_us": _p50_us(lookups["kernel.state"]),
        "rib.update_us": _p50_us(by_name["rib.update"]),
        "journal.append_us": _p50_us(by_name["journal.append"]),
        "journal.flush_us": _p50_us(by_name["journal.flush"]),
        "journal.checkpoint_s": total("journal.checkpoint"),
        "handle.swap_us": _p50_us(by_name["handle.swap"]),
        "mem.snapshot_us": _p50_us(by_name["mem.snapshot"]),
        "mem.restore_calls": float(len(by_name["mem.restore"])),
        "txn.rollbacks": float(extras.get("rollbacks", 0)),
        "txn.rebuilds": float(extras.get("rebuilds", 0)),
    }
    out.update(_lookup_metrics(lookups["lookup.call"]))
    out.update(_residence_metrics(requests, out))
    out.update(_txn_metrics(by_name, by_id))
    return out


def _lookup_metrics(calls) -> Dict[str, float]:
    keys = sum(r[VALUE] or 0 for r in calls)
    busy = sum(r[END] - r[START] for r in calls)
    return {
        "lookup.call_us": _p50_us(calls),
        "lookup.keys_per_call": keys / len(calls) if calls else 0.0,
        "lookup.ns_per_key": busy / keys * 1e9 if keys else 0.0,
    }


def _residence_metrics(by_name, out) -> Dict[str, float]:
    """Decode-to-encode residence of each lookup request, paired by
    request id, split into its steps: queueing (decode end to the start
    of the ``lookup_batch`` call that served it: the last call starting
    between the request's decode and its encode, the dispatcher being
    FIFO), the call, and fan-out (call end to encode start)."""
    decoded = {
        r[VALUE]: r for r in by_name["protocol.decode"]
        if r[VALUE] is not None and r[VALUE] < CONTROL_IDS
    }
    calls = sorted((r[START], r[END]) for r in by_name["lookup.call"])
    starts = [start for start, _ in calls]
    residence, queue, fanout = [], [], []
    for record in by_name["protocol.encode"]:
        request = decoded.get(record[VALUE])
        if request is None:
            continue
        residence.append(record[END] - request[START])
        i = bisect.bisect_left(starts, record[START]) - 1
        if i >= 0 and starts[i] >= request[END]:
            queue.append(starts[i] - request[END])
            fanout.append(record[START] - calls[i][1])
    if not residence or not queue:
        return {
            "service.residence_p50_us": 0.0,
            "service.residence_p99_us": 0.0,
            "service.queue_p50_us": 0.0,
            "service.fanout_p50_us": 0.0,
            "check.residence_ratio": 0.0,
        }
    p50 = _us(median(residence))
    steps = {
        "service.queue_p50_us": _us(median(queue)),
        "service.fanout_p50_us": _us(median(fanout)),
    }
    accounted = (
        out["protocol.decode_us"] + sum(steps.values())
        + _p50_us(by_name["lookup.call"]) + out["protocol.encode_us"]
    )
    return {
        "service.residence_p50_us": p50,
        "service.residence_p99_us": _us(percentile(residence, 99)),
        **steps,
        "check.residence_ratio": accounted / p50,
    }


def _txn_metrics(by_name, by_id) -> Dict[str, float]:
    """Per-message update cost and the blocking steps inside it."""
    messages = by_name["txn.msg"]
    updates = by_name["txn.update"]
    if not messages:
        return {
            "txn.msg_us": 0.0, "txn.update_us": 0.0, "txn.self_us": 0.0,
            "mem.snapshot_calls": 0.0, "mem.snapshot_share": 0.0,
            "check.txn_ratio": 0.0,
        }
    inside: Dict[int, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for record in by_id.values():
        kind = next((k for k in TXN_STEPS if record[NAME].startswith(k)), None)
        if kind is None:
            continue
        parent = by_id.get(record[PARENT])
        while parent is not None and parent[NAME] != "txn.msg":
            parent = by_id.get(parent[PARENT])
        if parent is not None:
            inside[parent[ID]][kind].append((record[START], record[END]))
    self_times: List[float] = []
    per_kind: Dict[str, List[float]] = {kind: [] for kind in TXN_STEPS}
    for message in messages:
        steps = inside[message[ID]]
        children = [iv for kind in TXN_STEPS for iv in steps[kind]]
        self_times.append(self_time(message[START], message[END], children))
        for kind in TXN_STEPS:
            per_kind[kind].append(union_length(steps[kind]))
    busy = sum(r[END] - r[START] for r in messages)
    # Each step's p50 per message, taken on its own, must add up to the
    # message's p50: the split is only useful if its parts compose.
    accounted = sum(median(times) for times in per_kind.values()) + median(self_times)
    return {
        "txn.msg_us": _p50_us(messages),
        "txn.update_us": _p50_us(updates),
        "txn.self_us": _us(median(self_times)),
        "mem.snapshot_calls": len(by_name["mem.snapshot"]) / max(len(updates), 1),
        "mem.snapshot_share": sum(per_kind["mem.snapshot"]) / busy,
        "check.txn_ratio": _us(accounted) / _p50_us(messages),
    }
