"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload served-lookup --seed 1 --seconds 10 --trace 0

Prints a human-readable summary, then, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``).  Exits 1 on any oracle mismatch or failed
operation, and 2 when the run cannot be measured (no program to run,
the load generator fell behind its schedule, or a traced run's layers
do not add up to their parent within 10 %).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "lookup_max_kps": "k/s",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "update_burst_ups": "1/s",
    "rss_mib": "MiB",
    "success_ratio": "ratio",
}

#: Per-layer metrics: name -> unit.  Layers a workload does not exercise
#: report 0.
PER_LAYER = {
    "client.lag_p99_us": "us",
    "client.cpu_util": "ratio",
    "server.cpu_util": "ratio",
    "tableio.load_s": "s",
    "core.build_s": "s",
    "core.table_bytes": "bytes",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "service.residence_p50_us": "us",
    "service.residence_p99_us": "us",
    "service.queue_p50_us": "us",
    "service.fanout_p50_us": "us",
    "service.mean_coalesced": "count",
    "service.shed": "count",
    "lookup.latency_p50_us": "us",
    "lookup.latency_p99_us": "us",
    "lookup.call_us": "us",
    "lookup.keys_per_call": "count",
    "lookup.ns_per_key": "ns",
    "lookup.v6_mlps": "M/s",
    "kernel.state_us": "us",
    "txn.msg_us": "us",
    "txn.update_us": "us",
    "txn.self_us": "us",
    "txn.rollbacks": "count",
    "txn.rebuilds": "count",
    "mem.snapshot_us": "us",
    "mem.snapshot_calls": "count",
    "mem.snapshot_share": "ratio",
    "mem.restore_calls": "count",
    "rib.update_us": "us",
    "journal.append_us": "us",
    "journal.flush_us": "us",
    "journal.fsyncs": "count",
    "journal.checkpoint_s": "s",
    "handle.swaps": "count",
    "handle.drain_us": "us",
    "handle.swap_us": "us",
    "check.residence_ratio": "ratio",
    "check.txn_ratio": "ratio",
    "machine.steal_share": "ratio",
    "trace.setup_s": "s",
    "trace.lookup_max_kps": "k/s",
    "trace.update_p50_ms": "ms",
}

#: The blocking-step accounting checks must hold within this share.
ACCOUNTING_TOLERANCE = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("served-lookup", "bulk-lookup"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # A SIGTERM unwinds like an error, so the server is stopped and the
    # run's files removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import workloads
    from machine import cpu_ticks, steal_share
    from stats import error_ratio

    env = workloads.env_for(ROOT)
    try:
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, env, bool(args.trace)
        )
    except workloads.Invalid as error:
        print(f"error: invalid run: {error}", file=sys.stderr)
        return 2
    result.metrics["success_ratio"] = 1.0 - error_ratio(result.attempted, result.failed)
    for name, value in sorted(result.metrics.items()):
        print(f"{name:>18} {value:14.4f} {END_TO_END[name]}")
    for error in result.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.trace:
        for name in ("setup_s", "lookup_max_kps", "update_p50_ms"):
            result.layers[f"trace.{name}"] = result.metrics[name]
        result.layers["machine.steal_share"] = steal_share(result.ticks, cpu_ticks())
        # A split whose parts do not add up to their parent explains
        # nothing: the traced run is not valid.  A layer the workload
        # does not exercise reports 0 and is not checked.
        for check in ("check.residence_ratio", "check.txn_ratio"):
            ratio = result.layers.get(check, 0.0)
            if ratio and abs(ratio - 1.0) > ACCOUNTING_TOLERANCE:
                print(f"error: invalid run: {check} = {ratio:.3f}, more than "
                      f"{ACCOUNTING_TOLERANCE:.0%} off", file=sys.stderr)
                return 2
        for name, value in sorted(result.layers.items()):
            print(f"{name:>26} {value:14.4f} {PER_LAYER[name]}")
    chosen = PER_LAYER if args.trace else END_TO_END
    values = result.layers if args.trace else result.metrics
    missing = sorted(set(chosen) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in chosen.items()
        },
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
