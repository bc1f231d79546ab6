"""Command-line interface: generate, compile, look up, serve, benchmark.

Usage examples::

    python -m repro generate --dataset REAL-Tier1-A --scale 0.05 -o rib.txt
    python -m repro generate --routes 50000 --nexthops 64 -o rib.txt
    python -m repro compile rib.txt -o fib.poptrie --s 18
    python -m repro lookup fib.poptrie 192.0.2.7 10.1.2.3
    python -m repro lookup rib.txt 192.0.2.7        # text tables work too
    python -m repro verify fib.poptrie --against rib.txt
    python -m repro info rib.txt                    # per-structure footprints
    python -m repro bench rib.txt --queries 200000  # quick Mlps comparison
    python -m repro bench rib.txt --metrics         # ... plus Prometheus dump
    python -m repro stats                           # observability self-demo
    python -m repro serve --table rib.txt --port 9000   # lookup service
    python -m repro serve --journal wal/ --port 9000    # ... crash-recovered
    python -m repro loadgen --port 9000 --duration 2    # drive it
    python -m repro recover wal/ --compact              # offline journal repair

Argument spelling is unified across subcommands: every command that
reads a table accepts it positionally *or* as ``--table PATH`` (the
shared spelling; ``serve``/``loadgen``/``bench`` also share
``--algorithm NAME``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.data import tableio
from repro.errors import ReproError
from repro.net.ip import parse_address


class _UsageError(ValueError):
    """Bad argument spelling or combination — exits 2, like argparse."""


def _snapshot_kind(path: str) -> Optional[str]:
    """``"structure"`` for a compiled snapshot, ``"rib"`` for a frozen
    routing-table image (both RPIMG001), ``None`` for anything else
    (i.e. a text table)."""
    from repro.parallel import image as image_mod

    with open(path, "rb") as stream:
        head = stream.read(len(image_mod.MAGIC))
    if head != image_mod.MAGIC:
        return None
    with open(path, "rb") as stream:
        return image_mod.TableImage.open(stream.read()).kind


def _load_structure(path: str):
    """Load a compiled snapshot, or compile a table (text or rib image)."""
    if _snapshot_kind(path) == "structure":
        from repro.parallel.image import load_structure

        return load_structure(path)
    rib = tableio.load_table(path)
    trie = Poptrie.from_rib(rib)
    if rib.values is not None:
        trie.attach_values(rib.values)
    return trie


def _is_snapshot(path: str) -> bool:
    return _snapshot_kind(path) == "structure"


# -- shared argument groups ----------------------------------------------------
#
# Every subcommand that reads a table registers the same group through
# _add_table_arg, so the spelling (positional TABLE or --table PATH) is
# identical everywhere; serve/loadgen/bench share _add_algorithm_arg and
# the server endpoint options come from _add_endpoint_args.


def _add_table_arg(
    parser: argparse.ArgumentParser,
    required: bool = True,
    metavar: str = "TABLE",
    help: str = "routing table (text) or compiled snapshot",
) -> None:
    group = parser.add_argument_group("input table")
    group.add_argument("table_pos", nargs="?", metavar=metavar, help=help)
    group.add_argument(
        "--table", dest="table_opt", metavar="PATH",
        help=f"unified spelling of the {metavar} argument",
    )
    parser.set_defaults(_table_required=required)


def _resolve_table(args: argparse.Namespace) -> Optional[str]:
    """The one table path out of the positional and --table spellings."""
    given = [
        value
        for value in (
            getattr(args, "table_pos", None),
            getattr(args, "table_opt", None),
        )
        if value
    ]
    if len(set(given)) > 1:
        raise _UsageError(
            "expected one table, got conflicting arguments: "
            + ", ".join(sorted(set(given)))
        )
    if not given:
        if getattr(args, "_table_required", True):
            raise _UsageError(
                "a table is required (positional TABLE or --table PATH)"
            )
        return None
    return given[0]


def _require_table(args: argparse.Namespace) -> str:
    """Like :func:`_resolve_table` but a table must have been given."""
    path = _resolve_table(args)
    if path is None:
        raise _UsageError(
            "a table is required (positional TABLE or --table PATH)"
        )
    return path


def _add_algorithm_arg(
    parser: argparse.ArgumentParser, default: Optional[str] = "Poptrie18"
) -> None:
    parser.add_argument(
        "--algorithm", default=default, metavar="NAME",
        help="registry algorithm to build/serve "
             f"(default {default}; see docs/API.md for the roster)",
    )


def _add_endpoint_args(
    parser: argparse.ArgumentParser, default_port: int
) -> None:
    group = parser.add_argument_group("service endpoint")
    group.add_argument("--host", default="127.0.0.1")
    group.add_argument("--port", type=int, default=default_port,
                       help=f"TCP port (default {default_port}; 0 = ephemeral)")


def _add_quorum_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("write durability (see docs/CLUSTER.md)")
    group.add_argument("--min-insync", type=int, default=0, metavar="N",
                       help="hold each OP_UPDATE ack until N replicas ack "
                            "the batch (default 0 = async replication)")
    group.add_argument("--quorum-timeout", type=float, default=1000.0,
                       metavar="MS",
                       help="quorum wait deadline in milliseconds "
                            "(default 1000)")
    group.add_argument("--quorum-degrade", action="store_true",
                       help="on quorum timeout, degrade to async (gauge "
                            "repro_cluster_degraded goes up) instead of "
                            "shedding with STATUS_QUORUM_TIMEOUT")


def cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset:
        from repro.data.datasets import load_dataset

        dataset = load_dataset(args.dataset, scale=args.scale)
        rib = dataset.rib
    elif args.ipv6:
        from repro.data.synth import generate_table_v6

        rib, _ = generate_table_v6(
            n_prefixes=args.routes, n_nexthops=args.nexthops, seed=args.seed
        )
    else:
        from repro.data.synth import generate_table

        rib, _ = generate_table(
            n_prefixes=args.routes,
            n_nexthops=args.nexthops,
            seed=args.seed,
            igp_fraction=args.igp_fraction,
        )
    count = tableio.save_table(rib, args.output)
    print(f"wrote {count} routes to {args.output}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    rib = tableio.load_table(_resolve_table(args))
    config = PoptrieConfig(
        s=args.s, use_leafvec=not args.no_leafvec, leaf_bits=args.leaf_bits
    )
    start = time.perf_counter()
    if args.aggregate:
        from repro.core.aggregate import aggregated_rib

        rib = aggregated_rib(rib)
    trie = Poptrie.from_rib(rib, config)
    elapsed = time.perf_counter() - start
    from repro.parallel.image import save_structure

    size = save_structure(trie, args.output)
    print(
        f"compiled {len(rib)} routes in {elapsed * 1000:.1f} ms: "
        f"{trie.inode_count} inodes, {trie.leaf_count} leaves, "
        f"{trie.memory_bytes() / 1024:.1f} KiB in-memory, "
        f"{size / 1024:.1f} KiB snapshot -> {args.output}"
    )
    return 0


def cmd_lookup(args: argparse.Namespace) -> int:
    if args.geoip:
        # With --geoip there is no table, so whatever landed in the
        # optional positional slot is really the first address.
        if getattr(args, "table_pos", None):
            args.addresses.insert(0, args.table_pos)
            args.table_pos = None
        if _resolve_table(args):
            raise _UsageError("--geoip synthesises its table; drop --table")
        # The value-plane demo: synthesise a GeoIP RIB (country-code
        # values) and serve lookups from it.
        from repro.data.geoip import generate_geoip_table

        rib, values = generate_geoip_table(
            args.geoip_routes, seed=args.seed
        )
        structure = Poptrie.from_rib(rib)
        structure.attach_values(values)
        print(
            f"geoip demo: {len(rib)} synthetic routes over "
            f"{len(values)} countries (seed {args.seed})",
            file=sys.stderr,
        )
    else:
        path = _resolve_table(args)
        if path is None:
            raise _UsageError(
                "a table is required (positional TABLE or --table PATH), "
                "or pass --geoip for the synthetic demo"
            )
        structure = _load_structure(path)
    values = structure.values
    status = 0
    for text in args.addresses:
        try:
            value, width = parse_address(text)
        except ValueError as error:
            print(f"{text}: {error}", file=sys.stderr)
            status = 2
            continue
        if width != structure.width:
            print(f"{text}: wrong address family for this table",
                  file=sys.stderr)
            status = 2
            continue
        index = structure.lookup(value)
        if not index:
            print(f"{text} -> no route")
        elif values is not None:
            # Edge resolution: the structure returned an id; the value
            # table says what it means (docs/VALUES.md).
            payload = values.codec.format(values[index])
            print(f"{text} -> {payload} (id {index})")
        else:
            print(f"{text} -> FIB[{index}]")
    return status


def cmd_verify(args: argparse.Namespace) -> int:
    """Check structural invariants of a snapshot or table; exit 1 on failure.

    A compiled snapshot is verified as loaded; a text table is compiled
    first (so this also exercises the builder) and verified against its
    own RIB.  ``--against`` supplies a shadow table for semantic
    cross-checking of a snapshot.
    """
    path = _resolve_table(args)
    if _is_snapshot(path):
        trie = _load_structure(path)
        rib = tableio.load_table(args.against) if args.against else None
        if not hasattr(trie, "verify"):
            raise _UsageError(
                f"{path}: {type(trie).__name__} snapshots have no "
                "structural verifier (only Poptrie snapshots do)"
            )
    else:
        rib = tableio.load_table(args.against or path)
        trie = Poptrie.from_rib(rib)
    report = trie.verify(rib, samples=args.samples)
    print(f"{path}: OK ({report.summary()})")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.bench.report import Table
    from repro.lookup.registry import standard_roster

    path = _resolve_table(args)
    rib = tableio.load_table(path)
    names = (
        "Radix", "Tree BitMap", "Tree BitMap (64-ary)", "SAIL",
        "D16R", "D18R", "Poptrie0", "Poptrie16", "Poptrie18",
    )
    if rib.width != 32:
        names = ("Radix", "Poptrie0", "Poptrie16", "Poptrie18")
    roster = standard_roster(rib, names=names)
    table = Table(["Structure", "KiB", "bytes/route"],
                  title=f"{path}: {len(rib)} routes")
    for name, structure in roster.items():
        if structure is None:
            table.add_row([name, None, None])
        else:
            table.add_row(
                [name, structure.memory_bytes() / 1024,
                 structure.memory_bytes() / max(len(rib), 1)]
            )
    print(table.render())
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.bench.harness import measure_rate_batch
    from repro.bench.report import Table
    from repro.data.traffic import random_addresses
    from repro.lookup.registry import standard_roster

    if args.geoip and (args.kernel or args.workers):
        raise _UsageError(
            "--geoip is its own scenario; drop --kernel/--workers"
        )
    if args.build is not None and (args.kernel or args.workers or args.geoip):
        raise _UsageError(
            "--build is its own scenario; drop --kernel/--workers/--geoip"
        )
    if args.geoip:
        return _bench_geoip(args)
    if args.workers:
        return _bench_multicore(args)
    if args.kernel:
        return _bench_kernels(args)
    if args.build is not None:
        return _bench_build(args)
    if args.metrics:
        obs.enable()
    rib = tableio.load_table(_require_table(args))
    names = tuple(args.algorithm) if args.algorithm else None
    try:
        roster = (
            standard_roster(rib, names=names)
            if names
            else standard_roster(rib)
        )
    except KeyError as error:
        raise _UsageError(error.args[0]) from None
    keys = random_addresses(args.queries, seed=args.seed)
    table = Table(
        ["Structure", "KiB", "batch Mlps", "engine"],
        title=f"random-pattern batch rates ({args.queries} queries)",
    )
    for name, structure in roster.items():
        if structure is None:
            table.add_row([name, None, None, None])
            continue
        if args.metrics:
            structure.enable_obs()
        result = measure_rate_batch(structure, keys, repeats=args.repeats)
        table.add_row([
            name, structure.memory_bytes() / 1024, result.mlps,
            structure.batch_engine(),
        ])
        if args.metrics:
            structure.stats()  # refresh the per-structure gauges
    print(table.render())
    if args.metrics:
        # One short churn burst against an updatable structure so the
        # update-latency histogram shows up in the dump alongside the
        # lookup metrics (Poptrie exercises the incremental engine; any
        # other entry would demonstrate the rebuild fallback).
        from repro.data.updates import generate_stream

        target = roster.get("Poptrie18") or next(
            (s for s in roster.values() if s is not None), None
        )
        if target is not None and target.rib is not None:
            target.apply_updates(
                generate_stream(target.rib, count=64, seed=args.seed)
            )
            target.stats()
        print()
        print(obs.registry().render())
        obs.disable()
    return 0


def _bench_geoip(args: argparse.Namespace) -> int:
    """``bench --geoip``: the value-plane aggregation scenario.

    Builds one synthetic GeoIP table (country-code values) raw, with the
    paper's aggregation, and with the swoiow same-value subtree pruning,
    comparing node counts, depth distributions and scalar-vs-kernel
    oracle fingerprints.  ``--json`` writes ``BENCH_geoip.json`` (the CI
    artifact); a kernel/oracle mismatch exits 1.
    """
    import json

    from repro.bench.geoip_scenario import geoip_scenario
    from repro.bench.report import Table

    if _resolve_table(args):
        raise _UsageError("--geoip synthesises its table; drop TABLE")
    names = args.algorithm or ["Poptrie18"]
    if len(names) > 1:
        raise _UsageError(
            "--geoip benches one algorithm; pass --algorithm at most once"
        )
    try:
        payload = geoip_scenario(
            n_prefixes=args.geoip_routes,
            queries=args.queries,
            seed=args.seed,
            algorithm=names[0],
        )
    except KeyError as error:
        raise _UsageError(error.args[0]) from None
    table = Table(
        ["Aggregation", "routes", "inodes", "leaves", "KiB",
         "mean depth", "oracle"],
        title=(
            f"{payload['algorithm']}: GeoIP value plane over "
            f"{payload['prefixes']} routes, {payload['countries']} "
            f"countries ({payload['queries']} queries)"
        ),
    )
    for row in payload["builds"]:
        table.add_row([
            row["aggregation"], row["routes"], row["inodes"],
            row["leaves"], row["memory_bytes"] / 1024, row["mean_depth"],
            {True: "ok", False: "MISMATCH", None: "-"}[row["oracle_match"]],
        ])
    print(table.render())
    if not payload["oracle_agreement"]:
        print("error: kernel results diverge from the scalar oracle",
              file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        print(f"wrote {args.json}")
    return 0


def _bench_build(args: argparse.Namespace) -> int:
    """``bench --build``: the scalar reference compile vs
    ``Poptrie.from_rib``, interleaved in one process, min of
    ``--repeats``, for each table at s = 0, 16 and 18 (see
    :mod:`repro.bench.build`).  Exits 1 when a compile differs from the
    oracle.  ``--json`` writes the rows as ``BENCH_build.json``."""
    import json
    import os

    from repro.bench.build import build_comparison
    from repro.bench.report import Table
    from repro.core.poptrie import PoptrieConfig

    first = _resolve_table(args)
    paths = ([first] if first else []) + args.build
    if not paths:
        raise _UsageError("--build needs a table (TABLE or --build PATH ...)")
    table = Table(
        ["Table", "s", "inodes", "scalar ms", "compile ms", "×scalar",
         "VmHWM MiB", "oracle"],
        title=f"Poptrie compile vs scalar oracle (min of {args.repeats})",
    )
    rows = []
    for path in paths:
        rib = tableio.load_table(path)
        for s in (0, 16, 18):
            row = build_comparison(
                rib, PoptrieConfig(s=min(s, rib.width)), repeats=args.repeats
            )
            row = {"table": os.path.basename(path), **row}
            rows.append(row)
            table.add_row([
                row["table"], row["s"], row["inodes"], 1e3 * row["scalar_s"],
                1e3 * row["compile_s"], row["speedup"],
                f"{row['vmhwm_before_mib']} -> {row['vmhwm_after_mib']}",
                "ok" if row["identical"] else "MISMATCH",
            ])
        rib = None
    print(table.render())
    if not all(row["identical"] for row in rows):
        print("error: the compile differs from the scalar oracle",
              file=sys.stderr)
        return 1
    if args.json:
        import numpy

        payload = {
            "scenario": "build",
            "repeats": args.repeats,
            "numpy": numpy.__version__,
            "results": rows,
        }
        with open(args.json, "w") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        print(f"wrote {args.json}")
    return 0


def _bench_kernels(args: argparse.Namespace) -> int:
    """``bench --kernel``: scalar vs branchless kernel, both measured
    in one process (min-of-N — see
    :mod:`repro.bench.kernels`).  Keys follow the table's width: the
    xorshift32 pattern for IPv4, Section 4.10's 2000::/8 pattern for
    IPv6.  ``--json`` writes the rows as ``BENCH_kernels.json`` (the CI
    artifact; ``BENCH_kernels_v6.json`` for an IPv6 table)."""
    import json

    from repro.bench.kernels import kernel_comparison
    from repro.bench.report import Table
    from repro.data.traffic import random_addresses, random_addresses_v6
    from repro.lookup.registry import available, get, standard_roster

    if args.algorithm:
        names = tuple(args.algorithm)
    else:
        names = tuple(n for n in available() if get(n).supports_kernel)
    try:
        roster = standard_roster(rib := tableio.load_table(
            _require_table(args)), names=names)
    except KeyError as error:
        raise _UsageError(error.args[0]) from None
    if rib.width == 128:
        keys = random_addresses_v6(args.queries, seed=args.seed)
    else:
        keys = random_addresses(args.queries, seed=args.seed)
    table = Table(
        ["Structure", "KiB", "scalar", "kernel", "×scalar", "oracle"],
        title=(
            f"batch engines over {len(rib)} routes "
            f"({args.queries} queries, Mlps, min of {args.repeats})"
        ),
    )
    rows = []
    for name, structure in roster.items():
        if structure is None:
            table.add_row([name] + [None] * 5)
            continue
        row = kernel_comparison(structure, keys, repeats=args.repeats)
        rows.append(row)
        table.add_row([
            name, row["memory_bytes"] / 1024, row["scalar_mlps"],
            row["kernel_mlps"], row["speedup_vs_scalar"],
            {True: "ok", False: "MISMATCH", None: "-"}[row["oracle_match"]],
        ])
    print(table.render())
    if any(row["oracle_match"] is False for row in rows):
        print("error: kernel results diverge from the scalar oracle",
              file=sys.stderr)
        return 1
    if args.json:
        import numpy

        payload = {
            "scenario": "kernels",
            "routes": len(rib),
            "width": rib.width,
            "queries": args.queries,
            "repeats": args.repeats,
            "numpy": numpy.__version__,
            "results": rows,
        }
        with open(args.json, "w") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        print(f"wrote {args.json}")
    return 0


def _bench_multicore(args: argparse.Namespace) -> int:
    """``bench --workers N``: the real Figure 8 measurement.

    Builds one structure, measures the in-process batch rate as the
    single-core reference, then the shared-memory :class:`WorkerPool`
    aggregate rate at 1..N workers.  ``--json`` writes the series as
    ``BENCH_multicore.json`` (the CI artifact).
    """
    import json
    import os

    from repro.bench.harness import measure_rate_batch
    from repro.bench.parallel import pool_scaling_curve
    from repro.bench.report import Table
    from repro.data.traffic import random_addresses
    from repro.lookup.registry import get as get_algorithm

    names = args.algorithm or ["Poptrie18"]
    if len(names) > 1:
        raise _UsageError(
            "--workers benches one algorithm; pass --algorithm at most once"
        )
    try:
        entry = get_algorithm(names[0])
    except KeyError as error:
        raise _UsageError(error.args[0]) from None
    if not entry.supports_image:
        raise _UsageError(
            f"--workers: {names[0]} does not support zero-copy table images"
        )
    rib = tableio.load_table(_require_table(args))
    structure = entry.from_rib(rib)
    keys = random_addresses(args.queries, seed=args.seed)
    single = measure_rate_batch(structure, keys, repeats=args.repeats)
    curve = pool_scaling_curve(
        structure, keys, max_workers=args.workers, rounds=args.repeats
    )
    base = curve[0].mlps or 1e-9
    table = Table(
        ["Workers", "aggregate Mlps", "speedup"],
        title=(
            f"{structure.name}: pool scaling over {len(rib)} routes "
            f"({args.queries} queries; in-process reference "
            f"{single.mlps:.2f} Mlps)"
        ),
    )
    for workers, result in enumerate(curve, start=1):
        table.add_row([workers, result.mlps, result.mlps / base])
    print(table.render())
    if args.json:
        payload = {
            "scenario": "multicore",
            "figure": 8,
            "algorithm": structure.name,
            "routes": len(rib),
            "queries": args.queries,
            "repeats": args.repeats,
            "cpu_count": os.cpu_count(),
            "single_process_mlps": single.mlps,
            "series": [
                {
                    "workers": workers,
                    "mlps": result.mlps,
                    "speedup": result.mlps / base,
                }
                for workers, result in enumerate(curve, start=1)
            ],
        }
        with open(args.json, "w") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        print(f"wrote {args.json}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Exercise every instrumented subsystem once and dump the metrics.

    With no table argument a small synthetic table is generated, so the
    command demonstrates the full observability surface out of the box:
    lookups (scalar + batch), transactional updates, the buddy allocators
    and the forwarding pipeline all leave their marks in the registry.
    """
    import contextlib

    from repro import obs
    from repro.core.aggregate import aggregated_rib
    from repro.data.synth import generate_table
    from repro.data.traffic import random_addresses
    from repro.lookup.registry import get as get_algorithm, standard_roster
    from repro.router.pipeline import ForwardingPipeline

    stack = contextlib.ExitStack()
    prof = None
    if args.profile:
        from repro.obs.profiling import profiled

        prof = stack.enter_context(profiled())

    obs.enable()
    try:
        with stack:
            table_path = _resolve_table(args)
            if table_path:
                rib = tableio.load_table(table_path)
                fib = None
            else:
                rib, fib = generate_table(
                    n_prefixes=args.routes, n_nexthops=16, seed=args.seed
                )

            # 1. Lookups through every roster structure (scalar + batch).
            roster = standard_roster(rib)
            keys = random_addresses(args.queries, seed=args.seed)
            for structure in roster.values():
                if structure is None:
                    continue
                structure.enable_obs()
                lookup = structure.lookup
                for key in keys[: min(1000, len(keys))]:
                    lookup(int(key))
                structure.lookup_batch(keys)

            # 2. Route updates the way `serve --journal` takes them: a
            # short stream in 16-update messages through the update
            # pipeline, so the txn outcome counters, the per-stage
            # update-latency histogram and the journal backpressure
            # signals are all in the dump.
            import tempfile

            from repro.data.updates import generate_stream
            from repro.robust.journal import Journal
            from repro.server import TableHandle, UpdatePipeline

            engine = get_algorithm("Poptrie18").from_rib(aggregated_rib(rib))
            engine.enable_obs()
            stream = generate_stream(engine.rib, count=120, seed=args.seed)
            with tempfile.TemporaryDirectory() as jdir:
                with Journal(jdir) as journal:
                    pipeline = UpdatePipeline(
                        engine, journal, TableHandle(engine)
                    )
                    for i in range(0, len(stream), 16):
                        pipeline.apply(stream[i:i + 16])

            # 3. The forwarding pipeline (ring occupancy, latency, drops).
            if fib is not None:
                poptrie = roster.get("Poptrie18") or next(
                    s for s in roster.values() if s is not None
                )
                pipeline = ForwardingPipeline(poptrie, fib, batch_size=32)
                pipeline.run([int(k) for k in keys[:2048]])

            # 4. The shared-memory worker pool (per-worker batch
            # counters, shard-size histogram, generation gauge).
            pool_source = roster.get("Poptrie18") or next(
                (s for s in roster.values() if s is not None), None
            )
            if pool_source is not None:
                from repro.parallel import PoolConfig, WorkerPool

                with WorkerPool(
                    pool_source, PoolConfig(workers=2)
                ) as pool:
                    pool.view().lookup_batch(keys)
                    pool.stats()

            # 5. Refresh pull-model gauges, then dump.
            for structure in roster.values():
                if structure is not None:
                    structure.stats()
            print(obs.registry().render())
        if prof is not None:
            print(prof.report(limit=args.profile_limit))
    finally:
        obs.disable()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a lookup table over TCP (see docs/SERVER.md)."""
    import asyncio

    from repro import obs
    from repro.server import (
        LookupServer, ServerConfig, TableHandle, UpdatePipeline,
    )

    path = _resolve_table(args)
    if path is None and not args.journal:
        raise _UsageError(
            "a table (positional TABLE or --table PATH) or --journal DIR "
            "is required"
        )
    if args.repl_port is not None and not args.journal:
        raise _UsageError("--repl-port requires --journal (the shipped WAL)")
    if args.min_insync and args.repl_port is None:
        raise _UsageError(
            "--min-insync requires --repl-port (the quorum is counted "
            "over replication subscribers)"
        )
    from repro.lookup import registry

    try:
        entry = registry.get(args.algorithm)
    except KeyError as error:
        raise _UsageError(error.args[0]) from None
    if args.repl_port is not None:
        from repro.cluster.replica import REPLICA_ALGORITHM as replicas

        if entry.fib_limit > registry.get(replicas).fib_limit:
            raise _UsageError(
                f"--repl-port: replicas run {replicas}, and {entry.name} "
                "takes next hops they refuse"
            )
    rebuild = journal = None
    if args.journal:
        structure, journal, routes = _recover_for_serve(args, path, entry)
    elif _is_snapshot(path):
        structure = _load_structure(path)
        routes = "snapshot"
    else:
        structure = entry.from_rib(tableio.load_table(path))
        routes = f"{len(structure.rib)} routes"
    if structure.rib is not None:
        rib = structure.rib
        rebuild = lambda: entry.from_rib(rib)  # noqa: E731 (OP_RELOAD hook)
    if args.metrics:
        obs.enable()
    pool = None
    if args.workers > 1:
        # The multicore data plane: freeze the structure as a shared-
        # memory image, attach N worker processes zero-copy, and serve
        # batches through the pool view.  OP_RELOAD then publishes the
        # rebuilt table to every worker (RCU hot swap) before the handle
        # swap makes the new view current.
        from repro.parallel import PoolConfig, WorkerPool

        probe = getattr(type(structure), "supports_image", None)
        if not (callable(probe) and probe()):
            raise _UsageError(
                f"--workers: {type(structure).__name__} does not support "
                "zero-copy table images"
            )
        pool = WorkerPool(structure, PoolConfig(workers=args.workers))
        if rebuild is not None:
            inner_rebuild = rebuild
            rebuild = lambda: pool.publish_structure(  # noqa: E731
                inner_rebuild()
            )
        handle = TableHandle(pool.view())
        routes = f"{routes}, {args.workers} workers"
    else:
        handle = TableHandle(structure)
    server = LookupServer(
        handle,
        ServerConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
        ),
        rebuild=rebuild,
        apply_updates=(
            UpdatePipeline(structure, journal, handle, pool=pool)
            if journal is not None else None
        ),
    )

    async def _main() -> None:
        import signal

        host, port = await server.start()
        publisher = None
        if args.repl_port is not None:
            from repro.cluster import ReplicationPublisher

            publisher = ReplicationPublisher(
                args.journal,
                args.host,
                args.repl_port,
                watermark=lambda: journal.applied_seqno,
            )
            repl_host, repl_bound = await publisher.start()
            print(
                f"replicating {args.journal} on {repl_host}:{repl_bound}",
                flush=True,
            )
            quorum = _quorum_config(args)
            if quorum is not None:
                from repro.cluster import QuorumGate

                server.quorum = QuorumGate(publisher, quorum)
                print(
                    f"quorum: min-insync {quorum.min_insync}, timeout "
                    f"{quorum.timeout_s * 1000:.0f} ms, on timeout "
                    f"{quorum.on_timeout}",
                    flush=True,
                )
        print(f"serving {handle.name} ({routes}) on {host}:{port}", flush=True)
        # SIGTERM (the supervisor/CI stop signal) drains like Ctrl-C so
        # the pool's shared-memory segments are unlinked on the way out.
        loop = asyncio.get_running_loop()
        main_task = asyncio.current_task()
        try:
            loop.add_signal_handler(signal.SIGTERM, main_task.cancel)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        try:
            await server.serve_forever()
        finally:
            if publisher is not None:
                await publisher.stop()

    try:
        asyncio.run(_main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down", file=sys.stderr)
    finally:
        if pool is not None:
            pool.close()
        if journal is not None:
            journal.close()
    if args.metrics:
        print(obs.registry().render())
        obs.disable()
    return 0


def _quorum_config(args: argparse.Namespace):
    """The durability policy asked for on the command line, or ``None``.

    Shared by ``serve`` and ``replica``: ``--min-insync 0`` (the
    default) means plain asynchronous replication and returns ``None``
    so no gate is constructed at all.
    """
    if not args.min_insync:
        return None
    from repro.cluster import QuorumConfig

    return QuorumConfig(
        min_insync=args.min_insync,
        timeout_s=args.quorum_timeout / 1000.0,
        on_timeout="degrade" if args.quorum_degrade else "shed",
    )


def _recover_for_serve(args, table_path: Optional[str], entry):
    """The ``serve --journal DIR`` startup path.

    Recovers the durable RIB (newest checkpoint + replayed tail) and
    compiles it once with ``entry``, checked against the RIB.  A *fresh*
    journal directory with a ``--table`` is seeded from the table with
    an initial checkpoint; a journal holding state wins over ``--table``
    (it is the authority on what was durably committed).

    Returns ``(structure, journal, routes_text)``; the caller owns
    closing the open journal on shutdown.
    """
    from repro.robust.journal import Journal, compile_recovered, recover

    journal = Journal(args.journal)
    fresh = journal.last_seqno == 0 and journal.checkpoint_seqno == 0
    if fresh and table_path is not None:
        started = time.perf_counter()
        rib = tableio.load_table(table_path)
        loaded = time.perf_counter()
        journal.checkpoint(rib)
        checkpointed = time.perf_counter()
        structure = entry.from_rib(rib)
        built = time.perf_counter()
        print(
            f"journal {args.journal}: fresh; seeded from {table_path} "
            f"({len(rib)} routes, initial checkpoint written) "
            f"in {built - started:.2f} s: load {loaded - started:.2f} s, "
            f"checkpoint {checkpointed - loaded:.2f} s, "
            f"build {built - checkpointed:.2f} s"
        )
    else:
        journal.close()
        result = recover(args.journal)
        started = time.perf_counter()
        structure = compile_recovered(result.rib, entry.name)
        built = time.perf_counter()
        journal = Journal(args.journal)
        summary = result.describe()
        print(
            f"journal {args.journal}: recovered {summary['routes']} routes "
            f"(checkpoint seqno {summary['checkpoint_seqno']}, "
            f"{summary['replayed']} replayed, {summary['skipped']} skipped, "
            f"{summary['torn_bytes']} torn bytes discarded) "
            f"in {summary['duration_s'] * 1000:.1f} ms; "
            f"applied seqno {summary['applied_seqno']}; "
            f"{entry.name} compiled and checked in {built - started:.2f} s"
        )
        if table_path is not None:
            print(
                f"note: --table {table_path} ignored; the journal already "
                "holds durable state",
                file=sys.stderr,
            )
    return structure, journal, f"{len(structure.rib)} recovered routes"


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running lookup server (or a sharded cluster) with load."""
    import asyncio
    import json

    from repro.data.traffic import random_addresses
    from repro.server import LoadGenConfig, LoadGenerator

    config = LoadGenConfig(
        connections=args.connections,
        rate=args.rate,
        duration=args.duration,
        batch=args.batch,
        schedule=args.schedule,
        seed=args.seed,
        request_timeout=args.timeout,
        deadline_us=args.deadline_us,
        max_retries=args.retries,
    )
    router = None
    width = 32
    if args.shard_map:
        from repro.cluster import ClusterRouter
        from repro.cluster.router import RouterConfig
        from repro.cluster.shard import ShardMap

        shard_map = ShardMap.load(args.shard_map)
        width = shard_map.width
        router = ClusterRouter(
            shard_map,
            RouterConfig(
                request_timeout=args.timeout,
                deadline_us=args.deadline_us,
            ),
        )
    generator = LoadGenerator(
        None if router is not None else args.host,
        None if router is not None else args.port,
        config,
        keys=random_addresses(1 << 15, seed=args.seed),
        width=width,
        router=router,
    )
    reload_at = args.duration / 2 if args.swap_mid_run else None

    async def _run():
        try:
            return await generator.run(reload_at=reload_at)
        finally:
            if router is not None:
                await router.close()

    try:
        report = asyncio.run(_run())
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {args.host}:{args.port} ({error})",
              file=sys.stderr)
        return 1
    if router is not None:
        report.retries += router.failovers
    print(report.render(batch=args.batch))
    if args.json:
        payload = {
            "scenario": "loadgen",
            "target": args.shard_map or f"{args.host}:{args.port}",
            "config": {
                "connections": args.connections,
                "rate": args.rate,
                "duration": args.duration,
                "batch": args.batch,
                "schedule": args.schedule,
                "seed": args.seed,
                "swap_mid_run": args.swap_mid_run,
                "timeout_s": args.timeout,
                "deadline_us": args.deadline_us,
                "retries": args.retries,
            },
            **report.to_dict(args.batch),
        }
        with open(args.json, "w") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        print(f"wrote {args.json}")
    return 1 if report.errors or report.mismatched else 0


def cmd_churn(args: argparse.Namespace) -> int:
    """Measure lookup latency and convergence under sustained churn.

    Two modes (see docs/CHURN.md):

    - ``--port`` drives an already-running ``serve --journal`` process:
      one churn stream is scheduled onto the wire while an open-loop
      load generator measures lookup latency — the CI churn-smoke job's
      mode.  ``--table`` (the file the server was started with) makes
      withdrawals target live routes; without it the stream is
      announce-heavy against the server's unknown table.
    - Without ``--port`` the registry engines are swept through
      in-process servers (:func:`repro.bench.churn_scenario.run_churn_bench`)
      and the per-engine comparison is printed — incremental Poptrie
      surgery versus the measured rebuild fallback.
    """
    import asyncio
    import json

    from repro.bench.churn_scenario import (
        DEFAULT_ENGINES,
        drive_churn,
        run_churn_bench,
    )
    from repro.data.updates import UpdateStream, arrival_offsets, generate_stream
    from repro.server import LoadGenConfig

    regime = args.regime or "steady"
    stream = UpdateStream(
        count=args.updates,
        seed=args.seed,
        regime=regime,
        rate=args.update_rate,
        burst_length=args.burst_length,
        burst_idle_s=args.burst_idle,
    )
    if args.port is not None:
        if args.table_pos or args.table_opt:
            rib = tableio.load_table(_require_table(args))
        else:
            from repro.data.synth import generate_table

            rib, _ = generate_table(
                n_prefixes=2000, n_nexthops=16, seed=args.seed
            )
        updates = generate_stream(rib, stream)
        lookup = LoadGenConfig(
            connections=args.connections,
            rate=args.lookup_rate,
            duration=stream.duration_estimate() + 0.5,
            batch=args.batch,
            seed=args.seed,
        )
        try:
            result = asyncio.run(
                drive_churn(
                    args.host,
                    args.port,
                    updates=updates,
                    offsets=arrival_offsets(stream),
                    update_batch=args.update_batch,
                    lookup=lookup,
                    width=rib.width,
                )
            )
        except (ConnectionError, OSError) as error:
            print(
                f"error: cannot reach {args.host}:{args.port} ({error})",
                file=sys.stderr,
            )
            return 1
        result = {
            "scenario": "churn_convergence",
            "target": f"{args.host}:{args.port}",
            "regime": regime,
            "rows": [result],
        }
        rows = result["rows"]
    else:
        result = run_churn_bench(
            engines=tuple(args.engines) if args.engines else DEFAULT_ENGINES,
            regimes=(args.regime,) if args.regime else ("steady", "bursty"),
            update_count=args.updates,
            update_rate=args.update_rate,
            update_batch=args.update_batch,
            burst_length=args.burst_length,
            burst_idle_s=args.burst_idle,
            lookup_rate=args.lookup_rate,
            lookup_connections=args.connections,
            lookup_batch=args.batch,
            seed=args.seed,
        )
        rows = result["rows"]
    for row in rows:
        updates_ = row["updates"]
        conv = row["convergence"]
        label = row.get("engine", result.get("target", "server"))
        lag = (
            f"{conv['lag_s'] * 1e3:.1f}ms"
            if conv.get("lag_s") is not None
            else "not observed"
        )
        print(
            f"{label:>12} {row.get('regime', regime):>7}: "
            f"updates {updates_['applied']} applied "
            f"{updates_['rejected']} rejected "
            f"(wire p99 {updates_['wire_latency_us']['p99']:.0f}us), "
            f"lookup p99 {row['lookup_during_churn_us']['p99']:.0f}us, "
            f"{row['rcu']['swap_rate_hz']:.1f} swaps/s, "
            f"convergence {lag}"
        )
    total_lookup_errors = sum(r["lookup"]["errors"] for r in rows)
    total_applied = sum(r["updates"]["applied"] for r in rows)
    if args.json:
        with open(args.json, "w") as stream_out:
            json.dump(result, stream_out, indent=2)
            stream_out.write("\n")
        print(f"wrote {args.json}")
    if total_lookup_errors or not total_applied:
        print(
            f"error: {total_lookup_errors} lookup errors, "
            f"{total_applied} updates applied",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Inspect or repair a route-update journal offline.

    Recovers the durable RIB exactly as ``serve --journal`` would,
    checks a Poptrie18 compile of it (unless ``--no-verify``) and prints
    what it found.  ``--output`` writes the recovered table;
    ``--compact`` folds the replayed tail into a fresh checkpoint and
    truncates the segments (repair after a crash, or routine journal
    maintenance).  Exits 1 on :class:`~repro.errors.JournalCorrupt`.
    """
    from repro.lookup import registry
    from repro.robust.journal import Journal, compile_recovered, recover

    result = recover(args.journal)
    verified = "" if args.no_verify else ", verified"
    widest, limit = result.rib.max_fib_index(), registry.get("Poptrie18").fib_limit
    if verified and widest > limit:  # a wider engine's journal, not a fault
        verified = f", not verified (next hop {widest} > Poptrie18's {limit})"
    elif verified:
        compile_recovered(result.rib, samples=args.samples)
    summary = result.describe()
    print(f"journal {args.journal}:")
    print(
        f"  checkpoint: seqno {summary['checkpoint_seqno']}"
        + (
            f" ({summary['checkpoint']})"
            if summary["checkpoint"]
            else " (none)"
        )
        + (
            f", {result.checkpoints_skipped} unreadable skipped"
            if result.checkpoints_skipped
            else ""
        )
    )
    print(
        f"  tail: {summary['segments']} segment(s), "
        f"{summary['replayed']} replayed, {summary['skipped']} skipped, "
        f"{summary['torn_bytes']} torn bytes discarded"
    )
    print(
        f"  state: {summary['routes']} routes at seqno "
        f"{summary['last_seqno']}"
        + verified
        + f" ({summary['duration_s'] * 1000:.1f} ms)"
    )
    for message in result.errors:
        print(f"  skipped: {message}", file=sys.stderr)
    if args.output:
        count = tableio.save_table(result.rib, args.output)
        print(f"wrote {count} routes to {args.output}")
    if args.compact:
        with Journal(args.journal) as journal:
            path = journal.checkpoint(result.rib)
        print(f"compacted into {path}")
    return 0


def cmd_replica(args: argparse.Namespace) -> int:
    """Run one cluster node: lookup server + WAL-shipping follow loop.

    Without ``--primary`` the node starts as a primary (accepting
    OP_UPDATE writes and publishing its journal); with it, the node
    follows that publisher and serves read-only lookups until promoted
    (``python -m repro promote``).
    """
    import asyncio

    from repro.cluster import Replica
    from repro.cluster.shard import _parse_endpoint

    primary = _parse_endpoint(args.primary) if args.primary else None
    table_path = _resolve_table(args)
    if table_path is not None:
        from repro.robust.journal import Journal

        seed_journal = Journal(args.journal)
        if seed_journal.last_seqno == 0 and seed_journal.checkpoint_seqno == 0:
            rib = tableio.load_table(table_path)
            seed_journal.checkpoint(rib)
            print(
                f"journal {args.journal}: fresh; seeded from {table_path} "
                f"({len(rib)} routes)"
            )
        seed_journal.close()
    node = Replica(
        args.journal,
        primary=primary,
        serve_host=args.host,
        serve_port=args.port,
        repl_host=args.host,
        repl_port=args.repl_port,
        checkpoint_every=args.checkpoint_every,
        name=args.name,
        quorum=_quorum_config(args),
    )

    async def _main() -> None:
        import signal

        (shost, sport), (rhost, rport) = await node.start()
        print(
            f"{node.role} {args.name}: serving on {shost}:{sport}, "
            f"replication on {rhost}:{rport} "
            f"(applied seqno {node.applied_seqno})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        main_task = asyncio.current_task()
        try:
            loop.add_signal_handler(signal.SIGTERM, main_task.cancel)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        await node.serve_forever()

    try:
        asyncio.run(_main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down", file=sys.stderr)
    return 0


def cmd_shardmap(args: argparse.Namespace) -> int:
    """Build a skew-aware shard map from a routing table.

    Cut points come from route-count quantiles, so shards carry equal
    route populations even when prefixes bunch (CRAM-style splitting);
    each ``--endpoints`` option assigns one shard's replica set, in
    shard order, as a comma-separated ``host:port`` list.
    """
    from repro.cluster.shard import build_shard_map, shard_balance

    rib = tableio.load_table(_resolve_table(args))
    endpoint_sets = None
    if args.endpoints:
        if len(args.endpoints) != args.shards:
            raise _UsageError(
                f"got {len(args.endpoints)} --endpoints options for "
                f"{args.shards} shards (pass one per shard, in order)"
            )
        endpoint_sets = [spec.split(",") for spec in args.endpoints]
    shard_map = build_shard_map(rib, args.shards, endpoint_sets=endpoint_sets)
    shard_map.save(args.output)
    balance = shard_balance(rib, shard_map)
    digits = shard_map.width // 4
    for position, shard in enumerate(shard_map.shards):
        endpoints = ",".join(shard.endpoints) or "(no endpoints)"
        print(
            f"shard {position}: {shard.low:#0{digits + 2}x}.."
            f"{shard.high:#0{digits + 2}x}  {balance[position]} routes  "
            f"{endpoints}"
        )
    print(f"wrote {len(shard_map)} shards to {args.output}")
    return 0


def cmd_promote(args: argparse.Namespace) -> int:
    """Health-checked failover: elect + promote the best survivor.

    Surveys the given replication endpoints for their applied sequence
    numbers, promotes the most advanced reachable node (stale nodes
    refuse), and retargets the other survivors at it.
    """
    import asyncio
    import json

    from repro.cluster.router import elect_and_promote
    from repro.errors import ClusterError

    try:
        summary = asyncio.run(
            elect_and_promote(args.replicas, timeout=args.timeout)
        )
    except ClusterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2))
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Failover monitor daemon: probe the primary, promote on loss.

    Prints one JSON event per line (state transitions, the election
    summary, the shard-map rewrite) — a machine-readable stream for
    supervisors and the chaos suite.  With ``--promote-on-failure`` the
    process exits 0 once a failover completes (restart it against the
    new primary); without it the monitor observes forever.
    """
    import asyncio
    import json

    from repro.cluster.router import FailoverMonitor
    from repro.errors import ClusterError

    def emit(event: dict) -> None:
        print(json.dumps(event), flush=True)

    monitor = FailoverMonitor(
        args.primary,
        args.replicas,
        probe_timeout=args.probe_timeout,
        misses_to_fail=args.misses_to_fail,
        interval_s=args.interval,
        promote=args.promote_on_failure,
        shard_map_path=args.shard_map,
        on_event=emit,
    )
    try:
        state = asyncio.run(monitor.run())
    except KeyboardInterrupt:
        print("monitor interrupted", file=sys.stderr)
        return 0
    except ClusterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0 if state == "failed_over" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Poptrie reproduction toolkit (SIGCOMM 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a routing table")
    p.add_argument("--dataset", help="a Table 1 dataset name (see DESIGN.md)")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--routes", type=int, default=10_000)
    p.add_argument("--nexthops", type=int, default=64)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--igp-fraction", type=float, default=0.0)
    p.add_argument("--ipv6", action="store_true",
                   help="generate an IPv6 table (2000::/8)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compile", help="compile a table to a FIB snapshot")
    _add_table_arg(p, help="text routing table to compile")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--s", type=int, default=18, help="direct-pointing bits")
    p.add_argument("--no-leafvec", action="store_true")
    p.add_argument("--leaf-bits", type=int, default=16, choices=(16, 32))
    p.add_argument("--aggregate", action="store_true",
                   help="apply route aggregation before compiling")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("lookup", help="look addresses up in a table/snapshot")
    _add_table_arg(p, required=False)
    p.add_argument("addresses", nargs="+")
    p.add_argument("--geoip", action="store_true",
                   help="no table: look up against a synthetic GeoIP "
                        "country-code table (the value-plane demo)")
    p.add_argument("--geoip-routes", type=int, default=20_000,
                   help="synthetic GeoIP table size (default 20000)")
    p.add_argument("--seed", type=int, default=1,
                   help="synthetic GeoIP table seed (default 1)")
    p.set_defaults(func=cmd_lookup)

    p = sub.add_parser(
        "verify", help="check structural/semantic invariants of a table or snapshot"
    )
    _add_table_arg(p, metavar="STRUCTURE",
                   help="compiled snapshot or text table")
    p.add_argument("--against", metavar="TABLE",
                   help="shadow table for semantic cross-checking")
    p.add_argument("--samples", type=int, default=1000,
                   help="random addresses to cross-check (default 1000)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("info", help="per-structure footprint report")
    _add_table_arg(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bench", help="quick batch-rate comparison")
    _add_table_arg(p, required=False)
    p.add_argument("--algorithm", action="append", metavar="NAME",
                   help="limit the roster to NAME (repeatable; default: "
                        "the paper's Figure 9 roster)")
    p.add_argument("--queries", type=int, default=100_000)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--seed", type=int, default=2463534242)
    p.add_argument("--metrics", action="store_true",
                   help="append a Prometheus-style metrics dump")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="measure shared-memory pool scaling at 1..N "
                        "workers instead of the roster comparison "
                        "(the real Figure 8)")
    p.add_argument("--kernel", action="store_true",
                   help="measure scalar vs branchless-kernel rates per "
                        "algorithm, in one process")
    p.add_argument("--build", nargs="*", metavar="TABLE",
                   help="time the scalar reference compile against "
                        "Poptrie.from_rib on TABLE and these tables, "
                        "in one process")
    p.add_argument("--geoip", action="store_true",
                   help="run the GeoIP value-plane scenario (synthetic "
                        "country-code table; raw vs aggregated builds)")
    p.add_argument("--geoip-routes", type=int, default=20_000,
                   help="with --geoip: synthetic table size (default 20000)")
    p.add_argument("--json", metavar="PATH",
                   help="with --workers, --kernel, --build or --geoip: "
                        "also write the results as JSON "
                        "(BENCH_multicore.json / BENCH_kernels.json / "
                        "BENCH_build.json / BENCH_geoip.json)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "stats",
        help="exercise every instrumented subsystem and dump the metrics",
    )
    _add_table_arg(p, required=False,
                   help="text table to use (default: a synthetic one)")
    p.add_argument("--routes", type=int, default=5_000,
                   help="synthetic table size when no table is given")
    p.add_argument("--queries", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--profile", action="store_true",
                   help="also cProfile the run and print the hot functions")
    p.add_argument("--profile-limit", type=int, default=15,
                   help="pstats rows to print with --profile")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="serve lookups over TCP with coalescing and hot swap",
    )
    _add_table_arg(p, required=False)
    _add_algorithm_arg(p)
    _add_endpoint_args(p, default_port=9000)
    p.add_argument("--max-batch", type=int, default=8192,
                   help="keys per coalesced lookup_batch call (default 8192)")
    p.add_argument("--max-wait-us", type=float, default=200.0,
                   help="coalescing window in microseconds (default 200)")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="serve batches from N shared-memory worker "
                        "processes (default 0 = in-process lookups)")
    p.add_argument("--journal", metavar="DIR",
                   help="recover startup state from this route-update "
                        "journal (fresh directory + --table seeds it)")
    p.add_argument("--repl-port", type=int, default=None, metavar="PORT",
                   help="with --journal: also publish the WAL to replicas "
                        "on this port (0 = ephemeral)")
    _add_quorum_args(p)
    p.add_argument("--metrics", action="store_true",
                   help="dump Prometheus metrics on shutdown")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a running lookup server with open-loop load",
    )
    _add_endpoint_args(p, default_port=9000)
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds of scheduled arrivals (default 2)")
    p.add_argument("--rate", type=float, default=2000.0,
                   help="target request arrivals per second (default 2000)")
    p.add_argument("--connections", type=int, default=4)
    p.add_argument("--batch", type=int, default=16,
                   help="keys per request (default 16)")
    p.add_argument("--schedule", choices=("poisson", "uniform"),
                   default="poisson")
    p.add_argument("--seed", type=int, default=2463534242)
    p.add_argument("--swap-mid-run", action="store_true",
                   help="send one OP_RELOAD halfway through (hot swap)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-attempt response timeout in seconds "
                        "(default 5; 0 disables)")
    p.add_argument("--deadline-us", type=int, default=0,
                   help="deadline budget stamped on every request "
                        "(default 0 = none; needs a v2 server)")
    p.add_argument("--retries", type=int, default=0,
                   help="retries per request after transport errors or "
                        "retryable statuses (default 0)")
    p.add_argument("--shard-map", metavar="PATH",
                   help="route requests through this shard map (see "
                        "'shardmap'); --host/--port are then ignored")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as JSON (e.g. BENCH_server.json)")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "churn",
        help="measure lookup latency and convergence under route churn",
    )
    _add_table_arg(p, required=False,
                   help="table the target server serves (makes withdrawals "
                        "target live routes; external mode only)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="drive this running 'serve --journal' endpoint; "
                        "omit to sweep registry engines in-process")
    p.add_argument("--engines", nargs="+", metavar="NAME",
                   help="registry engines for the in-process sweep "
                        "(default: Poptrie18 Poptrie16 SAIL DIR-24-8)")
    p.add_argument("--regime", choices=("steady", "bursty"), default=None,
                   help="arrival regime (default: steady externally, "
                        "both in the sweep)")
    p.add_argument("--updates", type=int, default=1024,
                   help="updates in the churn stream (default 1024)")
    p.add_argument("--update-rate", type=float, default=1500.0,
                   help="update arrivals per second (default 1500)")
    p.add_argument("--update-batch", type=int, default=16,
                   help="updates per OP_UPDATE wire batch (default 16)")
    p.add_argument("--burst-length", type=int, default=64,
                   help="updates per flap storm (bursty regime, default 64)")
    p.add_argument("--burst-idle", type=float, default=0.25,
                   help="idle seconds between storms (default 0.25)")
    p.add_argument("--lookup-rate", type=float, default=1200.0,
                   help="concurrent lookup requests per second (default 1200)")
    p.add_argument("--connections", type=int, default=2,
                   help="load-generator connections (default 2)")
    p.add_argument("--batch", type=int, default=16,
                   help="keys per lookup request (default 16)")
    p.add_argument("--seed", type=int, default=52)
    p.add_argument("--json", metavar="PATH",
                   help="also write the result as JSON (e.g. BENCH_churn.json)")
    p.set_defaults(func=cmd_churn)

    p = sub.add_parser(
        "replica",
        help="run one cluster node (primary or read replica)",
    )
    _add_table_arg(p, required=False,
                   help="seed table for a fresh primary journal")
    _add_endpoint_args(p, default_port=9000)
    p.add_argument("--journal", required=True, metavar="DIR",
                   help="this node's journal directory")
    p.add_argument("--primary", metavar="HOST:PORT",
                   help="replication endpoint to follow "
                        "(omit to start as primary)")
    p.add_argument("--repl-port", type=int, default=0, metavar="PORT",
                   help="replication channel port (default 0 = ephemeral)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="local checkpoint after this many applied records "
                        "(default 0 = never)")
    p.add_argument("--name", default="replica",
                   help="node name in logs/metrics (default 'replica')")
    _add_quorum_args(p)
    p.set_defaults(func=cmd_replica)

    p = sub.add_parser(
        "shardmap",
        help="build a skew-aware shard map from a routing table",
    )
    _add_table_arg(p)
    p.add_argument("--shards", type=int, required=True,
                   help="number of contiguous prefix-range shards")
    p.add_argument("--endpoints", action="append", metavar="H:P,H:P,...",
                   help="one shard's replica set (repeat once per shard, "
                        "in shard order)")
    p.add_argument("-o", "--output", required=True,
                   help="shard map JSON path")
    p.set_defaults(func=cmd_shardmap)

    p = sub.add_parser(
        "promote",
        help="elect and promote the most advanced surviving replica",
    )
    p.add_argument("replicas", nargs="+", metavar="HOST:PORT",
                   help="replication endpoints of the candidate replicas")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-endpoint survey timeout in seconds (default 5)")
    p.set_defaults(func=cmd_promote)

    p = sub.add_parser(
        "monitor",
        help="failover monitor daemon: probe the primary, promote on loss",
    )
    p.add_argument("--primary", required=True, metavar="HOST:PORT",
                   help="the primary's replication endpoint to probe")
    p.add_argument("--replica", action="append", required=True,
                   dest="replicas", metavar="HOST:PORT",
                   help="candidate replica replication endpoint (repeat "
                        "once per replica)")
    p.add_argument("--shard-map", metavar="PATH",
                   help="rewrite + atomically republish this shard map to "
                        "the survivors' serve endpoints after a promotion")
    p.add_argument("--promote-on-failure", action="store_true",
                   help="drive elect-and-promote when the primary goes "
                        "down (without this the monitor only observes)")
    p.add_argument("--interval", type=float, default=0.5, metavar="S",
                   help="seconds between probes (default 0.5)")
    p.add_argument("--probe-timeout", type=float, default=1.0, metavar="S",
                   help="per-probe timeout in seconds (default 1)")
    p.add_argument("--misses-to-fail", type=int, default=3, metavar="K",
                   help="consecutive failed probes before suspect becomes "
                        "down (default 3; this is the flap damping)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser(
        "recover",
        help="inspect or repair a route-update journal offline",
    )
    p.add_argument("journal", metavar="DIR",
                   help="journal directory (as in serve --journal)")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the recovered table (text format)")
    p.add_argument("--compact", action="store_true",
                   help="fold the tail into a fresh checkpoint and "
                        "truncate the segments")
    p.add_argument("--no-verify", action="store_true",
                   help="skip compiling Poptrie18 and checking it "
                        "against the recovered RIB")
    p.add_argument("--samples", type=int, default=500,
                   help="verification sample addresses (default 500)")
    p.set_defaults(func=cmd_recover)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — normal exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
