"""The route-lookup service: serve any registered algorithm over TCP.

This package ties the library's read-side ingredients — numpy batch
engines, publication-safe updates, metrics — into a running service:

- :mod:`repro.server.protocol` — the length-prefixed binary wire
  protocol (pipelined requests, batched keys, status codes).
- :mod:`repro.server.handle` — :class:`TableHandle`, the RCU-style
  atomic reference readers pin per batch and writers hot-swap with
  epoch-drained publication; route updates never fail a reader.
- :mod:`repro.server.service` — :class:`LookupServer`, the asyncio
  server that coalesces concurrent in-flight requests into one
  ``lookup_batch`` call per event-loop tick (the paper's Section 2
  batching/latency trade-off as a knob: ``max_batch``/``max_wait_us``).
- :mod:`repro.server.pipeline` — :class:`UpdatePipeline`, the one
  OP_UPDATE write path (check, stage, journal + one fsync, publish).
- :mod:`repro.server.loadgen` — :class:`LoadGenerator`, an open-loop
  async client with Poisson/uniform arrival schedules and latency
  percentiles.

Quick start (see docs/SERVER.md for the protocol and knobs)::

    python -m repro generate --routes 20000 -o rib.txt
    python -m repro serve --table rib.txt --algorithm Poptrie18 --port 9000
    python -m repro loadgen --port 9000 --duration 2 --rate 2000

or in-process::

    from repro.server import LookupServer, TableHandle, LoadGenerator

    handle = TableHandle(structure)
    server = LookupServer(handle)
    host, port = await server.start()
    ...
    await handle.swap_async(new_structure)   # hot swap under load
"""

from repro.server import protocol
from repro.server.handle import TableHandle, TableVersion
from repro.server.loadgen import LoadGenConfig, LoadGenerator, LoadReport
from repro.server.pipeline import UpdatePipeline, UpdateReport
from repro.server.service import LookupServer, ServerConfig, ServerStats

__all__ = [
    "LookupServer",
    "ServerConfig",
    "ServerStats",
    "TableHandle",
    "TableVersion",
    "UpdatePipeline",
    "UpdateReport",
    "LoadGenerator",
    "LoadGenConfig",
    "LoadReport",
    "protocol",
]
