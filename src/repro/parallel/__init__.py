"""Shared-memory multicore data plane behind the zero-copy image API.

Two layers (see docs/PARALLEL.md for the full story):

- :mod:`repro.parallel.image` — :class:`TableImage`, the versioned,
  checksummed, zero-copy export of a lookup structure's backing arrays,
  and the persistence functions (:func:`save_structure` /
  :func:`load_structure`).
- :mod:`repro.parallel.pool` — :class:`WorkerPool`, which places an
  image in ``multiprocessing.shared_memory``, attaches N worker
  processes without copying, shards batches across them with ordered
  reassembly, survives ``SIGKILL``-ed workers, and hot-swaps new table
  generations RCU-style (:meth:`WorkerPool.publish`).
"""

from repro.parallel.image import (
    TableImage,
    image_to_structure,
    load_structure,
    save_structure,
    structure_from_bytes,
    structure_to_bytes,
)
from repro.parallel.pool import PoolConfig, PoolView, WorkerPool

__all__ = [
    "TableImage",
    "WorkerPool",
    "PoolConfig",
    "PoolView",
    "image_to_structure",
    "load_structure",
    "save_structure",
    "structure_from_bytes",
    "structure_to_bytes",
]
