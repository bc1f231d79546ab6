"""Compile-vs-oracle measurement: the ``BENCH_build.json`` numbers.

One RIB, one Poptrie configuration, two compiles timed against each
other in one process:

- **scalar** — :func:`repro.core.poptrie.build_scalar`, one TmpNode tree
  per subtree placed by the ``Serializer`` (the oracle);
- **compile** — :meth:`repro.core.poptrie.Poptrie.from_rib`, level by
  level in numpy (:mod:`repro.core.compiler`).

Both run interleaved, min of N, because cross-process comparisons on
shared machines wobble.  Each row also carries a digest of everything
either compile decides, and the process's peak resident set
(``VmHWM``) just before and just after the first compile: a compile
whose temporaries outgrow what loading the table took raises it.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, Optional

from repro.core.poptrie import Poptrie, PoptrieConfig, build_scalar
from repro.mem.buddy import allocator_state


#: The arrays a compile fills, each compared with its type and length.
ARRAYS = ("vec", "lvec", "base0", "base1", "leaves", "direct")


def trie_state(trie: Poptrie) -> Dict[str, object]:
    """Everything a compile decides: the six arrays with their lengths,
    both allocators' states, the root, the node and leaf counts and the
    memory map (its regions, the next free base and the two the trie
    holds)."""
    state: Dict[str, object] = {
        name: (column.typecode, len(column), column.tobytes())
        for name, column in ((name, getattr(trie, name)) for name in ARRAYS)
    }
    state.update(
        node_alloc=allocator_state(trie.node_alloc),
        leaf_alloc=allocator_state(trie.leaf_alloc),
        root_index=trie.root_index,
        counts=(trie.inode_count, trie.leaf_count),
        memmap=(
            sorted(
                (name, region.base, region.element_size, region.length)
                for name, region in trie.memmap.regions.items()
            ),
            trie.memmap._next,
        ),
        regions=(trie._node_region, trie._leaf_region),
    )
    return state


def trie_digest(trie: Poptrie) -> str:
    """sha256 over :func:`trie_state`."""
    digest = hashlib.sha256()
    for name, value in trie_state(trie).items():
        digest.update(f"{name}:".encode())
        if name in ARRAYS:
            typecode, length, data = value
            digest.update(f"{typecode}:{length}:".encode())
            digest.update(data)
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


def peak_rss_mib() -> Optional[float]:
    """This process's ``VmHWM`` in MiB, to 0.1 (``None`` where /proc has
    none)."""
    try:
        with open("/proc/self/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None


def _timed(fn: Callable[[], Poptrie]):
    start = time.perf_counter()
    trie = fn()
    return time.perf_counter() - start, trie


def build_comparison(rib, config: PoptrieConfig, *, repeats: int = 3) -> Dict[str, object]:
    """Time both compiles of ``rib`` under ``config``; one row."""
    hwm_before = peak_rss_mib()
    first, trie = _timed(lambda: Poptrie.from_rib(rib, config))
    hwm_after = peak_rss_mib()
    compile_sha = trie_digest(trie)
    scalar_sha = None
    compile_times, scalar_times = [first], []
    for _ in range(repeats):
        trie = None  # free the last build before the next
        elapsed, trie = _timed(lambda: build_scalar(rib, config))
        scalar_times.append(elapsed)
        scalar_sha = scalar_sha or trie_digest(trie)
        trie = None
        elapsed, trie = _timed(lambda: Poptrie.from_rib(rib, config))
        compile_times.append(elapsed)
    scalar_s, compile_s = min(scalar_times), min(compile_times)
    return {
        "routes": len(rib),
        "width": rib.width,
        "k": config.k,
        "s": config.s,
        "use_leafvec": config.use_leafvec,
        "inodes": trie.inode_count,
        "leaves": trie.leaf_count,
        "scalar_s": round(scalar_s, 4),
        "compile_s": round(compile_s, 4),
        "speedup": round(scalar_s / compile_s, 2),
        "scalar_sha256": scalar_sha,
        "compile_sha256": compile_sha,
        "identical": scalar_sha == compile_sha,
        "vmhwm_before_mib": hwm_before,
        "vmhwm_after_mib": hwm_after,
    }
