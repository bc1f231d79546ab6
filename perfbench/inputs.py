"""Seeded input generation for the two workloads.

The routing tables are synthesised at full size with a seed derived from
the dataset name, as :mod:`repro.data.datasets` does, so every run sees
the same tables; generating one takes ~15 s of pure Python, so each is
made once per checkout and cached under ``.perfbench_cache/``.
Everything else a run feeds the program — the lookup keys and their
arrival schedule, the update stream — is derived from the run's
``--seed``, and so is every expected answer the run checks against: the
scalar longest-prefix match of a ``Rib`` is the oracle.  Those are
cached per seed too, and made in a child process
(``python3 perfbench/inputs.py WORKLOAD SEED SECONDS``), which keeps the
generator's memory out of the measured process.
"""

from __future__ import annotations

import hashlib
import os
import sys
import zlib

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".perfbench_cache")

#: Table shapes (Table 1 row; §4.10 for IPv6): prefixes and next hops.
TABLES = {
    "p46": ("RV-linx-p46", 518231, 308),
    "v6": ("REAL-Tier1-A-v6", 20440, 13),
}

#: Every workload runs its phases in this many rounds, one after the
#: other, and each metric pools or takes the median over all rounds.
#: The machine's speed drifts in spells of seconds; a metric sampled
#: across the whole run does not hang on one spell.
ROUNDS = 4

#: Keys per open-loop lookup request and per closed-loop request.
OPEN_KEYS = 16
CLOSED_KEYS = 64
#: Distinct pre-encoded closed-loop requests, cycled.
CLOSED_REQUESTS = 256
#: Open-loop lookup rate (requests/s).  2,000 req/s is ~20 % of the
#: ~10k req/s knee of ``serve`` on a 2-core machine: headroom for the
#: host taking a CPU away without the queue, and the latency, exploding.
SERVED_RATE = 2000.0
#: Steady update messages over all rounds, and updates per message.
UPDATE_MESSAGES = 200
UPDATES_PER_MESSAGE = 1
#: The burst closing each round: a BGP session reset, split over the
#: rounds (8 messages of 32 updates in all).
BURST_MESSAGES = 2
BURST_UPDATES = 32
STREAM_LENGTH = ROUNDS * (
    UPDATE_MESSAGES // ROUNDS * UPDATES_PER_MESSAGE + BURST_MESSAGES * BURST_UPDATES
)
#: Random probe keys checked after the stream, besides one host inside
#: every prefix the stream touched.
PROBE_RANDOM = 2048

#: Share of ``--seconds`` each timed phase gets, over all rounds.
SERVED_OPEN_SHARE = 0.3
CLOSED_SHARE = 0.3
BULK_V4_SHARE = 0.5
BULK_V6_SHARE = 0.05


def table_path(table: str) -> str:
    return os.path.join(CACHE, f"{table}.img")


def inputs_path(workload: str, seed: int, seconds: int) -> str:
    """Per-seed inputs, keyed also by this file's contents, so a change
    to how inputs are made never reuses stale ones."""
    with open(os.path.abspath(__file__), "rb") as stream:
        version = hashlib.sha256(stream.read()).hexdigest()[:12]
    return os.path.join(CACHE, f"{workload}-{seed}-{seconds}-{version}.npz")


def ensure_table(table: str) -> str:
    """The table's image path, synthesising the table on first use."""
    path = table_path(table)
    if os.path.exists(path):
        return path
    from repro.data import synth, tableio

    name, prefixes, nexthops = TABLES[table]
    seed = zlib.crc32(name.encode()) or 1
    if table == "v6":
        rib, _ = synth.generate_table_v6(prefixes, nexthops, seed=seed)
    else:
        rib, _ = synth.generate_table(prefixes, nexthops, seed=seed)
    tmp = f"{path}.{os.getpid()}.tmp"
    tableio.save_table_image(rib, tmp)
    os.replace(tmp, path)
    return path


def load_rib(table: str):
    """The table as a ``Rib``, made on first use."""
    from repro.data import tableio

    return tableio.load_table(ensure_table(table))


def oracle(rib, keys: np.ndarray) -> np.ndarray:
    """Scalar longest-prefix match of every key (the reference answers)."""
    unique, inverse = np.unique(keys, return_inverse=True)
    answers = np.fromiter((rib.lookup(int(k)) for k in unique), np.uint32, len(unique))
    return answers[inverse].reshape(keys.shape)


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets of a Poisson process at ``rate`` over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def round_offsets(rng: np.random.Generator, rate: float, seconds: float) -> tuple:
    """Poisson arrivals at ``rate`` in each of the rounds, each round
    lasting ``seconds``: the offsets from their round's start, and each
    arrival's round."""
    offsets = [poisson_offsets(rng, rate, seconds) for _ in range(ROUNDS)]
    rounds = [np.full(len(o), r, np.uint8) for r, o in enumerate(offsets)]
    return np.concatenate(offsets), np.concatenate(rounds)


def covered(keys: np.ndarray, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mask of the keys that fall inside any of the given IPv4 prefixes."""
    mask = np.zeros(len(keys), bool)
    for length in np.unique(lengths):
        shift = np.uint64(32 - int(length))
        nets = values[lengths == length] >> shift
        mask |= np.isin(keys >> shift, nets)
    return mask


def _stream(rib, seed: int):
    """The update stream, and its arrays plus the probe keys."""
    from repro.data.updates import generate_stream

    stream = generate_stream(rib, count=STREAM_LENGTH, seed=seed)
    rng = np.random.default_rng(seed ^ 0x5EED)
    hosts = [
        u.prefix.value | int(rng.integers(0, 1 << (32 - u.prefix.length)))
        for u in stream
    ]
    probe = np.concatenate([
        np.asarray(hosts, np.uint64),
        rng.integers(0, 1 << 32, PROBE_RANDOM, dtype=np.uint64),
    ])
    arrays = {
        "stream_kind": np.array([u.kind == "W" for u in stream], np.uint8),
        "stream_value": np.array([u.prefix.value for u in stream], np.uint64),
        "stream_length": np.array([u.prefix.length for u in stream], np.uint8),
        "stream_nexthop": np.array([u.nexthop for u in stream], np.uint32),
        "probe_keys": probe,
    }
    return stream, arrays


def _apply(rib, stream) -> None:
    for update in stream:
        if update.kind == "A":
            rib.insert(update.prefix, update.nexthop)
        else:
            rib.delete(update.prefix)


def messages(stream) -> list:
    """The stream cut into rounds, in stream order (a withdrawal may
    need an earlier announcement): per round, its steady messages and
    then its burst messages."""
    per, steady = UPDATES_PER_MESSAGE, UPDATE_MESSAGES // ROUNDS
    rounds, at = [], 0
    for _ in range(ROUNDS):
        cut = []
        for size, count in ((per, steady), (BURST_UPDATES, BURST_MESSAGES)):
            cut.append([stream[at + i * size:at + (i + 1) * size] for i in range(count)])
            at += size * count
        rounds.append(tuple(cut))
    assert at == len(stream) == STREAM_LENGTH
    return rounds


def prepare_served(seed: int, seconds: int) -> dict:
    """The update stream, the open-loop lookups and their schedule, the
    closed-loop requests, the probe keys, and the oracle answers to all
    of them.

    Lookup keys avoid every prefix the stream touches, so their answers
    are the same before, between and after the rounds' updates.
    """
    from repro.data.traffic import real_trace

    rng = np.random.default_rng(seed)
    offsets, rounds = round_offsets(rng, SERVED_RATE, seconds * SERVED_OPEN_SHARE / ROUNDS)
    rib = load_rib("p46")
    stream, out = _stream(rib, seed)
    avoid = (out["stream_value"], out["stream_length"])
    need = len(offsets) * OPEN_KEYS
    keys = real_trace(rib, need * 3 // 2 + 64, seed=seed)
    keys = keys[~covered(keys, *avoid)]
    if len(keys) < need:
        raise RuntimeError(f"seed {seed}: too few keys outside the churned prefixes")
    keys = keys[:need].reshape(len(offsets), OPEN_KEYS)
    closed = real_trace(rib, CLOSED_REQUESTS * CLOSED_KEYS, seed=seed ^ 0xC105ED)
    closed = closed.reshape(CLOSED_REQUESTS, CLOSED_KEYS)
    closed = closed[~covered(closed.ravel(), *avoid).reshape(closed.shape).any(axis=1)]
    _apply(rib, stream)
    out.update({
        "open_offsets": offsets,
        "open_round": rounds,
        "open_keys": keys,
        "open_expected": oracle(rib, keys),
        "closed_keys": closed,
        "closed_expected": oracle(rib, closed),
        "probe_expected": oracle(rib, out["probe_keys"]),
    })
    return out


def prepare_bulk(seed: int, seconds: int) -> dict:
    rib = load_rib("p46")
    ensure_table("v6")
    stream, out = _stream(rib, seed)
    _apply(rib, stream)
    out["probe_expected"] = oracle(rib, out["probe_keys"])
    return out


PREPARE = {
    "served-lookup": prepare_served,
    "bulk-lookup": prepare_bulk,
}


def ensure(workload: str, seed: int, seconds: int, env: dict) -> dict:
    """The workload's inputs, made in a child process when not cached."""
    import subprocess

    path = inputs_path(workload, seed, seconds)
    if not os.path.exists(path):
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), workload, str(seed), str(seconds)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def main(argv) -> int:
    workload, seed, seconds = argv[0], int(argv[1]), int(argv[2])
    os.makedirs(CACHE, exist_ok=True)
    arrays = PREPARE[workload](seed, seconds)
    path = inputs_path(workload, seed, seconds)
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    np.savez(tmp, **arrays)
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
