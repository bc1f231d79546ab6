"""Kill/restart chaos sweep over the journaling control plane.

A subprocess (``tests/_chaos_worker.py``) applies a long, pre-generated
route-update stream through :class:`~repro.server.pipeline.UpdatePipeline`
(the production write path: one group commit per message, then apply).  This test repeatedly crashes it
mid-stream — by SIGKILL at a random instant, and by
:class:`~repro.robust.faults.FaultPlan` faults armed exactly at the
journal-append, fsync, torn-write and checkpoint sites — then restarts
it.  Each restart recovers from the journal and resumes at the durable
sequence number (the stream position).  After at least five crashes the
worker runs to completion, and the recovered table must be
fingerprint-identical to an oracle that applied the same stream
in-process without ever crashing: same route set, byte-identical
serialized Poptrie, clean structural verification.

A final end-to-end check boots ``python -m repro serve --journal`` on
the chaos-surviving journal directory and confirms lookups over the
wire match the oracle.
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import time

import pytest

from repro.core.poptrie import Poptrie
from repro.parallel.image import structure_to_bytes
from repro.data.updates import generate_update_stream
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.robust.journal import Journal, encode_update, recover
from repro.robust.txn import TransactionalPoptrie
from repro.server import protocol

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(TESTS_DIR)
WORKER = os.path.join(TESTS_DIR, "_chaos_worker.py")

#: The update stream is long enough that five kill-limited or
#: fault-limited partial runs cannot drain it (each advances at most a
#: few hundred updates), so every crash is genuinely mid-stream.
STREAM_LEN = 2000
CHECKPOINT_EVERY = 50
REQUIRED_CRASHES = 5
MAX_SWEEPS = 40

#: Per-restart fault rotation.  The empty plans crash by parent SIGKILL
#: at a random instant (possibly mid-commit, leaving a torn tail); the
#: others die deterministically at a specific durability site.
FAULT_ROTATION = [
    [],
    ["--torn-journal-at", "45"],
    ["--journal-fail-at", "60"],
    [],
    ["--fsync-fail-at", "35"],
    ["--checkpoint-fail-at", "1"],
]


def base_rib(n_routes: int = 260, seed: int = 1234) -> Rib:
    """A deterministic starting table; called twice for independent copies."""
    rng = random.Random(seed)
    rib = Rib()
    rib.insert(Prefix.parse("0.0.0.0/0"), 9)
    seen = {(0, 0)}
    while len(rib) < n_routes:
        length = rng.randint(8, 28)
        value = rng.getrandbits(32) & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF)
        if (value, length) in seen:
            continue
        seen.add((value, length))
        rib.insert(Prefix(value, length), rng.randint(1, 63))
    return rib


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_DIR, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Run the full chaos sweep once; the tests below assert on its outcome."""
    root = tmp_path_factory.mktemp("chaos")
    jdir = str(root / "wal")
    marker = str(root / "DONE")
    updates_file = str(root / "updates.bin")

    updates = generate_update_stream(base_rib(), count=STREAM_LEN, seed=77)
    with open(updates_file, "wb") as stream:
        stream.write(b"".join(encode_update(u) for u in updates))

    # The oracle applies the identical stream in-process, crash-free.
    oracle = TransactionalPoptrie(rib=base_rib())
    report = oracle.apply_stream(updates)
    assert report.rejected == 0 and report.applied == STREAM_LEN

    # Seed the journal with the starting table as checkpoint zero.
    os.mkdir(jdir)
    with Journal(jdir) as journal:
        journal.checkpoint(base_rib())

    def spawn(extra, throttle_us):
        argv = [
            sys.executable, WORKER, jdir, updates_file,
            "--checkpoint-every", str(CHECKPOINT_EVERY),
            "--throttle-us", str(throttle_us),
            "--done-marker", marker,
            *extra,
        ]
        return subprocess.Popen(
            argv, cwd=REPO_DIR, env=subprocess_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )

    rng = random.Random(99)
    crashes = []
    sweeps = 0
    while len(crashes) < REQUIRED_CRASHES and sweeps < MAX_SWEEPS:
        fault = FAULT_ROTATION[sweeps % len(FAULT_ROTATION)]
        sweeps += 1
        proc = spawn(fault, throttle_us=2500)
        deadline = time.monotonic() + rng.uniform(0.7, 1.2)
        while time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.02)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            crashes.append(("SIGKILL", fault))
        elif proc.returncode != 0:
            crashes.append((f"exit {proc.returncode}", fault))
        else:
            # Finished the whole stream early — should not happen while
            # the stream is this long; treated as a sweep that made
            # progress without crashing.
            pass
        proc.stderr.close()

    # Let the survivor finish the stream at full speed, fault-free.
    proc = spawn([], throttle_us=0)
    _, stderr = proc.communicate(timeout=180)
    assert proc.returncode == 0, stderr.decode()

    return {
        "jdir": jdir,
        "marker": marker,
        "updates": updates,
        "oracle": oracle,
        "crashes": crashes,
        "sweeps": sweeps,
    }


class TestChaosSweep:
    def test_enough_mid_stream_crashes(self, sweep):
        assert len(sweep["crashes"]) >= REQUIRED_CRASHES, sweep["crashes"]
        # The rotation must actually have exercised both crash flavours:
        # parent SIGKILLs and injected durability faults.
        kinds = {kind for kind, _ in sweep["crashes"]}
        assert any(kind == "SIGKILL" for kind in kinds) or any(
            kind.startswith("exit") for kind in kinds
        )

    def test_stream_fully_journaled_exactly_once(self, sweep):
        with open(sweep["marker"]) as stream:
            final_seqno = int(stream.read().strip())
        assert final_seqno == len(sweep["updates"])
        result = recover(sweep["jdir"])
        assert result.last_seqno == len(sweep["updates"])

    def test_recovered_fingerprint_matches_oracle(self, sweep):
        # recover() verifies the replayed structure against its RIB
        # (verify=True default) — a dirty table raises before we compare.
        result = recover(sweep["jdir"])
        oracle = sweep["oracle"]

        def route_set(rib):
            return {(p.value, p.length, p.width, hop) for p, hop in rib.routes()}

        assert route_set(result.rib) == route_set(oracle.rib)
        # Byte-identical serialized form of fresh compiles of both RIBs:
        # the strongest equality the format offers.
        assert structure_to_bytes(Poptrie.from_rib(result.rib)) == structure_to_bytes(
            Poptrie.from_rib(oracle.rib)
        )

    def test_replay_is_idempotent_after_chaos(self, sweep):
        first = recover(sweep["jdir"])
        second = recover(sweep["jdir"])
        assert structure_to_bytes(Poptrie.from_rib(first.rib)) == structure_to_bytes(
            Poptrie.from_rib(second.rib)
        )


class TestServeFromChaosJournal:
    def test_serve_boots_and_answers_from_recovered_state(self, sweep):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--journal", sweep["jdir"],
                "--host", "127.0.0.1", "--port", "0",
            ],
            cwd=REPO_DIR, env=subprocess_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            port = None
            for _ in range(50):
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving"):
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port, proc.stderr.read()

            oracle = sweep["oracle"]
            rng = random.Random(4242)
            keys = [p.value for p, _ in oracle.rib.routes()][:48]
            keys += [rng.getrandbits(32) for _ in range(16)]
            expected = [oracle.lookup(key) for key in keys]

            async def query():
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(protocol.frame_bytes(
                        protocol.encode_request(protocol.OP_LOOKUP4, 1, keys)
                    ))
                    await writer.drain()
                    payload = await asyncio.wait_for(
                        protocol.read_frame(reader), timeout=30
                    )
                finally:
                    writer.close()
                return protocol.decode_response(payload)

            response = asyncio.run(query())
            assert response.status == protocol.STATUS_OK
            assert list(response.results) == expected
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
