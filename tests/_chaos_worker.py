"""Subprocess body for the chaos test: apply a journaled update stream.

Run as ``python tests/_chaos_worker.py JOURNAL_DIR UPDATES_FILE [options]``
with ``repro`` importable.  The worker

1. recovers the durable state from ``JOURNAL_DIR`` (newest checkpoint +
   replayed tail),
2. resumes the update stream *from that point* — every valid update is
   journaled exactly once in order, so the durable sequence number
   doubles as the stream position,
3. sends it through :class:`~repro.server.pipeline.UpdatePipeline`, the
   production write path, in messages of :data:`MESSAGE` updates (one
   group commit each, journal-then-publish), checkpointing once
   ``--checkpoint-every`` records follow the last checkpoint, and
4. writes ``--done-marker`` (the final sequence number) after the last
   message is durable.

The parent test SIGKILLs this process at random instants and restarts
it; ``--*-fail-at`` options additionally arm a
:class:`~repro.robust.faults.FaultPlan` so some "crashes" happen exactly
at a journal append, fsync, torn write or checkpoint.  A valid stream
meets refusals only from those armed faults, so a refused message, like
an injected fault, exits via ``os._exit(7)`` — no cleanup, like the
SIGKILL it stands in for.

``UPDATES_FILE`` is a flat concatenation of fixed-size journal record
payloads (:func:`repro.robust.journal.encode_update`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

#: Updates per pipeline message.
MESSAGE = 4


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("journal")
    parser.add_argument("updates")
    parser.add_argument("--checkpoint-every", type=int, default=200)
    parser.add_argument("--throttle-us", type=int, default=0,
                        help="sleep per update, to give the parent time "
                             "to kill the process mid-stream")
    parser.add_argument("--done-marker", default=None)
    parser.add_argument("--journal-fail-at", type=int, default=None)
    parser.add_argument("--fsync-fail-at", type=int, default=None)
    parser.add_argument("--checkpoint-fail-at", type=int, default=None)
    parser.add_argument("--torn-journal-at", type=int, default=None)
    return parser.parse_args(argv)


def load_updates(path):
    from repro.robust.journal import decode_update

    with open(path, "rb") as stream:
        blob = stream.read()
    size = 24  # fixed payload size of the journal record format
    assert len(blob) % size == 0, "updates file is not whole records"
    return [
        decode_update(blob[offset:offset + size])
        for offset in range(0, len(blob), size)
    ]


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])

    from repro.errors import InjectedFault
    from repro.robust.faults import FaultPlan
    from repro.robust.journal import Journal, recover
    from repro.server import TableHandle, UpdatePipeline

    updates = load_updates(args.updates)
    result = recover(args.journal, verify=False)
    start = result.last_seqno  # stream position == durable seqno
    txn = result.trie
    journal = Journal(args.journal)
    pipeline = UpdatePipeline(
        txn, journal, TableHandle(txn.trie),
        checkpoint_every=args.checkpoint_every,
    )

    plan = FaultPlan(
        journal_fail_at=args.journal_fail_at,
        fsync_fail_at=args.fsync_fail_at,
        checkpoint_fail_at=args.checkpoint_fail_at,
        torn_journal_at=args.torn_journal_at,
    )
    throttle = args.throttle_us / 1e6
    try:
        with plan:
            for begin in range(start, len(updates), MESSAGE):
                message = updates[begin:begin + MESSAGE]
                if pipeline.apply(message).rejected:
                    os._exit(7)
                if throttle:
                    time.sleep(throttle * len(message))
    except InjectedFault:
        # The injected crash: die on the spot, no cleanup, no flush —
        # exactly what the SIGKILL variant of this test does.
        os._exit(7)
    journal.close()
    if args.done_marker:
        with open(args.done_marker, "w") as stream:
            stream.write(f"{journal.last_seqno}\n")
    print(f"done at seqno {journal.last_seqno}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
