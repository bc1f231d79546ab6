"""BGP update-stream synthesis and replay (Section 4.9).

The paper replays one hour of RouteViews update archives for RV-linx-p52:
23,446 route updates — 18,141 announcements and 5,305 withdrawals — in
7,824 messages.  This module synthesises a stream with the same mix
against any dataset: withdrawals remove existing routes, announcements
either add new prefixes (drawn from the same length mix as the table) or
re-announce existing prefixes with a different next hop, which is what
most BGP churn looks like.

Stream generation is configured through the frozen :class:`UpdateStream`
dataclass (same convention as the registry's ``StructureConfig``: typed
fields, ``resolve()`` merging, ``TypeError`` on unknown keys).  Besides
the composition knobs it carries an *arrival regime* — ``"steady"``
(Poisson arrivals at ``rate``) or ``"bursty"`` (back-to-back flap storms
separated by idle gaps) — which :func:`arrival_offsets` turns into a
deterministic wall-clock schedule for the churn harness.

:func:`check_update` is the one test of whether an update may be
applied; every engine and the update pipeline call it (through
:func:`check_message` for a whole message) before the journal or any
table sees the update.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import UpdateRejectedError
from repro.lookup.base import StructureConfig
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE

#: The published stream composition.
PAPER_UPDATE_COUNT = 23446
PAPER_ANNOUNCE_FRACTION = 18141 / 23446

#: Arrival regimes understood by :func:`arrival_offsets`.
STREAM_REGIMES = ("steady", "bursty")


@dataclass(frozen=True)
class UpdateStream(StructureConfig):
    """Typed, frozen configuration of one synthetic update stream.

    Replaces the ad-hoc keyword surface of the original
    ``generate_update_stream`` signature; unknown keys raise
    ``TypeError`` through :meth:`StructureConfig.resolve`, exactly like
    a structure build config.

    Composition knobs (``count``, ``seed``, ``announce_fraction``,
    ``max_nexthop``, ``churn_depth_bias``) select *which* updates are
    generated; the regime knobs (``regime``, ``rate``, ``burst_length``,
    ``burst_idle_s``) select *when* they arrive (see
    :func:`arrival_offsets`).
    """

    #: Updates in the stream (the paper's replay is 23,446).
    count: int = PAPER_UPDATE_COUNT
    seed: int = 52
    #: Fraction of announce messages (the rest withdraw); the paper's
    #: replay is 18,141 / 23,446 ≈ 77 %.
    announce_fraction: float = PAPER_ANNOUNCE_FRACTION
    #: Largest next-hop index announcements may use (None = the table's
    #: current maximum).
    max_nexthop: Optional[int] = None
    #: Acceptance probability for short (≤ /18) prefixes when a live
    #: route must be chosen; 1.0 disables the long-prefix bias.
    churn_depth_bias: float = 0.12
    #: ``"steady"`` — Poisson arrivals at ``rate`` — or ``"bursty"`` —
    #: flap storms of ``burst_length`` back-to-back updates at ``rate``,
    #: separated by ``burst_idle_s`` of silence.
    regime: str = "steady"
    #: Target update arrivals per second (within a burst, for bursty).
    rate: float = 1000.0
    #: Updates per burst (bursty regime only).
    burst_length: int = 64
    #: Idle seconds between bursts (bursty regime only).
    burst_idle_s: float = 0.25

    def __post_init__(self) -> None:
        if self.regime not in STREAM_REGIMES:
            raise ValueError(
                f"unknown regime {self.regime!r} "
                f"(expected one of {STREAM_REGIMES})"
            )
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if not 0.0 <= self.announce_fraction <= 1.0:
            raise ValueError(
                f"announce_fraction must be in [0, 1], "
                f"got {self.announce_fraction}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst_length < 1:
            raise ValueError(
                f"burst_length must be >= 1, got {self.burst_length}"
            )
        if self.burst_idle_s < 0:
            raise ValueError(
                f"burst_idle_s must be >= 0, got {self.burst_idle_s}"
            )

    def duration_estimate(self) -> float:
        """Expected seconds the schedule spans (mean, not a bound)."""
        if self.count == 0:
            return 0.0
        if self.regime == "bursty":
            bursts = (self.count + self.burst_length - 1) // self.burst_length
            return (
                self.count / self.rate
                + max(0, bursts - 1) * self.burst_idle_s
            )
        return self.count / self.rate


@dataclass(frozen=True)
class Update:
    """One route update: ``kind`` is "A" (announce) or "W" (withdraw)."""

    kind: str
    prefix: Prefix
    nexthop: int = 0


@dataclass
class StreamReport:
    """What happened to each update of a message or stream."""

    applied: int = 0
    degraded: int = 0
    rejected: int = 0
    errors: List[Tuple[int, str]] = field(default_factory=list)

    def refuse(self, position: int, error: BaseException) -> None:
        """Record update ``position`` (1-based) as rejected by ``error``."""
        self.rejected += 1
        self.errors.append((position, f"{type(error).__name__}: {error}"))


def check_update(
    update: Update, rib: Rib, fib_limit: int, routed: Optional[Dict] = None
) -> None:
    """The one check an update passes before any state is touched.

    Raises :class:`~repro.errors.UpdateRejectedError` for an unknown
    kind, a non-:class:`Prefix` payload or one not ``rib.width`` wide, a
    next hop that is not an integer in ``1..fib_limit`` (the target's
    largest encodable index), or a withdraw of an unrouted prefix.
    ``routed`` (prefix -> routed after the message's earlier updates)
    overrides the RIB, so a message checks as one-at-a-time replay.
    """
    kind, prefix = update.kind, update.prefix
    if kind not in ("A", "W"):
        raise UpdateRejectedError(f"unknown update kind {kind!r}")
    if not isinstance(prefix, Prefix):
        raise UpdateRejectedError(f"not a prefix: {prefix!r}")
    if prefix.width != rib.width:
        raise UpdateRejectedError(
            f"prefix width {prefix.width} does not match "
            f"RIB width {rib.width}"
        )
    if kind == "A":
        nexthop = update.nexthop
        if type(nexthop) is not int or not NO_ROUTE < nexthop <= fib_limit:
            raise UpdateRejectedError(
                f"next-hop index {nexthop!r} outside 1..{fib_limit}"
            )
        return
    held = routed.get(prefix) if routed else None
    if not (rib.get(prefix) != NO_ROUTE if held is None else held):
        raise UpdateRejectedError(
            f"cannot withdraw {prefix.text}: not in the RIB"
        )


def check_message(
    updates: Iterable[Update], rib: Rib, fib_limit: int, report: StreamReport
) -> Tuple[List[Update], List[int]]:
    """Run :func:`check_update` over a message in order, against ``rib``
    plus the message's own earlier accepted updates.  Each refusal goes
    into ``report`` at its 1-based position; returns the accepted
    updates and their positions."""
    routed: Dict = {}
    accepted: List[Update] = []
    positions: List[int] = []
    for position, update in enumerate(updates, 1):
        try:
            check_update(update, rib, fib_limit, routed)
        except UpdateRejectedError as error:
            report.refuse(position, error)
            continue
        routed[update.prefix] = update.kind == "A"
        accepted.append(update)
        positions.append(position)
    return accepted, positions


def fold_updates(rib: Rib, updates: Iterable[Update]) -> List[Tuple[Prefix, int]]:
    """Apply checked updates to ``rib`` in order; returns the undo log
    (each prefix and the FIB index it had) for :func:`unfold_updates`."""
    return [
        (u.prefix, rib.insert(u.prefix, u.nexthop) if u.kind == "A"
         else rib.delete(u.prefix))
        for u in updates
    ]


def unfold_updates(rib: Rib, undo: List[Tuple[Prefix, int]]) -> None:
    """Undo a :func:`fold_updates`, newest change first."""
    for prefix, previous in reversed(undo):
        if previous == NO_ROUTE:
            rib.delete(prefix)
        else:
            rib.insert(prefix, previous)


def generate_stream(
    rib: Rib, config: Optional[UpdateStream] = None, **options
) -> List[Update]:
    """Synthesise a stream of updates applicable in order to ``rib``.

    ``config`` is an :class:`UpdateStream`; the same fields may be given
    as keywords instead, and unknown names raise ``TypeError``.

    The generator tracks the evolving route set so every withdrawal
    targets a live prefix and announcements of new prefixes do not
    collide.  Real BGP churn is dominated by long prefixes — flapping
    customer /24s, not stable /8 aggregates (the paper's replay touches
    the top-level direct array on only 4.1 % of updates) —
    ``churn_depth_bias`` is the acceptance probability for selecting a
    short (≤ /18) prefix when a live route must be chosen.
    """
    stream = UpdateStream.resolve(config, options)
    count = stream.count
    announce_fraction = stream.announce_fraction
    max_nexthop = stream.max_nexthop
    churn_depth_bias = stream.churn_depth_bias
    rng = random.Random(stream.seed)
    live: List[Tuple[Prefix, int]] = list(rib.routes())
    live_index = {prefix: i for i, (prefix, _) in enumerate(live)}
    if max_nexthop is None:
        max_nexthop = max((hop for _, hop in live), default=1)
    lengths = [
        prefix.length
        for prefix, _ in live[: min(len(live), 10000)]
        if prefix.length > 18 or rng.random() < churn_depth_bias
    ] or [24]
    width = rib.width

    def pick_live_index() -> int:
        for _ in range(8):  # rejection-sample toward long prefixes
            i = rng.randrange(len(live))
            if live[i][0].length > 18 or rng.random() < churn_depth_bias:
                return i
        return rng.randrange(len(live))

    updates: List[Update] = []
    while len(updates) < count:
        if rng.random() < announce_fraction or not live:
            if live and rng.random() < 0.6:
                # Re-announce an existing prefix with a new next hop —
                # path changes dominate real BGP churn.
                i = pick_live_index()
                prefix, old_hop = live[i]
                new_hop = rng.randint(1, max_nexthop)
                if new_hop == old_hop:
                    continue
                live[i] = (prefix, new_hop)
                updates.append(Update("A", prefix, new_hop))
            else:
                length = rng.choice(lengths) if lengths else rng.randint(8, 24)
                value = rng.getrandbits(length) << (width - length) if length else 0
                prefix = Prefix(value, length, width)
                if prefix in live_index:
                    continue
                hop = rng.randint(1, max_nexthop)
                live_index[prefix] = len(live)
                live.append((prefix, hop))
                updates.append(Update("A", prefix, hop))
        else:
            i = pick_live_index()
            prefix, _ = live[i]
            last = live.pop()
            if i < len(live):
                live[i] = last
                live_index[last[0]] = i
            del live_index[prefix]
            updates.append(Update("W", prefix))
    return updates


def generate_update_stream(
    rib: Rib,
    count: int,
    seed: int = 52,
    announce_fraction: float = PAPER_ANNOUNCE_FRACTION,
    max_nexthop: Optional[int] = None,
    churn_depth_bias: float = 0.12,
) -> List[Update]:
    """Compatibility wrapper over :func:`generate_stream`.

    The historical positional signature; new callers should build an
    :class:`UpdateStream` and call :func:`generate_stream`.
    """
    return generate_stream(
        rib,
        UpdateStream(
            count=count,
            seed=seed,
            announce_fraction=announce_fraction,
            max_nexthop=max_nexthop,
            churn_depth_bias=churn_depth_bias,
        ),
    )


def arrival_offsets(
    config: Optional[UpdateStream] = None, **options
) -> List[float]:
    """Deterministic wall-clock arrival schedule for a stream.

    Returns ``count`` non-decreasing offsets in seconds from the start
    of the run; the churn harness fires update ``i`` at ``start +
    offsets[i]``.

    - ``"steady"``: Poisson arrivals (exponential gaps) at ``rate`` —
      the open-loop shape the load generator also uses.
    - ``"bursty"``: flap storms — ``burst_length`` updates separated by
      exponential gaps at ``rate``, then ``burst_idle_s`` of silence
      (jittered ±50 %) before the next storm.  This is the shape of real
      BGP session resets: long quiet, then a correlated wave.
    """
    stream = UpdateStream.resolve(config, options)
    rng = random.Random(stream.seed ^ 0xA331)
    offsets: List[float] = []
    t = 0.0
    for i in range(stream.count):
        if (
            stream.regime == "bursty"
            and i
            and i % stream.burst_length == 0
        ):
            t += stream.burst_idle_s * rng.uniform(0.5, 1.5)
        else:
            t += rng.expovariate(stream.rate)
        offsets.append(t)
    return offsets

