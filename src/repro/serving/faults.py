"""Deterministic fault injection for the serving fleet.

Every replica in the simulator is immortal unless this module says
otherwise.  A :class:`FaultPlan` is a seeded, immutable schedule of
fault windows on the shared simulation clock -- replica crashes (with
restart at the window's end), whole-shard outages, stragglers
(per-replica latency multipliers), transient serve-error windows and
cache-flush instants.  A :class:`FaultInjector` answers the serving
stack's point-in-time questions ("is shard 1 replica 0 down at
t=0.42s?") from that schedule, so a chaos run is a pure function of
``(seed, plan)``: same plan, same traffic, same seed -> byte-identical
records, ledgers and telemetry.

The injector is *passive*: it never raises by itself.  The resilience
layer (:mod:`repro.serving.resilience`) plants a failure hook on every
leaf engine; the hook consults the injector at each serve attempt and
raises :class:`FaultError` when the attempt lands inside a fault
window.  Routers catch the error and decide -- fail the queries
(resilience off) or retry/hedge/fail over (resilience on).

An empty plan schedules nothing and plants no hook, so a fleet over
an empty plan is bit-identical to one with no fault plane (the
Hypothesis property in ``tests/serving/test_serving_resilience.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.energy.accounting import Cost

__all__ = [
    "CRASH",
    "SHARD_OUTAGE",
    "STRAGGLER",
    "ERROR",
    "CACHE_FLUSH",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultError",
    "chaos_scenario",
    "escalating_scenarios",
]

#: A replica is dead for the window; it restarts (cold but correct) at
#: the window's end.
CRASH = "crash"
#: Every replica of one shard is dark for the window.
SHARD_OUTAGE = "shard-outage"
#: The replica serves correctly but ``severity``x slower in the window.
STRAGGLER = "straggler"
#: Serve attempts inside the window do the work but return garbage
#: (a transient error the caller must discard).
ERROR = "error"
#: The result cache is wiped at ``start_s`` (a zero-duration instant).
CACHE_FLUSH = "cache-flush"

FAULT_KINDS = frozenset({CRASH, SHARD_OUTAGE, STRAGGLER, ERROR, CACHE_FLUSH})

#: Fault kinds that take a replica down (no work possible at all).
_DOWN_KINDS = (CRASH, SHARD_OUTAGE)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault window on the simulation clock.

    ``shard`` addresses a shard index in the engine tree (a bare engine
    is shard 0); ``replica=None`` targets every replica of that shard
    (mandatory for :data:`SHARD_OUTAGE`, the point of the kind).
    ``severity`` is the latency multiplier of a :data:`STRAGGLER`
    window and ignored elsewhere.
    """

    kind: str
    start_s: float
    end_s: float
    shard: int = 0
    replica: Optional[int] = None
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start_s < 0.0:
            raise ValueError(f"fault cannot start before t=0 ({self.start_s})")
        if self.end_s < self.start_s:
            raise ValueError(
                f"fault window ends before it starts "
                f"({self.end_s} < {self.start_s})"
            )
        if self.kind == CACHE_FLUSH and self.end_s != self.start_s:
            raise ValueError("a cache flush is an instant (end_s == start_s)")
        if self.shard < 0:
            raise ValueError(f"shard index must be >= 0, got {self.shard}")
        if self.replica is not None and self.replica < 0:
            raise ValueError(f"replica index must be >= 0, got {self.replica}")
        if self.kind == SHARD_OUTAGE and self.replica is not None:
            raise ValueError("a shard outage targets every replica (replica=None)")
        if self.kind == STRAGGLER and self.severity <= 1.0:
            raise ValueError(
                f"straggler severity must be > 1, got {self.severity}"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def covers(self, time_s: float) -> bool:
        """True when ``time_s`` falls inside the half-open window."""
        return self.start_s <= time_s < self.end_s

    def targets(self, shard: int, replica: int) -> bool:
        """True when this event applies to (shard, replica)."""
        return self.shard == shard and (
            self.replica is None or self.replica == replica
        )


def _sort_key(event: FaultEvent) -> Tuple:
    return (
        event.start_s,
        event.end_s,
        event.kind,
        event.shard,
        -1 if event.replica is None else event.replica,
    )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted schedule of :class:`FaultEvent`\\ s.

    Plans are value objects: building one sorts the events into a
    canonical order, so two plans with the same events compare (and
    replay) identically regardless of construction order.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=_sort_key))
        object.__setattr__(self, "events", ordered)

    @property
    def empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> Tuple[FaultEvent, ...]:
        """Events of one kind, in schedule order."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        return tuple(event for event in self.events if event.kind == kind)

    def mttr_s(self) -> Optional[float]:
        """Mean time-to-recovery of the scheduled downtime windows.

        A crash or outage "recovers" when its window ends (the replica
        restarts), so the plan's MTTR is the mean downtime-window
        duration -- None when the plan schedules no downtime at all
        (the "--" column of a zero-fault SLO report).
        """
        downs = [
            event.duration_s
            for event in self.events
            if event.kind in _DOWN_KINDS
        ]
        if not downs:
            return None
        return float(np.mean(downs))


class FaultError(RuntimeError):
    """One serve attempt landed inside a fault window.

    ``cost`` is what the failed attempt physically consumed: nothing
    for a crash/outage (the replica never ran), the full serve cost for
    a transient error (the work happened, the answer is garbage).  The
    caller decides what *detecting* the failure costs on top (timeout
    latency, see :mod:`repro.serving.resilience`).
    """

    def __init__(
        self, kind: str, site: Tuple[int, int], cost: Cost, event: FaultEvent
    ):
        super().__init__(
            f"{kind} at shard {site[0]} replica {site[1]} "
            f"(window [{event.start_s:.6f}, {event.end_s:.6f})s)"
        )
        self.kind = kind
        self.site = site
        self.cost = cost
        self.event = event


class FaultInjector:
    """Point-in-time oracle over one :class:`FaultPlan`.

    Stateless with respect to the serve path except for the cache-flush
    cursor (flush instants are consumed in dispatch order) -- so the
    same injector can answer any number of interleaved queries without
    drifting, and :meth:`reset` rewinds it for a fresh run.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._site_events: Dict[Tuple[int, int], Tuple[FaultEvent, ...]] = {}
        self._flushes = plan.by_kind(CACHE_FLUSH)
        self._flush_cursor = 0

    @property
    def empty(self) -> bool:
        return self.plan.empty

    def reset(self) -> None:
        """Rewind the flush cursor (start of a fresh run)."""
        self._flush_cursor = 0

    def _events_for(self, shard: int, replica: int) -> Tuple[FaultEvent, ...]:
        key = (shard, replica)
        cached = self._site_events.get(key)
        if cached is None:
            cached = tuple(
                event
                for event in self.plan.events
                if event.kind != CACHE_FLUSH and event.targets(shard, replica)
            )
            self._site_events[key] = cached
        return cached

    def down_at(
        self, shard: int, replica: int, time_s: float
    ) -> Optional[FaultEvent]:
        """The crash/outage window covering ``time_s``, if any."""
        for event in self._events_for(shard, replica):
            if event.kind in _DOWN_KINDS and event.covers(time_s):
                return event
        return None

    def error_at(
        self, shard: int, replica: int, time_s: float
    ) -> Optional[FaultEvent]:
        """The transient-error window covering ``time_s``, if any."""
        for event in self._events_for(shard, replica):
            if event.kind == ERROR and event.covers(time_s):
                return event
        return None

    def latency_multiplier(
        self, shard: int, replica: int, time_s: float
    ) -> float:
        """Product of straggler severities active at ``time_s`` (1.0 =
        healthy)."""
        multiplier = 1.0
        for event in self._events_for(shard, replica):
            if event.kind == STRAGGLER and event.covers(time_s):
                multiplier *= event.severity
        return multiplier

    def take_flushes(self, now_s: float) -> List[FaultEvent]:
        """Cache-flush instants due by ``now_s``, each returned once.

        The session calls this at every batch dispatch (dispatches are
        monotone in time), so each flush fires exactly once, at the
        first dispatch at-or-after its scheduled instant.
        """
        due: List[FaultEvent] = []
        while (
            self._flush_cursor < len(self._flushes)
            and self._flushes[self._flush_cursor].start_s <= now_s
        ):
            due.append(self._flushes[self._flush_cursor])
            self._flush_cursor += 1
        return due

    def mttr_s(self) -> Optional[float]:
        return self.plan.mttr_s()


# -- seeded scenario builders ----------------------------------------------


def _jitter(rng: np.random.Generator, span_s: float) -> float:
    return float(rng.uniform(-0.02, 0.02)) * span_s


def chaos_scenario(
    duration_s: float,
    num_shards: int,
    replicas_per_shard: int,
    seed: int = 0,
    *,
    crashes: int = 2,
    outages: int = 1,
    stragglers: int = 2,
    error_windows: int = 1,
    cache_flushes: int = 1,
    crash_frac: float = 0.10,
    outage_frac: float = 0.15,
    straggler_frac: float = 0.25,
    error_frac: float = 0.08,
    straggler_severity: float = 6.0,
) -> FaultPlan:
    """Build a reproducible fault schedule over one run's timeline.

    Placement is deterministic from ``seed`` (small uniform jitter from
    one seeded generator, drawn in a fixed order).  The layout is
    chosen so a *resilient* fleet never goes fully dark:

    * outages rotate over shards with non-overlapping windows, so at
      least one shard survives any instant (partial scatter-gather has
      something to gather);
    * crashes prefer shards *other* than the concurrently-failing
      outage shard and rotate replicas, so a replica group always keeps
      a healthy peer to fail over to;
    * stragglers and error windows rotate sites independently.
    """
    if duration_s <= 0.0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if num_shards < 1 or replicas_per_shard < 1:
        raise ValueError("need at least one shard and one replica per shard")
    rng = np.random.default_rng([seed, 0xFA])
    events: List[FaultEvent] = []

    for index in range(outages):
        width = outage_frac * duration_s
        center = duration_s * (index + 1.0) / (outages + 1.0) + _jitter(
            rng, duration_s
        )
        start = min(max(0.0, center - width / 2.0), duration_s - width)
        events.append(
            FaultEvent(
                SHARD_OUTAGE,
                start,
                start + width,
                shard=index % num_shards,
            )
        )

    for index in range(crashes):
        width = crash_frac * duration_s
        start = duration_s * (0.10 + 0.72 * index / max(1, crashes)) + _jitter(
            rng, duration_s
        )
        start = min(max(0.0, start), duration_s - width)
        # Keep crash targets off shard 0 (the first outage target) when
        # the fleet has somewhere else to aim: a crash plus an outage on
        # the same shard could darken it past what failover can absorb.
        if num_shards > 1:
            shard = 1 + index % (num_shards - 1)
        else:
            shard = 0
        events.append(
            FaultEvent(
                CRASH,
                start,
                start + width,
                shard=shard,
                replica=index % replicas_per_shard,
            )
        )

    for index in range(stragglers):
        width = straggler_frac * duration_s
        start = duration_s * (0.05 + 0.70 * index / max(1, stragglers)) + _jitter(
            rng, duration_s
        )
        start = min(max(0.0, start), duration_s - width)
        # Stragglers follow the outage rotation (shard 0 first) rather
        # than the crash shards: a straggler on the last healthy replica
        # of a crash-stricken shard would leave recovery nothing to
        # hedge against -- the fleet's floor latency would be the
        # straggler's, no policy could beat it.
        events.append(
            FaultEvent(
                STRAGGLER,
                start,
                start + width,
                shard=0,
                replica=index % replicas_per_shard,
                severity=straggler_severity,
            )
        )

    for index in range(error_windows):
        width = error_frac * duration_s
        start = duration_s * (0.20 + 0.55 * index / max(1, error_windows)) + _jitter(
            rng, duration_s
        )
        start = min(max(0.0, start), duration_s - width)
        events.append(
            FaultEvent(
                ERROR,
                start,
                start + width,
                shard=(index + 1) % num_shards,
                replica=index % replicas_per_shard,
            )
        )

    for index in range(cache_flushes):
        at = duration_s * (0.30 + 0.50 * index / max(1, cache_flushes))
        events.append(FaultEvent(CACHE_FLUSH, at, at))

    return FaultPlan(tuple(events))


def escalating_scenarios(
    duration_s: float,
    num_shards: int,
    replicas_per_shard: int,
    seed: int = 0,
) -> Dict[str, FaultPlan]:
    """The E-chaos ladder: three plans of increasing hostility.

    ``moderate`` is the *pinned* acceptance scenario (seeded replica
    crashes + one shard outage + stragglers); ``light`` is stragglers
    only, ``severe`` piles on more of everything.  Returned in
    escalation order (insertion-ordered dict).
    """
    return {
        "light": chaos_scenario(
            duration_s,
            num_shards,
            replicas_per_shard,
            seed=seed,
            crashes=0,
            outages=0,
            stragglers=2,
            error_windows=0,
            cache_flushes=0,
        ),
        "moderate": chaos_scenario(
            duration_s,
            num_shards,
            replicas_per_shard,
            seed=seed,
        ),
        "severe": chaos_scenario(
            duration_s,
            num_shards,
            replicas_per_shard,
            seed=seed,
            crashes=4,
            outages=2,
            stragglers=3,
            error_windows=2,
            cache_flushes=2,
            outage_frac=0.18,
            straggler_severity=10.0,
        ),
    }
