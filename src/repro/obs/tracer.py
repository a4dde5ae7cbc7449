"""Span-based request tracing over simulation time.

A :class:`Tracer` records each request's journey through the serving
stack as a tree of :class:`Span`\\ s -- admission, scheduler queue,
replica routing, shard scatter/gather, engine kernels, merge -- plus
:class:`Instant` annotations for control-plane events (scale events,
spillover probes, batch retunes).  Timestamps are *simulation* seconds
(the same :mod:`repro.obs.clock` values the serving session computes
completions from), so a trace is a deterministic artefact of the seeded
run, not a profile of the host.

Recording model
---------------
The simulator always knows a stage's duration the moment it finishes
(stage costs are :class:`~repro.energy.accounting.Cost` values), so the
API favours *complete* spans:

* :meth:`Tracer.add` records a finished child of the innermost open span
  (:meth:`Tracer.add_many` records a run of them in one call);
* :meth:`Tracer.open` / :meth:`Tracer.close` bracket a span whose
  children are recorded by nested components (the session opens the
  ``engine`` span, the shard router adds per-shard children inside it);
* :meth:`Tracer.instant` drops a zero-duration control-plane marker.

Sampling
--------
``sample_every=N`` traces every Nth dispatched batch (the session calls
:meth:`start_batch` per batch).  An unsampled batch records no spans --
every recording call is a cheap no-op -- which bounds tracing cost on
long runs.  Control-plane instants ignore sampling: scale events are too
rare and too load-bearing to drop.  ``enabled=False`` is the null
tracer of :meth:`~repro.obs.telemetry.Telemetry.null`: it never
activates, so every recording call returns at its first line.  Tracing
is observation only: it charges nothing to any ledger and draws no
randomness, so recommendations and energy totals are bit-identical
with tracing on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Instant", "Tracer", "span_children"]

_EPS = 1e-12  # float-noise tolerance when validating span nesting


@dataclass(slots=True, eq=False)
class Span:
    """One completed, timestamped stage of a request's journey.

    Plain slotted dataclass (not frozen): spans are constructed on the
    serve path's hot loop, and frozen-dataclass construction costs one
    ``object.__setattr__`` per field.  Treat instances as immutable.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_s: float
    end_s: float
    process: str
    track: str
    attrs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(
                f"span {self.name!r} ends before it starts "
                f"({self.end_s} < {self.start_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> Dict[str, object]:
        """The JSONL export schema of one span."""
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "process": self.process,
            "track": self.track,
            "attrs": dict(self.attrs),
        }


@dataclass(slots=True, eq=False)
class Instant:
    """A zero-duration control-plane annotation (scale event, retune...)."""

    name: str
    time_s: float
    category: str
    process: str
    track: str
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The JSONL export schema of one instant."""
        return {
            "type": "instant",
            "name": self.name,
            "time_s": self.time_s,
            "category": self.category,
            "process": self.process,
            "track": self.track,
            "attrs": dict(self.attrs),
        }


class _OpenSpan:
    __slots__ = ("span_id", "parent_id", "name", "category", "start_s", "track", "attrs")

    def __init__(self, span_id, parent_id, name, category, start_s, track, attrs):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_s = start_s
        self.track = track
        self.attrs = attrs


class Tracer:
    """Collects spans and instants from one (or several) serving sessions.

    A tracer may serve several sessions in one run (the experiment
    studies trace every fleet they compare): :meth:`set_process` names
    the current session, and every span records the process it belongs
    to -- the Chrome exporter renders each process as its own lane group.
    """

    def __init__(self, enabled: bool = True, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.enabled = enabled
        self.sample_every = sample_every
        # Recording appends raw field tuples; Span objects are
        # materialized lazily by the ``spans`` property.  Object
        # construction is most of what recording a span would cost, and
        # readers (exporters, validation) only appear after the run.
        self._rows: List[Tuple] = []
        self._materialized: List[Span] = []
        self.instants: List[Instant] = []
        self.sampled_batches = 0
        self.seen_batches = 0
        self._process = "serve"
        self._next_id = 0
        self._stack: List[_OpenSpan] = []
        self._batch_active = False

    @property
    def spans(self) -> List[Span]:
        """Recorded spans, in record order (lazily materialized)."""
        rows = self._rows
        cache = self._materialized
        if len(cache) != len(rows):
            cache.extend(Span(*row) for row in rows[len(cache):])
        return cache

    # -- session / batch context ---------------------------------------

    def set_process(self, name: str) -> None:
        """Name the session whose spans follow (one lane group per name)."""
        if not name:
            raise ValueError("process name must be non-empty")
        self._process = name

    @property
    def process(self) -> str:
        return self._process

    def start_batch(self, batch_index: int) -> bool:
        """Begin one dispatched batch; returns True when it is sampled."""
        if self._stack:
            raise RuntimeError(
                f"previous batch left {len(self._stack)} span(s) open"
            )
        self.seen_batches += 1
        self._batch_active = (
            self.enabled and batch_index % self.sample_every == 0
        )
        if self._batch_active:
            self.sampled_batches += 1
        return self._batch_active

    def end_batch(self) -> None:
        """Finish the current batch (all opened spans must be closed)."""
        if self._stack:
            raise RuntimeError(
                f"end_batch with {len(self._stack)} span(s) still open"
            )
        self._batch_active = False

    @property
    def active(self) -> bool:
        """True while the current batch is being traced."""
        return self._batch_active

    # -- recording ------------------------------------------------------

    @property
    def cursor_s(self) -> float:
        """Start time of the innermost open span (0.0 outside any span).

        Nested components (shard routers, engines) place their child
        spans relative to this -- the moment their enclosing stage began.
        """
        return self._stack[-1].start_s if self._stack else 0.0

    @property
    def cursor_track(self) -> str:
        """Display track of the innermost open span (``"main"`` outside)."""
        return self._stack[-1].track if self._stack else "main"

    def open(
        self,
        name: str,
        start_s: float,
        *,
        category: str = "serve",
        track: Optional[str] = None,
        **attrs: object,
    ) -> Optional[int]:
        """Open a span whose end is not yet known; returns its id."""
        if not self._batch_active:
            return None
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        top = stack[-1] if stack else None
        stack.append(
            _OpenSpan(
                span_id,
                top.span_id if top is not None else None,
                name,
                category,
                start_s,
                track if track is not None else (top.track if top is not None else "main"),
                attrs,  # the kwargs dict is fresh per call
            )
        )
        return span_id

    def close(self, end_s: float, **attrs: object) -> Optional[int]:
        """Close the innermost open span at ``end_s`` (extra attrs merge);
        returns the closed span's id."""
        if not self._batch_active:
            return None
        if not self._stack:
            raise RuntimeError("close() without a matching open()")
        pending = self._stack.pop()
        if end_s < pending.start_s:
            raise ValueError(
                f"span {pending.name!r} ends before it starts "
                f"({end_s} < {pending.start_s})"
            )
        if attrs:
            pending.attrs.update(attrs)
        self._rows.append(
            (
                pending.span_id,
                pending.parent_id,
                pending.name,
                pending.category,
                pending.start_s,
                end_s,
                self._process,
                pending.track,
                pending.attrs,
            )
        )
        return pending.span_id

    def add(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        category: str = "serve",
        track: Optional[str] = None,
        **attrs: object,
    ) -> Optional[int]:
        """Record a completed child of the innermost open span; returns
        the new span's id."""
        if not self._batch_active:
            return None
        if end_s < start_s:
            raise ValueError(
                f"span {name!r} ends before it starts ({end_s} < {start_s})"
            )
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        top = stack[-1] if stack else None
        self._rows.append(
            (
                span_id,
                top.span_id if top is not None else None,
                name,
                category,
                start_s,
                end_s,
                self._process,
                track
                if track is not None
                else (top.track if top is not None else "main"),
                attrs,  # the kwargs dict is fresh per call
            )
        )
        return span_id

    def add_many(
        self,
        name: str,
        spans: Iterable[Tuple[float, float, Dict[str, object]]],
        *,
        category: str = "serve",
        track: Optional[str] = None,
    ) -> None:
        """Record ``(start_s, end_s, attrs)`` children of the innermost open
        span, in order: one :meth:`add` per triple minus the per-call keyword
        parsing (the session's per-request spans).  ``attrs`` are stored as is."""
        if not self._batch_active:
            return
        top = self._stack[-1] if self._stack else None
        parent_id = top.span_id if top is not None else None
        track = track if track is not None else (top.track if top is not None else "main")
        process, rows = self._process, self._rows
        for start_s, end_s, attrs in spans:
            if end_s < start_s:
                raise ValueError(f"span {name!r} ends before it starts ({end_s} < {start_s})")
            rows.append(
                (self._next_id, parent_id, name, category, start_s, end_s, process, track, attrs)
            )
            self._next_id += 1

    def instant(
        self,
        name: str,
        time_s: float,
        *,
        category: str = "control",
        track: str = "control",
        **attrs: object,
    ) -> Optional[Instant]:
        """Record a control-plane marker (not gated by batch sampling)."""
        if not self.enabled:
            return None
        event = Instant(
            name=name,
            time_s=time_s,
            category=category,
            process=self._process,
            track=track,
            attrs=attrs,  # the kwargs dict is fresh per call
        )
        self.instants.append(event)
        return event

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def validate(self) -> None:
        """Check span-tree well-formedness; raises ValueError on defects.

        Every parent id must name a recorded span of the same process,
        and every child must lie within its parent's [start, end] window
        (up to float noise).  The exporter tests and the serving
        telemetry suite run this over whole sessions.
        """
        by_id: Dict[int, Span] = {span.span_id: span for span in self.spans}
        for span in self.spans:
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                raise ValueError(
                    f"span {span.name!r} has unknown parent {span.parent_id}"
                )
            if parent.process != span.process:
                raise ValueError(
                    f"span {span.name!r} crosses processes "
                    f"({parent.process!r} -> {span.process!r})"
                )
            if (
                span.start_s < parent.start_s - _EPS
                or span.end_s > parent.end_s + _EPS
            ):
                raise ValueError(
                    f"span {span.name!r} [{span.start_s}, {span.end_s}] "
                    f"escapes parent {parent.name!r} "
                    f"[{parent.start_s}, {parent.end_s}]"
                )


def span_children(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    """Group spans by parent id (None holds the roots), in record order."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children
