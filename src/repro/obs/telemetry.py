"""The telemetry bundle the serving stack threads through itself.

:class:`Telemetry` pairs one :class:`~repro.obs.tracer.Tracer` with one
:class:`~repro.obs.metrics.MetricsRegistry` so call sites pass a single
handle.  Every serving session holds one -- the bundle it was given, or
an inert :meth:`Telemetry.null` -- and it reaches the routers, leaf
engines and scheduler inside the run's fault context, so the serve path
records unconditionally and an unobserved run records into the null
bundle, whose every call returns at once.

This module imports nothing from :mod:`repro.serving` or
:mod:`repro.core` -- the dependency arrow points serving -> obs only,
which is what lets the obs package stay importable everywhere
(experiments, benchmarks, future analyzers) without cycles.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.exporters import write_prometheus, write_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """One run's tracer + metrics registry behind a single handle.

    ``sample_every=N`` traces every Nth dispatched batch while metrics
    still see every batch.  :meth:`Telemetry.null` is the inert bundle a
    session holds when none is given.  Tracing neither charges ledgers
    nor draws randomness, so recommendations and energy totals are
    bit-identical either way.
    """

    def __init__(self, sample_every: int = 1):
        self.tracer = Tracer(sample_every=sample_every)
        self.metrics = MetricsRegistry()

    @classmethod
    def null(cls) -> "Telemetry":
        """An inert bundle: its tracer never activates, so every
        recording call returns at its first line, and its registry drops
        every observation."""
        null = cls.__new__(cls)
        null.tracer = Tracer(enabled=False)
        null.metrics = MetricsRegistry.null()
        return null

    def export(
        self,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
    ) -> None:
        """Write the trace and/or metrics files that were asked for.

        ``trace_out`` dispatches on extension (``.jsonl`` line format,
        otherwise Chrome trace-event JSON); ``metrics_out`` is always
        Prometheus text exposition.
        """
        if trace_out is not None:
            write_trace(trace_out, self.tracer)
        if metrics_out is not None:
            write_prometheus(metrics_out, self.metrics)

    def __repr__(self) -> str:
        return (
            f"Telemetry(enabled={self.tracer.enabled}, "
            f"spans={len(self.tracer.spans)}, "
            f"instants={len(self.tracer.instants)})"
        )
