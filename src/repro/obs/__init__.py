"""Observability: tracing, metrics/time-series, and profiling.

Three pillars, all zero-overhead when disabled (the default):

* **structured event tracing** (:mod:`repro.obs.trace`) - typed events
  (``scrub_visit``, ``uncorrectable``, ``retire``, ``spare_allocated``,
  ``demand_burst``, ``interval_adapted``) emitted by the population engine
  and the adaptive policies, recorded in memory and written as JSONL;
* **metrics + time series** (:mod:`repro.obs.metrics`,
  :mod:`repro.obs.sampler`) - a counters/gauges/histograms registry
  snapshotted every N simulated seconds, with a final sample exactly at
  the horizon that matches the run's end-of-run aggregates;
* **profiling** (:mod:`repro.obs.profile`) - per-phase wall-time spans
  (tabulate / simulate / visit / demand / decode) collected into a report.

Enable any combination per run through
:class:`repro.obs.config.ObsConfig` on
:class:`repro.sim.config.SimulationConfig`; harvest the results from
``RunResult.trace`` / ``RunResult.timeseries`` / ``RunResult.profile``.
Sweeps merge per-run telemetry with :func:`merge_traces`,
:func:`merge_timeseries`, and :func:`merge_profiles` - deterministic
regardless of worker placement.  See ``examples/observability.py``.
"""

from __future__ import annotations

from .config import ObsConfig
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import NULL_PROFILER, NullProfiler, Profiler, merge_profiles
from .sampler import PeriodicSampler, TimeSeries, merge_timeseries
from .session import Observation
from .trace import (
    EVENT_FIELDS,
    NULL_TRACER,
    RecordingTracer,
    Tracer,
    merge_traces,
    write_trace,
)

__all__ = [
    "EVENT_FIELDS",
    "NULL_PROFILER",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullProfiler",
    "Observation",
    "ObsConfig",
    "PeriodicSampler",
    "Profiler",
    "RecordingTracer",
    "TimeSeries",
    "Tracer",
    "merge_profiles",
    "merge_timeseries",
    "merge_traces",
    "write_trace",
]
