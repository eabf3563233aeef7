"""Metrics registry: counters, gauges and histograms of one run.

Each :class:`repro.obs.session.Observation` owns one registry.
Instruments are create-on-first-use, and :meth:`MetricsRegistry.snapshot`
flattens everything into one JSON-serializable dict - the unit the
periodic sampler stores per sample.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge instead")
        self.value += amount


class Gauge:
    """A point-in-time float (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bin integer histogram (last bin absorbs the overflow)."""

    __slots__ = ("bins",)

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("histogram size must be positive")
        self.bins = np.zeros(size, dtype=np.int64)

    def observe(self, values: Iterable[int] | np.ndarray) -> None:
        values = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if values.size == 0:
            return
        capped = np.minimum(values, self.bins.size - 1)
        self.bins += np.bincount(capped, minlength=self.bins.size).astype(np.int64)

    def set_from(self, bins: np.ndarray) -> None:
        """Overwrite the bins with an externally maintained histogram."""
        bins = np.asarray(bins, dtype=np.int64)
        if bins.shape != self.bins.shape:
            raise ValueError("histogram shape mismatch")
        self.bins = bins.copy()

    def to_list(self) -> list[int]:
        return [int(v) for v in self.bins]


class MetricsRegistry:
    """Create-on-first-use instrument store with a flat snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str, size: int) -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.bins.size != size:
                raise ValueError(f"histogram {name!r} already has a different size")
            return existing
        return self._histograms.setdefault(name, Histogram(size))

    # -- folding in the legacy counter homes ---------------------------------

    def observe_stats(self, stats) -> None:
        """Fold a :class:`repro.core.stats.ScrubStats` ledger into gauges.

        Every key of ``stats.summary()`` becomes a gauge, the energy
        breakdown lands under ``energy.<stage>``, and the observed
        error-count histogram is mirrored into ``observed_errors``.  Called
        at each sample, so the time series *is* the stats ledger over time
        and the final sample matches the end-of-run aggregates exactly.
        """
        for key, value in stats.summary().items():
            self.gauge(key).set(value)
        for stage, joules in stats.energy_breakdown().items():
            self.gauge(f"energy.{stage}").set(joules)
        self.histogram(
            "observed_errors", stats.error_histogram.size
        ).set_from(stats.error_histogram)

    def snapshot(self) -> dict:
        """Flat JSON-serializable view: scalars plus histogram bin lists."""
        out: dict = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.to_list()
        return out
