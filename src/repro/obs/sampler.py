"""Periodic time-series sampling of a running simulation.

The engine calls :meth:`PeriodicSampler.advance_to` before processing each
event and :meth:`PeriodicSampler.finalize` after the last one; the sampler
invokes its collect callback at every multiple of ``every`` simulated
seconds that has elapsed, plus exactly once at the horizon.  Samples land
in a :class:`TimeSeries`: one ``{"t": ..., **metrics}`` dict per sample,
JSON-serializable as-is.

Because samples are taken at deterministic simulated times and read only
deterministic run state, a run's time series is bit-identical whether it
executed inline or on a worker process.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from pathlib import Path

from ..durable import atomic_write


class TimeSeries:
    """An ordered list of metric snapshots at simulated times."""

    def __init__(self, samples: list[dict] | None = None):
        self.samples: list[dict] = samples if samples is not None else []

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def append(self, t: float, values: dict) -> None:
        self.samples.append({"t": float(t), **values})

    @property
    def final(self) -> dict:
        """The last sample (taken exactly at the horizon)."""
        if not self.samples:
            raise IndexError("time series is empty")
        return self.samples[-1]

    def column(self, name: str) -> list:
        """One metric across all samples (missing values become ``None``)."""
        return [sample.get(name) for sample in self.samples]

    def to_dict(self) -> dict:
        return {"samples": self.samples}

    @classmethod
    def from_dict(cls, blob: dict) -> "TimeSeries":
        return cls(list(blob["samples"]))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str | Path) -> None:
        atomic_write(path, (self.to_json() + "\n").encode())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.samples == other.samples


class PeriodicSampler:
    """Drives a collect callback every ``every`` simulated seconds.

    ``collect(t)`` must return the metric dict for simulated time ``t``;
    the sampler owns *when*, the caller owns *what*.
    """

    def __init__(
        self,
        every: float,
        collect: Callable[[float], dict],
        series: TimeSeries | None = None,
    ):
        if every <= 0:
            raise ValueError("sampling period must be positive")
        self.every = every
        self.collect = collect
        self.series = series if series is not None else TimeSeries()
        self._next = every

    @property
    def next_due(self) -> float:
        """Absolute simulated time of the next pending sample.

        Fast-forward jumps must not charge visits past this instant: the
        sample taken at ``next_due`` has to see exactly the ledger state
        the naive walk would have accumulated by then.
        """
        return self._next

    def advance_to(self, now: float) -> None:
        """Take all samples due strictly before simulated time ``now``."""
        while self._next < now:
            self.series.append(self._next, self.collect(self._next))
            self._next += self.every

    def finalize(self, horizon: float) -> TimeSeries:
        """Take due samples up to the horizon plus one exactly at it."""
        while self._next < horizon:
            self.series.append(self._next, self.collect(self._next))
            self._next += self.every
        self.series.append(horizon, self.collect(horizon))
        return self.series


def merge_timeseries(series: Sequence[TimeSeries | None]) -> TimeSeries:
    """Sum per-run time series sample-by-sample into a fleet view.

    All runs must have sampled at the same simulated times (same horizon
    and ``sample_every`` - true for any sweep over one configuration).
    Numeric metrics add; histogram lists add element-wise; ``None`` entries
    (runs without sampling) are skipped.
    """
    alive = [s for s in series if s is not None and len(s)]
    if not alive:
        return TimeSeries()
    length = len(alive[0])
    if any(len(s) != length for s in alive):
        raise ValueError("cannot merge time series of different lengths")
    merged = TimeSeries()
    for index in range(length):
        rows = [s.samples[index] for s in alive]
        times = {row["t"] for row in rows}
        if len(times) != 1:
            raise ValueError("cannot merge time series sampled at different times")
        combined: dict = {}
        for row in rows:
            for key, value in row.items():
                if key == "t":
                    continue
                if isinstance(value, list):
                    previous = combined.get(key)
                    if previous is None:
                        combined[key] = list(value)
                    else:
                        combined[key] = [a + b for a, b in zip(previous, value)]
                elif isinstance(value, (int, float)):
                    combined[key] = combined.get(key, 0) + value
                else:
                    combined.setdefault(key, value)
        merged.append(times.pop(), combined)
    return merged
