"""The scrub-policy contract between mechanisms and simulation engines.

A :class:`ScrubPolicy` is stateful per run (adaptive policies track
per-region intervals) and is driven by the engine one *visit* at a time: the
engine hands it the true per-line error counts for the region being scanned,
and the policy returns a :class:`VisitDecision` describing what the hardware
would have done - which lines engaged the full decoder, which were written
back, which were uncorrectable, and when this region should be scanned next.

The engine, not the policy, applies the physical consequences (state resets,
wear, energy) - policies stay pure decision logic, which is what makes them
composable and unit-testable in isolation.

Observability rules the engine enforces for every policy:

* a line's error count is only *known* to the policy after a decode;
* a CRC detector reports error-present/absent (with a 2^-width miss
  probability on true errors) without revealing the count;
* error counts above the scheme's correction strength mean the decode
  fails: the line is uncorrectable, and no write-back can save it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..ecc.schemes import EccScheme
from ..obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class VisitDecision:
    """What the scrub hardware did for one region visit, or a device round.

    For one visit, the masks are boolean arrays over the visited region's
    lines and ``next_interval`` is one number.  For a device round (the
    batch engine's ``visit_batch``), the masks are ``(regions,
    region_size)`` arrays and ``next_interval`` holds one interval per
    row: row ``i`` (:meth:`row`) is the one-visit decision for the round's
    ``i``-th region.
    """

    #: Lines that ran the full ECC decoder.
    decoded: np.ndarray
    #: Lines written back (correctable lines only).
    written_back: np.ndarray
    #: Lines whose decode failed (error count exceeded correction strength).
    uncorrectable: np.ndarray
    #: Lines whose errors went unnoticed (detector miss); state untouched.
    missed: np.ndarray
    #: Seconds until the region's next scrub pass (one per row for a round).
    next_interval: float | np.ndarray

    def __post_init__(self) -> None:
        shape = self.decoded.shape
        for name in ("written_back", "uncorrectable", "missed"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"mask {name} shape mismatch")
        interval = np.asarray(self.next_interval)
        if interval.shape != shape[:-1]:
            raise ValueError("next_interval must have one entry per visit")
        # One visit compares a Python float: a numpy reduction over a 0-d
        # array would cost more than the rest of the scalar walk's check.
        if (interval <= 0).any() if interval.ndim else float(interval) <= 0:
            raise ValueError("next_interval must be positive")
        if bool((self.written_back & self.uncorrectable).any()):
            raise ValueError("a line cannot be both written back and uncorrectable")

    def row(self, i: int) -> VisitDecision:
        """Row ``i`` of a round decision, as that region's visit decision.

        Built without re-running the checks: this decision already passed
        them for every row, and the engine asks for a row per region with
        consequences.
        """
        row = object.__new__(VisitDecision)
        row.__dict__.update(
            decoded=self.decoded[i],
            written_back=self.written_back[i],
            uncorrectable=self.uncorrectable[i],
            missed=self.missed[i],
            next_interval=float(self.next_interval[i]),
        )
        return row


class ScrubPolicy(ABC):
    """Base class for scrub mechanisms.

    Subclasses implement :meth:`visit`.  The shared machinery here
    implements the observability rules (detector gating, decode failure)
    so that concrete policies only express their *decision* logic.
    """

    def __init__(self, scheme: EccScheme, interval: float):
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(
                f"scrub interval must be positive and finite, got {interval!r}"
            )
        self.scheme = scheme
        self.interval = interval
        #: Event sink for policy-level decisions (``interval_adapted``).
        #: The engine rebinds this to the run's tracer at construction;
        #: outside an engine it stays the no-op tracer.
        self.tracer: Tracer = NULL_TRACER

    @property
    def name(self) -> str:
        return type(self).__name__

    def initial_interval(self, region: int) -> float:
        """First-pass interval for ``region`` (static by default)."""
        return self.interval

    def fast_forward_interval(self, region: int) -> float | None:
        """Interval between zero-error visits, or ``None`` if ineligible.

        The fast-forward eligibility contract: a policy may return the
        interval it would schedule after an error-free pass over ``region``
        **only if** that pass is fully deterministic — the decision depends
        on nothing but the (all-zero) observed counts, draws no extra RNG,
        writes nothing back, and leaves the region's interval unchanged.
        The engine then folds runs of such visits into one bulk charge.
        Policies that cannot promise this (the default) return ``None``.
        """
        return None

    def batch_interval(self) -> float | None:
        """Uniform static interval for device-round batching, or ``None``.

        The batch engine's round-mode eligibility contract: a policy may
        return its interval **only if** every region's visit cadence is the
        same fixed value for the whole run — ``initial_interval(r)`` equals
        it for all ``r`` and every decision reschedules at it unchanged.
        The engine then replays whole device rounds (all regions, in the
        scheduler's stagger order), each decided in one call to the
        policy's ``visit_batch(times, regions, error_counts, rng)``, which a
        policy returning an interval must implement.  It returns a round
        :class:`VisitDecision` (2-D masks, one interval per row) whose row
        ``i`` is what :meth:`visit` would decide for ``regions[i]`` at
        ``times[i]``, with any randomness drawn as the scalar walk draws it
        for those visits in row order.  Policies that steer per-region
        intervals (the default) return ``None``; the batch engine runs them
        on the scalar walk.
        """
        return None

    # -- suspend/resume state --------------------------------------------------

    def state_dict(self) -> dict:
        """The policy's mutable per-run state, as JSON-clean values.

        The suspend/resume contract: together with
        :meth:`load_state_dict`, this must round-trip *everything* the
        policy mutates during a run, so a policy restored into a fresh
        object continues bit-identically.  Stateless policies (the
        default) have nothing to save.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this policy."""
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but was handed "
                f"snapshot state {sorted(state)}"
            )

    @abstractmethod
    def visit(
        self,
        time: float,
        region: int,
        error_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> VisitDecision:
        """Decide what happens to each line of ``region`` scanned at ``time``.

        ``error_counts`` are the ground-truth per-line totals (drift + hard);
        implementations must only act on them through the helpers below,
        which model what the hardware can actually observe.
        """

    # -- observability helpers -------------------------------------------------

    def _detect(
        self, error_counts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply the lightweight detector to one visit or a device round.

        Returns ``(flagged, missed)``: lines the CRC flagged for decode, and
        erroneous lines the CRC failed to flag (aliasing), respectively.
        Schemes without a detector flag everything (decode-all).  The miss
        draw is one fill of ``error_counts``' shape; ``Generator.random``
        fills C-order element-sequentially, so row ``i`` of a
        ``(regions, region_size)`` round draws bitwise what the visit to
        that region would draw, in visit order.
        """
        has_error = error_counts > 0
        if not self.scheme.has_detector:
            return np.ones_like(has_error, dtype=bool), np.zeros_like(has_error)
        miss_probability = 2.0 ** (-self.scheme.detector_bits)
        missed = has_error & (rng.random(error_counts.shape) < miss_probability)
        flagged = has_error & ~missed
        return flagged, missed

    def _classify(
        self, error_counts: np.ndarray, decoded: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split decoded lines into correctable and uncorrectable."""
        uncorrectable = decoded & (error_counts > self.scheme.t)
        correctable = decoded & ~uncorrectable
        return correctable, uncorrectable
