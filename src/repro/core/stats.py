"""The scrub statistics ledger.

Every metric the paper reports flows through this object: uncorrectable
errors, scrub-related writes (the 24.4x metric), scrub energy and its
read/detect/decode/write breakdown (the 37.8% metric), wear added by
scrubbing versus demand, and the observed error-count histogram that the
threshold and adaptive mechanisms are designed around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pcm.energy import EnergyLedger, OperationCosts


@dataclass
class ScrubStats:
    """Counters and energy for one simulation run.

    ``error_histogram[k]`` counts scrub observations of lines with exactly
    ``k`` errors (capped into the last bucket), across all visits.
    """

    costs: OperationCosts
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    #: Lines found uncorrectable at a scrub visit.
    uncorrectable: int = 0
    #: Scrub visits that observed at least one error.
    visits_with_errors: int = 0
    #: Total line visits by the scrubber.
    visits: int = 0
    #: Detector misses (line had errors, CRC matched anyway).
    detector_misses: int = 0
    #: Lines retired for excessive hard errors.
    retired: int = 0
    #: Demand writes applied (for wear attribution).
    demand_writes: int = 0
    #: Cells rewritten by partial write-backs (0 under full write-back).
    partial_cells: int = 0
    #: Observed per-line error counts across all scrub decodes:
    #: ``error_histogram[k]`` counts lines seen with exactly ``k`` errors
    #: (capped into the last bucket).
    error_histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(33, dtype=np.int64)
    )

    # -- recording helpers (engine-facing) -----------------------------------

    def record_reads(self, lines: int, visits: int = 1) -> None:
        """Charge ``visits`` region scans reading ``lines`` lines each."""
        self.ledger.add("scrub_read", self.costs.read_energy, lines, visits)
        self.visits += lines * visits

    def record_detects(self, lines: int, visits: int = 1) -> None:
        """Charge ``visits`` detector passes over ``lines`` lines each."""
        self.ledger.add("scrub_detect", self.costs.detect_energy, lines, visits)

    def record_decodes(self, count: int, visits: int = 1) -> None:
        """Charge ``visits`` visits that each decoded ``count`` lines."""
        self.ledger.add("scrub_decode", self.costs.decode_energy, count, visits)

    def record_scrub_writes(self, count: int) -> None:
        self.ledger.add("scrub_write", self.costs.write_energy, count)

    def record_partial_scrub_writes(self, lines: int, cells: int) -> None:
        """Partial write-backs: ``lines`` events touching ``cells`` cells.

        Energy scales with the rewritten cells; the event count (what the
        24.4x metric counts) is per line, as for full write-backs.
        """
        if lines < 0 or cells < 0:
            raise ValueError("lines and cells must be >= 0")
        if lines == 0:
            return
        per_line = cells * self.costs.write_energy_per_cell / lines
        self.ledger.add("scrub_write", per_line, lines)
        self.partial_cells += cells

    def record_demand_writes(self, count: int) -> None:
        self.ledger.add("demand_write", self.costs.write_energy, count)
        self.demand_writes += count

    def record_zero_error_visits(
        self, visits: int, lines: int, detector: bool, decode_all: bool
    ) -> None:
        """Charge ``visits`` consecutive error-free scans of ``lines`` lines.

        The fast-forward bulk charge.  Bit-identical to the per-visit path:
        a zero-error visit reads and (with a detector) checks every line;
        detector-less schemes additionally decode every line and drop
        ``lines`` of mass into ``histogram[0]``, while detector-gated
        schemes decode nothing (their per-visit ``add(..., 0)`` adds
        ``+0.0`` joules, a bitwise no-op, so it is elided here).  Float
        accumulators advance by one per-visit addition per visit
        (:meth:`~repro.pcm.energy.EnergyLedger.add`'s ``repeats``), never by
        one fused term.
        """
        if visits < 0 or lines < 0:
            raise ValueError("visits and lines must be >= 0")
        self.record_reads(lines, visits)
        if detector:
            self.record_detects(lines, visits)
        if decode_all:
            self.record_decodes(lines, visits)
            self.error_histogram[0] += lines * visits

    def record_error_counts(self, counts: np.ndarray) -> None:
        """Fold one visit's observed per-line error counts into the histogram."""
        counts = np.asarray(counts)
        if counts.size == 0:
            return
        capped = np.minimum(counts, self.error_histogram.size - 1)
        self.error_histogram += np.bincount(
            capped, minlength=self.error_histogram.size
        ).astype(np.int64)
        self.visits_with_errors += int((counts > 0).sum())

    # -- derived metrics (benchmark-facing) ------------------------------------

    @property
    def scrub_writes(self) -> int:
        """Scrub write-back events, in line units.

        Scrub-induced cell-writes = ``scrub_writes * cells_per_line`` for
        full write-backs; wear analysis converts.
        """
        return self.ledger.counts["scrub_write"]

    @property
    def scrub_reads(self) -> int:
        return self.ledger.counts["scrub_read"]

    @property
    def scrub_decodes(self) -> int:
        return self.ledger.counts["scrub_decode"]

    @property
    def scrub_energy(self) -> float:
        return self.ledger.scrub_energy

    def energy_breakdown(self) -> dict[str, float]:
        """Scrub energy by stage (read/detect/decode/write)."""
        return {
            key.removeprefix("scrub_"): value
            for key, value in self.ledger.breakdown().items()
            if key.startswith("scrub_")
        }

    def scrub_busy_time(self) -> float:
        """Seconds of bank time consumed by scrubbing (bandwidth overhead)."""
        return (
            self.scrub_reads * self.costs.read_latency
            + self.scrub_decodes * self.costs.decode_latency
            + self.scrub_writes * self.costs.write_latency
        )

    def summary(self) -> dict[str, float]:
        """Flat dict of the headline metrics, for tables and JSON export."""
        return {
            "visits": float(self.visits),
            "uncorrectable": float(self.uncorrectable),
            "scrub_reads": float(self.scrub_reads),
            "scrub_decodes": float(self.scrub_decodes),
            "scrub_writes": float(self.scrub_writes),
            "scrub_energy_j": self.scrub_energy,
            "detector_misses": float(self.detector_misses),
            "retired": float(self.retired),
            "demand_writes": float(self.demand_writes),
        }
