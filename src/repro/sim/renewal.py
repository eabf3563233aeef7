"""Renewal analysis of threshold scrub: exact rates and horizon counts.

Under an idle workload, one line's life under a threshold policy is a
renewal process: it is (re)written, accumulates drift errors while scrub
visits observe it every ``T`` seconds, and the cycle ends at the first
visit whose observed count reaches the write-back threshold (a write) or
exceeds the correction strength (an uncorrectable error).  Everything the
benchmarks measure - UE rate, scrub-write rate, decode fraction - is a
ratio of cycle expectations, which this module computes exactly by
propagating the error-count distribution over visit ages:

* at age ``a_n = n*T`` a cell that had not yet crossed does so within the
  next interval with the conditional probability
  ``p_n = (F(a_{n+1}) - F(a_n)) / (1 - F(a_n))`` (``F`` is the crossing
  mixture CDF), so counts evolve by independent binomial increments;
* states ``k < theta`` survive; ``theta <= k <= t`` ends the cycle in a
  write-back; ``k > t`` ends it in a UE.

Two views of the same propagation (:meth:`RenewalModel.propagate`):

* :meth:`RenewalModel.solve` - steady-state per-second rates (cycle
  expectation ratios), the classic renewal-reward answer;
* *exact* expected counts over a finite horizon of ``V`` aligned visits
  (:class:`FiniteHorizonSolution`), via the discrete renewal recursion
  over the per-visit cycle-resolution probabilities.  This is the
  transient-corrected form: a horizon of a few cycles carries up to half
  a cycle of bias per line when approximated by ``rate x horizon``,
  which the recursion eliminates entirely.  The batched kernel
  (:mod:`repro.sim.renewal_batch`) solves it, pinned to a scalar oracle
  (:func:`repro.verify.equivalence.scalar_finite_horizon`).

The model is exact for the population engine's own assumptions (idle
lines, iid uniform symbols, no wear, single region so every visit lands
on the aligned grid ``T, 2T, ...``), which makes it a second independent
implementation to validate the Monte-Carlo engine against (benchmark A6)
- and a design tool: sweeping ``(T, t, theta)`` costs microseconds per
point instead of a simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import CrossingDistribution, _binomial_pmf

#: Propagation cap (visits per cycle) and surviving-mass tolerance, shared
#: by the scalar propagation and the batched kernel (:mod:`repro.sim.renewal_batch`).
MAX_VISITS = 20_000
TOLERANCE = 1e-12


def check_seconds(name: str, seconds: float) -> None:
    """Raise ``ValueError`` naming ``seconds`` unless it is positive and finite."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"{name} must be positive and finite seconds, got {seconds!r}")


def aligned_visits(horizon: float, interval: float) -> int:
    """Aligned scrub visits within ``horizon``: ``|{k >= 1 : k*T <= horizon}|``.

    Uses the engine's own float comparisons (a plain floor plus boundary
    fix-ups) so visits landing exactly on the horizon are counted
    identically by the simulation, the scalar solver, and the batched
    kernel (:mod:`repro.sim.renewal_batch`).
    """
    check_seconds("horizon", horizon)
    check_seconds("interval", interval)
    visits = int(math.floor(horizon / interval))
    while (visits + 1) * interval <= horizon:
        visits += 1
    while visits > 0 and visits * interval > horizon:
        visits -= 1
    return visits


@dataclass(frozen=True)
class RenewalSolution:
    """Steady-state per-line rates for one (T, t, theta) configuration."""

    #: Scrub interval (seconds).
    interval: float
    #: Expected visits per renewal cycle.
    expected_cycle_visits: float
    #: Probability a cycle ends in an uncorrectable error.
    ue_probability: float
    #: Uncorrectable errors per line per second.
    ue_rate: float
    #: Scrub write-backs per line per second (UE recoveries excluded).
    write_rate: float
    #: Fraction of visits whose line contains at least one error
    #: (= decode fraction under a detector-gated scheme).
    error_visit_fraction: float

    @property
    def writes_per_visit(self) -> float:
        """Scrub writes per line visit (compare against ledger ratios)."""
        return self.write_rate * self.interval


@dataclass(frozen=True)
class FiniteHorizonSolution:
    """Exact per-line expectations over a finite horizon of ``V`` visits.

    All quantities are per *line*; multiply by the population size for
    device/fleet totals.  ``expected_ue``/``expected_writes`` are exact
    expectations of the engine's ledger counters (no steady-state
    approximation), and ``no_ue_probability`` is the exact probability a
    line survives the whole horizon without an uncorrectable error.
    """

    #: Scrub interval (seconds).
    interval: float
    #: Requested horizon (seconds).
    horizon: float
    #: Aligned scrub visits within the horizon (``k*T <= horizon``).
    visits: int
    #: Expected uncorrectable errors per line over the horizon.
    expected_ue: float
    #: Expected scrub write-backs per line (UE recoveries excluded).
    expected_writes: float
    #: Probability the line sees zero uncorrectable errors.
    no_ue_probability: float

    @property
    def ue_rate(self) -> float:
        """Horizon-averaged UE rate per line per second."""
        return self.expected_ue / self.horizon if self.horizon > 0 else 0.0

    @property
    def write_rate(self) -> float:
        """Horizon-averaged write-back rate per line per second."""
        return self.expected_writes / self.horizon if self.horizon > 0 else 0.0


class RenewalModel:
    """Exact threshold-scrub renewal solver over a crossing distribution."""

    def __init__(self, distribution: CrossingDistribution, cells_per_line: int):
        if cells_per_line <= 0:
            raise ValueError("cells_per_line must be positive")
        self.distribution = distribution
        self.cells_per_line = cells_per_line

    def propagate(
        self, interval: float, t_ecc: int, threshold: int, max_visits: int
    ) -> tuple[list[float], list[float], float, float, float, float, float]:
        """One fresh cycle's count-state propagation over visit ages.

        Returns ``(ue_by_visit, write_by_visit, end_ue, end_write,
        expected_visits, error_visits, leftover)`` where the per-visit
        lists hold the probability that the cycle resolves (in a UE /
        write-back) exactly at visit ``m`` (1-indexed; entry ``m - 1``),
        and the scalars are accumulated in the same order as always so
        :meth:`solve` stays bit-identical to its historical results.
        """
        check_seconds("interval", interval)
        if not 1 <= threshold <= t_ecc:
            raise ValueError("need 1 <= threshold <= t_ecc")
        C = self.cells_per_line

        # Surviving states: error counts 0..threshold-1.
        survive = np.zeros(threshold)
        survive[0] = 1.0

        ue_by_visit: list[float] = []
        write_by_visit: list[float] = []
        end_write = 0.0
        end_ue = 0.0
        expected_visits = 0.0
        error_visits = 0.0
        prev_f = 0.0

        for n in range(1, max_visits + 1):
            age = n * interval
            f = float(self.distribution.cdf(age))
            denom = 1.0 - prev_f
            p_step = 0.0 if denom <= 0 else min(1.0, (f - prev_f) / denom)
            prev_f = f

            alive = float(survive.sum())
            if alive <= TOLERANCE:
                break
            expected_visits += alive

            visit_write = 0.0
            visit_ue = 0.0
            next_survive = np.zeros(threshold)
            for k in range(threshold):
                mass = survive[k]
                if mass <= 0:
                    continue
                remaining = C - k
                # Increments j = 0..(t_ecc - k) kept explicitly; beyond is UE.
                pmf = _binomial_pmf(remaining, p_step, t_ecc - k)
                for j, pj in enumerate(pmf):
                    total = k + j
                    share = mass * float(pj)
                    if share == 0.0:
                        continue
                    if total < threshold:
                        next_survive[total] += share
                        if total > 0:
                            error_visits += share
                    else:  # threshold <= total <= t_ecc: write-back
                        end_write += share
                        visit_write += share
                        error_visits += share
                ue_share = mass * max(0.0, 1.0 - float(pmf.sum()))
                end_ue += ue_share
                visit_ue += ue_share
                error_visits += ue_share
            ue_by_visit.append(visit_ue)
            write_by_visit.append(visit_write)
            survive = next_survive

        leftover = float(survive.sum())
        return (
            ue_by_visit, write_by_visit, end_ue, end_write,
            expected_visits, error_visits, leftover,
        )

    def solve(self, interval: float, t_ecc: int, threshold: int) -> RenewalSolution:
        """Propagate the count distribution until the cycle resolves.

        ``threshold`` in ``[1, t_ecc]`` as for the policies; ``threshold=1``
        recovers the immediate-write-back (basic/strong/light) algorithm.
        """
        (
            _, _, end_ue, end_write, expected_visits, error_visits, leftover,
        ) = self.propagate(interval, t_ecc, threshold, MAX_VISITS)

        resolved = end_write + end_ue
        if resolved + leftover < 1e-6:
            raise RuntimeError("renewal propagation lost probability mass")
        # Treat truncated mass as censored at max_visits (conservative: it
        # inflates the cycle length but ends in neither write nor UE).
        total_cycles = resolved if resolved > 0 else 1.0
        cycle_visits = expected_visits / total_cycles
        cycle_seconds = cycle_visits * interval
        return RenewalSolution(
            interval=interval,
            expected_cycle_visits=cycle_visits,
            ue_probability=end_ue / total_cycles,
            ue_rate=(end_ue / total_cycles) / cycle_seconds,
            write_rate=(end_write / total_cycles) / cycle_seconds,
            error_visit_fraction=error_visits / max(expected_visits, 1e-300),
        )
