"""Drift-compensated (time-aware) read references.

A complementary drift countermeasure from the device literature: if the
read circuitry knows how long ago a line was written, it can slide each
read boundary upward by the *expected* drift of the level below it,

    B_L(a) = B_L + nu_bar_L * log10(a / t0)

so a mean-drifting cell stays centered in its (moving) band forever.  What
remains is the *spread*: a cell misreads upward only when its drift
exponent exceeds the tracked mean by the guard band over ``log10(a)`` -
and, the qualitatively new failure mode, a slow cell (``nu`` well below
the mean of the level beneath its lower boundary) is eventually *overtaken
by the moving reference* and misreads downward.

Costs and caveats (why this complements rather than replaces scrub):

* the controller must track per-line (in practice per-region) write ages -
  metadata and a lookup on every read;
* compensation helps only while the age estimate is right: a region-level
  age is the *oldest* line's age, so hot lines are over-compensated
  (modelled here as exact ages, the optimistic bound);
* the spread still wins eventually: errors are delayed by orders of
  magnitude, not eliminated, so scrub remains the backstop.

:class:`CompensatedSensing` exposes the same ``spec`` /
``error_probability`` / ``sample_crossing_times`` surface as
:class:`~repro.pcm.drift.DriftModel`, so every engine (analytic mixture,
population Monte Carlo, renewal) runs unmodified on top of it.
"""

from __future__ import annotations

import math

import numpy as np

from ..params import CellSpec
from .drift import (
    DriftModel,
    _live_shifts,
    _truncated_normal_pdf,
    _truncnorm_upper_tail,
)


class CompensatedSensing:
    """Drift model under time-aware read references.

    Boundary ``B_L`` (between levels ``L`` and ``L+1``) moves with the
    tracked mean exponent of level ``L`` - the level whose upward drift
    that boundary guards against.
    """

    def __init__(self, spec: CellSpec | None = None, temperature_k: float | None = None):
        self.spec = spec if spec is not None else CellSpec()
        self._base = DriftModel(self.spec, temperature_k=temperature_k)
        self.acceleration = self._base.acceleration
        self.temperature_k = self._base.temperature_k

    def boundary_shift(self, boundary_index: int, elapsed: float) -> float:
        """Log-resistance shift applied to boundary ``boundary_index``."""
        if not 0 <= boundary_index < self.spec.num_levels - 1:
            raise ValueError("boundary index out of range")
        effective = elapsed * self.acceleration
        if effective <= self.spec.t0:
            return 0.0
        return self.spec.drift[boundary_index].nu_mean * math.log10(
            effective / self.spec.t0
        )

    # -- analytic error probability ----------------------------------------------

    def error_probability(
        self, symbol: int, elapsed: float | np.ndarray
    ) -> float | np.ndarray:
        """P(cell at ``symbol`` misreads at age ``elapsed``), two-sided.

        Upward: ``(nu - nu_bar_L) * s > B_L - r0`` with ``s = log10`` age.
        Downward: ``(nu_bar_{L-1} - nu) * s > r0 - B_{L-1}``.
        The two events are disjoint for any realistic spread (they require
        ``nu`` in opposite tails), so their probabilities add.  ``elapsed``
        is one age (returns a ``float``) or an array of ages (returns an
        array of its shape).
        """
        live, shift = _live_shifts(self, symbol, elapsed)
        out = np.zeros(live.shape)
        if shift.size:
            band = self.spec.levels[symbol]
            drift = self.spec.drift[symbol]

            grid = np.linspace(band.program_low, band.program_high, 257)
            r0_pdf = _truncated_normal_pdf(
                grid, band.program_center, self.spec.program_sigma,
                band.program_low, band.program_high,
            )

            # One row per drifting age.
            total = np.zeros((shift.size, grid.size))
            if symbol < self.spec.num_levels - 1:
                # Upward escape past the moving upper boundary.
                tracked = self.spec.drift[symbol].nu_mean
                threshold = tracked + (band.read_high - grid) / shift
                if drift.nu_sigma == 0:
                    total += (drift.nu_mean > threshold).astype(float)
                else:
                    total += _truncnorm_upper_tail(
                        threshold, drift.nu_mean, drift.nu_sigma
                    )
            if symbol > 0:
                # Overtaken from below by the boundary tracking level L-1.
                tracked_below = self.spec.drift[symbol - 1].nu_mean
                # Misread iff nu < tracked_below - (r0 - B_{L-1}) / s.
                ceiling = tracked_below - (grid - band.read_low) / shift
                if drift.nu_sigma == 0:
                    total += (drift.nu_mean < ceiling).astype(float)
                else:
                    # P(nu < ceiling) for nu ~ N truncated at 0.
                    total += 1.0 - _truncnorm_upper_tail(
                        ceiling, drift.nu_mean, drift.nu_sigma
                    )
            integrand = r0_pdf * np.clip(total, 0.0, 1.0)
            out[live] = np.trapezoid(integrand, grid, axis=-1)
        return out if out.ndim else float(out)

    # -- Monte-Carlo sampling ---------------------------------------------------------

    def sample_crossing_times(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-cell first-misread times under compensated sensing."""
        symbols = np.asarray(symbols)
        r0 = self._base.sample_programmed_resistance(symbols, rng)
        nu = self._base.sample_drift_exponent(symbols, rng)
        out = np.full(symbols.shape, np.inf)

        tracked = np.array([d.nu_mean for d in self.spec.drift])
        upper = np.array(
            [band.read_high for band in self.spec.levels], dtype=np.float64
        )
        lower = np.array(
            [band.read_low for band in self.spec.levels], dtype=np.float64
        )

        # Upward: relative exponent nu - tracked[L] against the margin.
        has_upper = symbols < self.spec.num_levels - 1
        relative_up = nu - tracked[symbols]
        can_up = has_upper & (relative_up > 0)
        if can_up.any():
            margin = np.maximum(upper[symbols[can_up]] - r0[can_up], 0.0)
            exponent = np.minimum(margin / relative_up[can_up], 300.0)
            out[can_up] = self.spec.t0 * np.power(10.0, exponent) / self.acceleration

        # Downward: overtaken when tracked[L-1] - nu > 0.
        has_lower = symbols > 0
        tracked_below = tracked[np.maximum(symbols - 1, 0)]
        relative_down = tracked_below - nu
        can_down = has_lower & (relative_down > 0)
        if can_down.any():
            margin = np.maximum(r0[can_down] - lower[symbols[can_down]], 0.0)
            exponent = np.minimum(margin / relative_down[can_down], 300.0)
            down_time = (
                self.spec.t0 * np.power(10.0, exponent) / self.acceleration
            )
            out[can_down] = np.minimum(out[can_down], down_time)
        return out
