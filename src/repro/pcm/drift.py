"""Resistance drift: the power law, crossing times, and temperature.

The core physical model, taken from the device literature the paper builds
on, is

    R(t) = R0 * (t / t0) ** nu            (t >= t0)

or equivalently, in log10 space,

    r(t) = r0 + nu * log10(t / t0)

where ``r0`` is the programmed log10 resistance and ``nu`` is a per-cell
drift exponent drawn from a level-dependent Gaussian, truncated at zero
(drift only ever increases resistance).  A cell stored at level ``L`` is
misread once ``r(t)`` crosses the upper read boundary ``B_L`` of its level,
which happens at the deterministic *crossing time*

    t_cross = t0 * 10 ** ((B_L - r0) / nu)

This determinism is the engine of the whole reproduction: the Monte-Carlo
population simulator draws ``(r0, nu)`` once per cell per write, converts
them to a crossing time, and then plays scrub and demand events against
sorted crossing times instead of stepping resistance forward in time.

Temperature enters through Arrhenius acceleration of structural relaxation:
at temperature ``T`` the drift clock runs faster than at the reference
temperature by

    AF(T) = exp( (Ea / k) * (1/T_ref - 1/T) )

so wall-clock crossing times shrink by ``AF``.
"""

from __future__ import annotations

import math

import numpy as np

from .. import units
from ..params import CellSpec


def arrhenius_acceleration(
    temperature_k: float,
    reference_temperature_k: float,
    activation_energy_ev: float,
) -> float:
    """Drift-clock acceleration factor at ``temperature_k``.

    Returns 1.0 at the reference temperature, > 1 above it.

    >>> round(arrhenius_acceleration(300.0, 300.0, 0.2), 6)
    1.0
    """
    if not (0 < temperature_k < math.inf and 0 < reference_temperature_k < math.inf):
        raise ValueError(
            "temperatures must be positive, finite kelvin, "
            f"got {temperature_k} and reference {reference_temperature_k}"
        )
    exponent = (activation_energy_ev / units.BOLTZMANN_EV) * (
        1.0 / reference_temperature_k - 1.0 / temperature_k
    )
    return math.exp(exponent)


class DriftModel:
    """Sampling and closed-form drift math for one :class:`CellSpec`.

    All randomness flows through explicit ``numpy.random.Generator`` objects
    so experiments are reproducible from a single seed.
    """

    def __init__(self, spec: CellSpec, temperature_k: float | None = None):
        self.spec = spec
        self.temperature_k = (
            spec.reference_temperature_k if temperature_k is None else temperature_k
        )
        self.acceleration = arrhenius_acceleration(
            self.temperature_k,
            spec.reference_temperature_k,
            spec.activation_energy_ev,
        )

    # -- parameter sampling ---------------------------------------------------

    def sample_programmed_resistance(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw programmed log10 resistances for an array of symbols.

        Program-and-verify iterates until the cell lands inside the program
        band, so the distribution is a Gaussian around the band center,
        truncated to the band (implemented by redraw, which is exact).
        """
        symbols = np.asarray(symbols)
        out = np.empty(symbols.shape, dtype=np.float64)
        for level, band in enumerate(self.spec.levels):
            mask = symbols == level
            count = int(mask.sum())
            if not count:
                continue
            out[mask] = _truncated_normal(
                rng,
                mean=band.program_center,
                sigma=self.spec.program_sigma,
                low=band.program_low,
                high=band.program_high,
                size=count,
            )
        return out

    def sample_drift_exponent(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw per-cell drift exponents, truncated at zero."""
        symbols = np.asarray(symbols)
        out = np.empty(symbols.shape, dtype=np.float64)
        for level, drift in enumerate(self.spec.drift):
            mask = symbols == level
            count = int(mask.sum())
            if not count:
                continue
            if drift.nu_sigma == 0:
                out[mask] = drift.nu_mean
            else:
                out[mask] = _truncated_normal(
                    rng,
                    mean=drift.nu_mean,
                    sigma=drift.nu_sigma,
                    low=0.0,
                    high=math.inf,
                    size=count,
                )
        return out

    # -- forward evolution ------------------------------------------------------

    def resistance_at(
        self,
        r0: np.ndarray,
        nu: np.ndarray,
        elapsed: float,
    ) -> np.ndarray:
        """Log10 resistance after ``elapsed`` wall-clock seconds since write."""
        if elapsed < 0:
            raise ValueError("elapsed time must be >= 0")
        effective = elapsed * self.acceleration
        if effective <= self.spec.t0:
            # The power law is anchored at t0; before that the cell has not
            # measurably relaxed.
            return np.asarray(r0, dtype=np.float64).copy()
        shift = math.log10(effective / self.spec.t0)
        return np.asarray(r0) + np.asarray(nu) * shift

    # -- crossing times ------------------------------------------------------------

    def crossing_time(
        self,
        symbols: np.ndarray,
        r0: np.ndarray,
        nu: np.ndarray,
    ) -> np.ndarray:
        """Wall-clock seconds after write at which each cell misreads.

        Cells in the top level, or with ``nu == 0``, never cross: they get
        ``inf``.  The returned times fold in the Arrhenius acceleration, so
        they are directly comparable to simulation wall-clock.
        """
        symbols = np.asarray(symbols)
        r0 = np.asarray(r0, dtype=np.float64)
        nu = np.asarray(nu, dtype=np.float64)
        boundaries = np.array(
            [band.read_high for band in self.spec.levels], dtype=np.float64
        )
        boundaries[-1] = np.inf
        upper = boundaries[symbols]

        out = np.full(symbols.shape, np.inf, dtype=np.float64)
        finite = np.isfinite(upper) & (nu > 0)
        if finite.any():
            margin = upper[finite] - r0[finite]
            # margin <= 0 would mean the cell was programmed outside its read
            # band, which program-and-verify forbids; guard anyway.
            margin = np.maximum(margin, 0.0)
            exponent = margin / nu[finite]
            # Cap the exponent so 10**x cannot overflow: beyond ~1e300 s the
            # cell is immortal for any practical horizon.
            exponent = np.minimum(exponent, 300.0)
            out[finite] = self.spec.t0 * np.power(10.0, exponent) / self.acceleration
        return out

    def sample_crossing_times(
        self, symbols: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw (r0, nu) for freshly-written cells and return crossing times.

        This is the one-call path the population engine uses on every line
        (re)write.
        """
        r0 = self.sample_programmed_resistance(symbols, rng)
        nu = self.sample_drift_exponent(symbols, rng)
        return self.crossing_time(symbols, r0, nu)

    # -- analytic error probability ---------------------------------------------

    def error_probability(
        self, symbol: int, elapsed: float | np.ndarray
    ) -> float | np.ndarray:
        """Closed-form P(cell at ``symbol`` misreads within ``elapsed`` s).

        Integrates the truncated-Gaussian ``r0`` against the Gaussian ``nu``:
        the cell errs iff ``nu > (B - r0) / log10(t_eff / t0)``.  ``elapsed``
        is one age (returns a ``float``) or an array of ages (returns an
        array of its shape).  Used to validate the Monte-Carlo engine
        (experiment E2), for the fast analytic UE model, and to tabulate
        :class:`~repro.sim.analytic.CrossingDistribution`.
        """
        live, shift = _live_shifts(self, symbol, elapsed)
        out = np.zeros(live.shape)
        if symbol < self.spec.num_levels - 1 and shift.size:
            band = self.spec.levels[symbol]
            drift = self.spec.drift[symbol]
            # Numerical integration over the truncated-normal r0 distribution,
            # one row per drifting age.  257-point trapezoid over the program
            # band is far more than enough for the smooth integrand.
            grid = np.linspace(band.program_low, band.program_high, 257)
            r0_pdf = _truncated_normal_pdf(
                grid, band.program_center, self.spec.program_sigma,
                band.program_low, band.program_high,
            )
            threshold = (band.read_high - grid) / shift
            if drift.nu_sigma == 0:
                err_given_r0 = (threshold < drift.nu_mean).astype(float)
            else:
                # P(nu > threshold) under N(mean, sigma) truncated at 0.
                err_given_r0 = _truncnorm_upper_tail(
                    threshold, drift.nu_mean, drift.nu_sigma
                )
            out[live] = np.trapezoid(r0_pdf * err_given_r0, grid, axis=-1)
        return out if out.ndim else float(out)


def _live_shifts(
    model, symbol: int, elapsed: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate an ``error_probability`` call and find its drifting ages.

    The age handling both analytic models share.  ``symbol`` must be a
    level and every age ``>= 0``, which a NaN fails.  Returns the mask, in
    the shape of ``elapsed``, of the ages whose accelerated clock has
    passed ``t0`` (the rest have not drifted: probability 0), and a column
    of their ``log10(t_eff / t0)`` shifts, one row per masked age.  Each
    shift is a scalar :func:`math.log10`; ``np.log10`` differs from it in
    the last bit on some SIMD hosts, which would move every tabulation.
    """
    if not 0 <= symbol < model.spec.num_levels:
        raise ValueError(f"symbol {symbol} out of range")
    ages = np.asarray(elapsed, dtype=np.float64)
    bad = ages[~(ages >= 0)]
    if bad.size:
        raise ValueError(f"elapsed time must be >= 0, got {bad[0]}")
    t0 = model.spec.t0
    effective = ages * model.acceleration
    live = effective > t0
    shift = np.array([math.log10(age / t0) for age in effective[live].tolist()])
    return live, shift[:, None]


# ---------------------------------------------------------------------------
# Truncated-normal helpers
# ---------------------------------------------------------------------------


def _truncated_normal(
    rng: np.random.Generator,
    mean: float,
    sigma: float,
    low: float,
    high: float,
    size: int,
) -> np.ndarray:
    """Exact truncated-normal sampling by redraw (rejection)."""
    if sigma == 0:
        if not low <= mean <= high:
            raise ValueError("degenerate distribution outside truncation bounds")
        return np.full(size, mean)
    out = rng.normal(mean, sigma, size)
    bad = (out < low) | (out > high)
    # Rejection loop: the acceptance probability in every use here is large
    # (program band is +-2 sigma; nu truncation at 0 is >2.5 sigma away), so
    # this converges in a couple of rounds.
    while bad.any():
        out[bad] = rng.normal(mean, sigma, int(bad.sum()))
        bad = (out < low) | (out > high)
    return out


def _phi(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF."""
    from scipy.special import erf

    return 0.5 * (1.0 + erf(np.asarray(x) / math.sqrt(2.0)))


def _truncated_normal_pdf(
    x: np.ndarray, mean: float, sigma: float, low: float, high: float
) -> np.ndarray:
    """PDF of N(mean, sigma) truncated to [low, high], evaluated on ``x``."""
    if sigma == 0:
        raise ValueError("degenerate truncated normal has no density")
    z = (np.asarray(x) - mean) / sigma
    pdf = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))
    mass = float(_phi(np.array([(high - mean) / sigma]))[0]) - float(
        _phi(np.array([(low - mean) / sigma]))[0]
    )
    if mass <= 0:
        raise ValueError("truncation interval has zero probability mass")
    return pdf / mass


def _truncnorm_upper_tail(
    threshold: np.ndarray, mean: float, sigma: float
) -> np.ndarray:
    """P(X > threshold) for X ~ N(mean, sigma) truncated at 0 from below."""
    threshold = np.asarray(threshold, dtype=np.float64)
    z_zero = (0.0 - mean) / sigma
    mass = 1.0 - float(_phi(np.array([z_zero]))[0])
    z = (threshold - mean) / sigma
    raw_tail = 1.0 - _phi(z)
    # For thresholds below 0 the truncated variable always exceeds them.
    tail = np.where(threshold <= 0.0, 1.0, raw_tail / mass)
    return np.clip(tail, 0.0, 1.0)
