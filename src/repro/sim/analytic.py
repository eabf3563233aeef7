"""Closed-form error models and the crossing-time mixture distribution.

Two consumers:

* Benchmarks that sweep design spaces (UE probability vs scrub interval per
  ECC strength, experiment E4) want instant closed forms - binomial tails
  over the per-cell drift error probability.
* The population Monte-Carlo engine needs to draw, per line, the *smallest
  few* crossing times of its cells.  For cells holding iid uniform symbols
  the crossing times are iid draws from the level mixture; the engine
  samples their order statistics through the inverse CDF tabulated here.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache

import numpy as np

from ..params import CellSpec
from ..pcm.drift import DriftModel

#: Bumped whenever the tabulation layout or semantics change; stale disk
#: cache entries from older formats are silently ignored.
TABULATION_FORMAT = 1

#: Default log-time grid size shared by the tabulator, the cache key, and
#: the disk-cache loader, so the loader can never drift from the default.
TABULATION_POINTS = 768

#: Grid ages per ``error_probability`` call while tabulating.  Each call
#: integrates an ``(ages, 257)`` array; chunking bounds that working set
#: without costing speed.
TABULATION_CHUNK = 64


class CrossingDistribution:
    """CDF (and inverse) of a random cell's drift crossing time.

    A "random cell" holds a uniformly random symbol; its crossing time is a
    mixture over levels of the per-level crossing distribution, with an atom
    at infinity for the mass that never crosses (the top level, and slow
    tails of the others).  The CDF is tabulated on a log-time grid from the
    analytic per-level error probability and inverted by interpolation.

    Parameters
    ----------
    spec:
        Cell specification.
    temperature_k:
        Operating temperature.
    t_min, t_max:
        Grid range in seconds.  ``t_max`` bounds the horizon the inverse is
        accurate over; crossing times beyond it are treated as infinity
        (irrelevant for any scrub study at practical horizons).
    points:
        Log-grid resolution.
    model:
        Error-probability model to tabulate; any object exposing
        ``spec`` and ``error_probability(level, elapsed)``.  ``elapsed``
        must be allowed to be an array of ages, answered with an array of
        its shape: the tabulation asks for a chunk of grid ages per call.
        Defaults to the plain :class:`~repro.pcm.drift.DriftModel`; pass a
        :class:`~repro.pcm.reference.CompensatedSensing` to study
        time-aware read references with the same engines.
    """

    def __init__(
        self,
        spec: CellSpec | None = None,
        temperature_k: float | None = None,
        t_min: float = 1e-2,
        t_max: float = 1e12,
        points: int = TABULATION_POINTS,
        model=None,
        _tabulation: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        if not 0 < t_min < t_max < math.inf:
            raise ValueError(
                f"need 0 < t_min < t_max < inf, got t_min={t_min}, t_max={t_max}"
            )
        if points < 8:
            raise ValueError("points must be >= 8")
        if model is not None:
            self.spec = model.spec
            self.drift = model
        else:
            self.spec = spec if spec is not None else CellSpec()
            self.drift = DriftModel(self.spec, temperature_k=temperature_k)
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.points = int(points)
        levels = self.spec.num_levels
        if _tabulation is not None:
            # Precomputed grid (e.g. loaded from the disk cache); trusted to
            # match this model - callers must key the arrays correctly.
            grid, per_level = _tabulation
            if grid.shape != (points,) or per_level.shape != (levels, points):
                raise ValueError("tabulation arrays do not match grid params")
            self.grid = np.ascontiguousarray(grid, dtype=np.float64)
            per_level = np.ascontiguousarray(per_level, dtype=np.float64)
        else:
            self.grid = np.logspace(math.log10(t_min), math.log10(t_max), points)
            per_level = np.zeros((levels, points))
            for level in range(levels):
                for start in range(0, points, TABULATION_CHUNK):
                    chunk = slice(start, start + TABULATION_CHUNK)
                    per_level[level, chunk] = self.drift.error_probability(
                        level, self.grid[chunk]
                    )
        #: Per-level CDFs on the grid (row = level).
        self.per_level_cdf = per_level
        #: Mixture CDF for a uniformly random symbol.
        self.cdf_values = per_level.mean(axis=0)
        # Enforce monotonicity against integration noise.
        self.cdf_values = np.maximum.accumulate(self.cdf_values)
        #: Probability that a random cell ever crosses within the grid.
        self.max_probability = float(self.cdf_values[-1])

    # -- forward ------------------------------------------------------------

    def cdf(self, t: float | np.ndarray) -> np.ndarray:
        """P(crossing time <= t) for a uniformly random cell."""
        t = np.asarray(t, dtype=np.float64)
        out = np.interp(t, self.grid, self.cdf_values, left=0.0, right=self.max_probability)
        return out

    def level_cdf(self, level: int, t: float | np.ndarray) -> np.ndarray:
        """P(crossing time <= t) for a cell at a specific level."""
        if not 0 <= level < self.spec.num_levels:
            raise ValueError(f"level {level} out of range")
        t = np.asarray(t, dtype=np.float64)
        return np.interp(
            t, self.grid, self.per_level_cdf[level],
            left=0.0, right=float(self.per_level_cdf[level][-1]),
        )

    # -- inverse ---------------------------------------------------------------

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF; probabilities above the crossing mass map to inf."""
        u = np.asarray(u, dtype=np.float64)
        out = np.full(u.shape, np.inf)
        finite = u < self.max_probability
        if finite.any():
            out[finite] = np.interp(u[finite], self.cdf_values, self.grid)
        return out

    # -- order-statistics sampling ----------------------------------------------

    def sample_smallest(
        self,
        num_lines: int,
        cells_per_line: int,
        keep: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw the ``keep`` smallest crossing times for each of many lines.

        Uses the uniform order-statistics recurrence
        ``u_(i+1) = u_(i) + (1 - u_(i)) * (1 - V^(1/(C-i)))`` with
        ``V ~ U(0,1)``, i.e. ``1 - u_(i)`` is the running product of
        ``V_j^(1/(C-j))``, then maps through the inverse CDF.  All
        ``num_lines * keep`` uniforms are drawn in one generator call and
        the recurrence collapses to a row-wise cumulative product, so the
        cost is one vectorized pass regardless of ``cells_per_line`` - the
        trick that makes year-scale population simulation cheap.

        Returns an array of shape ``(num_lines, keep)``, ascending along
        axis 1, with ``inf`` past the line's last crossing.
        """
        if keep <= 0:
            raise ValueError("keep must be positive")
        if keep > cells_per_line:
            raise ValueError("cannot keep more order statistics than cells")
        v = rng.random((num_lines, keep))
        # 1 - u_(i) = prod_{j <= i} V_j^(1/(C-j)): min of C-j remaining
        # uniforms on (u_(j-1), 1), telescoped into one cumulative product.
        exponents = 1.0 / (cells_per_line - np.arange(keep))
        u = 1.0 - np.cumprod(np.power(v, exponents), axis=1)
        return self.quantile(u)

    # -- identity ---------------------------------------------------------------

    def content_hash(self) -> str:
        """Hash of the tabulated arrays this distribution evaluates from.

        Two distributions with equal hashes produce bit-identical ``cdf``/
        ``quantile`` answers, whatever model produced the tabulation - the
        property the renewal propagation memo keys on
        (:mod:`repro.sim.renewal_batch`).  Computed once and cached on the
        instance (the arrays are never mutated after construction).
        """
        cached = getattr(self, "_content_hash", None)
        if cached is None:
            digest = hashlib.sha256()
            digest.update(repr(self.grid.shape).encode())
            digest.update(np.ascontiguousarray(self.grid).tobytes())
            digest.update(repr(self.per_level_cdf.shape).encode())
            digest.update(np.ascontiguousarray(self.per_level_cdf).tobytes())
            cached = digest.hexdigest()
            self._content_hash = cached
        return cached


# -- tabulation cache key -------------------------------------------------------


def tabulation_cache_key(
    spec: CellSpec,
    temperature_k: float | None,
    compensated: bool = False,
    t_min: float = 1e-2,
    t_max: float = 1e12,
    points: int = TABULATION_POINTS,
) -> str:
    """Content hash identifying one tabulated crossing distribution.

    Everything the tabulated arrays depend on goes into the hash: the full
    cell specification (dataclass repr covers every field), the operating
    temperature, whether a drift-compensated reference model was used, and
    the log-grid parameters.  Two configurations with equal keys have
    bit-identical tabulations.
    """
    if temperature_k is None:
        temperature_k = spec.reference_temperature_k
    payload = "|".join(
        [
            f"v{TABULATION_FORMAT}",
            repr(spec),
            repr(float(temperature_k)),
            repr(bool(compensated)),
            repr((float(t_min), float(t_max), int(points))),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class AnalyticModel:
    """Closed-form line and population failure math.

    All methods assume errors strike cells independently with the mixture
    probability from :class:`CrossingDistribution` - exact for iid uniform
    data, and the same assumption the Monte-Carlo engine samples from.
    """

    def __init__(self, distribution: CrossingDistribution, cells_per_line: int):
        if cells_per_line <= 0:
            raise ValueError("cells_per_line must be positive")
        self.distribution = distribution
        self.cells_per_line = cells_per_line

    def cell_error_probability(self, elapsed: float) -> float:
        """P(random cell misreads ``elapsed`` seconds after its write)."""
        return float(self.distribution.cdf(elapsed))

    def line_error_count_pmf(self, elapsed: float, max_k: int) -> np.ndarray:
        """PMF of the number of drifted cells in a line, k = 0..max_k.

        Binomial(C, p) with p the mixture probability.  The last entry is
        NOT a tail: callers wanting P(k > t) should use
        :meth:`line_failure_probability`.
        """
        p = self.cell_error_probability(elapsed)
        return _binomial_pmf(self.cells_per_line, p, max_k)

    def line_failure_probability(self, elapsed: float, t_ecc: int) -> float:
        """P(more than ``t_ecc`` drifted cells ``elapsed`` s after write).

        This is the per-visit UE probability of a line scrubbed (and fully
        rewritten) every ``elapsed`` seconds.
        """
        if t_ecc < 0:
            raise ValueError("t_ecc must be >= 0")
        p = self.cell_error_probability(elapsed)
        return _binomial_tail(self.cells_per_line, p, t_ecc)

    def expected_errors_per_line(self, elapsed: float) -> float:
        """Mean drifted cells per line after ``elapsed`` seconds."""
        return self.cells_per_line * self.cell_error_probability(elapsed)

    def ue_rate_per_line(self, scrub_interval: float, t_ecc: int) -> float:
        """Long-run uncorrectable errors per line per second.

        With write-back every scrub, each interval is an independent trial
        failing with :meth:`line_failure_probability`.
        """
        if scrub_interval <= 0:
            raise ValueError("scrub_interval must be positive")
        return self.line_failure_probability(scrub_interval, t_ecc) / scrub_interval

    def ue_per_population(
        self, scrub_interval: float, t_ecc: int, num_lines: int, horizon: float
    ) -> float:
        """Expected UE count over ``horizon`` for ``num_lines`` lines."""
        if horizon < 0 or num_lines < 0:
            raise ValueError("horizon and num_lines must be >= 0")
        return self.ue_rate_per_line(scrub_interval, t_ecc) * num_lines * horizon

    def required_interval(
        self, t_ecc: int, target_failure_probability: float,
        low: float = 1e-1, high: float = 1e10,
    ) -> float:
        """Largest scrub interval whose per-visit line-failure probability
        stays at or below ``target_failure_probability``.

        :meth:`line_failure_probability` is monotone increasing in the
        interval, so geometric bisection applies.  Returns ``high`` when
        even the longest interval meets the target.
        """
        if not 0 < target_failure_probability < 1:
            raise ValueError("target probability must be in (0, 1)")
        if self.line_failure_probability(high, t_ecc) <= target_failure_probability:
            return high
        if self.line_failure_probability(low, t_ecc) > target_failure_probability:
            raise ValueError("target unreachable even at the shortest interval")
        for _ in range(200):
            mid = math.sqrt(low * high)
            if self.line_failure_probability(mid, t_ecc) <= target_failure_probability:
                low = mid
            else:
                high = mid
        return low


def _binomial_pmf(n: int, p: float, max_k: int) -> np.ndarray:
    """PMF of Binomial(n, p) for k = 0..max_k, numerically stable in logs."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    max_k = min(max_k, n)
    ks = np.arange(max_k + 1)
    if p == 0:
        out = np.zeros(max_k + 1)
        out[0] = 1.0
        return out
    if p == 1:
        out = np.zeros(max_k + 1)
        if max_k == n:
            out[-1] = 1.0
        return out
    log_terms = (
        _log_comb(n, ks)
        + ks * math.log(p)
        + (n - ks) * math.log1p(-p)
    )
    return np.exp(log_terms)


def _binomial_tail(n: int, p: float, t: int) -> float:
    """P(Binomial(n, p) > t), computed as the complement of the head sum.

    Tails below the double-precision noise floor of ``1 - head``
    (~2.2e-16) are reported as exactly 0 rather than as rounding residue.
    """
    if t >= n:
        return 0.0
    pmf = _binomial_pmf(n, p, t)
    head = float(pmf.sum())
    tail = 1.0 - head
    if tail < 1e-15:
        return 0.0
    return min(1.0, tail)


@lru_cache(maxsize=None)
def _log_factorials(n: int) -> np.ndarray:
    from math import lgamma

    return np.array([lgamma(i + 1) for i in range(n + 1)])


def _log_comb(n: int, ks: np.ndarray) -> np.ndarray:
    table = _log_factorials(n)
    return table[n] - table[ks] - table[n - ks]
