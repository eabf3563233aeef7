"""Statistical cross-validation of the Monte-Carlo engine against models.

The repository carries three independent implementations of the same
physics: the Monte-Carlo engine (:mod:`repro.sim.population`), the
closed-form single-visit model (:class:`repro.sim.analytic.AnalyticModel`),
and the steady-state renewal solver (:class:`repro.sim.renewal.RenewalModel`).
This module runs the engine over a configuration grid and checks that its
counts land inside statistically principled bands around each model's
prediction.

Two regimes, because the models answer different questions:

* **Single visit** (``analytic_equivalence``).  Scrub policies do not
  rewrite error-free lines, so per-visit independence only holds on a
  fresh population.  We therefore run exactly one scrub pass (single
  region, horizon just past one interval) and compare the uncorrectable
  count against ``N x line_failure_probability(T, t)``.  The UE count is
  a sum of N i.i.d. Bernoulli trials with small p, so the exact Garwood
  Poisson interval on the observed count must cover the expectation.

* **Finite horizon** (``renewal_equivalence``).  Multi-visit dynamics -
  lines accumulating errors across visits until a threshold write-back
  or a UE resets them - are exactly a renewal process when the policy is
  a pure threshold rule with no detector, no demand traffic, and no
  endurance.  We compare horizon totals for uncorrectables *and* scrub
  write-backs against the *exact* finite-horizon expectation from the
  production kernel (:func:`repro.sim.renewal_batch.finite_horizon_batch`,
  one call for the whole grid), which resolves the discrete renewal
  recursion over aligned visits instead of approximating by ``rate x
  horizon`` (that approximation carries up to half a renewal cycle of
  bias per line and used to force a 12% floor on the band).  With the
  transient gone the only residual is sampling noise, so the band is
  the pure relative ladder ``z / sqrt(expected)``
  (see :data:`RENEWAL_REL_Z`): UEs are rare per line and Poisson-like,
  and write-back counts are renewal counts whose cycle-length dispersion
  is sub-Poisson, so Poisson width bounds both.

Both grids reuse the run pipeline end-to-end (``run_many``), so an
equivalence pass also exercises the process-pool path, the distribution
cache, and the stats ledger the invariant checker audits.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .. import units
from ..analysis.stats import poisson_interval
from ..fields import dump
from ..sim.analytic import AnalyticModel
from ..sim.config import SimulationConfig
from ..sim.parallel import RunSpec, run_many
from ..sim.renewal import (
    MAX_VISITS, FiniteHorizonSolution, RenewalModel, aligned_visits,
)
from ..sim.renewal_batch import RenewalTask, finite_horizon_batch
from ..sim.runner import crossing_distribution_for

#: Sampling multiplier for the renewal band: ``z / sqrt(expected)`` is a
#: z-sigma Poisson interval in relative terms.  The expectation is the
#: exact finite-horizon renewal solution, so no transient floor is needed
#: - the band is pure sampling width (4 sigma keeps the family-wise false
#: alarm rate across the grid's 18 comparisons well under 0.1%, while a
#: broken threshold rule shifts counts by 2x or more).
RENEWAL_REL_Z = 4.0

#: Relative-error floor for the batch-vs-scalar comparison.  The two runs
#: share a seed but the batch engine consumes the workload and population
#: streams in a different order (see :mod:`repro.sim.batch`), so they are
#: effectively two independent samples of the same process: the paired
#: difference scales like ``sqrt(2)`` of one run's sampling noise plus a
#: small trajectory-divergence term.  Measured slack on the default grid
#: is under 7%; 10% keeps headroom without admitting real regressions.
BATCH_REL_FLOOR = 0.10

#: Sampling multiplier for the batch ladder: ``z * sqrt(2 / expected)``
#: is a z-sigma band on the difference of two independent Poisson-like
#: counts of the same mean, in relative terms.
BATCH_REL_Z = 4.0

#: Relative tolerance for the batched renewal kernel against the scalar
#: recursion.  Both paths perform the same float operations in the same
#: order per device up to numpy-vs-libm transcendental rounding (log/exp
#: differ by <= 1 ulp) and dot-product summation order, so the observed
#: divergence is ~1e-15; 1e-9 leaves six orders of headroom while still
#: failing loudly on any real algorithmic drift.
SURROGATE_REL_TOL = 1e-9


@dataclass(frozen=True)
class EquivalenceRow:
    """One grid point x metric comparison."""

    #: Which cross-check produced the row (``analytic`` or ``renewal``).
    check: str
    #: Human-readable grid point, e.g. ``"T=4.0h t=3"``.
    label: str
    #: Ledger metric compared (``uncorrectable`` or ``scrub_writes``).
    metric: str
    #: Monte-Carlo count.
    observed: float
    #: Model prediction.
    expected: float
    #: Acceptance band (inclusive).
    low: float
    high: float
    passed: bool

    def to_dict(self) -> dict:
        return dump(self)


@dataclass(frozen=True)
class EquivalenceReport:
    """All rows from one cross-validation sweep."""

    rows: tuple[EquivalenceRow, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> tuple[EquivalenceRow, ...]:
        return tuple(row for row in self.rows if not row.passed)

    def to_dict(self) -> dict:
        return {"passed": self.passed, **dump(self)}


def analytic_grid(quick: bool = False) -> list[tuple[float, int]]:
    """(interval, ECC strength) points for the single-visit comparison.

    Chosen so expected UE counts span roughly 10 to 5000 at the default
    population - enough mass for tight Poisson bands at the top and a
    meaningful zero-inflation check at the bottom.
    """
    intervals = [4 * units.HOUR, 8 * units.HOUR, 12 * units.HOUR]
    strengths = [2, 3, 4]
    if quick:
        intervals = intervals[1:]
        strengths = strengths[:2]
    return [(interval, t) for interval in intervals for t in strengths]


def renewal_grid(quick: bool = False) -> list[tuple[float, int]]:
    """(interval, ECC strength) points for the steady-state comparison."""
    intervals = [2 * units.HOUR, 3 * units.HOUR, 4 * units.HOUR]
    strengths = [3, 4, 6]
    if quick:
        intervals = intervals[:2]
        strengths = strengths[:2]
    return [(interval, t) for interval in intervals for t in strengths]


def _single_visit_config(
    interval: float, num_lines: int, seed: int
) -> SimulationConfig:
    """Exactly one scrub visit per line: single region, horizon 1.5T.

    With one region the scheduler fires at ``k x interval`` exactly, so a
    horizon of 1.5 intervals contains the first full pass and nothing
    else, and no float boundary ties arise.
    """
    return SimulationConfig(
        num_lines=num_lines,
        region_size=num_lines,
        horizon=1.5 * interval,
        seed=seed,
        endurance=None,
    )


def analytic_equivalence(
    seed: int = 2012,
    jobs: int = 1,
    quick: bool = False,
    confidence: float = 0.9999,
) -> EquivalenceReport:
    """MC single-visit UE counts vs the closed-form analytic model.

    The acceptance band is the exact Poisson interval on the *observed*
    count at a very high confidence (a sweep is many simultaneous tests;
    the default keeps the family-wise false-alarm rate well under 1%),
    and passing requires it to cover the model's expectation.
    """
    grid = analytic_grid(quick)
    num_lines = 4096 if quick else 16384
    specs = [
        RunSpec(
            policy="threshold",
            config=_single_visit_config(interval, num_lines, seed),
            policy_kwargs={
                "interval": interval,
                "strength": t,
                "threshold": 1,
                "with_detector": False,
            },
        )
        for interval, t in grid
    ]
    results = run_many(specs, jobs=jobs)

    rows = []
    for (interval, t), result in zip(grid, results):
        model = AnalyticModel(
            crossing_distribution_for(result.config),
            result.config.cells_per_line,
        )
        expected = float(num_lines * model.line_failure_probability(interval, t))
        observed = float(result.stats.uncorrectable)
        low, high = poisson_interval(result.stats.uncorrectable, confidence)
        rows.append(
            EquivalenceRow(
                check="analytic",
                label=f"T={interval / units.HOUR:g}h t={t}",
                metric="uncorrectable",
                observed=observed,
                expected=expected,
                low=low,
                high=high,
                passed=bool(low <= expected <= high),
            )
        )
    return EquivalenceReport(rows=tuple(rows))


def _relative_band(expected: float) -> tuple[float, float]:
    """Pure-Poisson relative band ``expected * (1 +- z / sqrt(expected))``."""
    if expected <= 0.0:
        return 0.0, 0.0
    rel = RENEWAL_REL_Z / math.sqrt(expected)
    return expected * (1.0 - rel), expected * (1.0 + rel)


def renewal_equivalence(
    seed: int = 2012,
    jobs: int = 1,
    quick: bool = False,
) -> EquivalenceReport:
    """MC horizon totals vs the exact finite-horizon renewal solution.

    Checks uncorrectables and scrub write-backs at every grid point with
    threshold ``theta = t - 1`` (write back just before the correction
    budget is exhausted - the regime the paper's threshold mechanism
    targets).
    """
    grid = renewal_grid(quick)
    num_lines = 4096 if quick else 8192
    horizon = (7 if quick else 14) * units.DAY
    specs = [
        RunSpec(
            policy="threshold",
            config=SimulationConfig(
                num_lines=num_lines,
                region_size=num_lines,
                horizon=horizon,
                seed=seed,
                endurance=None,
            ),
            policy_kwargs={
                "interval": interval,
                "strength": t,
                "threshold": t - 1,
                "with_detector": False,
            },
        )
        for interval, t in grid
    ]
    results = run_many(specs, jobs=jobs)
    solutions = finite_horizon_batch(
        (
            RenewalTask(
                crossing_distribution_for(result.config),
                result.config.cells_per_line, interval, t, t - 1,
            )
            for (interval, t), result in zip(grid, results)
        ),
        horizon,
    )

    rows = []
    for (interval, t), result, solution in zip(grid, results, solutions):
        label = f"T={interval / units.HOUR:g}h t={t}"
        for metric, observed, per_line in (
            ("uncorrectable", float(result.stats.uncorrectable), solution.expected_ue),
            ("scrub_writes", float(result.stats.scrub_writes), solution.expected_writes),
        ):
            expected = float(per_line * num_lines)
            low, high = _relative_band(expected)
            rows.append(
                EquivalenceRow(
                    check="renewal",
                    label=label,
                    metric=metric,
                    observed=observed,
                    expected=expected,
                    low=low,
                    high=high,
                    passed=bool(low <= observed <= high),
                )
            )
    return EquivalenceReport(rows=tuple(rows))


def _batch_band(expected: float) -> tuple[float, float]:
    """Acceptance band for batch-vs-scalar around the scalar count."""
    if expected <= 0.0:
        return 0.0, 0.0
    rel = max(BATCH_REL_FLOOR, BATCH_REL_Z * math.sqrt(2.0 / expected))
    return expected * (1.0 - rel), expected * (1.0 + rel)


def batch_equivalence(
    seed: int = 2012,
    jobs: int = 1,
    quick: bool = False,
) -> EquivalenceReport:
    """Batch-engine totals vs the scalar engine outside the identity domain.

    The one regime where the batch engine is *not* bit-identical to the
    scalar reference: a multi-region device under demand traffic in round
    mode, where batching the round's Poisson demand into single fills
    reorders the workload and population streams (the ``batch_identity``
    metamorphic law pins every other regime exactly).  Both engines run
    the same seeded configuration; the scalar totals serve as the
    expectation and the batch totals must land inside the relative ladder
    ``max(floor, z * sqrt(2 / expected))`` for uncorrectables and scrub
    write-backs (see :data:`BATCH_REL_FLOOR`).
    """
    from ..workloads.generators import uniform_rates

    intervals = [2 * units.HOUR, 4 * units.HOUR]
    if quick:
        intervals = intervals[:1]
    num_lines = 2048 if quick else 8192
    horizon = (3 if quick else 7) * units.DAY
    specs = []
    for interval in intervals:
        for engine in ("scalar", "batch"):
            specs.append(
                RunSpec(
                    policy="threshold",
                    config=SimulationConfig(
                        num_lines=num_lines,
                        region_size=num_lines // 8,
                        horizon=horizon,
                        seed=seed,
                        endurance=None,
                        engine=engine,
                    ),
                    policy_kwargs={"interval": interval, "strength": 3},
                    rates=uniform_rates(
                        num_lines,
                        total_write_rate=num_lines * 2.0 / units.DAY,
                    ),
                )
            )
    results = run_many(specs, jobs=jobs)

    rows = []
    for i, interval in enumerate(intervals):
        scalar, batch = results[2 * i], results[2 * i + 1]
        label = f"T={interval / units.HOUR:g}h multi-busy"
        for metric in ("uncorrectable", "scrub_writes"):
            expected = float(getattr(scalar.stats, metric))
            observed = float(getattr(batch.stats, metric))
            low, high = _batch_band(expected)
            rows.append(
                EquivalenceRow(
                    check="batch_vs_scalar",
                    label=label,
                    metric=metric,
                    observed=observed,
                    expected=expected,
                    low=low,
                    high=high,
                    passed=bool(low <= observed <= high),
                )
            )
    return EquivalenceReport(rows=tuple(rows))


def _relative_gap(a: float, b: float) -> float:
    """|a - b| relative to the reference magnitude (absolute near zero)."""
    scale = max(abs(b), 1.0e-300)
    return abs(a - b) / scale if abs(b) > 1e-30 else abs(a - b)


def finite_horizon_recursion(
    u: list[float], w: list[float], visits: int
) -> tuple[float, float, float]:
    """Scalar reference for the discrete renewal recursion.

    ``u`` / ``w`` hold the probabilities that a fresh cycle resolves in a
    UE / write-back exactly at its ``m``-th visit (entry ``m - 1``), both
    padded to at least ``visits`` entries.  Returns ``(expected_ue,
    expected_writes, no_ue_probability)`` after ``visits`` aligned visits.
    This pure-Python ``O(V^2)`` loop is the oracle the vectorized kernel
    (:func:`repro.sim.renewal_batch.finite_horizon_batch`) is pinned
    against by the ``surrogate_batch`` equivalence law.
    """
    n_ue = [0.0] * (visits + 1)
    n_write = [0.0] * (visits + 1)
    no_ue = [1.0] * (visits + 1)
    for v in range(1, visits + 1):
        total_ue = 0.0
        total_write = 0.0
        survive = 1.0
        for m in range(1, v + 1):
            um, wm = u[m - 1], w[m - 1]
            tail = v - m
            total_ue += um + (um + wm) * n_ue[tail]
            total_write += wm + (um + wm) * n_write[tail]
            survive += wm * no_ue[tail] - (um + wm)
        n_ue[v] = total_ue
        n_write[v] = total_write
        no_ue[v] = min(1.0, max(0.0, survive))
    return n_ue[visits], n_write[visits], no_ue[visits]


def scalar_finite_horizon(
    tasks: Iterable[RenewalTask], horizon: float
) -> list[FiniteHorizonSolution]:
    """Drop-in oracle for :func:`repro.sim.renewal_batch.finite_horizon_batch`.

    Solves each task alone: exact expected counts over a horizon of
    aligned visits.  The engine visits a single-region device at ``T,
    2T, ...`` and includes a visit landing exactly on the horizon
    boundary, so the line sees ``V = floor(horizon / T)`` visits.  Every
    cycle - the first one included, because lines are written fresh at
    ``t = 0`` and every resolution rewrites the line *at a visit* - is an
    iid copy aligned to the visit grid, so with ``u_m`` / ``w_m`` the
    probabilities that a fresh cycle resolves in a UE / write-back
    exactly at its ``m``-th visit (one scalar cycle propagation,
    :meth:`repro.sim.renewal.RenewalModel.propagate`, capped at ``V``
    visits), the expected UE count over ``v`` remaining visits obeys the
    discrete renewal recursion

    ``N_ue(v) = sum_{m<=v} (u_m + (u_m + w_m) * N_ue(v - m))``

    (and symmetrically for write-backs).  Cycles still unresolved at the
    horizon contribute their resolution mass nothing - exactly the
    censoring the engine applies.  ``P(no UE in v visits)`` satisfies the
    same kind of recursion with the censored mass surviving: ``q(v) = 1 -
    sum_{m<=v}(u_m + w_m) + sum_{m<=v} w_m * q(v - m)``; see
    :func:`finite_horizon_recursion`.
    """
    solutions = []
    for task in tasks:
        visits = aligned_visits(horizon, task.interval)
        if visits == 0:
            solutions.append(FiniteHorizonSolution(
                interval=task.interval, horizon=horizon, visits=0,
                expected_ue=0.0, expected_writes=0.0, no_ue_probability=1.0,
            ))
            continue
        model = RenewalModel(task.distribution, task.cells_per_line)
        ue_by_visit, write_by_visit, *_ = model.propagate(
            task.interval, task.t_ecc, task.threshold, min(MAX_VISITS, visits)
        )
        u = ue_by_visit + [0.0] * (visits - len(ue_by_visit))
        w = write_by_visit + [0.0] * (visits - len(write_by_visit))
        expected_ue, expected_writes, no_ue = finite_horizon_recursion(u, w, visits)
        solutions.append(FiniteHorizonSolution(
            interval=task.interval,
            horizon=horizon,
            visits=visits,
            expected_ue=expected_ue,
            expected_writes=expected_writes,
            no_ue_probability=no_ue,
        ))
    return solutions


def surrogate_equivalence(
    seed: int = 2012,
    jobs: int = 1,
    quick: bool = False,
) -> EquivalenceReport:
    """Batched renewal kernel vs the scalar recursion oracle.

    Two layers, no Monte Carlo in either:

    * **Kernel grid** - :func:`repro.sim.renewal_batch.finite_horizon_batch`
      against :func:`scalar_finite_horizon` over an (interval, strength)
      x temperature grid, all points in one batched call so grouping,
      memo dedup, and zero-padding are exercised.  Each expectation must
      agree within :data:`SURROGATE_REL_TOL` relative.
    * **Fleet screen** - :func:`repro.screen.planner.plan_screen` on an
      in-regime three-lot fleet without spread (one sampled point per
      lot) against each device's scalar solution run through the
      planner's own :func:`~repro.screen.planner.classify` step:
      classifications must match *exactly* (zero mismatches), surrogate
      expectations within the same tolerance.

    The expectation of every row is 0 observed divergence with the band
    ``[0, tol]`` (``[0, 0]`` for the classification row), so the rows
    render in the standard equivalence table.
    """
    from ..fleet.report import FIT_HOURS
    from ..fleet.spec import FleetSpec, Lot, LotParameter
    from ..screen.planner import (
        ScreenConstraints, classify, plan_screen, regime_reasons, surrogate_point,
    )

    metrics = ("expected_ue", "expected_writes", "no_ue_probability")

    # -- kernel grid ---------------------------------------------------------
    horizon = (3 if quick else 7) * units.DAY
    points = [(2 * units.HOUR, 3), (4 * units.HOUR, 4)]
    temperatures = [300.0, 330.0] if quick else [300.0, 330.0, 350.0]
    config = SimulationConfig(num_lines=64, region_size=64, horizon=horizon,
                              seed=seed, endurance=None)
    tasks = []
    for temperature_k in temperatures:
        point_config = dataclasses.replace(config, temperature_k=temperature_k)
        distribution = crossing_distribution_for(point_config)
        tasks += [
            RenewalTask(distribution, config.cells_per_line, interval, t, t - 1)
            for interval, t in points
        ]
    batched = finite_horizon_batch(tasks, horizon)
    scalar = scalar_finite_horizon(tasks, horizon)
    rows = []
    worst: dict[str, float] = {metric: 0.0 for metric in metrics}
    for batch_solution, scalar_solution in zip(batched, scalar):
        if batch_solution.visits != scalar_solution.visits:
            worst = {metric: float("inf") for metric in metrics}
            break
        for metric in metrics:
            worst[metric] = max(
                worst[metric],
                _relative_gap(
                    getattr(batch_solution, metric),
                    getattr(scalar_solution, metric),
                ),
            )
    for metric in metrics:
        rows.append(
            EquivalenceRow(
                check="surrogate_batch",
                label=f"kernel {len(tasks)}pt",
                metric=metric,
                observed=worst[metric],
                expected=0.0,
                low=0.0,
                high=SURROGATE_REL_TOL,
                passed=bool(worst[metric] <= SURROGATE_REL_TOL),
            )
        )

    # -- fleet screen --------------------------------------------------------
    spec = FleetSpec(
        name="surrogate-equivalence",
        devices=8 if quick else 16,
        policy="threshold",
        policy_kwargs={
            "interval": 2 * units.HOUR,
            "strength": 3,
            "threshold": 2,
            "with_detector": False,
        },
        base_config=SimulationConfig(
            num_lines=64, region_size=64, horizon=units.DAY, seed=seed,
            endurance=None,
        ),
        lots=(
            Lot(name="cool", weight=5, temperature_k=LotParameter(300.0, 0.0)),
            Lot(name="hot", weight=2, temperature_k=LotParameter(316.0, 0.0)),
            Lot(name="recalled", weight=1,
                temperature_k=LotParameter(350.0, 0.0)),
        ),
    )
    horizon_hours = spec.base_config.horizon / units.HOUR
    constraints = ScreenConstraints(
        fit_limit=5.0 * FIT_HOURS * spec.capacity_scale / horizon_hours,
    )
    plan = plan_screen(spec, constraints, jobs=jobs)
    devices = [spec.device_spec(index) for index in range(spec.devices)]
    entries = [(d.index, d) for d in devices if not regime_reasons(spec, d)]
    tasks = [
        RenewalTask(crossing_distribution_for(d.config), d.config.cells_per_line,
                    *surrogate_point(spec, d.lot))
        for _, d in entries
    ]
    solutions = scalar_finite_horizon(tasks, spec.base_config.horizon)
    pairs = [
        (plan.decisions[b.index], b)
        for b in classify(spec, constraints, entries, solutions)
    ]
    mismatches = sum(
        1
        for a, b in pairs
        if a.classification != b.classification or a.reasons != b.reasons
    )
    rows.append(
        EquivalenceRow(
            check="surrogate_batch",
            label=f"screen {spec.devices}dev",
            metric="classification_mismatches",
            observed=float(mismatches),
            expected=0.0,
            low=0.0,
            high=0.0,
            passed=bool(mismatches == 0),
        )
    )
    screen_worst = {metric: 0.0 for metric in metrics}
    for a, b in pairs:
        if a.expected_ue is None:
            continue  # a regime mismatch; the classification row counts it
        for metric in metrics:
            screen_worst[metric] = max(
                screen_worst[metric],
                _relative_gap(getattr(a, metric), getattr(b, metric)),
            )
    for metric in metrics:
        rows.append(
            EquivalenceRow(
                check="surrogate_batch",
                label=f"screen {spec.devices}dev",
                metric=metric,
                observed=screen_worst[metric],
                expected=0.0,
                low=0.0,
                high=SURROGATE_REL_TOL,
                passed=bool(screen_worst[metric] <= SURROGATE_REL_TOL),
            )
        )
    return EquivalenceReport(rows=tuple(rows))


def run_equivalence(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> EquivalenceReport:
    """All cross-checks, merged into one report."""
    analytic = analytic_equivalence(seed=seed, jobs=jobs, quick=quick)
    renewal = renewal_equivalence(seed=seed, jobs=jobs, quick=quick)
    batch = batch_equivalence(seed=seed, jobs=jobs, quick=quick)
    surrogate = surrogate_equivalence(seed=seed, jobs=jobs, quick=quick)
    return EquivalenceReport(
        rows=analytic.rows + renewal.rows + batch.rows + surrogate.rows
    )
