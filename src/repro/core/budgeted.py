"""Bandwidth-budgeted scrub: derive the scrub rate from a bank-time budget.

Deployments do not pick scrub intervals in the abstract - they grant the
scrubber a slice of bank time ("at most 0.1 % of each bank") and want the
best reliability that slice buys.  This module closes the loop:

* :func:`interval_for_budget` converts a budget fraction into the shortest
  interval whose scan traffic (reads + expected decodes + expected
  write-backs) fits the slice, using the analytic error model to predict
  the per-visit decode/write probabilities at the interval being tested
  (the interval appears on both sides, so the solve is a fixed point on a
  geometric grid);
* :func:`budgeted_scrub` wraps it into a ready policy;
* :func:`reliability_at_budget` reports the per-visit line-failure
  probability that budget ends up buying - the number to compare across
  ECC strengths when provisioning.
"""

from __future__ import annotations

from ..ecc.schemes import EccScheme, scheme_for_strength
from ..params import EnergySpec, LineSpec
from ..pcm.energy import OperationCosts
from ..sim.analytic import AnalyticModel
from .threshold import ThresholdScrubPolicy, default_threshold


def _visit_cost_seconds(
    model: AnalyticModel,
    scheme: EccScheme,
    costs: OperationCosts,
    interval: float,
    threshold: int,
) -> float:
    """Expected bank-seconds one line visit costs at this interval.

    Decode fires for lines with any error (detector-gated schemes) or
    always; write-back fires when the count reaches the threshold.  The
    between-visit age is ``interval`` in steady state with write-back (an
    upper bound for threshold policies, hence conservative on budget).
    """
    pmf_limit = max(scheme.t, threshold) + 1
    pmf = model.line_error_count_pmf(interval, pmf_limit)
    p_any_error = 1.0 - float(pmf[0])
    p_writeback = 1.0 - float(pmf[:threshold].sum())
    p_decode = p_any_error if scheme.has_detector else 1.0
    return (
        costs.read_latency
        + p_decode * costs.decode_latency
        + p_writeback * costs.write_latency
    )


def interval_for_budget(
    model: AnalyticModel,
    scheme: EccScheme,
    costs: OperationCosts,
    lines_per_bank: int,
    budget_fraction: float,
    threshold: int = 1,
    min_interval: float = 1.0,
    max_interval: float = 30 * 86400.0,
) -> float:
    """Shortest interval whose scan traffic fits ``budget_fraction``.

    A bank of ``lines_per_bank`` lines scrubbed every ``T`` seconds costs
    ``lines_per_bank * visit_cost(T) / T`` bank-seconds per second; we
    return the smallest ``T`` (on a fine geometric grid) keeping that at
    or below the budget.  Raises when even ``max_interval`` cannot fit.
    """
    if lines_per_bank <= 0:
        raise ValueError("lines_per_bank must be positive")
    if not 0 < budget_fraction < 1:
        raise ValueError("budget_fraction must be in (0, 1)")
    if not 0 < min_interval < max_interval:
        raise ValueError("need 0 < min_interval < max_interval")

    def occupancy(interval: float) -> float:
        visit_cost = _visit_cost_seconds(model, scheme, costs, interval, threshold)
        return lines_per_bank * visit_cost / interval

    if occupancy(max_interval) > budget_fraction:
        raise ValueError(
            f"budget {budget_fraction:.2e} cannot be met even at "
            f"interval {max_interval:g}s"
        )
    # Occupancy is not perfectly monotone (write probability grows with
    # the interval), so scan a geometric grid rather than bisecting.
    points = 400
    ratio = (max_interval / min_interval) ** (1.0 / (points - 1))
    interval = min_interval
    for __ in range(points):
        if occupancy(interval) <= budget_fraction:
            return interval
        interval *= ratio
    return max_interval


def budgeted_scrub(
    model: AnalyticModel,
    lines_per_bank: int,
    budget_fraction: float,
    strength: int = 4,
    threshold: int | None = None,
    energy: EnergySpec | None = None,
    line: LineSpec | None = None,
) -> ThresholdScrubPolicy:
    """Threshold scrub policy running as fast as the bank budget allows.

    >>> from repro.params import CellSpec
    >>> from repro.sim.analytic import AnalyticModel, CrossingDistribution
    >>> model = AnalyticModel(CrossingDistribution(CellSpec()), 256)
    >>> policy = budgeted_scrub(model, 1 << 20, budget_fraction=1e-3)
    >>> policy.interval > 0
    True
    """
    scheme = scheme_for_strength(strength, with_detector=True)
    if threshold is None:
        threshold = default_threshold(scheme.t)
    costs = OperationCosts.for_line(
        energy if energy is not None else EnergySpec(),
        line if line is not None else LineSpec(),
        scheme.total_overhead_bits,
        scheme.t,
    )
    interval = interval_for_budget(
        model, scheme, costs, lines_per_bank, budget_fraction, threshold
    )
    return ThresholdScrubPolicy(
        scheme,
        interval,
        threshold=threshold,
        label=f"budgeted(t={scheme.t},{budget_fraction:.0e})",
    )


def reliability_at_budget(
    model: AnalyticModel,
    lines_per_bank: int,
    budget_fraction: float,
    strength: int,
    energy: EnergySpec | None = None,
    line: LineSpec | None = None,
) -> tuple[float, float]:
    """(interval, per-visit line-failure probability) a budget buys.

    The provisioning comparison: run this across ECC strengths and pick
    the code whose failure probability at the affordable interval meets
    the reliability target.
    """
    scheme = scheme_for_strength(strength, with_detector=True)
    costs = OperationCosts.for_line(
        energy if energy is not None else EnergySpec(),
        line if line is not None else LineSpec(),
        scheme.total_overhead_bits,
        scheme.t,
    )
    interval = interval_for_budget(
        model, scheme, costs, lines_per_bank, budget_fraction,
        threshold=default_threshold(scheme.t),
    )
    failure = model.line_failure_probability(interval, scheme.t)
    return interval, failure
