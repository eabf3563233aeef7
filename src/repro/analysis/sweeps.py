"""Parameter-sweep harnesses over the experiment runner.

Benchmarks express "run these policies at these intervals under this
workload" once, through these helpers, and get back result grids ready for
:mod:`repro.analysis.tables`.

The simulation sweeps accept ``jobs``: with ``jobs > 1`` the independent
runs fan out across a process pool (:mod:`repro.sim.parallel`) with
bit-identical results — every run's randomness derives from its config
seed, never from worker placement.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..core.budgeted import reliability_at_budget
from ..core.policy import ScrubPolicy
from ..params import CellSpec
from ..sim.analytic import AnalyticModel
from ..sim.config import SimulationConfig
from ..sim.parallel import RunSpec, parallel_map, run_many
from ..sim.results import RunResult
from ..sim.runner import (
    cached_crossing_distribution,
    crossing_distribution_for,
    run_experiment,
)
from ..workloads.generators import DemandRates

PolicyFactory = Callable[[float], ScrubPolicy]


def _run_prebuilt(
    task: tuple[ScrubPolicy, SimulationConfig, DemandRates | None],
) -> RunResult:
    policy, config, rates = task
    return run_experiment(policy, config, rates)


def sweep_intervals(
    factory: PolicyFactory | str,
    intervals: Sequence[float],
    config: SimulationConfig,
    rates: DemandRates | None = None,
    jobs: int = 1,
) -> list[RunResult]:
    """Run one policy family across scrub intervals.

    ``factory`` maps an interval to a policy (e.g. ``basic_scrub``) or
    names a registered factory (``"basic"``, ``"combined"``, ...) — the
    name form is what the parallel path pickles, so prefer it for
    ``jobs > 1``.
    """
    if not intervals:
        raise ValueError("intervals must be non-empty")
    if isinstance(factory, str):
        specs = [
            RunSpec(
                policy=factory,
                config=config,
                policy_kwargs={"interval": interval},
                rates=rates,
            )
            for interval in intervals
        ]
        return run_many(specs, jobs=jobs)
    return sweep_policies(
        [factory(interval) for interval in intervals], config, rates, jobs=jobs
    )


def sweep_policies(
    policies: Sequence[ScrubPolicy],
    config: SimulationConfig,
    rates: DemandRates | None = None,
    jobs: int = 1,
) -> list[RunResult]:
    """Run several ready-built policies under identical conditions."""
    if not policies:
        raise ValueError("policies must be non-empty")
    if jobs > 1 and len(policies) > 1:
        # Warm the distribution disk cache in the parent so spawn workers
        # load the tabulation instead of recomputing it per process.
        crossing_distribution_for(config)
    tasks = [(policy, config, rates) for policy in policies]
    return parallel_map(_run_prebuilt, tasks, jobs=jobs)


def provision_grid(
    budgets: Sequence[float],
    strengths: Sequence[int],
    lines_per_bank: int,
    temperature_k: float = 300.0,
) -> list[tuple[float, int, float | None, float | None]]:
    """Affordable interval and per-visit failure for each (budget, strength).

    Returns ``(budget, strength, interval, failure)`` rows in grid order;
    ``interval``/``failure`` are ``None`` when the budget cannot sustain
    the strength (infeasible point).  Each point is closed-form, so the
    grid runs in this process: a pool costs more than the whole grid.
    """
    if not budgets or not strengths:
        raise ValueError("budgets and strengths must be non-empty")
    model = AnalyticModel(
        cached_crossing_distribution(CellSpec(), temperature_k), 256
    )
    rows = []
    for budget in budgets:
        for strength in strengths:
            try:
                interval, failure = reliability_at_budget(
                    model, lines_per_bank, budget, strength
                )
            except ValueError:
                interval = failure = None
            rows.append((budget, strength, interval, failure))
    return rows
