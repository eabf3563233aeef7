"""End-to-end experiment runner.

:func:`run_experiment` is the one-call entry point every benchmark and
example uses: given a policy, a workload, and a configuration, it builds
the crossing-time distribution, the population, the stats ledger, and the
engine, runs to the horizon, and returns a :class:`RunResult`.

Crossing distributions are memoized per (cell spec, temperature) because
tabulating the analytic CDF costs ~20-30 ms and sweeps reuse it across
dozens of runs.  The memo is :data:`TABULATIONS`, an
:class:`~repro.sim.cache.ArrayCache`: a small in-process LRU in front of
the shared on-disk cache, so parallel sweep workers and repeated CLI
invocations pay the tabulation once per configuration instead of once
per process.
"""

from __future__ import annotations

import time as _time

import numpy as np

from ..core.policy import ScrubPolicy
from ..core.stats import ScrubStats
from ..mem.sparing import SparePool
from ..obs.profile import NULL_PROFILER
from ..obs.session import Observation
from ..params import CellSpec
from ..pcm.endurance import EnduranceModel
from ..pcm.energy import OperationCosts
from ..verify.invariants import InvariantChecker
from ..workloads.generators import DemandRates
from .analytic import TABULATION_POINTS, CrossingDistribution, tabulation_cache_key
from .batch import BatchPopulationEngine
from .cache import ArrayCache
from .config import SimulationConfig
from .population import LinePopulation, PopulationEngine
from .results import RunResult
from .rng import RngStreams

#: Tabulated crossing distributions.  The in-process LRU is small:
#: sweeps over many cell specs/temperatures must not accumulate
#: tabulations without bound.  Its counters record where each request
#: was satisfied: ``memory``, ``disk`` (loaded a persisted tabulation)
#: or ``tabulated`` (computed from scratch).
TABULATIONS = ArrayCache(
    prefix="crossing",
    members=("grid", "per_level_cdf"),
    capacity=8,
    miss="tabulated",
)
DISTRIBUTION_CACHE_COUNTERS = TABULATIONS.counters
clear_distribution_cache = TABULATIONS.clear


def cached_crossing_distribution(
    spec: CellSpec,
    temperature_k: float,
    compensated: bool = False,
) -> CrossingDistribution:
    """Crossing distribution via the memory -> disk -> tabulate cache chain."""
    key = tabulation_cache_key(spec, temperature_k, compensated)
    cached = TABULATIONS.get(key)
    if cached is not None:
        return cached

    tabulation = TABULATIONS.load(
        key, [(TABULATION_POINTS,), (spec.num_levels, TABULATION_POINTS)]
    )
    if compensated:
        from ..pcm.reference import CompensatedSensing

        distribution = CrossingDistribution(
            model=CompensatedSensing(spec, temperature_k=temperature_k),
            _tabulation=tabulation,
        )
    else:
        distribution = CrossingDistribution(
            spec, temperature_k=temperature_k, _tabulation=tabulation
        )

    if tabulation is None:
        DISTRIBUTION_CACHE_COUNTERS["tabulated"] += 1
        TABULATIONS.save(key, (distribution.grid, distribution.per_level_cdf))
    TABULATIONS.put(key, distribution)
    return distribution


def crossing_distribution_for(config: SimulationConfig) -> CrossingDistribution:
    """Memoized crossing-time distribution for a configuration.

    With a thermal profile, the distribution is tabulated at the profile's
    *reference* temperature; the population maps sampled crossing ages to
    wall-clock through the profile.
    """
    if config.thermal_profile is not None:
        temperature = config.thermal_profile.reference_temperature_k
    else:
        temperature = config.temperature_k
    return cached_crossing_distribution(
        config.cell_spec, temperature, config.compensated_sensing
    )


def build_population(
    config: SimulationConfig, streams: RngStreams
) -> LinePopulation:
    """Device state for a configuration (uses the ``"population"`` stream)."""
    endurance = (
        EnduranceModel(config.endurance) if config.endurance is not None else None
    )
    return LinePopulation(
        num_lines=config.num_lines,
        cells_per_line=config.cells_per_line,
        distribution=crossing_distribution_for(config),
        rng=streams.get("population"),
        endurance=endurance,
        keep=config.keep,
        thermal=config.thermal_profile,
    )


def build_stats(policy: ScrubPolicy, config: SimulationConfig) -> ScrubStats:
    """A fresh ledger priced for the policy's ECC scheme."""
    costs = OperationCosts.for_line(
        config.energy,
        config.line,
        ecc_bits=policy.scheme.total_overhead_bits,
        ecc_strength=policy.scheme.t,
    )
    return ScrubStats(costs=costs)


def build_engine(
    policy: ScrubPolicy,
    config: SimulationConfig,
    rates: DemandRates | None = None,
) -> PopulationEngine:
    """Construct the (unstarted) engine :func:`run_experiment` would run.

    The engine carries everything the run needs - population, stats,
    streams, spare pool, observability, verifier - so callers can drive
    it incrementally (``engine.simulate(budget=...)``), snapshot it
    between calls (:mod:`repro.sim.snapshot`), and finish through
    :func:`finalize_result`.
    """
    obs = Observation.maybe(config.obs)
    profiler = obs.profiler if obs is not None else NULL_PROFILER
    streams = RngStreams(config.seed)
    with profiler.span("tabulate"):
        population = build_population(config, streams)
    stats = build_stats(policy, config)
    spare_pool = None
    if config.spares_per_region is not None:
        spare_pool = SparePool(
            num_regions=config.num_lines // config.region_size,
            spares_per_region=config.spares_per_region,
        )
    verifier = None
    if config.verify.enabled:
        verifier = InvariantChecker(
            stats=stats,
            config=config.verify,
            spare_pool=spare_pool,
            tracer=obs.tracer if obs is not None else None,
        )
    engine_cls = (
        BatchPopulationEngine if config.engine == "batch" else PopulationEngine
    )
    return engine_cls(
        population=population,
        policy=policy,
        stats=stats,
        streams=streams,
        horizon=config.horizon,
        rates=rates,
        region_size=config.region_size,
        retire_hard_limit=config.retire_hard_limit,
        read_refresh=config.read_refresh,
        spare_pool=spare_pool,
        obs=obs,
        verifier=verifier,
        fast_forward=config.fast_forward,
    )


def finalize_result(
    engine: PopulationEngine,
    policy: ScrubPolicy,
    config: SimulationConfig,
    elapsed: float,
) -> RunResult:
    """Package a completed engine run into a :class:`RunResult`."""
    if not engine.complete:
        raise RuntimeError("finalize_result requires a completed engine run")
    population = engine.population
    obs = engine.obs
    all_lines = np.arange(population.num_lines)
    final_state = {
        "stuck_cells": float(population.stuck_counts(all_lines).sum()),
        "hard_mismatch_cells": float(population.hard_mismatch.sum()),
        "mean_writes_per_line": float(population.writes.mean()),
    }
    if engine.spare_pool is not None:
        final_state.update(engine.spare_pool.metrics())
    if engine._verifier.enabled:
        engine._verifier.check_final(final_state)
    return RunResult(
        policy_name=policy.name,
        workload_name=engine.rates.name,
        config=config,
        stats=engine.stats,
        runtime_seconds=elapsed,
        final_state=final_state,
        trace=obs.trace_events if obs is not None else None,
        timeseries=obs.timeseries_or_none if obs is not None else None,
        profile=obs.profile_or_none if obs is not None else None,
        fast_forward=(
            {
                "skipped_visits": engine.fast_forward_skipped_visits,
                "jumps": engine.fast_forward_jumps,
            }
            if config.fast_forward
            else None
        ),
    )


def run_experiment(
    policy: ScrubPolicy,
    config: SimulationConfig | None = None,
    rates: DemandRates | None = None,
) -> RunResult:
    """Simulate ``policy`` under ``rates`` for ``config`` and return results.

    >>> from repro.core import basic_scrub
    >>> from repro import units
    >>> result = run_experiment(
    ...     basic_scrub(interval=units.HOUR),
    ...     SimulationConfig(num_lines=1024, region_size=256,
    ...                      horizon=units.DAY, endurance=None),
    ... )
    >>> result.stats.visits > 0
    True
    """
    if config is None:
        config = SimulationConfig()
    engine = build_engine(policy, config, rates)
    started = _time.perf_counter()
    engine.simulate()
    elapsed = _time.perf_counter() - started
    return finalize_result(engine, policy, config, elapsed)
