"""Simulation engines.

Three engines at different fidelity/speed points:

* :mod:`repro.sim.analytic` - closed-form per-cell error probabilities and
  line-failure models; instant, used for design-space sweeps and to
  cross-check the Monte-Carlo engines.
* :mod:`repro.sim.population` - the workhorse: a vectorized Monte-Carlo
  engine that tracks, per line, only the few smallest drift crossing times
  (order-statistics sampling), making year-scale simulations of large line
  populations run in seconds.  :mod:`repro.sim.batch` layers a batched
  visit loop on the same state (whole device rounds as single array ops,
  for static uniform-interval policies; every other policy keeps the
  scalar walk) for busy workloads where fast-forward cannot engage;
  select it with ``SimulationConfig(engine="batch")``.
* :mod:`repro.sim.bitexact` - drives :class:`repro.pcm.array.LineArray`
  and the real BCH/SECDED codecs bit by bit; slow, used for validation.

:mod:`repro.sim.runner` wires an engine, a scrub policy, and a workload into
one reproducible experiment.
"""

from __future__ import annotations

from ..obs import ObsConfig
from .analytic import AnalyticModel, CrossingDistribution
from .batch import BatchPopulationEngine
from .config import SimulationConfig
from .parallel import RunSpec, default_jobs, parallel_map, run_many
from .population import LinePopulation, PopulationEngine
from .renewal import FiniteHorizonSolution, RenewalModel, RenewalSolution
from .renewal_batch import RenewalTask, clear_propagation_cache, finite_horizon_batch
from .results import RunResult
from .rng import RngStreams
from .runner import (
    build_engine,
    clear_distribution_cache,
    finalize_result,
    run_experiment,
)
from .snapshot import EngineSnapshot, SnapshotError, run_resumable

__all__ = [
    "AnalyticModel",
    "BatchPopulationEngine",
    "CrossingDistribution",
    "EngineSnapshot",
    "FiniteHorizonSolution",
    "LinePopulation",
    "ObsConfig",
    "PopulationEngine",
    "RenewalModel",
    "RenewalSolution",
    "RenewalTask",
    "RngStreams",
    "RunResult",
    "RunSpec",
    "SimulationConfig",
    "SnapshotError",
    "build_engine",
    "clear_distribution_cache",
    "clear_propagation_cache",
    "default_jobs",
    "finalize_result",
    "finite_horizon_batch",
    "parallel_map",
    "run_experiment",
    "run_many",
    "run_resumable",
]
