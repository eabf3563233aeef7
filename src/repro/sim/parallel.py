"""Process-parallel experiment execution.

Every experiment is fully independent — :class:`repro.sim.rng.RngStreams`
derives all randomness from the config seed — so sweeps fan out across a
process pool without changing results: ``run_many(specs, jobs=N)`` is
bit-identical to serial execution for any ``N``.

The unit of work is a picklable :class:`RunSpec` (policy factory *name*
plus kwargs, rather than a built policy, so nothing capturing closures or
codec state crosses the process boundary).  Before it starts the pool,
``run_many`` pre-warms the crossing-distribution disk cache in the parent
so spawned workers load the tabulation from ``~/.cache/repro`` instead of
re-paying it once per process (see :mod:`repro.sim.runner`).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time as _time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, TypeVar

from ..core import (
    adaptive_scrub,
    basic_scrub,
    combined_scrub,
    light_scrub,
    strong_ecc_scrub,
    threshold_scrub,
)
from ..core.policy import ScrubPolicy
from ..core.threshold import partial_scrub
from ..workloads.generators import DemandRates
from .config import SimulationConfig
from .results import RunResult
from .runner import crossing_distribution_for, run_experiment

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Policy factories addressable by name from a :class:`RunSpec`.  Names map
#: to the public constructors; kwargs pass through untouched (``basic``
#: accepts only ``interval``).
POLICY_FACTORIES: dict[str, Callable[..., ScrubPolicy]] = {
    "basic": basic_scrub,
    "strong": strong_ecc_scrub,
    "light": light_scrub,
    "threshold": threshold_scrub,
    "partial": partial_scrub,
    "adaptive": adaptive_scrub,
    "combined": combined_scrub,
}


def default_jobs() -> int:
    """CPU-aware worker-count default (capped: runs are memory-bound)."""
    return max(1, min(os.cpu_count() or 1, 8))


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one :func:`repro.sim.runner.run_experiment`.

    >>> from repro import units
    >>> spec = RunSpec(
    ...     policy="basic",
    ...     config=SimulationConfig(num_lines=1024, region_size=256,
    ...                             horizon=units.DAY, endurance=None),
    ...     policy_kwargs={"interval": units.HOUR},
    ... )
    >>> spec.build_policy().name
    'basic(secded)'
    """

    #: Key into :data:`POLICY_FACTORIES`.
    policy: str
    config: SimulationConfig
    #: Keyword arguments for the policy factory (``interval``, ``strength``,
    #: ``threshold``, ...).
    policy_kwargs: dict[str, Any] = field(default_factory=dict)
    #: Demand workload; ``None`` simulates an idle device.
    rates: DemandRates | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_FACTORIES:
            raise ValueError(
                f"unknown policy factory {self.policy!r}; "
                f"available: {sorted(POLICY_FACTORIES)}"
            )

    def build_policy(self) -> ScrubPolicy:
        return POLICY_FACTORIES[self.policy](**self.policy_kwargs)

    def run(self) -> RunResult:
        return run_experiment(self.build_policy(), self.config, self.rates)


def _execute_spec(spec: RunSpec) -> RunResult:
    return spec.run()


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    on_result: Callable[[int, R], None] | None = None,
) -> list[R]:
    """Order-preserving map over a spawn-context process pool.

    Falls back to inline execution for ``jobs <= 1`` or a single item, so
    small calls pay zero pool overhead.  ``fn`` and every item must be
    picklable (``fn`` should be a module-level function).  A worker failure
    raises :class:`RuntimeError` naming the failing item instead of
    hanging the pool.

    ``on_result(index, result)``, when given, runs in the calling process
    once per item as soon as that item's result is in: in item order
    inline, in completion order over the pool.  Whatever it raises
    propagates as itself.  Leaving early - a worker failure, an
    exception from ``on_result``, a ``KeyboardInterrupt`` - cancels every
    item not yet started and waits only for those already running.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        results: list[R] = []
        for index, item in enumerate(items):
            results.append(fn(item))
            if on_result is not None:
                on_result(index, results[-1])
        return results
    context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(items)), mp_context=context)
    try:
        futures = {pool.submit(fn, item): index for index, item in enumerate(items)}
        done: dict[int, R] = {}
        for future in as_completed(futures):
            index = futures[future]
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                raise RuntimeError(
                    f"parallel worker died executing item {index}: "
                    f"{items[index]!r}"
                ) from exc
            except Exception as exc:
                raise RuntimeError(
                    f"parallel worker failed on item {index} "
                    f"({items[index]!r}): {exc}"
                ) from exc
            done[index] = result
            if on_result is not None:
                on_result(index, result)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return [done[index] for index in range(len(items))]


def run_many(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    on_result: Callable[[int, RunResult], None] | None = None,
) -> list[RunResult]:
    """Execute specs (possibly) in parallel; results keep spec order.

    Bit-identical to serial execution for any ``jobs``: every stream of
    randomness is derived from each spec's config seed, never from worker
    identity or scheduling order.  ``on_result`` is passed to
    :func:`parallel_map`.
    """
    specs = list(specs)
    if not specs:
        return []
    started = _time.perf_counter()
    if jobs > 1 and len(specs) > 1:
        # Tabulate (or disk-load) each distinct distribution once in the
        # parent; spawn workers then hit the disk cache instead of paying
        # the tabulation per process.
        for spec in specs:
            crossing_distribution_for(spec.config)
    results = parallel_map(_execute_spec, specs, jobs=jobs, on_result=on_result)
    wall = _time.perf_counter() - started
    serial = sum(result.runtime_seconds for result in results)
    logger.info(
        "run_many: %d runs, jobs=%d, wall %.2fs, serial-equivalent %.2fs, "
        "speedup %.2fx",
        len(results),
        jobs,
        wall,
        serial,
        serial / wall if wall > 0 else float("inf"),
    )
    return results


def timing_summary(
    results: Sequence[RunResult], wall_seconds: float, jobs: int
) -> dict[str, float | int]:
    """Machine-readable sweep timing (feeds ``bench_summary.json``)."""
    serial = sum(result.runtime_seconds for result in results)
    return {
        "runs": len(results),
        "jobs": jobs,
        "wall_seconds": round(wall_seconds, 4),
        "serial_seconds": round(serial, 4),
        "speedup": round(serial / wall_seconds, 3) if wall_seconds > 0 else 0.0,
    }
