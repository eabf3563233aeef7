"""P1 (performance): parallel sweep speedup and persistent tabulation cache.

The acceptance demonstration for the parallel execution layer: a 4-point
interval sweep at E9 scale (16384 lines, 21-day horizon) run serially and
with ``jobs=4``, checked bit-identical, with both wall times and the
disk-cache reload timing recorded in ``bench_summary.json``.

The >= 2.5x speedup assertion only fires on machines with >= 4 CPUs -
on smaller workers the parallel path still runs (correctness is always
checked) but can't physically beat serial.
"""

from __future__ import annotations

import os
import time

from repro import units
from repro.analysis.sweeps import sweep_intervals
from repro.obs import NULL_PROFILER
from repro.sim import SimulationConfig, clear_distribution_cache
from repro.sim.analytic import CrossingDistribution
from repro.sim.cache import cache_dir
from repro.sim.runner import DISTRIBUTION_CACHE_COUNTERS, crossing_distribution_for

CONFIG = SimulationConfig(
    num_lines=16384, region_size=1024, horizon=21 * units.DAY, endurance=None
)
INTERVALS = [0.5 * units.HOUR, units.HOUR, 2 * units.HOUR, 4 * units.HOUR]
JOBS = 4


def compute(profiler=NULL_PROFILER):
    serial_started = time.perf_counter()
    with profiler.span("p01.serial_sweep"):
        serial = sweep_intervals("basic", INTERVALS, CONFIG, jobs=1)
    serial_wall = time.perf_counter() - serial_started

    parallel_started = time.perf_counter()
    with profiler.span("p01.parallel_sweep"):
        parallel = sweep_intervals("basic", INTERVALS, CONFIG, jobs=JOBS)
    parallel_wall = time.perf_counter() - parallel_started
    return serial, parallel, serial_wall, parallel_wall


def test_p01_parallel_sweep(benchmark, emit, bench_summary, bench_profiler):
    serial, parallel, serial_wall, parallel_wall = benchmark.pedantic(
        compute, args=(bench_profiler,), rounds=1, iterations=1
    )

    # Bit-identical ScrubStats between serial and parallel execution.
    for a, b in zip(serial, parallel):
        assert a.uncorrectable == b.uncorrectable
        assert a.scrub_writes == b.scrub_writes
        assert a.scrub_energy == b.scrub_energy
        assert a.stats.visits == b.stats.visits
        assert a.final_state == b.final_state

    # Disk-cache reload: a fresh tabulation vs loading the persisted grid.
    tabulate_started = time.perf_counter()
    with bench_profiler.span("p01.tabulate"):
        CrossingDistribution(CONFIG.cell_spec, temperature_k=CONFIG.temperature_k)
    tabulate_seconds = time.perf_counter() - tabulate_started

    crossing_distribution_for(CONFIG)  # ensure the disk entry exists
    clear_distribution_cache()
    reload_started = time.perf_counter()
    with bench_profiler.span("p01.disk_reload"):
        crossing_distribution_for(CONFIG)
    reload_seconds = time.perf_counter() - reload_started

    disk_enabled = cache_dir() is not None
    if disk_enabled:
        assert DISTRIBUTION_CACHE_COUNTERS["disk"] >= 1
        assert reload_seconds < tabulate_seconds

    speedup = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    bench_summary["p01_parallel_sweep"] = {
        "runs": len(INTERVALS),
        "jobs": JOBS,
        "serial_wall_seconds": round(serial_wall, 4),
        "parallel_wall_seconds": round(parallel_wall, 4),
        "speedup": round(speedup, 3),
        "cpu_count": os.cpu_count() or 1,
        "disk_cache": {
            "enabled": disk_enabled,
            "tabulate_seconds": round(tabulate_seconds, 4),
            "reload_seconds": round(reload_seconds, 4),
        },
    }
    emit(
        "p01_parallel_sweep",
        "\n".join(
            [
                "P1: parallel sweep (4-point basic interval sweep, "
                f"{CONFIG.num_lines} lines, {units.format_seconds(CONFIG.horizon)})",
                f"  serial (jobs=1):   {serial_wall:8.2f}s",
                f"  parallel (jobs={JOBS}): {parallel_wall:8.2f}s",
                f"  speedup:           {speedup:8.2f}x on {os.cpu_count()} CPUs",
                f"  tabulate:          {tabulate_seconds:8.3f}s",
                f"  disk reload:       {reload_seconds:8.3f}s",
                "  results bit-identical: yes",
            ]
        ),
    )

    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.5
