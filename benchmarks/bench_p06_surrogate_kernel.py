"""P6 (performance): grid-batched renewal kernel vs per-device recursion.

The acceptance demonstration for `repro.sim.renewal_batch`: a
fleet-scale screening pass and a provisioning grid sweep, each run once
through the batched finite-horizon kernel and once with the scalar
per-device oracle (`repro.verify.equivalence.scalar_finite_horizon` - the
original pure-Python recursion, kept as the reference implementation)
swapped in for the kernel's name in the planner and the search.  The
batched paths must

* produce *identical* screen classifications, escalation sets, frontier
  key sets, and recommendations (the kernel is a pure optimization; the
  ``surrogate_batch`` verify law separately bounds the numeric gap at
  1e-9 relative), and
* run at least 5x faster on each phase.

Both phases run single-process (``jobs=1``) so the ratio measures the
kernel, not pool fan-out; the ``--jobs`` path is exercised by the CI
planning smoke and by ``tests/screen``.
"""

from __future__ import annotations

import time

from repro import units
from repro.fleet import FleetSpec, Lot, LotParameter
from repro.fleet.report import FIT_HOURS
from repro.obs import NULL_PROFILER
from repro.provision import CandidateSpace, ProvisionSearch
from repro.screen import ScreenConstraints, plan_screen
from repro.provision import search
from repro.screen import planner
from repro.sim.config import SimulationConfig
from repro.sim.renewal_batch import clear_propagation_cache
from repro.verify.equivalence import scalar_finite_horizon

MIN_SPEEDUP = 5.0

#: Screening phase: a large three-aisle fleet under one threshold
#: policy.  Zero-spread lots are the realistic fleet shape (devices in
#: an aisle share a qualification corner) and the kernel's best case:
#: the whole fleet collapses to three propagations.
SCREEN_DEVICES = 20_000
#: Count budget (expected horizon UEs per device) splitting the aisles
#: into pass / straddle / fail, mirroring ``examples/specs/fleet_screen``.
SCREEN_COUNT_BUDGET = 4.0

#: Provisioning phase: a smaller two-lot fleet swept over a six-point
#: in-regime candidate grid (3 intervals x 2 strengths).
PROVISION_DEVICES = 1_000
PROVISION_SPACE = CandidateSpace(
    policies=("threshold",),
    intervals=(1800.0, 3600.0, 7200.0),
    strengths=(2, 4),
    thresholds=(None,),
)


def screen_spec() -> FleetSpec:
    return FleetSpec(
        name="p06-screen",
        devices=SCREEN_DEVICES,
        policy="threshold",
        policy_kwargs={
            "interval": 2 * units.HOUR,
            "strength": 3,
            "threshold": 2,
            "with_detector": False,
        },
        base_config=SimulationConfig(
            num_lines=64, region_size=64, horizon=units.DAY, seed=2012,
            endurance=None,
        ),
        lots=(
            Lot(name="cool", weight=5,
                temperature_k=LotParameter(300.0, 0.0)),
            Lot(name="hot", weight=2,
                temperature_k=LotParameter(316.0, 0.0)),
            Lot(name="recalled", weight=1,
                temperature_k=LotParameter(350.0, 0.0)),
        ),
    )


def provision_spec() -> FleetSpec:
    return FleetSpec(
        name="p06-provision",
        devices=PROVISION_DEVICES,
        policy="threshold",
        policy_kwargs={
            "interval": 2 * units.HOUR,
            "strength": 4,
            "threshold": 3,
            "with_detector": False,
        },
        base_config=SimulationConfig(
            num_lines=256, region_size=256, horizon=units.DAY, seed=2012,
            endurance=None,
        ),
        lots=(
            Lot(name="nominal", weight=1,
                temperature_k=LotParameter(300.0, 0.0)),
            Lot(name="hot", weight=1,
                temperature_k=LotParameter(312.0, 0.0)),
        ),
    )


def compute(monkeypatch, profiler=NULL_PROFILER):
    results: dict[str, object] = {}

    spec = screen_spec()
    horizon_hours = spec.base_config.horizon / units.HOUR
    constraints = ScreenConstraints(
        fit_limit=SCREEN_COUNT_BUDGET
        * FIT_HOURS
        * spec.capacity_scale
        / horizon_hours
    )
    # Cold kernel memo both ways: the ratio measures computation, not a
    # warm cache (the scalar path never consults the propagation memo).
    clear_propagation_cache()
    started = time.perf_counter()
    with profiler.span("p06.screen_batched"):
        plan_batched = plan_screen(spec, constraints)
    results["screen_batched_wall"] = time.perf_counter() - started

    started = time.perf_counter()
    with profiler.span("p06.screen_scalar"), monkeypatch.context() as patch:
        patch.setattr(planner, "finite_horizon_batch", scalar_finite_horizon)
        plan_scalar = plan_screen(spec, constraints)
    results["screen_scalar_wall"] = time.perf_counter() - started
    results["screen"] = (spec, plan_batched, plan_scalar)

    pspec = provision_spec()
    clear_propagation_cache()
    started = time.perf_counter()
    with profiler.span("p06.provision_batched"):
        report_batched = ProvisionSearch(pspec, PROVISION_SPACE).run()
    results["provision_batched_wall"] = time.perf_counter() - started

    started = time.perf_counter()
    with profiler.span("p06.provision_scalar"), monkeypatch.context() as patch:
        patch.setattr(search, "finite_horizon_batch", scalar_finite_horizon)
        report_scalar = ProvisionSearch(pspec, PROVISION_SPACE).run()
    results["provision_scalar_wall"] = time.perf_counter() - started
    results["provision"] = (pspec, report_batched, report_scalar)
    return results


def test_p06_surrogate_kernel(
    benchmark, emit, bench_summary, bench_profiler, monkeypatch
):
    results = benchmark.pedantic(
        compute, args=(monkeypatch, bench_profiler), rounds=1, iterations=1
    )
    spec, plan_batched, plan_scalar = results["screen"]
    pspec, report_batched, report_scalar = results["provision"]

    # Screen identity: same classification, reasons and escalation set
    # for every device.
    assert [
        (d.index, d.classification, d.reasons) for d in plan_batched.decisions
    ] == [
        (d.index, d.classification, d.reasons) for d in plan_scalar.decisions
    ]
    assert plan_batched.escalated == plan_scalar.escalated

    # Provision identity: same frontiers and recommendations per lot.
    for lot_b, lot_s in zip(report_batched.lots, report_scalar.lots):
        assert lot_b.frontier == lot_s.frontier, (
            f"lot {lot_b.lot}: batched frontier != scalar"
        )
        assert lot_b.recommended == lot_s.recommended
    assert report_batched.mc_device_runs == report_scalar.mc_device_runs == 0

    screen_speedup = results["screen_scalar_wall"] / max(
        1e-9, results["screen_batched_wall"]
    )
    provision_speedup = results["provision_scalar_wall"] / max(
        1e-9, results["provision_batched_wall"]
    )
    assert screen_speedup >= MIN_SPEEDUP, (
        f"screen batched only {screen_speedup:.1f}x faster"
    )
    assert provision_speedup >= MIN_SPEEDUP, (
        f"provision batched only {provision_speedup:.1f}x faster"
    )

    bench_summary["p06_surrogate_kernel"] = {
        "screen_devices": spec.devices,
        "provision_devices": pspec.devices,
        "provision_candidates": len(PROVISION_SPACE.candidates()),
        "screen_batched_wall_seconds": round(
            results["screen_batched_wall"], 4
        ),
        "screen_scalar_wall_seconds": round(results["screen_scalar_wall"], 4),
        "provision_batched_wall_seconds": round(
            results["provision_batched_wall"], 4
        ),
        "provision_scalar_wall_seconds": round(
            results["provision_scalar_wall"], 4
        ),
        "screen_speedup": round(screen_speedup, 2),
        "provision_speedup": round(provision_speedup, 2),
    }
    emit(
        "p06_surrogate_kernel",
        "\n".join(
            [
                "P6: grid-batched renewal kernel vs scalar recursion",
                f"  screen ({spec.devices} devices, {len(spec.lots)} lots):",
                f"    batched: {results['screen_batched_wall']:8.2f}s",
                f"    scalar:  {results['screen_scalar_wall']:8.2f}s"
                f"  ({screen_speedup:.1f}x)",
                f"  provision ({pspec.devices} devices, "
                f"{len(PROVISION_SPACE.candidates())} candidates, "
                f"{len(pspec.lots)} lots):",
                f"    batched: {results['provision_batched_wall']:8.2f}s",
                f"    scalar:  {results['provision_scalar_wall']:8.2f}s"
                f"  ({provision_speedup:.1f}x)",
                f"  classifications: {plan_batched.counts()}",
            ]
        ),
    )
