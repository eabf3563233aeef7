"""The ``repro verify`` harness: all three verification pillars in one run.

The harness composes:

1. an **invariant sweep** - full simulations over a deliberately diverse
   set of configurations (every policy family, demand traffic, partial
   write-back, retirement with spares, read-triggered refresh) with
   :class:`repro.verify.invariants.InvariantChecker` armed, so every
   conservation law is audited on every code path;
2. the **metamorphic property suite** (:mod:`repro.verify.metamorphic`);
3. the **statistical cross-validation** of the Monte-Carlo engine against
   the analytic and renewal models (:mod:`repro.verify.equivalence`).

:func:`run_verification` returns a :class:`VerifyReport` that the CLI
renders as tables and JSON; ``passed`` is the single bit CI gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import units
from ..core import (
    adaptive_scrub,
    basic_scrub,
    combined_scrub,
    light_scrub,
    partial_scrub,
    strong_ecc_scrub,
    threshold_scrub,
)
from ..fields import dump
from ..params import EnduranceSpec
from ..sim.config import SimulationConfig
from ..sim.parallel import parallel_map
from ..sim.runner import crossing_distribution_for, run_experiment
from ..workloads import uniform_rates
from .bitexact import run_checked as run_bitexact_checked
from .config import VerifyConfig
from .equivalence import EquivalenceReport, run_equivalence
from .invariants import InvariantViolation
from .metamorphic import MetamorphicReport, run_metamorphic


@dataclass(frozen=True)
class InvariantCase:
    """One configuration of the invariant sweep and its outcome."""

    name: str
    passed: bool
    #: Structured violation payload when the case failed, else ``None``.
    violation: dict | None = None
    #: Headline counters for the report (visits / uncorrectables).
    visits: int = 0
    uncorrectable: int = 0

    def to_dict(self) -> dict:
        return dump(self)


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of the invariant sweep."""

    cases: tuple[InvariantCase, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def failures(self) -> tuple[InvariantCase, ...]:
        return tuple(case for case in self.cases if not case.passed)

    def to_dict(self) -> dict:
        return {"passed": self.passed, **dump(self)}


@dataclass(frozen=True)
class VerifyReport:
    """Everything ``repro verify`` produced."""

    invariants: InvariantReport
    metamorphic: MetamorphicReport
    equivalence: EquivalenceReport

    @property
    def passed(self) -> bool:
        return (
            self.invariants.passed
            and self.metamorphic.passed
            and self.equivalence.passed
        )

    def to_dict(self) -> dict:
        return {"passed": self.passed, **dump(self)}


def invariant_cases(
    seed: int = 2012, quick: bool = False
) -> list[tuple[str, object, SimulationConfig, object]]:
    """(name, policy, config, rates) tuples covering every engine path.

    Each case exists to drive a distinct ledger flow: the detector-less
    strong-ECC path, the partial write-back accounting, demand traffic
    through the adaptive controller, retirement drawing on the spare
    pool under a deliberately weak endurance spec, and read-triggered
    refresh bypassing the policy decision entirely.
    """
    base = SimulationConfig(
        num_lines=1024 if quick else 2048,
        region_size=512,
        horizon=(2 if quick else 3) * units.DAY,
        seed=seed,
        verify=VerifyConfig(invariants=True),
    )
    wl = uniform_rates(num_lines=base.num_lines, total_write_rate=5.0)
    interval = 2 * units.HOUR
    cases: list[tuple[str, object, SimulationConfig, object]] = [
        ("basic", basic_scrub(interval=interval), base, None),
        ("threshold", threshold_scrub(interval=interval), base, None),
        ("strong_ecc", strong_ecc_scrub(interval=2 * interval), base, None),
        ("partial", partial_scrub(interval=interval), base, None),
        ("light", light_scrub(interval=interval), base, None),
        ("adaptive+demand", adaptive_scrub(interval=interval), base, wl),
        ("combined+demand", combined_scrub(interval=interval), base, wl),
        (
            # Deliberately weak endurance + rewrite-everything policy so
            # retirements actually happen and the spare-pool identities
            # (and refusal counting past exhaustion) are live, not vacuous.
            "retire+spares",
            basic_scrub(interval=interval),
            replace(
                base,
                retire_hard_limit=2,
                spares_per_region=8,
                endurance=EnduranceSpec(mean_writes=20.0),
            ),
            None,
        ),
        (
            "read_refresh",
            threshold_scrub(interval=2 * interval),
            replace(base, read_refresh=True),
            wl,
        ),
    ]
    if quick:
        keep = {"basic", "threshold", "partial", "retire+spares", "read_refresh"}
        cases = [case for case in cases if case[0] in keep]
    return cases


def _invariant_case_task(
    case: tuple[str, object, SimulationConfig, object],
) -> InvariantCase:
    """Run one sweep case; a violation becomes a failed case, not a raise.

    Module-level so it pickles across the spawn pool; the (policy, config,
    rates) payload is picklable by the same argument ``sweep_policies``
    relies on.
    """
    name, policy, config, rates = case
    try:
        result = run_experiment(policy, config, rates)
    except InvariantViolation as violation:
        return InvariantCase(name=name, passed=False, violation=violation.to_dict())
    return InvariantCase(
        name=name,
        passed=True,
        visits=result.stats.visits,
        uncorrectable=result.stats.uncorrectable,
    )


def _bitexact_case(seed: int, quick: bool) -> InvariantCase:
    """The bit-exact ledger cross-check as one sweep case."""
    try:
        visits, uncorrectable, __ = run_bitexact_checked(seed=seed, quick=quick)
    except InvariantViolation as violation:
        return InvariantCase(
            name="bitexact", passed=False, violation=violation.to_dict()
        )
    return InvariantCase(
        name="bitexact", passed=True, visits=visits, uncorrectable=uncorrectable
    )


def run_invariants(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> InvariantReport:
    """Run the invariant sweep, fanned over the process pool for ``jobs > 1``.

    Case order (and therefore the report) is identical for any ``jobs``;
    each case's run is seeded from its own config, so parallel execution
    is bit-identical to serial.  The bit-exact cross-check runs in the
    parent (it is small and keeps the pool payload to population runs).
    """
    cases = invariant_cases(seed=seed, quick=quick)
    if jobs > 1 and len(cases) > 1:
        # Tabulate (or disk-load) each distinct crossing distribution once
        # in the parent so spawn workers hit the disk cache.
        for __, __policy, config, __rates in cases:
            crossing_distribution_for(config)
    outcomes = parallel_map(_invariant_case_task, cases, jobs=jobs)
    outcomes.append(_bitexact_case(seed, quick))
    return InvariantReport(cases=tuple(outcomes))


def run_verification(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> VerifyReport:
    """All three pillars; the CLI's ``repro verify`` calls exactly this."""
    return VerifyReport(
        invariants=run_invariants(seed=seed, jobs=jobs, quick=quick),
        metamorphic=run_metamorphic(seed=seed, jobs=jobs, quick=quick),
        equivalence=run_equivalence(seed=seed, jobs=jobs, quick=quick),
    )
