"""Metamorphic properties of the scrub simulator.

Metamorphic testing checks *relations between runs* instead of absolute
numbers: we may not know how many uncorrectable errors a configuration
should produce, but we know with certainty which direction the count must
move when one knob turns.  Each property here encodes one such ordering
law from the paper's problem structure:

* **Shorter scrub interval never hurts** - scrubbing more often catches
  drifted cells earlier, so uncorrectables are non-decreasing in the
  interval (`interval_monotonicity`).
* **Stronger ECC never hurts** - a code correcting more errors per line
  strictly dominates a weaker one on the same error pattern, for both
  the BCH and the Reed-Solomon ladder (`ecc_monotonicity`).
* **More drift variance hurts** - widening the drift-coefficient spread
  puts more mass in the fast-drifting tail, so uncorrectables are
  non-decreasing in the sigma scale (`drift_monotonicity`).
* **Failures accelerate** - a fresh population starts error-free and
  ramps toward steady state, so the second half of a run produces at
  least as many uncorrectables as the first: doubling the horizon at
  least doubles the count (`horizon_superadditivity`).
* **A laxer write-back threshold never writes more** - raising the
  threshold theta only removes lines from the write-back set, so scrub
  writes - and with them scrub energy, since reads/detects/decodes are
  pass-count-fixed - are non-increasing in theta
  (`threshold_write_monotonicity`, `threshold_energy_monotonicity`).
* **Partial write-back never costs more energy** - re-programming only
  the drifted cells is cheaper per event than rewriting the line, so
  the partial policy's scrub energy never exceeds the full-line
  threshold policy's at the same knob settings
  (`partial_writeback_economy`).

All runs in a property share one seed.  The population's crossing times
are drawn before the engine starts and the idle-workload engine is
deterministic afterwards, so each comparison is *paired*: the orderings
hold sample-path-wise, not merely in expectation, and the checks need no
statistical slack (the horizon property alone keeps a small epsilon for
the boundary case where both halves tie).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import units
from ..analysis.sweeps import sweep_policies
from ..core.threshold import ThresholdScrubPolicy
from ..ecc.schemes import get_scheme
from ..fields import dump
from ..sim.config import SimulationConfig
from ..sim.parallel import RunSpec, run_many

#: Slack factor for the superadditivity check: UE(2H) >= 2 * UE(H) * (1 - eps).
#: The relation is deterministic for a paired seed; the epsilon only
#: tolerates the degenerate near-tie when counts are tiny.
SUPERADDITIVITY_EPS = 0.02


@dataclass(frozen=True)
class PropertyCase:
    """One run inside a property: the knob setting and the metric."""

    label: str
    value: float

    def to_dict(self) -> dict:
        return dump(self)


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one metamorphic property."""

    name: str
    #: The ordering law, stated for a reader of the report.
    relation: str
    #: Cases in the order the law requires (each step must satisfy it).
    cases: tuple[PropertyCase, ...]
    passed: bool

    def to_dict(self) -> dict:
        return dump(self)


@dataclass(frozen=True)
class MetamorphicReport:
    """All property outcomes from one suite run."""

    results: tuple[PropertyResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> tuple[PropertyResult, ...]:
        return tuple(result for result in self.results if not result.passed)

    def to_dict(self) -> dict:
        return {"passed": self.passed, **dump(self)}


def _non_decreasing(values: list[float]) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _base_config(seed: int, quick: bool) -> SimulationConfig:
    return SimulationConfig(
        num_lines=2048 if quick else 8192,
        region_size=2048 if quick else 8192,
        horizon=(3 if quick else 7) * units.DAY,
        seed=seed,
        endurance=None,
    )


def interval_monotonicity(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> PropertyResult:
    """Uncorrectables are non-decreasing in the scrub interval."""
    intervals = [2 * units.HOUR, 4 * units.HOUR, 8 * units.HOUR]
    config = _base_config(seed, quick)
    specs = [
        RunSpec(
            policy="threshold",
            config=config,
            policy_kwargs={"interval": interval, "strength": 3, "threshold": 1},
        )
        for interval in intervals
    ]
    results = run_many(specs, jobs=jobs)
    cases = tuple(
        PropertyCase(
            label=f"T={interval / units.HOUR:g}h",
            value=float(result.stats.uncorrectable),
        )
        for interval, result in zip(intervals, results)
    )
    return PropertyResult(
        name="interval_monotonicity",
        relation="UE(T1) <= UE(T2) for T1 <= T2 (same seed)",
        cases=cases,
        passed=_non_decreasing([case.value for case in cases]),
    )


def ecc_monotonicity(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> list[PropertyResult]:
    """Uncorrectables are non-increasing in ECC strength (BCH and RS)."""
    ladders = [("bch", ["bch2", "bch4", "bch8"]), ("rs", ["rs2", "rs4", "rs8"])]
    if quick:
        ladders = [(family, names[:2]) for family, names in ladders]
    config = _base_config(seed, quick)
    interval = 4 * units.HOUR
    # RS schemes are not reachable through the RunSpec factory's strength
    # knob, so run ready-built policies instead.
    policies = [
        ThresholdScrubPolicy(get_scheme(name), interval=interval, threshold=1)
        for _, names in ladders
        for name in names
    ]
    results = sweep_policies(policies, config, jobs=jobs)

    outcomes = []
    cursor = 0
    for family, names in ladders:
        chunk = results[cursor : cursor + len(names)]
        cursor += len(names)
        cases = tuple(
            PropertyCase(label=name, value=float(result.stats.uncorrectable))
            for name, result in zip(names, chunk)
        )
        values = [case.value for case in cases]
        outcomes.append(
            PropertyResult(
                name=f"ecc_monotonicity_{family}",
                relation="UE(stronger code) <= UE(weaker code) (same seed)",
                cases=cases,
                passed=_non_decreasing(values[::-1]),
            )
        )
    return outcomes


def drift_monotonicity(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> PropertyResult:
    """Uncorrectables are non-decreasing in the drift-sigma scale."""
    scales = [1.0, 1.5, 2.0]
    if quick:
        scales = scales[:2]
    base = _base_config(seed, quick)
    specs = []
    for scale in scales:
        cell = base.line.cell
        scaled = replace(
            cell,
            drift=tuple(
                replace(d, nu_sigma=d.nu_sigma * scale) for d in cell.drift
            ),
        )
        specs.append(
            RunSpec(
                policy="threshold",
                config=replace(base, line=replace(base.line, cell=scaled)),
                policy_kwargs={
                    "interval": 4 * units.HOUR,
                    "strength": 3,
                    "threshold": 1,
                },
            )
        )
    results = run_many(specs, jobs=jobs)
    cases = tuple(
        PropertyCase(
            label=f"sigma x{scale:g}", value=float(result.stats.uncorrectable)
        )
        for scale, result in zip(scales, results)
    )
    return PropertyResult(
        name="drift_monotonicity",
        relation="UE(sigma1) <= UE(sigma2) for sigma1 <= sigma2 (same seed)",
        cases=cases,
        passed=_non_decreasing([case.value for case in cases]),
    )


def horizon_superadditivity(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> PropertyResult:
    """Doubling the horizon at least doubles the uncorrectable count.

    The first half of the doubled run replays the short run exactly (same
    seed, idle workload, deterministic engine), so the check isolates the
    second window: a fresh population cannot fail faster early than late.
    """
    base = _base_config(seed, quick)
    specs = [
        RunSpec(
            policy="threshold",
            config=replace(base, horizon=horizon),
            policy_kwargs={
                "interval": 4 * units.HOUR,
                "strength": 3,
                "threshold": 2,
            },
        )
        for horizon in (base.horizon, 2 * base.horizon)
    ]
    results = run_many(specs, jobs=jobs)
    short, doubled = (float(r.stats.uncorrectable) for r in results)
    cases = (
        PropertyCase(label="H", value=short),
        PropertyCase(label="2H", value=doubled),
    )
    return PropertyResult(
        name="horizon_superadditivity",
        relation="UE(2H) >= 2 * UE(H) (same seed)",
        cases=cases,
        passed=doubled >= 2.0 * short * (1.0 - SUPERADDITIVITY_EPS),
    )


def threshold_monotonicity(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> list[PropertyResult]:
    """Scrub writes and scrub energy are non-increasing in the threshold.

    Raising theta only shrinks the set of lines eligible for write-back
    on each pass, and the remaining scrub work (reads, detects, decodes)
    is fixed by the pass count - so both orderings hold sample-path-wise
    on a shared seed.  One triple of runs feeds both properties.
    """
    thresholds = [1, 2, 3]
    if quick:
        thresholds = thresholds[:2]
    config = _base_config(seed, quick)
    specs = [
        RunSpec(
            policy="threshold",
            config=config,
            policy_kwargs={
                "interval": 4 * units.HOUR,
                "strength": 3,
                "threshold": threshold,
            },
        )
        for threshold in thresholds
    ]
    results = run_many(specs, jobs=jobs)
    outcomes = []
    for metric, values in (
        ("write", [float(r.stats.scrub_writes) for r in results]),
        ("energy", [float(r.stats.scrub_energy) for r in results]),
    ):
        cases = tuple(
            PropertyCase(label=f"theta={threshold}", value=value)
            for threshold, value in zip(thresholds, values)
        )
        outcomes.append(
            PropertyResult(
                name=f"threshold_{metric}_monotonicity",
                relation=(
                    f"scrub {metric}(theta1) >= scrub {metric}(theta2) "
                    "for theta1 <= theta2 (same seed)"
                ),
                cases=cases,
                passed=_non_decreasing(values[::-1]),
            )
        )
    return outcomes


def partial_writeback_economy(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> PropertyResult:
    """Cell-selective write-back never spends more scrub energy.

    The partial policy re-programs only the drifted cells per write-back
    event instead of the whole line, so at identical interval / strength
    / threshold settings its scrub energy cannot exceed the full-line
    threshold policy's.  (Only energy is paired: resetting a subset of
    cells changes the population trajectory, so event and UE counts may
    legitimately differ between the two runs.)
    """
    config = _base_config(seed, quick)
    kwargs = {"interval": 4 * units.HOUR, "strength": 3, "threshold": 1}
    specs = [
        RunSpec(policy="threshold", config=config, policy_kwargs=kwargs),
        RunSpec(policy="partial", config=config, policy_kwargs=kwargs),
    ]
    full, partial = run_many(specs, jobs=jobs)
    cases = (
        PropertyCase(label="full-line", value=float(full.stats.scrub_energy)),
        PropertyCase(label="partial", value=float(partial.stats.scrub_energy)),
    )
    return PropertyResult(
        name="partial_writeback_economy",
        relation="scrub energy(partial) <= scrub energy(full-line) (same seed)",
        cases=cases,
        passed=partial.stats.scrub_energy <= full.stats.scrub_energy,
    )


def _run_fingerprint(result) -> tuple:
    """Everything a run measures, for exact (bitwise) comparison."""
    return (
        result.stats.summary(),
        result.stats.energy_breakdown(),
        [int(v) for v in result.stats.error_histogram],
        result.stats.visits_with_errors,
        result.stats.partial_cells,
        dict(result.final_state),
    )


def fast_forward_identity(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> PropertyResult:
    """Fast-forward on == off, bit-exact, across the policy matrix.

    The fast-forward layer's whole contract: folding quiescent visits into
    bulk charges must not move a single bit of any measured quantity.  Each
    policy runs twice on the same seed — naive walk vs fast-forward — at a
    drift-compensated operating point where long error-free stretches make
    the fast path actually engage (basic scrub folds the most; threshold
    and adaptive engage until their first standing sub-threshold error).
    """
    config = replace(_base_config(seed, quick), compensated_sensing=True)
    policies = ["basic", "strong", "threshold", "adaptive"]
    kwargs: dict[str, dict] = {p: {"interval": 2 * units.HOUR} for p in policies}
    kwargs["threshold"]["strength"] = 3
    kwargs["adaptive"]["strength"] = 3
    # Clamp adaptive at its base interval so relax is a no-op from the first
    # visit — otherwise the relax ladder keeps the region ineligible and the
    # adaptive case would only exercise the (trivial) never-engaged identity.
    kwargs["adaptive"]["max_interval"] = 2 * units.HOUR
    specs = []
    for name in policies:
        for fast_forward in (True, False):
            specs.append(
                RunSpec(
                    policy=name,
                    config=replace(config, fast_forward=fast_forward),
                    policy_kwargs=kwargs[name],
                )
            )
    results = run_many(specs, jobs=jobs)
    cases = []
    passed = True
    for i, name in enumerate(policies):
        on, off = results[2 * i], results[2 * i + 1]
        identical = _run_fingerprint(on) == _run_fingerprint(off)
        passed = passed and identical
        skipped = (on.fast_forward or {}).get("skipped_visits", 0)
        cases.append(
            PropertyCase(label=f"{name} (skipped {skipped})", value=float(identical))
        )
    return PropertyResult(
        name="fast_forward_identity",
        relation="run(fast-forward) == run(naive walk), bit-exact (same seed)",
        cases=tuple(cases),
        passed=passed,
    )


def batch_identity(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> PropertyResult:
    """Batch engine == scalar engine, bit-exact, on its identity domain.

    The batch engine's draw-order contract
    (:mod:`repro.sim.batch`): wherever batching preserves each RNG
    stream's draw order, whole-round evaluation must not move a single
    bit of any measured quantity.  Each case runs twice on the same seed —
    ``engine="batch"`` vs ``engine="scalar"`` — across the domains the
    contract covers: multi-region idle devices for decode-all, detector,
    and partial policies (round mode, including the batched detector
    fill), a scheduler-driven adaptive policy under demand (no batch
    interval, so the batch engine's scalar-walk fallback), and a
    single-region device under demand (round mode with workload draws).
    Multi-region demand in round mode is deliberately absent: batching
    reorders the workload stream there, and that regime is gated by the
    ``batch_vs_scalar`` equivalence band instead.
    """
    base = _base_config(seed, quick)
    multi = replace(base, region_size=base.region_size // 8)
    from ..workloads.generators import uniform_rates

    busy = uniform_rates(
        base.num_lines, total_write_rate=base.num_lines * 2.0 / units.DAY
    )
    scenarios: list[tuple[str, str, SimulationConfig, dict, object]] = [
        ("basic multi-idle", "basic", multi, {"interval": 2 * units.HOUR}, None),
        (
            "threshold multi-idle",
            "threshold",
            multi,
            {"interval": 2 * units.HOUR, "strength": 3},
            None,
        ),
        (
            "partial multi-idle",
            "partial",
            multi,
            {"interval": 2 * units.HOUR, "strength": 3},
            None,
        ),
        (
            "adaptive multi-busy",
            "adaptive",
            multi,
            {"interval": 2 * units.HOUR, "strength": 3},
            busy,
        ),
        (
            "threshold single-busy",
            "threshold",
            base,
            {"interval": 2 * units.HOUR, "strength": 3},
            busy,
        ),
    ]
    if quick:
        scenarios = scenarios[:3] + scenarios[4:]
    specs = []
    for _, policy, config, kwargs, rates in scenarios:
        for engine in ("batch", "scalar"):
            specs.append(
                RunSpec(
                    policy=policy,
                    config=replace(config, engine=engine),
                    policy_kwargs=kwargs,
                    rates=rates,
                )
            )
    results = run_many(specs, jobs=jobs)
    cases = []
    passed = True
    for i, (label, *_rest) in enumerate(scenarios):
        batch, scalar = results[2 * i], results[2 * i + 1]
        identical = _run_fingerprint(batch) == _run_fingerprint(scalar)
        passed = passed and identical
        cases.append(PropertyCase(label=label, value=float(identical)))
    return PropertyResult(
        name="batch_identity",
        relation="run(engine=batch) == run(engine=scalar), bit-exact (same seed)",
        cases=tuple(cases),
        passed=passed,
    )


def run_metamorphic(
    seed: int = 2012, jobs: int = 1, quick: bool = False
) -> MetamorphicReport:
    """The full property suite as one report."""
    results = [interval_monotonicity(seed=seed, jobs=jobs, quick=quick)]
    results.extend(ecc_monotonicity(seed=seed, jobs=jobs, quick=quick))
    results.append(drift_monotonicity(seed=seed, jobs=jobs, quick=quick))
    results.append(horizon_superadditivity(seed=seed, jobs=jobs, quick=quick))
    results.extend(threshold_monotonicity(seed=seed, jobs=jobs, quick=quick))
    results.append(partial_writeback_economy(seed=seed, jobs=jobs, quick=quick))
    results.append(fast_forward_identity(seed=seed, jobs=jobs, quick=quick))
    results.append(batch_identity(seed=seed, jobs=jobs, quick=quick))
    return MetamorphicReport(results=tuple(results))
