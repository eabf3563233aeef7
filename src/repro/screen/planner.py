"""Surrogate screening: classify fleet devices before any MC is spent.

A million-device campaign cannot Monte-Carlo every device.  But most
devices in a real fleet are nowhere near their reliability budget, and
for the paper's own modelling assumptions the finite-horizon renewal
solution (:mod:`repro.sim.renewal`) is an *exact* surrogate for the
engine: same expected UE and write-back counts, same per-line survival
probability, at closed-form cost.  The planner evaluates every
lot-sampled device parameter point through that surrogate and
classifies it against the campaign's constraints:

``pass``
    the device's predictive interval clears every constraint - no MC;
``fail``
    the predictive interval violates a constraint outright - no MC
    either (the verdict is already deterministic);
``uncertain``
    the interval straddles a constraint, *or* the device sits outside
    the surrogate's validated regime (demand traffic, non-threshold
    policies, detector-gated decode, wear, spares, multi-region phase
    offsets) - these escalate to the full MC engine.

Classification is a pure function of ``(spec, constraints)``: device
parameters are drawn from ``default_rng([seed, index])`` exactly as the
campaign runner draws them, so the plan is independent of shard layout,
``--jobs``, or resume boundaries - the property the deterministic-
classification tests pin.

The planner works per lot, then per distinct device point.  Every input
of the regime check is a lot or base-config property, so it runs once,
on the lot's first device; an out-of-regime lot escalates unsampled.
The check and the lot's ``(interval, t, theta)`` point are read from the
lot's *built* policy (:meth:`repro.fleet.spec.FleetSpec.build_policy`),
never from defaulted kwargs; admission stays by factory name.  A lot
without spread is one point: sampled once, solved once, classified
once, its decision copied to each of its devices.  Only the devices of
in-regime lots with spread are sampled one by one, and only they fan out
over the process pool when ``jobs > 1``.  Points go through the
grid-batched kernel (:func:`repro.sim.renewal_batch.finite_horizon_batch`)
- one call per chunk, holding one task per device, which the kernel
collapses to one row per distinct task - with vectorized Poisson
predictive bounds.  The per-device scalar recursion is the reference
oracle (:func:`repro.verify.equivalence.scalar_finite_horizon`), run
through the same :func:`classify` step by the ``surrogate_batch`` law.
Provisioning (:mod:`repro.provision.search`) scores its candidates
through the same regime, point and :func:`classify` steps.

The *FIT* constraint is a per-device budget on the capacity-scaled FIT
(the same scaling as :attr:`repro.fleet.report.FleetReport.fit_scaled`).
The surrogate gives the exact expectation ``lambda`` of the device's UE
count over the horizon; the realized count is Poisson-distributed around
it, so the screen compares the central predictive interval against the
count budget ``c* = fit_limit * horizon_hours / (1e9 * capacity_scale)``.
The *availability* constraint compares the exact probability of a
UE-free horizon ``p0 = q(V)^num_lines`` against the floor, with a
configurable margin band that routes borderline devices to MC.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import poisson_quantile
from ..fields import dump, load
from ..fleet.report import FIT_HOURS
from ..fleet.spec import DeviceSpec, FleetSpec
from ..obs.metrics import GLOBAL_REGISTRY
from ..sim.parallel import parallel_map
from ..sim.renewal import FiniteHorizonSolution
from ..sim.renewal_batch import RenewalTask, finite_horizon_batch
from ..sim.runner import crossing_distribution_for


class ScreenError(ValueError):
    """A screening request is malformed or unsatisfiable."""


class ScreenInvariantError(RuntimeError):
    """A screening artifact failed an internal cross-check."""


#: Decision labels.
PASS, FAIL, UNCERTAIN = "pass", "fail", "uncertain"
#: Provenance labels.
SURROGATE, MC = "surrogate", "mc"


@dataclass(frozen=True)
class ScreenConstraints:
    """The reliability budget devices are screened against.

    At least one of ``fit_limit`` (capacity-scaled per-device FIT) and
    ``min_availability`` (per-device probability of a UE-free horizon)
    must be set.  ``confidence`` is the central coverage of the Poisson
    predictive interval used for the FIT screen; ``availability_margin``
    is the +-band around ``min_availability`` inside which a device is
    escalated instead of classified.
    """

    fit_limit: float | None = None
    min_availability: float | None = None
    confidence: float = 0.95
    availability_margin: float = 0.02

    def __post_init__(self) -> None:
        for name in ("fit_limit", "min_availability", "confidence", "availability_margin"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ScreenError(f"{name} must be finite, got {value!r}")
        if self.fit_limit is None and self.min_availability is None:
            raise ScreenError(
                "screening needs at least one constraint: fit_limit "
                "and/or min_availability"
            )
        if self.fit_limit is not None and self.fit_limit <= 0:
            raise ScreenError("fit_limit must be positive")
        if self.min_availability is not None and not 0 < self.min_availability < 1:
            raise ScreenError("min_availability must be in (0, 1)")
        if not 0 < self.confidence < 1:
            raise ScreenError("confidence must be in (0, 1)")
        if self.availability_margin < 0:
            raise ScreenError("availability_margin must be >= 0")

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "ScreenConstraints":
        return load(cls, data, path)


@dataclass(frozen=True)
class ScreenDecision:
    """One device's screening verdict and its surrogate evaluation."""

    index: int
    lot: str
    #: ``pass`` / ``fail`` / ``uncertain``.
    classification: str
    #: Why the device escalated (empty for surrogate-resolved devices):
    #: ``regime:*`` markers for out-of-regime points, ``fit_ci_overlap``
    #: and ``availability_margin`` for constraint-straddling ones.
    reasons: tuple[str, ...] = ()
    #: Exact expected device UE count over the horizon (``None`` when the
    #: surrogate was not evaluated because the device is out of regime).
    expected_ue: float | None = None
    #: Exact expected scrub write-backs over the horizon.
    expected_writes: float | None = None
    #: Exact probability of a UE-free horizon.
    no_ue_probability: float | None = None
    #: Capacity-scaled FIT implied by ``expected_ue``.
    fit_scaled: float | None = None

    def __post_init__(self) -> None:
        if self.classification not in (PASS, FAIL, UNCERTAIN):
            raise ScreenError(
                f"classification must be {PASS}, {FAIL} or {UNCERTAIN}, "
                f"got {self.classification!r}"
            )

    @property
    def method(self) -> str:
        """Where this device's report contribution comes from."""
        return MC if self.classification == UNCERTAIN else SURROGATE

    def to_dict(self) -> dict:
        # Added in place, not merged into a copy: a plan writes one
        # decision per device.
        written = dump(self)
        written["method"] = self.method
        return written

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "ScreenDecision":
        return load(cls, data, path, ignore=("method",))


@dataclass(frozen=True)
class ScreenPlan:
    """Every device's decision plus the constraints that produced them."""

    spec_hash: str
    constraints: ScreenConstraints
    decisions: tuple[ScreenDecision, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        indices = [decision.index for decision in self.decisions]
        if indices != list(range(len(indices))):
            raise ScreenInvariantError(
                "screen plan decisions must cover device indices "
                f"0..{len(indices) - 1} in order"
            )

    @property
    def devices(self) -> int:
        return len(self.decisions)

    @property
    def escalated(self) -> tuple[int, ...]:
        """Device indices routed to the MC engine, ascending."""
        return tuple(
            decision.index
            for decision in self.decisions
            if decision.method == MC
        )

    @property
    def surrogate_indices(self) -> tuple[int, ...]:
        return tuple(
            decision.index
            for decision in self.decisions
            if decision.method == SURROGATE
        )

    @property
    def mc_fraction(self) -> float:
        return len(self.escalated) / self.devices if self.devices else 0.0

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, UNCERTAIN: 0}
        for decision in self.decisions:
            out[decision.classification] += 1
        return out

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "ScreenPlan":
        return load(cls, data, path)


# -- regime checks ------------------------------------------------------------

#: Policies whose visit rule the renewal surrogate models exactly.  The
#: threshold family covers basic-style immediate write-back through
#: ``threshold=1``; adaptive/combined/budgeted schedules and partial
#: (cell-selective) write-back change the dynamics the solver propagates.
SURROGATE_POLICIES = frozenset({"threshold"})


def regime_reasons(spec: FleetSpec, device: DeviceSpec) -> tuple[str, ...]:
    """Why the surrogate's validity assumptions fail for ``device``.

    Empty means the finite-horizon renewal solution is exact for this
    device (idle, pure threshold rule without a detector, single region,
    no wear/retire/refresh/spares).  The policy checks run against the
    device's *lot-effective* assignment, built through its factory, so a
    per-lot provisioned fleet screens each lot under its own policy and
    a kwarg the factory rejects raises instead of reading as a default.
    Admission is by factory name (:data:`SURROGATE_POLICIES`).
    """
    reasons = []
    policy, _ = spec.policy_for(device.lot)
    built = spec.build_policy(device.lot)
    if policy not in SURROGATE_POLICIES:
        reasons.append(f"regime:policy:{policy}")
    elif built.scheme.has_detector:
        # The CRC detector gates decode and can miss; the solver models
        # unconditional decode.
        reasons.append("regime:detector")
    if spec.demand_write_rate is not None:
        reasons.append("regime:demand_workload")
    config = device.config
    if config.region_size != config.num_lines:
        # Multi-region devices stagger first-visit phases off the aligned
        # grid the recursion assumes.
        reasons.append("regime:multi_region")
    if config.endurance is not None:
        reasons.append("regime:endurance")
    if config.retire_hard_limit is not None:
        reasons.append("regime:retire_limit")
    if config.read_refresh:
        reasons.append("regime:read_refresh")
    if config.spares_per_region:
        reasons.append("regime:spares")
    return tuple(reasons)


def surrogate_point(spec: FleetSpec, lot: str) -> tuple[float, int, int]:
    """The in-regime lot's ``(interval, strength, threshold)``, read from its built policy."""
    built = spec.build_policy(lot)
    return float(built.interval), built.scheme.t, built.threshold


def poisson_predictive(lam: np.ndarray, confidence: float) -> tuple[np.ndarray, np.ndarray]:
    """Central predictive bounds on each Poisson(``lam``) realization.

    The bounds are whole numbers in float64; non-positive rates map to
    the degenerate ``(0, 0)`` interval.  A bound the quantile cannot give
    is left non-finite, so no comparison passes or fails a device on it:
    the upper bound is infinite when its tail rounds to 1 (``confidence``
    within ``2**-53`` of 1), and ``pdtrik`` gives NaN at some rates above
    about ``1e10``.
    """
    alpha = 1.0 - confidence
    rates = np.asarray(lam, dtype=np.float64)
    lo = np.zeros(rates.shape)
    hi = np.zeros(rates.shape)
    positive = rates > 0.0
    lo[positive] = poisson_quantile(alpha / 2.0, rates[positive])
    hi[positive] = poisson_quantile(1.0 - alpha / 2.0, rates[positive])
    return lo, hi


def classify(
    spec: FleetSpec,
    constraints: ScreenConstraints,
    entries: Sequence[tuple[int, DeviceSpec]],
    solutions: Sequence[FiniteHorizonSolution],
) -> list[ScreenDecision]:
    """Classify in-regime ``(index, device)`` entries from their solutions.

    ``solutions`` holds each entry's exact per-line finite-horizon
    solution; a device's verdict depends on its own solution only.
    """
    horizon_hours = spec.base_config.horizon / 3600.0
    num_lines = spec.base_config.num_lines
    lam = np.array([s.expected_ue for s in solutions]) * num_lines
    writes = np.array([s.expected_writes for s in solutions]) * num_lines
    no_ue = np.array([s.no_ue_probability ** num_lines for s in solutions])
    fit_scaled = lam / horizon_hours * FIT_HOURS * spec.capacity_scale
    if constraints.fit_limit is not None:
        # The per-device horizon UE count ``c*`` equivalent to the limit.
        count_limit = constraints.fit_limit * horizon_hours / FIT_HOURS / spec.capacity_scale
        lo, hi = poisson_predictive(lam, constraints.confidence)

    decisions = []
    for pos, (index, device) in enumerate(entries):
        verdicts = []
        escalation = []
        if constraints.fit_limit is not None:
            if hi[pos] <= count_limit:
                verdicts.append(PASS)
            elif lo[pos] > count_limit:
                verdicts.append(FAIL)
            else:
                verdicts.append(UNCERTAIN)
                escalation.append("fit_ci_overlap")
        if constraints.min_availability is not None:
            margin = constraints.availability_margin
            if no_ue[pos] >= constraints.min_availability + margin:
                verdicts.append(PASS)
            elif no_ue[pos] < constraints.min_availability - margin:
                verdicts.append(FAIL)
            else:
                verdicts.append(UNCERTAIN)
                escalation.append("availability_margin")

        if FAIL in verdicts:
            classification, reasons = FAIL, ()
        elif UNCERTAIN in verdicts:
            classification, reasons = UNCERTAIN, tuple(escalation)
        else:
            classification, reasons = PASS, ()
        decisions.append(
            ScreenDecision(
                index=index,
                lot=device.lot,
                classification=classification,
                reasons=reasons,
                expected_ue=float(lam[pos]),
                expected_writes=float(writes[pos]),
                no_ue_probability=float(no_ue[pos]),
                fit_scaled=float(fit_scaled[pos]),
            )
        )
    return decisions


def _chunk_bounds(devices: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` device ranges, floor-apportioned."""
    chunks = max(1, min(jobs, devices))
    base, extra = divmod(devices, chunks)
    bounds = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _plan_chunk(payload) -> list[ScreenDecision]:
    """Worker entry for the ``jobs > 1`` fan-out (must stay picklable).

    Samples each listed device of an in-regime lot with spread and
    classifies it as its own point.
    """
    spec, constraints, lot_points, indices = payload
    return _classify_points(
        spec, constraints, lot_points,
        [((index,), spec.device_spec(index)) for index in indices],
    )


def _classify_points(
    spec: FleetSpec,
    constraints: ScreenConstraints,
    lot_points: dict[str, tuple[float, int, int]],
    points: Sequence[tuple[Sequence[int], DeviceSpec]],
) -> list[ScreenDecision]:
    """Decisions for every index of in-regime ``(indices, device)`` points.

    A point's indices are devices with its parameters, so they share its
    task and its decision.  ``lot_points`` holds each lot's
    :func:`surrogate_point`.  One kernel call holds one task per device
    index, and one :func:`classify` pass covers the points.  A device's
    verdict depends on its own solution only, so the decisions do not
    depend on the chunking.
    """
    if not points:
        return []
    tasks: list[RenewalTask] = []
    firsts = []
    for indices, device in points:
        task = RenewalTask(
            crossing_distribution_for(device.config),
            device.config.cells_per_line,
            *lot_points[device.lot],
        )
        firsts.append(len(tasks))
        tasks += [task] * len(indices)
    solutions = finite_horizon_batch(tasks, spec.base_config.horizon)
    point_decisions = classify(
        spec,
        constraints,
        [(indices[0], device) for indices, device in points],
        [solutions[first] for first in firsts],
    )
    decisions = []
    for (indices, _), decision in zip(points, point_decisions):
        # Keyword copies: half the cost of ``dataclasses.replace``.
        shared = vars(decision)
        decisions += [ScreenDecision(**{**shared, "index": index}) for index in indices]
    return decisions


def plan_screen(
    spec: FleetSpec,
    constraints: ScreenConstraints,
    jobs: int = 1,
) -> ScreenPlan:
    """Classify every device of ``spec`` against ``constraints``.

    Pure and deterministic: the result depends only on the spec and the
    constraints, not on ``jobs``.  The regime check runs once per lot,
    on its first device, and an in-regime lot's :func:`surrogate_point`
    is read once, so each lot's policy is built twice per plan, not once
    per device.  An out-of-regime lot's devices escalate
    unsampled, and a lot without spread is one sampled point whose
    decision every device copies.  Only the devices of in-regime lots
    with spread are sampled one by one, in contiguous chunks that fan
    out over :func:`repro.sim.parallel.parallel_map` when ``jobs > 1``.
    Also publishes ``screen_*`` gauges into the process metrics
    registry.
    """
    jobs = max(1, int(jobs))
    decisions: list[ScreenDecision | None] = [None] * spec.devices
    lot_points: dict[str, tuple[float, int, int]] = {}
    points: list[tuple[range, DeviceSpec]] = []
    sampled: list[int] = []
    for lot, indices in zip(spec.lots, spec.lot_ranges()):
        if not indices:
            continue
        first = spec.device_spec(indices.start)
        reasons = regime_reasons(spec, first)
        if reasons:
            for index in indices:
                decisions[index] = ScreenDecision(
                    index=index, lot=lot.name,
                    classification=UNCERTAIN, reasons=reasons,
                )
            continue
        lot_points[lot.name] = surrogate_point(spec, lot.name)
        if lot.has_spread:
            sampled.extend(indices)
        else:
            points.append((indices, first))

    chunks = [
        (spec, constraints, lot_points, sampled[chunk_start:chunk_stop])
        for chunk_start, chunk_stop in _chunk_bounds(len(sampled), jobs)
    ]
    found = _classify_points(spec, constraints, lot_points, points)
    for chunk in parallel_map(_plan_chunk, chunks, jobs=jobs):
        found += chunk
    for decision in found:
        decisions[decision.index] = decision

    plan = ScreenPlan(
        spec_hash=spec.content_hash(),
        constraints=constraints,
        decisions=tuple(decisions),
    )
    counts = plan.counts()
    GLOBAL_REGISTRY.gauge("screen_devices").set(plan.devices)
    GLOBAL_REGISTRY.gauge("screen_surrogate").set(plan.devices - counts[UNCERTAIN])
    GLOBAL_REGISTRY.gauge("screen_escalated").set(counts[UNCERTAIN])
    GLOBAL_REGISTRY.gauge("screen_pass").set(counts[PASS])
    GLOBAL_REGISTRY.gauge("screen_fail").set(counts[FAIL])
    GLOBAL_REGISTRY.gauge("screen_uncertain").set(counts[UNCERTAIN])
    GLOBAL_REGISTRY.gauge("screen_mc_fraction").set(plan.mc_fraction)
    return plan
