"""Per-lot candidate search: surrogate-first, MC only where it matters.

:class:`ProvisionSearch` sweeps a :class:`CandidateSpace` (policy x
interval x ECC strength x threshold grid) over every lot of a
:class:`repro.fleet.spec.FleetSpec` and scores each (lot, candidate)
pair along five minimized axes:

1. capacity-scaled UE FIT,
2. scrub energy per simulated GiB,
3. scrub write-backs per device (wear),
4. $/GiB of usable capacity under the candidate's ECC overhead,
5. kgCO2e/GiB (operational + amortized embodied).

Exhaustively Monte-Carlo-ing the grid costs ``lots x candidates x
devices`` engine runs.  The search instead scores each candidate's
variant spec through the screening planner's own steps
(:mod:`repro.screen.planner`): for in-regime candidates (detector-less
threshold policies on idle single-region devices) the exact renewal
surrogate at the planner's :func:`~repro.screen.planner.surrogate_point`
gives the *exact* expectation of every axis at closed-form cost, so no
MC is spent at all.  The whole grid is scored per lot in one call to the
grid-batched kernel (:func:`repro.sim.renewal_batch.finite_horizon_batch`)
- each device's crossing distribution is tabulated once and its
propagation memoized across candidates.  A device escalates to the real
engine only when

* the candidate is out of the surrogate's validated regime (adaptive/
  combined/partial policies, detector-gated decode, demand traffic,
  wear/retire/refresh/spares), as judged by
  :func:`repro.screen.planner.regime_reasons` once per (lot,
  candidate), on the lot's first device of the variant spec; or
* a ``fit_limit`` is set and :func:`repro.screen.planner.classify`
  leaves the device ``uncertain``: its Poisson predictive interval
  straddles the per-device count budget (the verdict is genuinely
  uncertain at expectation level).  A candidate's MC devices are thus
  exactly the lot's uncertain devices in ``plan_screen`` of its
  variant spec.

Escalated devices run through ``CampaignRunner(variant, indices=...)``
- the same subset path the screening report uses - so results are
bit-identical to a full campaign of the variant spec, independent of
``jobs``.  ``exhaustive=True`` forces every device of every candidate
to MC; the benchmark asserts the screened search reaches the same
per-lot frontier with a fraction of the MC device-runs.
"""

from __future__ import annotations

import itertools
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

from ..core.threshold import default_threshold
from ..fields import (
    FieldError, array, dump, flag, integer, load, optional, positive, real, text,
)
from ..fleet.campaign import CampaignRunner
from ..fleet.report import FIT_HOURS, per_gib
from ..fleet.spec import DeviceSpec, FleetSpec, Lot
from ..pcm.energy import OperationCosts
from ..screen.planner import (
    UNCERTAIN, ScreenConstraints, classify, regime_reasons, surrogate_point,
)
from ..sim.parallel import POLICY_FACTORIES
from ..sim.renewal import FiniteHorizonSolution
from ..sim.renewal_batch import RenewalTask, finite_horizon_batch
from ..sim.runner import crossing_distribution_for
from .cost import CostModel, ProvisionError
from .knee import knee_point
from .pareto import ParetoPoint, pareto_frontier

logger = logging.getLogger(__name__)


#: Evaluation provenance labels.
SURROGATE, MC, MIXED = "surrogate", "mc", "mixed"

#: The objective axes, in :meth:`CandidateEvaluation.axes` order.
AXES = (
    "fit_scaled",
    "energy_per_gib_j",
    "writes_per_device",
    "dollars_per_gib",
    "carbon_per_gib_kg",
)

#: Policies that take a write-back threshold parameter.
_THRESHOLD_POLICIES = frozenset({"threshold", "partial"})
#: Policies whose factory takes only ``interval``.
_INTERVAL_ONLY_POLICIES = frozenset({"basic"})


def _policy_name(value, path: str) -> str:
    if text(value, path) not in POLICY_FACTORIES:
        raise ProvisionError(
            f"unknown policy {value!r} ({path}); "
            f"available: {sorted(POLICY_FACTORIES)}"
        )
    return value


#: A count that must be at least one: an ECC strength or a threshold.
_count = positive(integer)


@contextmanager
def _provision_errors(what: str):
    """Re-raise a shared reader's ``FieldError`` as a ``ProvisionError``."""
    try:
        yield
    except FieldError as error:
        raise ProvisionError(f"{what} {error}") from None


def _check(instance, what: str, checks: dict) -> None:
    """Store each field read through its check; a bad one raises ``ProvisionError``.

    Candidates and spaces come from JSON, CLI flags and Python callers,
    so their constructors check every field through the shared readers.
    """
    with _provision_errors(what):
        for name, check in checks.items():
            object.__setattr__(instance, name, check(getattr(instance, name), name))


@dataclass(frozen=True)
class Candidate:
    """One point of the provisioning grid: a concrete scrub assignment."""

    policy: str
    interval: float
    strength: int = 4
    #: Write-back threshold for the threshold/partial families; ``None``
    #: resolves to the family default (:attr:`effective_threshold`).
    threshold: int | None = None
    #: Whether threshold-family candidates keep the CRC detector.  Off by
    #: default: detector-less threshold scrub is the surrogate-exact
    #: regime, which is what makes the search cheap.
    with_detector: bool = False

    def __post_init__(self) -> None:
        _check(self, "candidate", _CANDIDATE_CHECKS)
        if self.threshold is not None:
            if self.policy not in _THRESHOLD_POLICIES:
                raise ProvisionError(
                    f"policy {self.policy!r} takes no threshold parameter"
                )
            if not 1 <= self.threshold <= self.strength:
                raise ProvisionError(
                    f"threshold {self.threshold} outside "
                    f"[1, strength={self.strength}]"
                )

    @property
    def effective_threshold(self) -> int | None:
        """The resolved write-back threshold (``None`` off-family)."""
        if self.policy not in _THRESHOLD_POLICIES:
            return None
        if self.threshold is not None:
            return self.threshold
        return default_threshold(self.strength)

    @property
    def key(self) -> str:
        """Stable identifier; doubles as the Pareto point key."""
        parts = [self.policy, f"T{self.interval:g}"]
        if self.policy not in _INTERVAL_ONLY_POLICIES:
            parts.append(f"t{self.strength}")
        theta = self.effective_threshold
        if theta is not None:
            parts.append(f"theta{theta}")
        if self.policy == "threshold" and self.with_detector:
            parts.append("det")
        return "/".join(parts)

    def policy_kwargs(self) -> dict:
        """Factory kwargs; also the per-lot ``policy_kwargs`` override."""
        if self.policy in _INTERVAL_ONLY_POLICIES:
            return {"interval": self.interval}
        kwargs: dict = {"interval": self.interval, "strength": self.strength}
        theta = self.effective_threshold
        if theta is not None:
            kwargs["threshold"] = theta
        if self.policy == "threshold":
            kwargs["with_detector"] = self.with_detector
        return kwargs

    def build_policy(self):
        """Instantiate the scrub policy (for its ECC scheme metadata)."""
        return POLICY_FACTORIES[self.policy](**self.policy_kwargs())

    def to_dict(self) -> dict:
        return {**dump(self), "key": self.key}

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "Candidate":
        with _provision_errors("candidate"):
            return load(cls, data, path, ignore=("key",))


_CANDIDATE_CHECKS = {
    "policy": _policy_name,
    "interval": positive(real),
    "strength": _count,
    "threshold": optional(_count),
    "with_detector": flag,
}


@dataclass(frozen=True)
class CandidateSpace:
    """The provisioning grid: the cross product, minus redundant points.

    Combinations that collapse to the same factory call (``basic`` at
    two strengths) are deduplicated, and threshold values exceeding a
    combination's strength are skipped rather than rejected, so a single
    rectangular grid spec covers ragged per-policy parameter spaces.
    """

    policies: tuple[str, ...] = ("threshold",)
    intervals: tuple[float, ...] = (1800.0, 3600.0, 7200.0)
    strengths: tuple[int, ...] = (2, 4)
    thresholds: tuple[int | None, ...] = (None,)
    with_detector: bool = False

    def __post_init__(self) -> None:
        _check(self, "candidate space", _SPACE_CHECKS)
        for name in ("policies", "intervals", "strengths", "thresholds"):
            if not getattr(self, name):
                raise ProvisionError(
                    f"candidate space {name} needs at least one value"
                    + (" (null = auto)" if name == "thresholds" else "")
                )

    def candidates(self) -> tuple[Candidate, ...]:
        """The deduplicated grid, in deterministic generation order."""
        seen: dict[tuple, Candidate] = {}
        grid = itertools.product(
            self.policies, self.intervals, self.strengths, self.thresholds
        )
        for policy, interval, strength, threshold in grid:
            if threshold is not None and (
                policy not in _THRESHOLD_POLICIES or threshold > strength
            ):
                continue
            candidate = Candidate(
                policy=policy,
                interval=interval,
                strength=strength,
                threshold=threshold,
                with_detector=(
                    self.with_detector if policy == "threshold" else False
                ),
            )
            dedup = (policy, tuple(sorted(candidate.policy_kwargs().items())))
            seen.setdefault(dedup, candidate)
        return tuple(seen.values())

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "CandidateSpace":
        with _provision_errors("candidate space"):
            return load(cls, data, path)


_SPACE_CHECKS = {
    "policies": array(_policy_name),
    "intervals": array(positive(real)),
    "strengths": array(_count),
    "thresholds": array(optional(_count)),
    "with_detector": flag,
}


@dataclass(frozen=True)
class CandidateEvaluation:
    """One (lot, candidate) score along every objective axis."""

    lot: str
    candidate: Candidate
    #: Devices the lot holds / resolved by surrogate / run through MC.
    devices: int
    surrogate_devices: int
    mc_devices: int
    #: Composed lot totals (surrogate expectations + MC realizations).
    expected_ue: float
    expected_writes: float
    scrub_energy_j: float
    #: The objective axes (see :data:`AXES`).
    fit_scaled: float
    energy_per_gib_j: float
    writes_per_device: float
    dollars_per_gib: float
    carbon_per_gib_kg: float
    #: ``False`` when a ``fit_limit`` was set and this candidate's
    #: composed FIT exceeds it - excluded from the frontier.
    feasible: bool = True
    infeasible_reason: str = ""

    @property
    def method(self) -> str:
        if self.mc_devices == 0:
            return SURROGATE
        if self.surrogate_devices == 0:
            return MC
        return MIXED

    def axes(self) -> tuple[float, ...]:
        return (
            self.fit_scaled,
            self.energy_per_gib_j,
            self.writes_per_device,
            self.dollars_per_gib,
            self.carbon_per_gib_kg,
        )

    def point(self) -> ParetoPoint:
        return ParetoPoint(key=self.candidate.key, values=self.axes())

    def to_dict(self) -> dict:
        return {**dump(self), "method": self.method}

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "CandidateEvaluation":
        return load(cls, data, path, ignore=("method",))


@dataclass(frozen=True)
class LotProvision:
    """One lot's full evaluation sweep, frontier, and recommendation."""

    lot: str
    devices: int
    evaluations: tuple[CandidateEvaluation, ...]
    #: Candidate keys on the feasible non-dominated frontier, in the
    #: frontier's canonical order.
    frontier: tuple[str, ...]
    #: The knee candidate's key; ``None`` when no candidate is feasible
    #: (the lot keeps its existing assignment).
    recommended: str | None = None

    def evaluation(self, key: str) -> CandidateEvaluation:
        for evaluation in self.evaluations:
            if evaluation.candidate.key == key:
                return evaluation
        raise KeyError(f"lot {self.lot!r}: no candidate {key!r}")

    @property
    def recommended_evaluation(self) -> CandidateEvaluation | None:
        return None if self.recommended is None else self.evaluation(
            self.recommended
        )

    def frontier_points(self) -> tuple[ParetoPoint, ...]:
        return tuple(self.evaluation(key).point() for key in self.frontier)

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "LotProvision":
        return load(cls, data, path)


def variant_spec(
    spec: FleetSpec, lot_name: str, candidate: Candidate
) -> FleetSpec:
    """The fleet spec with ``lot_name`` overridden to ``candidate``.

    Only the named lot changes; device parameter sampling is untouched
    (draws depend on ``[seed, index]`` and lot process parameters only),
    so the variant's devices are physically identical to the base
    fleet's and differ purely in scrub policy.
    """
    lots = tuple(
        replace(
            lot,
            policy=candidate.policy,
            policy_kwargs=candidate.policy_kwargs(),
        )
        if lot.name == lot_name
        else lot
        for lot in spec.lots
    )
    return replace(spec, lots=lots)


class ProvisionSearch:
    """Sweep a candidate grid over every lot; see the module docstring.

    Parameters
    ----------
    spec:
        The base fleet.  Existing per-lot overrides are replaced lot by
        lot while that lot is being evaluated and untouched otherwise.
    space:
        The candidate grid.
    cost_model:
        $/GiB and carbon accounting (:class:`CostModel`).
    fit_limit:
        Optional per-device capacity-scaled FIT budget.  Candidates
        whose composed FIT exceeds it are marked infeasible and excluded
        from the frontier; devices whose Poisson predictive interval
        straddles the equivalent count budget escalate to MC.
    confidence:
        Central coverage of the Poisson predictive interval.
    jobs:
        Worker processes for MC escalations (results are identical for
        any value).
    exhaustive:
        Force every device of every candidate through the MC engine
        (the ground-truth mode the benchmark compares against).
    extra_candidates:
        Hand-picked :class:`Candidate` entries appended to the grid
        (deduplicated against it) - e.g. one DRAM-style ``basic``
        baseline without paying for it at every grid interval.
    """

    def __init__(
        self,
        spec: FleetSpec,
        space: CandidateSpace | None = None,
        cost_model: CostModel | None = None,
        fit_limit: float | None = None,
        confidence: float = 0.95,
        jobs: int = 1,
        exhaustive: bool = False,
        extra_candidates: tuple = (),
    ):
        if fit_limit is not None and not math.isfinite(fit_limit):
            raise ProvisionError(f"fit_limit must be finite, got {fit_limit!r}")
        if fit_limit is not None and fit_limit <= 0:
            raise ProvisionError("fit_limit must be positive (or None)")
        if not 0 < confidence < 1:
            raise ProvisionError("confidence must be in (0, 1)")
        self.spec = spec
        self.space = CandidateSpace() if space is None else space
        self.cost_model = CostModel() if cost_model is None else cost_model
        self.fit_limit = fit_limit
        self.confidence = confidence
        self.jobs = jobs
        self.exhaustive = exhaustive
        self.extra_candidates = tuple(extra_candidates)
        for candidate in self.extra_candidates:
            if not isinstance(candidate, Candidate):
                raise ProvisionError(
                    "extra_candidates must be Candidate instances, got "
                    f"{candidate!r}"
                )

    # -- surrogate evaluation --------------------------------------------------

    def _evaluate_surrogate(
        self,
        lot: Lot,
        variants: list[FleetSpec],
        devices: list[DeviceSpec],
        distributions: list,
    ) -> list[list[FiniteHorizonSolution] | None]:
        """Score one lot's whole candidate grid in a single batched call.

        Each candidate's variant spec goes through the screening
        planner's steps: :func:`regime_reasons` once, on the lot's first
        device (everything it reads is a lot or base-config property),
        and every task at :func:`surrogate_point`, both read from the
        built policy.  Returns, per candidate, each device's exact
        finite-horizon solution - one :func:`finite_horizon_batch` call
        covering the in-regime grid, with the lot's distributions
        (tabulated once, threaded in by the caller) shared across
        candidates - or ``None`` when every device goes to MC (out of
        the surrogate's regime, ``exhaustive``, or a lot with no
        devices).
        """
        by_surrogate = [
            bool(devices)
            and not self.exhaustive
            and not regime_reasons(variant, devices[0])
            for variant in variants
        ]
        tasks: list[RenewalTask] = []
        for variant, surrogate in zip(variants, by_surrogate):
            if surrogate:
                point = surrogate_point(variant, lot.name)
                tasks += [
                    RenewalTask(distribution, device.config.cells_per_line, *point)
                    for device, distribution in zip(devices, distributions)
                ]
        solved = iter(finite_horizon_batch(tasks, self.spec.base_config.horizon))
        return [
            [next(solved) for _ in devices] if surrogate else None
            for surrogate in by_surrogate
        ]

    # -- per-candidate evaluation ---------------------------------------------

    def _evaluate_candidate(
        self,
        lot: Lot,
        candidate: Candidate,
        variant: FleetSpec,
        indices: tuple[int, ...],
        devices: list[DeviceSpec],
        solutions: list[FiniteHorizonSolution] | None,
    ) -> CandidateEvaluation:
        """Compose one (lot, candidate) evaluation from batched solutions.

        Without ``solutions`` every device runs through MC; under a
        ``fit_limit``, so does each one :func:`classify` leaves
        ``uncertain``.  Energy is closed-form: a detector-less threshold
        policy reads and decodes every line on every visit
        (deterministic), and only the write-back count is stochastic,
        with exact expectation from the renewal solution.
        """
        spec = self.spec
        horizon = spec.base_config.horizon
        horizon_hours = horizon / 3600.0

        scheme = candidate.build_policy().scheme
        costs = OperationCosts.for_line(
            spec.base_config.energy,
            spec.base_config.line,
            ecc_bits=scheme.total_overhead_bits,
            ecc_strength=scheme.t,
        )
        resolved = dict(enumerate(solutions or ()))
        if solutions and self.fit_limit is not None:
            constraints = ScreenConstraints(fit_limit=self.fit_limit, confidence=self.confidence)
            verdicts = classify(variant, constraints, list(zip(indices, devices)), solutions)
            for pos, decision in enumerate(verdicts):
                if decision.classification == UNCERTAIN:
                    del resolved[pos]

        escalated = [
            index for pos, index in enumerate(indices) if pos not in resolved
        ]
        total_ue = total_writes = total_energy = 0.0
        for pos, solution in resolved.items():
            num_lines = devices[pos].config.num_lines
            total_ue += solution.expected_ue * num_lines
            total_writes += solution.expected_writes * num_lines
            total_energy += num_lines * (
                solution.visits * (costs.read_energy + costs.decode_energy)
                + solution.expected_writes * costs.write_energy
            )

        if escalated:
            outcome = CampaignRunner(
                variant, jobs=self.jobs, indices=escalated
            ).run()
            for record in outcome.records:
                summary = record.summary
                total_ue += float(summary.get("uncorrectable", 0.0))
                total_writes += float(summary.get("scrub_writes", 0.0))
                total_energy += float(summary.get("scrub_energy_j", 0.0))

        devices = len(indices)
        device_hours = devices * horizon_hours
        fit_scaled = (
            total_ue / device_hours * FIT_HOURS * spec.capacity_scale
            if device_hours
            else 0.0
        )
        energy_per_gib = per_gib(
            total_energy,
            devices * spec.simulated_gib_per_device,
            f"lot {lot.name!r} candidate {candidate.key!r} energy/GiB",
        )
        data_bits = spec.base_config.line.data_bits
        dollars = self.cost_model.dollars_per_usable_gib(
            scheme.total_overhead_bits, data_bits
        )
        carbon = self.cost_model.carbon_per_gib(
            energy_per_gib, horizon, scheme.total_overhead_bits, data_bits
        )
        feasible, reason = True, ""
        if self.fit_limit is not None and fit_scaled > self.fit_limit:
            feasible = False
            reason = (
                f"fit_scaled {fit_scaled:.3g} exceeds limit "
                f"{self.fit_limit:.3g}"
            )
        return CandidateEvaluation(
            lot=lot.name,
            candidate=candidate,
            devices=devices,
            surrogate_devices=devices - len(escalated),
            mc_devices=len(escalated),
            expected_ue=total_ue,
            expected_writes=total_writes,
            scrub_energy_j=total_energy,
            fit_scaled=fit_scaled,
            energy_per_gib_j=energy_per_gib,
            writes_per_device=total_writes / devices if devices else 0.0,
            dollars_per_gib=dollars,
            carbon_per_gib_kg=carbon,
            feasible=feasible,
            infeasible_reason=reason,
        )

    # -- the sweep -------------------------------------------------------------

    def run(self):
        """Evaluate the grid for every lot; returns a ProvisionReport."""
        from .report import ProvisionReport

        candidates = list(self.space.candidates())
        grid_keys = {
            (c.policy, tuple(sorted(c.policy_kwargs().items())))
            for c in candidates
        }
        for candidate in self.extra_candidates:
            dedup = (
                candidate.policy,
                tuple(sorted(candidate.policy_kwargs().items())),
            )
            if dedup not in grid_keys:
                grid_keys.add(dedup)
                candidates.append(candidate)
        if not candidates:
            raise ProvisionError("candidate space is empty after dedup")
        lots = []
        mc_device_runs = 0
        for lot in self.spec.lots:
            indices = self.spec.lot_indices(lot.name)
            # One device list and one tabulated distribution per device
            # for the whole grid: candidate variants never change device
            # physics (policy is not part of the sampled config), and
            # holding the list pins the distributions past the runner
            # LRU's reach while every candidate reuses them.
            devices = [self.spec.device_spec(index) for index in indices]
            distributions = [
                crossing_distribution_for(device.config) for device in devices
            ]
            variants = [
                variant_spec(self.spec, lot.name, candidate)
                for candidate in candidates
            ]
            solutions = self._evaluate_surrogate(
                lot, variants, devices, distributions
            )
            evaluations = tuple(
                self._evaluate_candidate(
                    lot, candidate, variant, indices, devices, solved
                )
                for candidate, variant, solved in zip(
                    candidates, variants, solutions
                )
            )
            mc_device_runs += sum(e.mc_devices for e in evaluations)
            frontier = pareto_frontier(
                e.point() for e in evaluations if e.feasible
            )
            recommended = (
                knee_point(frontier).key if frontier else None
            )
            lots.append(
                LotProvision(
                    lot=lot.name,
                    devices=len(indices),
                    evaluations=evaluations,
                    frontier=tuple(p.key for p in frontier),
                    recommended=recommended,
                )
            )
            logger.info(
                "provision %s/%s: %d candidates, frontier %d, knee %s",
                self.spec.name, lot.name, len(evaluations),
                len(lots[-1].frontier), recommended,
            )

        return ProvisionReport(
            name=self.spec.name,
            spec_hash=self.spec.content_hash(),
            devices=self.spec.devices,
            horizon=float(self.spec.base_config.horizon),
            fit_limit=self.fit_limit,
            confidence=self.confidence,
            exhaustive=self.exhaustive,
            cost_model=self.cost_model,
            space=self.space,
            lots=tuple(lots),
            mc_device_runs=mc_device_runs,
        ).attach_spec(self.spec)

