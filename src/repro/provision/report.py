"""The provisioning report: frontiers, recommendations, artifacts.

:class:`ProvisionReport` is what :class:`repro.provision.search
.ProvisionSearch` returns: every (lot, candidate) evaluation, each
lot's feasible Pareto frontier and knee recommendation, and enough
provenance (spec hash, cost model, grid, MC spend) to audit where the
numbers came from.  Three artifact forms come off it:

* :meth:`to_dict` / :meth:`to_json` - the ``--json`` machine form the
  CI schema check validates;
* :meth:`frontier_csv` - one row per frontier point across all lots,
  for spreadsheets and plots;
* :meth:`assignments_spec` - a ready-to-submit per-lot
  :class:`~repro.fleet.spec.FleetSpec` with every lot's knee candidate
  installed as its policy override, runnable unchanged through
  ``pcm-scrub fleet`` / ``pcm-scrub submit``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace

from ..fields import dump, load, mapping
from ..fleet.spec import FleetSpec
from .cost import CostModel
from .pareto import merge_frontiers
from .search import AXES, CandidateSpace, LotProvision, ProvisionError

#: Schema version of the JSON report form.
REPORT_VERSION = 1


@dataclass(frozen=True, kw_only=True)
class ProvisionReport:
    """Everything one provisioning search produced."""

    name: str
    spec_hash: str
    devices: int
    horizon: float
    fit_limit: float | None = None
    confidence: float = 0.95
    exhaustive: bool = False
    cost_model: CostModel = CostModel()
    space: CandidateSpace = CandidateSpace()
    lots: tuple[LotProvision, ...]
    #: Total MC device-runs the search spent (the benchmark's currency).
    mc_device_runs: int

    # -- lookups ---------------------------------------------------------------

    def lot(self, name: str) -> LotProvision:
        for lot in self.lots:
            if lot.lot == name:
                return lot
        raise KeyError(f"no lot {name!r} in provision report {self.name!r}")

    @property
    def candidates_evaluated(self) -> int:
        return sum(len(lot.evaluations) for lot in self.lots)

    @property
    def frontier_size(self) -> int:
        return sum(len(lot.frontier) for lot in self.lots)

    @property
    def recommended(self) -> dict[str, str | None]:
        """Lot name -> knee candidate key (``None`` = keep existing)."""
        return {lot.lot: lot.recommended for lot in self.lots}

    def fleet_frontier(self):
        """The merged cross-lot frontier (candidate keys may repeat per
        lot with different coordinates, so keys are lot-qualified)."""
        per_lot = []
        for lot in self.lots:
            per_lot.append(
                tuple(
                    replace_key(point, f"{lot.lot}:{point.key}")
                    for point in lot.frontier_points()
                )
            )
        return merge_frontiers(*per_lot)

    # -- artifacts -------------------------------------------------------------

    def assignments_spec(self, suffix: str = "-provisioned") -> FleetSpec:
        """A per-lot fleet spec installing every knee recommendation.

        Lots with no feasible candidate keep their existing assignment.
        The result round-trips through JSON and runs unchanged through
        the campaign runner and the sharded service - kill/resume
        bit-identity rides on the same journal/hash machinery as any
        other spec.  Raises :class:`ProvisionError` when *no* lot has a
        recommendation (an all-infeasible search has nothing to emit).
        """
        if all(lot.recommended is None for lot in self.lots):
            raise ProvisionError(
                f"provision search {self.name!r} found no feasible "
                "candidate for any lot; nothing to assign"
            )
        base = self._base_spec
        lots = []
        for lot in base.lots:
            provision = self.lot(lot.name)
            if provision.recommended is None:
                lots.append(lot)
                continue
            candidate = provision.evaluation(
                provision.recommended
            ).candidate
            lots.append(
                replace(
                    lot,
                    policy=candidate.policy,
                    policy_kwargs=candidate.policy_kwargs(),
                )
            )
        return replace(base, name=base.name + suffix, lots=tuple(lots))

    def frontier_csv(self) -> str:
        """CSV of every frontier point: lot, candidate, axes, provenance."""
        out = io.StringIO()
        columns = ["lot", "candidate", "recommended", *AXES, "method"]
        out.write(",".join(columns) + "\n")
        for lot in self.lots:
            for key in lot.frontier:
                evaluation = lot.evaluation(key)
                row = [
                    lot.lot,
                    key,
                    "yes" if key == lot.recommended else "no",
                    *(f"{v:.6g}" for v in evaluation.axes()),
                    evaluation.method,
                ]
                out.write(",".join(row) + "\n")
        return out.getvalue()

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            **dump(self),
            "axes": list(AXES),
            "candidates_evaluated": self.candidates_evaluated,
            "frontier_size": self.frontier_size,
            "recommended": self.recommended,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "ProvisionReport":
        version = mapping(data, path).get("version", REPORT_VERSION)
        if version != REPORT_VERSION:
            raise ProvisionError(
                f"unsupported provision report version {version!r}"
            )
        return load(cls, data, path, ignore=(
            "version", "axes", "candidates_evaluated", "frontier_size", "recommended",
        ))

    # ``assignments_spec`` needs the base fleet; the search attaches it
    # after construction (it is deliberately not part of the JSON form -
    # the spec travels as its own file, referenced by hash).
    @property
    def _base_spec(self) -> FleetSpec:
        spec = getattr(self, "_spec", None)
        if spec is None:
            raise ProvisionError(
                "this report was rehydrated from JSON without its fleet "
                "spec; call report.attach_spec(FleetSpec.from_file(...)) "
                "first (the spec_hash field identifies the right file)"
            )
        return spec

    def attach_spec(self, spec: FleetSpec) -> "ProvisionReport":
        """Bind the base fleet spec (validated by content hash)."""
        if spec.content_hash() != self.spec_hash:
            raise ProvisionError(
                f"spec hash mismatch: report was computed from "
                f"{self.spec_hash[:12]}..., got {spec.content_hash()[:12]}..."
            )
        object.__setattr__(self, "_spec", spec)
        return self


def replace_key(point, key: str):
    """A Pareto point with the same coordinates under a new key."""
    from .pareto import ParetoPoint

    return ParetoPoint(key=key, values=point.values)
