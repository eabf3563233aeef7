"""Per-lot provisioning: cost/energy/carbon Pareto frontiers per fleet.

The fleet report (:mod:`repro.fleet`) tells an operator what one scrub
assignment costs; this package turns that around and answers *which*
assignment each manufacturing lot should get.  A
:class:`~repro.provision.search.ProvisionSearch` sweeps a candidate
grid (policy x interval x ECC strength x threshold) over every lot,
scoring candidates via the exact renewal surrogate first
(:mod:`repro.screen`) and spending Monte-Carlo engine runs only on
candidates the surrogate cannot settle.  Results land on per-lot
Pareto frontiers over UE FIT, scrub energy/GiB, write wear, $/GiB, and
carbon/GiB (:mod:`~repro.provision.pareto`), a knee point picks one
recommendation per lot (:mod:`~repro.provision.knee`), and the report
emits a ready-to-submit per-lot fleet spec
(:meth:`~repro.provision.report.ProvisionReport.assignments_spec`).

CLI: ``pcm-scrub provision-fleet``.
"""

from .cost import CostModel, J_PER_KWH
from .knee import knee_point
from .pareto import (
    ParetoError,
    ParetoPoint,
    dominates,
    merge_frontiers,
    pareto_frontier,
)
from .report import REPORT_VERSION, ProvisionReport
from .search import (
    AXES,
    Candidate,
    CandidateEvaluation,
    CandidateSpace,
    LotProvision,
    ProvisionError,
    ProvisionSearch,
    variant_spec,
)

__all__ = [
    "AXES",
    "Candidate",
    "CandidateEvaluation",
    "CandidateSpace",
    "CostModel",
    "J_PER_KWH",
    "LotProvision",
    "ParetoError",
    "ParetoPoint",
    "ProvisionError",
    "ProvisionReport",
    "ProvisionSearch",
    "REPORT_VERSION",
    "dominates",
    "knee_point",
    "merge_frontiers",
    "pareto_frontier",
    "variant_spec",
]
