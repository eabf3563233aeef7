"""Analytic-surrogate fleet screening with Monte-Carlo escalation.

The campaign engine (:mod:`repro.fleet`) Monte-Carlos every device; this
package makes million-device campaigns tractable by resolving most
devices through the *exact* finite-horizon renewal surrogate
(:mod:`repro.sim.renewal`) and spending MC only where the math is
uncertain:

* :mod:`repro.screen.planner` - classify every lot-sampled device point
  as ``pass`` / ``fail`` / ``uncertain`` against FIT / availability
  constraints (:func:`plan_screen`); uncertain devices - a constraint-
  straddling predictive interval or an out-of-regime configuration -
  escalate to the MC engine;
* :mod:`repro.screen.campaign` - :func:`run_screened_campaign`, the
  batch path reusing :class:`repro.fleet.campaign.CampaignRunner` (with
  its checkpoint journal and bit-identical resume) over the escalated
  subset only;
* :mod:`repro.screen.report` - :class:`ScreenedFleetReport`, composing
  exact surrogate expectations with Garwood/Wilson-banded MC counts and
  recording per-device provenance.

CLI: ``pcm-scrub fleet --screen`` and ``pcm-scrub submit --screen``; the
validity regime, escalation rules, and bound-composition math live in
``docs/screening.md``.
"""

from __future__ import annotations

from .campaign import ScreenedOutcome, run_screened_campaign
from .planner import (
    FAIL,
    MC,
    PASS,
    SURROGATE,
    UNCERTAIN,
    ScreenConstraints,
    ScreenDecision,
    ScreenError,
    ScreenInvariantError,
    ScreenPlan,
    plan_screen,
    regime_reasons,
)
from .report import ScreenedFleetReport, compose_screened_report

__all__ = [
    "FAIL",
    "MC",
    "PASS",
    "SURROGATE",
    "UNCERTAIN",
    "ScreenConstraints",
    "ScreenDecision",
    "ScreenError",
    "ScreenInvariantError",
    "ScreenPlan",
    "ScreenedFleetReport",
    "ScreenedOutcome",
    "compose_screened_report",
    "plan_screen",
    "regime_reasons",
    "run_screened_campaign",
]
