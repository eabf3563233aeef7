"""ProvisionSearch: grid, surrogate/MC routing, frontiers, assignments."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.fleet import Lot, LotParameter, run_campaign
from repro.fleet.report import FIT_HOURS
from repro.provision import (
    Candidate,
    CandidateSpace,
    ProvisionError,
    ProvisionReport,
    ProvisionSearch,
    variant_spec,
)
from repro.provision import search
from repro.screen import UNCERTAIN, ScreenConstraints, plan_screen
from repro.sim.parallel import POLICY_FACTORIES
from repro.verify.equivalence import scalar_finite_horizon

from ..strategies import JSON_VALUES
from .conftest import make_spec, small_space


class TestCandidate:
    def test_key_and_kwargs_threshold(self):
        candidate = Candidate(policy="threshold", interval=3600.0, strength=4)
        assert candidate.effective_threshold == 3
        assert candidate.key == "threshold/T3600/t4/theta3"
        assert candidate.policy_kwargs() == {
            "interval": 3600.0,
            "strength": 4,
            "threshold": 3,
            "with_detector": False,
        }

    @pytest.mark.parametrize("policy", ["threshold", "partial"])
    @pytest.mark.parametrize("strength", range(1, 9))
    def test_default_threshold_is_the_factorys(self, policy, strength):
        candidate = Candidate(policy=policy, interval=3600.0, strength=strength)
        kwargs = candidate.policy_kwargs()
        del kwargs["threshold"]
        built = POLICY_FACTORIES[policy](**kwargs)
        assert candidate.effective_threshold == built.threshold

    def test_basic_takes_interval_only(self):
        candidate = Candidate(policy="basic", interval=1800.0, strength=8)
        assert candidate.policy_kwargs() == {"interval": 1800.0}
        assert candidate.key == "basic/T1800"

    def test_builds_a_real_policy(self):
        candidate = Candidate(
            policy="threshold", interval=3600.0, strength=2, threshold=2
        )
        policy = candidate.build_policy()
        assert policy.scheme.t == 2

    def test_validation(self):
        with pytest.raises(ProvisionError):
            Candidate(policy="nope", interval=3600.0)
        with pytest.raises(ProvisionError):
            Candidate(policy="threshold", interval=0.0)
        with pytest.raises(ProvisionError):
            Candidate(policy="threshold", interval=3600.0, strength=2,
                      threshold=3)
        with pytest.raises(ProvisionError):
            Candidate(policy="basic", interval=3600.0, threshold=1)

    @given(interval=st.floats())
    def test_any_float_interval_is_valid_or_named(self, interval):
        valid = math.isfinite(interval) and interval > 0
        try:
            Candidate(policy="threshold", interval=interval)
        except ProvisionError as error:
            assert not valid
            assert "interval" in str(error)
            return
        assert valid

    def test_round_trip(self):
        candidate = Candidate(
            policy="partial", interval=7200.0, strength=4, threshold=2
        )
        assert Candidate.from_dict(json.loads(json.dumps(candidate.to_dict()))) == candidate


class TestCandidateSpace:
    def test_interval_only_policies_deduplicate_over_strength(self):
        space = CandidateSpace(
            policies=("basic",), intervals=(3600.0,), strengths=(2, 4, 8)
        )
        assert [c.key for c in space.candidates()] == ["basic/T3600"]

    def test_thresholds_exceeding_strength_are_skipped(self):
        space = CandidateSpace(
            policies=("threshold",),
            intervals=(3600.0,),
            strengths=(2, 4),
            thresholds=(3,),
        )
        assert [c.key for c in space.candidates()] == [
            "threshold/T3600/t4/theta3"
        ]

    def test_empty_axes_rejected(self):
        with pytest.raises(ProvisionError):
            CandidateSpace(policies=())
        with pytest.raises(ProvisionError):
            CandidateSpace(policies=("threshold", "nope"))

    def test_round_trip(self):
        space = small_space(thresholds=(None, 1))
        assert CandidateSpace.from_dict(json.loads(json.dumps(space.to_dict()))) == space


CANDIDATE = {
    "policy": "threshold",
    "interval": 3600.0,
    "strength": 4,
    "threshold": 3,
    "with_detector": False,
}
SPACE = {
    "policies": ["threshold", "basic"],
    "intervals": [1800.0, 7200.0],
    "strengths": [2, 4],
    "thresholds": [None, 3],
    "with_detector": False,
}


def use_candidates(candidates) -> None:
    for candidate in candidates:
        assert candidate.key
        candidate.policy_kwargs()


class TestTypedFieldErrors:
    """Malformed fields raise a ``ProvisionError`` naming the field."""

    @pytest.mark.parametrize(
        "build, field",
        [
            pytest.param(
                lambda: CandidateSpace.from_dict({"with_detector": "no"}),
                "with_detector", id="space-with_detector-string",
            ),
            pytest.param(
                lambda: Candidate.from_dict({
                    "policy": "threshold", "interval": 3600,
                    "with_detector": "no",
                }),
                "with_detector", id="candidate-with_detector-string",
            ),
            pytest.param(
                lambda: CandidateSpace.from_dict({"strengths": [2.7]}),
                "strengths[0]", id="strengths-float",
            ),
            pytest.param(
                lambda: CandidateSpace(strengths=("4",)),
                "strengths[0]", id="strengths-string",
            ),
            pytest.param(
                lambda: CandidateSpace(strengths=(True,)),
                "strengths[0]", id="strengths-bool",
            ),
            pytest.param(
                lambda: Candidate(
                    policy="threshold", interval=3600.0, threshold=2.5
                ),
                "threshold", id="candidate-threshold-float",
            ),
            pytest.param(
                lambda: CandidateSpace(thresholds=(1.5,)),
                "thresholds[0]", id="thresholds-float",
            ),
            pytest.param(
                lambda: CandidateSpace.from_dict({"intervals": ["x"]}),
                "intervals[0]", id="intervals-string",
            ),
            pytest.param(
                lambda: CandidateSpace(policies="threshold"),
                "policies", id="policies-string",
            ),
        ],
    )
    def test_reproduced_cases_name_the_field(self, build, field):
        with pytest.raises(ProvisionError, match=re.escape(field)):
            build()

    def test_valid_json_numbers_keep_their_keys(self):
        space = CandidateSpace.from_dict({**SPACE, "intervals": [1800, 7200.0]})
        assert [c.key for c in space.candidates()] == [
            c.key for c in CandidateSpace.from_dict(SPACE).candidates()
        ]
        candidate = Candidate.from_dict({**CANDIDATE, "interval": 3600})
        assert candidate == Candidate.from_dict(CANDIDATE)
        assert candidate.policy_kwargs()["interval"] == 3600.0

    @given(field=st.sampled_from(sorted(CANDIDATE)), value=JSON_VALUES)
    def test_candidate_field_is_usable_or_named(self, field, value):
        try:
            candidate = Candidate.from_dict({**CANDIDATE, field: value})
            use_candidates([candidate])
        except ProvisionError as error:
            assert field in str(error)

    @given(field=st.sampled_from(sorted(SPACE)), value=JSON_VALUES)
    def test_space_field_is_usable_or_named(self, field, value):
        try:
            space = CandidateSpace.from_dict({**SPACE, field: value})
            use_candidates(space.candidates())
        except ProvisionError as error:
            assert field in str(error)


class TestVariantSpec:
    def test_overrides_only_the_named_lot(self):
        spec = make_spec()
        candidate = Candidate(policy="threshold", interval=900.0, strength=2)
        variant = variant_spec(spec, "hot", candidate)
        assert variant.lot_named("hot").policy == "threshold"
        assert variant.lot_named("hot").policy_kwargs == candidate.policy_kwargs()
        assert variant.lot_named("cool").policy is None
        assert variant.policy_for("cool") == spec.policy_for("cool")

    def test_device_sampling_unchanged(self):
        # Policy overrides must never perturb the physical device draws.
        spec = make_spec()
        candidate = Candidate(policy="basic", interval=900.0)
        variant = variant_spec(spec, "hot", candidate)
        for index in range(spec.devices):
            base = spec.device_spec(index)
            varied = variant.device_spec(index)
            assert varied.nu_mu_scale == base.nu_mu_scale
            assert varied.temperature_k == base.temperature_k
            assert varied.config == base.config


class TestSearchRouting:
    def test_in_regime_grid_costs_no_mc(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        assert report.mc_device_runs == 0
        for lot in report.lots:
            assert all(e.method == "surrogate" for e in lot.evaluations)
            assert len(lot.frontier) >= 1
            assert lot.recommended in lot.frontier

    def test_out_of_regime_candidates_escalate(self):
        spec = make_spec()
        space = small_space(
            policies=("threshold", "basic"), intervals=(7200.0,)
        )
        report = ProvisionSearch(spec, space).run()
        for lot in report.lots:
            by_policy = {
                e.candidate.policy: e for e in lot.evaluations
            }
            assert by_policy["basic"].method == "mc"
            assert by_policy["basic"].mc_devices == lot.devices
            assert by_policy["threshold"].method == "surrogate"
        assert report.mc_device_runs == spec.devices  # one basic candidate

    def test_detector_candidates_escalate(self):
        space = small_space(intervals=(7200.0,), strengths=(4,),
                            with_detector=True)
        report = ProvisionSearch(make_spec(), space).run()
        assert report.mc_device_runs == make_spec().devices

    def test_extra_candidates_join_the_grid_once(self):
        spec = make_spec()
        basic = Candidate(policy="basic", interval=7200.0)
        in_grid = Candidate(policy="threshold", interval=7200.0, strength=4)
        report = ProvisionSearch(
            spec, small_space(), extra_candidates=(basic, in_grid, basic)
        ).run()
        grid = len(small_space().candidates())
        assert report.candidates_evaluated == (grid + 1) * len(spec.lots)
        # Only the out-of-regime extra pays for MC.
        assert report.mc_device_runs == spec.devices

    def test_extra_candidates_validated(self):
        with pytest.raises(ProvisionError, match="extra_candidates"):
            ProvisionSearch(
                make_spec(), small_space(), extra_candidates=("basic",)
            )

    @given(fit_limit=st.none() | st.floats(), confidence=st.floats())
    def test_any_float_budget_is_valid_or_named(self, fit_limit, confidence):
        invalid = set()
        if fit_limit is not None and not (math.isfinite(fit_limit) and fit_limit > 0):
            invalid.add("fit_limit")
        if not (math.isfinite(confidence) and 0 < confidence < 1):
            invalid.add("confidence")
        try:
            ProvisionSearch(make_spec(), fit_limit=fit_limit, confidence=confidence)
        except ProvisionError as error:
            assert any(name in str(error) for name in invalid), (invalid, error)
            return
        assert not invalid


@st.composite
def small_fleets(draw):
    """Fleets of 1-5 devices over 1-3 lots, some with spread, some empty."""
    lots = tuple(
        Lot(
            name=f"lot-{i}",
            weight=draw(st.sampled_from([1.0, 2.0])),
            nu_mu_scale=LotParameter(
                draw(st.sampled_from([1.0, 1.1])),
                draw(st.sampled_from([0.0, 0.04])),
                low=0.0,
            ),
            temperature_k=draw(
                st.sampled_from([None, LotParameter(310.0, 1.5, low=250.0)])
            ),
        )
        for i in range(draw(st.integers(1, 3)))
    )
    return make_spec(
        seed=draw(st.integers(0, 99)), devices=draw(st.integers(1, 5)), lots=lots
    )


class TestPlannerSteps:
    """Provisioning scores through the screening planner's own steps."""

    def test_regime_checked_once_per_lot_and_candidate(self, monkeypatch):
        checked = []
        real = search.regime_reasons

        def spy(spec, device):
            checked.append(device.lot)
            return real(spec, device)

        monkeypatch.setattr(search, "regime_reasons", spy)
        spec = make_spec()
        ProvisionSearch(spec, small_space()).run()
        per_lot = len(small_space().candidates())
        assert checked == [lot.name for lot in spec.lots for _ in range(per_lot)]

    def test_empty_lot_provisions(self):
        spec = make_spec(devices=2, lots=(Lot("a"), Lot("b"), Lot("c")))
        assert spec.lot_counts() == [1, 1, 0]
        space = small_space(policies=("threshold", "basic"), intervals=(7200.0,))
        report = ProvisionSearch(spec, space).run()
        assert [lot.devices for lot in report.lots] == [1, 1, 0]
        assert all(
            (e.devices, e.surrogate_devices, e.mc_devices) == (0, 0, 0)
            for e in report.lots[2].evaluations
        )
        assert report.mc_device_runs == 2  # basic, on each non-empty lot

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=small_fleets(), budget=st.sampled_from([0.5, 2.0, 8.0, 30.0]))
    def test_escalations_are_the_plans_uncertain_devices(self, spec, budget):
        horizon_hours = spec.base_config.horizon / units.HOUR
        fit_limit = budget * FIT_HOURS * spec.capacity_scale / horizon_hours
        report = ProvisionSearch(
            spec, small_space(), fit_limit=fit_limit,
            extra_candidates=(Candidate(policy="basic", interval=7200.0),),
        ).run()
        constraints = ScreenConstraints(fit_limit=fit_limit, confidence=0.95)
        for lot in report.lots:
            for evaluation in lot.evaluations:
                variant = variant_spec(spec, lot.lot, evaluation.candidate)
                decisions = [
                    d for d in plan_screen(variant, constraints).decisions
                    if d.lot == lot.lot
                ]
                uncertain = sum(d.classification == UNCERTAIN for d in decisions)
                assert evaluation.mc_devices == uncertain
                assert evaluation.surrogate_devices == len(decisions) - uncertain


class TestSearchResults:
    def test_screened_matches_exhaustive_frontier(self):
        # The acceptance property (the benchmark asserts it at scale):
        # surrogate-first search lands on the same per-lot frontier key
        # set as ground-truth exhaustive MC.
        spec = make_spec()
        space = small_space()
        screened = ProvisionSearch(spec, space).run()
        exhaustive = ProvisionSearch(spec, space, exhaustive=True).run()
        assert screened.mc_device_runs == 0
        assert exhaustive.mc_device_runs == (
            spec.devices * len(space.candidates())
        )
        for lot_s, lot_e in zip(screened.lots, exhaustive.lots):
            assert set(lot_s.frontier) == set(lot_e.frontier)

    def test_batch_matches_scalar_oracle(self, monkeypatch):
        # The batched surrogate kernel is a pure optimization: the
        # per-device scalar recursion swapped in for it must land on the
        # same frontiers and recommendations, with evaluation numbers
        # agreeing to the surrogate_batch tolerance.
        spec = make_spec()
        space = small_space()
        batched = ProvisionSearch(spec, space).run()
        monkeypatch.setattr(search, "finite_horizon_batch", scalar_finite_horizon)
        scalar = ProvisionSearch(spec, space).run()
        assert batched.mc_device_runs == scalar.mc_device_runs == 0
        for lot_b, lot_s in zip(batched.lots, scalar.lots):
            assert lot_b.frontier == lot_s.frontier
            assert lot_b.recommended == lot_s.recommended
            for eval_b, eval_s in zip(lot_b.evaluations, lot_s.evaluations):
                assert eval_b.candidate == eval_s.candidate
                assert eval_b.method == eval_s.method
                assert eval_b.expected_ue == pytest.approx(
                    eval_s.expected_ue, rel=1e-9
                )
                assert eval_b.expected_writes == pytest.approx(
                    eval_s.expected_writes, rel=1e-9
                )
                assert eval_b.scrub_energy_j == pytest.approx(
                    eval_s.scrub_energy_j, rel=1e-9
                )

    def test_jobs_do_not_change_the_report(self):
        spec = make_spec()
        space = small_space(policies=("threshold", "basic"),
                            intervals=(7200.0,))
        one = ProvisionSearch(spec, space, jobs=1).run()
        two = ProvisionSearch(spec, space, jobs=2).run()
        assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
            two.to_dict(), sort_keys=True
        )

    def test_fit_limit_marks_infeasible_and_filters_frontier(self):
        spec = make_spec()
        space = small_space()
        unconstrained = ProvisionSearch(spec, space).run()
        fits = sorted(
            e.fit_scaled
            for lot in unconstrained.lots
            for e in lot.evaluations
        )
        # A budget below every candidate: everything infeasible.
        tight = ProvisionSearch(
            spec, space, fit_limit=fits[0] / 10.0
        ).run()
        for lot in tight.lots:
            assert all(not e.feasible for e in lot.evaluations)
            assert lot.frontier == ()
            assert lot.recommended is None
        with pytest.raises(ProvisionError, match="no feasible"):
            tight.assignments_spec()

    def test_run_returns_a_report(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        assert isinstance(report, ProvisionReport)


class TestReportArtifacts:
    def test_json_round_trip(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        data = json.loads(report.to_json())
        rehydrated = ProvisionReport.from_dict(data)
        assert rehydrated == report
        assert rehydrated.to_dict() == report.to_dict()

    def test_rehydrated_report_needs_spec_attached(self):
        spec = make_spec()
        report = ProvisionSearch(spec, small_space()).run()
        rehydrated = ProvisionReport.from_dict(report.to_dict())
        with pytest.raises(ProvisionError, match="attach_spec"):
            rehydrated.assignments_spec()
        rehydrated.attach_spec(spec)
        assert rehydrated.assignments_spec().to_dict() == (
            report.assignments_spec().to_dict()
        )

    def test_attach_spec_validates_hash(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        with pytest.raises(ProvisionError, match="hash mismatch"):
            ProvisionReport.from_dict(report.to_dict()).attach_spec(
                make_spec(seed=999)
            )

    def test_frontier_csv_covers_every_frontier_point(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        lines = report.frontier_csv().splitlines()
        assert lines[0].startswith("lot,candidate,recommended,fit_scaled")
        assert len(lines) == 1 + report.frontier_size

    def test_fleet_frontier_merges_lots(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        merged = report.fleet_frontier()
        assert merged  # non-empty
        assert all(":" in point.key for point in merged)


class TestAssignmentsCampaign:
    def test_assignments_spec_round_trips_and_runs(self, tmp_path):
        spec = make_spec()
        report = ProvisionSearch(spec, small_space()).run()
        assignments = report.assignments_spec()
        assert assignments.has_lot_policies
        # Round-trips through the JSON file format workers load.
        path = tmp_path / "assignments.json"
        path.write_text(json.dumps(assignments.to_dict()))
        from repro.fleet import FleetSpec

        loaded = FleetSpec.from_file(path)
        assert loaded.content_hash() == assignments.content_hash()
        # Every lot runs its recommended candidate.
        for lot in assignments.lots:
            policy, kwargs = assignments.policy_for(lot)
            recommended = report.lot(lot.name).recommended_evaluation
            assert policy == recommended.candidate.policy
            assert kwargs == recommended.candidate.policy_kwargs()

    def test_assignments_campaign_kill_resume_bit_identity(self, tmp_path):
        # The provisioned per-lot spec must ride the same durability
        # guarantees as any other campaign: an interrupted + resumed run
        # reports bit-identically to an uninterrupted one.
        report = ProvisionSearch(make_spec(), small_space()).run()
        assignments = report.assignments_spec()
        straight = run_campaign(assignments, jobs=2)
        journal = tmp_path / "assignments.jsonl"
        partial = run_campaign(
            assignments, jobs=2, checkpoint=journal, stop_after=2
        )
        assert not partial.finished
        resumed = run_campaign(
            assignments, jobs=2, checkpoint=journal, resume=True
        )
        assert resumed.finished
        assert json.dumps(
            resumed.report.to_dict(), sort_keys=True
        ) == json.dumps(straight.report.to_dict(), sort_keys=True)
