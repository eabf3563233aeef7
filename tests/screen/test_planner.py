"""Screening planner: constraints, regime escalation, classification."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.fleet import FleetSpec, Lot, LotParameter
from repro.params import EnduranceSpec
from repro.screen import (
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
from repro.screen import planner
from repro.screen.planner import classify, surrogate_point
from repro.sim.config import SimulationConfig
from repro.sim.parallel import POLICY_FACTORIES
from repro.sim.renewal_batch import RenewalTask, finite_horizon_batch
from repro.sim.runner import crossing_distribution_for
from repro.verify.equivalence import scalar_finite_horizon

from .conftest import make_constraints, make_spec


class TestConstraints:
    def test_at_least_one_constraint_required(self):
        with pytest.raises(ScreenError, match="at least one"):
            ScreenConstraints()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fit_limit": 0.0},
            {"fit_limit": -1.0},
            {"min_availability": 0.0},
            {"min_availability": 1.0},
            {"fit_limit": 1.0, "confidence": 0.0},
            {"fit_limit": 1.0, "confidence": 1.0},
            {"fit_limit": 1.0, "availability_margin": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ScreenError):
            ScreenConstraints(**kwargs)

    @given(
        fit_limit=st.none() | st.floats(),
        min_availability=st.none() | st.floats(),
        confidence=st.floats(),
        availability_margin=st.floats(),
    )
    def test_any_float_builds_valid_constraints_or_names_the_field(
        self, fit_limit, min_availability, confidence, availability_margin
    ):
        def finite(value):
            return value is not None and math.isfinite(value)

        invalid = {
            name
            for name, ok in (
                ("fit_limit", fit_limit is None or (finite(fit_limit) and fit_limit > 0)),
                ("min_availability", min_availability is None
                 or (finite(min_availability) and 0 < min_availability < 1)),
                ("confidence", finite(confidence) and 0 < confidence < 1),
                ("availability_margin",
                 finite(availability_margin) and availability_margin >= 0),
            )
            if not ok
        }
        if fit_limit is None and min_availability is None:
            invalid |= {"fit_limit", "min_availability"}
        try:
            ScreenConstraints(
                fit_limit=fit_limit,
                min_availability=min_availability,
                confidence=confidence,
                availability_margin=availability_margin,
            )
        except ScreenError as error:
            assert any(name in str(error) for name in invalid), (invalid, error)
            return
        assert not invalid

    def test_dict_round_trip(self):
        constraints = ScreenConstraints(
            fit_limit=1e9, min_availability=0.9,
            confidence=0.9, availability_margin=0.05,
        )
        data = json.loads(json.dumps(constraints.to_dict()))
        assert ScreenConstraints.from_dict(data) == constraints


class TestRegimeReasons:
    def test_validated_regime_is_empty(self, spec):
        assert regime_reasons(spec, spec.device_spec(0)) == ()

    def test_non_threshold_policy(self):
        spec = make_spec(
            policy="adaptive",
            policy_kwargs={"interval": 2 * units.HOUR, "strength": 3},
        )
        reasons = regime_reasons(spec, spec.device_spec(0))
        assert "regime:policy:adaptive" in reasons

    def test_detector_default_escalates(self):
        # threshold_scrub defaults its CRC detector *on*; the surrogate
        # models unconditional decode, so the spec must opt out
        # explicitly to stay in regime.
        kwargs = {"interval": 2 * units.HOUR, "strength": 3, "threshold": 2}
        spec = make_spec(policy_kwargs=kwargs)
        reasons = regime_reasons(spec, spec.device_spec(0))
        assert "regime:detector" in reasons

    def test_demand_workload(self):
        spec = make_spec(demand_write_rate=10.0)
        assert "regime:demand_workload" in regime_reasons(spec, spec.device_spec(0))

    def test_multi_region(self):
        spec = make_spec(
            base_config=SimulationConfig(
                num_lines=64, region_size=16, horizon=units.DAY, seed=2012,
                endurance=None,
            )
        )
        assert "regime:multi_region" in regime_reasons(spec, spec.device_spec(0))

    def test_wear_spares_refresh_retire(self):
        config = SimulationConfig(
            num_lines=64, region_size=64, horizon=units.DAY, seed=2012,
            endurance=EnduranceSpec(mean_writes=1e6),
            retire_hard_limit=4, read_refresh=True, spares_per_region=2,
        )
        spec = make_spec(base_config=config)
        reasons = regime_reasons(spec, spec.device_spec(0))
        for marker in (
            "regime:endurance", "regime:retire_limit",
            "regime:read_refresh", "regime:spares",
        ):
            assert marker in reasons

    def test_out_of_regime_devices_escalate_without_surrogate_numbers(self):
        spec = make_spec(demand_write_rate=10.0)
        plan = plan_screen(spec, make_constraints(spec))
        assert all(d.classification == UNCERTAIN for d in plan.decisions)
        assert all(d.expected_ue is None for d in plan.decisions)
        assert plan.mc_fraction == 1.0


class TestClassification:
    def test_lots_split_across_all_three_classes(self, spec, constraints):
        plan = plan_screen(spec, constraints)
        by_lot = {}
        for decision in plan.decisions:
            by_lot.setdefault(decision.lot, set()).add(decision.classification)
        assert by_lot == {
            "cool": {PASS}, "hot": {UNCERTAIN}, "recalled": {FAIL},
        }
        assert plan.counts() == {PASS: 5, FAIL: 1, UNCERTAIN: 2}
        assert plan.escalated == (5, 6)
        assert plan.mc_fraction == pytest.approx(0.25)

    def test_only_uncertain_devices_use_mc(self, spec, constraints):
        plan = plan_screen(spec, constraints)
        for decision in plan.decisions:
            expected = MC if decision.classification == UNCERTAIN else SURROGATE
            assert decision.method == expected
        assert set(plan.escalated) | set(plan.surrogate_indices) == set(
            range(spec.devices)
        )
        assert not set(plan.escalated) & set(plan.surrogate_indices)

    def test_uncertain_devices_carry_escalation_reason(self, spec, constraints):
        plan = plan_screen(spec, constraints)
        for index in plan.escalated:
            assert plan.decisions[index].reasons == ("fit_ci_overlap",)

    def test_fail_beats_uncertain(self, spec):
        # The recalled lot fails the FIT screen while its availability
        # sits inside the escalation margin; fail wins - no MC is spent
        # on a device whose verdict is already deterministic.
        plan = plan_screen(
            spec,
            make_constraints(
                spec, min_availability=0.01, availability_margin=0.5
            ),
        )
        recalled = [d for d in plan.decisions if d.lot == "recalled"]
        assert all(d.classification == FAIL for d in recalled)

    def test_availability_margin_escalates(self, spec):
        # cool lot p0 ~ 0.20: a floor at 0.20 +- 0.02 straddles it.
        plan = plan_screen(
            spec,
            ScreenConstraints(min_availability=0.20, availability_margin=0.02),
        )
        cool = [d for d in plan.decisions if d.lot == "cool"]
        assert all(d.classification == UNCERTAIN for d in cool)
        assert all(d.reasons == ("availability_margin",) for d in cool)

    def test_unbounded_upper_tail_passes_no_device(self, spec):
        # The largest confidence below 1 rounds the upper tail to 1, whose
        # Poisson quantile is infinite: no device can clear the budget.
        constraints = make_constraints(
            spec, budget=1e6, confidence=math.nextafter(1.0, 0.0)
        )
        plan = plan_screen(spec, constraints)
        assert {d.classification for d in plan.decisions} == {UNCERTAIN}

    def test_nan_bounds_clear_no_budget(self, spec, constraints, monkeypatch):
        # pdtrik gives NaN at some rates above about 1e10; such a device
        # neither passes nor fails, it escalates.
        monkeypatch.setattr(
            planner, "poisson_quantile", lambda q, mu: np.full(np.shape(mu), np.nan)
        )
        plan = plan_screen(spec, constraints)
        assert {d.classification for d in plan.decisions} == {UNCERTAIN}

    def test_plan_is_deterministic(self, spec, constraints):
        assert plan_screen(spec, constraints).to_dict() == plan_screen(
            spec, constraints
        ).to_dict()

    def test_plan_round_trips_through_dict(self, spec, constraints):
        plan = plan_screen(spec, constraints)
        assert ScreenPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_surrogate_numbers_are_sane(self, spec, constraints):
        plan = plan_screen(spec, constraints)
        for decision in plan.decisions:
            assert decision.expected_ue is not None
            assert decision.expected_ue >= 0.0
            assert decision.expected_writes > 0.0
            assert 0.0 <= decision.no_ue_probability <= 1.0
            assert decision.fit_scaled >= 0.0


class TestPlanInvariants:
    def test_decisions_must_cover_indices_in_order(self, constraints):
        decision = ScreenDecision(index=1, lot="a", classification=PASS)
        with pytest.raises(ScreenInvariantError, match="in order"):
            ScreenPlan(
                spec_hash="x", constraints=constraints, decisions=(decision,)
            )


def scalar_plan(monkeypatch, spec, constraints):
    """``plan_screen`` with the scalar oracle in place of the kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(planner, "finite_horizon_batch", scalar_finite_horizon)
        return plan_screen(spec, constraints)


class TestBatchScalarEquivalence:
    """The batched kernel path is a pure optimization of the scalar oracle.

    Swapping :func:`repro.verify.equivalence.scalar_finite_horizon` in for
    the planner's kernel routes every device through the per-device
    :class:`RenewalModel` recursion; classifications must match the
    kernel exactly (the ``surrogate_batch`` verify law additionally
    bounds the numeric gap at 1e-9).
    """

    @staticmethod
    def _classifications(plan):
        return [
            (d.index, d.lot, d.classification, d.reasons)
            for d in plan.decisions
        ]

    def test_batch_matches_scalar_oracle_exactly(
        self, spec, constraints, monkeypatch
    ):
        batched = plan_screen(spec, constraints)
        scalar = scalar_plan(monkeypatch, spec, constraints)
        assert self._classifications(batched) == self._classifications(scalar)
        assert batched.escalated == scalar.escalated
        for a, b in zip(batched.decisions, scalar.decisions):
            if a.expected_ue is None:
                assert b.expected_ue is None
                continue
            assert a.expected_ue == pytest.approx(b.expected_ue, rel=1e-9)
            assert a.expected_writes == pytest.approx(
                b.expected_writes, rel=1e-9
            )
            assert a.no_ue_probability == pytest.approx(
                b.no_ue_probability, rel=1e-9
            )

    @pytest.mark.parametrize("name", ["fleet_screen", "fleet_smoke"])
    def test_bundled_fleet_specs_pin_classifications(self, name, monkeypatch):
        from pathlib import Path

        from repro.fleet import FleetSpec
        from repro.fleet.report import FIT_HOURS

        path = (
            Path(__file__).resolve().parents[2]
            / "examples" / "specs" / f"{name}.json"
        )
        spec = FleetSpec.from_file(path)
        horizon_hours = spec.base_config.horizon / units.HOUR
        constraints = ScreenConstraints(
            fit_limit=4.0 * FIT_HOURS * spec.capacity_scale / horizon_hours
        )
        batched = plan_screen(spec, constraints)
        scalar = scalar_plan(monkeypatch, spec, constraints)
        assert self._classifications(batched) == self._classifications(scalar)
        assert batched.escalated == scalar.escalated

    def test_jobs_do_not_change_the_plan(self, spec, constraints, monkeypatch):
        # The fixture's lots have no spread, so it is planned in process;
        # the second fleet's spread lot is what fans out over the pool.
        spread = make_spec(lots=spec.lots[:1] + (SPREAD_LOT,))
        sizes = spy_parallel_map(monkeypatch)
        for fleet in (spec, spread):
            serial = plan_screen(fleet, constraints)
            fanned = plan_screen(fleet, constraints, jobs=2)
            assert fanned.to_dict() == serial.to_dict()
        assert max(sizes) == 2


#: An in-regime lot whose devices each draw their own temperature.
SPREAD_LOT = Lot(
    name="warm-spread", weight=3,
    temperature_k=LotParameter(316.0, 4.0, low=250.0),
)


def spy_parallel_map(monkeypatch) -> list[int]:
    """Record the item count of every ``planner.parallel_map`` call."""
    sizes: list[int] = []
    real = planner.parallel_map

    def spy(fn, items, jobs=1, **kwargs):
        sizes.append(len(items))
        return real(fn, items, jobs=jobs, **kwargs)

    monkeypatch.setattr(planner, "parallel_map", spy)
    return sizes


def spy_device_spec(monkeypatch) -> list[int]:
    """Record the index of every ``FleetSpec.device_spec`` call."""
    sampled: list[int] = []
    real = FleetSpec.device_spec

    def spy(self, index):
        sampled.append(index)
        return real(self, index)

    monkeypatch.setattr(FleetSpec, "device_spec", spy)
    return sampled


class TestPerLotPlanning:
    """The planner samples one device per lot unless the lot has spread."""

    def test_constant_fleet_starts_no_pool(self, spec, constraints, monkeypatch):
        sizes = spy_parallel_map(monkeypatch)
        plan_screen(spec, constraints, jobs=2)
        assert max(sizes, default=0) <= 1

    def test_constant_and_out_of_regime_lots_sample_their_first_device(
        self, monkeypatch
    ):
        spec = make_spec(
            devices=12,
            lots=make_spec().lots + (
                Lot(name="basic", weight=2, policy="basic",
                    policy_kwargs={"interval": 3600.0}),
            ),
        )
        sampled = spy_device_spec(monkeypatch)
        plan = plan_screen(spec, make_constraints(spec))
        assert sampled == [indices.start for indices in spec.lot_ranges()]
        basic = [d for d in plan.decisions if d.lot == "basic"]
        assert basic and all(
            d.reasons == ("regime:policy:basic",) for d in basic
        )

    def test_spread_lot_samples_every_device(self, monkeypatch):
        spec = make_spec(lots=(SPREAD_LOT,))
        sampled = spy_device_spec(monkeypatch)
        plan_screen(spec, make_constraints(spec))
        assert sampled == [0, *range(spec.devices)]

    def test_spread_lot_policy_is_built_per_lot_not_per_device(self, monkeypatch):
        builds = []
        real = POLICY_FACTORIES["threshold"]

        def spy(**kwargs):
            builds.append(kwargs)
            return real(**kwargs)

        monkeypatch.setitem(POLICY_FACTORIES, "threshold", spy)
        counts = []
        for devices in (3, 90):
            spec = make_spec(devices=devices, lots=(SPREAD_LOT,))
            builds.clear()
            plan = plan_screen(spec, make_constraints(spec))
            assert all(d.expected_ue is not None for d in plan.decisions)  # in regime
            counts.append(len(builds))
        assert 1 <= counts[0] == counts[1]


def reference_plan(spec: FleetSpec, constraints: ScreenConstraints) -> ScreenPlan:
    """The plan built device by device, each through its own kernel call."""
    decisions = []
    for index in range(spec.devices):
        device = spec.device_spec(index)
        reasons = regime_reasons(spec, device)
        if reasons:
            decisions.append(ScreenDecision(
                index=index, lot=device.lot,
                classification=UNCERTAIN, reasons=reasons,
            ))
            continue
        task = RenewalTask(
            crossing_distribution_for(device.config),
            device.config.cells_per_line,
            *surrogate_point(spec, device.lot),
        )
        solutions = finite_horizon_batch([task], spec.base_config.horizon)
        decisions += classify(spec, constraints, [(index, device)], solutions)
    return ScreenPlan(
        spec_hash=spec.content_hash(),
        constraints=constraints,
        decisions=tuple(decisions),
    )


@st.composite
def mixed_fleets(draw) -> FleetSpec:
    """Small fleets mixing constant, spread and out-of-regime lots.

    Every fleet holds one in-regime lot with spread, the one whose
    devices the planner samples one by one.
    """
    lots = []
    kinds = ("constant", "spread", "tuned", "basic", "endurance", "detector")
    others = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    for position, kind in enumerate(draw(st.permutations(["spread", *others]))):
        kelvin = draw(st.sampled_from([300.0, 316.0, 330.0, 350.0]))
        fields = {"name": f"{kind}-{position}", "weight": draw(st.integers(1, 4)),
                  "temperature_k": LotParameter(kelvin, 0.0)}
        if kind == "spread":
            fields["temperature_k"] = LotParameter(
                kelvin, draw(st.sampled_from([1.0, 4.0])), low=250.0
            )
            fields["nu_mu_scale"] = LotParameter(1.0, 0.05, low=0.0)
        elif kind == "tuned":
            fields["policy_kwargs"] = {"interval": 3600.0, "strength": 4, "threshold": 3}
        elif kind == "basic":
            fields.update(policy="basic", policy_kwargs={"interval": 3600.0})
        elif kind == "endurance":
            fields["endurance_mean"] = LotParameter(
                1e6, draw(st.sampled_from([0.0, 1e5])), low=1.0
            )
        elif kind == "detector":
            fields["policy_kwargs"] = {"with_detector": True}
        lots.append(Lot(**fields))
    return make_spec(
        seed=draw(st.sampled_from([2012, 7])),
        devices=draw(st.integers(1, 12)),
        lots=tuple(lots),
    )


@settings(max_examples=20)
@given(
    spec=mixed_fleets(),
    budget=st.sampled_from([2.0, 5.0, 20.0]),
    min_availability=st.none() | st.sampled_from([0.2, 0.6]),
)
def test_plan_equals_the_per_device_reference(spec, budget, min_availability):
    constraints = make_constraints(
        spec, budget=budget, min_availability=min_availability
    )
    assert plan_screen(spec, constraints).to_dict() == (
        reference_plan(spec, constraints).to_dict()
    )
    for lot, indices in zip(spec.lots, spec.lot_ranges()):
        first = regime_reasons(spec, spec.device_spec(indices.start)) if indices else ()
        for index in indices:
            assert regime_reasons(spec, spec.device_spec(index)) == first, lot.name
