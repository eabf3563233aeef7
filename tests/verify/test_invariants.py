"""Runtime invariant checking: clean runs, bit-identity, and detection.

Three families of tests:

* armed runs over every engine path finish without violations;
* arming the verifier never changes a single simulated number;
* corrupting the stats ledger mid-run (monkeypatched recorders) trips the
  matching invariant with a structured, JSON-able violation.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import units
from repro.core import partial_scrub, threshold_scrub
from repro.core.stats import ScrubStats
from repro.obs import ObsConfig
from repro.params import EnduranceSpec
from repro.sim import SimulationConfig, run_experiment
from repro.verify import (
    NULL_VERIFIER,
    InvariantChecker,
    InvariantViolation,
    Verifier,
    VerifyConfig,
)
from repro.verify.harness import invariant_cases, run_invariants
from repro.workloads import uniform_rates

ARMED = VerifyConfig(invariants=True)

BASE = SimulationConfig(
    num_lines=1024,
    region_size=256,
    horizon=2 * units.DAY,
    endurance=None,
    verify=ARMED,
)


def small_run(policy=None, config=BASE, rates=None):
    if policy is None:
        policy = threshold_scrub(interval=2 * units.HOUR)
    return run_experiment(policy, config, rates)


class TestConfig:
    def test_disabled_by_default(self):
        assert not VerifyConfig().enabled
        assert ARMED.enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="check_every"):
            VerifyConfig(check_every=0)
        with pytest.raises(ValueError, match="energy_rtol"):
            VerifyConfig(energy_rtol=-1.0)


class TestNullVerifier:
    def test_is_disabled_and_inert(self):
        assert not NULL_VERIFIER.enabled
        NULL_VERIFIER.check_visit(anything=1, at_all=2)
        NULL_VERIFIER.note_refresh(writes=3, ues=1)
        NULL_VERIFIER.check_final({"stuck_cells": 0.0})

    def test_base_class_is_the_null_object(self):
        assert isinstance(NULL_VERIFIER, Verifier)
        assert type(NULL_VERIFIER) is Verifier


class TestCleanRuns:
    def test_threshold_run_passes(self):
        result = small_run()
        assert result.stats.visits > 0

    @pytest.mark.parametrize(
        "name", [case[0] for case in invariant_cases(quick=True)]
    )
    def test_harness_case_passes(self, name):
        cases = {case[0]: case for case in invariant_cases(quick=True)}
        _, policy, config, rates = cases[name]
        result = run_experiment(policy, config, rates)
        assert result.stats.visits > 0

    def test_harness_report_all_pass(self):
        report = run_invariants(quick=True)
        assert report.passed
        assert not report.failures
        assert {case.name for case in report.cases} == {
            "basic", "threshold", "partial", "retire+spares", "read_refresh",
            "bitexact",
        }

    def test_check_every_stride_still_passes(self):
        config = dataclasses.replace(
            BASE, verify=VerifyConfig(invariants=True, check_every=64)
        )
        result = small_run(config=config)
        assert result.stats.visits > 0

    def test_parallel_sweep_matches_serial(self):
        serial = run_invariants(quick=True, jobs=1)
        parallel = run_invariants(quick=True, jobs=2)
        assert parallel.passed
        assert serial.to_dict() == parallel.to_dict()
        assert [case.name for case in serial.cases] == [
            case.name for case in parallel.cases
        ]


class TestBitIdentity:
    @pytest.mark.parametrize("read_refresh", [False, True])
    def test_armed_run_matches_disarmed(self, read_refresh):
        rates = uniform_rates(BASE.num_lines, total_write_rate=5.0)
        off = dataclasses.replace(
            BASE, verify=VerifyConfig(), read_refresh=read_refresh
        )
        on = dataclasses.replace(BASE, read_refresh=read_refresh)
        r_off = small_run(config=off, rates=rates)
        r_on = small_run(config=on, rates=rates)
        assert r_off.stats.summary() == r_on.stats.summary()
        assert r_off.final_state == r_on.final_state


def corrupting(monkeypatch, method, replacement):
    monkeypatch.setattr(ScrubStats, method, replacement)


class TestDetection:
    def test_dropped_scrub_writes_detected(self, monkeypatch):
        corrupting(monkeypatch, "record_scrub_writes", lambda self, count: None)
        with pytest.raises(InvariantViolation) as excinfo:
            small_run()
        assert excinfo.value.invariant == "scrub_write_count"

    def test_dropped_decodes_detected(self, monkeypatch):
        original = ScrubStats.record_decodes
        corrupting(
            monkeypatch,
            "record_decodes",
            lambda self, count: original(self, count + 1),
        )
        with pytest.raises(InvariantViolation) as excinfo:
            small_run()
        assert excinfo.value.invariant in (
            "scrub_decode_count", "histogram_mass"
        )

    def test_corrupted_histogram_detected(self, monkeypatch):
        corrupting(
            monkeypatch, "record_error_counts", lambda self, counts: None
        )
        with pytest.raises(InvariantViolation) as excinfo:
            small_run()
        assert excinfo.value.invariant == "histogram_mass"

    def test_energy_drift_detected(self, monkeypatch):
        original = ScrubStats.record_reads

        def drifted(self, lines, visits=1):
            original(self, lines, visits)
            self.ledger.energy["scrub_read"] += 1e-6

        corrupting(monkeypatch, "record_reads", drifted)
        with pytest.raises(InvariantViolation) as excinfo:
            small_run()
        assert excinfo.value.invariant == "energy_scrub_read"

    def test_partial_cell_corruption_detected(self, monkeypatch):
        original = ScrubStats.record_partial_scrub_writes

        def corrupted(self, lines, cells):
            original(self, lines, max(0, cells - 1))

        corrupting(monkeypatch, "record_partial_scrub_writes", corrupted)
        with pytest.raises(InvariantViolation) as excinfo:
            small_run(policy=partial_scrub(interval=2 * units.HOUR))
        assert excinfo.value.invariant == "partial_cell_count"

    def test_spare_pool_mismatch_detected(self, monkeypatch):
        # Weak endurance + rewrite-everything policy guarantees retirements.
        config = dataclasses.replace(
            BASE,
            retire_hard_limit=2,
            spares_per_region=8,
            endurance=EnduranceSpec(mean_writes=20.0),
        )
        from repro.mem.sparing import SparePool

        original = SparePool.request

        def leaky(self, region, count):
            # Grant the spares without booking them: used/retired diverge.
            grant = original(self, region, count)
            if grant:
                self.used[region] -= 1
            return grant

        monkeypatch.setattr(SparePool, "request", leaky)
        from repro.core import basic_scrub

        with pytest.raises(InvariantViolation) as excinfo:
            small_run(policy=basic_scrub(interval=units.HOUR), config=config)
        assert excinfo.value.invariant == "spares_match_retirements"


class TestViolationStructure:
    def _violation(self, monkeypatch, config=BASE):
        monkeypatch.setattr(
            ScrubStats, "record_scrub_writes", lambda self, count: None
        )
        with pytest.raises(InvariantViolation) as excinfo:
            small_run(config=config)
        return excinfo.value

    def test_carries_location_and_values(self, monkeypatch):
        violation = self._violation(monkeypatch)
        assert violation.invariant == "scrub_write_count"
        assert violation.time is not None
        assert violation.region is not None
        assert violation.expected != violation.actual

    def test_to_dict_is_json_able(self, monkeypatch):
        violation = self._violation(monkeypatch)
        payload = violation.to_dict()
        encoded = json.loads(json.dumps(payload))
        assert encoded["invariant"] == "scrub_write_count"
        assert encoded["expected"] != encoded["actual"]

    def test_trace_tail_attached_when_tracing(self, monkeypatch):
        config = dataclasses.replace(BASE, obs=ObsConfig(trace=True))
        violation = self._violation(monkeypatch, config=config)
        assert violation.trace_tail
        assert len(violation.trace_tail) <= InvariantChecker.TRACE_TAIL_EVENTS

    def test_no_trace_tail_without_tracing(self, monkeypatch):
        violation = self._violation(monkeypatch)
        assert violation.trace_tail == []
