"""Campaign execution: equivalence, resume bit-identity, pool invariance."""

from __future__ import annotations

import json
import re

import pytest

from repro import units
from repro.fleet import (
    CampaignRunner,
    CheckpointError,
    FleetSpec,
    Lot,
    LotParameter,
    load_journal,
    run_campaign,
)
from repro.fleet.checkpoint import append_device, device_records
from repro.fleet.report import DeviceRecord
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_experiment
from repro.core import threshold_scrub

POLICY_KWARGS = {"interval": 4 * units.HOUR, "strength": 3, "threshold": 1}


def base_config(**overrides) -> SimulationConfig:
    defaults = dict(
        num_lines=256,
        region_size=256,
        horizon=1 * units.DAY,
        seed=2012,
        endurance=None,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def hetero_spec(devices=6) -> FleetSpec:
    return FleetSpec(
        name="hetero",
        devices=devices,
        policy="threshold",
        policy_kwargs=POLICY_KWARGS,
        base_config=base_config(),
        lots=(
            Lot(
                name="a",
                weight=2,
                nu_mu_scale=LotParameter(1.0, 0.05, low=0.0),
            ),
            Lot(
                name="b",
                weight=1,
                nu_sigma_scale=LotParameter(1.2, 0.1, low=0.0),
                temperature_k=LotParameter(310.0, 2.0, low=250.0),
            ),
        ),
    )


def report_json(outcome) -> str:
    return json.dumps(outcome.report.to_dict(), sort_keys=True)


class TestSingleDeviceEquivalence:
    def test_degenerate_fleet_reproduces_run_experiment(self):
        config = base_config()
        spec = FleetSpec(
            name="one",
            devices=1,
            policy="threshold",
            policy_kwargs=POLICY_KWARGS,
            base_config=config,
        )
        outcome = run_campaign(spec)
        direct = run_experiment(threshold_scrub(**POLICY_KWARGS), config)
        record = next(iter(outcome.report.lots))
        assert outcome.report.uncorrectable == direct.stats.uncorrectable
        assert record.counts["scrub_writes"] == direct.stats.scrub_writes
        assert outcome.report.scrub_energy_j == direct.stats.scrub_energy
        assert outcome.report.counts["visits"] == direct.stats.visits


class TestPoolInvariance:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_jobs_do_not_change_the_report(self, jobs):
        spec = hetero_spec()
        serial = run_campaign(spec, jobs=1)
        pooled = run_campaign(spec, jobs=jobs)
        assert report_json(serial) == report_json(pooled)


class TestResume:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_interrupted_resume_is_bit_identical(self, tmp_path, jobs):
        spec = hetero_spec()
        straight = run_campaign(spec, jobs=1)

        journal = tmp_path / "campaign.jsonl"
        partial = run_campaign(spec, jobs=jobs, checkpoint=journal, stop_after=3)
        assert not partial.finished
        assert partial.report is None
        assert partial.completed == 3

        resumed = run_campaign(spec, jobs=jobs, checkpoint=journal, resume=True)
        assert resumed.finished
        assert resumed.executed == spec.devices - 3
        assert report_json(resumed) == report_json(straight)

    def test_journal_failure_mid_dispatch_surfaces_and_resumes(
        self, tmp_path, monkeypatch
    ):
        spec = hetero_spec()
        straight = run_campaign(spec, jobs=1)
        journal = tmp_path / "campaign.jsonl"
        appends = 0

        def fail_fourth(path, record):
            nonlocal appends
            appends += 1
            if appends == 4:
                raise OSError("journal disk full")
            append_device(path, record)

        monkeypatch.setattr("repro.fleet.campaign.append_device", fail_fourth)
        with pytest.raises(OSError, match="journal disk full"):
            run_campaign(spec, jobs=2, checkpoint=journal)
        monkeypatch.undo()

        _, devices = load_journal(journal, expected_hash=spec.content_hash())
        assert len(devices) == 3
        resumed = run_campaign(spec, jobs=2, checkpoint=journal, resume=True)
        assert resumed.executed == spec.devices - 3
        assert report_json(resumed) == report_json(straight)

    def test_resume_with_torn_tail(self, tmp_path):
        spec = hetero_spec()
        straight = run_campaign(spec)
        journal = tmp_path / "campaign.jsonl"
        run_campaign(spec, checkpoint=journal, stop_after=4)
        with open(journal, "a") as handle:
            handle.write('{"kind": "device", "index": 4, "sum')  # killed append
        resumed = run_campaign(spec, checkpoint=journal, resume=True)
        assert resumed.finished
        assert resumed.executed == spec.devices - 4
        assert report_json(resumed) == report_json(straight)
        # The torn line was cut before the resume appended past it, so the
        # journal still loads whole.
        _, devices = load_journal(journal, expected_hash=spec.content_hash())
        assert set(devices) == set(range(spec.devices))

    def test_resume_over_a_record_missing_a_field_raises(self, tmp_path):
        spec = hetero_spec()
        journal = tmp_path / "campaign.jsonl"
        run_campaign(spec, checkpoint=journal, stop_after=1)
        with open(journal, "a") as handle:
            handle.write('{"kind": "device", "index": 1, "lot": "a"}\n')
        with pytest.raises(
            CheckpointError,
            match=re.escape(f"{journal} device 1 is malformed: field seed: is required"),
        ):
            run_campaign(spec, checkpoint=journal, resume=True)

    def test_resume_of_finished_campaign_executes_nothing(self, tmp_path):
        spec = hetero_spec(devices=2)
        journal = tmp_path / "campaign.jsonl"
        first = run_campaign(spec, checkpoint=journal)
        again = run_campaign(spec, checkpoint=journal, resume=True)
        assert again.executed == 0
        assert report_json(again) == report_json(first)

    def test_journal_counts_match_completion(self, tmp_path):
        spec = hetero_spec(devices=3)
        journal = tmp_path / "campaign.jsonl"
        run_campaign(spec, checkpoint=journal)
        header, devices = load_journal(journal, expected_hash=spec.content_hash())
        assert header["name"] == "hetero"
        assert set(devices) == {0, 1, 2}

    def test_journal_records_round_trip(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(hetero_spec(devices=2), checkpoint=journal)
        records = device_records(journal, load_journal(journal)[1])
        for record in records.values():
            data = json.loads(json.dumps(record.to_dict()))
            assert DeviceRecord.from_dict(data) == record


class TestGuards:
    def test_existing_checkpoint_without_resume_refused(self, tmp_path):
        spec = hetero_spec(devices=2)
        journal = tmp_path / "campaign.jsonl"
        run_campaign(spec, checkpoint=journal, stop_after=1)
        with pytest.raises(CheckpointError, match="resume"):
            run_campaign(spec, checkpoint=journal)

    def test_resume_rejects_foreign_journal(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(hetero_spec(devices=2), checkpoint=journal, stop_after=1)
        other = hetero_spec(devices=3)
        with pytest.raises(CheckpointError, match="different campaign"):
            run_campaign(other, checkpoint=journal, resume=True)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            CampaignRunner(hetero_spec(devices=2), resume=True)

    def test_stop_after_must_be_positive(self):
        with pytest.raises(ValueError, match="stop_after"):
            CampaignRunner(hetero_spec(devices=2), stop_after=0)


class TestOutcome:
    def test_outcome_bookkeeping(self):
        spec = hetero_spec(devices=2)
        outcome = run_campaign(spec)
        assert outcome.finished
        assert outcome.completed == outcome.executed == outcome.total == 2
        assert outcome.wall_seconds > 0
        # The acceptance invariant, re-asserted from the outside: the
        # fleet UE total equals the sum of per-lot partial sums.
        assert sum(
            lot.counts["uncorrectable"] for lot in outcome.report.lots
        ) == outcome.report.uncorrectable


class TestUntil:
    def test_until_completes_prefix_and_journals_pending(self, tmp_path):
        spec = hetero_spec()
        journal = tmp_path / "campaign.jsonl"
        partial = run_campaign(spec, checkpoint=journal, until=4)
        assert not partial.finished
        assert partial.completed == 4
        _, devices = load_journal(journal, expected_hash=spec.content_hash())
        assert set(devices) == {0, 1, 2, 3}
        # The pending marker names exactly the unfinished indices.
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        pending = [line for line in lines if line["kind"] == "pending"]
        assert pending and pending[-1]["indices"] == [4, 5]

    def test_incremental_until_then_resume_is_bit_identical(self, tmp_path):
        spec = hetero_spec()
        straight = run_campaign(spec, jobs=2)
        journal = tmp_path / "campaign.jsonl"
        run_campaign(spec, checkpoint=journal, until=2)
        run_campaign(spec, checkpoint=journal, resume=True, until=5)
        final = run_campaign(spec, checkpoint=journal, resume=True)
        assert final.finished
        assert report_json(final) == report_json(straight)

    def test_until_beyond_fleet_finishes(self, tmp_path):
        spec = hetero_spec(devices=2)
        straight = run_campaign(spec)
        journal = tmp_path / "campaign.jsonl"
        done = run_campaign(spec, checkpoint=journal, until=99)
        assert done.finished
        assert report_json(done) == report_json(straight)

    def test_until_must_be_positive(self):
        with pytest.raises(ValueError, match="until"):
            CampaignRunner(hetero_spec(), until=0)
