"""Screened campaigns through the sharded service path."""

from __future__ import annotations

import json

import pytest

from repro.screen import run_screened_campaign
from repro.service import (
    ServiceError,
    campaign_status,
    final_report,
    load_campaign,
    plan_subset_shards,
    run_worker,
    submit_campaign,
)
from repro.service.shards import CampaignShard

from .conftest import make_constraints, make_spec


class TestSubsetShards:
    def test_apportions_positions(self):
        plan = plan_subset_shards([3, 7, 8, 12, 20], 2)
        assert [list(s.indices) for s in plan] == [[3, 7], [8, 12, 20]]
        assert [s.shard_id for s in plan] == [0, 1]

    def test_never_emits_empty_shards(self):
        plan = plan_subset_shards([4, 9], 5)
        assert [list(s.indices) for s in plan] == [[4], [9]]

    def test_union_is_input(self):
        subset = [1, 2, 5, 13, 21, 34, 55]
        for shards in (1, 2, 3, 7):
            plan = plan_subset_shards(subset, shards)
            covered = [i for s in plan for i in s.indices]
            assert covered == subset

    def test_rejects_bad_subsets(self):
        with pytest.raises(ValueError):
            plan_subset_shards([], 2)
        with pytest.raises(ValueError):
            plan_subset_shards([3, 1], 2)
        with pytest.raises(ValueError):
            plan_subset_shards([1, 1], 2)

    def test_explicit_devices_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            CampaignShard(shard_id=0, start=1, stop=6, devices=(5, 1))
        with pytest.raises(ValueError, match="tightly"):
            CampaignShard(shard_id=0, start=0, stop=9, devices=(1, 5))
        shard = CampaignShard(shard_id=0, start=1, stop=6, devices=(1, 5))
        assert shard.count == 2
        assert CampaignShard.from_dict(json.loads(json.dumps(shard.to_dict()))) == shard


class TestScreenedSubmit:
    def test_plan_covers_escalated_subset_only(self, spec, constraints, tmp_path):
        campaign = submit_campaign(
            spec, tmp_path / "camp", shards=2, constraints=constraints
        )
        assert campaign.screen is not None
        assert (campaign.root / "screen.json").exists()
        covered = [i for s in campaign.shards for i in s.indices]
        assert tuple(covered) == campaign.screen.escalated
        assert campaign.target_indices == campaign.screen.escalated

    def test_load_round_trips_screen_plan(self, spec, constraints, tmp_path):
        submitted = submit_campaign(
            spec, tmp_path / "camp", shards=2, constraints=constraints
        )
        loaded = load_campaign(tmp_path / "camp")
        assert loaded.screen.to_dict() == submitted.screen.to_dict()
        assert loaded.shards == submitted.shards

    def test_resubmit_same_constraints_is_idempotent(
        self, spec, constraints, tmp_path
    ):
        root = tmp_path / "camp"
        first = submit_campaign(spec, root, shards=2, constraints=constraints)
        second = submit_campaign(spec, root, shards=2, constraints=constraints)
        assert second.screen.to_dict() == first.screen.to_dict()

    def test_mismatched_screening_refused(self, spec, constraints, tmp_path):
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=2, constraints=constraints)
        with pytest.raises(ServiceError, match="screening constraints"):
            submit_campaign(spec, root, shards=2)
        with pytest.raises(ServiceError, match="screening constraints"):
            submit_campaign(
                spec, root, shards=2,
                constraints=make_constraints(spec, budget=1e6),
            )

    def test_screened_onto_unscreened_refused(self, spec, constraints, tmp_path):
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=2)
        with pytest.raises(ServiceError, match="screening constraints"):
            submit_campaign(spec, root, shards=2, constraints=constraints)


class TestScreenedService:
    def test_worker_drains_and_report_matches_batch(
        self, spec, constraints, tmp_path
    ):
        root = tmp_path / "camp"
        campaign = submit_campaign(
            spec, root, shards=2, constraints=constraints
        )

        before = campaign_status(root)
        assert before["devices_total"] == len(campaign.screen.escalated)
        assert not before["finished"]
        assert before["screen"]["mc_fraction"] == pytest.approx(
            campaign.screen.mc_fraction
        )

        summary = run_worker(root, wait_for_complete=False)
        assert summary["devices_executed"] == len(campaign.screen.escalated)

        after = campaign_status(root)
        assert after["finished"]
        assert after["report"]["mc_devices"] == len(campaign.screen.escalated)

        batch = run_screened_campaign(spec, constraints, jobs=1)
        assert final_report(root).to_dict() == batch.report.to_dict()

    def test_report_independent_of_shard_plan(self, spec, constraints, tmp_path):
        reports = []
        for shards in (1, 2):
            root = tmp_path / f"camp-{shards}"
            submit_campaign(spec, root, shards=shards, constraints=constraints)
            run_worker(root, wait_for_complete=False)
            reports.append(final_report(root).to_dict())
        assert reports[0] == reports[1]

    def test_zero_escalation_campaign_is_born_finished(self, spec, tmp_path):
        root = tmp_path / "camp"
        campaign = submit_campaign(
            spec, root, shards=2,
            constraints=make_constraints(spec, budget=1e6),
        )
        assert campaign.shards == ()
        status = campaign_status(root)
        assert status["finished"]
        assert status["devices_total"] == 0
        report = final_report(root)
        assert report.mc_devices == 0
        assert report.devices == spec.devices
        summary = run_worker(root, wait_for_complete=False)
        assert summary["devices_executed"] == 0
