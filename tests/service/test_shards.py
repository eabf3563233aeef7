"""Shard planner: deterministic, apportionment-stable tilings."""

from __future__ import annotations

import json

import pytest

from repro.service import CampaignShard, plan_shards


class TestPlanShards:
    @pytest.mark.parametrize(
        "devices,shards", [(1, 1), (6, 3), (7, 3), (100, 7), (5, 5), (64, 16)]
    )
    def test_tiles_exactly(self, devices, shards):
        plan = plan_shards(devices, shards)
        covered = [index for shard in plan for index in shard.indices]
        assert covered == list(range(devices))

    @pytest.mark.parametrize("devices,shards", [(7, 3), (100, 7), (13, 4)])
    def test_sizes_differ_by_at_most_one(self, devices, shards):
        sizes = [shard.count for shard in plan_shards(devices, shards)]
        assert max(sizes) - min(sizes) <= 1
        assert all(size > 0 for size in sizes)

    def test_deterministic(self):
        assert plan_shards(100, 7) == plan_shards(100, 7)

    def test_more_shards_than_devices_clamps(self):
        plan = plan_shards(3, 10)
        assert len(plan) == 3
        assert [shard.count for shard in plan] == [1, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 1)
        with pytest.raises(ValueError):
            plan_shards(4, 0)
        with pytest.raises(ValueError):
            CampaignShard(shard_id=0, start=3, stop=3)

    def test_round_trip(self):
        shard = CampaignShard(shard_id=2, start=4, stop=9)
        assert CampaignShard.from_dict(json.loads(json.dumps(shard.to_dict()))) == shard
        assert shard.name == "shard-0002"
