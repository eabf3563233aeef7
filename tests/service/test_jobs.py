"""Campaign directory format: submit, load, and integrity guards."""

from __future__ import annotations

import copy
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.fleet import FleetSpec, Lot, LotParameter
from repro.fleet.checkpoint import CheckpointError, open_journal
from repro.screen import ScreenConstraints, ScreenDecision, ScreenPlan
from repro.service import (
    ServiceError,
    campaign_status,
    load_campaign,
    submit_campaign,
)
from repro.sim.config import SimulationConfig

from ..strategies import JSON_VALUES


def make_spec(devices=6, seed=2012) -> FleetSpec:
    return FleetSpec(
        name="jobs-test",
        devices=devices,
        policy="threshold",
        policy_kwargs={"interval": 4 * units.HOUR, "strength": 3, "threshold": 1},
        base_config=SimulationConfig(
            num_lines=256, region_size=256, horizon=units.DAY, seed=seed,
            endurance=None,
        ),
        lots=(
            Lot(name="a", weight=2, nu_mu_scale=LotParameter(1.0, 0.05, low=0.0)),
            Lot(name="b", weight=1),
        ),
    )


class TestSubmit:
    def test_creates_layout(self, tmp_path):
        campaign = submit_campaign(make_spec(), tmp_path / "camp", shards=3)
        root = campaign.root
        assert (root / "spec.json").exists()
        assert (root / "plan.json").exists()
        assert (root / "shards").is_dir()
        assert (root / "leases").is_dir()
        assert (root / "snapshots").is_dir()
        assert len(campaign.shards) == 3

    def test_resubmit_same_spec_is_idempotent(self, tmp_path):
        root = tmp_path / "camp"
        first = submit_campaign(make_spec(), root, shards=3)
        second = submit_campaign(make_spec(), root, shards=3)
        assert second.spec_hash == first.spec_hash
        assert second.shards == first.shards

    def test_different_spec_refused(self, tmp_path):
        root = tmp_path / "camp"
        submit_campaign(make_spec(seed=1), root, shards=2)
        with pytest.raises(ServiceError, match="refusing to overwrite"):
            submit_campaign(make_spec(seed=2), root, shards=2)

    def test_different_shard_count_refused(self, tmp_path):
        root = tmp_path / "camp"
        submit_campaign(make_spec(), root, shards=2)
        with pytest.raises(ServiceError, match="shards"):
            submit_campaign(make_spec(), root, shards=3)


class TestLoad:
    def test_round_trip(self, tmp_path):
        submitted = submit_campaign(make_spec(), tmp_path / "camp", shards=3)
        loaded = load_campaign(tmp_path / "camp")
        assert loaded.spec_hash == submitted.spec_hash
        assert loaded.shards == submitted.shards
        assert loaded.spec.content_hash() == submitted.spec_hash

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="not a campaign directory"):
            load_campaign(tmp_path / "nope")

    def test_edited_spec_rejected(self, tmp_path):
        root = tmp_path / "camp"
        submit_campaign(make_spec(), root, shards=2)
        payload = json.loads((root / "spec.json").read_text())
        payload["spec"]["devices"] = 99
        (root / "spec.json").write_text(json.dumps(payload))
        with pytest.raises(ServiceError, match="hash"):
            load_campaign(root)

    def test_fingerprint_names_campaign_and_device(self, tmp_path):
        campaign = submit_campaign(make_spec(), tmp_path / "camp", shards=2)
        fingerprint = campaign.device_fingerprint(3)
        assert fingerprint == f"{campaign.spec_hash}/device-3"


def screened_files(root) -> dict[str, object]:
    """Valid ``spec.json``/``plan.json``/``screen.json`` payloads.

    The screen plan escalates every device, so the full-fleet shard plan
    tiles its escalated subset and no surrogate run is needed.
    """
    campaign = submit_campaign(make_spec(), root, shards=3)
    screen = ScreenPlan(
        spec_hash=campaign.spec_hash,
        constraints=ScreenConstraints(fit_limit=1.0),
        decisions=tuple(
            ScreenDecision(index=device.index, lot=device.lot, classification="uncertain")
            for device in map(campaign.spec.device_spec, range(campaign.spec.devices))
        ),
    )
    (root / "screen.json").write_text(json.dumps(screen.to_dict()))
    return {
        name: json.loads((root / name).read_text())
        for name in ("spec.json", "plan.json", "screen.json")
    }


def _paths(value, prefix=()):
    yield prefix
    children = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


class TestMalformedJournal:
    def test_record_missing_a_field_raises_checkpoint_error(self, tmp_path):
        campaign = submit_campaign(make_spec(), tmp_path / "camp", shards=2)
        shard = campaign.shards[0]
        path = campaign.journal_path(shard)
        open_journal(path, campaign.spec_hash, campaign.spec.name)
        with open(path, "a") as handle:
            record = {"kind": "device", "index": shard.start, "lot": "a"}
            handle.write(json.dumps(record) + "\n")
        message = re.escape(
            f"{path} device {shard.start} is malformed: field seed: is required"
        )
        with pytest.raises(CheckpointError, match=message):
            campaign.shard_records(shard)
        with pytest.raises(CheckpointError, match=message):
            campaign_status(campaign.root)


class TestMalformedMetadata:
    @pytest.mark.parametrize(
        "name, edit",
        [
            ("spec.json", lambda payload: {}),
            ("spec.json", lambda payload: []),
            ("spec.json", lambda payload: {**payload, "spec": []}),
            ("plan.json", lambda payload: []),
            ("plan.json", lambda payload: {**payload, "shards": [[]]}),
            ("screen.json", lambda payload: []),
            ("screen.json", lambda payload: {**payload, "constraints": []}),
            ("screen.json", lambda payload: {**payload, "decisions": [1]}),
        ],
        ids=[
            "spec-empty", "spec-array", "spec-array-spec", "plan-array",
            "plan-array-shard", "screen-array", "screen-array-constraints",
            "screen-scalar-decision",
        ],
    )
    def test_malformed_file_raises_service_error(self, tmp_path, name, edit):
        root = tmp_path / "camp"
        files = screened_files(root)
        (root / name).write_text(json.dumps(edit(files[name])))
        with pytest.raises(ServiceError, match="corrupt campaign metadata"):
            load_campaign(root)

    def test_screened_campaign_loads(self, tmp_path):
        screened_files(tmp_path / "camp")
        assert load_campaign(tmp_path / "camp").screen is not None

    @settings(max_examples=200)
    @given(data=st.data())
    def test_any_edit_loads_or_raises_service_error(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("camp")
        files = screened_files(root)
        name = data.draw(st.sampled_from(sorted(files)))
        path = data.draw(st.sampled_from(list(_paths(files[name]))))
        value = data.draw(JSON_VALUES)
        edited = value
        if path:
            edited = copy.deepcopy(files[name])
            node = edited
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        (root / name).write_text(json.dumps(edited))
        try:
            load_campaign(root)
        except ServiceError:
            pass
