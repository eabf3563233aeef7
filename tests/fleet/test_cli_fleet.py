"""The ``pcm-scrub fleet`` subcommand: tables, JSON output, resume flow."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fleet import FleetSpec


@pytest.fixture
def spec_path(tmp_path):
    spec = {
        "version": 1,
        "name": "cli-fleet",
        "devices": 4,
        "policy": "threshold",
        "policy_kwargs": {"interval": 14400.0, "strength": 3, "threshold": 1},
        "capacity_gib_per_device": 16.0,
        "config": {
            "num_lines": 256,
            "region_size": 256,
            "horizon_days": 1.0,
            "seed": 2012,
            "endurance": None,
        },
        "lots": [
            {"name": "a", "weight": 1},
            {
                "name": "b",
                "weight": 1,
                "nu_sigma_scale": {"mean": 1.2, "spread": 0.05, "low": 0.0},
            },
        ],
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(spec))
    return path


class TestFleetCommand:
    def test_report_tables(self, spec_path, capsys):
        assert main(["fleet", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "Fleet campaign 'cli-fleet'" in out
        assert "Fleet reliability" in out
        assert "Per-lot breakdown" in out
        assert "uncorrectable errors" in out
        assert "availability" in out

    def test_json_output(self, spec_path, tmp_path, capsys):
        report_path = tmp_path / "out" / "report.json"
        assert main(["fleet", str(spec_path), "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["name"] == "cli-fleet"
        assert payload["devices"] == 4
        assert "fit" in payload and "availability" in payload
        assert len(payload["lots"]) == 2

    def test_checkpoint_stop_and_resume_round_trip(
        self, spec_path, tmp_path, capsys
    ):
        journal = tmp_path / "campaign.jsonl"
        straight_json = tmp_path / "straight.json"
        resumed_json = tmp_path / "resumed.json"

        assert main(["fleet", str(spec_path), "--json", str(straight_json)]) == 0

        assert (
            main([
                "fleet", str(spec_path), "--checkpoint", str(journal),
                "--stop-after", "2",
            ])
            == 0
        )
        assert "resume" in capsys.readouterr().out

        assert (
            main([
                "fleet", str(spec_path), "--checkpoint", str(journal),
                "--resume", "--json", str(resumed_json),
            ])
            == 0
        )
        assert json.loads(straight_json.read_text()) == json.loads(
            resumed_json.read_text()
        )

    def test_spec_parses_cleanly(self, spec_path):
        spec = FleetSpec.from_file(spec_path)
        assert spec.devices == 4
        assert [lot.name for lot in spec.lots] == ["a", "b"]

    def test_bad_spec_path_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        with pytest.raises((SystemExit, FileNotFoundError, ValueError)):
            main(["fleet", str(missing)])

    @pytest.mark.parametrize(
        "command",
        [["fleet"], ["submit", "{root}"], ["provision-fleet"]],
    )
    def test_malformed_spec_exits_naming_the_field(
        self, spec_path, tmp_path, command
    ):
        spec = json.loads(spec_path.read_text())
        spec["devices"] = 2.7
        spec_path.write_text(json.dumps(spec))
        name, *rest = command
        rest = [arg.format(root=tmp_path / "campaign") for arg in rest]
        with pytest.raises(SystemExit) as exit_info:
            main([name, str(spec_path), *rest])
        assert str(exit_info.value).startswith("pcm-scrub: fleet spec field devices")

    @pytest.mark.parametrize(
        "command",
        [["fleet"], ["submit", "{root}"], ["provision-fleet"]],
    )
    def test_unbuildable_policy_kwargs_exit_naming_the_field(
        self, spec_path, tmp_path, command
    ):
        spec = json.loads(spec_path.read_text())
        spec["policy_kwargs"]["strenght"] = 4
        spec_path.write_text(json.dumps(spec))
        name, *rest = command
        rest = [arg.format(root=tmp_path / "campaign") for arg in rest]
        with pytest.raises(SystemExit) as exit_info:
            main([name, str(spec_path), *rest])
        assert str(exit_info.value) == (
            "pcm-scrub: fleet spec field policy_kwargs: threshold_scrub() got "
            "an unexpected keyword argument 'strenght'"
        )
        assert not (tmp_path / "campaign").exists()

