"""The ``--screen`` CLI flags on ``pcm-scrub fleet`` and ``submit``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fleet import FleetSpec
from repro.fleet.report import FIT_HOURS

from .conftest import COUNT_BUDGET, make_spec


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(make_spec().to_dict()))
    return path


@pytest.fixture
def fit_limit():
    spec = make_spec()
    horizon_hours = spec.base_config.horizon / 3600.0
    return COUNT_BUDGET * FIT_HOURS * spec.capacity_scale / horizon_hours


class TestFleetScreen:
    def test_screened_tables_and_json(self, spec_path, fit_limit, tmp_path, capsys):
        report_path = tmp_path / "screened.json"
        assert main([
            "fleet", str(spec_path), "--screen",
            "--fit-limit", str(fit_limit), "--json", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Screen plan" in out
        assert "Screened fleet reliability" in out
        assert "fewer MC device-runs" in out
        payload = json.loads(report_path.read_text())
        assert payload["devices"] == 8
        assert payload["mc_devices"] == 2
        assert payload["classifications"] == {
            "pass": 5, "fail": 1, "uncertain": 2,
        }
        assert len(payload["provenance"]) == 8

    def test_screen_without_limits_errors(self, spec_path):
        with pytest.raises(SystemExit, match="at least one"):
            main(["fleet", str(spec_path), "--screen"])

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--fit-limit", "nan"], "fit_limit"),
            (["--fit-limit", "inf"], "fit_limit"),
            (["--availability-limit", "0.9", "--availability-margin", "nan"],
             "availability_margin"),
        ],
    )
    def test_non_finite_limits_rejected_naming_the_field(
        self, spec_path, flags, field
    ):
        with pytest.raises(SystemExit, match=f"pcm-scrub: {field} must be finite"):
            main(["fleet", str(spec_path), "--screen", *flags])

    def test_limits_without_screen_flag_error(self, spec_path, fit_limit):
        with pytest.raises(SystemExit, match="require --screen"):
            main(["fleet", str(spec_path), "--fit-limit", str(fit_limit)])

    def test_until_is_incompatible(self, spec_path, fit_limit):
        with pytest.raises(SystemExit, match="--until"):
            main([
                "fleet", str(spec_path), "--screen",
                "--fit-limit", str(fit_limit), "--until", "2",
            ])


class TestSubmitScreen:
    def test_submit_and_status_report_screen_plan(
        self, spec_path, fit_limit, tmp_path, capsys
    ):
        root = tmp_path / "camp"
        assert main([
            "submit", str(spec_path), str(root), "--shards", "2",
            "--screen", "--fit-limit", str(fit_limit),
        ]) == 0
        out = capsys.readouterr().out
        assert "Screen plan" in out
        assert (root / "screen.json").exists()

        assert main(["status", str(root)]) == 0
        out = capsys.readouterr().out
        assert "screened campaign" in out
        assert "escalated to MC" in out
