"""The ``pcm-scrub provision-fleet`` command."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fleet import FleetSpec
from repro.provision import ProvisionReport

from .conftest import make_spec


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(make_spec().to_dict()))
    return path


GRID = ["--intervals", "1800", "7200", "--strengths", "2", "4"]


class TestProvisionFleet:
    def test_tables_and_artifacts(self, spec_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "frontier.csv"
        assignments_path = tmp_path / "assignments.json"
        assert main([
            "provision-fleet", str(spec_path), *GRID,
            "--json", str(report_path),
            "--frontier-csv", str(csv_path),
            "--assignments", str(assignments_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Provisioning search" in out
        assert "Pareto frontier" in out
        assert "* = recommended" in out

        payload = json.loads(report_path.read_text())
        report = ProvisionReport.from_dict(payload)
        assert report.frontier_size >= 1
        assert set(report.recommended) == {"cool", "hot"}

        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + report.frontier_size

        # The assignments file is an ordinary, loadable fleet spec with
        # per-lot overrides matching the report's recommendations.
        assignments = FleetSpec.from_file(assignments_path)
        assert assignments.has_lot_policies
        for lot in assignments.lots:
            recommended = report.lot(lot.name).recommended_evaluation
            policy, kwargs = assignments.policy_for(lot)
            assert policy == recommended.candidate.policy
            assert kwargs == recommended.candidate.policy_kwargs()

    def test_exhaustive_flag_and_explicit_thresholds(self, spec_path, capsys):
        assert main([
            "provision-fleet", str(spec_path),
            "--intervals", "7200", "--strengths", "4",
            "--thresholds", "3", "--exhaustive",
        ]) == 0
        out = capsys.readouterr().out
        assert "(exhaustive MC)" in out
        assert "theta3" in out

    def test_fit_limit_reports_infeasible_lots(self, spec_path, capsys):
        assert main([
            "provision-fleet", str(spec_path), *GRID,
            "--fit-limit", "1e-6",
        ]) == 0
        out = capsys.readouterr().out
        assert "no feasible candidate" in out

    def test_bad_policy_rejected(self, spec_path):
        with pytest.raises(SystemExit, match="pcm-scrub: unknown policy"):
            main(["provision-fleet", str(spec_path), "--policies", "nope"])

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--fit-limit", "nan"], "fit_limit"),
            (["--fit-limit", "inf"], "fit_limit"),
            (["--intervals", "nan"], "interval"),
            (["--confidence", "nan"], "confidence"),
            (["--dollars-per-gib", "nan"], "dollars_per_gib"),
            (["--amortization-years", "inf"], "amortization_years"),
        ],
    )
    def test_non_finite_flags_rejected_naming_the_field(
        self, spec_path, flags, field
    ):
        with pytest.raises(SystemExit, match=f"pcm-scrub: .*{field}"):
            main(["provision-fleet", str(spec_path), *flags])
