"""Command-line interface smoke and content tests."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

FAST = ["--lines", "512", "--horizon-days", "1"]

ROOT = Path(__file__).resolve().parents[1]

GLOBAL_DEFAULTS = {
    "seed": 2012, "lines": 8192, "horizon_days": 14.0, "temperature": 300.0,
    "jobs": None, "no_fast_forward": False, "engine": "scalar",
}
SCREEN_DEFAULTS = {
    "screen": False, "fit_limit": None, "availability_limit": None,
    "screen_confidence": 0.95, "availability_margin": 0.02,
}

#: Each subcommand, its required arguments, and every other field it
#: parses to when given nothing else.
SUBCOMMAND_DEFAULTS = [
    ("drift-curve", [], {"points": 9}),
    ("compare", [], {"interval": 3600.0, "strength": 4, "workload": "idle",
                     "write_rate": 100.0, "compensated": False}),
    ("headline", [], {"interval": 3600.0, "timeseries": None, "profile": False}),
    ("sweep", [], {"policy": "basic", "strength": 4,
                   "intervals": [900.0, 1800.0, 3600.0, 7200.0],
                   "timeseries": None, "profile": False}),
    ("trace", [], {"interval": 3600.0, "policy": "combined", "strength": 4,
                   "workload": "idle", "write_rate": 100.0, "samples": 64,
                   "out": "obs-out"}),
    ("provision", [], {"budget": [1e-3, 1e-4, 1e-5], "lines_per_bank": 1 << 22,
                       "strengths": [1, 2, 4, 8]}),
    ("lifetime", [], {"interval": 3600.0, "demand_writes_per_hour": 1.0,
                      "endurance": 1e8}),
    ("export", ["out.csv"], {"interval": 3600.0, "strength": 4,
                             "output": "out.csv"}),
    ("verify", [], {"quick": False, "json": None}),
    ("fleet", ["spec.json"], {"spec": "spec.json", "checkpoint": None,
                              "resume": False, "stop_after": None,
                              "until": None, "json": None, **SCREEN_DEFAULTS}),
    ("submit", ["spec.json", "camp"], {"spec": "spec.json", "root": "camp",
                                       "shards": None, **SCREEN_DEFAULTS}),
    ("serve", ["camp"], {"root": "camp", "workers": 2, "max_restarts": 3,
                         "lease_timeout": 30.0, "snapshot_budget": 256,
                         "json": None}),
    ("status", ["camp"], {"root": "camp", "lease_timeout": 30.0, "json": None}),
    ("watch", ["camp"], {"root": "camp", "interval": 1.0, "timeout": None,
                         "lease_timeout": 30.0}),
    ("repair", ["camp"], {"root": "camp", "lease_timeout": 30.0}),
    ("provision-fleet", ["spec.json"], {
        "spec": "spec.json", "policies": ["threshold"],
        "intervals": [1800.0, 3600.0, 7200.0], "strengths": [2, 4],
        "thresholds": None, "with_detector": False, "fit_limit": None,
        "confidence": 0.95, "exhaustive": False, "dollars_per_gib": 4.0,
        "carbon_intensity": 0.4, "embodied_carbon": 0.03,
        "amortization_years": 5.0, "json": None, "frontier_csv": None,
        "assignments": None,
    }),
]


def documented_command_lines() -> list[str]:
    """Every ``pcm-scrub`` line in a fenced block of the README and docs.

    Continuations are joined and comments dropped; a line holding
    ``...`` elides arguments and is skipped.
    """
    lines = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        fenced, command = False, ""
        for line in path.read_text().splitlines():
            if line.lstrip().startswith("```"):
                fenced, command = not fenced, ""
                continue
            if not fenced:
                continue
            command += line.split("#", 1)[0]
            if command.endswith("\\"):
                command = command[:-1]
                continue
            command, text = "", command.strip()
            if text.startswith("pcm-scrub ") and "..." not in text:
                lines.append(text)
    return lines


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        assert sorted(COMMANDS) == sorted(
            command for command, _, _ in SUBCOMMAND_DEFAULTS
        )
        for command, required, fields in SUBCOMMAND_DEFAULTS:
            args = build_parser().parse_args([command, *required])
            assert vars(args) == {
                **GLOBAL_DEFAULTS, "command": command, **fields
            }, command

    @pytest.mark.parametrize("line", documented_command_lines())
    def test_documented_command_line_parses(self, line):
        build_parser().parse_args(shlex.split(line)[1:])


class TestCommands:
    def test_drift_curve(self, capsys):
        assert main(["drift-curve", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "L0" in out and "L3" in out
        assert out.count("\n") >= 7

    def test_compare(self, capsys):
        assert main([*FAST, "compare", "--interval", "3600"]) == 0
        out = capsys.readouterr().out
        assert "basic(secded)" in out
        assert "combined" in out

    def test_compare_with_workload(self, capsys):
        assert (
            main([*FAST, "compare", "--workload", "zipf", "--write-rate", "50"]) == 0
        )
        assert "Mechanism comparison" in capsys.readouterr().out

    def test_headline(self, capsys):
        assert main([*FAST, "headline"]) == 0
        out = capsys.readouterr().out
        assert "96.5%" in out  # the paper targets are printed alongside
        assert "24.4x" in out
        assert "37.8%" in out

    def test_sweep(self, capsys):
        assert (
            main([*FAST, "sweep", "--policy", "threshold", "--intervals", "3600", "7200"])
            == 0
        )
        out = capsys.readouterr().out
        assert "1h" in out and "2h" in out

    def test_provision(self, capsys):
        assert main(["provision", "--budget", "1e-4", "--strengths", "1", "8"]) == 0
        out = capsys.readouterr().out
        assert "bch1" in out and "bch8" in out
        assert "affordable interval" in out

    def test_lifetime(self, capsys):
        assert main(["lifetime", "--demand-writes-per-hour", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "years to wear-out" in out
        assert "bch8 theta=6" in out

    def test_compare_compensated(self, capsys):
        assert main([*FAST, "compare", "--compensated"]) == 0
        assert "Mechanism comparison" in capsys.readouterr().out

    def test_export_csv(self, capsys, tmp_path):
        out = tmp_path / "runs.csv"
        assert main([*FAST, "export", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("policy,")
        assert "combined" in text
        assert "wrote 5 runs" in capsys.readouterr().out

    def test_seed_changes_output(self, capsys):
        main([*FAST, "compare"])
        first = capsys.readouterr().out
        main([*FAST, "--seed", "77", "compare"])
        second = capsys.readouterr().out
        assert first != second


class TestObservability:
    def test_trace_writes_artifacts(self, capsys, tmp_path):
        import json

        out = tmp_path / "obs"
        assert (
            main([*FAST, "trace", "--policy", "adaptive", "--samples", "4",
                  "--out", str(out)])
            == 0
        )
        printed = capsys.readouterr().out
        assert "Telemetry for" in printed
        assert "Wall-time profile" in printed
        events = [
            json.loads(line)
            for line in (out / "trace.jsonl").read_text().splitlines()
        ]
        assert events and all("event" in e and "t" in e for e in events)
        series = json.loads((out / "timeseries.json").read_text())
        # N-1 grid samples plus the final one exactly at the horizon.
        assert len(series["samples"]) == 4

    def test_sweep_timeseries_and_profile(self, capsys, tmp_path):
        import json

        path = tmp_path / "ts.json"
        assert (
            main([*FAST, "sweep", "--policy", "basic",
                  "--intervals", "3600", "7200",
                  "--timeseries", str(path), "--profile"])
            == 0
        )
        printed = capsys.readouterr().out
        assert "wrote time series" in printed
        assert "profile" in printed.lower()
        blob = json.loads(path.read_text())
        assert len(blob["runs"]) == 2
        assert "merged" in blob

    def test_timeseries_creates_its_directory(self, capsys, tmp_path):
        path = tmp_path / "new" / "ts.json"
        assert main(["--lines", "1024", "--horizon-days", "1", "sweep",
                     "--intervals", "3600", "--timeseries", str(path)]) == 0
        assert f"to {path}" in capsys.readouterr().out
        assert len(json.loads(path.read_text())["runs"]) == 1

    def test_reduction_cell_degrades_to_na(self):
        from repro.cli import _reduction_cell

        def boom() -> float:
            raise ZeroDivisionError("baseline saw no uncorrectable errors")

        cell = _reduction_cell(boom, "96.5%")
        assert cell.startswith("n/a")
        assert "96.5%" in cell
        assert _reduction_cell(lambda: 0.5, "96.5%") == "50.0% reduction (paper: 96.5%)"


class TestBadGlobalFlags:
    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--horizon-days", "nan"], "horizon"),
            (["--horizon-days", "inf"], "horizon"),
            (["--temperature", "nan"], "temperature_k"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--intervals", "3600"],
            ["trace", "--samples", "4"],
            ["drift-curve"],
            ["lifetime"],
        ],
    )
    def test_non_finite_flag_exits_naming_it(self, flags, field, command, tmp_path):
        out = ["--out", str(tmp_path)] if command[0] == "trace" else []
        with pytest.raises(SystemExit) as exit_info:
            main(["--lines", "512", *flags, *command, *out])
        assert str(exit_info.value).startswith(f"pcm-scrub: {field}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--temperature", "0", "drift-curve"],
             "temperature_k must be positive and finite kelvin, got 0.0"),
            (["drift-curve", "--points", "-2"], "--points must be >= 1, got -2"),
        ],
        ids=["temperature", "points"],
    )
    def test_drift_curve_bad_flag_exits_naming_it(self, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert str(exit_info.value) == f"pcm-scrub: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lifetime", "--interval", "nan"],
             "--interval must be positive and finite seconds, got nan"),
            (["lifetime", "--interval", "-5"],
             "--interval must be positive and finite seconds, got -5.0"),
            (["lifetime", "--demand-writes-per-hour", "nan"],
             "--demand-writes-per-hour must be non-negative and finite, got nan"),
            (["lifetime", "--demand-writes-per-hour", "-1"],
             "--demand-writes-per-hour must be non-negative and finite, got -1.0"),
            (["lifetime", "--endurance", "0"],
             "--endurance must be positive and finite, got 0.0"),
            (["lifetime", "--endurance", "nan"],
             "--endurance must be positive and finite, got nan"),
            (["--temperature", "nan", "lifetime"],
             "temperature_k must be positive and finite kelvin, got nan"),
            (["--temperature", "0", "lifetime"],
             "temperature_k must be positive and finite kelvin, got 0.0"),
            (["compare", "--interval", "nan"],
             "--interval must be positive and finite seconds, got nan"),
            (["compare", "--interval", "-1"],
             "--interval must be positive and finite seconds, got -1.0"),
            (["headline", "--interval", "nan"],
             "--interval must be positive and finite seconds, got nan"),
            (["export", "--interval", "nan", "out.csv"],
             "--interval must be positive and finite seconds, got nan"),
            (["sweep", "--intervals", "3600", "inf"],
             "--intervals must be positive and finite seconds, got inf"),
            (["trace", "--interval", "-1"],
             "--interval must be positive and finite seconds, got -1.0"),
            # A subcommand flag is checked as it is parsed, before the
            # global flags build the run.
            (["--temperature", "nan", "lifetime", "--endurance", "0"],
             "--endurance must be positive and finite, got 0.0"),
        ],
    )
    def test_bad_scrub_flag_exits_naming_it(self, argv, message, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)  # export/trace would write here
        with pytest.raises(SystemExit) as exit_info:
            main(["--lines", "512", *argv])
        assert str(exit_info.value) == f"pcm-scrub: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["watch", "camp", "--interval", "-1"],
             "--interval must be positive and finite seconds, got -1.0"),
            (["watch", "camp", "--interval", "0"],
             "--interval must be positive and finite seconds, got 0.0"),
            (["watch", "camp", "--interval", "nan"],
             "--interval must be positive and finite seconds, got nan"),
            (["watch", "camp", "--timeout", "nan"],
             "--timeout must be non-negative and finite seconds, got nan"),
            (["watch", "camp", "--timeout", "-1"],
             "--timeout must be non-negative and finite seconds, got -1.0"),
            (["watch", "camp", "--lease-timeout", "inf"],
             "--lease-timeout must be non-negative and finite seconds, got inf"),
            (["serve", "camp", "--lease-timeout", "nan"],
             "--lease-timeout must be non-negative and finite seconds, got nan"),
            (["status", "camp", "--lease-timeout", "-1"],
             "--lease-timeout must be non-negative and finite seconds, got -1.0"),
            (["repair", "camp", "--lease-timeout", "nan"],
             "--lease-timeout must be non-negative and finite seconds, got nan"),
        ],
        ids=[
            "watch-interval-negative", "watch-interval-zero", "watch-interval-nan",
            "watch-timeout-nan", "watch-timeout-negative", "watch-lease-inf",
            "serve-lease-nan", "status-lease-negative", "repair-lease-nan",
        ],
    )
    def test_bad_service_time_flag_exits_naming_it(self, argv, message, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)  # no campaign directory is read or made
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert str(exit_info.value) == f"pcm-scrub: {message}"
        assert not (tmp_path / "camp").exists()

    def test_non_finite_interval_raises(self):
        with pytest.raises(SystemExit) as exit_info:
            main([*FAST, "--jobs", "1", "sweep", "--intervals", "nan"])
        assert str(exit_info.value) == (
            "pcm-scrub: --intervals must be positive and finite seconds, got nan"
        )



TINY_FLEET = {
    "version": 1,
    "name": "cli-errors",
    "devices": 2,
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
    "lots": [{"name": "a", "weight": 1}],
}


class TestUserErrors:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        """A spec, a different spec, a journal and a submitted campaign."""
        from repro.fleet import FleetSpec
        from repro.service import submit_campaign

        (tmp_path / "spec.json").write_text(json.dumps(TINY_FLEET))
        (tmp_path / "other.json").write_text(
            json.dumps({**TINY_FLEET, "name": "other"})
        )
        (tmp_path / "journal.jsonl").write_text("")
        submit_campaign(
            FleetSpec.from_file(tmp_path / "spec.json"), tmp_path / "camp",
            shards=1,
        )
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["status", "missing"], "missing is not a campaign directory"),
            (["watch", "missing"], "missing is not a campaign directory"),
            (["repair", "missing"], "missing is not a campaign directory"),
            (["serve", "missing"], "missing is not a campaign directory"),
            (["submit", "other.json", "camp"], "camp already holds campaign"),
            (["fleet", "spec.json", "--checkpoint", "journal.jsonl"],
             "checkpoint journal.jsonl already exists; resume it or remove "
             "it to restart"),
            (["fleet", "spec.json", "--resume"],
             "--resume requires --checkpoint"),
            (["fleet", "spec.json", "--stop-after", "0"],
             "--stop-after must be >= 1, got 0"),
            (["fleet", "spec.json", "--until", "0"],
             "--until must be >= 1, got 0"),
            (["submit", "spec.json", "new", "--shards", "0"],
             "--shards must be >= 1, got 0"),
            (["sweep", "--policy", "threshold", "--strength", "0"],
             "--strength must be >= 1, got 0"),
            (["trace", "--samples", "0"], "--samples must be >= 1, got 0"),
            (["serve", "camp", "--snapshot-budget", "0"],
             "--snapshot-budget must be >= 1, got 0"),
            (["provision-fleet", "spec.json", "--fit-limit", "1e-6",
              "--assignments", "assignments.json"],
             "provision search 'cli-errors' found no feasible candidate"),
            (["export", "out.txt"],
             "output must be a path ending in .csv or .jsonl, got 'out.txt'"),
            (["provision", "--strengths", "0"], "--strengths must be >= 1, got 0"),
            (["provision", "--lines-per-bank", "0"],
             "--lines-per-bank must be >= 1, got 0"),
            (["provision", "--budget", "0"], "--budget must be in (0, 1], got 0.0"),
            (["provision", "--budget", "1e-4", "2"],
             "--budget must be in (0, 1], got 2.0"),
            # Output paths under a regular file fail before any work.
            (["fleet", "spec.json", "--json", "journal.jsonl/r.json"],
             "--json must be a file path whose parents are directories, "
             "got 'journal.jsonl/r.json'"),
            (["fleet", "spec.json", "--checkpoint", "journal.jsonl/j.jsonl"],
             "--checkpoint must be a file path whose parents are "
             "directories, got 'journal.jsonl/j.jsonl'"),
            (["sweep", "--timeseries", "journal.jsonl/ts.json"],
             "--timeseries must be a file path whose parents are "
             "directories, got 'journal.jsonl/ts.json'"),
            (["trace", "--out", "journal.jsonl/x"],
             "--out must be a directory path whose parents are "
             "directories, got 'journal.jsonl/x'"),
            (["status", "camp", "--json", "camp"],
             "--json must be a file path whose parents are directories, "
             "got 'camp'"),
        ],
        ids=[
            "status-missing", "watch-missing", "repair-missing",
            "serve-missing", "submit-other-spec", "checkpoint-exists",
            "resume-without-checkpoint", "stop-after-zero", "until-zero",
            "shards-zero", "strength-zero", "samples-zero",
            "snapshot-budget-zero", "no-feasible-assignment",
            "export-suffix", "strengths-zero", "lines-per-bank-zero",
            "budget-zero", "budget-above-one", "json-under-file",
            "checkpoint-under-file", "timeseries-under-file",
            "trace-out-under-file", "json-is-directory",
        ],
    )
    def test_exits_as_one_pcm_scrub_line(self, argv, message, workdir):
        with pytest.raises(SystemExit) as exit_info:
            main(["--jobs", "1", *argv])
        assert str(exit_info.value).startswith(f"pcm-scrub: {message}")
        # No command reached a worker: the submitted campaign is untouched.
        assert not list((workdir / "camp" / "shards").iterdir())

    def test_import_loads_no_boundary_module(self, tmp_path):
        # A fresh interpreter: this one has loaded them all.
        script = (
            "import sys, repro.cli; "
            "print(sorted(name for name in sys.modules "
            "if name.split('.')[:2] in (['repro', 'fields'], ['repro', 'fleet'], "
            "['repro', 'screen'], ['repro', 'provision'], ['repro', 'service'])))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        ))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, cwd=tmp_path, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
