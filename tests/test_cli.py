"""Command-line interface smoke and content tests."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

FAST = ["--lines", "512", "--horizon-days", "1"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.seed == 2012
        assert args.workload == "idle"


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

