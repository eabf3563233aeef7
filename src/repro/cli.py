"""Command-line experiment driver.

Installed as ``pcm-scrub``; also runnable as ``python -m repro``.

Subcommands::

    pcm-scrub drift-curve                 # per-level error probability vs time
    pcm-scrub compare --interval 3600     # all mechanisms head-to-head
    pcm-scrub headline                    # the abstract's three numbers
    pcm-scrub sweep --policy basic ...    # UE/writes/energy vs interval
    pcm-scrub trace --policy combined ... # full-telemetry run -> trace.jsonl
    pcm-scrub verify --quick              # invariants + metamorphic + models
    pcm-scrub fleet campaign.json         # datacenter campaign -> FIT report

Every command prints a deterministic fixed-width table; the global flags
``--seed``, ``--lines``, ``--horizon-days`` (given before the subcommand)
control the Monte-Carlo configuration.  ``sweep`` and ``headline`` accept
``--timeseries``/``--profile`` to collect telemetry (see :mod:`repro.obs`)
without changing any simulated result.  A bad flag, spec, checkpoint or
campaign directory exits with status 1 and one ``pcm-scrub: …`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import units
from .analysis.export import EXPORT_SUFFIXES, write_results, write_timeseries
from .analysis.tables import format_series, format_table
from .core import (
    adaptive_scrub,
    basic_scrub,
    combined_scrub,
    light_scrub,
    strong_ecc_scrub,
    threshold_scrub,
)
from .analysis.sweeps import provision_grid, sweep_policies
from .durable import atomic_write
from .obs import ObsConfig, merge_profiles, write_trace
from .params import CellSpec
from .pcm.drift import DriftModel
from .sim import RunSpec, SimulationConfig, default_jobs, run_experiment, run_many
from .sim.parallel import POLICY_FACTORIES, parallel_map
from .workloads import uniform_rates, zipf_rates

#: Time-series samples taken over the horizon when ``--timeseries`` or the
#: ``trace`` subcommand's default sampling is in effect.
DEFAULT_SAMPLES = 64


def _screen_constraints(args: argparse.Namespace):
    """Build ScreenConstraints from CLI flags, or None when not screening."""
    if not args.screen:
        if args.fit_limit is not None or args.availability_limit is not None:
            raise SystemExit(
                "pcm-scrub: --fit-limit/--availability-limit require --screen"
            )
        return None
    from .screen import ScreenConstraints

    return ScreenConstraints(
        fit_limit=args.fit_limit,
        min_availability=args.availability_limit,
        confidence=args.screen_confidence,
        availability_margin=args.availability_margin,
    )


def _fleet_spec(path: str):
    """Load a fleet spec file; a missing or malformed one exits as ``pcm-scrub: …``."""
    from .fleet import FleetSpec

    try:
        return FleetSpec.from_file(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"pcm-scrub: {error}") from None


def _checked(kind, flag: str, need: str, ok):
    """An argparse ``type``: ``kind(text)``, exiting as ``pcm-scrub: …`` unless ``ok``.

    Named after ``kind``, so a non-number still reads ``invalid float value``.
    """

    def check(text: str):
        value = kind(text)
        if not ok(value):
            raise SystemExit(f"pcm-scrub: {flag} must be {need}, got {value!r}")
        return value

    check.__name__ = kind.__name__
    return check


def _positive(flag: str, need: str = "positive and finite seconds"):
    return _checked(float, flag, need, lambda value: math.isfinite(value) and value > 0)


def _non_negative(flag: str, need: str = "non-negative and finite seconds"):
    return _checked(float, flag, need, lambda value: math.isfinite(value) and value >= 0)


def _count(flag: str):
    return _checked(int, flag, ">= 1", lambda value: value >= 1)


def _output(flag: str, directory: bool = False):
    """An argparse ``type`` for a file the command writes (or a ``directory``
    it fills) once its work is done.

    The nearest existing ancestor, the path itself included for a
    directory, must be a directory, and a file must not be an existing
    directory; missing parents are created when writing.
    """
    kind = "directory" if directory else "file"

    def creatable(text: str) -> bool:
        path = Path(text)
        if not directory and path.is_dir():
            return False
        first = path if directory else path.parent
        for ancestor in (first, *first.parents):
            if ancestor.exists():
                return ancestor.is_dir()
        return True

    return _checked(
        str, flag, f"a {kind} path whose parents are directories", creatable
    )


def build_parser() -> argparse.ArgumentParser:
    # Flags that several subcommands read, each declared once as a parent
    # parser; a subcommand lists its parents' flags first in --help.
    scrub_interval = argparse.ArgumentParser(add_help=False)
    scrub_interval.add_argument("--interval", type=_positive("--interval"), default=units.HOUR)

    strength = argparse.ArgumentParser(add_help=False)
    strength.add_argument("--strength", type=_count("--strength"), default=4)

    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument(
        "--workload", choices=["idle", "uniform", "zipf"], default="idle"
    )
    workload.add_argument("--write-rate", type=float, default=100.0)

    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--timeseries", type=_output("--timeseries"), metavar="PATH",
        default=None,
        help="sample metrics over simulated time and write them as JSON",
    )
    obs.add_argument(
        "--profile", action="store_true",
        help="collect per-phase wall-time spans and print the profile",
    )

    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument(
        "--json", type=_output("--json"), metavar="PATH", default=None,
        help="also write the full result as JSON",
    )

    fleet_spec = argparse.ArgumentParser(add_help=False)
    fleet_spec.add_argument("spec", help="JSON campaign spec (see docs/fleet.md)")

    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument("root", help="campaign directory from 'submit'")
    campaign.add_argument(
        "--lease-timeout", type=_non_negative("--lease-timeout"), default=30.0,
        metavar="SECONDS",
        help="heartbeat age after which a shard lease is presumed dead",
    )

    screening = argparse.ArgumentParser(add_help=False)
    group = screening.add_argument_group(
        "screening",
        "classify devices through the exact finite-horizon renewal "
        "surrogate and Monte-Carlo only the uncertain ones "
        "(docs/screening.md)",
    )
    group.add_argument(
        "--screen", action="store_true",
        help="enable surrogate screening (requires --fit-limit and/or "
        "--availability-limit)",
    )
    group.add_argument(
        "--fit-limit", type=float, default=None, metavar="FIT",
        help="per-device budget on capacity-scaled FIT",
    )
    group.add_argument(
        "--availability-limit", type=float, default=None, metavar="P",
        help="per-device floor on the probability of a UE-free horizon",
    )
    group.add_argument(
        "--screen-confidence", type=float, default=0.95, metavar="C",
        help="central coverage of the Poisson predictive interval "
        "(default 0.95)",
    )
    group.add_argument(
        "--availability-margin", type=float, default=0.02, metavar="M",
        help="band around --availability-limit that escalates to MC "
        "(default 0.02)",
    )

    parser = argparse.ArgumentParser(
        prog="pcm-scrub",
        description="Drift-aware scrub mechanisms for MLC PCM (HPCA 2012 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--lines", type=int, default=8192, help="Monte-Carlo lines")
    parser.add_argument(
        "--horizon-days", type=float, default=14.0, help="simulated days"
    )
    parser.add_argument(
        "--temperature", type=float, default=300.0, help="kelvin"
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for sweeps, campaigns, and surrogate "
        "screening/provisioning (default: CPU-count aware)",
    )
    parser.add_argument(
        "--no-fast-forward", action="store_true",
        help="run the naive per-visit event loop instead of fast-forwarding "
        "quiescent visits (results are bit-identical either way)",
    )
    parser.add_argument(
        "--engine", choices=("scalar", "batch"), default="scalar",
        help="visit engine: 'scalar' walks one region per event, 'batch' "
        "evaluates whole device rounds of static-interval policies as array "
        "ops (see docs/performance.md for when results are bit-identical)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    drift = sub.add_parser("drift-curve", help="per-level error probability vs time")
    drift.add_argument("--points", type=_count("--points"), default=9)

    compare = sub.add_parser(
        "compare", parents=[scrub_interval, strength, workload],
        help="all mechanisms at one interval",
    )
    compare.add_argument(
        "--compensated", action="store_true",
        help="use drift-compensated (time-aware) read references",
    )

    sub.add_parser(
        "headline", parents=[scrub_interval, obs],
        help="combined vs basic, abstract style",
    )

    sweep = sub.add_parser(
        "sweep", parents=[strength, obs], help="one policy across intervals"
    )
    sweep.add_argument("--policy", choices=sorted(POLICY_FACTORIES), default="basic")
    sweep.add_argument(
        "--intervals",
        type=_positive("--intervals"),
        nargs="+",
        default=[0.25 * units.HOUR, 0.5 * units.HOUR, units.HOUR, 2 * units.HOUR],
    )

    trace = sub.add_parser(
        "trace", parents=[scrub_interval, strength, workload],
        help="run one experiment with full telemetry and write the artifacts",
    )
    trace.add_argument(
        "--policy", choices=sorted(POLICY_FACTORIES), default="combined"
    )
    trace.add_argument(
        "--samples", type=_count("--samples"), default=DEFAULT_SAMPLES,
        help="time-series samples over the horizon",
    )
    trace.add_argument(
        "--out", type=_output("--out", directory=True), default="obs-out",
        help="output directory for trace.jsonl / timeseries.json",
    )

    provision = sub.add_parser(
        "provision",
        help="reliability each ECC strength buys at a bank-time budget",
    )
    provision.add_argument(
        "--budget", nargs="+", default=[1e-3, 1e-4, 1e-5],
        type=_checked(float, "--budget", "in (0, 1]", lambda value: 0 < value <= 1),
        help="bank-time fractions granted to scrub",
    )
    provision.add_argument(
        "--lines-per-bank", type=_count("--lines-per-bank"), default=1 << 22,
        help="bank capacity in 64B lines",
    )
    provision.add_argument(
        "--strengths", type=_count("--strengths"), nargs="+", default=[1, 2, 4, 8]
    )

    lifetime = sub.add_parser(
        "lifetime", parents=[scrub_interval],
        help="projected years to wear-out per scrub configuration",
    )
    lifetime.add_argument(
        "--demand-writes-per-hour", default=1.0,
        type=_non_negative("--demand-writes-per-hour", "non-negative and finite"),
        help="demand writes per line per hour",
    )
    lifetime.add_argument(
        "--endurance", type=_positive("--endurance", "positive and finite"),
        default=1e8, help="mean cell endurance",
    )

    export = sub.add_parser(
        "export", parents=[scrub_interval, strength],
        help="run the mechanism comparison and write CSV/JSONL",
    )
    export.add_argument(
        "output", help="path ending in .csv or .jsonl",
        type=_checked(
            _output("output"), "output", "a path ending in .csv or .jsonl",
            lambda path: Path(path).suffix in EXPORT_SUFFIXES,
        ),
    )

    verify = sub.add_parser(
        "verify", parents=[json_out],
        help="run the verification harness: invariants, metamorphic "
        "properties, model equivalence",
    )
    verify.add_argument(
        "--quick", action="store_true",
        help="reduced grids and populations (CI-sized, ~1 min)",
    )

    fleet = sub.add_parser(
        "fleet", parents=[fleet_spec, json_out, screening],
        help="run a datacenter-scale campaign over a heterogeneous device "
        "fleet (spec file in, FIT/availability report out)",
    )
    fleet.add_argument(
        "--checkpoint", type=_output("--checkpoint"), metavar="PATH",
        default=None,
        help="durable JSONL journal; completed devices survive a kill",
    )
    fleet.add_argument(
        "--resume", action="store_true",
        help="continue an existing checkpoint (validates the spec hash)",
    )
    fleet.add_argument(
        "--stop-after", type=_count("--stop-after"), default=None, metavar="N",
        help="checkpoint and exit after N devices this invocation",
    )
    fleet.add_argument(
        "--until", type=_count("--until"), default=None, metavar="N",
        help="incremental stop: complete devices with index < N, journal "
        "the rest as pending, exit without aggregating",
    )

    submit = sub.add_parser(
        "submit", parents=[fleet_spec, screening],
        help="create a campaign directory for the sharded service "
        "(spec + deterministic shard plan; workers drain it)",
    )
    submit.add_argument("root", help="campaign directory to create")
    submit.add_argument(
        "--shards", type=_count("--shards"), default=None, metavar="N",
        help="shard count (default: CPU-count aware)",
    )

    serve = sub.add_parser(
        "serve", parents=[campaign, json_out],
        help="run a submitted campaign under a supervised worker pool "
        "(crashed workers are repaired and replaced)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker processes"
    )
    serve.add_argument(
        "--max-restarts", type=int, default=3,
        help="replacement workers before giving up",
    )
    serve.add_argument(
        "--snapshot-budget", type=_count("--snapshot-budget"), default=256,
        metavar="EVENTS",
        help="engine events between mid-horizon device snapshots",
    )

    sub.add_parser(
        "status", parents=[campaign, json_out],
        help="one streaming progress snapshot of a campaign directory "
        "(shard states + partial fleet report)",
    )

    watch = sub.add_parser(
        "watch", parents=[campaign],
        help="poll a campaign until it finishes, streaming progress lines",
    )
    watch.add_argument(
        "--interval", type=_positive("--interval"), default=1.0, metavar="SECONDS",
    )
    watch.add_argument(
        "--timeout", type=_non_negative("--timeout"), default=None, metavar="SECONDS",
        help="give up (exit nonzero) after this long",
    )

    sub.add_parser(
        "repair", parents=[campaign],
        help="re-queue dead workers' shards (break stale leases) and "
        "sweep snapshots of already-journaled devices",
    )

    provision_fleet = sub.add_parser(
        "provision-fleet", parents=[fleet_spec, json_out],
        help="search per-lot scrub assignments: candidate grid in, "
        "cost/energy/carbon Pareto frontiers and a recommended per-lot "
        "spec out (see docs/provisioning.md)",
    )
    provision_fleet.add_argument(
        "--policies", nargs="+", default=["threshold"],
        help="candidate scrub policies (POLICY_FACTORIES names)",
    )
    provision_fleet.add_argument(
        "--intervals", type=float, nargs="+",
        default=[1800.0, 3600.0, 7200.0],
        help="candidate scrub intervals, seconds",
    )
    provision_fleet.add_argument(
        "--strengths", type=int, nargs="+", default=[2, 4],
        help="candidate ECC correction strengths t",
    )
    provision_fleet.add_argument(
        "--thresholds", type=int, nargs="+", default=None,
        help="candidate write-back thresholds (default: per-strength auto)",
    )
    provision_fleet.add_argument(
        "--with-detector", action="store_true",
        help="keep the CRC detector on threshold candidates (forces MC)",
    )
    provision_fleet.add_argument(
        "--fit-limit", type=float, default=None, metavar="FIT",
        help="per-device capacity-scaled FIT budget; violating candidates "
        "are infeasible and excluded from the frontier",
    )
    provision_fleet.add_argument(
        "--confidence", type=float, default=0.95,
        help="Poisson predictive interval coverage for the FIT screen",
    )
    provision_fleet.add_argument(
        "--exhaustive", action="store_true",
        help="Monte-Carlo every candidate on every device (ground truth; "
        "the default surrogate-first search is far cheaper)",
    )
    provision_fleet.add_argument(
        "--dollars-per-gib", type=float, default=4.0,
        help="raw array cost, $/GiB of stored bits",
    )
    provision_fleet.add_argument(
        "--carbon-intensity", type=float, default=0.4, metavar="KG_PER_KWH",
        help="grid carbon intensity, kgCO2e/kWh",
    )
    provision_fleet.add_argument(
        "--embodied-carbon", type=float, default=0.03, metavar="KG_PER_GIB",
        help="embodied manufacturing carbon, kgCO2e per raw GiB",
    )
    provision_fleet.add_argument(
        "--amortization-years", type=float, default=5.0,
        help="years the embodied carbon is amortized over",
    )
    provision_fleet.add_argument(
        "--frontier-csv", type=_output("--frontier-csv"), metavar="PATH",
        default=None,
        help="write every frontier point as CSV",
    )
    provision_fleet.add_argument(
        "--assignments", type=_output("--assignments"), metavar="PATH",
        default=None,
        help="write the recommended per-lot fleet spec as JSON "
        "(submittable via 'pcm-scrub fleet' / 'pcm-scrub submit')",
    )
    return parser


def _jobs(args: argparse.Namespace) -> int:
    if args.jobs is None:
        return default_jobs()
    return max(1, args.jobs)


def _obs_config(args: argparse.Namespace, horizon: float) -> ObsConfig:
    """Telemetry selection from CLI flags (everything off by default)."""
    return ObsConfig(
        sample_every=(
            horizon / DEFAULT_SAMPLES
            if getattr(args, "timeseries", None)
            else None
        ),
        profile=getattr(args, "profile", False),
    )


def _config(args: argparse.Namespace) -> SimulationConfig:
    """The run the global flags describe; a bad flag exits as ``pcm-scrub: …``."""
    try:
        config = SimulationConfig(
            num_lines=args.lines,
            region_size=512 if args.lines % 512 == 0 else args.lines,
            horizon=args.horizon_days * units.DAY,
            seed=args.seed,
            temperature_k=args.temperature,
            compensated_sensing=getattr(args, "compensated", False),
            fast_forward=not args.no_fast_forward,
            engine=args.engine,
        )
        return replace(config, obs=_obs_config(args, config.horizon))
    except ValueError as error:
        raise SystemExit(f"pcm-scrub: {error}") from None


def _profile_table(profile: dict[str, dict[str, float]], title: str) -> str:
    rows = [
        [name, entry["calls"], f"{entry['seconds']:.3f}s"]
        for name, entry in profile.items()
    ]
    return format_table(["phase", "calls", "wall time"], rows, title=title)


def _write_output(path: str, text: str, what: str) -> None:
    """Write a ``--json``-style output file atomically and say so."""
    atomic_write(path, text.encode())
    print(f"wrote {what} to {Path(path)}")


def _write_timeseries(path: str, labels: list[str], results: list) -> None:
    write_timeseries(path, labels, results)
    print(f"wrote time series for {len(results)} runs to {path}")


def _policy_kwargs(args: argparse.Namespace, interval: float) -> dict:
    """The ``--policy`` factory's kwargs; ``basic`` takes no ``--strength``."""
    kwargs = {"interval": interval}
    if args.policy != "basic":
        kwargs["strength"] = args.strength
    return kwargs


def _workload(args: argparse.Namespace, num_lines: int):
    if args.workload == "idle":
        return None
    if args.workload == "uniform":
        return uniform_rates(num_lines, args.write_rate)
    return zipf_rates(
        num_lines, args.write_rate, alpha=1.0, rng=np.random.default_rng(args.seed)
    )


def cmd_drift_curve(args: argparse.Namespace) -> int:
    model = DriftModel(CellSpec(), temperature_k=_config(args).temperature_k)
    times = np.logspace(0, 7.5, args.points)
    series = {
        f"L{level}": [model.error_probability(level, t) for t in times]
        for level in range(4)
    }
    print(
        format_series(
            "seconds",
            [units.format_seconds(t) for t in times],
            series,
            title="Per-level drift soft-error probability vs time since write",
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _config(args)
    rates = _workload(args, config.num_lines)
    policies = [
        basic_scrub(args.interval),
        strong_ecc_scrub(args.interval, args.strength),
        light_scrub(args.interval, args.strength),
        threshold_scrub(args.interval, args.strength),
        adaptive_scrub(args.interval, args.strength),
        combined_scrub(args.interval),
    ]
    rows = []
    for result in sweep_policies(policies, config, rates, jobs=_jobs(args)):
        rows.append(
            [
                result.policy_name,
                result.uncorrectable,
                result.scrub_writes,
                units.format_energy(result.scrub_energy),
                f"{result.runtime_seconds:.2f}s",
            ]
        )
    print(
        format_table(
            ["policy", "UE", "scrub writes", "scrub energy", "runtime"],
            rows,
            title=(
                f"Mechanism comparison @ interval {units.format_seconds(args.interval)}, "
                f"{config.num_lines} lines, {units.format_seconds(config.horizon)}"
            ),
        )
    )
    return 0


def _reduction_cell(compute, paper: str) -> str:
    """A '<x>% reduction' cell, or 'n/a' when the baseline count is zero.

    Short horizons (or tiny populations) can leave the baseline with zero
    uncorrectable errors or zero scrub energy; that makes the *ratio*
    undefined, not the run invalid, so the table degrades gracefully.
    """
    try:
        return f"{compute():.1%} reduction (paper: {paper})"
    except ZeroDivisionError:
        return f"n/a - baseline saw none (paper: {paper})"


def cmd_headline(args: argparse.Namespace) -> int:
    config = _config(args)
    base, ours = sweep_policies(
        [basic_scrub(args.interval), combined_scrub(args.interval)],
        config,
        jobs=_jobs(args),
    )
    rows = [
        ["uncorrectable errors", base.uncorrectable, ours.uncorrectable,
         _reduction_cell(lambda: ours.ue_reduction_vs(base), "96.5%")],
        ["scrub writes", base.scrub_writes, ours.scrub_writes,
         f"{ours.write_factor_vs(base):.1f}x fewer (paper: 24.4x)"],
        ["scrub energy", units.format_energy(base.scrub_energy),
         units.format_energy(ours.scrub_energy),
         _reduction_cell(lambda: ours.energy_reduction_vs(base), "37.8%")],
    ]
    print(
        format_table(
            ["metric", "basic", "combined", "comparison"],
            rows,
            title="Headline comparison (abstract of the paper)",
        )
    )
    if args.timeseries:
        _write_timeseries(args.timeseries, ["basic", "combined"], [base, ours])
    if args.profile:
        print(
            _profile_table(
                merge_profiles([base.profile, ours.profile]),
                "Wall-time profile (both runs merged)",
            )
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config(args)
    specs = [
        RunSpec(
            policy=args.policy, config=config,
            policy_kwargs=_policy_kwargs(args, interval),
        )
        for interval in args.intervals
    ]
    results = run_many(specs, jobs=_jobs(args))
    rows = []
    for interval, result in zip(args.intervals, results):
        rows.append(
            [
                units.format_seconds(interval),
                result.uncorrectable,
                result.scrub_writes,
                units.format_energy(result.scrub_energy),
            ]
        )
    print(
        format_table(
            ["interval", "UE", "scrub writes", "scrub energy"],
            rows,
            title=f"Interval sweep for {args.policy}",
        )
    )
    if args.timeseries:
        labels = [units.format_seconds(i) for i in args.intervals]
        _write_timeseries(args.timeseries, labels, results)
    if args.profile:
        print(
            _profile_table(
                merge_profiles([r.profile for r in results]),
                f"Wall-time profile ({len(results)} runs merged)",
            )
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    config = _config(args)
    config = replace(
        config,
        obs=ObsConfig(
            trace=True, sample_every=config.horizon / args.samples, profile=True
        ),
    )
    result = RunSpec(
        policy=args.policy,
        config=config,
        policy_kwargs=_policy_kwargs(args, args.interval),
        rates=_workload(args, config.num_lines),
    ).run()

    out = Path(args.out)
    events = write_trace(result.trace, out / "trace.jsonl")
    result.timeseries.write(out / "timeseries.json")

    print(
        format_table(
            ["artifact", "contents"],
            [
                [str(out / "trace.jsonl"), f"{events} events"],
                [str(out / "timeseries.json"),
                 f"{len(result.timeseries)} samples"],
            ],
            title=(
                f"Telemetry for {result.policy_name} @ "
                f"{units.format_seconds(args.interval)}, "
                f"{config.num_lines} lines, "
                f"{units.format_seconds(config.horizon)}"
            ),
        )
    )
    final = result.timeseries.final
    print(
        format_table(
            ["metric", "value"],
            [
                ["uncorrectable", int(final["uncorrectable"])],
                ["scrub writes", int(final["scrub_writes"])],
                ["scrub energy", units.format_energy(final["scrub_energy_j"])],
                ["stuck cells", int(final["stuck_cells"])],
            ],
            title="Final time-series sample (== end-of-run aggregates)",
        )
    )
    print(_profile_table(result.profile, "Wall-time profile"))
    return 0


def cmd_provision(args: argparse.Namespace) -> int:
    grid = provision_grid(
        args.budget,
        args.strengths,
        args.lines_per_bank,
        temperature_k=args.temperature,
    )
    rows = []
    for budget, strength, interval, failure in grid:
        if interval is None:
            rows.append([f"{budget:.0e}", f"bch{strength}", "infeasible", "-"])
        else:
            rows.append(
                [f"{budget:.0e}", f"bch{strength}",
                 units.format_seconds(interval), f"{failure:.3e}"]
            )
    print(
        format_table(
            ["bank budget", "code", "affordable interval", "P(UE per visit)"],
            rows,
            title=(
                "Reliability a bank-time budget buys "
                f"({args.lines_per_bank} lines/bank @ {args.temperature:.0f}K)"
            ),
        )
    )
    return 0


def _lifetime_task(
    task: tuple[float, int, int, float, float, float],
) -> tuple[int, int, float, float, float]:
    from .params import EnduranceSpec
    from .sim.lifetime import project_lifetime
    from .sim.renewal import RenewalModel
    from .sim.runner import cached_crossing_distribution

    interval, strength, theta, endurance_mean, demand, temperature = task
    renewal = RenewalModel(
        cached_crossing_distribution(CellSpec(), temperature), 256
    )
    report = project_lifetime(
        renewal, interval, strength, theta,
        EnduranceSpec(mean_writes=endurance_mean),
        demand_write_rate=demand,
    )
    return (
        strength,
        theta,
        report.scrub_write_rate,
        report.soft_ue_rate,
        report.years_to_wearout,
    )


def cmd_lifetime(args: argparse.Namespace) -> int:
    temperature = _config(args).temperature_k
    endurance, demand = args.endurance, args.demand_writes_per_hour
    tasks = [
        (args.interval, strength, theta, endurance, demand / units.HOUR, temperature)
        for strength, theta in [(4, 1), (4, 3), (8, 1), (8, 6)]
    ]
    rows = []
    for strength, theta, write_rate, ue_rate, years in parallel_map(
        _lifetime_task, tasks, jobs=_jobs(args)
    ):
        rows.append(
            [
                f"bch{strength} theta={theta}",
                f"{write_rate:.2e}",
                f"{ue_rate:.2e}",
                f"{years:.0f}",
            ]
        )
    print(
        format_table(
            ["config", "scrub wr/line/s", "soft UE/line/s", "years to wear-out"],
            rows,
            title=(
                f"Lifetime projection @ interval "
                f"{units.format_seconds(args.interval)}, "
                f"{args.demand_writes_per_hour:g} demand wr/line/h, "
                f"endurance {args.endurance:g}"
            ),
        )
    )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    config = _config(args)
    policies = [
        basic_scrub(args.interval),
        strong_ecc_scrub(args.interval, args.strength),
        light_scrub(args.interval, args.strength),
        threshold_scrub(args.interval, args.strength),
        combined_scrub(args.interval),
    ]
    results = [run_experiment(policy, config) for policy in policies]
    write_results(args.output, results)
    print(f"wrote {len(results)} runs to {args.output}")
    return 0


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    report = run_verification(
        seed=args.seed, jobs=_jobs(args), quick=args.quick
    )

    inv_rows = [
        [case.name, case.visits, case.uncorrectable,
         _verdict(case.passed) if case.passed
         else f"FAIL: {case.violation['invariant']}"]
        for case in report.invariants.cases
    ]
    print(
        format_table(
            ["configuration", "visits", "UE", "invariants"],
            inv_rows,
            title="Invariant sweep (conservation laws, armed per visit)",
        )
    )

    meta_rows = [
        [result.name,
         " -> ".join(f"{case.value:g}" for case in result.cases),
         _verdict(result.passed)]
        for result in report.metamorphic.results
    ]
    print(
        format_table(
            ["property", "values", "verdict"],
            meta_rows,
            title="Metamorphic properties (paired-seed ordering laws)",
        )
    )

    eq_rows = [
        [row.check, row.label, row.metric, f"{row.observed:g}",
         f"{row.expected:.1f}", f"[{row.low:.1f}, {row.high:.1f}]",
         _verdict(row.passed)]
        for row in report.equivalence.rows
    ]
    print(
        format_table(
            ["model", "point", "metric", "MC", "expected", "band", "verdict"],
            eq_rows,
            title="Model equivalence (MC vs analytic / renewal)",
        )
    )

    if args.json:
        _write_output(
            args.json, json.dumps(report.to_dict(), indent=2) + "\n", "report"
        )

    print(f"verification: {'PASSED' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    spec = _fleet_spec(args.spec)
    constraints = _screen_constraints(args)
    if args.resume and args.checkpoint is None:
        raise SystemExit("pcm-scrub: --resume requires --checkpoint")
    run = {
        "jobs": _jobs(args),
        "checkpoint": args.checkpoint,
        "resume": args.resume,
        "stop_after": args.stop_after,
    }
    screened = constraints is not None
    if not screened:
        from .fleet import run_campaign

        outcome = progress = run_campaign(spec, until=args.until, **run)
        if outcome.finished:
            print(
                format_table(
                    ["devices", "lots", "lines/device", "horizon", "policy",
                     "executed now", "wall"],
                    [[outcome.report.devices, len(spec.lots),
                      spec.base_config.num_lines,
                      units.format_seconds(spec.base_config.horizon),
                      spec.policy, outcome.executed,
                      f"{outcome.wall_seconds:.1f}s"]],
                    title=f"Fleet campaign '{spec.name}'",
                )
            )
    else:
        from .screen import run_screened_campaign

        if args.until is not None:
            raise SystemExit("pcm-scrub: --until is not supported with --screen")
        outcome = run_screened_campaign(spec, constraints, **run)
        progress = outcome.mc_outcome
        _print_plan(outcome.plan, f"Screen plan for '{spec.name}'", devices=True)

    if not outcome.finished:
        print(
            format_table(
                ["campaign", "MC completed" if screened else "completed",
                 "executed now", "wall"],
                [[spec.name, f"{progress.completed}/{progress.total}",
                  progress.executed, f"{progress.wall_seconds:.1f}s"]],
                title=("Screened campaign" if screened else "Campaign")
                + " checkpointed (re-run with --resume to finish)",
            )
        )
        return 0
    _print_any_report(outcome.report)
    if args.json:
        what = "screened fleet report" if screened else "fleet report"
        _write_output(args.json, outcome.report.to_json() + "\n", what)
    return 0


def _print_plan(plan, title: str, devices: bool = False) -> None:
    """A screen plan's verdict counts (``fleet --screen`` and ``submit``)."""
    counts = plan.counts()
    headers = ["pass", "fail", "uncertain", "MC escalated", "MC fraction"]
    row = [counts["pass"], counts["fail"], counts["uncertain"],
           len(plan.escalated), f"{plan.mc_fraction:.1%}"]
    if devices:
        headers, row = ["devices", *headers], [plan.devices, *row]
    print(format_table(headers, [row], title=title))


def _band(low: float, high: float, fmt: str = "{:.3g}") -> str:
    return f"[{fmt.format(low)}, {fmt.format(high)}]"


def _reliability_rows(report) -> list[list]:
    """The FIT and availability rows both kinds of fleet report end with."""
    return [
        ["FIT (simulated pop.)", f"{report.fit:.3g}",
         _band(report.fit_low, report.fit_high)],
        [f"FIT ({report.capacity_gib_per_device:g} GiB device)",
         f"{report.fit_scaled:.3g}",
         _band(report.fit_scaled_low, report.fit_scaled_high)],
        ["availability (UE-free)", f"{report.availability:.1%}",
         _band(report.availability_low, report.availability_high, "{:.3f}")],
    ]


def _print_screened_report(report) -> None:
    """The composed surrogate+MC tables for screened campaigns."""
    print(
        format_table(
            ["metric", "value", "95% interval"],
            [
                ["surrogate devices", report.surrogate_devices,
                 "exact expectations"],
                ["MC devices", report.mc_devices,
                 f"{report.mc_fraction:.1%} of fleet"],
                ["surrogate expected UE", f"{report.surrogate_expected_ue:.3g}",
                 ""],
                ["MC observed UE", report.mc_uncorrectable, ""],
                *_reliability_rows(report),
            ],
            title=f"Screened fleet reliability over "
            f"{report.device_hours:.3g} device-hours "
            f"({report.escalation_ratio:.1f}x fewer MC device-runs)",
        )
    )
    if report.mc_report is not None:
        mc = report.mc_report
        print(
            f"MC subset: {mc.devices} devices, {mc.uncorrectable} UE, "
            f"scrub energy {units.format_energy(mc.scrub_energy_j)}"
        )


def _print_any_report(report) -> None:
    """Dispatch on report type (serve/watch can yield either kind)."""
    from .screen import ScreenedFleetReport

    if isinstance(report, ScreenedFleetReport):
        _print_screened_report(report)
    else:
        _print_fleet_report(report)


def _print_fleet_report(report) -> None:
    """The reliability/lot/survival tables shared by fleet, serve, watch."""

    metric_rows = [
        ["uncorrectable errors", report.uncorrectable, ""],
        ["scrub writes", report.counts["scrub_writes"], ""],
        ["scrub energy", units.format_energy(report.scrub_energy_j),
         f"{units.format_energy(report.energy_per_gib_j)}/GiB simulated"],
        *_reliability_rows(report),
    ]
    print(
        format_table(
            ["metric", "value", "95% interval"],
            metric_rows,
            title=f"Fleet reliability over {report.device_hours:.3g} device-hours",
        )
    )

    lot_rows = [
        [lot.name, lot.devices, lot.counts["uncorrectable"],
         lot.counts["scrub_writes"], units.format_energy(lot.scrub_energy_j),
         f"{lot.fit:.3g}"]
        for lot in report.lots
    ]
    print(
        format_table(
            ["lot", "devices", "UE", "scrub writes", "scrub energy", "FIT"],
            lot_rows,
            title="Per-lot breakdown",
        )
    )

    survival_rows = [
        [f">= {threshold}", f"{fraction:.1%}"]
        for threshold, fraction in report.survival
    ]
    print(
        format_table(
            ["UE count", "fraction of devices"],
            survival_rows,
            title="Uncorrectable-error survival curve",
        )
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import submit_campaign

    spec = _fleet_spec(args.spec)
    constraints = _screen_constraints(args)
    shards = args.shards if args.shards is not None else default_jobs()
    campaign = submit_campaign(
        spec, args.root, shards=shards, constraints=constraints
    )
    rows = [[spec.name, spec.devices, len(campaign.shards),
             campaign.spec_hash[:12], str(campaign.root)]]
    print(
        format_table(
            ["campaign", "devices", "shards", "spec hash", "root"],
            rows,
            title="Campaign submitted",
        )
    )
    if campaign.screen is not None:
        _print_plan(
            campaign.screen,
            "Screen plan (workers Monte-Carlo only the escalated subset)",
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import final_report, serve_campaign

    summary = serve_campaign(
        args.root,
        workers=args.workers,
        max_restarts=args.max_restarts,
        lease_timeout=args.lease_timeout,
        snapshot_budget=args.snapshot_budget,
    )
    print(
        format_table(
            ["devices", "workers", "deaths", "restarts", "finished"],
            [[f"{summary['devices_done']}/{summary['devices_total']}",
              summary["workers"], summary["worker_deaths"],
              summary["restarts"], summary["finished"]]],
            title="Serve summary",
        )
    )
    report = final_report(args.root)
    _print_any_report(report)
    if args.json:
        _write_output(args.json, report.to_json() + "\n", "fleet report")
    return 0


def _status_line(status: dict) -> str:
    states = [row["state"] for row in status["shards"]]
    return (
        f"{status['name']}: {status['devices_done']}/{status['devices_total']} "
        f"devices | shards {states.count('complete')} done, "
        f"{states.count('running')} running, {states.count('queued')} queued, "
        f"{states.count('stalled')} stalled"
    )


def cmd_status(args: argparse.Namespace) -> int:
    from .service import campaign_status

    status = campaign_status(args.root, lease_timeout=args.lease_timeout)
    print(_status_line(status))
    shard_rows = [
        [row["shard"], f"{row['range'][0]}..{row['range'][1] - 1}",
         f"{row['done']}/{row['total']}", row["state"],
         row["worker"] or "-",
         "-" if row["heartbeat_age"] is None else f"{row['heartbeat_age']:.1f}s",
         "-" if row["wall_seconds"] is None else f"{row['wall_seconds']:.1f}s"]
        for row in status["shards"]
    ]
    print(
        format_table(
            ["shard", "devices", "done", "state", "worker", "heartbeat",
             "wall"],
            shard_rows,
            title=f"Campaign '{status['name']}' ({status['spec_hash'][:12]})",
        )
    )
    if status.get("screen") is not None:
        screen = status["screen"]
        counts = screen["counts"]
        print(
            f"screened campaign: {screen['devices']} devices "
            f"({counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['uncertain']} escalated to MC, "
            f"{screen['mc_fraction']:.1%} MC fraction)"
        )
    if status["report"] is not None:
        partial = status["report"]
        if "surrogate_expected_ue" in partial:
            print(
                f"screened report: FIT {partial['fit']:.3g} "
                f"[{partial['fit_low']:.3g}, {partial['fit_high']:.3g}], "
                f"availability {partial['availability']:.1%}"
            )
        else:
            print(
                f"partial report over {partial['devices']} completed devices: "
                f"{partial['uncorrectable']} UE, FIT {partial['fit']:.3g}"
            )
    if args.json:
        _write_output(args.json, json.dumps(status, indent=2) + "\n", "status")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from .service import final_report, watch_campaign

    try:
        watch_campaign(
            args.root,
            interval=args.interval,
            timeout=args.timeout,
            lease_timeout=args.lease_timeout,
            on_status=lambda status: print(_status_line(status), flush=True),
        )
    except TimeoutError as error:
        print(f"watch: {error}")
        return 1
    _print_any_report(final_report(args.root))
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    from .service import repair_campaign

    outcome = repair_campaign(args.root, lease_timeout=args.lease_timeout)
    for broken in outcome["leases_broken"]:
        print(
            f"re-queued shard {broken['shard']} (lease held by "
            f"{broken['worker']}, heartbeat {broken['heartbeat_age']:.1f}s ago)"
        )
    if outcome["snapshots_swept"]:
        print(
            f"swept {len(outcome['snapshots_swept'])} snapshot(s) of "
            "already-journaled devices"
        )
    if not outcome["leases_broken"] and not outcome["snapshots_swept"]:
        print("nothing to repair")
    return 0


def cmd_provision_fleet(args: argparse.Namespace) -> int:
    from .provision import CandidateSpace, CostModel, ProvisionSearch

    spec = _fleet_spec(args.spec)
    space = CandidateSpace(
        policies=tuple(args.policies),
        intervals=tuple(args.intervals),
        strengths=tuple(args.strengths),
        thresholds=(None,) if args.thresholds is None else tuple(args.thresholds),
        with_detector=args.with_detector,
    )
    cost_model = CostModel(
        dollars_per_gib=args.dollars_per_gib,
        carbon_intensity_kg_per_kwh=args.carbon_intensity,
        embodied_kg_per_gib=args.embodied_carbon,
        amortization_years=args.amortization_years,
    )
    report = ProvisionSearch(
        spec,
        space=space,
        cost_model=cost_model,
        fit_limit=args.fit_limit,
        confidence=args.confidence,
        jobs=_jobs(args),
        exhaustive=args.exhaustive,
    ).run()

    candidates = report.candidates_evaluated
    mc_runs = report.mc_device_runs
    surrogate_runs = sum(
        e.surrogate_devices for lot in report.lots for e in lot.evaluations
    )
    print(
        format_table(
            ["lots", "candidates", "surrogate device-evals",
             "MC device-runs", "frontier points"],
            [[len(report.lots), candidates, surrogate_runs, mc_runs,
              report.frontier_size]],
            title=f"Provisioning search for '{spec.name}'"
            + (" (exhaustive MC)" if args.exhaustive else ""),
        )
    )
    for lot in report.lots:
        rows = []
        for key in lot.frontier:
            evaluation = lot.evaluation(key)
            rows.append([
                key + (" *" if key == lot.recommended else ""),
                f"{evaluation.fit_scaled:.3g}",
                units.format_energy(evaluation.energy_per_gib_j),
                f"{evaluation.writes_per_device:.3g}",
                f"${evaluation.dollars_per_gib:.3f}",
                f"{evaluation.carbon_per_gib_kg:.3g}",
                evaluation.method,
            ])
        print(
            format_table(
                ["candidate", "FIT", "energy/GiB", "writes/dev",
                 "$/GiB", "kgCO2e/GiB", "method"],
                rows,
                title=f"Lot '{lot.lot}' Pareto frontier "
                f"({lot.devices} devices; * = recommended)",
            )
        )
        if lot.recommended is None:
            print(
                f"lot '{lot.lot}': no feasible candidate under "
                f"--fit-limit {args.fit_limit:g}; keeping its current "
                "assignment"
            )

    if args.json:
        _write_output(args.json, report.to_json() + "\n", "provisioning report")
    if args.frontier_csv:
        _write_output(args.frontier_csv, report.frontier_csv(), "frontier CSV")
    if args.assignments:
        assignments = report.assignments_spec()
        _write_output(
            args.assignments,
            json.dumps(assignments.to_dict(), indent=2, sort_keys=True) + "\n",
            "recommended per-lot spec",
        )
    return 0


COMMANDS = {
    "drift-curve": cmd_drift_curve,
    "compare": cmd_compare,
    "headline": cmd_headline,
    "sweep": cmd_sweep,
    "trace": cmd_trace,
    "provision": cmd_provision,
    "lifetime": cmd_lifetime,
    "export": cmd_export,
    "verify": cmd_verify,
    "fleet": cmd_fleet,
    "submit": cmd_submit,
    "serve": cmd_serve,
    "status": cmd_status,
    "watch": cmd_watch,
    "repair": cmd_repair,
    "provision-fleet": cmd_provision_fleet,
}


def _user_errors() -> tuple[type[Exception], ...]:
    """The typed errors a user fixes by changing a flag, a spec or a directory.

    ``main``'s ``except`` clause calls this only once an error arrives, so
    ``import repro.cli`` loads none of the modules that define them.
    """
    from .fields import FieldError
    from .fleet.checkpoint import CheckpointError
    from .provision import ProvisionError
    from .screen import ScreenError
    from .service import ServiceError
    from .service.supervisor import ServeFailed

    return (
        FieldError, ScreenError, ProvisionError, CheckpointError, ServiceError,
        ServeFailed,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except _user_errors() as error:
        raise SystemExit(f"pcm-scrub: {error}") from None


if __name__ == "__main__":
    sys.exit(main())
