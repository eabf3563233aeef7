"""Self-test of the fleet benchmark: every workload at the tiny size.

Run from the repository root (about 30 seconds on two CPUs)::

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs through the same command line the benchmark is
driven by, with ``--trace 1``: one untraced and one traced repetition,
both verified against the golden digests.  The test checks every metric
name and unit against ``BENCHMARK.json`` and that the traced run saw
each layer the workload exercises.  The end-to-end metrics are computed
the same way for every workload, so one untraced run checks their names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

#: Per-layer metrics that must be non-zero in each workload's traced run:
#: the layers that workload exercises.
EXERCISED = {
    "fleet-cold": (
        "fleet.spec.device_spec_calls",
        "sim.runner.distribution_calls",
        "sim.runner.cache_tabulated",
        "sim.parallel.run_many_calls",
        "sim.parallel.pools_spawned",
        "sim.parallel.worker_busy_s",
        "sim.engine.device_runs",
        "sim.engine.visits_per_s",
        "fleet.campaign.runner_calls",
        "fleet.campaign.runner_self_s",
        "fleet.checkpoint.appends",
        "fleet.checkpoint.journal_bytes",
        "fleet.report.aggregate_s",
    ),
    "provision-mc": (
        "fleet.spec.device_spec_calls",
        "sim.runner.cache_disk",
        "sim.renewal_batch.tasks",
        "sim.renewal_batch.memo_disk",
        "sim.parallel.run_many_calls",
        "sim.engine.device_runs",
        "fleet.campaign.runner_calls",
        "provision.search.run_self_s",
        "provision.search.candidates",
        "provision.search.escalated_candidates",
        "provision.search.mc_device_runs",
        "provision.search.surrogate_ratio",
        "provision.pareto.frontier_s",
    ),
    "screen-20k": (
        "fleet.spec.device_spec_calls",
        "sim.runner.cache_disk",
        "sim.renewal_batch.tasks",
        "sim.parallel.pools_spawned",
        "sim.engine.device_runs",
        "fleet.campaign.runner_calls",
        "screen.planner.plan_s",
        "screen.planner.devices",
        "screen.planner.escalated",
        "screen.planner.surrogate_ratio",
        "screen.report.compose_s",
        "fleet.report.aggregate_s",
    ),
    "service-warm": (
        "fleet.spec.device_spec_calls",
        "sim.runner.cache_disk",
        "sim.engine.device_runs",
        "fleet.checkpoint.appends",
        "fleet.report.aggregate_s",
        "service.jobs.submit_s",
        "service.supervisor.serve_s",
        "service.supervisor.status_polls",
        "service.worker.shards",
        "service.worker.shard_wall_s",
        "service.worker.devices_executed",
        "service.worker.journal_bytes",
        "service.status.final_report_s",
    ),
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def _declared(key: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[key]}


def test_every_exercised_workload_is_declared():
    assert sorted(EXERCISED) == sorted(WORKLOAD_NAMES)


def test_untraced_run():
    result = _result(_run(ROOT, "provision-mc", 0))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run(workload):
    result = _result(_run(ROOT, workload, 1))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert result["attempted"] >= 2  # one untraced and one traced repetition
    silent = [name for name in EXERCISED[workload] if not metrics[name]["value"] > 0]
    assert not silent, f"{workload}: traced run saw nothing in {silent}"
    assert metrics["trace.untraced_wall_s"]["value"] > 0


def test_goldens_pin_service_to_batch_report():
    goldens = json.loads((HERE / "goldens.json").read_text())
    paths = [str(HERE), str(ROOT / "src")]
    sys.path[:0] = paths
    try:
        from workloads import VARIANTS, WORKLOADS
    finally:
        for path in paths:
            sys.path.remove(path)
    shared = {WORKLOADS["fleet-cold"].golden, WORKLOADS["service-warm"].golden}
    assert len(shared) == 1
    for table in goldens.values():
        assert all(len(column) == VARIANTS for column in table.values())


def _processes() -> dict[str, tuple[str, str]]:
    """``pid -> (state, cmdline)`` of every process in ``/proc``."""
    found = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
            cmdline = (stat.parent / "cmdline").read_bytes().replace(b"\0", b" ")
        except (OSError, IndexError):
            continue
        found[stat.parent.name] = (state, cmdline.decode(errors="replace"))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
def test_leaves_no_process_behind():
    """The pools' workers and multiprocessing's resource tracker are reaped
    before the run exits; an orphaned tracker would linger as a zombie."""
    before = _processes()
    _result(_run(ROOT, "fleet-cold", 0))
    left = {
        pid: entry for pid, entry in _processes().items()
        if pid not in before and (entry[0] == "Z" or "multiprocessing" in entry[1])
    }
    assert not left, left


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "fleet-cold", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
