"""Out-of-tree tracing for the benchmark's traced run.

The program is never edited: :func:`install` replaces public functions of
each ``repro`` layer, under the module names their callers look them up
by, with wrappers that record spans (calls, busy time and self time) and
counts.  A span's self time is its duration minus the time covered by
spans that started inside it.

Spawned worker processes (the ``run_many`` pool, the chunked screen
planner and the campaign service's workers) start from a fresh import,
so the parent's wrappers do not reach them.  While a traced repetition
runs, ``PERFBENCH_TRACE_DIR`` names a directory; the benchmark script
installs the same wrappers in every spawned child that sees it, and each
child writes its records there when it exits (:func:`install_child`).
The parent merges them after the repetition (:func:`collect_children`).
"""

from __future__ import annotations

import atexit
import functools
import importlib
import importlib.abc
import importlib.machinery
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

CHILD_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """Spans and counts of one process, kept in memory."""

    def __init__(self) -> None:
        #: span name -> [calls, busy seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        self.counts: dict[str, float] = defaultdict(float)
        #: Per open span, the seconds covered by its finished child spans.
        self._stack: list[float] = []

    def call(self, probe: "Probe", fn: Callable, args: tuple, kwargs: dict) -> Any:
        state = probe.before() if probe.before is not None else None
        if probe.span is None:
            result = fn(*args, **kwargs)
            if probe.after is not None:
                probe.after(self, state, args, kwargs, result, 0.0)
            return result
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += elapsed
            entry = self.spans.setdefault(probe.span, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - children
        if probe.after is not None:
            probe.after(self, state, args, kwargs, result, elapsed - children)
        return result

    def merge(self, spans: dict, counts: dict) -> None:
        for name, (calls, busy, own) in spans.items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += own
        for name, value in counts.items():
            self.counts[name] += value

    def calls(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[0]

    def busy(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[1]

    def own(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[2]


@dataclass(frozen=True)
class Probe:
    """What one wrapper records: a span and/or counts around the call."""

    #: Span name, or ``None`` for a wrapper that only counts.
    span: str | None
    #: Called before the wrapped function; its value reaches ``after``.
    before: Callable[[], Any] | None = None
    #: ``after(recorder, state, args, kwargs, result, self_seconds)``.
    after: Callable[..., None] | None = None


# -- counters read around a call ----------------------------------------------


def _counter_probe(span: str, counters_path: str, prefix: str) -> Probe:
    """A span that also records the deltas of a registry counter group.

    Deltas are taken around each call, so a ``clear_*_cache()`` reset
    between calls cannot make them negative.
    """
    module_name, attr = counters_path.rsplit(".", 1)

    def before():
        return dict(getattr(importlib.import_module(module_name), attr))

    def after(rec, state, args, kwargs, result, own):
        now = getattr(importlib.import_module(module_name), attr)
        for key, value in now.items():
            rec.counts[f"{prefix}{key}"] += value - state.get(key, 0)

    return Probe(span, before, after)


def _record_results(rec: Recorder, results) -> None:
    """Engine counts from returned :class:`repro.sim.results.RunResult` s."""
    for result in results:
        rec.counts["engine.device_runs"] += 1
        rec.counts["engine.simulate_s"] += result.runtime_seconds
        rec.counts["engine.visits"] += result.stats.visits
        if result.fast_forward:
            # Skipped visits are counted per region; scale to line visits
            # so the ratio to ``stats.visits`` is a share of all visits.
            rec.counts["engine.ff_skipped_visits"] += (
                result.fast_forward["skipped_visits"] * result.config.region_size
            )


def _run_many_after(rec, state, args, kwargs, results, own):
    specs = args[0]
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    workers = min(jobs, len(specs)) if jobs > 1 and len(specs) > 1 else 1
    busy = sum(result.runtime_seconds for result in results)
    _record_results(rec, results)
    rec.counts["parallel.worker_busy_s"] += busy
    rec.counts["parallel.slot_s"] += workers * own
    rec.counts["parallel.dispatch_overhead_s"] += own - busy / workers


def _parallel_map_after(rec, state, args, kwargs, result, own):
    items = args[1]
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    if jobs > 1 and len(items) > 1:
        rec.counts["parallel.pools_spawned"] += 1


def _renewal_after(counter_probe: Probe):
    def after(rec, state, args, kwargs, result, own):
        counter_probe.after(rec, state, args, kwargs, result, own)
        rec.counts["renewal.tasks"] += len(result)

    return after


def _plan_after(rec, state, args, kwargs, plan, own):
    rec.counts["planner.devices"] += plan.devices
    rec.counts["planner.escalated"] += len(plan.escalated)


def _provision_after(rec, state, args, kwargs, report, own):
    evaluations = [e for lot in report.lots for e in lot.evaluations]
    rec.counts["provision.candidates"] += len(evaluations)
    rec.counts["provision.escalated_candidates"] += sum(
        1 for e in evaluations if e.mc_devices > 0
    )
    rec.counts["provision.device_evaluations"] += sum(e.devices for e in evaluations)
    rec.counts["provision.mc_device_runs"] += report.mc_device_runs


def _resumable_after(rec, state, args, kwargs, result, own):
    _record_results(rec, [result])


_DISTRIBUTION = _counter_probe(
    "sim.runner.distribution", "repro.sim.runner.DISTRIBUTION_CACHE_COUNTERS", "cache."
)
_MEMO = _counter_probe(
    "sim.renewal_batch", "repro.sim.renewal_batch.SURROGATE_MEMO_COUNTERS", "memo."
)
_RENEWAL = Probe(_MEMO.span, _MEMO.before, _renewal_after(_MEMO))
_RUN_MANY = Probe("sim.parallel.run_many", after=_run_many_after)
_PARALLEL_MAP = Probe(None, after=_parallel_map_after)
_AGGREGATE = Probe("fleet.report.aggregate")
_PLAN = Probe("screen.planner.plan", after=_plan_after)
_COMPOSE = Probe("screen.report.compose")
_FRONTIER = Probe("provision.pareto.frontier")
_SUBMIT = Probe("service.jobs.submit")
_SERVE = Probe("service.supervisor.serve")
_FINAL = Probe("service.status.final_report")

#: ``(module, attribute, probe)``; ``module:Class`` patches a method on
#: the class.  Each function is wrapped under every name a caller looks
#: it up by, so a call through any of them records once.
WRAPPED: tuple[tuple[str, str, Probe], ...] = (
    ("repro.fleet.spec:FleetSpec", "device_spec", Probe("fleet.spec.device_spec")),
    ("repro.sim.runner", "cached_crossing_distribution", _DISTRIBUTION),
    ("repro.sim.renewal_batch", "finite_horizon_batch", _RENEWAL),
    ("repro.screen.planner", "finite_horizon_batch", _RENEWAL),
    ("repro.provision.search", "finite_horizon_batch", _RENEWAL),
    ("repro.sim.parallel", "run_many", _RUN_MANY),
    ("repro.fleet.campaign", "run_many", _RUN_MANY),
    ("repro.sim.parallel", "parallel_map", _PARALLEL_MAP),
    ("repro.screen.planner", "parallel_map", _PARALLEL_MAP),
    ("repro.service.worker", "run_resumable", Probe(None, after=_resumable_after)),
    ("repro.fleet.campaign:CampaignRunner", "run", Probe("fleet.campaign.runner")),
    ("repro.fleet.campaign", "append_device", Probe("fleet.checkpoint.append")),
    ("repro.service.worker", "append_device", Probe("fleet.checkpoint.append")),
    ("repro.fleet.campaign", "aggregate", _AGGREGATE),
    ("repro.service.status", "aggregate", _AGGREGATE),
    ("repro.screen.report", "aggregate_partial", _AGGREGATE),
    ("repro.screen.planner", "plan_screen", _PLAN),
    ("repro.screen.campaign", "plan_screen", _PLAN),
    ("repro.service.jobs", "plan_screen", _PLAN),
    ("repro.screen.campaign", "compose_screened_report", _COMPOSE),
    ("repro.service.status", "compose_screened_report", _COMPOSE),
    ("repro.provision.search:ProvisionSearch", "run",
     Probe("provision.search.run", after=_provision_after)),
    ("repro.provision.search", "pareto_frontier", _FRONTIER),
    ("repro.provision.search", "knee_point", _FRONTIER),
    ("repro.service.jobs", "submit_campaign", _SUBMIT),
    ("repro.service.supervisor", "serve_campaign", _SERVE),
    ("repro.service.supervisor", "campaign_status",
     Probe("service.supervisor.status_poll")),
    ("repro.service.status", "final_report", _FINAL),
)


def _target(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _patch(rec: Recorder, path: str, attr: str, probe: Probe, originals: list) -> None:
    target = _target(path)
    fn = getattr(target, attr)
    if hasattr(fn, "__perfbench_original__"):
        # Bound by ``from ... import`` to an already wrapped function.
        return
    originals.append((target, attr, fn))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(probe, fn, args, kwargs)

    wrapper.__perfbench_original__ = fn
    setattr(target, attr, wrapper)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every :data:`WRAPPED` name; returns the function that unwraps."""
    originals: list = []
    for path, attr, probe in WRAPPED:
        _patch(rec, path, attr, probe, originals)

    def uninstall() -> None:
        for target, attr, original in reversed(originals):
            setattr(target, attr, original)

    return uninstall


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Wraps each traced module's names as soon as the module has executed.

    A spawned worker imports only the layers it runs; wrapping eagerly
    would import all of them (scipy included) in every worker and
    inflate the very dispatch cost the trace measures.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.pending: dict[str, list[tuple[str, str, Probe]]] = defaultdict(list)
        for entry in WRAPPED:
            self.pending[entry[0].partition(":")[0]].append(entry)

    def find_spec(self, fullname, path, target=None):
        entries = self.pending.pop(fullname, None)
        if entries is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            for entry in entries:
                _patch(self.rec, *entry, [])

        spec.loader.exec_module = exec_and_patch
        return spec


def install_child(directory: str) -> None:
    """Trace this spawned worker; write its records to ``directory`` at exit.

    Spawned children leave through a normal interpreter exit, so
    ``atexit`` runs; a child killed mid-run loses its records.
    """
    rec = Recorder()
    sys.meta_path.insert(0, _PatchOnImport(rec))

    def dump() -> None:
        path = Path(directory) / f"{os.getpid()}.json"
        path.write_text(json.dumps({"spans": rec.spans, "counts": rec.counts}))

    atexit.register(dump)


def collect_children(rec: Recorder, directory: Path) -> int:
    """Merge every child's records into ``rec``; returns how many merged."""
    merged = 0
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text())
        rec.merge(payload["spans"], payload["counts"])
        merged += 1
    return merged


# -- per-layer metrics ----------------------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rec: Recorder, disk: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced repetition, by name.

    Busy and self times are summed over every process that ran the
    layer; ``disk`` holds the figures read from files the workload left
    (journal sizes and the service workers' shard markers).
    """
    c = rec.counts
    cache_hits = c["cache.memory"] + c["cache.disk"]
    memo_hits = c["memo.memory"] + c["memo.disk"]
    slot_s = c["parallel.slot_s"]
    visits = c["engine.visits"]
    planned = c["planner.devices"]
    evaluations = c["provision.device_evaluations"]
    return {
        "fleet.spec.device_spec_calls": rec.calls("fleet.spec.device_spec"),
        "fleet.spec.device_spec_s": rec.busy("fleet.spec.device_spec"),
        "sim.runner.distribution_calls": rec.calls("sim.runner.distribution"),
        "sim.runner.distribution_s": rec.busy("sim.runner.distribution"),
        "sim.runner.cache_memory": c["cache.memory"],
        "sim.runner.cache_disk": c["cache.disk"],
        "sim.runner.cache_tabulated": c["cache.tabulated"],
        "sim.runner.cache_hit_ratio": _ratio(
            cache_hits, cache_hits + c["cache.tabulated"]
        ),
        "sim.renewal_batch.calls": rec.calls("sim.renewal_batch"),
        "sim.renewal_batch.s": rec.busy("sim.renewal_batch"),
        "sim.renewal_batch.tasks": c["renewal.tasks"],
        "sim.renewal_batch.memo_memory": c["memo.memory"],
        "sim.renewal_batch.memo_disk": c["memo.disk"],
        "sim.renewal_batch.memo_computed": c["memo.computed"],
        "sim.renewal_batch.memo_hit_ratio": _ratio(
            memo_hits, memo_hits + c["memo.computed"]
        ),
        "sim.parallel.run_many_calls": rec.calls("sim.parallel.run_many"),
        "sim.parallel.pools_spawned": c["parallel.pools_spawned"],
        "sim.parallel.run_many_s": rec.busy("sim.parallel.run_many"),
        "sim.parallel.run_many_self_s": rec.own("sim.parallel.run_many"),
        "sim.parallel.worker_busy_s": c["parallel.worker_busy_s"],
        "sim.parallel.dispatch_overhead_s": c["parallel.dispatch_overhead_s"],
        "sim.parallel.worker_idle_frac": (
            1.0 - _ratio(c["parallel.worker_busy_s"], slot_s) if slot_s else 0.0
        ),
        "sim.engine.device_runs": c["engine.device_runs"],
        "sim.engine.simulate_s": c["engine.simulate_s"],
        "sim.engine.visits": visits,
        "sim.engine.visits_per_s": _ratio(visits, c["engine.simulate_s"]),
        "sim.engine.ff_skipped_visits": c["engine.ff_skipped_visits"],
        "sim.engine.ff_skip_ratio": _ratio(c["engine.ff_skipped_visits"], visits),
        "fleet.campaign.runner_calls": rec.calls("fleet.campaign.runner"),
        "fleet.campaign.runner_s": rec.busy("fleet.campaign.runner"),
        "fleet.campaign.runner_self_s": rec.own("fleet.campaign.runner"),
        "fleet.checkpoint.appends": rec.calls("fleet.checkpoint.append"),
        "fleet.checkpoint.append_s": rec.busy("fleet.checkpoint.append"),
        "fleet.checkpoint.journal_bytes": disk.get("journal_bytes", 0.0),
        "fleet.report.aggregate_calls": rec.calls("fleet.report.aggregate"),
        "fleet.report.aggregate_s": rec.busy("fleet.report.aggregate"),
        "screen.planner.plan_s": rec.busy("screen.planner.plan"),
        "screen.planner.plan_self_s": rec.own("screen.planner.plan"),
        "screen.planner.devices": planned,
        "screen.planner.escalated": c["planner.escalated"],
        "screen.planner.surrogate_ratio": (
            1.0 - _ratio(c["planner.escalated"], planned) if planned else 0.0
        ),
        "screen.report.compose_s": rec.busy("screen.report.compose"),
        "provision.search.run_s": rec.busy("provision.search.run"),
        "provision.search.run_self_s": rec.own("provision.search.run"),
        "provision.search.candidates": c["provision.candidates"],
        "provision.search.escalated_candidates": c["provision.escalated_candidates"],
        "provision.search.mc_device_runs": c["provision.mc_device_runs"],
        "provision.search.surrogate_ratio": (
            1.0 - _ratio(c["provision.mc_device_runs"], evaluations)
            if evaluations
            else 0.0
        ),
        "provision.pareto.frontier_s": rec.busy("provision.pareto.frontier"),
        "service.jobs.submit_s": rec.busy("service.jobs.submit"),
        "service.supervisor.serve_s": rec.busy("service.supervisor.serve"),
        "service.supervisor.serve_self_s": rec.own("service.supervisor.serve"),
        "service.supervisor.status_polls": rec.calls("service.supervisor.status_poll"),
        "service.supervisor.status_poll_s": rec.busy("service.supervisor.status_poll"),
        "service.worker.shards": disk.get("shards", 0.0),
        "service.worker.shard_wall_s": disk.get("shard_wall_s", 0.0),
        "service.worker.devices_executed": disk.get("devices_executed", 0.0),
        "service.worker.journal_bytes": disk.get("shard_journal_bytes", 0.0),
        "service.status.final_report_s": rec.busy("service.status.final_report"),
    }


def unit_of(name: str) -> str:
    """A metric's unit, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced repetitions."""
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
