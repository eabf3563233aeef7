"""Result export: CSV and JSON-lines for downstream analysis.

Benchmarks print human tables; sweeps that feed plotting pipelines or
regression dashboards want machine-readable rows.  One row per
:class:`~repro.sim.results.RunResult`, flat columns, stable ordering.

Runs that collected telemetry (:mod:`repro.obs`) carry it through the
JSONL export automatically (``to_dict`` adds ``timeseries``/``profile``
keys when present); :func:`write_timeseries` exports a sweep's per-run
time series plus their merged fleet view as one JSON document.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from pathlib import Path

from ..durable import atomic_write
from ..obs.sampler import merge_timeseries
from ..sim.results import RunResult

#: Path suffixes :func:`write_results` chooses its format by.
EXPORT_SUFFIXES = (".csv", ".jsonl")

#: Flat columns exported for every run, in order.
RESULT_COLUMNS = (
    "policy",
    "workload",
    "num_lines",
    "horizon_s",
    "seed",
    "temperature_k",
    "uncorrectable",
    "scrub_reads",
    "scrub_decodes",
    "scrub_writes",
    "scrub_energy_j",
    "demand_writes",
    "detector_misses",
    "retired",
    "runtime_s",
)


def _row(result: RunResult) -> dict[str, object]:
    blob = result.to_dict()
    return {column: blob[column] for column in RESULT_COLUMNS}


def results_to_csv(results: Sequence[RunResult]) -> str:
    """Render runs as CSV with a header row.

    >>> text = results_to_csv([])
    >>> text.splitlines()[0].startswith("policy,workload")
    True
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(RESULT_COLUMNS))
    writer.writeheader()
    for result in results:
        writer.writerow(_row(result))
    return buffer.getvalue()


def results_to_jsonl(results: Sequence[RunResult]) -> str:
    """One full ``to_dict`` JSON object per line (includes breakdowns)."""
    return "\n".join(json.dumps(result.to_dict()) for result in results)


def write_timeseries(
    path, labels: Sequence[str], results: Sequence[RunResult]
) -> None:
    """Write per-run labeled time series plus their merged sum as JSON.

    Every result must have been run with sampling enabled
    (``config.obs.sample_every``); the ``merged`` entry is the sample-wise
    sum across runs (:func:`repro.obs.sampler.merge_timeseries`) - the
    fleet view of a sweep.
    """
    if len(labels) != len(results):
        raise ValueError("one label per result required")
    missing = [label for label, r in zip(labels, results) if r.timeseries is None]
    if missing:
        raise ValueError(f"runs without time series: {missing}")
    payload = {
        "runs": [
            {"label": str(label), **result.timeseries.to_dict()}
            for label, result in zip(labels, results)
        ],
        "merged": merge_timeseries([r.timeseries for r in results]).to_dict(),
    }
    atomic_write(path, (json.dumps(payload, indent=2) + "\n").encode())


def write_results(path, results: Sequence[RunResult]) -> None:
    """Publish results at ``path``; format chosen by suffix (.csv / .jsonl)."""
    path = Path(path)
    if path.suffix == ".csv":
        payload = results_to_csv(results)
    elif path.suffix == ".jsonl":
        payload = results_to_jsonl(results) + ("\n" if results else "")
    else:
        raise ValueError(f"unsupported export suffix {path.suffix!r}")
    atomic_write(path, payload.encode())
