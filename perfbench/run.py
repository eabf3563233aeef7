"""Fleet benchmark: run one workload, verify every output, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 15 --trace 0

The script imports the library from ``src/`` beside it, so it needs no
install.  After set-up (imports, spec loading, and for warm workloads one
unmeasured repetition that fills the cache) it repeats the workload as a
closed loop - each repetition starts when the previous one has returned -
until ``--seconds`` have passed, and verifies every repetition's report
against ``goldens.json``.  A repetition that raises or whose digest
differs counts as failed.

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
``setup_s`` is the median of three loads (imports, spec loading, work
directory: this process's and two fresh interpreters') plus the warm-up.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (medians), plus the tracing
overhead: traced against untraced wall time.  The last line of standard
output is one JSON object; earlier lines give a table with sample counts
and the run context (CPU count, calibration loop, versions, ``jobs``).

All state - the ``REPRO_CACHE_DIR`` cache, journals, campaign directories,
temporary files - lives under ``.perfbench-work/`` in the checkout and is
removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Spawned workers re-import this file as ``__mp_main__``; during a traced
# repetition they install the same wrappers as the parent.
if __name__ == "__mp_main__" and os.environ.get(tracing.CHILD_DIR_ENV):
    tracing.install_child(os.environ[tracing.CHILD_DIR_ENV])

#: Loads timed per run for ``setup_s``: this process's own and fresh
#: interpreters'.  Their median damps the host's noise on the imports,
#: which are all of ``fleet-cold``'s set-up.
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "devices_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload (the self-test uses it)",
    )
    # Internal: time one load and exit (see ``_load_in_fresh_interpreter``).
    parser.add_argument("--load-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_in_fresh_interpreter(args: argparse.Namespace) -> float:
    """Seconds of one more load - imports, work directory, generated spec
    and workload - timed the same way in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--load-only"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.split()[-1])


def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS high-water mark (Linux)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """This process's peak RSS since the last reset, plus the largest child's."""
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own_kib = int(line.split()[1])
    except OSError:
        pass
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kib + child_kib) / 1024.0


def _cpu_seconds() -> float:
    """CPU seconds of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def calibration_seconds() -> float:
    """The repository's reference loop, ``calibration_seconds()`` of
    ``benchmarks/conftest.py``, copied so the benchmark does not change
    when that file does.  Recorded, not used to scale any metric: on the
    development host it drifted more than the workloads did."""
    import numpy as np

    rng = np.random.default_rng(0)
    data = rng.random((256, 4096))
    started = time.perf_counter()
    for __ in range(40):
        np.sort(data, axis=1)[:, :24].min(axis=1).sum()
    return time.perf_counter() - started


class Bench:
    """One benchmark invocation: a workload, its work directory, its reps."""

    def __init__(self, args: argparse.Namespace, work: Path):
        from workloads import VARIANTS, WORKLOADS

        from repro.sim.renewal_batch import clear_propagation_cache
        from repro.sim.runner import clear_distribution_cache

        self._clear_caches = (clear_distribution_cache, clear_propagation_cache)
        self.args = args
        self.work = work
        self.cache = Path(os.environ["REPRO_CACHE_DIR"])
        goldens = json.loads((HERE / "goldens.json").read_text())
        variant = args.seed % VARIANTS
        self.workload = WORKLOADS[args.workload](args.size, variant, work)
        self.expected = goldens[args.size][self.workload.golden][variant]
        self.reps: list[dict] = []

    def _scratch(self, label: str) -> Path:
        path = self.work / label
        path.mkdir()
        return path

    def _reset(self) -> None:
        for clear in self._clear_caches:
            clear()
        if not self.workload.warm:
            shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(exist_ok=True)

    def warm_up(self) -> None:
        """Fill the on-disk caches with one unmeasured repetition."""
        self._reset()
        scratch = self._scratch("warm-up")
        self.workload.run(scratch)
        shutil.rmtree(scratch)

    def repetition(self, traced: bool) -> None:
        from workloads import digest

        self._reset()
        scratch = self._scratch(f"rep-{len(self.reps)}")
        rec = tracing.Recorder()
        uninstall = None
        if traced:
            children = self._scratch(f"rep-{len(self.reps)}-children")
            uninstall = tracing.install(rec)
            os.environ[tracing.CHILD_DIR_ENV] = str(children)
        _reset_peak_rss()
        cpu_started = _cpu_seconds()
        started = time.perf_counter()
        try:
            ok = digest(self.workload.run(scratch)) == self.expected
            if not ok:
                print(f"{self.args.workload}: report digest differs from golden",
                      file=sys.stderr)
        except Exception:
            traceback.print_exc()
            ok = False
        finally:
            wall = time.perf_counter() - started
            cpu = _cpu_seconds() - cpu_started
            if uninstall is not None:
                uninstall()
                os.environ.pop(tracing.CHILD_DIR_ENV)
        rep = {
            "traced": traced,
            "ok": ok,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": _peak_rss_mb(),
            "devices_per_s": self.workload.devices / wall,
        }
        if traced and ok:
            tracing.collect_children(rec, children)
            rep["layers"] = tracing.layer_metrics(
                rec, self.workload.disk_metrics(scratch)
            )
        shutil.rmtree(scratch)
        if traced:
            shutil.rmtree(children)
        self.reps.append(rep)

    def measure(self) -> None:
        """Closed loop until ``--seconds`` pass (traced runs alternate)."""
        deadline = time.perf_counter() + self.args.seconds
        traced = False
        while True:
            self.repetition(traced)
            if self.args.trace:
                traced = not traced
            kinds = {rep["traced"] for rep in self.reps}
            complete = len(kinds) == (2 if self.args.trace else 1)
            if complete and time.perf_counter() >= deadline:
                break


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def end_to_end(bench: Bench, setup_s: float) -> dict[str, float]:
    metrics = {key: _median(bench.reps, key) for key in END_TO_END_UNITS if key != "setup_s"}
    metrics["setup_s"] = setup_s
    return metrics


def per_layer(bench: Bench) -> dict[str, float]:
    traced = [rep for rep in bench.reps if rep["traced"]]
    untraced = [rep for rep in bench.reps if not rep["traced"]]
    layered = [rep["layers"] for rep in traced if "layers" in rep]
    if layered:
        metrics = tracing.median_metrics(layered)
    else:
        # No traced repetition verified: report the layer names, zeroed.
        metrics = dict.fromkeys(tracing.layer_metrics(tracing.Recorder(), {}), 0.0)
    traced_wall = _median(traced, "wall_s")
    untraced_wall = _median(untraced, "wall_s")
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics


def run_context(bench: Bench) -> dict:
    import numpy

    from workloads import JOBS

    cpus = os.cpu_count() or 1
    return {
        "workload": bench.args.workload,
        "size": bench.args.size,
        "seed": bench.args.seed,
        "variant": bench.workload.variant,
        "jobs": JOBS,
        "cpu_count": cpus,
        "jobs_exceeds_cpus": JOBS > cpus,
        "calibration_seconds": calibration_seconds(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repetitions": len(bench.reps),
        "repetition_wall_s": [round(rep["wall_s"], 4) for rep in bench.reps],
    }


def stop_children() -> None:
    """Stop every process this one started and reap each.

    Pool and service workers are multiprocessing children: any still
    running (a repetition that raised) is terminated and joined.  The
    spawn context also starts multiprocessing's resource tracker, which
    would end only after this process exits - as an orphan that nothing
    reaps.  It ignores SIGTERM; ``_stop`` closes its pipe and waits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():
        process.terminate()
        process.join()
    resource_tracker._resource_tracker._stop()


@contextlib.contextmanager
def work_environment():
    """A private work directory in the checkout, with the library importable.

    Every file the program writes stays inside it - ``REPRO_CACHE_DIR``
    and ``TMPDIR`` point there, and spawned workers inherit both and
    ``sys.path`` - and it is removed on exit, after every process the
    run started has ended.
    """
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: no library sources at {src}")
    work = ROOT / ".perfbench-work" / str(os.getpid())
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ.pop("REPRO_NO_DISK_CACHE", None)
    sys.path.insert(0, str(src))
    try:
        yield work
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    with work_environment() as work:
        bench = Bench(args, work)
        loads = [time.perf_counter() - started]
        if args.load_only:
            print(loads[0])
            return 0
        loads += [_load_in_fresh_interpreter(args) for __ in range(SETUP_SAMPLES - 1)]
        # The warm-up is a whole cold repetition, so it is timed once.
        warm_started = time.perf_counter()
        if bench.workload.warm:
            bench.warm_up()
        setup_s = statistics.median(loads) + time.perf_counter() - warm_started
        bench.measure()
        context = run_context(bench)

    if context["jobs_exceeds_cpus"]:
        print(f"WARNING: jobs={context['jobs']} exceeds the {context['cpu_count']} "
              "CPUs of this host; parallel timings are not comparable", file=sys.stderr)
    metrics = per_layer(bench) if args.trace else end_to_end(bench, setup_s)
    units = {
        name: END_TO_END_UNITS[name] if name in END_TO_END_UNITS else tracing.unit_of(name)
        for name in metrics
    }
    samples = sum(1 for rep in bench.reps if rep["traced"] == bool(args.trace))
    for name, value in metrics.items():
        count = SETUP_SAMPLES if name == "setup_s" else samples
        print(f"{args.workload:13s} {name:40s} {value:14.6g} {units[name]:6s} n={count}")
    print("context " + json.dumps(context, sort_keys=True))
    failed = sum(1 for rep in bench.reps if not rep["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.reps),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
