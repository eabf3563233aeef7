"""Batched renewal kernel: parity with the scalar solver, memo behavior.

Two layers of evidence that :func:`repro.sim.renewal_batch.finite_horizon_batch`
is a drop-in for the per-task scalar oracle
(:func:`repro.verify.equivalence.scalar_finite_horizon`):

* a hypothesis law on the recursion itself - random ``(u, w, V)``
  resolution grids through :func:`_recursion_batch` match the scalar
  :func:`finite_horizon_recursion` row by row;
* example pins on real tabulated distributions - mixed intervals,
  strengths and temperatures in one batch reproduce the scalar solver
  within the ``surrogate_batch`` tolerance.

The rest exercises how the kernel routes through its propagation memo:
memory hits, disk round-trips, corrupted or invalid entries recomputed,
eviction, and within-call dedup, all leaving the numbers untouched.  The
store underneath is tested once, for both caches, in ``test_cache.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.params import CellSpec
from repro.sim import renewal_batch
from repro.sim.analytic import CrossingDistribution
from repro.sim.renewal_batch import (
    PROPAGATIONS,
    SURROGATE_MEMO_COUNTERS,
    RenewalTask,
    _recursion_batch,
    clear_propagation_cache,
    finite_horizon_batch,
    propagation_cache_key,
)
from repro.verify.equivalence import finite_horizon_recursion, scalar_finite_horizon

#: Module-scope tabulations (~100 ms each); the tests quantify over
#: policy points and batching shapes, not over cell physics.
DISTRIBUTION = CrossingDistribution(CellSpec())
HOT = CrossingDistribution(CellSpec(), temperature_k=330.0)
#: A second tabulation equal in content to ``DISTRIBUTION``.
TWIN = CrossingDistribution(CellSpec())

#: The batch kernel reproduces the scalar float ops up to summation
#: order; the verify law pins 1e-9 and observed gaps sit around 1e-15.
REL_TOL = 1e-9


@pytest.fixture(autouse=True)
def _fresh_propagation_memo():
    """Each test starts with a cold in-process memo and zero counters."""
    clear_propagation_cache()
    yield
    clear_propagation_cache()


def _task(
    distribution=DISTRIBUTION,
    cells_per_line: int = 256,
    interval: float = 2 * units.HOUR,
    t_ecc: int = 3,
    threshold: int = 2,
) -> RenewalTask:
    return RenewalTask(
        distribution=distribution,
        cells_per_line=cells_per_line,
        interval=interval,
        t_ecc=t_ecc,
        threshold=threshold,
    )


# -- the recursion law -----------------------------------------------------------


@st.composite
def resolution_grids(draw):
    """Random ``(R, V)`` resolution stacks with per-visit ``u + w <= 1``."""
    rows = draw(st.integers(min_value=1, max_value=4))
    visits = draw(st.integers(min_value=1, max_value=12))
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    u = np.empty((rows, visits))
    w = np.empty((rows, visits))
    for r in range(rows):
        for v in range(visits):
            mass = draw(unit)
            split = draw(unit)
            u[r, v] = mass * split
            w[r, v] = mass * (1.0 - split)
    return u, w


@given(resolution_grids())
def test_recursion_batch_matches_scalar_reference(grids):
    u, w = grids
    n_ue, n_write, no_ue = _recursion_batch(u, w)
    for r in range(u.shape[0]):
        ue_ref, write_ref, q_ref = finite_horizon_recursion(
            list(u[r]), list(w[r]), u.shape[1]
        )
        assert n_ue[r] == pytest.approx(ue_ref, rel=REL_TOL, abs=1e-12)
        assert n_write[r] == pytest.approx(write_ref, rel=REL_TOL, abs=1e-12)
        assert no_ue[r] == pytest.approx(q_ref, rel=REL_TOL, abs=1e-12)
        assert 0.0 <= no_ue[r] <= 1.0


# -- kernel vs scalar solver on real distributions -------------------------------


class TestKernelParity:
    def test_mixed_batch_matches_scalar_solver(self):
        horizon = 3 * units.DAY
        tasks = [
            _task(interval=2 * units.HOUR, t_ecc=3, threshold=2),
            _task(interval=4 * units.HOUR, t_ecc=4, threshold=3),
            _task(distribution=HOT, interval=2 * units.HOUR, t_ecc=3, threshold=2),
            _task(distribution=HOT, interval=6 * units.HOUR, t_ecc=4, threshold=2,
                  cells_per_line=128),
        ]
        batch = finite_horizon_batch(tasks, horizon)
        for solution, scalar in zip(batch, scalar_finite_horizon(tasks, horizon)):
            assert solution.visits == scalar.visits
            assert solution.interval == scalar.interval
            assert solution.expected_ue == pytest.approx(
                scalar.expected_ue, rel=REL_TOL
            )
            assert solution.expected_writes == pytest.approx(
                scalar.expected_writes, rel=REL_TOL
            )
            assert solution.no_ue_probability == pytest.approx(
                scalar.no_ue_probability, rel=REL_TOL
            )

    def test_order_preserved_and_chunking_invariant(self):
        horizon = 2 * units.DAY
        tasks = [
            _task(interval=units.HOUR * h, t_ecc=4, threshold=t)
            for h in (1, 2, 3)
            for t in (1, 2, 3)
        ]
        whole = finite_horizon_batch(tasks, horizon)
        split = finite_horizon_batch(tasks[:4], horizon) + finite_horizon_batch(
            tasks[4:], horizon
        )
        assert [s.interval for s in whole] == [t.interval for t in tasks]
        for a, b in zip(whole, split):
            assert a == b  # bit-identical, not approx: same per-row float ops

    def test_zero_visit_tasks_short_circuit(self):
        solution = finite_horizon_batch(
            [_task(interval=10 * units.DAY)], horizon=units.DAY
        )[0]
        assert solution.visits == 0
        assert solution.expected_ue == 0.0
        assert solution.expected_writes == 0.0
        assert solution.no_ue_probability == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_horizon_batch([_task()], horizon=0.0)
        with pytest.raises(ValueError):
            _task(cells_per_line=0)
        with pytest.raises(ValueError):
            _task(interval=-1.0)
        with pytest.raises(ValueError):
            _task(t_ecc=2, threshold=3)
        with pytest.raises(ValueError, match="interval .* got nan"):
            _task(interval=math.nan)
        for horizon in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"horizon .* got {horizon}"):
                finite_horizon_batch([_task()], horizon=horizon)

    def test_empty_task_list(self):
        assert finite_horizon_batch([], horizon=units.DAY) == []


# -- equal tasks -----------------------------------------------------------------


def _distinct_tasks() -> list[RenewalTask]:
    """Pairwise-distinct tasks over three visit grids."""
    return [
        _task(),
        _task(distribution=HOT),
        _task(interval=4 * units.HOUR),
        _task(t_ecc=4, threshold=3),
        _task(distribution=HOT, cells_per_line=128),
    ]


class TestEqualTasks:
    """Equal tasks are solved once; the answers are those of each alone."""

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12), st.booleans())
    def test_duplicates_in_any_order_match_each_task_alone(self, picks, twin):
        distinct = _distinct_tasks()
        alone = [finite_horizon_batch([task], units.DAY)[0] for task in distinct]
        # Equal tasks built separately, on a separately tabulated twin of
        # the distribution: equality is by content, not identity.
        rebuilt = [
            RenewalTask(
                TWIN if twin and task.distribution is DISTRIBUTION
                else task.distribution,
                task.cells_per_line, task.interval, task.t_ecc, task.threshold,
            )
            for task in distinct
        ]
        tasks = [rebuilt[pick] for pick in picks]
        assert finite_horizon_batch(tasks, units.DAY) == [alone[pick] for pick in picks]

    def test_memo_counters_move_by_distinct_keys(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        distinct = _distinct_tasks()
        tasks = [distinct[i] for i in (3, 0, 0, 4, 3, 0, 1, 2, 2, 4, 0)]
        finite_horizon_batch(tasks, units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == len(distinct)
        finite_horizon_batch(tasks, units.DAY)
        assert SURROGATE_MEMO_COUNTERS["memory"] == len(distinct)
        assert SURROGATE_MEMO_COUNTERS["computed"] == len(distinct)

    def test_task_gauge_reports_every_input_task(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        tasks = [_task()] * 7 + [_task(interval=4 * units.HOUR)]
        finite_horizon_batch(tasks, units.DAY)
        assert GLOBAL_REGISTRY.gauge("surrogate_batch_tasks").value == len(tasks)
        assert GLOBAL_REGISTRY.gauge("surrogate_batch_propagations").value == 2


# -- the propagation memo --------------------------------------------------------


class TestPropagationMemo:
    def test_duplicate_tasks_share_one_propagation(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        tasks = [_task()] * 5 + [_task(interval=4 * units.HOUR)]
        finite_horizon_batch(tasks, horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == 2
        assert SURROGATE_MEMO_COUNTERS["memory"] == 0

    def test_second_call_hits_memory(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        tasks = [_task(), _task(interval=4 * units.HOUR)]
        first = finite_horizon_batch(tasks, horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == 2
        second = finite_horizon_batch(tasks, horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["memory"] == 2
        assert SURROGATE_MEMO_COUNTERS["computed"] == 2
        assert first == second

    def test_disk_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        task = _task()
        finite_horizon_batch([task], horizon=units.DAY)
        key = propagation_cache_key(
            task, visits=12, tolerance=1e-12
        )
        assert PROPAGATIONS.path(key) == tmp_path / f"renewal-{key}.npz"
        assert PROPAGATIONS.path(key).exists()
        # A cold in-process memo now loads from disk instead of computing.
        clear_propagation_cache()
        finite_horizon_batch([task], horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["disk"] == 1
        assert SURROGATE_MEMO_COUNTERS["computed"] == 0

    def test_corrupted_disk_entry_degrades_to_recompute(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        task = _task()
        baseline = finite_horizon_batch([task], horizon=units.DAY)
        key = propagation_cache_key(task, visits=12, tolerance=1e-12)
        PROPAGATIONS.path(key).write_bytes(b"not an npz")
        clear_propagation_cache()
        again = finite_horizon_batch([task], horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == 1
        assert SURROGATE_MEMO_COUNTERS["disk"] == 0
        assert again == baseline

    def test_invalid_probabilities_on_disk_are_recomputed(self, monkeypatch, tmp_path):
        # The propagation cache's own check: finite but impossible
        # resolution probabilities (negative, or u + w > 1) are a miss.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        task = _task()
        baseline = finite_horizon_batch([task], horizon=units.DAY)
        key = propagation_cache_key(task, visits=12, tolerance=1e-12)
        u, w = PROPAGATIONS.get(key)
        for bad_u, bad_w in ((u - 1.0, w), (u + 0.6, w + 0.6)):
            PROPAGATIONS.save(key, (bad_u, bad_w))
            clear_propagation_cache()
            again = finite_horizon_batch([task], horizon=units.DAY)
            assert SURROGATE_MEMO_COUNTERS["computed"] == 1
            assert SURROGATE_MEMO_COUNTERS["disk"] == 0
            assert again == baseline

    def test_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        monkeypatch.setattr(renewal_batch.PROPAGATIONS, "capacity", 2)
        intervals = [units.HOUR, 2 * units.HOUR, 3 * units.HOUR]
        for interval in intervals:
            finite_horizon_batch([_task(interval=interval)], horizon=units.DAY)
        assert len(renewal_batch.PROPAGATIONS) == 2
        # The first interval's entry was evicted; reusing it recomputes.
        finite_horizon_batch([_task(interval=units.HOUR)], horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == 4

    def test_key_separates_every_dimension(self):
        base = _task()
        visits, tolerance = 12, 1e-12
        reference = propagation_cache_key(base, visits, tolerance)
        variants = [
            propagation_cache_key(_task(interval=units.HOUR), visits, tolerance),
            propagation_cache_key(_task(t_ecc=4, threshold=2), visits, tolerance),
            propagation_cache_key(_task(threshold=3, t_ecc=3), visits, tolerance),
            propagation_cache_key(_task(cells_per_line=128), visits, tolerance),
            propagation_cache_key(_task(distribution=HOT), visits, tolerance),
            propagation_cache_key(base, visits + 1, tolerance),
            propagation_cache_key(base, visits, 1e-9),
        ]
        assert reference not in variants
        assert len(set(variants)) == len(variants)
