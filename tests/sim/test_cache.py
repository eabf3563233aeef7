"""The content-keyed array cache, tested once for both of its instances.

Tabulated crossing distributions (:data:`repro.sim.runner.TABULATIONS`)
and renewal propagations (:data:`repro.sim.renewal_batch.PROPAGATIONS`)
are two :class:`~repro.sim.cache.ArrayCache` instances, so every store
behaviour - the disk layer's round trip and its degradation to a miss,
racing writers, the environment switches, the LRU, the counters and
``clear`` - is checked here against each of them.  How each owner routes
a request through the store (which counter it lands on, key separation,
within-call dedup) stays with the owner's tests.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro import units
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.params import CellSpec
from repro.sim.analytic import TABULATION_POINTS, CrossingDistribution, tabulation_cache_key
from repro.sim.cache import ArrayCache, cache_dir
from repro.sim.renewal_batch import (
    PROPAGATIONS,
    SURROGATE_MEMO_COUNTERS,
    RenewalTask,
    finite_horizon_batch,
    propagation_cache_key,
)
from repro.sim.runner import (
    DISTRIBUTION_CACHE_COUNTERS,
    TABULATIONS,
    cached_crossing_distribution,
)


@dataclass(frozen=True)
class Case:
    """One store instance plus a valid entry for it."""

    store: ArrayCache
    key: str
    arrays: tuple[np.ndarray, ...]

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        return [array.shape for array in self.arrays]

    def other_key(self) -> str:
        return hashlib.sha256(f"other-{self.key}".encode()).hexdigest()


def _tabulation_case() -> Case:
    grid = np.logspace(-2.0, 12.0, TABULATION_POINTS)
    per_level = np.linspace(0.0, 1.0, 4 * TABULATION_POINTS).reshape(4, -1)
    return Case(TABULATIONS, hashlib.sha256(b"tabulation").hexdigest(), (grid, per_level))


def _propagation_case() -> Case:
    u = np.linspace(0.0, 0.1, 12)
    w = np.linspace(0.2, 0.0, 12)
    return Case(PROPAGATIONS, hashlib.sha256(b"propagation").hexdigest(), (u, w))


CASES = {"tabulations": _tabulation_case, "propagations": _propagation_case}


@pytest.fixture(params=sorted(CASES))
def case(request, monkeypatch, tmp_path) -> Case:
    """A cold instance persisting into this test's own directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    made = CASES[request.param]()
    made.store.clear()
    yield made
    made.store.clear()


def _assert_same(loaded, arrays) -> None:
    assert loaded is not None
    assert len(loaded) == len(arrays)
    for got, want in zip(loaded, arrays):
        assert np.array_equal(got, want)


class TestDirectory:
    def test_override_default_and_disable(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_dir() == tmp_path
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert cache_dir() == Path.home() / ".cache" / "repro"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert cache_dir() is None


class TestDiskLayer:
    def test_round_trip(self, case, tmp_path):
        path = case.store.save(case.key, case.arrays)
        assert path == tmp_path / f"{case.store.prefix}-{case.key}.npz"
        _assert_same(case.store.load(case.key, case.shapes), case.arrays)
        assert case.store.counters["disk"] == 1

    def test_absent_file_is_a_miss(self, case):
        assert case.store.load(case.key, case.shapes) is None
        assert case.store.counters["disk"] == 0

    def test_corrupt_file_is_a_miss(self, case):
        case.store.path(case.key).write_bytes(b"not an npz archive")
        assert case.store.load(case.key, case.shapes) is None
        assert case.store.counters["disk"] == 0

    def test_stale_key_is_a_miss(self, case):
        # A file whose embedded key disagrees with its name (stale format
        # or a collision) must not be trusted.
        other = case.other_key()
        case.store.save(case.key, case.arrays).rename(case.store.path(other))
        assert case.store.load(other, case.shapes) is None

    def test_shape_mismatch_is_a_miss(self, case):
        case.store.save(case.key, case.arrays)
        wrong = [(shape[0] + 1,) + shape[1:] for shape in case.shapes]
        assert case.store.load(case.key, wrong) is None

    def test_missing_member_is_a_miss(self, case):
        np.savez(case.store.path(case.key), key=np.array(case.key),
                 **{case.store.members[0]: case.arrays[0]})
        assert case.store.load(case.key, case.shapes) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arrays_are_a_miss(self, case, bad):
        poisoned = tuple(array.copy() for array in case.arrays)
        poisoned[0].flat[0] = bad
        case.store.save(case.key, poisoned)
        assert case.store.load(case.key, case.shapes) is None

    def test_concurrent_writers_never_expose_a_partial_file(self, case, tmp_path):
        # Many writers publishing one key while readers poll: every read is
        # a clean miss or the whole entry, and no temp file is left behind.
        start = threading.Barrier(6)
        errors: list[BaseException] = []

        def writer():
            try:
                start.wait()
                for _ in range(5):
                    assert case.store.save(case.key, case.arrays) is not None
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        def reader():
            try:
                start.wait()
                for _ in range(25):
                    loaded = case.store.load(case.key, case.shapes)
                    if loaded is not None:
                        _assert_same(loaded, case.arrays)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        _assert_same(case.store.load(case.key, case.shapes), case.arrays)
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_unwritable_directory_is_skipped(self, case, monkeypatch, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        assert case.store.save(case.key, case.arrays) is None
        assert case.store.load(case.key, case.shapes) is None

    def test_env_disables_persistence(self, case, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert case.store.path(case.key) is None
        assert case.store.save(case.key, case.arrays) is None
        assert case.store.load(case.key, case.shapes) is None
        assert list(tmp_path.iterdir()) == []


class TestMemoryLayer:
    def test_lru_bound_and_recency(self, case, monkeypatch):
        monkeypatch.setattr(case.store, "capacity", 2)
        case.store.put("a", case.arrays)
        case.store.put("b", case.arrays)
        assert case.store.get("a") is case.arrays  # "a" is now most recent
        case.store.put("c", case.arrays)
        assert len(case.store) == 2
        assert case.store.get("b") is None  # the least recently used went
        assert case.store.get("a") is case.store.get("c") is case.arrays

    def test_counters(self, case):
        assert case.store.get(case.key) is None
        assert case.store.load(case.key, case.shapes) is None
        # Misses count nothing here: the owner counts what it computes.
        assert set(case.store.counters.values()) == {0}
        case.store.save(case.key, case.arrays)
        case.store.put(case.key, case.store.load(case.key, case.shapes))
        case.store.get(case.key)
        assert (case.store.counters["memory"], case.store.counters["disk"]) == (1, 1)

    def test_clear(self, case):
        case.store.put(case.key, case.arrays)
        case.store.save(case.key, case.arrays)
        case.store.get(case.key)
        case.store.clear()
        assert len(case.store) == 0
        assert set(case.store.counters.values()) == {0}
        # Only the in-process layer goes; the file still loads.
        _assert_same(case.store.load(case.key, case.shapes), case.arrays)


def test_owner_counter_groups_are_the_stores():
    assert DISTRIBUTION_CACHE_COUNTERS is TABULATIONS.counters
    assert SURROGATE_MEMO_COUNTERS is PROPAGATIONS.counters
    snapshot = GLOBAL_REGISTRY.snapshot()
    assert {"distribution_cache.tabulated", "surrogate_memo.computed"} <= set(snapshot)


class TestParentLayout:
    """Files written in the layout that predates the store load as disk hits."""

    def test_tabulation(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = CellSpec()
        fresh = CrossingDistribution(spec, temperature_k=300.0)
        key = tabulation_cache_key(spec, 300.0)
        np.savez(
            tmp_path / f"crossing-{key}.npz",
            key=np.array(key),
            grid=fresh.grid,
            per_level_cdf=fresh.per_level_cdf,
        )
        loaded = cached_crossing_distribution(spec, 300.0)
        assert DISTRIBUTION_CACHE_COUNTERS == {"memory": 0, "disk": 1, "tabulated": 0}
        assert np.array_equal(loaded.cdf_values, fresh.cdf_values)

    def test_propagation(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        task = RenewalTask(
            distribution=CrossingDistribution(CellSpec(), temperature_k=300.0),
            cells_per_line=256,
            interval=2 * units.HOUR,
            t_ecc=3,
            threshold=2,
        )
        PROPAGATIONS.clear()
        (expected,) = finite_horizon_batch([task], horizon=units.DAY)
        key = propagation_cache_key(task, visits=12, tolerance=1e-12)
        u, w = PROPAGATIONS.get(key)
        PROPAGATIONS.clear()
        monkeypatch.delenv("REPRO_NO_DISK_CACHE")
        np.savez(tmp_path / f"renewal-{key}.npz", key=np.array(key), u=u, w=w)
        (solution,) = finite_horizon_batch([task], horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS == {"memory": 0, "disk": 1, "computed": 0}
        assert solution == expected
        PROPAGATIONS.clear()
