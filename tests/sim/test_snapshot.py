"""EngineSnapshot suite: mid-horizon suspend/resume must be bit-exact.

The contract under test (the service's hard core): an engine suspended
at *any* event boundary, serialized through a file, restored into a
freshly built engine, and run to completion produces byte-identical
results to the uninterrupted run - for both engines, with fast-forward
on and off, idle and under demand.  Plus the compatibility guard: a
snapshot must refuse to restore into the wrong campaign, device,
engine, or format version.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.core import adaptive_scrub, basic_scrub
from repro.sim import (
    EngineSnapshot,
    SimulationConfig,
    SnapshotError,
    build_engine,
    finalize_result,
    run_experiment,
)
from repro.sim.snapshot import run_resumable
from repro.workloads import uniform_rates


def _config(engine: str, fast_forward: bool) -> SimulationConfig:
    return SimulationConfig(
        num_lines=128,
        region_size=64,
        horizon=12 * units.HOUR,
        seed=7,
        endurance=None,
        engine=engine,
        fast_forward=fast_forward,
    )


def _fingerprint(result):
    return (
        result.stats.summary(),
        result.final_state,
        dict(result.stats.ledger.energy),
        result.stats.error_histogram.tolist(),
    )


def _run_with_suspension(policy_factory, config, rates, budget, fingerprint):
    """Run to the first suspension at ``budget`` events, round-trip the
    snapshot through a fresh engine, finish, and return the result."""
    engine = build_engine(policy_factory(), config, rates)
    engine.simulate(budget=budget)
    if engine.complete:
        return None  # fewer than `budget` events total; nothing to suspend
    snapshot = EngineSnapshot.capture(engine, fingerprint=fingerprint)

    resumed = build_engine(policy_factory(), config, rates)
    snapshot.apply(resumed, fingerprint=fingerprint)
    resumed.simulate()
    assert resumed.complete
    return finalize_result(resumed, policy_factory(), config, elapsed=0.0)


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize("fast_forward", [False, True])
class TestEveryBoundaryIdentity:
    def test_suspend_resume_at_every_boundary(self, engine, fast_forward):
        config = _config(engine, fast_forward)
        policy = lambda: basic_scrub(interval=units.HOUR)  # noqa: E731
        baseline = _fingerprint(run_experiment(policy(), config))

        boundaries = 0
        for budget in range(0, 500):
            result = _run_with_suspension(
                policy, config, None, budget, fingerprint="t/every-boundary"
            )
            if result is None:
                break  # ran to completion: every boundary has been covered
            boundaries += 1
            assert _fingerprint(result) == baseline, f"diverged at event {budget}"
        else:
            pytest.fail("run never completed within 500 events")
        assert boundaries >= 2  # the loop genuinely exercised suspensions

    def test_under_demand_and_adaptive_policy(self, engine, fast_forward):
        config = _config(engine, fast_forward)
        rates = uniform_rates(config.num_lines, total_write_rate=0.05)
        policy = lambda: adaptive_scrub(interval=units.HOUR)  # noqa: E731
        baseline = _fingerprint(run_experiment(policy(), config, rates))
        # A few representative boundaries rather than the full sweep: the
        # adaptive controller state and demand accounting ride in the
        # snapshot, which is what this case pins down.
        for budget in (1, 3, 7):
            result = _run_with_suspension(
                policy, config, rates, budget, fingerprint="t/demand"
            )
            if result is None:
                break
            assert _fingerprint(result) == baseline


class TestSnapshotFile:
    def test_file_round_trip_identity(self, tmp_path):
        config = _config("scalar", True)
        baseline = _fingerprint(run_experiment(basic_scrub(interval=units.HOUR), config))

        engine = build_engine(basic_scrub(interval=units.HOUR), config)
        engine.simulate(budget=5)
        assert not engine.complete
        path = tmp_path / "snap.npz"
        EngineSnapshot.capture(engine, fingerprint="t/file").save(path)

        resumed = build_engine(basic_scrub(interval=units.HOUR), config)
        EngineSnapshot.load(path).apply(resumed, fingerprint="t/file")
        resumed.simulate()
        result = finalize_result(
            resumed, basic_scrub(interval=units.HOUR), config, elapsed=0.0
        )
        assert _fingerprint(result) == baseline

    def test_corrupt_file_raises_snapshot_error(self, tmp_path):
        path = tmp_path / "snap.npz"
        path.write_bytes(b"not an npz")
        with pytest.raises(SnapshotError):
            EngineSnapshot.load(path)

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            EngineSnapshot.load(tmp_path / "absent.npz")


class TestCompatibilityGuard:
    def _suspended(self, config):
        engine = build_engine(basic_scrub(interval=units.HOUR), config)
        engine.simulate(budget=3)
        assert not engine.complete
        return engine

    def test_fingerprint_mismatch_refused(self):
        config = _config("scalar", False)
        snapshot = EngineSnapshot.capture(
            self._suspended(config), fingerprint="campaign-a/device-0"
        )
        fresh = build_engine(basic_scrub(interval=units.HOUR), config)
        with pytest.raises(SnapshotError, match="refusing to resume"):
            snapshot.apply(fresh, fingerprint="campaign-b/device-0")

    def test_engine_mode_mismatch_refused(self):
        scalar = _config("scalar", False)
        batch = _config("batch", False)
        snapshot = EngineSnapshot.capture(
            self._suspended(scalar), fingerprint="t/mode"
        )
        fresh = build_engine(basic_scrub(interval=units.HOUR), batch)
        with pytest.raises(SnapshotError, match="engine"):
            snapshot.apply(fresh, fingerprint="t/mode")

    def test_version_mismatch_refused(self, tmp_path):
        config = _config("scalar", False)
        snapshot = EngineSnapshot.capture(
            self._suspended(config), fingerprint="t/version"
        )
        snapshot.meta["version"] = 999
        path = tmp_path / "snap.npz"
        snapshot.save(path)
        with pytest.raises(SnapshotError, match="version"):
            EngineSnapshot.load(path)

    def test_started_engine_refused_as_target(self):
        config = _config("scalar", False)
        snapshot = EngineSnapshot.capture(
            self._suspended(config), fingerprint="t/started"
        )
        target = self._suspended(config)
        with pytest.raises(SnapshotError):
            snapshot.apply(target, fingerprint="t/started")

    def test_completed_engine_refused_as_source(self):
        config = _config("scalar", False)
        engine = build_engine(basic_scrub(interval=units.HOUR), config)
        engine.simulate()
        assert engine.complete
        with pytest.raises(SnapshotError):
            EngineSnapshot.capture(engine, fingerprint="t/complete")


class TestRunResumable:
    def test_checkpointed_run_matches_straight_run(self, tmp_path):
        config = _config("scalar", True)
        baseline = _fingerprint(run_experiment(basic_scrub(interval=units.HOUR), config))
        checkpoints = []
        result = run_resumable(
            basic_scrub(interval=units.HOUR),
            config,
            snapshot_path=tmp_path / "snap.npz",
            fingerprint="t/resumable",
            snapshot_budget=4,
            on_checkpoint=lambda: checkpoints.append(1),
        )
        assert _fingerprint(result) == baseline
        assert len(checkpoints) >= 1

    def test_resume_from_existing_snapshot(self, tmp_path):
        config = _config("batch", False)
        baseline = _fingerprint(run_experiment(basic_scrub(interval=units.HOUR), config))
        path = tmp_path / "snap.npz"

        # First invocation: stop after one checkpoint (simulated kill).
        class _Stop(Exception):
            pass

        def _bail():
            raise _Stop

        with pytest.raises(_Stop):
            run_resumable(
                basic_scrub(interval=units.HOUR),
                config,
                snapshot_path=path,
                fingerprint="t/kill",
                snapshot_budget=3,
                on_checkpoint=_bail,
            )
        assert path.exists()

        # Second invocation resumes mid-horizon and must finish identically.
        result = run_resumable(
            basic_scrub(interval=units.HOUR),
            config,
            snapshot_path=path,
            fingerprint="t/kill",
            snapshot_budget=3,
        )
        assert _fingerprint(result) == baseline
