"""Service-scope crash/resume identity and streaming-report guarantees.

The acceptance contract: for worker pools of 1, 2, and 4, and under
SIGKILL of a worker mid-shard or mid-device (between engine events, via
the EngineSnapshot file), a repaired and resumed campaign produces a
FleetReport byte-identical to the uninterrupted batch ``run_campaign``
of the same spec - and streaming ``status`` views are monotone, with the
final streamed report equal to the batch one.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import units
from repro.fleet import FleetSpec, Lot, LotParameter, run_campaign
from repro.fleet.checkpoint import open_journal
from repro.service import (
    ServeFailed,
    campaign_status,
    final_report,
    jobs,
    leases,
    repair_campaign,
    run_worker,
    serve_campaign,
    submit_campaign,
    supervisor,
    watch_campaign,
)
from repro.service.jobs import load_campaign
from repro.service.supervisor import _worker_main
from repro.service.worker import run_shard
from repro.sim.config import SimulationConfig


def make_spec(devices=6, horizon=units.DAY, fast_forward=True) -> FleetSpec:
    return FleetSpec(
        name="svc-test",
        devices=devices,
        policy="threshold",
        policy_kwargs={"interval": 4 * units.HOUR, "strength": 3, "threshold": 1},
        base_config=SimulationConfig(
            num_lines=256,
            region_size=256,
            horizon=horizon,
            seed=2012,
            endurance=None,
            fast_forward=fast_forward,
        ),
        lots=(
            Lot(name="a", weight=2, nu_mu_scale=LotParameter(1.0, 0.05, low=0.0)),
            Lot(name="b", weight=1, nu_sigma_scale=LotParameter(1.2, 0.1, low=0.0)),
        ),
        demand_write_rate=0.05,
    )


def batch_report_json(spec) -> str:
    return run_campaign(spec, jobs=1).report.to_json()


class TestPoolIdentity:
    def test_single_worker_matches_batch(self, tmp_path):
        spec = make_spec()
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=3)
        run_worker(root, worker_id="solo")
        assert final_report(root).to_json() == batch_report_json(spec)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_pool_matches_batch(self, tmp_path, workers):
        spec = make_spec()
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=workers * 2)
        summary = serve_campaign(root, workers=workers, lease_timeout=10.0)
        assert summary["finished"]
        assert final_report(root).to_json() == batch_report_json(spec)


def _wait_for(predicate, timeout=120.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestKillResumeIdentity:
    def _spawn_victim(self, root, snapshot_budget):
        context = multiprocessing.get_context("spawn")
        process = context.Process(
            target=_worker_main,
            args=(str(root), "victim", 30.0, snapshot_budget),
        )
        process.start()
        return process

    def test_sigkill_mid_shard_then_repair_resume(self, tmp_path):
        spec = make_spec()
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=2)
        campaign = load_campaign(root)

        victim = self._spawn_victim(root, snapshot_budget=256)

        def journal_has_progress():
            records = {}
            for shard in campaign.shards:
                try:
                    records.update(campaign.shard_records(shard))
                except Exception:
                    pass
            return 0 < len(records) < spec.devices

        assert _wait_for(journal_has_progress), "victim made no journal progress"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        assert victim.exitcode == -signal.SIGKILL

        repaired = repair_campaign(root, lease_timeout=0.0)
        run_worker(root, worker_id="successor", lease_timeout=0.5)
        assert final_report(root).to_json() == batch_report_json(spec)
        # The kill landed mid-shard, so the lease was genuinely orphaned
        # unless the victim died between shards - tolerate both, but the
        # report identity above must hold regardless.
        assert isinstance(repaired["leases_broken"], list)

    def test_sigkill_mid_device_resumes_from_snapshot(self, tmp_path):
        # Long horizon + no fast-forward: hundreds of engine events per
        # device, so with a small snapshot budget the "snapshot exists,
        # device unfinished" window spans nearly the whole device run and
        # the SIGKILL lands mid-device.  A worker can still finish a
        # device between our glob and the kill, so retry with a fresh
        # victim if the snapshot turns out to be a completed device's.
        spec = make_spec(horizon=30 * units.DAY, fast_forward=False)
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=3)
        campaign = load_campaign(root)
        snapshots = campaign.snapshots_dir

        def journaled():
            done = {}
            for shard in campaign.shards:
                try:
                    done.update(campaign.shard_records(shard))
                except Exception:
                    pass
            return done

        killed_mid_device = False
        for _ in range(3):
            victim = self._spawn_victim(root, snapshot_budget=8)
            appeared = _wait_for(
                lambda: any(snapshots.glob("device-*.npz")), interval=0.001
            )
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            assert appeared, "no mid-device snapshot appeared to kill against"
            orphans = {
                int(path.stem.split("-", 1)[1])
                for path in snapshots.glob("device-*.npz")
            }
            if orphans - set(journaled()):
                killed_mid_device = True
                break
            repair_campaign(root, lease_timeout=0.0)
        assert killed_mid_device, "kill never landed mid-device in 3 tries"

        repair_campaign(root, lease_timeout=0.0)
        run_worker(root, worker_id="successor", lease_timeout=0.5,
                   snapshot_budget=8)
        assert final_report(root).to_json() == batch_report_json(spec)


class TestStreaming:
    def test_status_is_monotone_and_final_equals_batch(self, tmp_path):
        spec = make_spec()
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=3)
        campaign = load_campaign(root)

        seen = [campaign_status(root)]
        assert seen[0]["devices_done"] == 0 and seen[0]["report"] is None
        for shard in campaign.shards:
            run_shard(campaign, shard)
            seen.append(campaign_status(root))

        counts = [status["devices_done"] for status in seen]
        assert counts == sorted(counts), "devices_done must be monotone"
        report_devices = [
            status["report"]["devices"]
            for status in seen
            if status["report"] is not None
        ]
        assert report_devices == sorted(report_devices)

        final = seen[-1]
        assert final["finished"]
        assert json.dumps(final["report"], indent=2) == batch_report_json(spec)

    def test_status_poll_never_sees_a_half_created_journal(
        self, tmp_path, monkeypatch
    ):
        # Regression: a worker used to create its shard journal before
        # writing the header into it, and a status poll landing in between
        # raised CheckpointError ("is empty"), failing serve_campaign.
        # Poll at every serialization and fsync of a shard run instead.
        spec = make_spec(devices=2)
        root = tmp_path / "camp"
        campaign = submit_campaign(spec, root, shards=1)
        real_dumps, real_fsync = json.dumps, os.fsync
        polls, failures, busy = [], [], []

        def poll():
            if busy:
                return  # the poll's own serialization
            busy.append(True)
            try:
                polls.append(campaign_status(root, include_report=False))
            except Exception as error:
                failures.append(error)
            finally:
                busy.clear()

        def dumps(*args, **kwargs):
            poll()
            return real_dumps(*args, **kwargs)

        def fsync(fd):
            poll()
            return real_fsync(fd)

        monkeypatch.setattr(json, "dumps", dumps)
        monkeypatch.setattr(os, "fsync", fsync)
        run_shard(campaign, campaign.shards[0])
        monkeypatch.undo()
        assert failures == []
        assert len(polls) > 2
        assert campaign_status(root)["finished"]

    def test_watch_returns_final_status(self, tmp_path):
        spec = make_spec(devices=3)
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=1)
        campaign = load_campaign(root)
        run_shard(campaign, campaign.shards[0])
        polls = []
        status = watch_campaign(
            root, interval=0.01, timeout=30.0, on_status=polls.append
        )
        assert status["finished"] and len(polls) >= 1

    def test_watch_timeout_raises(self, tmp_path):
        spec = make_spec(devices=3)
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=1)
        with pytest.raises(TimeoutError):
            watch_campaign(root, interval=0.01, timeout=0.05)


def _counting(calls: list, function):
    def counted(*args, **kwargs):
        calls.append(multiprocessing.active_children())
        return function(*args, **kwargs)

    return counted


class TestScheduling:
    """The schedulers decide from exit codes and shard markers, not journals."""

    def test_serve_reads_status_once_after_its_workers(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "camp"
        submit_campaign(make_spec(devices=4), root, shards=2)
        calls = []
        monkeypatch.setattr(
            supervisor, "campaign_status",
            _counting(calls, supervisor.campaign_status),
        )
        summary = serve_campaign(root, workers=2, lease_timeout=10.0)
        assert summary["finished"] and summary["worker_deaths"] == 0
        # One call, and no worker was alive when it was made.
        assert calls == [[]]

    def test_lost_marker_is_restored_without_rerunning(self, tmp_path):
        root = tmp_path / "camp"
        campaign = submit_campaign(make_spec(devices=4), root, shards=2)
        first = campaign.shards[0]
        run_shard(campaign, first)
        journal = campaign.journal_path(first).read_bytes()
        # A kill between the shard's last append and its marker.
        campaign.marker_path(first).unlink()
        outcome = run_worker(root, worker_id="w", wait_for_complete=False)
        assert outcome["shards"] == [0, 1]
        assert outcome["devices_executed"] == campaign.shards[1].count
        marker = json.loads(campaign.marker_path(first).read_text())
        assert marker["executed"] == 0
        assert campaign.journal_path(first).read_bytes() == journal

    def test_claim_scan_reads_no_journal(self, tmp_path, monkeypatch):
        spec = make_spec(devices=4)
        root = tmp_path / "camp"
        campaign = submit_campaign(spec, root, shards=2)
        run_shard(campaign, campaign.shards[0])
        pending = campaign.shards[1]
        open_journal(campaign.journal_path(pending), campaign.spec_hash, spec.name)
        assert leases.try_acquire(campaign.lease_path(pending), "holder")

        def no_journal(*args, **kwargs):
            raise AssertionError("the claim scan read a journal")

        monkeypatch.setattr(jobs, "load_journal", no_journal)
        outcome = run_worker(root, worker_id="scanner", wait_for_complete=False)
        assert outcome["shards"] == [] and outcome["devices_executed"] == 0

    def test_dead_workers_are_repaired_replaced_then_serve_fails(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "camp"
        campaign = submit_campaign(make_spec(devices=3), root, shards=1)
        # Every worker dies resuming device 0 from this snapshot.
        campaign.snapshot_path(0).write_bytes(b"not a snapshot")
        repairs = []
        monkeypatch.setattr(
            supervisor, "repair_campaign",
            _counting(repairs, supervisor.repair_campaign),
        )
        with pytest.raises(
            ServeFailed,
            match=r"3 devices pending \(2 worker deaths, restart budget 1\)",
        ):
            serve_campaign(root, workers=1, max_restarts=1, lease_timeout=10.0)
        # The first death is repaired and replaced, the second only repaired.
        assert repairs == [[], []]


class TestRepair:
    def test_sweeps_snapshots_of_journaled_devices(self, tmp_path):
        spec = make_spec(devices=3)
        root = tmp_path / "camp"
        submit_campaign(spec, root, shards=1)
        campaign = load_campaign(root)
        run_shard(campaign, campaign.shards[0])
        # Fabricate the kill-between-append-and-unlink leftover.
        orphan = campaign.snapshot_path(0)
        orphan.write_bytes(b"stale snapshot bytes")
        outcome = repair_campaign(root)
        assert outcome["snapshots_swept"] == [0]
        assert not orphan.exists()

    def test_fresh_lease_survives_repair(self, tmp_path):
        from repro.service.leases import try_acquire

        spec = make_spec(devices=3)
        root = tmp_path / "camp"
        campaign = submit_campaign(spec, root, shards=1)
        lease_path = campaign.lease_path(campaign.shards[0])
        assert try_acquire(lease_path, "alive") is not None
        outcome = repair_campaign(root, lease_timeout=60.0)
        assert outcome["leases_broken"] == []
        assert lease_path.exists()
