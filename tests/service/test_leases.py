"""Lease protocol: exclusive claims, heartbeats, stale detection."""

from __future__ import annotations

import json
import os
import time

from repro.service.leases import (
    Lease,
    break_if_stale,
    read_lease,
    refresh,
    release,
    try_acquire,
)


class TestAcquire:
    def test_exclusive_create_single_winner(self, tmp_path):
        path = tmp_path / "shard-0000.json"
        first = try_acquire(path, "w1")
        assert first is not None and first.worker == "w1"
        assert try_acquire(path, "w2") is None
        assert read_lease(path).worker == "w1"

    def test_release_frees_the_slot(self, tmp_path):
        path = tmp_path / "lease.json"
        assert try_acquire(path, "w1") is not None
        release(path)
        assert try_acquire(path, "w2") is not None

    def test_release_is_idempotent(self, tmp_path):
        release(tmp_path / "never-existed.json")


class TestHeartbeat:
    def test_refresh_bumps_heartbeat_atomically(self, tmp_path):
        path = tmp_path / "lease.json"
        lease = try_acquire(path, "w1")
        time.sleep(0.01)
        refreshed = refresh(path, lease)
        assert refreshed.heartbeat > lease.heartbeat
        on_disk = read_lease(path)
        assert on_disk.heartbeat == refreshed.heartbeat
        assert on_disk.acquired == lease.acquired
        # No temp litter from the atomic rewrite.
        assert [p for p in tmp_path.iterdir()] == [path]

    def test_round_trip(self, tmp_path):
        lease = try_acquire(tmp_path / "lease.json", "w1")
        assert Lease.from_dict(json.loads(json.dumps(lease.to_dict()))) == lease
        assert read_lease(tmp_path / "lease.json") == lease

    def test_corrupt_lease_reads_as_none(self, tmp_path):
        path = tmp_path / "lease.json"
        path.write_text("{torn")
        assert read_lease(path) is None


class TestStaleness:
    def test_fresh_lease_not_stale(self, tmp_path):
        path = tmp_path / "lease.json"
        lease = try_acquire(path, "w1")
        assert not lease.is_stale(timeout=60.0)
        assert break_if_stale(path, timeout=60.0) is None
        assert path.exists()

    def test_expired_heartbeat_is_stale(self, tmp_path):
        path = tmp_path / "lease.json"
        lease = try_acquire(path, "w1")
        stale = Lease(
            worker=lease.worker,
            pid=lease.pid,
            host=lease.host,
            acquired=lease.acquired - 100.0,
            heartbeat=lease.heartbeat - 100.0,
        )
        path.write_text(json.dumps(stale.to_dict()))
        broken = break_if_stale(path, timeout=30.0)
        assert broken is not None and broken.worker == "w1"
        assert not path.exists()

    def test_dead_pid_on_this_host_is_stale(self, tmp_path):
        path = tmp_path / "lease.json"
        lease = try_acquire(path, "w1")
        # A pid from a process that no longer exists: fork and reap one.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        dead = Lease(
            worker="w1",
            pid=pid,
            host=lease.host,
            acquired=lease.acquired,
            heartbeat=lease.heartbeat,
        )
        path.write_text(json.dumps(dead.to_dict()))
        assert break_if_stale(path, timeout=1e9) is not None

    def test_other_host_judged_by_heartbeat_only(self, tmp_path):
        path = tmp_path / "lease.json"
        lease = try_acquire(path, "w1")
        remote = Lease(
            worker="w1",
            pid=1,  # pid 1 exists here, but the lease claims another host
            host="some-other-host",
            acquired=lease.acquired,
            heartbeat=lease.heartbeat,
        )
        path.write_text(json.dumps(remote.to_dict()))
        assert break_if_stale(path, timeout=1e9) is None


class TestMultiHostSmoke:
    """Two faked hostnames sharing one campaign directory.

    The lease protocol's cross-host story, end to end: a remote peer's
    *fresh* lease is respected no matter what its pid means locally
    (remote liveness is judged by heartbeat age only), a remote peer's
    *stale* lease is stolen, and a worker on a second host drains a
    campaign a first-host worker died holding.
    """

    @staticmethod
    def _set_host(monkeypatch, name: str) -> None:
        from repro.service import leases

        monkeypatch.setattr(leases.socket, "gethostname", lambda: name)

    def test_claim_heartbeat_steal_across_hosts(self, tmp_path, monkeypatch):
        path = tmp_path / "shard-0000.lease"

        self._set_host(monkeypatch, "host-a")
        lease_a = try_acquire(path, "worker-a")
        assert lease_a is not None and lease_a.host == "host-a"

        # host-b sees an exclusive claim it cannot take or break: the
        # heartbeat is fresh, and host-a's pid (alive or dead *there*)
        # must not be consulted here.
        self._set_host(monkeypatch, "host-b")
        assert try_acquire(path, "worker-b") is None
        assert break_if_stale(path, timeout=60.0) is None

        # A heartbeat refresh from host-a keeps the lease alive.
        self._set_host(monkeypatch, "host-a")
        refreshed = refresh(path, lease_a)
        assert refreshed.heartbeat >= lease_a.heartbeat

        # Once the heartbeat goes stale, host-b steals and takes over.
        self._set_host(monkeypatch, "host-b")
        time.sleep(0.05)
        broken = break_if_stale(path, timeout=0.01)
        assert broken is not None and broken.worker == "worker-a"
        lease_b = try_acquire(path, "worker-b")
        assert lease_b is not None and lease_b.host == "host-b"

    def test_dead_pid_only_matters_on_its_own_host(self, tmp_path, monkeypatch):
        path = tmp_path / "lease.json"
        self._set_host(monkeypatch, "host-a")
        lease = try_acquire(path, "worker-a")
        dead = Lease(
            worker="worker-a",
            pid=2_000_000_000,  # no such pid anywhere
            host="host-a",
            acquired=lease.acquired,
            heartbeat=lease.heartbeat,
        )
        path.write_text(json.dumps(dead.to_dict()))
        # Same host: the dead pid makes the lease immediately stale.
        assert break_if_stale(path, timeout=1e9) is not None
        # Remote host: the same lease is fresh (heartbeat age only).
        path.write_text(json.dumps(dead.to_dict()))
        self._set_host(monkeypatch, "host-b")
        assert break_if_stale(path, timeout=1e9) is None

    def test_second_host_drains_a_dead_first_host_campaign(
        self, tmp_path, monkeypatch
    ):
        from repro import units
        from repro.fleet import FleetSpec, run_campaign
        from repro.service import run_worker, submit_campaign
        from repro.service.jobs import load_campaign
        from repro.sim.config import SimulationConfig

        spec = FleetSpec(
            name="two-host-smoke",
            devices=4,
            policy="threshold",
            policy_kwargs={"interval": 4 * units.HOUR, "strength": 3,
                           "threshold": 1},
            base_config=SimulationConfig(
                num_lines=64, region_size=64, horizon=units.DAY,
                seed=2012, endurance=None,
            ),
        )
        root = tmp_path / "campaign"
        submit_campaign(spec, root, shards=2)
        campaign = load_campaign(root)

        # "host-a"'s worker claimed shard 0 and died mid-heartbeat: its
        # lease file survives with an aging heartbeat and a pid that is
        # meaningless on any other machine.
        self._set_host(monkeypatch, "host-a")
        first = campaign.shards[0]
        stale = try_acquire(campaign.lease_path(first), "worker-a")
        assert stale is not None

        # "host-b" polls, respects the fresh lease, then steals it once
        # the heartbeat exceeds the timeout and finishes everything.
        self._set_host(monkeypatch, "host-b")
        time.sleep(0.05)
        outcome = run_worker(
            root, worker_id="worker-b", lease_timeout=0.01,
        )
        assert outcome["devices_executed"] == spec.devices
        assert sorted(outcome["shards"]) == [0, 1]

        from repro.service import final_report

        assert final_report(root).to_json() == (
            run_campaign(spec, jobs=1).report.to_json()
        )
