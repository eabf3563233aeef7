"""The benchmark's workloads: generated inputs and one repetition of each.

Every workload drives one user path through the library's public entry
points with two workers, and each stresses a different layer (see
``README.md`` beside this file for why each was chosen):

``fleet-cold``
    ``run_campaign`` with a checkpoint journal on an empty cache - the
    first ``pcm-scrub fleet --checkpoint`` of a new spec.
``provision-mc``
    ``ProvisionSearch.run`` on a warm cache - ``pcm-scrub
    provision-fleet``, dominated by its out-of-regime MC device-runs.
``screen-20k``
    ``run_screened_campaign`` over a 20,000-device fleet on a warm cache -
    ``pcm-scrub fleet --screen``, dominated by the surrogate planner.
``service-warm``
    ``submit_campaign`` / ``serve_campaign`` / ``final_report`` on a warm
    cache - the sharded campaign service.

Inputs come from the seed: ``seed % VARIANTS`` picks the campaign seed,
so every seed gives the same inputs and the stored digests
(``goldens.json``) cover every variant.  ``fleet-cold`` and
``service-warm`` run the same spec and share one digest, which pins their
reports to be byte-identical.  The ``tiny`` size shrinks every workload
for the benchmark's self-test.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from pathlib import Path

from repro.fleet import FleetSpec
from repro.fleet import campaign as fleet_campaign
from repro.fleet.checkpoint import write_header
from repro.fleet.report import FIT_HOURS
from repro.provision import Candidate, CandidateSpace, ProvisionSearch
from repro.screen import ScreenConstraints
from repro.screen import campaign as screen_campaign
from repro.service import jobs as service_jobs
from repro.service import status as service_status
from repro.service import supervisor as service_supervisor

#: Worker processes for every workload: one closed-loop client on a
#: two-CPU host.
JOBS = 2
#: Distinct inputs per workload; the seed picks one.
VARIANTS = 8
#: Campaign seed of variant 0 (the seed of the example specs).
BASE_SEED = 2012
SIZES = ("full", "tiny")

_DRIFT_A = {"mean": 1.0, "spread": 0.04, "low": 0.0}
_SIGMA_A = {"mean": 1.0, "spread": 0.05, "low": 0.0}
_DRIFT_B = {"mean": 1.1, "spread": 0.08, "low": 0.0}
_SIGMA_B = {"mean": 1.15, "spread": 0.1, "low": 0.0}


def _config(num_lines: int, horizon_days: float, variant: int) -> dict:
    return {
        "num_lines": num_lines,
        "region_size": num_lines,
        "horizon_days": horizon_days,
        "seed": BASE_SEED + variant,
        "temperature_k": 300.0,
        "endurance": None,
    }


def smoke_spec(size: str, variant: int) -> dict:
    """``examples/specs/fleet_smoke.json`` (64 devices, drift spread)."""
    return {
        "version": 1,
        "name": "fleet-smoke",
        "devices": {"full": 64, "tiny": 6}[size],
        "policy": "threshold",
        "policy_kwargs": {"interval": 7200.0, "strength": 3, "threshold": 1},
        "capacity_gib_per_device": 16.0,
        "demand_write_rate": None,
        "config": _config(512, 1.0, variant),
        "lots": [
            {"name": "vendor-a", "weight": 3,
             "nu_mu_scale": _DRIFT_A, "nu_sigma_scale": _SIGMA_A},
            {"name": "vendor-b", "weight": 2,
             "nu_mu_scale": _DRIFT_B, "nu_sigma_scale": _SIGMA_B,
             "temperature_k": {"mean": 306.0, "spread": 2.5, "low": 250.0}},
            {"name": "vendor-b-hot-aisle", "weight": 1,
             "nu_mu_scale": _DRIFT_B, "nu_sigma_scale": _SIGMA_B,
             "temperature_k": {"mean": 318.0, "spread": 3.0, "low": 250.0}},
        ],
    }


def provision_spec(size: str, variant: int) -> dict:
    """``examples/specs/fleet_provision.json`` (12 devices, 30 days)."""
    return {
        "version": 1,
        "name": "fleet-provision",
        "devices": {"full": 12, "tiny": 3}[size],
        "policy": "threshold",
        "policy_kwargs": {"interval": 3600.0, "strength": 4, "with_detector": False},
        "capacity_gib_per_device": 16.0,
        "demand_write_rate": None,
        "config": _config(256, {"full": 30.0, "tiny": 2.0}[size], variant),
        "lots": [
            {"name": "vendor-a", "weight": 2,
             "nu_mu_scale": _DRIFT_A, "nu_sigma_scale": _SIGMA_A},
            {"name": "vendor-b-hot-aisle", "weight": 1,
             "nu_mu_scale": _DRIFT_B, "nu_sigma_scale": _SIGMA_B,
             "temperature_k": {"mean": 312.0, "spread": 2.0, "low": 250.0}},
        ],
    }


#: Per-size device counts of the screening fleet: three zero-spread
#: aisles plus a small ``suspect`` lot, the only one that straddles.
_SCREEN_LOTS = {
    "full": (12_500, 5_000, 2_500, 40),
    "tiny": (1_250, 500, 250, 4),
}
#: Count budget (expected horizon UEs per device): cool and hot aisles
#: pass, the recalled aisle fails, the 330 K suspect lot straddles.
SCREEN_COUNT_BUDGET = 10.0


def screen_spec(size: str, variant: int) -> dict:
    """p06's three-aisle screening fleet plus one straddling lot."""
    cool, hot, recalled, suspect = _SCREEN_LOTS[size]
    return {
        "version": 1,
        "name": "screen-20k",
        "devices": cool + hot + recalled + suspect,
        "policy": "threshold",
        "policy_kwargs": {
            "interval": 7200.0, "strength": 3, "threshold": 2,
            "with_detector": False,
        },
        "capacity_gib_per_device": 16.0,
        "demand_write_rate": None,
        "config": _config(64, 1.0, variant),
        "lots": [
            {"name": name, "weight": weight,
             "temperature_k": {"mean": kelvin, "spread": 0.0}}
            for name, weight, kelvin in (
                ("cool", cool, 300.0),
                ("hot", hot, 316.0),
                ("recalled", recalled, 350.0),
                ("suspect", suspect, 330.0),
            )
        ],
    }


#: p05's grid: ten detector-less threshold candidates the surrogate
#: scores, plus one out-of-regime ``basic`` candidate that runs MC.
PROVISION_SPACE = {
    "full": CandidateSpace(
        policies=("threshold",),
        intervals=(900.0, 1800.0, 3600.0, 7200.0, 14400.0),
        strengths=(2, 4),
        thresholds=(None,),
    ),
    "tiny": CandidateSpace(
        policies=("threshold",),
        intervals=(1800.0, 7200.0),
        strengths=(4,),
        thresholds=(None,),
    ),
}
PROVISION_EXTRAS = (Candidate(policy="basic", interval=3600.0),)
#: Campaign-service shards (more shards than workers, as deployed).
SERVICE_SHARDS = 4


def digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON form of a report."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _load(spec: dict, directory: Path) -> FleetSpec:
    """Load a generated spec the way the CLI does: from a JSON file."""
    path = directory / f"{spec['name']}.json"
    path.write_text(json.dumps(spec, indent=2))
    return FleetSpec.from_file(path)


class Workload:
    """One user path; ``run`` is a repetition, returning its report dict."""

    name: str
    #: Key into ``goldens.json``; workloads that must agree share one.
    golden: str
    #: Whether setup fills the cache first (otherwise every repetition
    #: starts from an empty cache).
    warm: bool = True
    #: Builds the spec dict for ``(size, variant)``.
    make_spec: Callable[[str, int], dict]

    def __init__(self, size: str, variant: int, directory: Path):
        self.size = size
        self.variant = variant
        self.spec = _load(self.make_spec(size, variant), directory)

    @property
    def devices(self) -> int:
        """Device reports per repetition (the ``devices_per_s`` numerator)."""
        return self.spec.devices

    def run(self, scratch: Path) -> dict:
        raise NotImplementedError

    def disk_metrics(self, scratch: Path) -> dict[str, float]:
        """Per-layer figures read from the files a repetition left."""
        return {}


class FleetCold(Workload):
    name = "fleet-cold"
    golden = "fleet_report"
    warm = False
    make_spec = staticmethod(smoke_spec)

    def run(self, scratch):
        outcome = fleet_campaign.run_campaign(
            self.spec, jobs=JOBS, checkpoint=scratch / "fleet.jsonl"
        )
        return outcome.report.to_dict()

    def disk_metrics(self, scratch):
        return {"journal_bytes": float((scratch / "fleet.jsonl").stat().st_size)}


class ProvisionMC(Workload):
    name = "provision-mc"
    golden = "provision_report"
    make_spec = staticmethod(provision_spec)

    def __init__(self, size, variant, directory):
        super().__init__(size, variant, directory)
        self.space = PROVISION_SPACE[size]

    @property
    def devices(self):
        # Every device is reported once per candidate.
        return self.spec.devices * (len(self.space.candidates()) + len(PROVISION_EXTRAS))

    def run(self, scratch):
        return ProvisionSearch(
            self.spec, self.space, jobs=JOBS, extra_candidates=PROVISION_EXTRAS
        ).run().to_dict()


class Screen20k(Workload):
    name = "screen-20k"
    golden = "screen_report"
    make_spec = staticmethod(screen_spec)

    def __init__(self, size, variant, directory):
        super().__init__(size, variant, directory)
        horizon_hours = self.spec.base_config.horizon / 3600.0
        self.constraints = ScreenConstraints(
            fit_limit=SCREEN_COUNT_BUDGET * FIT_HOURS * self.spec.capacity_scale
            / horizon_hours
        )

    def run(self, scratch):
        outcome = screen_campaign.run_screened_campaign(
            self.spec, self.constraints, jobs=JOBS
        )
        return outcome.report.to_dict()


class ServiceWarm(Workload):
    name = "service-warm"
    golden = "fleet_report"
    make_spec = staticmethod(smoke_spec)

    def run(self, scratch):
        root = scratch / "campaign"
        campaign = service_jobs.submit_campaign(self.spec, root, shards=SERVICE_SHARDS)
        # Write each shard journal's header before the workers start, as
        # the worker itself would.  Otherwise the supervisor's status poll
        # can read a journal a worker has created but not yet written, and
        # ``serve_campaign`` raises CheckpointError (README.md, findings).
        for shard in campaign.shards:
            write_header(campaign.journal_path(shard), campaign.spec_hash, self.spec.name)
        service_supervisor.serve_campaign(root, workers=JOBS)
        return service_status.final_report(root).to_dict()

    def disk_metrics(self, scratch):
        shards = scratch / "campaign" / "shards"
        markers = [json.loads(p.read_text()) for p in sorted(shards.glob("*.done"))]
        journal_bytes = float(sum(p.stat().st_size for p in shards.glob("*.jsonl")))
        return {
            "journal_bytes": journal_bytes,
            "shard_journal_bytes": journal_bytes,
            "shards": float(len(markers)),
            "shard_wall_s": sum(m["wall_seconds"] for m in markers),
            "devices_executed": float(sum(m["executed"] for m in markers)),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FleetCold, ProvisionMC, Screen20k, ServiceWarm)
}
