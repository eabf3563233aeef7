"""Fleet specifications: heterogeneous device populations from lots.

The paper evaluates scrub policies on a single memory region; FIT budgets
and availability targets are set at *fleet* scale, where thousands of
DIMMs from different manufacturing lots age together.  A
:class:`FleetSpec` describes such a population declaratively:

* a **base configuration** - the single-device
  :class:`repro.sim.config.SimulationConfig` every device starts from
  (including its :class:`~repro.obs.config.ObsConfig` and
  :class:`~repro.verify.config.VerifyConfig`, which ride through to every
  device unchanged);
* a set of **lots** - each lot draws its devices' drift parameters
  (``nu_mean``/``nu_sigma`` scale factors), operating temperature, and
  endurance from per-lot Gaussian distributions, modelling
  lot-to-lot process variation and rack-position thermal spread;
* a **policy** (by :data:`repro.sim.parallel.POLICY_FACTORIES` name, so
  every device spec is picklable) and an optional uniform demand
  workload.

Sampling is deterministic: device ``i`` draws its parameters from
``default_rng([campaign_seed, i])`` and simulates with seed
``campaign_seed + i``, so a campaign is a pure function of its spec -
independent of worker placement, batching, or resume boundaries.  A
degenerate single-lot fleet (all spreads zero, all scales one) of size 1
reproduces the single-device ``run_experiment`` result bit-exactly.

Specs round-trip through JSON (:meth:`FleetSpec.to_dict` /
:meth:`FleetSpec.from_dict` / :meth:`FleetSpec.from_file`), and
:meth:`FleetSpec.content_hash` over the canonical JSON form is what the
checkpoint journal validates on resume.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .. import units
from ..core.policy import ScrubPolicy
from ..fields import (
    FieldError, array, bad, flag, integer, join, mapping, number, optional,
    read, real, text,
)
from ..obs.config import ObsConfig
from ..params import EnduranceSpec, replace
from ..sim.config import SimulationConfig
from ..sim.parallel import POLICY_FACTORIES, RunSpec
from ..verify.config import VerifyConfig
from ..workloads import uniform_rates
from ..workloads.generators import DemandRates

#: Journal/spec schema version (bumped on incompatible format changes).
SPEC_VERSION = 1
#: Device seeds (``seed + index``) must fit a 63-bit RNG seed.
_SEED_LIMIT = 2**63
#: Largest fleet whose float apportionment quotas stay exact to well
#: under one device (float64 carries 53 bits).
_MAX_DEVICES = 2**48


@dataclass(frozen=True)
class LotParameter:
    """A per-lot Gaussian over one device parameter.

    Device values are drawn as ``mean + spread * z`` with ``z`` standard
    normal, then clipped into ``[low, high]`` when bounds are set.  A
    ``spread`` of zero makes the draw exactly ``mean`` (the degenerate
    lot used for single-device equivalence).
    """

    mean: float
    spread: float = 0.0
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if self.spread < 0:
            raise ValueError("spread must be >= 0")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise ValueError("low must not exceed high")

    def sample(self, rng: np.random.Generator) -> float:
        """One draw; always consumes exactly one normal variate."""
        value = self.mean + self.spread * float(rng.standard_normal())
        if self.low is not None:
            value = max(value, self.low)
        if self.high is not None:
            value = min(value, self.high)
        return value

    def to_dict(self) -> dict:
        # Coerced to float so int-valued inputs produce the same canonical
        # JSON (and therefore the same content hash) as their float twins.
        out: dict = {"mean": float(self.mean), "spread": float(self.spread)}
        if self.low is not None:
            out["low"] = float(self.low)
        if self.high is not None:
            out["high"] = float(self.high)
        return out

    @classmethod
    def from_dict(cls, data: dict, path: str = "lot parameter") -> "LotParameter":
        """Parse the JSON form; a malformed field raises ``ValueError`` naming it."""
        fields = read(data, path, _PARAMETER_FIELDS, required=("mean",))
        return _build(cls, fields, path)


#: The identity scale: multiplying by exactly 1.0 leaves every float
#: unchanged, so a lot built from these defaults is bit-transparent.
_UNIT_SCALE = LotParameter(mean=1.0, spread=0.0, low=0.0)


@dataclass(frozen=True)
class Lot:
    """One manufacturing lot: a weighted slice of the fleet.

    ``nu_mu_scale`` / ``nu_sigma_scale`` multiply every level's drift
    ``nu_mean`` / ``nu_sigma`` (a lot-wide process corner);
    ``temperature_k``, when set, overrides the base configuration's
    operating temperature (rack-position spread); ``endurance_mean``,
    when set, replaces the base endurance spec's mean write count.

    A lot may also carry its own scrub assignment - ``policy`` (a
    :data:`repro.sim.parallel.POLICY_FACTORIES` name) and/or
    ``policy_kwargs`` (ECC strength, interval, threshold overrides).
    Both default to ``None``, meaning "inherit the fleet-wide policy";
    the serialized form omits unset overrides, so specs written before
    per-lot provisioning existed hash identically.  Resolution semantics
    live in :meth:`FleetSpec.policy_for`.
    """

    name: str
    weight: float = 1.0
    nu_mu_scale: LotParameter = field(default_factory=lambda: _UNIT_SCALE)
    nu_sigma_scale: LotParameter = field(default_factory=lambda: _UNIT_SCALE)
    temperature_k: LotParameter | None = None
    endurance_mean: LotParameter | None = None
    #: Per-lot scrub policy override (``None`` inherits the fleet's).
    policy: str | None = None
    #: Per-lot policy kwargs override; merged over the fleet kwargs when
    #: the effective policy matches the fleet's, taken verbatim otherwise.
    policy_kwargs: dict | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("lot name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"lot {self.name!r}: weight must be positive")
        if self.policy is not None and self.policy not in POLICY_FACTORIES:
            raise ValueError(
                f"lot {self.name!r}: unknown policy {self.policy!r}; "
                f"available: {sorted(POLICY_FACTORIES)}"
            )

    @property
    def has_spread(self) -> bool:
        """Whether its devices' parameters vary (some ``spread`` not zero).

        Without spread every device of the lot draws the same parameters
        and differs from its lot-mates only in its seed.
        """
        return any(
            parameter is not None and parameter.spread != 0
            for parameter in (
                self.nu_mu_scale, self.nu_sigma_scale,
                self.temperature_k, self.endurance_mean,
            )
        )

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "weight": float(self.weight),
            "nu_mu_scale": self.nu_mu_scale.to_dict(),
            "nu_sigma_scale": self.nu_sigma_scale.to_dict(),
        }
        if self.temperature_k is not None:
            out["temperature_k"] = self.temperature_k.to_dict()
        if self.endurance_mean is not None:
            out["endurance_mean"] = self.endurance_mean.to_dict()
        # Omitted when unset: a pre-provisioning spec serializes (and
        # therefore content-hashes) exactly as it always did.
        if self.policy is not None:
            out["policy"] = self.policy
        if self.policy_kwargs is not None:
            out["policy_kwargs"] = dict(self.policy_kwargs)
        return out

    @classmethod
    def from_dict(cls, data: dict, path: str = "lot") -> "Lot":
        """Parse the JSON form; a malformed field raises ``ValueError`` naming it.

        A ``null`` field keeps its default (the unit scale for the drift
        scales, no override for the rest).
        """
        fields = read(data, path, _LOT_FIELDS, required=("name",))
        return _build(cls, fields, path)


@dataclass(frozen=True)
class DeviceSpec:
    """One concrete device: its lot draw, seed, and full configuration."""

    index: int
    lot: str
    seed: int
    nu_mu_scale: float
    nu_sigma_scale: float
    temperature_k: float
    endurance_mean: float | None
    config: SimulationConfig

    def run_spec(self, policy: str, policy_kwargs: dict,
                 rates: DemandRates | None) -> RunSpec:
        return RunSpec(
            policy=policy,
            config=self.config,
            policy_kwargs=dict(policy_kwargs),
            rates=rates,
        )


@dataclass(frozen=True)
class FleetSpec:
    """A reproducible datacenter-scale scrub campaign."""

    #: Campaign name (labels reports and journal headers).
    name: str
    #: Device population size.
    devices: int
    #: Key into :data:`repro.sim.parallel.POLICY_FACTORIES`.
    policy: str
    #: Per-device simulation parameters every device is derived from; the
    #: campaign seed is ``base_config.seed``.
    base_config: SimulationConfig
    lots: tuple[Lot, ...] = (Lot(name="default"),)
    policy_kwargs: dict = field(default_factory=dict)
    #: Real per-device capacity the FIT projection scales the simulated
    #: population up to (the Monte-Carlo population is far smaller than a
    #: DIMM; per-line independence makes the scaling linear).
    capacity_gib_per_device: float = 16.0
    #: Total demand write rate per device (writes/s over the whole device,
    #: uniform across lines); ``None`` simulates idle devices.
    demand_write_rate: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not 0 < self.devices <= _MAX_DEVICES:
            raise ValueError(f"devices must be in [1, 2**48], got {self.devices}")
        if self.policy not in POLICY_FACTORIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"available: {sorted(POLICY_FACTORIES)}"
            )
        if not self.lots:
            raise ValueError("lots must hold at least one lot")
        names = [lot.name for lot in self.lots]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate lot names: {names}")
        if not 0 <= self.seed <= _SEED_LIMIT - self.devices:
            raise ValueError(
                f"config.seed {self.seed} with {self.devices} devices leaves "
                f"device seeds (seed + index) outside [0, 2**63)"
            )
        if self.capacity_gib_per_device <= 0:
            raise ValueError("capacity_gib_per_device must be positive")
        if self.demand_write_rate is not None and self.demand_write_rate <= 0:
            raise ValueError("demand_write_rate must be positive (or None)")
        if self.base_config.thermal_profile is not None:
            raise ValueError(
                "fleet campaigns model temperature heterogeneity through "
                "per-lot temperature_k; thermal profiles are not supported"
            )
        # Build each lot's effective policy once, so kwargs its factory
        # rejects fail here, however the spec was made.
        for i, lot in enumerate(self.lots):
            try:
                self.build_policy(lot)
            except (TypeError, ValueError) as error:
                inherited = lot.policy is None and lot.policy_kwargs is None
                path = "policy_kwargs" if inherited else f"lots[{i}].policy_kwargs"
                raise FieldError(f"fleet spec field {path}: {error}") from None

    # -- lot assignment -------------------------------------------------------

    @property
    def seed(self) -> int:
        """The campaign seed (alias for ``base_config.seed``)."""
        return self.base_config.seed

    def lot_counts(self) -> list[int]:
        """Device count per lot via largest-remainder apportionment.

        Deterministic: quotas are ``weight / total * devices``; every lot
        gets its floor, and the leftover devices go to the largest
        fractional remainders (ties broken by lot order).
        """
        total = sum(lot.weight for lot in self.lots)
        quotas = [lot.weight / total * self.devices for lot in self.lots]
        counts = [int(q) for q in quotas]
        leftover = self.devices - sum(counts)
        remainders = sorted(
            range(len(self.lots)),
            key=lambda i: (-(quotas[i] - counts[i]), i),
        )
        for i in remainders[:leftover]:
            counts[i] += 1
        return counts

    @cached_property
    def _lot_stops(self) -> tuple[int, ...]:
        """Each lot's exclusive end index in the block layout, computed once."""
        return tuple(itertools.accumulate(self.lot_counts()))

    def __getstate__(self) -> dict:
        # The cached lot boundaries are derived; leave them out so a
        # pickled spec is the same whether or not they were computed.
        state = dict(self.__dict__)
        state.pop("_lot_stops", None)
        return state

    def lot_ranges(self) -> tuple[range, ...]:
        """Each lot's block of device indices, in lot order."""
        stops = self._lot_stops
        return tuple(map(range, (0, *stops[:-1]), stops))

    def lot_of(self, index: int) -> Lot:
        """The lot device ``index`` belongs to (devices laid out in blocks)."""
        if not 0 <= index < self.devices:
            raise IndexError(f"device index {index} outside fleet of {self.devices}")
        return self.lots[bisect.bisect_right(self._lot_stops, index)]

    def lot_named(self, name: str) -> Lot:
        """The lot with this name (device records carry lot names)."""
        for lot in self.lots:
            if lot.name == name:
                return lot
        raise KeyError(f"no lot named {name!r} in fleet {self.name!r}")

    def lot_indices(self, name: str) -> tuple[int, ...]:
        """Device indices apportioned to the named lot (block layout)."""
        for lot, indices in zip(self.lots, self.lot_ranges()):
            if lot.name == name:
                return tuple(indices)
        raise KeyError(f"no lot named {name!r} in fleet {self.name!r}")

    # -- policy resolution ----------------------------------------------------

    def policy_for(self, lot: Lot | str) -> tuple[str, dict]:
        """The effective ``(policy, policy_kwargs)`` for a lot.

        Resolution:

        * no overrides - the fleet-wide assignment, unchanged;
        * ``policy_kwargs`` only (or ``policy`` equal to the fleet's) -
          the fleet kwargs with the lot's merged over them per key, so a
          lot can override just ``interval`` or just ``strength``;
        * a *different* ``policy`` - the lot's kwargs verbatim (fleet
          kwargs are factory-specific and do not transfer across
          factories; ``basic`` accepts only ``interval``).
        """
        if isinstance(lot, str):
            lot = self.lot_named(lot)
        policy = self.policy if lot.policy is None else lot.policy
        if policy != self.policy:
            kwargs = dict(lot.policy_kwargs or {})
        else:
            kwargs = dict(self.policy_kwargs)
            kwargs.update(lot.policy_kwargs or {})
        return policy, kwargs

    def build_policy(self, lot: Lot | str) -> ScrubPolicy:
        """The lot's effective scrub policy (:meth:`policy_for`), built by its factory."""
        policy, kwargs = self.policy_for(lot)
        return POLICY_FACTORIES[policy](**kwargs)

    @property
    def has_lot_policies(self) -> bool:
        """Whether any lot overrides the fleet-wide scrub assignment."""
        return any(
            lot.policy is not None or lot.policy_kwargs is not None
            for lot in self.lots
        )

    # -- device derivation ----------------------------------------------------

    def device_spec(self, index: int) -> DeviceSpec:
        """Sample device ``index``'s parameters and build its configuration.

        The draw order (nu_mu scale, nu_sigma scale, temperature,
        endurance) is part of the format: it fixes which variate each
        parameter consumes, so adding lots or devices never perturbs
        other devices.
        """
        lot = self.lot_of(index)
        rng = np.random.default_rng([self.seed, index])
        nu_mu_scale = lot.nu_mu_scale.sample(rng)
        nu_sigma_scale = lot.nu_sigma_scale.sample(rng)
        temperature = (
            lot.temperature_k.sample(rng)
            if lot.temperature_k is not None
            else self.base_config.temperature_k
        )
        endurance_mean = (
            lot.endurance_mean.sample(rng)
            if lot.endurance_mean is not None
            else None
        )

        config = self.base_config
        if nu_mu_scale != 1.0 or nu_sigma_scale != 1.0:
            cell = config.line.cell
            scaled = replace(
                cell,
                drift=tuple(
                    replace(
                        d,
                        nu_mean=d.nu_mean * nu_mu_scale,
                        nu_sigma=d.nu_sigma * nu_sigma_scale,
                    )
                    for d in cell.drift
                ),
            )
            config = replace(config, line=replace(config.line, cell=scaled))
        if temperature != config.temperature_k:
            config = replace(config, temperature_k=temperature)
        if endurance_mean is not None:
            base_endurance = config.endurance
            sigma = (
                base_endurance.sigma_log10
                if base_endurance is not None
                else EnduranceSpec().sigma_log10
            )
            config = replace(
                config,
                endurance=EnduranceSpec(
                    mean_writes=endurance_mean, sigma_log10=sigma
                ),
            )
        config = replace(config, seed=self.seed + index)
        return DeviceSpec(
            index=index,
            lot=lot.name,
            seed=self.seed + index,
            nu_mu_scale=nu_mu_scale,
            nu_sigma_scale=nu_sigma_scale,
            temperature_k=temperature,
            endurance_mean=endurance_mean,
            config=config,
        )

    def workload(self) -> DemandRates | None:
        if self.demand_write_rate is None:
            return None
        return uniform_rates(self.base_config.num_lines, self.demand_write_rate)

    def run_spec(self, index: int) -> RunSpec:
        """The picklable work unit for device ``index``.

        Uses the device's lot-effective policy (see :meth:`policy_for`);
        fleets without per-lot overrides behave exactly as before.
        """
        device = self.device_spec(index)
        policy, kwargs = self.policy_for(device.lot)
        return device.run_spec(policy, kwargs, self.workload())

    # -- geometry helpers -----------------------------------------------------

    @property
    def simulated_gib_per_device(self) -> float:
        """GiB actually simulated per device (the Monte-Carlo population)."""
        return (
            self.base_config.num_lines
            * self.base_config.line.data_bytes
            / units.GIB
        )

    @property
    def capacity_scale(self) -> float:
        """Real-device lines per simulated line (the FIT scale-up factor)."""
        return self.capacity_gib_per_device / self.simulated_gib_per_device

    @property
    def device_hours(self) -> float:
        """Total simulated device-hours across the fleet."""
        return self.devices * self.base_config.horizon / units.HOUR

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON form; also the :meth:`content_hash` input."""
        config = self.base_config
        endurance = (
            None
            if config.endurance is None
            else {
                "mean_writes": config.endurance.mean_writes,
                "sigma_log10": config.endurance.sigma_log10,
            }
        )
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "devices": self.devices,
            "policy": self.policy,
            "policy_kwargs": dict(self.policy_kwargs),
            "capacity_gib_per_device": float(self.capacity_gib_per_device),
            "demand_write_rate": (
                None
                if self.demand_write_rate is None
                else float(self.demand_write_rate)
            ),
            "lots": [lot.to_dict() for lot in self.lots],
            "config": {
                "num_lines": config.num_lines,
                "region_size": config.region_size,
                "horizon": config.horizon,
                "seed": config.seed,
                "temperature_k": config.temperature_k,
                "endurance": endurance,
                "retire_hard_limit": config.retire_hard_limit,
                "read_refresh": config.read_refresh,
                "compensated_sensing": config.compensated_sensing,
                "keep": config.keep,
                "spares_per_region": config.spares_per_region,
                "engine": config.engine,
                "fast_forward": config.fast_forward,
                "obs": {
                    "trace": config.obs.trace,
                    "sample_every": config.obs.sample_every,
                    "profile": config.obs.profile,
                },
                "verify": {
                    "invariants": config.verify.invariants,
                    "check_every": config.verify.check_every,
                    "energy_rtol": config.verify.energy_rtol,
                },
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        """Parse the JSON form; a malformed field raises ``ValueError`` naming it.

        Every key must be one the format defines, at every level; values
        are type-checked and every number must be finite.  Kwargs a lot's
        policy factory rejects fail in construction, naming
        ``policy_kwargs`` or, for a lot with its own assignment,
        ``lots[i].policy_kwargs``.
        """
        try:
            fields = read(data, "", _SPEC_FIELDS, required=("name", "devices", "policy"))
        except FieldError as error:
            raise FieldError(f"fleet spec {error}") from None
        fields.pop("version", None)
        base_config = fields.pop("config", None) or SimulationConfig()
        return cls(
            base_config=base_config,
            **{key: value for key, value in fields.items() if value is not None},
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "FleetSpec":
        """Load a JSON spec file (the ``pcm-scrub fleet`` input format)."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"fleet spec {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON form (checkpoint validation)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


# -- JSON parsing -------------------------------------------------------------
#
# ``from_dict`` reads untrusted JSON through explicit field tables over the
# shared readers (:mod:`repro.fields`); a malformed value raises
# ``FieldError`` naming the field by its path in the spec (``devices``,
# ``config.seed``, ``lots[1].weight``).


def _build(cls, fields: dict, path: str):
    """``cls(**fields)``, ``None`` fields left at their defaults."""
    try:
        return cls(**{key: value for key, value in fields.items() if value is not None})
    except ValueError as error:
        raise bad(path, str(error)) from None


def _block(cls, fields: dict, required: tuple[str, ...] = (), null=None):
    """A parser building ``cls`` from a JSON object; ``null`` gives ``null``."""

    def parse(value, path: str):
        if value is None:
            return null
        return _build(cls, read(value, path, fields, required), path)

    return parse


def _version(value, path: str) -> int:
    if value != SPEC_VERSION:
        raise ValueError(
            f"unsupported fleet spec version {value!r} "
            f"(this build reads version {SPEC_VERSION})"
        )
    return value


#: The config block's keys: :meth:`FleetSpec.to_dict`'s plus the
#: ``horizon_days`` alias.  Values keep their JSON types, so a spec's
#: canonical form (and content hash) is what it always was.
_CONFIG_FIELDS = {
    "num_lines": integer,
    "region_size": integer,
    "horizon": number,
    "horizon_days": number,
    "seed": integer,
    "temperature_k": number,
    "endurance": _block(
        EnduranceSpec, {"mean_writes": real, "sigma_log10": real}, ("mean_writes",)
    ),
    "retire_hard_limit": optional(integer),
    "read_refresh": flag,
    "compensated_sensing": flag,
    "keep": integer,
    "spares_per_region": optional(integer),
    "engine": text,
    "fast_forward": flag,
    "obs": _block(
        ObsConfig,
        {"trace": flag, "sample_every": optional(number), "profile": flag},
        null=ObsConfig(),
    ),
    "verify": _block(
        VerifyConfig,
        {"invariants": flag, "check_every": integer, "energy_rtol": number},
        null=VerifyConfig(),
    ),
}


def _base_config(value, path: str) -> SimulationConfig:
    kwargs = read(value, path, _CONFIG_FIELDS)
    if "horizon_days" in kwargs:
        days = kwargs.pop("horizon_days")
        kwargs["horizon"] = float(days) * units.DAY
        if not (math.isfinite(kwargs["horizon"]) and kwargs["horizon"] > 0):
            raise bad(
                join(path, "horizon_days"),
                f"must give a positive, finite horizon, got {days!r}",
            )
    try:
        return SimulationConfig(**kwargs)
    except ValueError as error:
        raise bad(path, str(error)) from None


_PARAMETER_FIELDS = {
    "mean": real,
    "spread": real,
    "low": optional(real),
    "high": optional(real),
}

_LOT_FIELDS = {
    "name": text,
    "weight": real,
    "nu_mu_scale": optional(LotParameter.from_dict),
    "nu_sigma_scale": optional(LotParameter.from_dict),
    "temperature_k": optional(LotParameter.from_dict),
    "endurance_mean": optional(LotParameter.from_dict),
    "policy": optional(text),
    "policy_kwargs": optional(mapping),
}

_SPEC_FIELDS = {
    "version": _version,
    "name": text,
    "devices": integer,
    "policy": text,
    "policy_kwargs": mapping,
    "capacity_gib_per_device": real,
    "demand_write_rate": optional(real),
    "config": _base_config,
    "lots": array(Lot.from_dict),
}
