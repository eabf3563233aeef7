"""Experiment configuration.

One :class:`SimulationConfig` fully determines a run together with a policy
and a workload: geometry, device specs, horizon, temperature, and seed.
Keeping it a frozen dataclass makes sweeps trivial
(``dataclasses.replace``) and results self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import units
from ..obs.config import ObsConfig
from ..params import CellSpec, EnduranceSpec, EnergySpec, LineSpec
from ..pcm.thermal import ThermalProfile
from ..verify.config import VerifyConfig


@dataclass(frozen=True)
class SimulationConfig:
    """Everything about a run except the policy and the workload."""

    #: Monte-Carlo line population size.  Results scale linearly to real
    #: capacities (a 16 GiB DIMM is ~2^28 lines); the default balances
    #: statistical resolution against runtime.
    num_lines: int = 16384
    #: Lines per scrub region (bank granularity for adaptive intervals).
    region_size: int = 1024
    #: Simulated wall-clock seconds.
    horizon: float = 30 * units.DAY
    #: Experiment seed; all randomness derives from it.
    seed: int = 2012
    #: Operating temperature in kelvin (drift acceleration).  Ignored when
    #: a ``thermal_profile`` is set.
    temperature_k: float = 300.0
    #: Optional time-varying temperature schedule; overrides
    #: ``temperature_k`` (the crossing distribution is tabulated at the
    #: profile's reference temperature and mapped through effective age).
    thermal_profile: ThermalProfile | None = None
    #: Device specifications.
    line: LineSpec = field(default_factory=LineSpec)
    energy: EnergySpec = field(default_factory=EnergySpec)
    #: Endurance spec; ``None`` disables wear-out (pure soft-error studies).
    endurance: EnduranceSpec | None = field(default_factory=EnduranceSpec)
    #: Retire lines at this many stuck cells (``None`` disables).
    retire_hard_limit: int | None = None
    #: Treat demand reads as scrub probes (read-triggered refresh); see
    #: :class:`repro.sim.population.PopulationEngine`.
    read_refresh: bool = False
    #: Use drift-compensated (time-aware) read references; see
    #: :class:`repro.pcm.reference.CompensatedSensing`.  Composes with
    #: ``temperature_k`` but not with ``thermal_profile`` (compensation
    #: would need the profile-corrected age, which the hardware being
    #: modelled does not have).
    compensated_sensing: bool = False
    #: Order statistics kept per line; must exceed the strongest ECC t
    #: by a comfortable margin.
    keep: int = 24
    #: Spare lines provisioned per scrub region (``None`` disables the
    #: spare pool).  Retired lines draw replacements from their region's
    #: pool; see :class:`repro.mem.sparing.SparePool`.
    spares_per_region: int | None = None
    #: Telemetry to collect (tracing / time-series sampling / profiling);
    #: everything off by default, and disabled runs are bit-identical to
    #: the pre-observability engine.  See :mod:`repro.obs`.
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Runtime checks to perform (conservation-law invariants); everything
    #: off by default, and checks never perturb results either way - they
    #: only read state and raise on violation.  See :mod:`repro.verify`.
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    #: Quiescent-visit fast-forward: fold provably error-free scrub visits
    #: into bulk charges instead of walking them one by one.  Results are
    #: bit-identical either way (that is the feature's contract, enforced
    #: by a metamorphic law); disable to run the naive event loop, e.g.
    #: when timing it.  See docs/performance.md.
    fast_forward: bool = True
    #: Which visit engine drives the run: ``"scalar"`` walks regions one
    #: visit at a time (the reference oracle); ``"batch"`` processes whole
    #: device rounds of static uniform-interval policies as single array
    #: ops and runs every other policy on the scalar walk
    #: (:class:`repro.sim.batch.BatchPopulationEngine`).  Bit-identical to
    #: scalar wherever RNG draw order is preserved (idle workloads,
    #: single-region runs, steered-interval policies); statistically
    #: equivalent (gated by ``pcm-scrub verify``) where batching demand
    #: traffic across regions reorders draws.  See docs/performance.md.
    engine: str = "scalar"

    def __post_init__(self) -> None:
        if self.num_lines <= 0:
            raise ValueError("num_lines must be positive")
        if self.region_size <= 0 or self.num_lines % self.region_size:
            raise ValueError("region_size must divide num_lines")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(
                f"horizon must be positive and finite seconds, got {self.horizon!r}"
            )
        if not (math.isfinite(self.temperature_k) and self.temperature_k > 0):
            raise ValueError(
                "temperature_k must be positive and finite kelvin, "
                f"got {self.temperature_k!r}"
            )
        if self.keep <= 8:
            raise ValueError("keep must exceed the strongest ECC strength")
        if self.spares_per_region is not None and self.spares_per_region < 0:
            raise ValueError("spares_per_region must be non-negative")
        if self.engine not in ("scalar", "batch"):
            raise ValueError(
                f"engine must be 'scalar' or 'batch', got {self.engine!r}"
            )
        if self.compensated_sensing and self.thermal_profile is not None:
            raise ValueError(
                "compensated sensing and thermal profiles do not compose; "
                "see the field docs"
            )

    @property
    def cells_per_line(self) -> int:
        """Data cells per line (check cells are accounted via the scheme)."""
        return self.line.data_cells

    @property
    def cell_spec(self) -> CellSpec:
        return self.line.cell
