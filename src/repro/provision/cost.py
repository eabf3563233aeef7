"""Cost and carbon accounting for provisioning candidates.

The simulator's :class:`repro.pcm.energy.EnergyLedger` already meters
scrub energy in joules; provisioning needs two more axes the ledger
cannot know: what a GiB of this memory *costs* and what its lifetime
*carbon footprint* is.  :class:`CostModel` supplies both from four
operator-set numbers:

* ``dollars_per_gib`` - raw array $/GiB at the bit-cell level;
* ``carbon_intensity_kg_per_kwh`` - grid intensity converting metered
  scrub energy into operational kgCO2e;
* ``embodied_kg_per_gib`` - manufacturing (embodied) carbon per raw
  GiB, amortized linearly over ``amortization_years`` and charged to a
  campaign pro-rata by its horizon.

ECC is what couples the model to the candidate grid: check bits live in
the same array as data (see :meth:`repro.pcm.energy.OperationCosts
.for_line`), so a stronger code inflates both $/GiB and embodied
carbon per *usable* GiB by ``(data + overhead) / data`` - the same
storage-overhead multiplier the sustainability-aware ECC literature
uses for embodied-carbon-per-effective-capacity comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .. import units
from ..fields import dump, load

#: Joules per kilowatt-hour (grid carbon intensity is quoted per kWh).
J_PER_KWH = 3.6e6


class ProvisionError(ValueError):
    """A provisioning request is malformed."""


@dataclass(frozen=True)
class CostModel:
    """Operator economics: $/GiB, grid carbon, embodied carbon.

    Defaults are deliberately round, public-ballpark numbers (resistive
    memory cost forecasts, ~2020s grid average, DRAM-class embodied
    carbon); every figure is overridable from the CLI.
    """

    #: Raw array cost per GiB of *stored bits* (data + check), USD.
    dollars_per_gib: float = 4.0
    #: Grid carbon intensity, kgCO2e per kWh of scrub energy.
    carbon_intensity_kg_per_kwh: float = 0.4
    #: Embodied (manufacturing) carbon per raw GiB, kgCO2e.
    embodied_kg_per_gib: float = 0.03
    #: Years the embodied carbon is amortized over.
    amortization_years: float = 5.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ProvisionError(f"{field.name} must be finite, got {value!r}")
            object.__setattr__(self, field.name, float(value))
        if self.dollars_per_gib < 0:
            raise ProvisionError("dollars_per_gib must be >= 0")
        if self.carbon_intensity_kg_per_kwh < 0:
            raise ProvisionError("carbon_intensity_kg_per_kwh must be >= 0")
        if self.embodied_kg_per_gib < 0:
            raise ProvisionError("embodied_kg_per_gib must be >= 0")
        if self.amortization_years <= 0:
            raise ProvisionError("amortization_years must be positive")

    # -- per-axis contributions ----------------------------------------------

    @staticmethod
    def overhead_factor(overhead_bits: int, data_bits: int) -> float:
        """Raw bits stored per usable data bit: ``(data + ecc) / data``."""
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        if overhead_bits < 0:
            raise ValueError("overhead_bits must be >= 0")
        return (data_bits + overhead_bits) / data_bits

    def dollars_per_usable_gib(
        self, overhead_bits: int, data_bits: int
    ) -> float:
        """$/GiB of *usable* capacity under an ECC storage overhead."""
        return self.dollars_per_gib * self.overhead_factor(
            overhead_bits, data_bits
        )

    def operational_carbon_per_gib(self, energy_j_per_gib: float) -> float:
        """kgCO2e/GiB from metered scrub energy over the horizon."""
        return energy_j_per_gib / J_PER_KWH * self.carbon_intensity_kg_per_kwh

    def embodied_carbon_per_gib(
        self,
        horizon_seconds: float,
        overhead_bits: int = 0,
        data_bits: int = 1,
    ) -> float:
        """Amortized embodied kgCO2e per usable GiB for this horizon.

        Linear amortization: a campaign horizon of one amortization
        period carries the full embodied cost; shorter horizons a
        pro-rata share.  The ECC overhead factor converts raw-GiB
        embodied carbon to per-*usable*-GiB.
        """
        if horizon_seconds < 0:
            raise ValueError("horizon_seconds must be >= 0")
        share = horizon_seconds / (self.amortization_years * units.YEAR)
        return (
            self.embodied_kg_per_gib
            * self.overhead_factor(overhead_bits, data_bits)
            * share
        )

    def carbon_per_gib(
        self,
        energy_j_per_gib: float,
        horizon_seconds: float,
        overhead_bits: int = 0,
        data_bits: int = 1,
    ) -> float:
        """Total (operational + amortized embodied) kgCO2e per usable GiB."""
        return self.operational_carbon_per_gib(
            energy_j_per_gib
        ) + self.embodied_carbon_per_gib(
            horizon_seconds, overhead_bits, data_bits
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "CostModel":
        return load(cls, data, path)
