"""Energy and latency accounting for scrub and demand operations.

The paper's third headline number (37.8 % scrub-energy reduction) is the sum
of four per-line costs that the proposed mechanisms shift between:

* **read** - sensing the line out of the array (cheap),
* **detect** - verifying a lightweight checksum (nearly free),
* **decode** - running the multi-bit ECC decoder (scales superlinearly with
  correction strength t),
* **write** - program-and-verify write-back (dominant, SET-limited).

:class:`OperationCosts` turns a :class:`repro.params.EnergySpec` plus a line
geometry and ECC strength into per-operation joule/second figures, and
:class:`EnergyLedger` accumulates them by category so every benchmark can
print the same breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..params import EnergySpec, LineSpec


#: Decode energy/latency grows ~t^1.3 with correction strength for serial
#: BM+Chien decoders; a gentle superlinear exponent keeps the shape without
#: pretending to circuit-level accuracy.
DECODE_SCALING_EXPONENT = 1.3


@dataclass(frozen=True)
class OperationCosts:
    """Per-operation energy (J) and latency (s) for one line geometry."""

    read_energy: float
    write_energy: float
    detect_energy: float
    decode_energy: float
    read_latency: float
    write_latency: float
    decode_latency: float
    #: Energy to re-program a single cell (partial write-back); latency is
    #: unchanged (cells program in parallel; the iterative pulse train of
    #: the slowest cell sets the line write time either way).
    write_energy_per_cell: float = 0.0

    @classmethod
    def for_line(
        cls,
        energy: EnergySpec,
        line: LineSpec,
        ecc_bits: int,
        ecc_strength: int,
    ) -> "OperationCosts":
        """Costs for a line carrying ``ecc_bits`` of check data.

        Check bits live in the same array and are read/written along with
        the data, so read/write energy covers ``data_bits + ecc_bits``.
        ``ecc_strength`` (t) scales the decoder cost; t=0 (detection-only or
        no code) makes decoding free.
        """
        if ecc_bits < 0:
            raise ValueError("ecc_bits must be >= 0")
        if ecc_strength < 0:
            raise ValueError("ecc_strength must be >= 0")
        total_bits = line.data_bits + ecc_bits
        scale = float(ecc_strength) ** DECODE_SCALING_EXPONENT if ecc_strength else 0.0
        return cls(
            read_energy=energy.read_energy_per_bit * total_bits,
            write_energy=energy.write_energy_per_bit * total_bits,
            detect_energy=energy.detect_energy_per_line,
            decode_energy=energy.decode_energy_per_line_t1 * scale,
            read_latency=energy.read_latency,
            write_latency=energy.write_latency,
            decode_latency=energy.decode_latency_t1 * scale,
            write_energy_per_cell=(
                energy.write_energy_per_bit * line.cell.bits_per_cell
            ),
        )


#: Categories tracked by the ledger, in the order benchmarks print them.
LEDGER_CATEGORIES = (
    "scrub_read",
    "scrub_detect",
    "scrub_decode",
    "scrub_write",
    "demand_read",
    "demand_write",
)


@dataclass
class EnergyLedger:
    """Counts and joules per operation category.

    The ledger is pure bookkeeping: simulators call :meth:`add` with a
    category and the per-op cost; benchmarks read :attr:`totals` and
    :meth:`breakdown`.
    """

    counts: dict[str, int] = field(
        default_factory=lambda: {cat: 0 for cat in LEDGER_CATEGORIES}
    )
    energy: dict[str, float] = field(
        default_factory=lambda: {cat: 0.0 for cat in LEDGER_CATEGORIES}
    )

    def add(
        self,
        category: str,
        energy_per_op: float,
        count: int = 1,
        repeats: int = 1,
    ) -> None:
        """Record ``repeats`` visits' worth of ``count`` operations each.

        The energy accumulator advances by one ``energy_per_op * count``
        addition per repeat - never one fused ``repeats * count`` term,
        which would round differently - so a single call charging a block
        of identical visits is bit-identical to one call per visit.
        """
        if category not in self.counts:
            raise KeyError(f"unknown ledger category {category!r}")
        if count < 0 or repeats < 0:
            raise ValueError("count and repeats must be >= 0")
        delta = energy_per_op * count
        energy = self.energy[category]
        for _ in range(repeats):
            energy += delta
        self.energy[category] = energy
        self.counts[category] += count * repeats

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger into this one."""
        for cat in LEDGER_CATEGORIES:
            self.counts[cat] += other.counts[cat]
            self.energy[cat] += other.energy[cat]

    @property
    def scrub_energy(self) -> float:
        """Total joules attributable to the scrub mechanism."""
        return sum(
            self.energy[cat] for cat in LEDGER_CATEGORIES if cat.startswith("scrub_")
        )

    @property
    def total_energy(self) -> float:
        return sum(self.energy.values())

    @property
    def scrub_writes(self) -> int:
        """Scrub-related write-back count - the paper's 24.4x metric."""
        return self.counts["scrub_write"]

    def breakdown(self) -> dict[str, float]:
        """Energy per category (copy, safe to mutate)."""
        return dict(self.energy)

    def reset(self) -> None:
        for cat in LEDGER_CATEGORIES:
            self.counts[cat] = 0
            self.energy[cat] = 0.0
