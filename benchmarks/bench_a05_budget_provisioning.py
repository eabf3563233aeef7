"""A5 (ablation): what a fixed bank-time budget buys, per ECC strength.

Provisioning view of the whole design space: grant the scrubber a slice
of bank time, solve for the fastest affordable interval per code (the
stronger code's rarer decodes and write-backs buy a faster scan for the
same budget - but its longer sustainable interval means it does not need
one), and report the reliability each configuration achieves.  The
dominance of strong codes is starkest exactly where budgets are tightest.
"""

from __future__ import annotations

import time

from repro import units
from repro.analysis.sweeps import provision_grid
from repro.analysis.tables import format_table

LINES_PER_BANK = 1 << 22  # 256 MiB bank
BUDGETS = [1e-3, 1e-4, 3e-5, 1e-5]
STRENGTHS = [1, 2, 4, 8]


def compute() -> list[list[object]]:
    rows = []
    for budget, strength, interval, failure in provision_grid(
        BUDGETS, STRENGTHS, LINES_PER_BANK
    ):
        if interval is None:
            rows.append([f"{budget:.0e}", f"bch{strength}", "infeasible", "-"])
        else:
            rows.append(
                [
                    f"{budget:.0e}",
                    f"bch{strength}",
                    units.format_seconds(interval),
                    f"{failure:.3e}",
                ]
            )
    return rows


def test_a05_budget_provisioning(benchmark, emit, bench_summary):
    started = time.perf_counter()
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    bench_summary["a05_budget_provisioning"] = {
        "runs": len(rows),
        "wall_seconds": round(time.perf_counter() - started, 4),
    }
    emit(
        "a05_budget_provisioning",
        format_table(
            ["bank budget", "code", "affordable interval", "P(UE per visit)"],
            rows,
            title=(
                "A5: reliability a fixed bank-time budget buys "
                f"({LINES_PER_BANK} lines/bank)"
            ),
        ),
    )
    # At the tightest budget, only strong codes keep failure low.
    tight = {row[1]: row[3] for row in rows if row[0] == "1e-05"}
    assert tight["bch8"] != "-"
    weak = float(tight["bch1"]) if tight["bch1"] != "-" else 1.0
    strong = float(tight["bch8"])
    assert strong < weak / 100 or weak > 1e-4
