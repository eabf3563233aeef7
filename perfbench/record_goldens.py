"""Recompute ``goldens.json``: the digest of every workload's report.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/record_goldens.py

Each workload runs once per size and variant on a fresh cache.
``fleet-cold`` and ``service-warm`` share one digest per variant; the
script refuses to write the file if their reports differ.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, work_environment


def main() -> int:
    with work_environment() as work:
        from workloads import SIZES, VARIANTS, WORKLOADS, digest

        goldens: dict[str, dict[str, list[str]]] = {}
        for size in SIZES:
            table: dict[str, list[str]] = {}
            for variant in range(VARIANTS):
                cache = Path(os.environ["REPRO_CACHE_DIR"])
                shutil.rmtree(cache, ignore_errors=True)
                for name, cls in WORKLOADS.items():
                    scratch = work / f"{size}-{variant}-{name}"
                    scratch.mkdir()
                    workload = cls(size, variant, scratch)
                    value = digest(workload.run(scratch))
                    column = table.setdefault(workload.golden, [])
                    if len(column) > variant:
                        if column[variant] != value:
                            print(f"{name} ({size}, variant {variant}) disagrees "
                                  f"with another workload's {workload.golden}",
                                  file=sys.stderr)
                            return 1
                    else:
                        column.append(value)
                    print(f"{size} variant {variant} {name}: {value[:16]}", flush=True)
            goldens[size] = table
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
