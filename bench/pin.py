"""Write the pinned reference table ``bench/pins.json`` from the current code.

    python3 bench/pin.py

For every key in 0..PIN_COUNT-1 it records the digests of the analyze
workloads' outputs and the exact coverage-simulation values. The
analyze-large digest is taken at ``--threads 1`` and must equal the one at
the workload's own thread count. Re-pin only in a change that deliberately
changes report bytes (and bumps ``REPORT_FORMAT``), never in one that
claims a speed-up.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl


def main() -> int:
    os.chdir(wl.ROOT)
    wl.import_package()
    from ibistat.report import REPORT_FORMAT

    table = {"report_format": REPORT_FORMAT, "pin_count": wl.PIN_COUNT}
    for cls in wl.WORKLOADS.values():
        entries = {}
        for key in range(wl.PIN_COUNT):
            w = cls(key)
            if cls is wl.AnalyzeLarge:
                from ibistat.cli import main as cli_main

                single = w.reference(cli_main(w.argv(threads=1)))
                if w.reference(w.run()) != single:
                    raise wl.BenchError(f"analyze-large key {key}: report differs across thread counts")
                entries[str(key)] = single
            else:
                entries[str(key)] = w.reference(w.run())
            print(cls.name, key, entries[str(key)], flush=True)
        table[cls.name] = entries
    wl.check_coverage_tolerances(table["simulate-coverage"])
    wl.PINS_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
