"""Time one set-up of a workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED < modules.json``

Set-up is ``import repro`` (plus every module the campaign imports
lazily, read as a JSON list from standard input) and construction of
the full-size campaign, up to the point where the clock would first
move.  Both are host seconds at the reference speed of ``speed.py``.
Prints ``{"import_s": ..., "build_s": ...}``.
"""

import importlib
import json
import os
import sys

from speed import SpeedMeter


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    lazy = json.load(sys.stdin)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

    with SpeedMeter() as imports:
        import workloads

        for name in lazy:
            try:
                importlib.import_module(name)
            except ImportError:
                pass  # an alias or synthetic module entry, not importable by name
    wl = workloads.WORKLOADS[workload]
    with SpeedMeter() as build:
        wl.build(seed, **wl.full)
    print(json.dumps({"import_s": imports.reference_seconds(),
                      "build_s": build.reference_seconds()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
