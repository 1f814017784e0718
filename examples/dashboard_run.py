#!/usr/bin/env python
"""Streaming rollups and the ops dashboard (paper §5, operator view).

Two demonstrations in one script:

1. **Dashboard render with exact parity.**  A small chaos run (bit-rot,
   truncated transfers, duplicate deliveries) executes with a
   :class:`~repro.monitor.Rollup` tapped onto the same bus the run's
   exact :class:`~repro.monitor.RunMetrics` fold listens on, and a
   :class:`~repro.monitor.SpanTracer` attached.  The
   streaming rollup is verified bit-for-bit against the exact
   ``RunMetrics`` reduction (``verify_parity`` must return no
   mismatches), then rendered into a single static HTML dashboard at
   ``benchmarks/out/dashboard.html`` — per-class bandwidth strips,
   task-state timelines, chaos/integrity panels, and click-through
   from each §5 ``diagnose()`` finding to its evidence spans.

2. **The O(windows) memory gate.**  The same quickstart scenario runs
   at 1× and ~10× event density (10× the events across 10× the
   workers, so the makespan — and therefore the number of occupied
   aggregation windows — stays put while the event rate climbs an
   order of magnitude).  The rollup's retained-cell count must stay
   essentially flat while the events folded grow ≥ 5×: memory is
   bounded by *windows*, never by *events*.  CI greps the
   ``DENSITY GATE OK`` line.

    python examples/dashboard_run.py
"""

import os

from repro.desim import Environment
from repro.monitor import Rollup, SpanTracer, tap, verify_parity, write_dashboard
from repro.scenarios import (
    execute_prepared,
    prepare_chaos,
    prepare_quickstart,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "out")


def render_chaos_dashboard() -> str:
    """Run a faulty data run, verify parity, render the dashboard."""
    env = Environment()
    tracer = SpanTracer(env)
    rollup = Rollup()
    tap(env.bus, [rollup])
    prepared = prepare_chaos(
        files=30,
        machines=8,
        cores=4,
        seed=7,
        bit_rot=2,
        truncate=2,
        duplicates=2,
        env=env,
    )
    execute_prepared(prepared, settle=300.0)
    tracer.finalize()

    metrics = prepared.run.metrics
    problems = verify_parity(rollup, metrics)
    for p in problems:
        print(f"  parity mismatch: {p}")
    assert not problems, f"{len(problems)} rollup/exact mismatches"
    print(
        f"DASH PARITY OK events={rollup.events_seen} "
        f"cells={rollup.retained_cells()}"
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "dashboard.html")
    write_dashboard(
        path,
        rollup,
        metrics=metrics,
        spans=list(tracer.spans),
        bus_stats=env.bus.stats(),
        title="chaos run (examples/dashboard_run.py)",
    )
    size = os.path.getsize(path)
    assert size > 4096, f"dashboard suspiciously small ({size} bytes)"
    html = open(path, encoding="utf-8").read()
    for marker in ("Task state timeline", "Network bandwidth", "Telemetry"):
        assert marker in html, f"dashboard missing panel {marker!r}"
    print(f"DASHBOARD WRITTEN {path} ({size} bytes)")
    return path


def measure_density(events: int, workers: int) -> tuple:
    """Run quickstart at a given density; return (events_seen, cells)."""
    env = Environment()
    rollup = Rollup()
    tap(env.bus, [rollup])
    prepared = prepare_quickstart(
        events=events, workers=workers, seed=3, env=env
    )
    execute_prepared(prepared, settle=300.0)
    return rollup.events_seen, rollup.retained_cells()


def density_gate() -> None:
    """Retained cells must track windows, not events."""
    base_events, base_cells = measure_density(events=20_000, workers=4)
    dense_events, dense_cells = measure_density(events=200_000, workers=40)

    growth = dense_events / max(base_events, 1)
    cell_ratio = dense_cells / max(base_cells, 1)
    print(
        f"density sweep: {base_events} -> {dense_events} events folded "
        f"({growth:.1f}x), {base_cells} -> {dense_cells} retained cells "
        f"({cell_ratio:.2f}x)"
    )
    assert growth >= 5.0, f"sweep did not raise density (only {growth:.1f}x)"
    assert cell_ratio <= 2.0, (
        f"retained cells grew {cell_ratio:.2f}x under a {growth:.1f}x "
        f"event-density increase — rollup memory is not O(windows)"
    )
    print(
        f"DENSITY GATE OK events_x={growth:.1f} cells_x={cell_ratio:.2f} "
        f"base_cells={base_cells} dense_cells={dense_cells}"
    )


def main() -> None:
    render_chaos_dashboard()
    density_gate()


if __name__ == "__main__":
    main()
