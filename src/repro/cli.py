"""Command-line interface: ``python -m repro <command>``.

Mirrors the real Lobster's operational entry points on the simulated
substrate:

* ``run``        — build a DES scenario from the sweep registry
  (``quickstart``, ``simulate``, ``process``, ``chaos``,
  ``data_processing``, ``simulation``) with ``--param KEY=VALUE``
  overrides, drive it to completion and print the run report; a
  planned master crash (``chaos --param master_crash_at=S``) is
  warm-restarted from the Lobster DB and the campaign resumes,
* ``replay``     — fold a JSONL event recording (written by
  ``run --events-out``) through the monitoring heuristics,
* ``crashtest``  — the crash-consistency fuzzer: kill the master at
  every (or sampled) durable checkpoint and assert the warm restart
  converges to the uninterrupted run's published outputs,
* ``tasksize``   — the §4.1 task-size optimiser,
* ``profiles``   — list the bundled analysis-code profiles,
* ``topology``   — print the network fabric a run would use,
* ``sweep``      — expand a declarative :class:`~repro.sweep.SweepSpec`
  (JSON or Python file) into its run matrix, execute it across worker
  processes, and write a machine-readable ``BENCH_sweep.json``.

``run`` and ``replay`` share one set of output flags, and each flag
names the monitor folds it needs (:data:`_NEEDS`):

* ``--spans-out`` / ``--chrome-out`` — causal spans as JSONL or a
  Chrome/Perfetto trace, the makespan's critical path, and §5 findings
  with evidence spans,
* ``--dash-out`` — the static HTML ops dashboard built from streaming,
  bounded-memory rollups (``repro.monitor.rollup``),
* ``--check-parity`` — the rollup checked bit-for-bit against the
  exact ``RunMetrics`` reduction,
* ``--watch`` / ``--alerts-out`` / ``--fail-on-alert`` /
  ``--refresh-every`` — the run-health engine: streaming §5 detectors
  raise typed ``alert.raise``/``alert.clear`` events with evidence span
  ids, and the dashboard re-renders atomically at window closes
  (``repro.monitor.watch``).

The driver taps the union of those folds onto a live run's bus (with a
:class:`~repro.monitor.SpanTracer` only when spans are needed) or
replays a recording through them, and writes every output from the
folds; a live run and a replay of its recording therefore write the
same span files, Chrome trace and alert stream.

The run scenarios themselves live in :mod:`repro.scenarios` — the same
builders feed the figure benchmarks and the sweep engine, so a CLI run,
a bench row, and a sweep variant with the same parameters produce
identical dynamics.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import List, Optional

__all__ = ["main", "build_parser"]

HOUR = 3600.0
GBIT = 125_000_000.0


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    """The output flags ``run`` and ``replay`` share."""
    p.add_argument("--spans-out", default=None, metavar="PATH",
                   help="write one span per line as JSONL")
    p.add_argument("--chrome-out", default=None, metavar="PATH",
                   help="write a Chrome trace-event / Perfetto JSON file")
    p.add_argument("--dash-out", default=None, metavar="PATH",
                   help="render the run's HTML ops dashboard")
    p.add_argument("--window", type=float, default=1800.0, metavar="SECONDS",
                   help="rollup and detector window width (default: 1800 s)")
    p.add_argument("--check-parity", action="store_true",
                   help="verify the streaming rollup bit-for-bit against "
                        "the exact RunMetrics reduction and fail on drift")
    p.add_argument("--watch", action="store_true",
                   help="run the §5 health detectors and print their alerts")
    p.add_argument("--alerts-out", default=None, metavar="PATH",
                   help="write the alert stream as a JSON array "
                        "(implies --watch)")
    p.add_argument("--refresh-every", type=float, default=None,
                   metavar="SIMSECONDS",
                   help="re-render --dash-out every N simulated seconds "
                        "(quantised to window closes; atomic os.replace; "
                        "implies --watch)")
    p.add_argument("--fail-on-alert", action="store_true",
                   help="exit 1 if any alert was raised (implies --watch)")
    p.add_argument("--top", type=int, default=10,
                   help="show the N most frequent topics and the N largest "
                        "critical-path contributors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lobster (CLUSTER 2015) reproduction on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    r = sub.add_parser(
        "run", help="run a DES scenario from the sweep registry and report"
    )
    r.add_argument("scenario", metavar="SCENARIO",
                   help="sweep-registry DES scenario: quickstart, simulate, "
                        "process, chaos, data_processing or simulation")
    r.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="scenario parameter override (repeatable)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--events-out", default=None, metavar="PATH",
                   help="record the run's bus events to a JSONL file")
    _add_output_flags(r)

    rp = sub.add_parser(
        "replay", help="fold a recorded JSONL event stream through monitoring"
    )
    rp.add_argument("path", help="JSONL file written by --events-out (or JsonlSink)")
    _add_output_flags(rp)

    t = sub.add_parser("tasksize", help="run the section-4.1 task-size optimiser")
    t.add_argument("--tasklets", type=int, default=20_000)
    t.add_argument("--workers", type=int, default=1_600)
    t.add_argument("--eviction", choices=("constant", "weibull", "none"),
                   default="constant")
    t.add_argument("--probability", type=float, default=0.1)
    t.add_argument("--seed", type=int, default=0)

    ct = sub.add_parser(
        "crashtest",
        help="crash-consistency fuzz: kill the master at every (or "
             "sampled) DB checkpoint and assert the warm restart "
             "converges to the uninterrupted answer",
    )
    ct.add_argument("--scenario", default="micro", metavar="NAME",
                    help="crash scenario (see --list; default: micro)")
    ct.add_argument("--mode", choices=("exhaustive", "sample"),
                    default="exhaustive",
                    help="crash at every checkpoint, or at --samples "
                         "reservoir-sampled ones")
    ct.add_argument("--samples", type=int, default=10, metavar="N",
                    help="crash points to sample in sample mode")
    ct.add_argument("--seed", type=int, default=0)
    ct.add_argument("--double-crash", action="store_true",
                    help="also crash each resumed campaign at its first "
                         "recovery checkpoint and resume again")
    ct.add_argument("--report-out", default=None, metavar="PATH",
                    help="write the machine-readable JSON report")
    ct.add_argument("--list", action="store_true", dest="list_only",
                    help="list the crash scenarios and exit")

    sub.add_parser("profiles", help="list bundled analysis profiles")

    topo = sub.add_parser(
        "topology", help="print the network fabric a run would use"
    )
    topo.add_argument("--machines", type=int, default=50)
    topo.add_argument("--cores", type=int, default=8)
    topo.add_argument("--wan-gbit", type=float, default=0.6)
    topo.add_argument("--machines-per-switch", type=int, default=24)

    sw = sub.add_parser(
        "sweep",
        help="expand a declarative sweep spec and execute its run matrix",
    )
    sw.add_argument("spec", metavar="SPEC",
                    help="sweep spec: a .json file (SweepSpec.to_dict) or a "
                         ".py file defining SPEC or build_spec()")
    sw.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes (1 = run in-process)")
    sw.add_argument("--baseline", default=None, metavar="RUN_ID",
                    help="run id to diff variants against "
                         "(default: the all-baseline run)")
    sw.add_argument("--out", default="BENCH_sweep.json", metavar="PATH",
                    help="where to write the sweep payload")
    sw.add_argument("--resume", default=None, metavar="PATH",
                    help="prior sweep payload; completed run ids are reused")
    sw.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                    help="per-run wall-clock timeout (jobs > 1 only)")
    sw.add_argument("--list", action="store_true", dest="list_only",
                    help="print the expanded run matrix and exit")

    return parser


#: The monitor folds each output flag needs; ``replay`` always folds
#: ``metrics`` too.  Folds are tapped (or replayed) in the order
#: rollup, metrics, spans, then the watch engine.
_NEEDS = {
    "spans_out": ("metrics", "spans"),
    "chrome_out": ("metrics", "spans"),
    "dash_out": ("rollup", "metrics", "spans"),
    "check_parity": ("rollup", "metrics"),
    "watch": ("engine",),
    "alerts_out": ("engine",),
    "refresh_every": ("engine",),
    "fail_on_alert": ("engine",),
}


class _Stream:
    """The folds one command's output flags need, and what the outputs
    read besides them: the dashboard title, the live bus (None on
    replay), the watcher's bus timeline and the stream's end time."""

    def __init__(self, args):
        from repro.monitor import Rollup, RunMetrics, SpanStreamBuilder, WatchEngine

        need = {"metrics"} if args.command == "replay" else set()
        for flag, folds in _NEEDS.items():
            value = getattr(args, flag)
            if value is not None and value is not False:
                need.update(folds)
        self.rollup = Rollup(args.window) if "rollup" in need else None
        self.metrics = RunMetrics() if "metrics" in need else None
        self.spans = SpanStreamBuilder() if "spans" in need else None
        self.engine = WatchEngine(window=args.window) if "engine" in need else None
        self.title = ""
        self.bus = None
        self.bus_timeline = None
        self.now: Optional[float] = None
        self.refreshes = 0

    def folds(self) -> list:
        """The folds tapped before a live run (the watch engine rides on
        a ``RunWatcher`` tapped after them)."""
        return [f for f in (self.rollup, self.metrics, self.spans) if f is not None]

    def dashboard(self, path: str, **extra) -> None:
        from repro.monitor import write_dashboard

        if self.engine is not None:
            extra.update(alerts=self.engine.alerts,
                         watch_history=self.engine.history)
        write_dashboard(
            path,
            self.rollup,
            bus_stats=self.bus.stats() if self.bus is not None else None,
            bus_timeline=self.bus_timeline,
            **extra,
        )


def _refresh_at_window_closes(args, stream: _Stream) -> None:
    """Re-render ``--dash-out`` from the rollup at the first window close
    at least ``--refresh-every`` simulated seconds after the last one."""
    engine = stream.engine
    sample_bus = engine.on_window  # the RunWatcher's sampler (None on replay)
    last = 0.0

    def on_window(w_idx: int, t: float) -> None:
        nonlocal last
        if sample_bus is not None:
            sample_bus(w_idx, t)
        if t - last >= args.refresh_every:
            last = t
            stream.dashboard(args.dash_out, title=f"{stream.title} (t={t:.0f}s)", now=t)
            stream.refreshes += 1

    engine.on_window = on_window


def _registry_scenario(args):
    """Look up the ``run`` scenario in the sweep registry; returns it
    and its parameters (``--param`` overrides plus ``--seed``)."""
    from repro.sweep import get_scenario, list_scenarios

    try:
        scenario = get_scenario(args.scenario)
    except KeyError:
        names = ", ".join(s.name for s in list_scenarios())
        raise SystemExit(
            f"unknown scenario {args.scenario!r} (available: {names})"
        ) from None
    if scenario.kind != "des":
        raise SystemExit(f"scenario {args.scenario!r} is not a DES run scenario")
    params = _parse_params(args.param)
    params.setdefault("seed", args.seed)
    return scenario, params


def _replay_stream(args, out, stream: _Stream) -> None:
    """Load the recording once, replay it through the folds in one pass
    and print its summary."""
    from repro.monitor import load_events, replay

    try:
        events = load_events(args.path)
    except OSError as exc:
        raise SystemExit(str(exc)) from None
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise SystemExit(f"{args.path}: not a valid event stream ({exc})") from None
    stream.title = f"replay of {args.path}"
    stream.now = max((float(e.get("t", 0.0)) for e in events), default=None)
    if args.refresh_every is not None:
        _refresh_at_window_closes(args, stream)
    replay(events, stream.folds() + ([stream.engine] if stream.engine else []))

    metrics = stream.metrics
    out.write(f"{len(events)} events from {args.path}\n")
    counts = Counter(ev.get("topic", "?") for ev in events)
    for topic, n in counts.most_common(args.top):
        out.write(f"  {topic:<18s} {n:8d}\n")
    if len(counts) > args.top:
        out.write(f"  ... and {len(counts) - args.top} more topics\n")
    out.write(
        f"\ntask records: {metrics.n_tasks} "
        f"({metrics.n_succeeded()} ok, {metrics.n_failed()} failed), "
        f"evictions seen: {metrics.evictions_seen}\n"
    )
    if metrics.n_tasks:
        b = metrics.runtime_breakdown()
        out.write(f"overall efficiency: {metrics.overall_efficiency():.1%}\n")
        for label, hours, pct in b.rows():
            out.write(f"  {label:<16s} {hours:9.2f} h  {pct:5.1f}%\n")


def _run_stream(args, out, stream: _Stream) -> None:
    """Build the registry scenario with the sink, tracer and folds
    attached, drive it to completion and print its report."""
    from repro.desim import Environment
    from repro.monitor import JsonlSink, RunWatcher, SpanTracer, render_report, tap
    from repro.scenarios import execute_campaign

    scenario, params = _registry_scenario(args)
    env = Environment()
    sink = None
    if args.events_out is not None:
        try:
            sink = JsonlSink(args.events_out)
        except OSError as exc:
            raise SystemExit(
                f"cannot write events to {args.events_out}: {exc}"
            ) from None
        env.bus.attach(sink)
    tracer = SpanTracer(env) if stream.spans is not None else None
    tap(env.bus, stream.folds())
    stream.title = f"{args.scenario} (seed {params['seed']})"
    stream.bus = env.bus
    if stream.engine is not None:
        # Tapped after the folds, so alerts the watcher republishes
        # reach them after the event that raised them.
        stream.bus_timeline = RunWatcher(env.bus, stream.engine).bus_timeline
        if args.refresh_every is not None:
            _refresh_at_window_closes(args, stream)
    try:
        prepared = scenario.build(env, **params)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"scenario {args.scenario!r}: {exc}") from None
    # The settle window lets workers and glide-ins exit cleanly instead
    # of being garbage-collected mid-yield.
    result = execute_campaign(prepared, settle=300.0, log=out.write)
    if tracer is not None:
        tracer.finalize()
    stream.now = float(env.now)
    out.write(render_report(result.run) + "\n")
    if sink is not None:
        sink.close()
        out.write(f"recorded {sink.count} events to {sink.path}\n")


def _fold_stream(args, out) -> int:
    """``run`` and ``replay``: fold one event stream, live or recorded,
    into the folds the output flags name, then write every output from
    those folds."""
    from repro.monitor import (
        critical_path,
        diagnose,
        format_breakdown,
        verify_parity,
        work_coverage,
        write_chrome_trace,
        write_spans_jsonl,
    )
    from repro.monitor.tracing import orphan_spans

    if args.refresh_every is not None and args.dash_out is None:
        raise SystemExit("--refresh-every needs --dash-out")
    stream = _Stream(args)
    if args.command == "replay":
        _replay_stream(args, out, stream)
    else:
        _run_stream(args, out, stream)
    status = 0
    spans = stream.spans.result() if stream.spans is not None else None

    if args.spans_out is not None or args.chrome_out is not None:
        traces = {s.trace_id for s in spans}
        out.write(f"{len(spans)} spans across {len(traces)} traces, "
                  f"{len(orphan_spans(spans))} orphans\n")
        if args.spans_out is not None:
            n = write_spans_jsonl(spans, args.spans_out)
            out.write(f"wrote {n} spans to {args.spans_out}\n")
        if args.chrome_out is not None:
            n = write_chrome_trace(spans, args.chrome_out)
            out.write(f"wrote {n} trace events to {args.chrome_out} "
                      f"(open in chrome://tracing or ui.perfetto.dev)\n")
        slices, makespan = critical_path(spans) if spans else ([], 0.0)
        if slices:
            out.write("\n" + format_breakdown(slices, makespan, top=args.top) + "\n")
            out.write(
                f"critical path covers {work_coverage(slices, makespan):.1%} "
                f"of the {makespan:.0f}s makespan\n"
            )

    metrics = stream.metrics
    if args.command == "replay" or spans is not None:
        # A live run's report carries the plain findings; spans add evidence.
        findings = diagnose(metrics, spans=spans)
        if findings:
            out.write("\ntroubleshooting findings:\n")
            for d in findings:
                out.write(f"  {d}\n")
        elif metrics.n_tasks:
            out.write("\nno troubleshooting findings — run looks healthy\n")

    if args.check_parity:
        problems = verify_parity(stream.rollup, metrics)
        if problems:
            out.write("PARITY FAILED:\n")
            for p in problems:
                out.write(f"  - {p}\n")
            status = 1
        else:
            out.write("parity OK: rollup matches the exact reduction bit-for-bit\n")

    engine = stream.engine
    if engine is not None:
        out.write(
            f"watched {engine.events_seen} events across "
            f"{engine.windows_closed} windows"
            + (f", {stream.refreshes} mid-run refreshes\n"
               if args.refresh_every is not None else "\n")
        )
        for a in engine.alerts:
            verb = "RAISE" if a["topic"].endswith("raise") else "clear"
            out.write(
                f"ALERT {verb} t={a['t']:.0f} {a['alert']} {a['severity']} "
                f"window={a['window']} level={a['level']:.4g}\n"
            )
        raised = len(engine.alerts_raised())
        out.write(f"alerts: {raised} raised, {len(engine.alerts_cleared())} cleared\n")
        if args.alerts_out is not None:
            import json

            with open(args.alerts_out, "w", encoding="utf-8") as fh:
                json.dump(engine.alerts, fh, sort_keys=True, indent=1)
                fh.write("\n")
            out.write(f"alert stream written to {args.alerts_out}\n")
        if args.fail_on_alert and raised:
            status = 1

    if args.dash_out is not None:
        stream.dashboard(args.dash_out, metrics=metrics, spans=spans,
                         title=stream.title, now=stream.now)
        out.write(f"dashboard written to {args.dash_out}\n")
    return status


def cmd_crashtest(args, out) -> int:
    """Fuzz crash consistency: crash at checkpoints, assert convergence.

    See :mod:`repro.crashtest` for the harness.  Exit status is 0 only
    when every tested crash point converges with clean invariants (the
    CI gate greps the ``CRASHTEST OK`` verdict line as a backstop).
    """
    from repro.crashtest import list_crash_scenarios, run_crashtest

    if args.list_only:
        for spec in list_crash_scenarios():
            out.write(f"{spec.name:<12s} {spec.description}\n")
        return 0

    def progress(point):
        verdict = "ok" if point.ok else "FAILED"
        out.write(f"  crash @ seq={point.seq:<4d} {point.op:<22s} {verdict}\n")
        for problem in point.problems:
            out.write(f"      {problem}\n")

    try:
        report = run_crashtest(
            scenario=args.scenario,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            double_crash=args.double_crash,
            progress=progress,
        )
    except KeyError as exc:
        # str(KeyError) wraps the message in repr quotes; unwrap it.
        raise SystemExit(exc.args[0]) from None
    out.write(report.format_report() + "\n")
    if args.report_out is not None:
        import json

        with open(args.report_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        out.write(f"report written to {args.report_out}\n")
    return 0 if report.ok else 1


def cmd_tasksize(args, out) -> int:
    from repro.core import TaskSizeConfig, TaskSizeSimulator
    from repro.distributions import (
        ConstantHazardEviction,
        NoEviction,
        WeibullEviction,
    )

    model = {
        "constant": lambda: ConstantHazardEviction(args.probability),
        "weibull": lambda: WeibullEviction(),
        "none": lambda: NoEviction(),
    }[args.eviction]()
    sim = TaskSizeSimulator(
        TaskSizeConfig(n_tasklets=args.tasklets, n_workers=args.workers),
        seed=args.seed,
    )
    out.write(f"eviction model: {model!r}\n")
    out.write("hours  tasklets/task  efficiency\n")
    best = None
    for hours in (0.25, 0.5, 1, 2, 3, 4, 6, 8, 10):
        r = sim.simulate(hours * HOUR, model)
        out.write(f"{hours:5.2f}  {r.tasklets_per_task:13d}  {r.efficiency:10.4f}\n")
        if best is None or r.efficiency > best.efficiency:
            best = r
    out.write(
        f"\noptimal: {best.task_length / HOUR:.2f} h "
        f"({best.tasklets_per_task} tasklets/task) at {best.efficiency:.1%}\n"
    )
    return 0


def cmd_profiles(args, out) -> int:
    from repro.analysis.profiles import PROFILES, profile

    out.write(f"{'name':<14s} {'kind':<16s} {'cpu/evt':>8s} {'in/evt':>9s} {'out/evt':>9s}\n")
    for name in sorted(PROFILES):
        code = profile(name)
        out.write(
            f"{name:<14s} {code.kind.value:<16s} "
            f"{code.per_event_cpu.mean():8.3f} "
            f"{code.input_bytes_per_event / 1e3:8.0f}k "
            f"{code.output_bytes_per_event / 1e3:8.0f}k\n"
        )
    return 0


def cmd_topology(args, out) -> int:
    from repro.batch import MachinePool
    from repro.core import Services
    from repro.desim import Environment

    env = Environment()
    services = Services.default(env, wan_bandwidth=args.wan_gbit * GBIT)
    MachinePool.homogeneous(
        env,
        args.machines,
        cores=args.cores,
        fabric=services.fabric,
        machines_per_switch=args.machines_per_switch,
    )
    out.write(services.fabric.describe() + "\n")
    return 0


def cmd_sweep(args, out) -> int:
    """Expand a sweep spec, execute its matrix, and write the payload."""
    from repro.sweep import format_sweep_table, load_spec, run_sweep, write_json

    try:
        spec = load_spec(args.spec)
    except OSError as exc:
        raise SystemExit(str(exc)) from None
    except ValueError as exc:
        raise SystemExit(f"{args.spec}: {exc}") from None
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")

    plans = spec.expand()
    out.write(
        f"sweep {spec.name!r}: scenario {spec.scenario!r}, "
        f"{len(plans)} runs across {len(spec.axes)} axes "
        f"(seed {spec.resolved_seed()}, jobs {args.jobs})\n"
    )
    if args.list_only:
        for plan in plans:
            out.write(f"  {plan.run_id}\n")
        return 0

    def progress(row):
        status = row.status if not row.resumed else f"{row.status} (resumed)"
        note = ""
        if row.ok and "makespan_s" in row.metrics:
            note = f"  makespan {row.metrics['makespan_s']:.0f}s"
        elif row.error:
            note = f"  {row.error}"
        out.write(f"  [{status:>4s}] {row.run_id}{note}\n")

    try:
        payload = run_sweep(
            spec,
            jobs=args.jobs,
            baseline=args.baseline,
            resume=args.resume,
            timeout_s=args.timeout,
            progress=progress,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    write_json(payload, args.out)
    out.write(f"\n{format_sweep_table(payload)}\n")
    out.write(f"wrote {args.out}\n")
    return 0 if payload["n_failed"] == 0 else 1


def _parse_params(pairs: List[str]) -> dict:
    """Parse repeated ``--param KEY=VALUE`` flags into scenario kwargs.

    Values are coerced int → float → string so ``--param workers=20``
    and ``--param wan_gbit=0.6`` both round-trip into the scenario
    builder's native types.
    """
    params: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key.replace("-", "_")] = value
    return params


_COMMANDS = {
    "run": _fold_stream,
    "replay": _fold_stream,
    "crashtest": cmd_crashtest,
    "tasksize": cmd_tasksize,
    "profiles": cmd_profiles,
    "topology": cmd_topology,
    "sweep": cmd_sweep,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:  # e.g. `python -m repro replay run.jsonl | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
