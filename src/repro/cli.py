"""Command-line interface: ``python -m repro <command>``.

Commands
--------
simulate
    Run one (system, benchmark) pair and print the metric summary.
sweep
    Run a systems x benchmarks matrix and print a miss-ratio/stall grid.
experiment
    Regenerate one paper table/figure (or ``all``) and print it.
report
    Re-run figure experiments and compare them against the pinned
    baseline run, printing per-figure paper-fidelity tables with percent
    deviation (``--check`` fails on structural mismatches).
trace
    Generate, save, load, and characterise benchmark traces; ``trace
    export SYSTEM BENCHMARK`` writes a Chrome/Perfetto ``trace.json``.
perf
    Measure engine throughput (refs/sec) and print a report; ``--json``
    also writes the machine-readable form the bench-regression gate reads.
explore
    Calibrate the analytic surrogate on a real sweep, rank a large
    NC/PC/threshold/latency design space in seconds, simulate only the
    predicted Pareto frontier, and report predicted-vs-simulated error
    per Eq. 1 component; ``--check`` is the CI accuracy gate against
    ``benchmarks/baseline_surrogate.json``.
top
    Live monitor for a running (or finished) checkpointed sweep.
list
    Show the available systems, benchmarks, and experiments.

Examples
--------
::

    python -m repro simulate vbp5 radix --refs 200000 --profile
    python -m repro sweep base,vb,ncd barnes,radix --metric stall --jobs 4
    python -m repro sweep base,vb barnes,radix --profile --metric breakdown
    python -m repro sweep base,vb barnes,fft --jobs 4 --resume runs/night1
    python -m repro sweep base,vb fft --max-retries 3 --cell-timeout 600
    python -m repro sweep base,vb fft --inject-faults 'seed=7;kill=0.5@1'
    python -m repro experiment fig09 --refs 400000 --jobs 4
    python -m repro report --figures fig03,fig09 --refs 40000
    python -m repro report --check --refs 2000 --figures fig04
    python -m repro perf --refs 40000 --out throughput.txt --json perf.json
    python -m repro explore --benchmarks barnes,radix --jobs 4 --json out.json
    python -m repro explore --check --refs 30000 --jobs 4 --json gate.json
    python -m repro trace radix --refs 100000 --out radix.npz --stats
    python -m repro trace export vpp5 radix --refs 50000 --out trace.json
    python -m repro top runs/night1 --follow --jobs 4
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .analysis.charts import bar_chart
from .analysis.report import format_grid, perf_json, throughput_report
from .errors import ReproError
from .experiments import ALL_EXPERIMENTS
from .params import SETTINGS, BusProtocol, ThresholdPolicy, setting
from .sim.parallel import default_jobs, timed_sweep
from .sim.runner import (
    DEFAULT_REFS,
    DEFAULT_SCALE,
    get_trace,
    resolve_sweep_configs,
    simulate,
    sweep,
)
from .system.builder import SYSTEM_NAMES
from .trace.io import save_trace
from .trace.stats import characterize
from .trace.synthetic import BENCHMARK_NAMES


def _then_default(name: str) -> str:
    """``$NAME, then <its SETTINGS default>``, for a flag's help text."""
    return f"${name}, then {SETTINGS[name].default:g}"


def _add_sim_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--refs", type=int, default=DEFAULT_REFS,
                   help="shared references per trace (default %(default)s)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                   help="dataset scale vs. Table 3 (default %(default)s)")
    p.add_argument("--cache-assoc", type=int, default=None)
    p.add_argument("--nc-size", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None,
                   help="initial relocation threshold")
    p.add_argument("--fixed-threshold", action="store_true",
                   help="use the fixed (non-adaptive) threshold policy")
    p.add_argument("--moesir", action="store_true",
                   help="enable the dirty-shared O state (Sec. 3.2 ablation)")
    p.add_argument("--decrement-on-invalidation", action="store_true",
                   help="enable the Sec. 3.4 counter-decrement refinement")


def _sim_kwargs(args: argparse.Namespace) -> dict:
    kw: dict = {}
    if args.cache_assoc is not None:
        kw["cache_assoc"] = args.cache_assoc
    if args.nc_size is not None:
        kw["nc_size"] = args.nc_size
    if args.threshold is not None:
        kw["initial_threshold"] = args.threshold
    if args.fixed_threshold:
        kw["threshold_policy"] = ThresholdPolicy.FIXED
    if args.moesir:
        kw["protocol"] = BusProtocol.MOESIR
    if args.decrement_on_invalidation:
        kw["decrement_on_invalidation"] = True
    return kw


def _cmd_simulate(args: argparse.Namespace) -> int:
    result = simulate(
        args.system, args.benchmark, refs=args.refs, seed=args.seed,
        scale=args.scale, profile=args.profile, **_sim_kwargs(args),
    )
    print(f"{result.system} / {result.benchmark}  "
          f"({result.refs} refs, {result.elapsed_s:.2f}s)")
    for key, value in result.summary().items():
        print(f"  {key:28s} {value:14.2f}")
    if args.profile:
        from .analysis.report import format_stall_breakdown
        from .obs.profile import stall_breakdown

        parts = stall_breakdown(
            result.metrics or {}, result.system, result.benchmark
        )
        print()
        print(format_stall_breakdown(
            "Eq. 1 stall attribution (cycles)",
            [result.system],
            {result.system: {k: float(v) for k, v in parts.items()}},
        ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from .faults import FaultPlan
    from .sim.parallel import RecoveryLog, resolve_policy

    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    benches = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    if args.jobs is None:
        args.jobs = default_jobs()
    # validate the retry/timeout knobs before any cell runs
    resolve_policy(max_retries=args.max_retries, cell_timeout=args.cell_timeout)
    if args.inject_faults is not None:
        # parse eagerly (bad grammar fails now, not in a worker), then export
        # the canonical spec so forked workers inherit the same schedule
        plan = FaultPlan.parse(args.inject_faults)
        os.environ["REPRO_FAULTS"] = plan.spec()
    recovery = RecoveryLog()
    results = sweep(
        systems, benches, refs=args.refs, seed=args.seed, scale=args.scale,
        jobs=args.jobs, run_dir=args.resume, max_retries=args.max_retries,
        cell_timeout=args.cell_timeout, recovery=recovery,
        profile=args.profile or args.metric == "breakdown", **_sim_kwargs(args),
    )

    if args.metric == "breakdown":
        _print_stall_breakdowns(results, systems, benches, chart=args.chart)
    else:
        if args.metric == "miss":
            cell = lambda b, s: results[(s, b)].miss_ratio  # noqa: E731
            title = "Cluster miss ratio (%)"
        elif args.metric == "stall":
            cell = lambda b, s: results[(s, b)].stall_per_reference  # noqa: E731
            title = "Remote read stall (cycles/ref)"
        else:
            cell = lambda b, s: float(results[(s, b)].traffic_blocks)  # noqa: E731
            title = "Remote traffic (blocks)"
        if args.chart:
            values = {(s, b): cell(b, s) for s in systems for b in benches}
            print(bar_chart(title, benches, systems, values))
        else:
            print(format_grid(title, benches, systems, cell))
    if len(recovery):
        summary = ", ".join(
            f"{kind}={n}" for kind, n in sorted(recovery.counts.items())
        )
        print(f"recovery: {summary}", file=sys.stderr)
    return 0


def _print_stall_breakdowns(results, systems, benches, chart: bool) -> None:
    """Render the profiled Eq. 1 stall attribution of a sweep.

    Prefers the profiler's attribution out of each cell's metrics snapshot
    (bit-identical across serial/parallel runs); cells without profile
    data fall back to the equivalent closed-form
    ``result.stall_components`` — the two agree exactly by the
    conservation invariant.
    """
    from .analysis.charts import stall_component_chart
    from .analysis.report import format_stall_breakdown
    from .obs.profile import profiled_cells, stall_breakdown

    stacks = {}
    for s in systems:
        for b in benches:
            result = results[(s, b)]
            snap = result.metrics or {}
            if f"{s}/{b}" in profiled_cells(snap):
                parts = stall_breakdown(snap, s, b)
            else:
                parts = result.stall_components
            stacks[(s, b)] = {k: float(v) for k, v in parts.items()}
    if chart:
        print(stall_component_chart(
            "Remote read stall attribution (Eq. 1 cycles)",
            benches, systems, stacks,
        ))
        return
    for i, b in enumerate(benches):
        if i:
            print()
        print(format_stall_breakdown(
            f"Eq. 1 stall attribution — {b} (cycles)",
            systems,
            {s: stacks[(s, b)] for s in systems},
        ))


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    import os

    if args.refs is not None:
        os.environ["REPRO_BENCH_REFS"] = str(args.refs)
    if args.jobs is not None:
        # experiment drivers read REPRO_JOBS through common.default_jobs()
        os.environ["REPRO_JOBS"] = str(args.jobs)
    for name in names:
        print(ALL_EXPERIMENTS[name]())
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os
    import time

    from .analysis.fidelity import (
        REPORT_FIGURES,
        compare_figure,
        render_report,
        report_summary_dict,
    )
    from .experiments.common import default_refs
    from .obs.manifest import build_manifest, write_manifest

    if args.figures == "all":
        figures = list(REPORT_FIGURES)
    else:
        figures = [f.strip() for f in args.figures.split(",") if f.strip()]
    unknown = [f for f in figures if f not in REPORT_FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(REPORT_FIGURES)}", file=sys.stderr)
        return 2

    if args.jobs is not None:
        # figure drivers read REPRO_JOBS through common.default_jobs()
        os.environ["REPRO_JOBS"] = str(args.jobs)
    refs = args.refs if args.refs is not None else default_refs()

    comparisons = []
    merged_results = {}
    start = time.perf_counter()
    for fig in figures:
        exp = ALL_EXPERIMENTS[fig](refs=refs, seed=args.seed)
        comparisons.append(compare_figure(fig, exp.data, tolerance_pct=args.tolerance))
        for (system, bench), r in exp.results.items():
            merged_results[(f"{fig}/{system}", bench)] = r
    wall = time.perf_counter() - start

    text = render_report(comparisons, refs=refs, seed=args.seed)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")

    # the manifest backing the report: next to --out, else --manifest-dir,
    # else $REPRO_MANIFEST_DIR
    manifest_dest = setting("REPRO_MANIFEST_DIR", args.manifest_dir)
    if args.out:
        manifest_dest = os.path.dirname(os.path.abspath(args.out))
    if manifest_dest:
        manifest = build_manifest(
            merged_results,
            kind="report",
            command="repro report --figures " + ",".join(figures),
            refs=refs,
            seed=args.seed,
            jobs=args.jobs,
            wall_s=wall,
            extra={
                "fidelity": report_summary_dict(comparisons),
                "tolerance_pct": args.tolerance,
            },
        )
        path = write_manifest(manifest, manifest_dest, name="report")
        print(f"manifest written to {path}")

    if args.check:
        problems = [p for comp in comparisons for p in comp.structural_problems]
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"check ok: {sum(len(c.cells) for c in comparisons)} cells "
              f"across {len(comparisons)} figures match the baseline's shape")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.benchmark == "export":
        return _cmd_trace_export(args)
    if args.benchmark == "serve-export":
        return _cmd_trace_serve_export(args)
    if args.export_args:
        print("error: unexpected arguments "
              f"{' '.join(args.export_args)!r} (only 'trace export' and "
              "'trace serve-export' take positionals)", file=sys.stderr)
        return 2
    trace = get_trace(args.benchmark, refs=args.refs, seed=args.seed,
                      scale=args.scale)
    print(f"{trace!r}")
    if args.stats:
        c = characterize(trace)
        print(f"  distinct pages        {c.distinct_pages}")
        print(f"  distinct blocks       {c.distinct_blocks}")
        print(f"  footprint             {c.footprint_bytes / (1 << 20):.2f} MB")
        print(f"  write fraction        {c.write_fraction:.3f}")
        print(f"  block utilisation     {c.block_utilization:.3f}")
        print(f"  page utilisation      {c.page_utilization:.3f}")
        print(f"  remote fraction       {c.remote_fraction:.3f}")
        print(f"  refs / distinct block {c.block_reuse:.2f}")
    if args.out:
        save_trace(trace, args.out)
        print(f"saved to {args.out}")
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .obs.timeline import trace_simulation, validate_chrome_trace, write_chrome_trace

    if len(args.export_args) != 2:
        print("usage: repro trace export SYSTEM BENCHMARK "
              "[--refs N] [--seed S] [--scale F] [--out trace.json]",
              file=sys.stderr)
        return 2
    system, benchmark = args.export_args
    result, doc = trace_simulation(
        system, benchmark, refs=args.refs, seed=args.seed, scale=args.scale,
    )
    problems = validate_chrome_trace(doc)
    if problems:  # should be unreachable; belt-and-braces before writing
        for p in problems:
            print(f"invalid trace: {p}", file=sys.stderr)
        return 1
    out = args.out or "trace.json"
    write_chrome_trace(doc, out)
    n_events = len(doc["traceEvents"])
    print(f"{system} / {benchmark}: {n_events} trace events "
          f"({result.refs} refs) written to {out}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_trace_serve_export(args: argparse.Namespace) -> int:
    """``repro trace serve-export RUN_DIR``: wall-clock span tree export.

    Reads the ``spans.jsonl`` a service job recorded (HTTP receive →
    queue-wait → per-cell simulate/cache-hit → store-put → respond) and
    writes it as Chrome/Perfetto trace-event JSON in the **wall-clock**
    clock domain — unlike ``trace export``, whose timeline is simulated
    bus cycles.
    """
    from .obs.spans import load_spans, span_tree_problems, spans_to_chrome
    from .obs.timeline import validate_chrome_trace, write_chrome_trace

    if len(args.export_args) != 1:
        print("usage: repro trace serve-export RUN_DIR [--out spans.json]",
              file=sys.stderr)
        return 2
    run_dir = args.export_args[0]
    spans = load_spans(run_dir)
    if not spans:
        print(f"error: no spans found under {run_dir} (expected "
              "spans.jsonl from a service-run job)", file=sys.stderr)
        return 1
    for problem in span_tree_problems(spans):
        print(f"warning: {problem}", file=sys.stderr)
    doc = spans_to_chrome(spans)
    problems = validate_chrome_trace(doc)
    if problems:  # should be unreachable; belt-and-braces before writing
        for p in problems:
            print(f"invalid trace: {p}", file=sys.stderr)
        return 1
    out = args.out or "spans.json"
    write_chrome_trace(doc, out)
    traces = sorted({s.get("trace_id") for s in spans if s.get("trace_id")})
    print(f"{len(spans)} span(s) across {len(traces)} trace(s) "
          f"written to {out}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.monitor import watch

    progress = watch(
        args.run_dir, follow=args.follow, interval=args.interval,
        jobs=args.jobs, max_updates=args.max_updates,
    )
    if not progress.header_present:
        print(f"warning: no run.json in {args.run_dir} "
              "(sweep not started, or not a --resume run directory)",
              file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.app import run_service

    run_service(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        job_workers=args.job_workers,
        max_queued_jobs=args.max_queued_jobs,
        max_inflight_cells=args.max_inflight_cells,
        job_ttl_s=args.job_ttl,
        drain_timeout=args.drain_timeout,
    )
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    benches = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    configs = resolve_sweep_configs(systems)
    results, wall = timed_sweep(
        configs, benches, refs=args.refs, seed=args.seed, jobs=args.jobs
    )
    report = throughput_report(results, wall_s=wall, jobs=args.jobs)
    doc = perf_json(results, wall_s=wall, jobs=args.jobs)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.out}")
    if args.json:
        import json as _json

        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"machine-readable report written to {args.json}")
    return 0


def _parse_sizes(text: str) -> tuple:
    """'4k,64k,1m' -> (4096, 65536, 1048576); bare numbers are bytes."""
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        mult = 1
        if part.endswith("k"):
            mult, part = 1024, part[:-1]
        elif part.endswith("m"):
            mult, part = 1024 * 1024, part[:-1]
        try:
            out.append(int(part) * mult)
        except ValueError:
            raise ReproError(f"bad size {part!r} (use e.g. 4k, 64k, 1m)") from None
    return tuple(out)


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ReproError(f"bad integer list {text!r}") from None


def _cmd_explore(args: argparse.Namespace) -> int:
    import json as _json

    from .surrogate import DesignSpace, SurrogateModel, check_surrogate, explore
    from .surrogate.explore import explore_json, explore_report, validation_report

    space = DesignSpace(
        families=tuple(f.strip() for f in args.families.split(",") if f.strip()),
        nc_sizes=_parse_sizes(args.nc_sizes),
        dram_nc_sizes=_parse_sizes(args.dram_nc_sizes),
        pc_denoms=_parse_ints(args.pc_denoms),
        thresholds=_parse_ints(args.thresholds),
        remote_latencies=_parse_ints(args.remote_latencies),
    )
    benches = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    if args.jobs is None:
        args.jobs = default_jobs()
    store = None
    if args.store:
        from .service.store import ResultStore

        store = ResultStore(root=args.store)

    if args.check:
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                baseline = _json.load(fh)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"cannot read surrogate baseline {args.baseline}: {exc}"
            ) from None
        doc, cells, failures = check_surrogate(
            baseline, space, benches, refs=args.refs, seed=args.seed,
            scale=args.scale, jobs=args.jobs, sample=args.sample,
            result_store=store,
        )
        report = validation_report(cells)
        report += (
            f"\n\nranked {doc['n_candidates_ranked']:,} candidates in "
            f"{doc['rank_seconds']:.3f}s ({doc['candidates_per_sec']:,.0f}/s)"
        )
        print(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
            print(f"report written to {args.out}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"machine-readable report written to {args.json}")
        if failures:
            print("surrogate check: FAILED")
            for f in failures:
                print(f"  {f}")
            return 1
        print("surrogate check: within baseline "
              f"({doc['validation']['cells']} held-out cells)")
        return 0

    model = SurrogateModel.load(args.model) if args.model else None
    outcome = explore(
        space, benches, refs=args.refs, seed=args.seed, scale=args.scale,
        jobs=args.jobs, sample=args.sample, frontier_max=args.frontier_max,
        simulate_frontier=not args.no_simulate,
        result_store=store, model=model,
    )
    report = explore_report(outcome)
    print(report)
    if args.save_model:
        outcome.model.save(args.save_model)
        print(f"surrogate model written to {args.save_model}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.out}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(explore_json(outcome), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"machine-readable report written to {args.json}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import os
    import time

    from .check import (
        DEFAULT_VARIANTS,
        diff_cell,
        diff_parallel_sweep,
        explore_variant,
        replay_artifact,
        run_fuzz,
    )
    from .errors import ModelCheckViolation, OracleDivergenceError
    from .obs import EventTracer
    from .obs.manifest import build_manifest, write_manifest

    if args.replay:
        verdict = replay_artifact(args.replay)
        status = "REPRODUCED" if verdict["reproduced"] else "passes now"
        print(f"{args.replay}: {status} "
              f"({verdict['events']} events, expected {verdict['expected_error']}, "
              f"got {verdict['error']})")
        return 1 if verdict["reproduced"] else 0

    # no engine selected => run all three (explore, diff, a short fuzz)
    run_all = not (args.explore or args.diff or args.fuzz)
    if args.events and os.path.dirname(args.events):
        os.makedirs(os.path.dirname(args.events), exist_ok=True)
    tracer = EventTracer(jsonl_path=args.events) if args.events else None
    started = time.time()
    summary: dict = {}
    failed = False

    try:
        if args.explore or run_all:
            variants = (
                [v.strip() for v in args.variants.split(",") if v.strip()]
                if args.variants else list(DEFAULT_VARIANTS)
            )
            for system in variants:
                try:
                    rep = explore_variant(
                        system, n_blocks=args.blocks, max_states=args.max_states
                    )
                except ModelCheckViolation as exc:
                    failed = True
                    if tracer is not None:
                        tracer.emit("explore_violation", 0, detail=str(exc))
                    print(f"explore {system:6s} VIOLATION\n{exc}")
                    continue
                if tracer is not None:
                    tracer.emit(
                        "explore_variant", rep.n_states,
                        detail=f"{system}={rep.n_states}={rep.n_transitions}",
                    )
                print(f"explore {system:6s} OK  {rep.n_states:7d} states  "
                      f"{rep.n_transitions:8d} transitions  depth {rep.max_depth}")
            summary["explored_variants"] = len(variants)

        if args.diff or run_all:
            systems = [s.strip() for s in args.systems.split(",") if s.strip()]
            benches = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
            cells = 0
            for system in systems:
                for bench in benches:
                    try:
                        diff_cell(system, bench, refs=args.refs,
                                  seed=args.seed, scale=args.scale)
                        cells += 1
                        if tracer is not None:
                            tracer.emit("diff_cell", cells,
                                        detail=f"{system}/{bench}")
                    except OracleDivergenceError as exc:
                        failed = True
                        if tracer is not None:
                            tracer.emit("diff_divergence", cells, detail=str(exc))
                        print(f"diff {system}/{bench} DIVERGENCE: {exc}")
            print(f"diff    {cells} cells agree (simulator == oracle, "
                  f"{args.refs} refs each)")
            n = diff_parallel_sweep(systems, benches, refs=args.refs,
                                    seed=args.seed, scale=args.scale,
                                    jobs=args.jobs)
            if tracer is not None:
                tracer.emit("diff_parallel", n, detail="identical")
            print(f"diff    serial == --jobs {args.jobs} on {n} cells")
            summary["diffed_cells"] = cells

        if args.fuzz or run_all:
            budget = args.budget if not run_all else min(args.budget, 10.0)
            report = run_fuzz(
                seed=args.seed, budget_s=budget, max_cases=args.max_cases,
                out_dir=args.out_dir, tracer=tracer,
            )
            print(f"fuzz    {report.cases_run} cases in {report.elapsed:.1f}s, "
                  f"{len(report.failures)} failures")
            for f in report.failures:
                failed = True
                print(f"  {f.error}: shrunk {f.original_length} -> "
                      f"{len(f.case.events)} events -> {f.artifact_path}")
            summary["fuzz_cases"] = report.cases_run
            summary["fuzz_failures"] = len(report.failures)
    finally:
        if tracer is not None:
            tracer.close()

    manifest_dest = setting("REPRO_MANIFEST_DIR", args.manifest_dir)
    if manifest_dest:
        summary["verdict"] = "fail" if failed else "pass"
        manifest = build_manifest(
            {}, kind="check", command="check",
            seed=args.seed, wall_s=time.time() - started, extra=summary,
        )
        path = write_manifest(manifest, manifest_dest, name="check")
        print(f"manifest written to {path}")

    if failed:
        print("check: FAILED")
        return 1
    print("check: all engines passed")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("systems:     " + " ".join(SYSTEM_NAMES)
          + "   (+ digit suffix for PC fraction, e.g. ncp5)")
    print("benchmarks:  " + " ".join(BENCHMARK_NAMES))
    print("experiments: " + " ".join(ALL_EXPERIMENTS))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SRAM network caches in clustered DSMs (HPCA 1998) "
                    "reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one system on one benchmark")
    p.add_argument("system")
    p.add_argument("benchmark")
    p.add_argument("--profile", action="store_true",
                   help="attribute the remote read stall to its Eq. 1 "
                        "components and print the breakdown")
    _add_sim_options(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a systems x benchmarks matrix")
    p.add_argument("systems", help="comma-separated system names")
    p.add_argument("benchmarks", help="comma-separated benchmark names")
    p.add_argument("--metric", choices=("miss", "stall", "traffic", "breakdown"),
                   default="miss",
                   help="'breakdown' prints the profiled Eq. 1 stall "
                        "attribution per benchmark (implies --profile)")
    p.add_argument("--chart", action="store_true",
                   help="draw horizontal bars instead of a number grid")
    p.add_argument("--profile", action="store_true",
                   help="run the stall profiler in every cell; profile data "
                        "lands in each cell's metrics snapshot")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the matrix "
                        "(default $REPRO_JOBS, then the CPU count)")
    p.add_argument("--resume", metavar="DIR", default=None,
                   help="journal completed cells in DIR and skip any already "
                        "recorded there; an interrupted sweep re-run with the "
                        "same DIR resumes bit-identically")
    p.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="attempts per cell beyond the first before the sweep "
                        f"fails (default {_then_default('REPRO_MAX_RETRIES')})")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-cell wall-clock budget; a stuck cell's worker is "
                        "killed and the cell retried (default "
                        "$REPRO_CELL_TIMEOUT, then unlimited)")
    p.add_argument("--inject-faults", metavar="SPEC", default=None,
                   help="deterministic fault injection for robustness "
                        "testing, e.g. 'seed=7;kill=0.5@1;slow=0.2:1.5' "
                        "(see docs/ROBUSTNESS.md for the grammar)")
    _add_sim_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", help="fig03..fig11, table1..table3, abl_ostate, abl_decrement, "
                                "abl_counter_sharing, abl_nc_size, or 'all'")
    p.add_argument("--refs", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the figure's sweeps "
                        "(default $REPRO_JOBS, then serial)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "report",
        help="compare fresh figure runs against the pinned baseline",
    )
    p.add_argument("--figures", default="all",
                   help="comma-separated fig03..fig11 (default: all)")
    p.add_argument("--refs", type=int, default=None,
                   help="references per trace (default "
                        f"{_then_default('REPRO_BENCH_REFS')}; the pinned "
                        "baseline is a 400000-ref run)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the figure sweeps "
                        "(default $REPRO_JOBS, then serial)")
    p.add_argument("--tolerance", type=float, default=5.0,
                   help="flag cells deviating more than this %% from the "
                        "baseline (default %(default)s)")
    p.add_argument("--out", default=None,
                   help="write the report here (manifest lands next to it)")
    p.add_argument("--manifest-dir", default=None,
                   help="write the run manifest here (default: next to "
                        "--out, else $REPRO_MANIFEST_DIR)")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero on structural problems (missing "
                        "cells, non-finite values); deviations never fail")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "perf", help="measure engine throughput and print a report"
    )
    p.add_argument("--systems", default="base,vb,vpp5",
                   help="comma-separated system names (default %(default)s)")
    p.add_argument("--benchmarks", default="barnes",
                   help="comma-separated benchmark names (default %(default)s)")
    p.add_argument("--refs", type=int, default=40_000,
                   help="references per trace (default %(default)s)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default serial — single-core "
                        "refs/sec is the regression-tracked number)")
    p.add_argument("--out", default=None,
                   help="also write the report to this file")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write a machine-readable report here (the "
                        "shape scripts/check_bench_regression.py consumes)")
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser(
        "explore",
        help="rank an NC/PC design space with the analytic surrogate and "
             "simulate only the predicted Pareto frontier",
    )
    p.add_argument("--benchmarks", default="barnes,ocean,radix,raytrace",
                   help="benchmarks to calibrate on and optimise for "
                        "(default %(default)s)")
    p.add_argument("--refs", type=int, default=40_000,
                   help="references per trace for calibration/frontier "
                        "sweeps (default %(default)s)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                   help="dataset scale vs. Table 3 (default %(default)s)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the real sweeps "
                        "(default $REPRO_JOBS, then the CPU count)")
    p.add_argument("--families",
                   default="base,nc,vb,vp,ncd,p,ncp,vbp,vpp,vxp",
                   help="system families to search (default %(default)s)")
    p.add_argument("--nc-sizes", default="4k,8k,16k,32k,64k,128k",
                   metavar="SIZES",
                   help="SRAM NC capacities, k/m suffixes "
                        "(default %(default)s)")
    p.add_argument("--dram-nc-sizes", default="256k,512k,1m", metavar="SIZES",
                   help="DRAM NC capacities for the ncd family "
                        "(default %(default)s)")
    p.add_argument("--pc-denoms", default="9,7,5,3", metavar="DENOMS",
                   help="page-cache fraction denominators, i.e. PC holds "
                        "1/N of the dataset (default %(default)s)")
    p.add_argument("--thresholds", default="2,4,8,16", metavar="THRESHOLDS",
                   help="initial relocation thresholds (default %(default)s)")
    p.add_argument("--remote-latencies", default="30", metavar="CYCLES",
                   help="remote-access latency axis; event counts are "
                        "latency-independent, so this axis adds no model "
                        "error (default %(default)s)")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="rank a deterministic random sample of N candidates "
                        "instead of the full cross product")
    p.add_argument("--frontier-max", type=int, default=12, metavar="N",
                   help="simulate at most N frontier points, evenly spaced "
                        "(default %(default)s)")
    p.add_argument("--no-simulate", action="store_true",
                   help="stop after ranking; print the predicted frontier "
                        "without simulating (no error report)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="content-addressed result store to reuse across "
                        "runs (the sweep service's ResultStore layout)")
    p.add_argument("--model", default=None, metavar="PATH",
                   help="load a saved surrogate model instead of "
                        "calibrating (see --save-model)")
    p.add_argument("--save-model", default=None, metavar="PATH",
                   help="write the fitted surrogate model JSON here")
    p.add_argument("--check", action="store_true",
                   help="CI accuracy gate: calibrate, validate on held-out "
                        "configurations, and fail if any error metric "
                        "exceeds the committed baseline")
    p.add_argument("--baseline", default="benchmarks/baseline_surrogate.json",
                   help="baseline thresholds for --check "
                        "(default %(default)s)")
    p.add_argument("--out", default=None,
                   help="also write the report to this file")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the machine-readable outcome here "
                        "(mirrors 'repro perf --json')")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser(
        "trace",
        help="generate/inspect a benchmark trace, 'trace export "
             "SYSTEM BENCHMARK' for a Chrome/Perfetto trace.json, or "
             "'trace serve-export RUN_DIR' for a service job's "
             "wall-clock span tree",
    )
    p.add_argument("benchmark",
                   help="benchmark name, 'export' to write a Chrome "
                        "trace-event file of a simulated run, or "
                        "'serve-export' for a service run directory's "
                        "wall-clock spans")
    p.add_argument("export_args", nargs="*", metavar="ARGS",
                   help="for 'trace export': SYSTEM BENCHMARK to simulate "
                        "with event tracing on; for 'trace serve-export': "
                        "the job RUN_DIR holding spans.jsonl")
    p.add_argument("--refs", type=int, default=DEFAULT_REFS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--out", default=None,
                   help="save as .npz (trace) / trace.json (trace export) "
                        "/ spans.json (trace serve-export)")
    p.add_argument("--stats", action="store_true",
                   help="print trace characterisation")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "top",
        help="live monitor for a checkpointed sweep's run directory",
    )
    p.add_argument("run_dir", help="the sweep's --resume directory")
    p.add_argument("--follow", action="store_true",
                   help="keep refreshing until the sweep completes")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes with --follow "
                        "(default %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker count the sweep runs with (sharpens the ETA)")
    p.add_argument("--max-updates", type=int, default=None,
                   help="stop after N refreshes even if incomplete")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "check",
        help="run the protocol verification suite "
             "(model checker / oracle diff / fuzzer)",
    )
    p.add_argument("--explore", action="store_true",
                   help="exhaustively model-check tiny configurations")
    p.add_argument("--diff", action="store_true",
                   help="diff the simulator against the reference oracle")
    p.add_argument("--fuzz", action="store_true",
                   help="fuzz adversarial interleavings")
    p.add_argument("--replay", metavar="ARTIFACT",
                   help="re-execute a saved fuzz artifact and exit")
    p.add_argument("--variants", default=None,
                   help="comma-separated systems to explore "
                        "(default: the built-in tiny-config set)")
    p.add_argument("--blocks", type=int, default=2,
                   help="blocks in the explored address space "
                        "(default %(default)s; 3+ is much slower)")
    p.add_argument("--max-states", type=int, default=2_000_000,
                   help="abort exploration past this many states")
    p.add_argument("--systems", default="base,nc,ncd,ncs,vb,vp,p2,vbp2,vxp2",
                   help="systems for --diff (comma-separated)")
    p.add_argument("--benchmarks",
                   default="barnes,cholesky,fft,fmm,lu,ocean,radix,raytrace",
                   help="benchmarks for --diff (comma-separated)")
    p.add_argument("--refs", type=int, default=10_000,
                   help="references per --diff cell (default %(default)s)")
    p.add_argument("--scale", type=float, default=0.03125,
                   help="dataset scale for --diff traces (default %(default)s)")
    p.add_argument("--jobs", type=int, default=2,
                   help="parallel jobs for the serial-vs-parallel diff")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=float, default=60.0,
                   help="fuzzing time budget in seconds (default %(default)s)")
    p.add_argument("--max-cases", type=int, default=None,
                   help="stop fuzzing after N cases (overrides --budget)")
    p.add_argument("--out-dir", default="fuzz-artifacts",
                   help="directory for shrunk failing-case artifacts")
    p.add_argument("--events", default=None,
                   help="stream verification events to this JSONL file")
    p.add_argument("--manifest-dir", default=None,
                   help="write a check manifest here (or $REPRO_MANIFEST_DIR)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "serve",
        help="run the sweep job server (async HTTP + result cache)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default %(default)s)")
    p.add_argument("--port", type=int, default=8752,
                   help="bind port; 0 picks an ephemeral one "
                        "(default %(default)s)")
    p.add_argument("--data-dir", default=None,
                   help="service state directory: result store + job "
                        "journals (default $REPRO_SERVICE_DIR, then "
                        "~/.cache/repro/service)")
    p.add_argument("--job-workers", type=int, default=2,
                   help="sweep jobs run concurrently (default %(default)s)")
    p.add_argument("--max-queued-jobs", type=int, default=None,
                   help="admission control: queued jobs before submissions "
                        "are 503'd; 0 disables the bound (default "
                        f"{_then_default('REPRO_MAX_QUEUED_JOBS')})")
    p.add_argument("--max-inflight-cells", type=int, default=None,
                   help="admission control: queued+running sweep cells "
                        "before submissions are 503'd; 0 disables "
                        f"(default {_then_default('REPRO_MAX_INFLIGHT_CELLS')})")
    p.add_argument("--job-ttl", type=float, default=None,
                   help="seconds a finished job is kept before TTL garbage "
                        "collection removes it (default $REPRO_JOB_TTL, "
                        "then keep forever)")
    p.add_argument("--drain-timeout", type=float, default=None,
                   help="graceful-shutdown seconds to let running jobs "
                        "finish before parking them at a cell boundary "
                        f"(default {_then_default('REPRO_DRAIN_TIMEOUT')})")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("list", help="show systems/benchmarks/experiments")
    p.set_defaults(func=_cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
