"""``paper_matrix``: the ``repro experiment fig09`` systems plus ``vxp5`` over
all eight Table 3 benchmarks, run serially through ``repro.sweep(...,
jobs=1)`` as the figure drivers do, one benchmark row per call.

Each repetition clears the in-process trace cache first, so it pays trace
generation exactly as a fresh ``repro experiment`` run does; repetitions
continue until the run length is used up and the median one is reported.
Rows alternate between the vCPUs, each after one calibration loop, and
every time is scaled to the reference host (:class:`common.HostSpeed`).
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List, Tuple

from common import (
    OUT, HostSpeed, Outcome, complete_layer_metrics, finish, load_goldens, metric,
    percentile, tail_line, time_import_repro, trace_seed, validate_trace, vm_hwm_mb,
)

SYSTEMS = ("dinf", "base", "ncs", "ncd", "ncp", "vbp", "vpp",
           "ncp5", "vbp5", "vpp5", "vxp5")
REFS = 40_000
#: per-cell tail percentile: two repetitions give 176 cells, 17 beyond p90
CELL_TAIL_PCT = 90
IMPORT_SETUPS = 7
#: cells the cProfile cross-check profiles (raytrace hits in L1 least)
PROFILED = (("vxp5", "raytrace"), ("vxp5", "cholesky"))

Rep = Tuple[float, Dict[Tuple[str, str], object]]


def sweep_once(repro, seed: int, recovery, speed: HostSpeed, tracer=None) -> Rep:
    """One matrix; returns its summed ``repro.sweep`` wall time and cells."""
    repro.clear_trace_cache()
    wall = 0.0
    results: Dict[Tuple[str, str], object] = {}
    for bench in repro.BENCHMARK_NAMES:
        speed.sample()
        t0 = time.perf_counter()
        with tracer.span("repro.sweep") if tracer is not None else contextlib.nullcontext():
            row = repro.sweep(SYSTEMS, [bench], refs=REFS, seed=seed, jobs=1,
                              recovery=recovery)
        wall += time.perf_counter() - t0
        results.update(row)
    return wall, results


def check_cells(results, golden: Dict[str, str], outcome: Outcome) -> None:
    """Count every cell; fail each whose ``counters_sha`` is not its golden."""
    from repro.obs.manifest import counters_digest

    for (system, bench), r in results.items():
        outcome.attempted += 1
        if counters_digest(r.counters) != golden.get(f"{system}/{bench}"):
            outcome.fail(f"counters_sha of {system}/{bench} differs from golden")


def measure(repro, seed: int, seconds: float, golden: Dict[str, str],
            outcome: Outcome, recovery, speed: HostSpeed, tracer=None) -> List[Rep]:
    n_cells = len(SYSTEMS) * len(repro.BENCHMARK_NAMES)
    reps: List[Rep] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        try:
            wall, results = sweep_once(repro, seed, recovery, speed, tracer)
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            outcome.attempted += n_cells
            outcome.fail(f"sweep raised {type(exc).__name__}: {exc}", n_cells)
            break
        check_cells(results, golden, outcome)
        reps.append((wall, results))
    return reps


def rate(rep: Rep) -> float:
    wall, results = rep
    return sum(r.refs for r in results.values()) / wall


def totals(results) -> Dict[str, int]:
    """Exact simulated event totals of one matrix (host speed never moves them)."""
    t: Dict[str, int] = {}
    for r in results.values():
        for name, value in r.counters.as_dict().items():
            t[name] = t.get(name, 0) + value
    return t


def share_lines(repro, results) -> List[str]:
    """The property shares later gain claims must cite."""
    t = totals(results)
    refs = t["reads"] + t["writes"]
    past_l1 = {
        "cluster": t["read_cluster_hits"] + t["write_cluster_hits"],
        "nc": t["read_nc_hits"] + t["write_nc_hits"],
        "pc": t["read_pc_hits"] + t["write_pc_hits"],
        "remote": t["read_remote"] + t["write_remote"],
    }
    remote_misses = sum(past_l1.values())
    lines = [
        f"share l1_hit: {(t['l1_read_hits'] + t['l1_write_hits']) / refs:.4f} "
        f"of {refs} refs",
        "share of remote misses ({}): ".format(remote_misses) + ", ".join(
            f"{k} {v / remote_misses:.4f}" for k, v in past_l1.items())
        + f", relocation {t['pc_relocations'] / remote_misses:.4f}",
    ]
    for bench in repro.BENCHMARK_NAMES:
        r = results[(SYSTEMS[0], bench)]
        c = r.counters
        lines.append(
            f"trace {bench}: {r.refs} refs (requested {REFS}), "
            f"L1 read-hit share {c.l1_read_hits / c.reads:.4f}"
        )
    return lines


def e2e_metrics(reps: List[Rep], setup_s: float,
                speed: HostSpeed) -> Tuple[Dict[str, dict], List[str]]:
    """End-to-end figures, every time scaled to the reference host."""
    k = speed.factor
    cell_ms = [r.elapsed_s * 1000.0 / k for _, results in reps for r in results.values()]
    n_cells = len(reps[0][1])
    raw_rate = percentile([rate(r) for r in reps], 50)
    return {
        "setup_s": metric(setup_s / k, "s"),
        "sim_refs_per_s": metric(raw_rate * k, "refs/s"),
        "jobs_per_s": metric(percentile([n_cells / w for w, _ in reps], 50) * k, "jobs/s"),
        "job_p50_ms": metric(percentile(cell_ms, 50), "ms"),
        "job_tail_ms": metric(percentile(cell_ms, CELL_TAIL_PCT), "ms"),
        "peak_rss_mb": metric(vm_hwm_mb(), "MB"),
    }, [
        f"repetitions: {len(reps)} matrices of {n_cells} cells, walls "
        + ", ".join(f"{w:.2f}s" for w, _ in reps),
        speed.line(),
        f"unscaled: sim_refs_per_s {raw_rate:.6g} refs/s, setup_s {setup_s:.4f} s",
        "a job here is one sweep cell; its latency is the engine time the "
        "sweep reports for it",
        tail_line("job_tail_ms", cell_ms, CELL_TAIL_PCT),
    ]


def layer_metrics(repro, reps: List[Rep], tracer, seed: int, speed: HostSpeed,
                  untraced_rate: float, recovery) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Per-layer numbers from the traced repetitions, times scaled to the
    reference host like the end-to-end ones."""
    import costmodel
    from tracing import ledger, span_arg

    spans = tracer.spans
    k = speed.factor
    n_ops = len(reps)
    wall, layers = ledger(spans, "repro.sweep")
    layers.setdefault("trace.synthetic.generate", 0.0)
    problems: List[str] = []
    lines = [speed.line(), f"ledger per matrix: wall {wall / n_ops / k:.4f}s"]
    for name, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:34s} {self_s / n_ops / k:10.4f}s  {100 * self_s / wall:6.2f}%")
    closure = sum(layers.values()) - wall
    residual_pct = 100.0 * layers["residual"] / wall
    if abs(closure) > 1e-6 * wall:
        problems.append(f"ledger does not close: layers - wall = {closure:.3e}s")
    if residual_pct >= 5.0:
        problems.append(f"residual {residual_pct:.2f}% of wall >= 5%")

    generated = [s for s in spans if s["name"] == "trace.synthetic.generate"]
    lookups = [s for s in spans if s["name"] == "sim.runner.get_trace"]
    runs = [s for s in spans if s["name"] == "sim.simulator.run"]
    simulated_refs = sum(int(span_arg(s, "refs", 0)) for s in runs)
    traced_rate = percentile([rate(r) for r in reps], 50) * k

    # host noise only ever slows a cell down, so each cell's fastest
    # repetition is its least disturbed timing
    cells = [(bench, r.counters.as_dict(),
              min(results[(system, bench)].elapsed_s for _, results in reps) / k)
             for (system, bench), r in reps[0][1].items()]
    cost = costmodel.fit(cells)
    err_pct, err_by_bench = costmodel.leave_one_benchmark_out(cells)
    lines.append("cost model (ns): " + ", ".join(f"{t} {v:.1f}" for t, v in cost.items()))
    lines.append("leave-one-benchmark-out error %: " + ", ".join(
        f"{b} {e:.1f}" for b, e in err_by_bench.items()))
    fit_shares, prof_shares = [], []
    for system, bench in PROFILED:
        share, counters = costmodel.profiled_miss_share(repro, system, bench, REFS, seed)
        fitted = costmodel.miss_path_share(cost, counters)
        fit_shares.append(fitted)
        prof_shares.append(share)
        lines.append(f"miss-path share {system}/{bench}: fitted {100 * fitted:.1f}%, "
                     f"cProfile {100 * share:.1f}% (reported, not gated)")

    t = totals(reps[0][1])
    refs = t["reads"] + t["writes"]
    rename = {"sim.parallel.sweep": "sim.parallel.sweep_self"}
    out: Dict[str, float] = {f"{rename.get(name, name)}_s": v / n_ops / k
                             for name, v in layers.items()}
    out.update({
        "ledger.wall_s": wall / n_ops / k,
        "ledger.residual_pct": residual_pct,
        "trace.overhead_pct": 100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "trace.synthetic.generated_refs": sum(int(span_arg(s, "refs", 0)) for s in generated) / n_ops,
        "sim.runner.trace_cache_hit_ratio": 1.0 - len(generated) / len(lookups),
        "sim.simulator.ns_per_ref": 1e9 * layers["sim.simulator.run"] / simulated_refs / k,
        "sim.simulator.cost_fit_err_pct": err_pct,
        "sim.simulator.miss_share_fit_pct": 100.0 * sum(fit_shares) / len(fit_shares),
        "sim.simulator.miss_share_cprofile_pct": 100.0 * sum(prof_shares) / len(prof_shares),
        "sim.refs": refs,
        "sim.l1_hit_share": (t["l1_read_hits"] + t["l1_write_hits"]) / refs,
        "coherence.cluster_hits": t["read_cluster_hits"] + t["write_cluster_hits"],
        "coherence.remote_accesses": t["read_remote"] + t["write_remote"],
        "coherence.invalidations": t["remote_invalidations"],
        "rdc.nc_hits": t["read_nc_hits"] + t["write_nc_hits"],
        "rdc.pc_hits": t["read_pc_hits"] + t["write_pc_hits"],
        "rdc.pc_relocations": t["pc_relocations"],
        "rdc.pc_evictions": t["pc_evictions"],
        "sim.parallel.cell_retries": recovery.counts.get("cell_retry", 0),
    })
    out.update({f"sim.simulator.cost_ns.{term}": v for term, v in cost.items()})
    lines.append(f"tracing overhead: {out['trace.overhead_pct']:.2f}% of sim_refs_per_s "
                 f"({untraced_rate:,.0f} untraced, {traced_rate:,.0f} traced)")
    return out, lines, problems


def run(workload_seed: int, seconds: float, traced: bool) -> int:
    speed = HostSpeed()

    def timed_import() -> float:
        speed.sample()  # the child interpreter inherits this vCPU
        return time_import_repro()

    setup_s = percentile([timed_import() for _ in range(IMPORT_SETUPS)], 50)
    import repro
    from repro.sim.parallel import RecoveryLog

    seed = trace_seed(workload_seed)
    golden = load_goldens("paper_matrix")
    if golden["refs"] != REFS or golden["systems"] != list(SYSTEMS):
        raise SystemExit("perfbench: paper_matrix goldens describe another matrix")
    cells = golden["seeds"][str(seed)]
    outcome = Outcome()
    lines = [f"workload paper_matrix: workload seed {workload_seed} -> trace seed {seed}, "
             f"{len(SYSTEMS)} systems x 8 benchmarks at {REFS} refs, jobs=1"]
    recovery = RecoveryLog()
    try:
        reps = measure(repro, seed, seconds, cells, outcome, recovery, speed)
    finally:
        speed.release()
    if not reps:
        return finish(outcome, {}, lines)
    lines += share_lines(repro, reps[0][1])
    if not traced:
        metrics, more = e2e_metrics(reps, setup_s, speed)
        for name, m in metrics.items():
            lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
        return finish(outcome, metrics, lines + more)

    from repro.obs.spans import spans_to_chrome
    from tracing import LayerTracer, install_sim_layers

    untraced_rate = percentile([rate(r) for r in reps], 50) * speed.factor
    traced_speed = HostSpeed()
    tracer = LayerTracer("bench")
    install_sim_layers(tracer)
    try:
        traced_reps = measure(repro, seed, seconds, cells, outcome, recovery,
                              traced_speed, tracer)
    finally:
        tracer.uninstall()
        traced_speed.release()
    if not traced_reps:
        return finish(outcome, {}, lines)
    values, more, problems = layer_metrics(repro, traced_reps, tracer, seed, traced_speed,
                                           untraced_rate, recovery)
    OUT.mkdir(parents=True, exist_ok=True)
    chrome = OUT / "paper_matrix-spans.json"
    chrome.write_text(json.dumps(spans_to_chrome(tracer.spans)), encoding="utf-8")
    more.append(validate_trace(chrome))
    return finish(outcome, complete_layer_metrics(values), lines + more, problems)
