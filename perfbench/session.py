"""The workloads: set-up, the N-1 pipeline, single-outage queries and oracle checks.

Only calls into public ``gridscreen`` functions are timed.  :func:`measure`
gives the end-to-end metrics with tracing off; :func:`trace` gives the
per-layer metrics from spans around the same calls.  Both run every
correctness check into a :class:`Ledger`.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from gridscreen import (
    GridCase,
    GridScreenError,
    IslandingError,
    branch_current_jacobian,
    branch_terminal_currents,
    build_ybus,
    bundled_case,
    compare_severities,
    evaluate_outage,
    find_bridges,
    injection_sensitivity,
    linearize_at_solution,
    oracle_outage,
    outage_transfer_matrix,
    screen,
    solve_ac_powerflow,
    solve_outage_injection,
)
from gridscreen.sensitivity import severity_from_deltas
from calibration import Calibration
from spans import Tracer
from spec import UNITS, Workload
from tiling import slack_generation, tile_case, tiled_state

STATE_TOL = 1e-6  # tiled solution against the repeated base solution
SEVERITY_RTOL = 1e-12  # screen severities against evaluate_outage
RESIDUAL_TOL = 1e-10  # equivalent-injection self-consistency, as in C2
SEVERITY_CHECKS = 20  # screen entries re-evaluated one by one per run
BUILD_YBUS_REPS = 3
TRACED_PIPELINES = 3
SAMPLE_DECADES = 4  # severity range of the oracle sample on workloads without oracle


@dataclass
class Ledger:
    """Operations attempted and failed, and the verdict of every correctness check."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.ops(1, 0 if ok else 1)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


@dataclass
class Result:
    metrics: dict[str, float]
    samples: dict[str, int]  # how many measurements each metric summarises
    info: dict
    ledger: Ledger


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _seconds(span: dict) -> float:
    return span["end"] - span["start"]


def at_reference_speed(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Timings (units s and ms) scaled by the calibration factor; other metrics as they are."""
    return {k: v * scale if UNITS[k] in ("s", "ms") else v for k, v in metrics.items()}


def closed_mask(case: GridCase) -> np.ndarray:
    return np.array([br.closed for br in case.branches])


def build_case(w: Workload, seed: int, tracer: Tracer | None = None) -> tuple[GridCase, np.ndarray | None]:
    """The workload's case, and its exact solution state when the case is tiled."""
    with _span(tracer, "case_io.load"):
        base = bundled_case(w.base)
    if not w.copies:
        return base, None
    with _span(tracer, "bench.tile"):
        base_sol = solve_ac_powerflow(base)
        case = tile_case(base, slack_generation(base_sol), w.copies, seed)
    return case, tiled_state(base_sol.state, w.copies)


def pipeline(case: GridCase, w: Workload):
    """The N-1 path from a case in memory to a ranked report."""
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol)
    report = screen(case, sol, lin, metric=w.metric, with_oracle=w.with_oracle)
    return sol, lin, report


def _timed_pipeline(case: GridCase, w: Workload) -> float:
    t0 = time.perf_counter()
    pipeline(case, w)
    return time.perf_counter() - t0


def lu_fill_nnz(lin) -> int:
    """nnz(L+U) of a fresh factorization of the operating-point matrix."""
    lu = splu(lin.matrix)
    return int(lu.L.nnz + lu.U.nnz - lin.size)


def ranking_digest(report) -> str:
    text = ";".join(f"{e.branch}:{int(e.islanding)}" for e in report.entries)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def non_bridges(case: GridCase, bridges: set[int]) -> list[int]:
    return [i for i, br in enumerate(case.branches) if br.closed and i not in bridges]


def predicted_severities(report) -> dict[int, float]:
    return {e.branch: e.severity for e in report.entries if not e.islanding}


def check_solution(ledger: Ledger, sol, expected: np.ndarray | None) -> None:
    if expected is None:
        return
    err = float(np.max(np.abs(sol.state - expected)))
    ledger.check("state_equals_tiled_base", err < STATE_TOL, f"max |dV| {err:.1e} < {STATE_TOL:g}")


def check_report(ledger: Ledger, case: GridCase, report, bridges: set[int]) -> None:
    """Ranking order and islanding flags; a singular non-bridge outage is a failed operation."""
    entries = report.entries
    keys = [(-e.severity, e.branch) for e in entries]
    ranks = [e.rank for e in entries]
    ledger.check(
        "ranking_sorted",
        keys == sorted(keys) and ranks == list(range(1, len(entries) + 1)),
        f"{len(entries)} entries",
    )
    closed = int(closed_mask(case).sum())
    ledger.check("every_closed_outage_ranked", len(entries) == closed, f"{len(entries)} of {closed}")
    flagged = {e.branch for e in entries if e.islanding}
    ledger.check(
        "islanding_equals_bridges",
        flagged == bridges,
        f"{len(flagged)} flagged, {len(bridges)} bridges",
    )
    singular = sum(1 for e in entries if e.note == "singular transfer matrix" and e.branch not in bridges)
    ledger.ops(len(entries), singular)


def check_severities(ledger: Ledger, case: GridCase, sol, lin, report, metric: str, rng) -> None:
    """Sampled screen severities equal the one-outage evaluate_outage values."""
    closed = closed_mask(case)
    finite = [e for e in report.entries if not e.islanding]
    picks = rng.choice(len(finite), size=min(SEVERITY_CHECKS, len(finite)), replace=False)
    worst = 0.0
    for i in picks:
        e = finite[i]
        impact = evaluate_outage(sol, lin, e.branch)
        sev = severity_from_deltas(
            metric, impact.delta_vmag, impact.delta_imag, impact.delta_p, e.branch, closed
        )
        worst = max(worst, abs(sev - e.severity) / max(abs(sev), abs(e.severity), 1e-300))
    ledger.check(
        "screen_equals_evaluate_outage",
        worst <= SEVERITY_RTOL,
        f"{len(picks)} sampled, max rel diff {worst:.1e}",
    )


def check_fidelity(ledger: Ledger, w: Workload, comp) -> None:
    ok = not comp.insufficient and comp.spearman is not None
    detail = f"{comp.n_compared} compared, spearman {comp.spearman}, top-10 overlap {comp.top_overlap[10]}"
    if w.spearman_floor is not None:
        ok = ok and comp.spearman >= w.spearman_floor and comp.top_overlap[10] >= w.top10_floor
        detail += f" (floors {w.spearman_floor}, {w.top10_floor})"
    ledger.check("oracle_fidelity", ok, detail)


def injection_residual(case: GridCase, impact) -> float:
    """C2: the solved injection reproduces itself through the model, |residual|_inf."""
    jac = branch_current_jacobian(case, impact.outage)
    reproduced = impact.i_pre + jac.apply_state(impact.delta_state)
    return float(np.max(np.abs(reproduced - impact.injection)))


def time_queries(ledger: Ledger, sol, lin, seq: list[int]) -> list[float]:
    """Latency of one evaluate_outage call per outage in ``seq``."""
    latencies = []
    for k in seq:
        t0 = time.perf_counter()
        try:
            evaluate_outage(sol, lin, k)
        except (GridScreenError, ValueError):
            ledger.ops(1, 1)  # check_queries records which outage raised
            continue
        latencies.append(time.perf_counter() - t0)
        ledger.ops(1)
    return latencies


def check_queries(ledger: Ledger, case: GridCase, sol, lin, outages, metric: str) -> dict[int, float]:
    """C2 residual of every distinct queried outage; returns their predicted severities."""
    closed = closed_mask(case)
    predicted: dict[int, float] = {}
    worst = 0.0
    for k in sorted(set(outages)):
        try:
            impact = evaluate_outage(sol, lin, k)
        except (GridScreenError, ValueError) as exc:
            ledger.check(f"query_{k}", False, f"raised {exc!r}")
            continue
        worst = max(worst, injection_residual(case, impact))
        predicted[k] = severity_from_deltas(
            metric, impact.delta_vmag, impact.delta_imag, impact.delta_p, k, closed
        )
    ledger.check("injection_residual", worst < RESIDUAL_TOL, f"max {worst:.1e} < {RESIDUAL_TOL:g}")
    return predicted


def spread_sample(predicted: dict[int, float], count: int) -> list[int]:
    """Up to ``count`` outages whose predicted severities step evenly in log scale.

    The levels run from the largest severity down ``SAMPLE_DECADES`` decades;
    each picks the most severe outage at or below it.  Neighbouring picks
    differ by a clear factor, so the sample's ranking does not hinge on
    outages whose severities nearly tie, and severities below the range
    (numerically zero ones among them) stay out.
    """
    top = max(predicted.values())
    floor = top * 10.0**-SAMPLE_DECADES
    order = sorted((b for b in predicted if predicted[b] >= floor), key=lambda b: (-predicted[b], b))
    values = np.array([predicted[b] for b in order])
    levels = top * np.logspace(0, -SAMPLE_DECADES, count)
    picks = np.unique(np.searchsorted(-values, -levels, side="left"))
    return [order[i] for i in picks if i < len(order)]


def oracle_severities(case, sol, targets, metric, tracer: Tracer | None = None):
    """Oracle severities of the converged targets, and the non-islanding ones that diverged."""
    closed = closed_mask(case)
    reference: dict[int, float] = {}
    diverged: list[int] = []
    for k in targets:
        with _span(tracer, "screening.oracle"):
            o = oracle_outage(case, k, sol)
        if o.converged:
            reference[k] = severity_from_deltas(metric, o.delta_vmag, o.delta_imag, o.delta_p, k, closed)
        elif not o.islanded:
            diverged.append(k)
    return reference, diverged


def sampled_fidelity(ledger, case, sol, predicted, w: Workload, tracer: Tracer | None = None):
    """Oracle check of a severity-spread sample, for workloads that screen without oracle."""
    targets = spread_sample(predicted, w.fidelity_sample)
    reference, diverged = oracle_severities(case, sol, targets, w.metric, tracer)
    ledger.ops(len(targets), len(diverged))
    with _span(tracer, "screening.compare"):
        comp = compare_severities({k: predicted[k] for k in targets}, reference)
    return comp, diverged


def report_oracle_failures(ledger: Ledger, report) -> list[int]:
    diverged = [e.branch for e in report.entries if e.oracle_converged is False and not e.oracle_islanded]
    ledger.ops(len(report.entries), len(diverged))
    return diverged


def static_info(case: GridCase, bridges: set[int], lin, report) -> dict:
    return {
        "n": case.n,
        "m": case.n_branch,
        "closed_outages": int(closed_mask(case).sum()),
        "bridges": len(bridges),
        "lu_fill_nnz": lu_fill_nnz(lin),
        "ranking_digest": ranking_digest(report),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(w: Workload, seed: int):
    """The workload's set-up: the case, its expected state, and the query model if any."""
    case, expected = build_case(w, seed)
    model = None
    if w.solve_in_setup:
        sol = solve_ac_powerflow(case)
        model = (sol, linearize_at_solution(sol))
    return case, expected, model


def measure(w: Workload, seed: int, seconds: float) -> Result:
    """End-to-end metrics with tracing off; one closed loop in this process.

    Each round repeats the set-up ``setup_reps`` times, runs the N-1
    pipeline once and then the seeded query sequence, so every kind of
    sample spreads over the whole run.  The calibration kernel runs between
    these blocks, and each block's timings are scaled to the reference
    speed by the kernel runs around it.
    """
    rng = np.random.default_rng(seed)
    ledger = Ledger()
    cal = Calibration()

    case, expected, model = set_up(w, seed)
    bridges = find_bridges(case)
    candidates = non_bridges(case, bridges)
    seq = [candidates[i] for i in rng.integers(len(candidates), size=w.queries)]

    raw: dict[str, list] = {"setup": [], "n1": [], "query": []}
    scaled: dict[str, list] = {"setup": [], "n1": [], "query": []}

    def record(kind: str, times: list[float]) -> None:
        """Keep a block's timings raw and at reference speed; queries stay one list per round."""
        factor = cal.tick()
        if kind == "query":
            raw[kind].append(times)
            scaled[kind].append([factor * t for t in times])
        else:
            raw[kind].extend(times)
            scaled[kind].extend(factor * t for t in times)

    digests = set()
    cal.tick()
    start = time.perf_counter()
    while not raw["n1"] or time.perf_counter() - start < seconds:
        times = []
        for _ in range(w.setup_reps):
            t0 = time.perf_counter()
            case, expected, model = set_up(w, seed)
            times.append(time.perf_counter() - t0)
        record("setup", times)
        t0 = time.perf_counter()
        sol, lin, report = pipeline(case, w)
        record("n1", [time.perf_counter() - t0])
        digests.add(ranking_digest(report))
        q_sol, q_lin = model or (sol, lin)
        record("query", time_queries(ledger, q_sol, q_lin, seq))

    ledger.check("ranking_repeatable", len(digests) == 1, f"{len(raw['n1'])} runs, {len(digests)} digest(s)")
    check_solution(ledger, sol, expected)
    check_report(ledger, case, report, bridges)
    check_severities(ledger, case, sol, lin, report, w.metric, rng)
    q_predicted = check_queries(ledger, case, q_sol, q_lin, seq, w.metric)

    if w.with_oracle:
        comp = report.comparison
        diverged = report_oracle_failures(ledger, report)
    else:
        predicted = q_predicted if w.solve_in_setup else predicted_severities(report)
        comp, diverged = sampled_fidelity(ledger, case, sol, predicted, w)
    check_fidelity(ledger, w, comp)

    closed = int(closed_mask(case).sum())

    def summary(times: dict[str, list]) -> dict[str, float]:
        wall = statistics.median(times["n1"])

        def latency_ms(q: float) -> float:
            return 1000.0 * statistics.median(float(np.percentile(r, q)) for r in times["query"])

        return {
            "setup_s": statistics.median(times["setup"]),
            "n1_wall_s": wall,
            "outages_per_s": closed / wall,
            "query_p50_ms": latency_ms(50),
            "query_p90_ms": latency_ms(90),
            "oracle_spearman": comp.spearman,
            "oracle_top10_overlap": comp.top_overlap[10],
            "peak_rss_mb": peak_rss_mb(),
        }

    metrics = summary(scaled)
    samples = {
        "setup_s": len(raw["setup"]),
        "n1_wall_s": len(raw["n1"]),
        "outages_per_s": len(raw["n1"]),
        "query_p50_ms": sum(map(len, raw["query"])),
        "query_p90_ms": sum(map(len, raw["query"])),
        "oracle_spearman": comp.n_compared,
        "oracle_top10_overlap": comp.n_compared,
        "peak_rss_mb": 1,
    }
    info = static_info(case, bridges, lin, report)
    info.update(
        kernel_runs=len(cal.samples),
        kernel_median_s=statistics.median(cal.samples),
        raw_metrics=summary(raw),
        n1_wall_samples_s=raw["n1"],
        oracle_diverged=diverged,
        failed_frac=ledger.failed / max(ledger.attempted, 1),
    )
    return Result(metrics, samples, info, ledger)


def trace(w: Workload, seed: int, tracer: Tracer) -> Result:
    """Per-layer metrics from spans around the public calls of each layer."""
    rng = np.random.default_rng(seed)
    ledger = Ledger()
    cal = Calibration()
    cal.tick()

    for _ in range(w.setup_reps):
        with tracer.span("setup"):
            case, expected = build_case(w, seed, tracer)
    for _ in range(BUILD_YBUS_REPS):
        with tracer.span("case_io.build_ybus"):
            build_ybus(case)
    with tracer.span("screening.find_bridges"):
        bridges = find_bridges(case)

    # untraced pipelines before and after each traced one are the
    # reference for the tracing overhead
    untraced = [_timed_pipeline(case, w)]
    cal.tick()
    for _ in range(TRACED_PIPELINES):
        with tracer.span("n1"):
            with tracer.span("powerflow.solve"):
                sol = solve_ac_powerflow(case)
            with tracer.span("powerflow.linearize"):
                lin = linearize_at_solution(sol)
            with tracer.span("screening.predict"):
                report = screen(case, sol, lin, metric=w.metric)
            predicted = predicted_severities(report)
            if w.with_oracle:
                targets = [e.branch for e in report.entries]
                reference, diverged = oracle_severities(case, sol, targets, w.metric, tracer)
                ledger.ops(len(targets), len(diverged))
                with tracer.span("screening.compare"):
                    comp = compare_severities(predicted, reference)
        cal.tick()
        untraced.append(_timed_pipeline(case, w))
        cal.tick()
    if not w.with_oracle:
        with tracer.span("fidelity"):
            comp, diverged = sampled_fidelity(ledger, case, sol, predicted, w, tracer)
    check_solution(ledger, sol, expected)
    check_report(ledger, case, report, bridges)
    check_fidelity(ledger, w, comp)

    candidates = non_bridges(case, bridges)
    sample = rng.choice(candidates, size=min(w.sens_sample, len(candidates)), replace=False)
    evaluate, inject, transfer, conds = [], [], [], []
    worst = 0.0
    for k in (int(k) for k in sample):
        with tracer.span("sensitivity.evaluate_outage") as e_span:
            impact = evaluate_outage(sol, lin, k)
        with tracer.span("sensitivity.chain"):
            with tracer.span("sensitivity.injection_sensitivity") as s_span:
                sens = injection_sensitivity(lin, k)
            with tracer.span("sensitivity.transfer") as t_span:
                jac = branch_current_jacobian(case, k)
                tm = outage_transfer_matrix(sens, jac)
                try:
                    solve_outage_injection(tm, branch_terminal_currents(sol, k))
                except IslandingError:
                    pass  # counted from the report's singular non-bridge entries
        evaluate.append(_seconds(e_span))
        inject.append(_seconds(s_span))
        transfer.append(_seconds(t_span))
        conds.append(tm.cond)
        worst = max(worst, injection_residual(case, impact))
    cal.tick()
    ledger.ops(len(sample))
    ledger.check("injection_residual", worst < RESIDUAL_TOL, f"max {worst:.1e} < {RESIDUAL_TOL:g}")
    # evaluate_outage self time: its own baseline and monitor chain rule
    monitors = [e - s - t for e, s, t in zip(evaluate, inject, transfer)]

    traced = tracer.durations("n1")
    solve_s = statistics.median(tracer.durations("powerflow.solve"))
    oracle = tracer.durations("screening.oracle")
    oracle_runs = TRACED_PIPELINES if w.with_oracle else 1
    ms = 1000.0
    metrics = {
        "case_io.load_s": statistics.median(tracer.durations("case_io.load")),
        "case_io.build_ybus_s": statistics.median(tracer.durations("case_io.build_ybus")),
        "powerflow.solve_s": solve_s,
        "powerflow.newton_iterations": sol.iterations,
        "powerflow.iteration_ms": ms * solve_s / sol.iterations,
        "powerflow.linearize_s": statistics.median(tracer.durations("powerflow.linearize")),
        "powerflow.lu_fill_nnz": lu_fill_nnz(lin),
        "sensitivity.evaluate_outage_ms": ms * statistics.median(evaluate),
        "sensitivity.injection_sensitivity_ms": ms * statistics.median(inject),
        "sensitivity.transfer_ms": ms * statistics.median(transfer),
        "sensitivity.monitors_ms": ms * statistics.median(monitors),
        "sensitivity.transfer_cond_max": max(conds),
        "sensitivity.singular_nonbridge": sum(
            1 for e in report.entries if e.note == "singular transfer matrix" and e.branch not in bridges
        ),
        "screening.find_bridges_s": tracer.durations("screening.find_bridges")[0],
        "screening.predict_s": statistics.median(tracer.durations("screening.predict")),
        "screening.oracle_s": sum(oracle) / oracle_runs,
        "screening.oracle_ms": ms * statistics.median(oracle),
        "screening.compare_s": statistics.median(tracer.durations("screening.compare")),
        "screening.oracle_nonconverged": len(diverged),
        "bench.trace_overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0),
    }
    raw = metrics
    scale = cal.scale()
    metrics = at_reference_speed(raw, scale)
    samples = {name: 1 for name in metrics}
    samples.update(
        {
            "case_io.load_s": w.setup_reps,
            "case_io.build_ybus_s": BUILD_YBUS_REPS,
            "powerflow.solve_s": TRACED_PIPELINES,
            "powerflow.iteration_ms": TRACED_PIPELINES,
            "powerflow.linearize_s": TRACED_PIPELINES,
            "screening.predict_s": TRACED_PIPELINES,
            "screening.compare_s": len(tracer.durations("screening.compare")),
            "bench.trace_overhead_pct": TRACED_PIPELINES,
            "screening.oracle_s": len(oracle),
            "screening.oracle_ms": len(oracle),
        }
    )
    for name in ("evaluate_outage_ms", "injection_sensitivity_ms", "transfer_ms", "monitors_ms", "transfer_cond_max"):
        samples[f"sensitivity.{name}"] = len(sample)
    info = static_info(case, bridges, lin, report)
    info.update(
        speed_scale=scale,
        kernel_runs=len(cal.samples),
        raw_metrics=raw,
        untraced_n1_s=untraced,
        traced_n1_s=traced,
        oracle_diverged=diverged,
    )
    return Result(metrics, samples, info, ledger)
