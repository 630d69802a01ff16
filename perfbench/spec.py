"""What the benchmark runs and reports; ``BENCHMARK.json`` is rendered from here."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

RUN_SECONDS = 35


@dataclass(frozen=True)
class Workload:
    """One workload: which case, which pipeline settings, and how many queries.

    A run repeats rounds for its ``--seconds``: one N-1 pipeline, then the
    seeded sequence of ``queries`` single-outage calls.  With
    ``solve_in_setup`` the queries use a model solved and linearized during
    set-up; otherwise they use the round's pipeline model.
    """

    name: str
    why: str
    base: str  # bundled case the workload starts from
    copies: int  # 0 keeps the bundled case as it is; otherwise tile it
    metric: str
    with_oracle: bool
    solve_in_setup: bool
    setup_reps: int  # set-ups per round; setup_s is the median of all
    queries: int  # evaluate_outage calls per round
    sens_sample: int  # outages in the traced sensitivity-chain sample
    fidelity_sample: int  # oracle solves per run when the screen runs without oracle
    spearman_floor: float | None = None
    top10_floor: int | None = None

    def tiny(self) -> "Workload":
        """The same workload at a size the self-test runs in a few seconds."""
        return replace(
            self,
            base="case14",
            copies=min(self.copies, 2),
            setup_reps=1,
            queries=20,
            sens_sample=4,
            fidelity_sample=40,
            spearman_floor=None,
            top10_floor=None,
        )


WORKLOADS = (
    Workload(
        name="n1-tiled944",
        why="case118 tiled 8x (944 buses, 1509 branches), N-1 screen without oracle: "
        "the per-branch sensitivity loop does almost all the work",
        base="case118",
        copies=8,
        metric="vmag_inf",
        with_oracle=False,
        solve_in_setup=False,
        setup_reps=2,
        queries=100,
        sens_sample=40,
        fidelity_sample=16,
    ),
    Workload(
        name="n1-case118-oracle",
        why="case118 N-1 screen with the nonlinear oracle on every outage (pline_inf): "
        "the oracle does almost all the work; fidelity shows answer changes",
        base="case118",
        copies=0,
        metric="pline_inf",
        with_oracle=True,
        solve_in_setup=False,
        setup_reps=10,
        queries=100,
        sens_sample=100,
        fidelity_sample=0,
        spearman_floor=0.7,
        top10_floor=6,
    ),
    Workload(
        name="outage-queries",
        why="500 seeded single evaluate_outage calls per round on the tiled case solved in set-up: "
        "work moved into set-up or into each call shows here",
        base="case118",
        copies=8,
        metric="vmag_inf",
        with_oracle=False,
        solve_in_setup=True,
        setup_reps=1,
        queries=500,
        sens_sample=40,
        fidelity_sample=16,
    ),
)

# (name, unit, better, bound); the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("n1_wall_s", "s", "lower", 0.2),
    ("outages_per_s", "1/s", "higher", 0.2),
    ("query_p50_ms", "ms", "lower", 0.2),
    ("query_p90_ms", "ms", "lower", 0.25),
    ("oracle_spearman", "1", "higher", 0.1),
    ("oracle_top10_overlap", "count", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

PER_LAYER = (
    ("case_io.load_s", "s", "lower"),
    ("case_io.build_ybus_s", "s", "lower"),
    ("powerflow.solve_s", "s", "lower"),
    ("powerflow.newton_iterations", "count", "lower"),
    ("powerflow.iteration_ms", "ms", "lower"),
    ("powerflow.linearize_s", "s", "lower"),
    ("powerflow.lu_fill_nnz", "count", "lower"),
    ("sensitivity.evaluate_outage_ms", "ms", "lower"),
    ("sensitivity.injection_sensitivity_ms", "ms", "lower"),
    ("sensitivity.transfer_ms", "ms", "lower"),
    ("sensitivity.monitors_ms", "ms", "lower"),
    ("sensitivity.transfer_cond_max", "1", "lower"),
    ("sensitivity.singular_nonbridge", "count", "lower"),
    ("screening.find_bridges_s", "s", "lower"),
    ("screening.predict_s", "s", "lower"),
    ("screening.oracle_s", "s", "lower"),
    ("screening.oracle_ms", "ms", "lower"),
    ("screening.compare_s", "s", "lower"),
    ("screening.oracle_nonconverged", "count", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


def benchmark_json() -> str:
    """The text of ``BENCHMARK.json`` at the repository root."""
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
