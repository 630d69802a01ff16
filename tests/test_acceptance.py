"""Acceptance suite: one test per release criterion, one verdict line each.

Every test appends a ``C<k> <name>: PASS/FAIL (<measured detail>)`` line to
the report printed after the run, then asserts the criterion.  Thresholds
are stated inline so the verdict lines are self-contained.
"""

import os
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from gridbuild import RING5_BRIDGE, ring5
from reference import branch_block, from_side_power, terminal_currents

from gridscreen.case_io import load_case
from gridscreen.dcmodel import build_dc_model, dc_lodf, solve_dc
from gridscreen.powerflow import (
    PowerFlowOptions,
    linearize_at_solution,
    power_balance,
    solve_ac_powerflow,
)
from gridscreen.screening import find_bridges, is_connected, oracle_outage, screen
from gridscreen.sensitivity import (
    _monitors,
    circuit_lodf,
    evaluate_outage,
    singular_outage_branches,
)


def record(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def skip_line(name: str, detail: str) -> None:
    line = f"{name}: SKIP ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    pytest.skip(detail)


def closed_branches(case):
    return [idx for idx, br in enumerate(case.branches) if br.closed]


def injection_residual(sol, lin, idx: int) -> float:
    """Self-consistency of the screen's equivalent injection for one outage.

    The engine's injection goes into the terminal current-balance rows (the
    slack absorbs its share), an independent solve of the linear model gives
    the voltage change, and the branch current it implies must reproduce the
    injection: ``i_pre + B dv[rows] = injection``, with ``B`` built
    independently of the engine's branch blocks.
    """
    impact = evaluate_outage(sol, lin, idx)
    rows, block = branch_block(sol.case, idx)
    rhs = np.zeros(lin.size)
    for pos, bus in enumerate(rows[0::2] // 2):
        if bus != lin.slack:
            rhs[[2 * bus, 2 * bus + 1]] = impact.injection[2 * pos : 2 * pos + 2]
    dv = lin.solve(rhs)[: 2 * lin.n]
    reproduced = impact.i_pre + block @ dv[rows]
    return float(np.max(np.abs(reproduced - impact.injection)))


def test_c1_linear_network_outage_exactness():
    """Constant-current 5-bus ring: predicted outage dV equals re-solve exactly."""
    case = ring5()
    start = time.perf_counter()
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol, mode="full")
    n2 = 2 * case.n

    worst = 0.0
    checked = 0
    for idx in closed_branches(case):
        if idx == RING5_BRIDGE:
            continue
        impact = evaluate_outage(sol, lin, idx)
        post = solve_ac_powerflow(
            case.with_branch_open(idx),
            PowerFlowOptions(start="state", initial_state=sol.state),
        )
        dv_true = post.state[:n2] - sol.state[:n2]
        worst = max(worst, float(np.max(np.abs(impact.delta_state - dv_true))))
        checked += 1
    elapsed = time.perf_counter() - start

    ok = checked == 4 and worst < 1e-10 and elapsed < 1.0
    record(
        "C1 linear-network outage exactness",
        ok,
        f"{checked} non-bridge outages, max |dV err| {worst:.2e} < 1e-10, {elapsed:.2f} s < 1 s",
    )


def test_c2_injection_consistency(case14, sol14, lin14):
    """Injecting the screen's solved outage currents back into the model reproduces them."""
    bridges = find_bridges(case14)
    worst = 0.0
    checked = 0
    for idx in closed_branches(case14):
        if idx in bridges:
            continue
        worst = max(worst, injection_residual(sol14, lin14, idx))
        checked += 1

    ok = checked == len(closed_branches(case14)) - len(bridges) and worst < 1e-10
    record(
        "C2 outage injection consistency",
        ok,
        f"{checked} outages on the 14-bus case, max residual {worst:.2e} < 1e-10",
    )


def test_c3_gradient_suite(case14, sol14):
    """Chain-rule impact factors of the screen's monitor stage match central finite differences."""
    rng = np.random.default_rng(20260819)
    v = sol14.v_complex
    n2 = 2 * case14.n
    closed = closed_branches(case14)
    h = 1e-6

    directions = []
    for _ in range(100):
        d = rng.standard_normal(n2)
        directions.append(d / np.linalg.norm(d))
    directions = np.array(directions)
    monitored = [closed[k % len(closed)] for k in range(100)]
    # each row removes a branch other than the one it monitors, as every
    # branch severity reads the other branches of an outage's row
    outages = np.array([closed[(k + 1) % len(closed)] for k in range(100)])
    dvmag, dimag, dp = _monitors(sol14, directions, outages, ("vmag", "imag", "pline"))
    assert not sol14._baseline.tiny[monitored].any()

    # the branch blocks every engine pass gathers from, against differences of
    # the reference's scalar terminal currents
    rows, blocks = sol14.ybus._branch_table
    worst_linear = 0.0  # branch terminal currents, an exactly linear map
    worst_chain = 0.0  # |V|, |I|, P monitors
    for k, (d, branch) in enumerate(zip(directions, monitored)):
        dc = d[0::2] + 1j * d[1::2]

        fd_i = (
            np.asarray(terminal_currents(case14, v + h * dc, branch))
            - np.asarray(terminal_currents(case14, v - h * dc, branch))
        ) / (2 * h)
        pred_i = blocks[branch] @ d[rows[branch]]
        rel = np.max(np.abs(fd_i - pred_i)) / max(np.max(np.abs(fd_i)), 1e-9)
        worst_linear = max(worst_linear, float(rel))

        fd_vmag = (np.abs(v + h * dc) - np.abs(v - h * dc)) / (2 * h)
        rel = np.max(np.abs(fd_vmag - dvmag[k])) / max(np.max(np.abs(fd_vmag)), 1e-9)
        worst_chain = max(worst_chain, float(rel))

        def imag_at(vv):
            ifr, ifi, _, _ = terminal_currents(case14, vv, branch)
            return abs(complex(ifr, ifi))

        fd_imag = (imag_at(v + h * dc) - imag_at(v - h * dc)) / (2 * h)
        rel = abs(fd_imag - dimag[k, branch]) / max(abs(fd_imag), 1e-9)
        worst_chain = max(worst_chain, float(rel))

        fd_p = (
            from_side_power(case14, v + h * dc, branch)
            - from_side_power(case14, v - h * dc, branch)
        ) / (2 * h)
        rel = abs(fd_p - dp[k, branch]) / max(abs(fd_p), 1e-9)
        worst_chain = max(worst_chain, float(rel))

    ok = worst_linear < 1e-8 and worst_chain < 1e-6
    record(
        "C3 gradient suite",
        ok,
        f"100 directions, linear map rel {worst_linear:.2e} < 1e-8, "
        f"chain-rule rel {worst_chain:.2e} < 1e-6",
    )


def test_c4_dc_lodf_exactness(case14, case118):
    """LODF-predicted post-outage DC flows equal a DC re-solve."""
    worst = 0.0
    worst_self = 0.0
    checked = 0
    for case in (case14, case118):
        model = build_dc_model(case)
        base = solve_dc(model)
        bridges = find_bridges(case)
        mask = np.array([br.closed for br in case.branches])
        for idx in closed_branches(case):
            if idx in bridges:
                continue
            res = dc_lodf(model, idx, base)
            post = solve_dc(build_dc_model(case.with_branch_open(idx)))
            err = float(np.max(np.abs(res.predicted[mask] - post.flows[mask])))
            worst = max(worst, err)
            worst_self = max(worst_self, abs(res.lodf[idx] + 1.0))
            checked += 1

    ok = worst < 1e-9 and worst_self < 1e-9
    record(
        "C4 DC LODF exactness",
        ok,
        f"{checked} outages over both cases, max flow err {worst:.2e} < 1e-9, "
        f"max |self +1| {worst_self:.1e}",
    )


def test_c5_screening_fidelity(case14, sol14, lin14, case118, sol118, lin118):
    """Predicted severity ranking agrees with the nonlinear re-solve oracle."""
    start = time.perf_counter()
    rep14 = screen(case14, sol14, lin14, metric="vmag_inf", with_oracle=True)
    rep118 = screen(case118, sol118, lin118, metric="vmag_inf", with_oracle=True)
    elapsed = time.perf_counter() - start

    c14 = rep14.comparison
    c118 = rep118.comparison
    ok = (
        not c14.insufficient
        and not c118.insufficient
        and c14.spearman >= 0.8
        and c14.top_overlap[5] >= 3
        and c118.spearman >= 0.7
        and c118.top_overlap[10] >= 6
        and elapsed < 30.0
    )
    record(
        "C5 screening fidelity vs oracle",
        ok,
        f"14-bus spearman {c14.spearman:.3f} >= 0.8, top-5 overlap {c14.top_overlap[5]} >= 3; "
        f"118-bus spearman {c118.spearman:.3f} >= 0.7, top-10 overlap {c118.top_overlap[10]} >= 6; "
        f"{elapsed:.1f} s < 30 s",
    )


def test_c6_islanding_agreement(case14, case118):
    """Graph bridges, singular transfer matrices, and the connectivity oracle agree."""
    details = []
    ok = True
    for name, case in (("14-bus", case14), ("118-bus", case118)):
        bridges = find_bridges(case)
        singular = singular_outage_branches(case)
        oracle = {
            idx for idx in closed_branches(case) if not is_connected(case, skip_branch=idx)
        }
        ok = ok and bridges == singular == oracle
        details.append(f"{name} {sorted(bridges)}")
    record("C6 islanding agreement", ok, "bridge=singular=oracle sets: " + "; ".join(details))


def test_c7_newton_convergence(case14, case118):
    """Both bundled cases converge from a flat start with balanced power."""
    details = []
    ok = True
    for name, case in (("14-bus", case14), ("118-bus", case118)):
        sol = solve_ac_powerflow(case, PowerFlowOptions(tol=1e-8, max_iter=10))
        residual = abs(power_balance(sol).residual)
        ok = ok and sol.iterations <= 10 and sol.max_mismatch < 1e-8 and residual < 1e-8
        details.append(f"{name} {sol.iterations} iters, balance {residual:.1e}")
    record("C7 flat-start convergence", ok, "; ".join(details) + "; both < 1e-8")


def _large_case_path():
    env = os.environ.get("GRIDSCREEN_LARGE_CASE")
    candidates = [env] if env else []
    here = os.path.dirname(__file__)
    candidates += [
        os.path.join(here, "data", "case2383wp.m"),
        os.path.join(here, os.pardir, "data", "case2383wp.m"),
    ]
    for path in candidates:
        if path and os.path.exists(path):
            return path
    return None


def test_c8_large_case_screening():
    """Optional: screen a multi-thousand-bus case when its data file is available."""
    path = _large_case_path()
    if path is None:
        skip_line(
            "C8 large-case screening",
            "optional 2383-bus winter-peak data not present; "
            "set GRIDSCREEN_LARGE_CASE to enable",
        )

    case = load_case(path)
    start = time.perf_counter()
    sol = solve_ac_powerflow(case, PowerFlowOptions(tol=1e-8, max_iter=30))
    lin = linearize_at_solution(sol, mode="full")
    report = screen(case, sol, lin, metric="vmag_inf", top_k=20)
    elapsed = time.perf_counter() - start

    severities = [e.severity for e in report.entries]
    descending = all(a >= b for a, b in zip(severities, severities[1:]))
    flagged = {e.branch for e in report.entries if e.islanding}
    bridges = find_bridges(case) & set(closed_branches(case))
    singular = singular_outage_branches(case)

    rng = np.random.default_rng(7)
    sample = rng.choice(
        [i for i in closed_branches(case) if i not in bridges],
        size=20,
        replace=False,
    )
    worst = 0.0
    for idx in sample:
        worst = max(worst, injection_residual(sol, lin, int(idx)))

    ok = descending and flagged == bridges == singular and worst < 1e-10
    record(
        "C8 large-case screening",
        ok,
        f"{len(report.entries)} outages ranked in {elapsed:.1f} s, "
        f"{len(flagged)} islanding events flagged, "
        f"sampled injection residual {worst:.2e} < 1e-10",
    )


def test_c9_circuit_lodf_beats_dc_lodf(case14, sol14, lin14, case118, sol118, lin118):
    """The paper's quantity: the AC circuit LODF predicts the re-solved branch power changes
    of an outage more closely than the DC LODF applied to the same pre-outage AC flow.

    Per converged non-bridge outage, an error is the worst over the other closed branches
    divided by the largest re-solved |dP| among them.
    """
    start = time.perf_counter()
    details = []
    ok = True
    ac_wins = outages = 0
    for name, case, sol, lin in (("14-bus", case14, sol14, lin14), ("118-bus", case118, sol118, lin118)):
        model = build_dc_model(case)
        dc_base = solve_dc(model)
        bridges = find_bridges(case)
        closed = np.array([br.closed for br in case.branches])
        ac_err, dc_err, dc_better = [], [], []
        for idx in closed_branches(case):
            outcome = None if idx in bridges else oracle_outage(case, idx, sol)
            if outcome is None or not outcome.converged:
                continue
            others = closed.copy()
            others[idx] = False
            truth = outcome.delta_p[others]
            scale = np.max(np.abs(truth))
            ac = circuit_lodf(sol, lin, idx)
            dc_dp = dc_lodf(model, idx, dc_base).lodf * ac.p_pre[idx]
            ac_err.append(np.max(np.abs(ac.dp[others] - truth)) / scale)
            dc_err.append(np.max(np.abs(dc_dp[others] - truth)) / scale)
            if dc_err[-1] < ac_err[-1]:
                dc_better.append(idx)
        ac_median, dc_median = float(np.median(ac_err)), float(np.median(dc_err))
        ok = ok and ac_median <= 0.025 and ac_median < dc_median
        ac_wins += len(ac_err) - len(dc_better)
        outages += len(ac_err)
        details.append(
            f"{name} {len(ac_err)} outages, median rel err AC {ac_median:.2%} <= 2.5% and < DC {dc_median:.2%}, "
            f"AC better in {len(ac_err) - len(dc_better)}, DC better in branches {dc_better}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and ac_wins >= 0.75 * outages
    record(
        "C9 AC circuit LODF vs DC LODF",
        ok,
        "; ".join(details) + f"; AC better in {ac_wins}/{outages} = {ac_wins / outages:.1%} >= 75%, {elapsed:.1f} s",
    )
