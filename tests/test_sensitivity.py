"""Outage sensitivity machinery tests: injections, transfer matrices, monitors."""

import importlib.util
import re
import threading
from contextlib import closing
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gridscreen.errors import IslandingError, PowerFlowError
from gridscreen.powerflow import (
    PowerFlowOptions,
    _NewtonProblem,
    linearize_at_solution,
    solve_ac_powerflow,
    state_to_complex,
)
from gridscreen.sensitivity import (
    _CHUNK,
    _LIVE_BUSES,
    COND_LIMIT,
    SEVERITY_METRICS,
    _branch_blocks,
    _impact_chunks,
    _monitors,
    _outage_severities,
    _singular,
    _slot_plan,
    _transfer_chunks,
    branch_current_jacobian,
    circuit_lodf,
    evaluate_outage,
    injection_sensitivity,
    outage_transfer_matrix,
    severity_from_deltas,
    singular_outage_branches,
)
from gridscreen.screening import _Oracle, find_bridges, is_connected, oracle_outage, screen
from gridscreen.case_io import GridCase, _without_branch, build_ybus, bundled_case, scale_loading
from gridscreen import case_io, screening, sensitivity

import reference
from gridbuild import (
    NON_INTEGER_INDICES,
    RING5_BRIDGE,
    SLACK_SPLIT_LOOP_BRANCH,
    SLACK_SPLIT_SPUR_BRANCH,
    parallel_pair,
    random_meshed,
    ring5,
    slack_split,
    triangle,
    two_bus,
    with_devices,
)


def _terminals(case, k) -> list[int]:
    """The from and to bus positions of branch ``k``."""
    br = case.branches[k]
    return [case.bus_index(br.from_bus), case.bus_index(br.to_bus)]


def test_injection_sensitivity_solves_unit_injections(sol14, lin14):
    """The engine's bus solve answers unit current injections at a branch's terminals, as
    the dense reference does."""
    buses = _terminals(sol14.case, 5)
    assert lin14.slack not in buses
    full = sensitivity._bus_solve(lin14, buses)
    for j in range(4):
        response = lin14.matrix @ full[:, j]
        expected = np.zeros(lin14.size)
        expected[2 * buses[j // 2] + j % 2] = 1.0
        assert np.allclose(response, expected, atol=1e-10)
    assert np.allclose(full[: 2 * sol14.n], reference.terminal_responses(lin14, 5), rtol=0, atol=1e-12)


def test_injection_sensitivity_slack_terminal_columns_zero(sol14, lin14):
    # branch 0 of the bundled 14-bus case leaves the slack bus
    buses = _terminals(sol14.case, 0)
    assert buses[0] == lin14.slack
    full = sensitivity._bus_solve(lin14, buses)
    assert np.all(full[:, 0] == 0.0) and np.all(full[:, 1] == 0.0)
    assert not np.all(full[:, 2] == 0.0)
    dense = reference.terminal_responses(lin14, 0)
    assert np.all(dense[:, :2] == 0.0)
    assert np.allclose(full[: 2 * sol14.n], dense, rtol=0, atol=1e-12)


def _not_an_index(k) -> str:
    """The message of the ``TypeError`` that rejects ``k`` as a branch index."""
    return f"branch index {re.escape(repr(k))} is not an integer"


def test_injection_sensitivity_rejects_bad_branch(sol14, lin14):
    """The engine pass checks each outage before it solves anything."""
    with pytest.raises(ValueError, match="range"):
        list(_transfer_chunks(lin14, lin14.case, [99], sol14.ybus))
    for k in NON_INTEGER_INDICES:
        with pytest.raises(TypeError, match=_not_an_index(k)):
            list(_transfer_chunks(lin14, lin14.case, [k], sol14.ybus))
    # an open branch, as evaluate_outage and circuit_lodf reject it
    sol = solve_ac_powerflow(lin14.case.with_branch_open(2))
    with pytest.raises(ValueError, match="branch 2 is open"):
        list(_transfer_chunks(linearize_at_solution(sol), sol.case, [2], sol.ybus))


def test_network_mode_responses_are_complex_linear(sol14, lin14_network):
    """The device-free model is complex-linear: the imaginary-injection
    column must be j times the real-injection column."""
    dv = reference.terminal_responses(lin14_network, 5)
    re_col = state_to_complex(dv[:, 0])
    im_col = state_to_complex(dv[:, 1])
    assert np.allclose(im_col, 1j * re_col, atol=1e-12)


def test_network_mode_responses_are_reciprocal(sol14, lin14_network):
    """With symmetric branch admittances the grounded network obeys
    transfer impedance reciprocity between any two non-slack buses."""
    case = sol14.case
    br = case.branches[5]
    f = case.bus_index(br.from_bus)
    t = case.bus_index(br.to_bus)
    dv = reference.terminal_responses(lin14_network, 5)
    z_from_to = state_to_complex(dv[:, 2])[f]  # V at f per unit I at t
    z_to_from = state_to_complex(dv[:, 0])[t]  # V at t per unit I at f
    assert z_from_to == pytest.approx(z_to_from, abs=1e-12)


def test_branch_current_jacobian_matches_admittances(case14):
    """The branch table's block of branch 7 maps a state change to its terminal currents."""
    rows, blocks = build_ybus(case14)._branch_table
    rng = np.random.default_rng(3)
    for _ in range(5):
        dv_state = rng.normal(size=2 * case14.n)
        dvc = state_to_complex(dv_state)
        expect = reference.terminal_currents(case14, dvc, 7)
        assert np.allclose(blocks[7] @ dv_state[rows[7]], expect, atol=1e-12)


def test_branch_current_jacobian_is_state_independent(sol14):
    """The branch two-port is linear, so the FD check is exact to roundoff."""
    case = sol14.case
    rows, blocks = sol14.ybus._branch_table
    rng = np.random.default_rng(17)
    d = rng.normal(size=2 * case.n)

    def currents(x):
        return reference.terminal_currents(case, state_to_complex(x), 9)

    fd = reference.directional_derivative(currents, sol14.state, d, step=1e-4)
    assert np.allclose(blocks[9] @ d[rows[9]], fd, atol=1e-9)


def test_branch_current_jacobian_charging_toggle(case14):
    with_c = build_ybus(case14)._branch_table[1][0]
    branches = (replace(case14.branches[0], b_charging=0.0),) + case14.branches[1:]
    without = build_ybus(replace(case14, branches=branches))._branch_table[1][0]
    assert not np.allclose(with_c, without)


def test_transfer_matrix_requires_matching_branch(lin14, case14):
    sens = injection_sensitivity(lin14, 4)
    jac = branch_current_jacobian(case14, 5)
    with pytest.raises(ValueError, match="different branches"):
        outage_transfer_matrix(sens, jac)


def test_injection_consistency_case14(sol14, lin14):
    """Substitution check: the equivalent injection of each query reproduces itself through
    the closed loop of its state change and the scalar reference's branch block."""
    case = sol14.case
    bridges = find_bridges(case)
    for outage in range(case.n_branch):
        if outage in bridges:
            continue
        impact = evaluate_outage(sol14, lin14, outage)
        rows, block = reference.branch_block(case, outage)
        reproduced = impact.i_pre + block @ impact.delta_state[rows]
        assert np.allclose(reproduced, impact.injection, atol=1e-10)


@pytest.mark.parametrize("mode", ["full", "network"])
def test_linear_network_outage_prediction_is_exact(mode):
    """Constant-current devices make the model exact, not just first order."""
    case = ring5()
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol, mode=mode)
    for outage in range(case.n_branch):
        if outage == RING5_BRIDGE:
            continue
        impact = evaluate_outage(sol, lin, outage)
        actual = solve_ac_powerflow(case.with_branch_open(outage))
        dv_actual = actual.state - sol.state
        assert np.max(np.abs(impact.delta_state - dv_actual)) < 1e-10


@pytest.mark.parametrize("mode", ["full", "network"])
def test_bridge_outage_raises_islanding(mode):
    case = ring5()
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol, mode=mode)
    cond, injection, _ = reference.outage_chain(sol, lin, RING5_BRIDGE)
    assert cond > COND_LIMIT and injection is None
    ((*_, engine_cond),) = _transfer_chunks(lin, case, [RING5_BRIDGE], sol.ybus)
    assert _singular(engine_cond[0])
    with pytest.raises(IslandingError, match="islands"):
        evaluate_outage(sol, lin, RING5_BRIDGE)


def _per_unit_rescaled(sol, a):
    """``sol`` on an impedance base ``1/a`` times the old one, at the same bus voltages.

    Impedances scale by ``a``; shunts, line charging, powers, reactive limits
    and current loads by ``1/a``.  The voltages solve the rescaled case as
    they solve ``sol.case``, so both models are taken at one point, not at
    two points where Newton solves happen to stop within their tolerance.
    """
    case = sol.case
    buses = tuple(
        replace(
            b,
            p_load=b.p_load / a,
            q_load=b.q_load / a,
            g_shunt=b.g_shunt / a,
            b_shunt=b.b_shunt / a,
            i_load_r=b.i_load_r / a,
            i_load_i=b.i_load_i / a,
        )
        for b in case.buses
    )
    branches = tuple(replace(br, r=br.r * a, x=br.x * a, b_charging=br.b_charging / a) for br in case.branches)
    gens = tuple(replace(g, p_set=g.p_set / a, q_min=g.q_min / a, q_max=g.q_max / a) for g in case.generators)
    scaled = GridCase(case.name, case.base_mva * a, buses, branches, gens)
    ybus = build_ybus(scaled)
    return replace(sol, case=scaled, q_gen=sol.q_gen / a, ybus=ybus, _problem=_NewtonProblem(scaled, ybus))


def _transfer_conds(sol, mode):
    """cond(T_k) of every non-bridge outage of ``sol.case``, by outage."""
    case = sol.case
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    lin = linearize_at_solution(sol, mode)
    return {int(k): c for idx, *_, cond in _transfer_chunks(lin, case, outages, sol.ybus) for k, c in zip(idx, cond)}


def _assert_cond_is_per_unit_invariant(sol):
    """``T_k = I - B_k Z`` is dimensionless: ``B_k`` scales by ``1/a`` and the terminal block of ``Z`` by ``a``."""
    assert not sol.q_limited
    for mode in ("full", "network"):
        conds = _transfer_conds(sol, mode)
        for a in (10.0, 0.01):
            scaled = _transfer_conds(_per_unit_rescaled(sol, a), mode)
            assert scaled.keys() == conds.keys()
            for k, c in conds.items():
                assert abs(scaled[k] - c) <= 1e-10 * c, (mode, a, k, c, scaled[k])


@pytest.mark.parametrize("which", ["case14", "case118"])
def test_transfer_cond_is_per_unit_invariant(sol14, sol118, which):
    """``COND_LIMIT`` does not depend on the per-unit base."""
    _assert_cond_is_per_unit_invariant(sol14 if which == "case14" else sol118)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(2, 12),
    n_chords=st.integers(0, 5),
    n_parallel=st.integers(0, 3),
    n_spurs=st.integers(0, 4),
    n_open=st.integers(0, 2),
)
def test_transfer_cond_is_per_unit_invariant_on_random_networks(seed, n_core, n_chords, n_parallel, n_spurs, n_open):
    """Random meshed networks with constant-power loads and PV generators, every non-bridge outage."""
    case = with_devices(random_meshed(seed, n_core, n_chords, n_parallel, n_spurs, n_open), np.random.default_rng(seed))
    _assert_cond_is_per_unit_invariant(solve_ac_powerflow(case))


def phase_shifted_case14(case14):
    """case14 with phase-shifting, off-nominal branches, so that yft != ytf."""
    shifted = {2: (1.03, -0.04), 7: (0.978, 0.05), 8: (0.969, -0.03), 9: (0.932, 0.06), 16: (1.02, 0.04)}
    branches = tuple(
        replace(br, tap=shifted[k][0], shift=shifted[k][1]) if k in shifted else br
        for k, br in enumerate(case14.branches)
    )
    return replace(case14, name="case14_shifted", branches=branches)


@pytest.mark.parametrize("variant", ["case14", "phase_shifted"])
def test_monitors_match_fd(case14, variant):
    """The engine's monitor stage matches central differences of |V|, |I| and P."""
    case = case14 if variant == "case14" else phase_shifted_case14(case14)
    sol = solve_ac_powerflow(case)
    closed = [k for k, br in enumerate(case.branches) if br.closed]
    rng = np.random.default_rng(37)
    d = rng.normal(size=2 * case.n)
    # two rows of the same direction, removing different branches, so that
    # every branch can be read from a row whose outage is another branch
    outages = np.array(closed[:2])
    dvmag, dimag, dp = _monitors(sol, np.stack([d, d]), outages, ("vmag", "imag", "pline"))
    assert not sol._baseline.tiny.any()

    def vmag(x):
        return np.abs(state_to_complex(x))

    fd = reference.directional_derivative(vmag, sol.state, d)
    assert np.allclose(dvmag, fd, rtol=0.0, atol=1e-7)
    for k in closed:
        row = 1 if k == outages[0] else 0

        def imag_of(x):
            cur = reference.terminal_currents(case, state_to_complex(x), k)
            return float(np.hypot(cur[0], cur[1]))

        def pline(x):
            return reference.from_side_power(case, state_to_complex(x), k)

        fd_imag = reference.directional_derivative(imag_of, sol.state, d)
        fd_p = reference.directional_derivative(pline, sol.state, d)
        assert dimag[row, k] == pytest.approx(float(fd_imag), rel=1e-6, abs=1e-7)
        assert dp[row, k] == pytest.approx(float(fd_p), rel=1e-6, abs=1e-7)


def test_delta_voltage_magnitude_matches_fd(sol14):
    rng = np.random.default_rng(5)
    d = rng.normal(size=2 * sol14.n)

    def vmag(x):
        return np.abs(state_to_complex(x))

    fd = reference.directional_derivative(vmag, sol14.state, d)
    dvmag, _, _ = _monitors(sol14, d[None, :], np.array([0]), ("vmag",))
    assert np.allclose(dvmag[0], fd, atol=1e-7)


# the monitor stage reads branch currents on the from side only
@pytest.mark.parametrize("side", ["from"])
def test_delta_current_magnitude_matches_fd(sol14, side):
    case = sol14.case
    rng = np.random.default_rng(29)
    d = rng.normal(size=2 * sol14.n)

    def imag_of(x):
        cur = reference.terminal_currents(case, state_to_complex(x), 7)
        return float(np.hypot(cur[0], cur[1]))

    fd = reference.directional_derivative(imag_of, sol14.state, d)
    _, dimag, _ = _monitors(sol14, d[None, :], np.array([0]), ("imag",))
    assert not sol14._baseline.tiny[7]
    assert dimag[0, 7] == pytest.approx(float(fd), abs=1e-7)


def test_delta_line_power_matches_fd(sol14):
    case = sol14.case
    rng = np.random.default_rng(31)
    d = rng.normal(size=2 * sol14.n)

    def pline(x):
        return reference.from_side_power(case, state_to_complex(x), 3)

    fd = reference.directional_derivative(pline, sol14.state, d)
    _, _, dp = _monitors(sol14, d[None, :], np.array([0]), ("pline",))
    assert dp[0, 3] == pytest.approx(float(fd), abs=1e-7)


def test_monitors_imag_fallback_on_dead_branch():
    """A branch without current reads the magnitude of its current change."""
    case = parallel_pair(i_load=0j)
    sol = solve_ac_powerflow(case)
    assert sol._baseline.tiny[0]
    d = np.zeros(2 * case.n)
    d[2] = 1e-3  # push the load bus voltage
    _, dimag, _ = _monitors(sol, d[None, :], np.array([1]), ("imag",))
    rows, block = reference.branch_block(case, 0)
    di = block @ d[rows]
    assert dimag[0, 0] > 0.0
    assert dimag[0, 0] == pytest.approx(float(np.hypot(di[0], di[1])), rel=1e-12)


def test_monitors_reject_zero_voltage(sol14, lin14):
    state = sol14.state.copy()
    state[6:8] = 0.0  # bus 4 at zero voltage
    sol = replace(sol14, state=state)
    with pytest.raises(ValueError, match="zero"):
        next(_impact_chunks(sol, lin14, [0], ("vmag",)))


def test_queries_reject_a_model_of_another_solution(case14, sol14, lin14):
    """A query that solves checks that its model is taken at its solution: of its case, at its state."""
    loaded = solve_ac_powerflow(scale_loading(case14, 1.3))
    early = solve_ac_powerflow(case14, PowerFlowOptions(tol=1e-3))  # the same case, another state
    pairs = [(sol14, linearize_at_solution(loaded)), (loaded, lin14), (sol14, linearize_at_solution(early, "network"))]
    for sol, lin in pairs:
        for query in (evaluate_outage, circuit_lodf):
            with pytest.raises(ValueError, match="linear model is not taken at this solution"):
                query(sol, lin, 3)
    assert _same_impact(evaluate_outage(replace(sol14), lin14, 3), evaluate_outage(sol14, lin14, 3))


def test_removed_branch_conventions(sol14, lin14):
    outage = 6
    impact = evaluate_outage(sol14, lin14, outage)
    case = sol14.case
    i_from = complex(*reference.terminal_currents(case, sol14.v_complex, outage)[:2])
    assert impact.delta_imag[outage] == pytest.approx(-abs(i_from), abs=1e-14)

    f = case.bus_index(case.branches[outage].from_bus)
    dvc = state_to_complex(impact.delta_state)
    vf = sol14.v_complex[f]
    p_pre = (vf * np.conj(i_from)).real
    expected_dp = (dvc[f] * np.conj(i_from)).real - p_pre
    assert impact.delta_p[outage] == pytest.approx(expected_dp, abs=1e-12)


def test_evaluate_outage_skips_open_branches(case14):
    sol = solve_ac_powerflow(case14.with_branch_open(2))
    lin = linearize_at_solution(sol)
    impact = evaluate_outage(sol, lin, 6)
    assert impact.delta_imag[2] == 0.0
    assert impact.delta_p[2] == 0.0
    assert not impact.imag_fallback[2]


def test_outage_beyond_slack_cannot_reach_the_spur():
    """The slack voltage pins decouple the two sides of the station."""
    case = slack_split()
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol)
    impact = evaluate_outage(sol, lin, SLACK_SPLIT_LOOP_BRANCH)
    spur_buses = [case.bus_index(4), case.bus_index(5)]
    assert np.allclose(impact.delta_vmag[spur_buses], 0.0, atol=1e-14)
    assert impact.delta_imag[SLACK_SPLIT_SPUR_BRANCH] == pytest.approx(0.0, abs=1e-14)
    assert impact.delta_p[SLACK_SPLIT_SPUR_BRANCH] == pytest.approx(0.0, abs=1e-14)
    # the loop itself does respond
    loop_buses = [case.bus_index(2), case.bus_index(3)]
    assert np.max(np.abs(impact.delta_vmag[loop_buses])) > 1e-4


def test_severity_metrics_exclude_outaged_branch(sol14, lin14):
    impact = evaluate_outage(sol14, lin14, 6)
    closed = np.array([br.closed for br in sol14.case.branches])
    others = closed.copy()
    others[6] = False

    def severity(metric):
        return severity_from_deltas(
            metric, impact.delta_vmag, impact.delta_imag, impact.delta_p, impact.outage, closed
        )

    assert severity("imag_inf") == pytest.approx(np.max(np.abs(impact.delta_imag[others])))
    assert severity("pline_inf") == pytest.approx(np.max(np.abs(impact.delta_p[others])))
    assert severity("vmag_inf") == pytest.approx(np.max(np.abs(impact.delta_vmag)))
    assert severity("vmag_2") == pytest.approx(np.linalg.norm(impact.delta_vmag))


def test_severity_unknown_metric_rejected(sol14, lin14):
    impact = evaluate_outage(sol14, lin14, 6)
    closed = np.array([br.closed for br in sol14.case.branches])
    with pytest.raises(ValueError, match="metric"):
        severity_from_deltas(
            "angle_inf", impact.delta_vmag, impact.delta_imag, impact.delta_p, impact.outage, closed
        )


def test_circuit_lodf_self_ratio_near_minus_one_at_light_load(case14):
    """At light loading the outaged branch loses almost exactly its own flow."""
    case = scale_loading(case14, 0.2)
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol)
    bridges = find_bridges(case)
    for outage in (0, 3, 6, 15):
        assert outage not in bridges
        res = circuit_lodf(sol, lin, outage)
        assert res.ratio[outage] == pytest.approx(-1.0, abs=0.05)


def test_circuit_lodf_nan_for_unloaded_reference():
    case = two_bus(p=0.0, q=0.0)
    case = scale_loading(case, 0.0)
    # add a second circuit so the outage does not island the load bus
    from gridscreen.case_io import Branch, GridCase

    case = GridCase(
        case.name,
        case.base_mva,
        case.buses,
        case.branches + (Branch(1, 2, 0.0, 0.1),),
        case.generators,
    )
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol)
    res = circuit_lodf(sol, lin, 0)
    assert np.all(np.isnan(res.ratio))


def test_circuit_lodf_cannot_write_the_shared_baseline(case14):
    """A result's ``p_pre`` is the solution's baseline, which every later query reads, so a
    write into it raises; all baseline arrays are read-only."""
    sol = solve_ac_powerflow(case14)
    lin = linearize_at_solution(sol)
    first = circuit_lodf(sol, lin, 5)
    with pytest.raises(ValueError, match="read-only"):
        first.p_pre[5] = 1e-20
    again = circuit_lodf(sol, lin, 5)
    assert again.ratio.tobytes() == first.ratio.tobytes()
    assert again.ratio[3] == pytest.approx(0.48875767031698797, rel=1e-12)
    arrays = [value for value in vars(sol._baseline).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 14 and not any(a.flags.writeable for a in arrays)


def test_circuit_lodf_tracks_dc_lodf_at_light_load(case14):
    """The nonlinear distribution factors approach the DC ones as loading
    and losses vanish."""
    from gridscreen.dcmodel import build_dc_model, dc_lodf

    case = scale_loading(case14, 0.1)
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol)
    model = build_dc_model(case)
    res_ac = circuit_lodf(sol, lin, 6)
    res_dc = dc_lodf(model, 6)
    closed = np.array([br.closed for br in case.branches])
    keep = closed.copy()
    keep[6] = False
    # compare only branches carrying meaningful flow
    keep &= np.abs(res_dc.p_pre) > 1e-3
    assert np.allclose(res_ac.ratio[keep], res_dc.lodf[keep], atol=0.12)


@pytest.mark.parametrize(
    "builder, expected",
    [
        (triangle, set()),
        (parallel_pair, set()),
        (ring5, {RING5_BRIDGE}),
        (slack_split, {3, 4}),
    ],
)
def test_singular_outage_branches_equal_graph_bridges(builder, expected):
    case = builder()
    assert singular_outage_branches(case) == expected
    assert find_bridges(case) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(1, 20),
    n_chords=st.integers(0, 8),
    n_parallel=st.integers(0, 3),
    n_spurs=st.integers(0, 8),
    n_open=st.integers(0, 2),
)
def test_islanding_detectors_agree_on_random_networks(seed, n_core, n_chords, n_parallel, n_spurs, n_open):
    case = random_meshed(seed, n_core, n_chords, n_parallel, n_spurs, n_open)
    cuts = {
        idx
        for idx, br in enumerate(case.branches)
        if br.closed and not is_connected(case, skip_branch=idx)
    }
    assert singular_outage_branches(case) == find_bridges(case) == cuts


def test_singular_outage_branches_tracks_topology_changes(case14):
    # opening a meshed branch changes the bridge set; the two detectors
    # must stay in agreement and never report the open branch
    opened = case14.with_branch_open(2)
    singular = singular_outage_branches(opened)
    assert 2 not in singular
    assert singular == find_bridges(opened)


def test_severity_from_deltas_direct():
    closed = np.array([True, True, True])
    val = severity_from_deltas(
        "imag_inf",
        np.array([0.1]),
        np.array([5.0, 0.2, 0.3]),
        np.array([0.0, 0.0, 0.0]),
        outage=0,
        closed=closed,
    )
    assert val == pytest.approx(0.3)


# -- the outage engine -----------------------------------------------------------


def _near_reference_chain(sol, lin, chunk, i) -> bool:
    """Assert that row ``i`` of an engine block agrees with the dense reference chain of its
    outage: the same singular flag and, on a nonsingular row, the condition number, the
    pre-outage currents, the injection and the state change within rounding (the last two
    within 1e-8 of the row's largest entry).  Returns whether the row is nonsingular."""
    k = int(chunk.outages[i])
    cond, injection, delta_state = reference.outage_chain(sol, lin, k)
    assert chunk.singular[i] == (injection is None), (k, chunk.cond[i], cond)
    if injection is None:
        return False
    assert chunk.cond[i] == pytest.approx(cond, rel=1e-6), k
    i_pre = reference.terminal_currents(sol.case, sol.v_complex, k)
    assert np.allclose(sol._baseline.i_terminal[k], i_pre, rtol=0, atol=1e-12), k
    for got, want in ((chunk.injection[i], injection), (chunk.delta_state[i], delta_state)):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want)), k  # relative to the row's largest entry
    return True


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(2, 20),
    n_chords=st.integers(0, 8),
    n_parallel=st.integers(0, 3),
    n_spurs=st.integers(0, 8),
    n_open=st.integers(0, 2),
)
def test_engine_blocks_equal_single_outage_chain(seed, n_core, n_chords, n_parallel, n_spurs, n_open):
    """Blocked condition numbers, flags, injections and voltage changes agree with the dense
    reference chain, in both modes; evaluate_outage raises exactly on the singular rows and
    returns every other row bit for bit, in fresh writeable arrays."""
    case = random_meshed(seed, n_core, n_chords, n_parallel, n_spurs, n_open)
    sol = solve_ac_powerflow(case)
    base = sol._baseline
    baseline = [a for a in vars(base).values() if isinstance(a, np.ndarray)]
    closed = [idx for idx, br in enumerate(case.branches) if br.closed]
    for mode in ("full", "network"):
        lin = linearize_at_solution(sol, mode)
        seen = []
        for chunk in _impact_chunks(sol, lin, closed):
            for i, k in enumerate(chunk.outages):
                k = int(k)
                seen.append(k)
                if not _near_reference_chain(sol, lin, chunk, i):
                    assert np.all(np.isnan(chunk.delta_state[i]))
                    with pytest.raises(IslandingError):
                        evaluate_outage(sol, lin, k)
                    continue
                i_pre = base.i_terminal[k]
                impact = evaluate_outage(sol, lin, k)
                assert impact.outage == k and impact.cond == chunk.cond[i]
                shared = {"i_pre": i_pre, "imag_fallback": base.tiny}  # rows of the baseline, not of the block
                for f in fields(impact):
                    value = getattr(impact, f.name)
                    if isinstance(value, np.ndarray):
                        row = shared[f.name] if f.name in shared else getattr(chunk, f.name)[i]
                        assert value.tobytes() == row.tobytes(), (mode, k, f.name)
                        assert value.flags.writeable
                        assert not any(np.shares_memory(value, a) for a in baseline), (mode, k, f.name)
        assert sorted(seen) == closed


def test_engine_slack_terminal_outage_uses_zero_columns(sol14, lin14):
    case = sol14.case
    # branch 0 of the bundled 14-bus case leaves the slack bus
    slack = case.bus_index(case.branches[0].from_bus)
    assert slack == lin14.slack
    _, _, _, resp, cols, _, _ = next(_transfer_chunks(lin14, case, [0], sol14.ybus))
    assert resp.shape[1] == 3  # one zero column, two columns for the far terminal
    assert cols[0, 0] == cols[0, 1] == 0 and np.all(resp[:, 0] == 0.0)

    impact = evaluate_outage(sol14, lin14, 0)
    rows, block = reference.branch_block(case, 0)
    residual = impact.i_pre + block @ impact.delta_state[rows] - impact.injection
    assert np.max(np.abs(residual)) < 1e-10
    dv = sensitivity._bus_solve(lin14, _terminals(case, 0))[: 2 * case.n]
    assert np.array_equal(impact.delta_state, dv @ impact.injection)


def test_engine_rejects_open_outage(case14):
    opened = case14.with_branch_open(2)
    sol = solve_ac_powerflow(opened)
    lin = linearize_at_solution(sol)
    with pytest.raises(ValueError, match="open"):
        evaluate_outage(sol, lin, 2)
    with pytest.raises(ValueError, match="open"):
        circuit_lodf(sol, lin, 2)
    with pytest.raises(ValueError, match="open"):
        list(_transfer_chunks(lin, opened, [1, 2], sol.ybus))
    # each would pass for branch 3 or 1 once converted to an integer
    for k in NON_INTEGER_INDICES:
        for query in (evaluate_outage, circuit_lodf):
            with pytest.raises(TypeError, match=_not_an_index(k)):
                query(sol, lin, k)
        with pytest.raises(TypeError, match=_not_an_index(k)):
            list(_transfer_chunks(lin, opened, [1, k], sol.ybus))


def test_engine_blocks_cover_case118(sol118, lin118):
    """The 118-bus case spans several blocks; every outage lands in exactly one."""
    case = sol118.case
    closed = [idx for idx, br in enumerate(case.branches) if br.closed]
    assert len(closed) > 2 * _CHUNK
    blocks = [idx for idx, *_ in _transfer_chunks(lin118, case, closed, sol118.ybus)]
    assert len(blocks) > 2 and max(map(len, blocks)) == _CHUNK
    assert sorted(int(k) for idx in blocks for k in idx) == closed


@pytest.mark.parametrize("variant", ["case14", "phase_shifted", "with_open"])
def test_branch_blocks_equal_branch_current_jacobian(case14, variant):
    """The engine's blocks, the cached branch table of the Y-bus, are the scalar reference's
    and the 2x2 real form of each two-port admittance; open branches have zero blocks."""
    case = {
        "case14": case14,
        "phase_shifted": phase_shifted_case14(case14),
        "with_open": case14.with_branch_open(2).with_branch_open(9),
    }[variant]
    ybus = build_ybus(case)
    rows, blocks = table = ybus._branch_table
    assert ybus._branch_table is table  # built once per matrix
    assert rows.shape == (case.n_branch, 4) and blocks.shape == (case.n_branch, 4, 4)
    assert not rows.flags.writeable and not blocks.flags.writeable
    for k, br in enumerate(case.branches):
        f, t = case.bus_index(br.from_bus), case.bus_index(br.to_bus)
        assert rows[k].tolist() == [2 * f, 2 * f + 1, 2 * t, 2 * t + 1]
        if not br.closed:
            assert not blocks[k].any()
            continue
        ref_rows, ref_block = reference.branch_block(case, k)
        assert np.array_equal(ref_rows, rows[k])
        assert ref_block.tobytes() == blocks[k].tobytes()
        yff, yft, ytf, ytt = (complex(y[k]) for y in (ybus.yff, ybus.yft, ybus.ytf, ybus.ytt))
        expected = [
            [yff.real, -yff.imag, yft.real, -yft.imag],
            [yff.imag, yff.real, yft.imag, yft.real],
            [ytf.real, -ytf.imag, ytt.real, -ytt.imag],
            [ytf.imag, ytf.real, ytt.imag, ytt.real],
        ]
        assert blocks[k].tobytes() == np.array(expected).tobytes()
    # the table's builder, on a gathered subset
    closed = np.array([k for k, br in enumerate(case.branches) if br.closed])
    stamps = (ybus.yff[closed], ybus.yft[closed], ybus.ytf[closed], ybus.ytt[closed])
    sub_rows, sub_blocks = _branch_blocks(ybus.from_idx[closed], ybus.to_idx[closed], *stamps)
    assert sub_rows.tobytes() == rows[closed].tobytes() and sub_blocks.tobytes() == blocks[closed].tobytes()
    # a matrix with one more branch switched out has its own table
    k = int(closed[0])
    opened_rows, opened_blocks = _without_branch(ybus, k)._branch_table
    assert np.array_equal(opened_rows, rows) and not opened_blocks[k].any()
    assert np.delete(opened_blocks, k, axis=0).tobytes() == np.delete(blocks, k, axis=0).tobytes()


def test_engine_cond_equals_numpy_cond(monkeypatch, case14, case118, sol118, lin118):
    """The engine's condition numbers are ``np.linalg.cond``'s bit for bit: on every closed
    non-bridge outage of case118, on the series transfer matrices of the islanding check of
    both bundled cases; ``np.linalg.cond`` reads a 0/0, x/0 or overflowing ratio as inf, which
    the singularity rule counts as singular."""
    seen = []
    transfer_chunks = sensitivity._transfer_chunks

    def recording_transfer_chunks(*args):
        for chunk in transfer_chunks(*args):
            seen.append(chunk[-2:])
            yield chunk

    monkeypatch.setattr(sensitivity, "_transfer_chunks", recording_transfer_chunks)
    bridges = find_bridges(case118)
    outages = [k for k, br in enumerate(case118.branches) if br.closed and k not in bridges]
    assert len(list(sensitivity._transfer_chunks(lin118, case118, outages, sol118.ybus))) > 1
    assert sum(len(cond) for _, cond in seen) == len(outages)
    assert singular_outage_branches(case14) == find_bridges(case14)
    assert singular_outage_branches(case118) == bridges
    for t, cond in seen:
        assert cond.tobytes() == np.linalg.cond(t).tobytes()
    assert max(cond.max() for _, cond in seen) > COND_LIMIT  # the series bridges

    crafted = np.stack([np.eye(4), np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 0.0]), np.diag([1e300, 1, 1, 1e-300])])
    cond = np.linalg.cond(crafted)
    assert cond[0] == 1.0 and np.isinf(cond[1:]).all()  # 0/0, x/0 and an overflow read inf
    assert _singular(cond).tolist() == [False, True, True, True]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cond(np.full((1, 4, 4), np.nan))


class _CountingLU:
    """An LU factorization that records, per solve, its unit-injection and zero columns."""

    def __init__(self, lu):
        self._lu = lu
        self.calls = []

    def solve(self, rhs):
        injected = int(np.count_nonzero(rhs.any(axis=0)))
        self.calls.append((injected, rhs.shape[1] - injected))  # atomic: the solves run on worker threads
        return self._lu.solve(rhs)

    @property
    def columns(self):
        """Unit-injection columns solved so far."""
        return sum(injected for injected, _ in self.calls)


def _terminal_buses(lin, case, outages):
    """The distinct non-slack terminal buses of ``outages``."""
    ybus = build_ybus(case)
    return {int(b) for k in outages for b in (ybus.from_idx[k], ybus.to_idx[k])} - {lin.slack}


def test_engine_pass_solves_each_terminal_once(case118, lin118):
    """One pass over every closed branch solves two columns per distinct non-slack terminal."""
    lu = _CountingLU(lin118._lu)
    lin = replace(lin118, _lu=lu)
    closed = [idx for idx, br in enumerate(case118.branches) if br.closed]
    blocks = [idx for idx, *_ in _transfer_chunks(lin, case118, closed, build_ybus(case118))]
    assert len(blocks) > 2
    assert lu.columns == 2 * len(_terminal_buses(lin, case118, closed))
    # each solve fills its last group of four columns with at most one zero pair
    assert all(zeros == (injected % 4) for injected, zeros in lu.calls)


def _impact_arrays(sol, lin, outages):
    """Every array of the engine's transfer and impact stages but the slot array, in order."""
    out = []
    for idx, rows, blocks, _, _, t, cond in _transfer_chunks(lin, sol.case, outages, sol.ybus):
        out += [a.tobytes() for a in (idx, rows, blocks, t, cond)]
    for chunk in _impact_chunks(sol, lin, outages):
        out += [np.asarray(getattr(chunk, f.name)).tobytes() for f in fields(chunk)]
    return out


def test_engine_live_bound_solves_again_with_equal_results(monkeypatch):
    """Buses numbered in reverse give long live ranges: the pass runs out of slots,
    solves some buses again, and yields the bytes of a pass without the bound.  Without
    the bound each stage's pass solves every bus once."""
    case = random_meshed(1, n_core=400, n_chords=100, n_spurs=20)
    case = replace(case, buses=case.buses[::-1])
    sol = solve_ac_powerflow(case)
    base = linearize_at_solution(sol)
    lu = _CountingLU(base._lu)
    lin = replace(base, _lu=lu)
    closed = [idx for idx, br in enumerate(case.branches) if br.closed]
    order = np.concatenate([idx for idx, *_ in _transfer_chunks(lin, case, closed, sol.ybus)])
    ybus = sol.ybus
    assert _slot_plan(lin, ybus.from_idx[order], ybus.to_idx[order])[1] == _LIVE_BUSES
    distinct = len(_terminal_buses(lin, case, closed))

    lu.calls.clear()
    bounded = _impact_arrays(sol, lin, closed)
    assert lu.columns > 2 * 2 * distinct  # both stages solve again

    monkeypatch.setattr(sensitivity, "_LIVE_BUSES", 10**6)
    lu.calls.clear()
    unbounded = _impact_arrays(sol, lin, closed)
    assert lu.columns == 2 * 2 * distinct
    assert unbounded == bounded


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(40, 80),
    n_chords=st.integers(30, 45),
    n_parallel=st.integers(0, 3),
    n_spurs=st.integers(0, 10),
    n_open=st.integers(0, 2),
)
def test_engine_blocks_with_slot_reuse_equal_scalar_results(seed, n_core, n_chords, n_parallel, n_spurs, n_open):
    """Several blocks that share and reuse slots, devices, a shuffled outage list: the batched
    results are the per-outage ones, bit for bit."""
    rng = np.random.default_rng(seed)
    # light loading, so that the power flow of most networks this size converges
    case = scale_loading(with_devices(random_meshed(seed, n_core, n_chords, n_parallel, n_spurs, n_open), rng), 0.2)
    try:
        sol = solve_ac_powerflow(case)
    except PowerFlowError:
        reject()  # no operating point to screen
    closed = [idx for idx, br in enumerate(case.branches) if br.closed]
    assert len(closed) > 2 * _CHUNK
    outages = [int(k) for k in rng.permutation(closed)]
    closed_mask = sol._baseline.closed
    bridges = find_bridges(case)
    for mode in ("full", "network"):
        lin = linearize_at_solution(sol, mode)
        impacts = {}
        for chunk in _impact_chunks(sol, lin, outages):
            for i, k in enumerate(chunk.outages.tolist()):
                if not _near_reference_chain(sol, lin, chunk, i):
                    continue
                impacts[k] = evaluate_outage(sol, lin, k)
                for name in _ROW:
                    assert np.array_equal(getattr(chunk, name)[i], getattr(impacts[k], name)), (mode, k, name)
        for metric in SEVERITY_METRICS:
            expected = {
                k: severity_from_deltas(metric, i.delta_vmag, i.delta_imag, i.delta_p, k, closed_mask)
                for k, i in impacts.items()
            }
            assert _outage_severities(sol, lin, outages, metric) == expected
            report = screen(case, sol, lin, metric=metric)
            finite = {e.branch: e.severity for e in report.entries if not e.islanding and not e.note}
            assert finite == {k: v for k, v in expected.items() if k not in bridges}, (mode, metric)


# -- the thread pool of the terminal solves ------------------------------------------


def _engine_bytes(sol, lin, outages):
    """Every array the engine's two stages yield, as (dtype, shape, bytes), in order."""
    out = []

    def add(value):
        if value is not None:
            value = np.asarray(value)
            out.append((value.dtype.str, value.shape, value.tobytes()))

    for arrays in _transfer_chunks(lin, sol.case, outages, sol.ybus):
        for value in arrays:
            add(value)
    for chunk in _impact_chunks(sol, lin, outages):
        for f in fields(chunk):
            add(getattr(chunk, f.name))
    return out


@pytest.mark.parametrize("which", ["case118", "random_meshed"])
def test_engine_results_do_not_depend_on_worker_count(sol118, lin118, which, monkeypatch):
    """One worker solves inline, two run the pool; every yielded array is byte-equal."""
    if which == "case118":
        sol, lin = sol118, lin118
    else:
        case = random_meshed(3, n_core=70, n_chords=25, n_spurs=5)
        sol = solve_ac_powerflow(case)
        lin = linearize_at_solution(sol)
    outages = [idx for idx, br in enumerate(sol.case.branches) if br.closed]
    assert len(outages) > 3 * _CHUNK

    pools = []

    class CountingPool(sensitivity.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sensitivity, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 1)
    inline = _engine_bytes(sol, lin, outages)
    assert not pools
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 2)
    pooled = _engine_bytes(sol, lin, outages)
    assert len(pools) == 2  # one pool per _transfer_chunks call
    assert pooled == inline


def test_single_outage_queries_make_no_pool(sol118, lin118, monkeypatch):
    """A block of one solves inline, whatever the number of usable CPUs."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sensitivity, "ThreadPoolExecutor", no_pool)
    evaluate_outage(sol118, lin118, 10)
    assert _Oracle(sol118).solve([10])[10].converged


def test_queries_do_only_their_own_work(monkeypatch, case118):
    """On one model, every evaluate_outage call after the first makes exactly one solve of
    four right-hand sides, and after a screen on that model none; the branch table is
    built once per admittance matrix."""
    sol = solve_ac_powerflow(case118)
    lin = linearize_at_solution(sol)
    lu = _CountingLU(lin._lu)
    lin = replace(lin, _lu=lu)
    tables = []
    branch_blocks = case_io._branch_blocks

    def counting_branch_blocks(f, *args):
        tables.append(len(f))
        return branch_blocks(f, *args)

    monkeypatch.setattr(case_io, "_branch_blocks", counting_branch_blocks)
    bridges = find_bridges(case118)
    outages = [k for k, br in enumerate(case118.branches) if br.closed and k not in bridges]
    assert any(lin.slack in (sol.ybus.from_idx[k], sol.ybus.to_idx[k]) for k in outages)
    evaluate_outage(sol, lin, outages[0])
    assert tables == [case118.n_branch]
    for k in outages[1:]:
        lu.calls.clear()
        evaluate_outage(sol, lin, k)
        assert len(lu.calls) == 1 and sum(lu.calls[0]) == 4, (k, lu.calls)
    assert tables == [case118.n_branch]
    screen(case118, sol, lin)
    for k in outages:
        lu.calls.clear()
        evaluate_outage(sol, lin, k)
        assert not lu.calls, (k, lu.calls)
    assert tables == [case118.n_branch]
    # a new matrix of the same case builds its own table, once
    other = solve_ac_powerflow(case118)
    for k in outages[:3]:
        evaluate_outage(other, linearize_at_solution(other), k)
    assert tables == [case118.n_branch] * 2


def _same_impact(impact, other) -> bool:
    """Whether two impacts hold the same bytes in every array and in ``cond``."""
    return all(
        np.asarray(getattr(impact, f.name)).tobytes() == np.asarray(getattr(other, f.name)).tobytes()
        for f in fields(impact)
    )


# what an engine row and an impact both hold of one outage
_ROW = ("cond", "injection", "delta_state", "delta_vmag", "delta_imag", "delta_p")


def _engine_rows(chunks) -> dict[int, list[bytes]]:
    """The bytes of each outage's ``_ROW`` in the blocks of an impact pass."""
    return {
        int(k): [getattr(chunk, name)[i].tobytes() for name in _ROW]
        for chunk in chunks
        for i, k in enumerate(chunk.outages)
    }


@pytest.mark.parametrize("mode", ["full", "network"])
@pytest.mark.parametrize("which", ["14", "118"])
def test_queries_after_a_screen_read_its_responses(request, which, mode, monkeypatch):
    """A screen's pass holds at most _LIVE_BUSES terminal buses, and the model keeps each
    outage's row of it, all three monitors included whatever the screen's metric, read-only:
    under each metric, every non-bridge evaluate_outage of the same solution on that model
    then makes no solve, takes no condition number and computes no monitor, and returns in
    fresh writeable arrays that do not overlap, byte for byte, the same query on a fresh model
    and the engine's row, slack terminals included; writing into those arrays changes neither
    the kept row nor a second query.  A query of another solution object solves and gives the
    fresh bytes."""
    sol = request.getfixturevalue(f"sol{which}")
    case = sol.case
    base = linearize_at_solution(sol, mode)
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    assert any(base.slack in (sol.ybus.from_idx[k], sol.ybus.to_idx[k]) for k in outages)
    fresh = {k: evaluate_outage(sol, replace(base), k) for k in outages}
    engine = _engine_rows(_impact_chunks(sol, replace(base), outages))
    conds, monitored = [], []
    cond, monitors = np.linalg.cond, sensitivity._monitors
    monkeypatch.setattr(np.linalg, "cond", lambda *args: conds.append(args) or cond(*args))
    monkeypatch.setattr(sensitivity, "_monitors", lambda *args: monitored.append(args) or monitors(*args))
    other = replace(sol)
    for metric in SEVERITY_METRICS:
        lu = _CountingLU(base._lu)
        lin = replace(base, _lu=lu)
        screen(case, sol, lin, metric=metric)
        baseline, rows = lin._rows
        assert baseline is sol._baseline and set(rows) == set(outages), metric
        assert not any(a.flags.writeable for _, *arrays in rows.values() for a in arrays), metric
        lu.calls.clear()
        conds.clear()
        monitored.clear()
        for k in outages:
            impact = evaluate_outage(sol, lin, k)
            assert not lu.calls and not conds and not monitored, (metric, k)
            assert _same_impact(impact, fresh[k]), (metric, k)
            assert [np.asarray(getattr(impact, name)).tobytes() for name in _ROW] == engine[k], (metric, k)
            arrays = [a for a in vars(impact).values() if isinstance(a, np.ndarray)]
            assert all(a.flags.writeable for a in arrays), (metric, k)
            assert not any(np.shares_memory(a, kept) for a in arrays for kept in rows[k][1:]), (metric, k)
            assert not any(np.shares_memory(a, b) for a, b in combinations(arrays, 2)), (metric, k)
            row = rows[k][1].tobytes()
            for a in arrays:
                a.fill(7)
            assert rows[k][1].tobytes() == row, (metric, k)
            assert _same_impact(evaluate_outage(sol, lin, k), fresh[k]), (metric, k)
        for k in outages[:3]:
            lu.calls.clear()
            monitored.clear()
            assert _same_impact(evaluate_outage(other, lin, k), fresh[k]), (metric, k)
            assert len(lu.calls) == 1 and len(monitored) == 1, (metric, k)


def test_rows_of_a_pass_closed_early_or_singular(monkeypatch, sol14):
    """A screen whose pass stops after its first block keeps no rows.  A pass that ends keeps
    only its nonsingular outages, and a query of a singular non-bridge outage still raises
    IslandingError."""
    case = sol14.case
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    lin = replace(linearize_at_solution(sol14))
    transfer_chunks = screening._transfer_chunks

    def first_block_only(*args):
        with closing(transfer_chunks(*args)) as chunks:
            yield next(chunks)
        raise RuntimeError("pass stopped")

    with monkeypatch.context() as m:
        m.setattr(screening, "_transfer_chunks", first_block_only)
        with pytest.raises(RuntimeError, match="pass stopped"):
            screen(case, sol14, lin)
    assert lin._rows is None
    conds = _transfer_conds(sol14, "full")
    limit = float(np.median(list(conds.values())))
    monkeypatch.setattr(sensitivity, "COND_LIMIT", limit)
    report = screen(case, sol14, lin)
    singular = {e.branch for e in report.entries if e.note == "singular transfer matrix"}
    assert singular == {k for k, c in conds.items() if c > limit} and 0 < len(singular) < len(outages)
    assert set(lin._rows[1]) == set(outages) - singular
    for k in sorted(singular):
        with pytest.raises(IslandingError, match=f"branch {k} is singular"):
            evaluate_outage(sol14, lin, k)


@pytest.mark.parametrize("quantity", ["vmag", "imag", "pline"])
def test_impact_pass_keeps_nothing(sol118, lin118, quantity):
    """An impact pass, such as the CLI's sens, monitors exactly the quantity it is given and
    keeps no rows, though case118 has fewer than _LIVE_BUSES terminal buses; a screen on that
    model afterwards keeps the row of every non-bridge outage."""
    case = sol118.case
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    lin = replace(lin118)
    monitors = {"vmag": "delta_vmag", "imag": "delta_imag", "pline": "delta_p"}
    for chunk in _impact_chunks(sol118, lin, outages, (quantity,)):
        assert [getattr(chunk, name) is None for name in monitors.values()] == [q != quantity for q in monitors]
    assert lin._rows is None
    screen(case, sol118, lin)
    assert lin._rows[0] is sol118._baseline and set(lin._rows[1]) == set(outages)


def test_a_screen_that_fails_midway_leaves_the_kept_rows(monkeypatch, sol118, lin118):
    """A case118 screen whose monitors fail in its second block leaves what the model kept:
    nothing on a fresh model, and the very rows an earlier screen of that model kept."""
    case = sol118.case
    monitors = sensitivity._monitors
    calls = []

    def failing_monitors(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("monitors failed")
        return monitors(*args)

    def failing_screen(lin):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(sensitivity, "_monitors", failing_monitors)
            with pytest.raises(RuntimeError, match="monitors failed"):
                screen(case, sol118, lin)

    lin = replace(lin118)
    failing_screen(lin)
    assert lin._rows is None
    screen(case, sol118, lin)
    kept = lin._rows
    assert kept[0] is sol118._baseline
    failing_screen(lin)
    assert lin._rows is kept


def test_a_second_screen_gives_the_same_report(case118):
    """An oracle_outage keeps no rows; a screen on the solution's own model keeps its rows,
    and a second screen solves its terminals again, gives the same report and keeps its own."""
    sol = solve_ac_powerflow(case118)
    lin = linearize_at_solution(sol)  # the solution's own model, which the oracle takes
    lu = lin._lu = _CountingLU(lin._lu)
    assert oracle_outage(case118, 10, sol).converged
    assert lin._rows is None
    report = screen(case118, sol, lin)
    kept = lin._rows
    bridges = find_bridges(case118)
    outages = [k for k, br in enumerate(case118.branches) if br.closed and k not in bridges]
    assert set(kept[1]) == set(outages)
    lu.calls.clear()
    assert screen(case118, sol, lin) == report
    assert lu.columns == 2 * len(_terminal_buses(lin, case118, outages))
    assert lin._rows is not kept and set(lin._rows[1]) == set(outages)


def _tiling():
    """The benchmark's tiled-case builder, ``perfbench/tiling.py``."""
    spec = importlib.util.spec_from_file_location("tiling", Path(__file__).parents[1] / "perfbench" / "tiling.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_large_pass_keeps_no_responses():
    """The 944-bus tiled case has more terminal buses than ``_LIVE_BUSES``: its screen plans
    the shared slots, 49 of them, and keeps no rows."""
    tiling = _tiling()
    base = bundled_case("case118")
    case = tiling.tile_case(base, tiling.slack_generation(solve_ac_powerflow(base)), 8, 1)
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol)
    screen(case, sol, lin)
    assert case.n == 944 and lin._rows is None
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    assert len(_terminal_buses(lin, case, outages)) == 878
    order = np.concatenate([idx for idx, *_ in _transfer_chunks(lin, case, outages, sol.ybus)])
    _, n_slots = _slot_plan(lin, sol.ybus.from_idx[order], sol.ybus.to_idx[order])
    assert n_slots == 49


def test_pool_shuts_down_on_error_and_early_close(sol118, lin118, monkeypatch):
    """A failed solve in block 2, a failed monitor stage in block 2, or a
    consumer that stops after block 1 leaves no worker thread."""
    case = sol118.case
    outages = [idx for idx, br in enumerate(case.branches) if br.closed]
    ybus = sol118.ybus
    order = np.concatenate([idx for idx, *_ in _transfer_chunks(lin118, case, outages, ybus)])
    second = _slot_plan(lin118, ybus.from_idx[order], ybus.to_idx[order])[0][1][0]  # the buses block 2 solves
    assert second
    solve, monitors = sensitivity._bus_solve, sensitivity._monitors
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 2)
    before = threading.active_count()

    chunks = _transfer_chunks(lin118, case, outages, ybus)
    next(chunks)
    assert threading.active_count() > before  # the pool runs
    chunks.close()
    assert threading.active_count() == before

    def failing_solve(lin, buses):
        if buses == second:
            raise RuntimeError("solve failed")
        return solve(lin, buses)

    with monkeypatch.context() as m:
        m.setattr(sensitivity, "_bus_solve", failing_solve)
        for stage in (_transfer_chunks(lin118, case, outages, ybus), _impact_chunks(sol118, lin118, outages)):
            with pytest.raises(RuntimeError, match="solve failed") as failure:
                list(stage)
            assert threading.active_count() == before  # while the traceback holds the generators

    calls = []

    def failing_monitors(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("monitors failed")
        return monitors(*args)

    monkeypatch.setattr(sensitivity, "_monitors", failing_monitors)
    with pytest.raises(RuntimeError, match="monitors failed") as failure:
        list(_impact_chunks(sol118, lin118, outages))
    assert threading.active_count() == before
