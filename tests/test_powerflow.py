"""Newton solver, linear model extraction and branch quantity tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscreen.case_io import (
    Bus,
    BusKind,
    Generator,
    GridCase,
    _without_branch,
    build_ybus,
    bundled_case,
    scale_loading,
)
from gridscreen import powerflow
from gridscreen.errors import DivergenceError, PowerFlowError, SingularSystemError
from gridscreen.powerflow import (
    PowerFlowOptions,
    _CscPattern,
    _NewtonProblem,
    branch_power_flows,
    complex_to_state,
    expand_complex_matrix,
    linearize_at_solution,
    power_balance,
    solve_ac_powerflow,
    state_to_complex,
)
from gridscreen.sensitivity import evaluate_outage

import reference
from gridbuild import (
    NON_INTEGER_INDICES,
    parallel_pair,
    pv_case,
    radial_chain,
    random_meshed,
    ring5,
    triangle,
    two_bus,
    with_devices,
)

# solved IEEE 14-bus voltages as published with the case
CASE14_VMAG = [
    1.060, 1.045, 1.010, 1.018, 1.020, 1.070, 1.062,
    1.090, 1.056, 1.051, 1.057, 1.055, 1.050, 1.036,
]
CASE14_ANGLE_DEG = [
    0.00, -4.98, -12.72, -10.31, -8.77, -14.22, -13.36,
    -13.36, -14.94, -15.10, -14.79, -15.08, -15.16, -16.04,
]


def test_state_round_trip():
    """state_to_complex inverts complex_to_state, reads the first 2n entries of longer rows,
    and returns a fresh array: writing into it leaves the state as it was."""
    rng = np.random.default_rng(7)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = complex_to_state(v)
    assert np.array_equal(state_to_complex(state), v)
    rows = rng.normal(size=(3, 15))  # 12 voltage entries and 3 more per row
    got = state_to_complex(rows, 6)
    assert got.shape == (3, 6) and np.array_equal(got, rows[:, 0:12:2] + 1j * rows[:, 1:12:2])
    assert not np.shares_memory(got, rows) and not np.shares_memory(state_to_complex(state), state)


def test_expand_complex_matrix_reproduces_complex_product():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m[rng.random(size=(5, 5)) < 0.4] = 0.0
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    expanded = expand_complex_matrix(sp.csr_matrix(m))
    got = expanded @ complex_to_state(v)
    assert np.allclose(got, complex_to_state(m @ v), atol=1e-14)


def test_two_bus_matches_closed_form():
    p, x = 0.5, 0.1
    sol = solve_ac_powerflow(two_bus(p=p, x=x), PowerFlowOptions(tol=1e-13))
    v2 = sol.v_complex[1]
    expected = complex((1.0 + math.sqrt(1.0 - 4.0 * p * p * x * x)) / 2.0, -p * x)
    assert abs(v2 - expected) < 1e-10
    assert sol.v_complex[0] == pytest.approx(1.0 + 0.0j)


def test_constant_current_network_converges_in_one_iteration():
    for case in (ring5(), parallel_pair()):
        sol = solve_ac_powerflow(case)
        assert sol.iterations == 1
        assert sol.max_mismatch < 1e-12


def test_unloaded_network_converges_in_one_iteration():
    case = two_bus(p=0.0, q=0.0)
    sol = solve_ac_powerflow(case)
    assert sol.iterations == 1
    assert np.allclose(sol.v_complex, 1.0, atol=1e-14)


def test_case14_flat_start_convergence(sol14):
    assert sol14.iterations == 4
    assert sol14.max_mismatch < 1e-8


def test_case14_matches_published_solution(sol14):
    assert sol14.v_mag == pytest.approx(CASE14_VMAG, abs=1.5e-3)
    assert np.degrees(sol14.v_angle) == pytest.approx(CASE14_ANGLE_DEG, abs=2e-2)
    # published slack dispatch and total loss
    assert sol14.p_inj[0] == pytest.approx(2.3239, abs=2e-4)
    assert power_balance(sol14).p_series_loss == pytest.approx(0.13393, abs=2e-4)


def test_case118_flat_start_convergence(sol118):
    assert sol118.iterations <= 10
    assert sol118.max_mismatch < 1e-8


def test_residual_is_zero_at_reported_solution(sol14):
    f = reference.newton_residual(sol14, sol14.full_state)
    assert np.max(np.abs(f)) < 1e-8


def test_jacobian_matches_finite_differences(sol14, lin14):
    """Cross-validate the assembled Jacobian against an independent residual."""
    x_op = sol14.full_state
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(25):
        d = rng.normal(size=len(x_op))
        d /= np.linalg.norm(d)
        fd = reference.directional_derivative(
            lambda x: reference.newton_residual(sol14, x), x_op, d
        )
        jd = lin14.matrix @ d
        err = np.linalg.norm(jd - fd) / np.linalg.norm(fd)
        worst = max(worst, err)
    assert worst < 1e-6


def test_restart_from_solution_is_a_fixed_point(case14, sol14):
    opts = PowerFlowOptions(start="state", initial_state=sol14.state)
    again = solve_ac_powerflow(case14, opts)
    assert again.iterations == 1
    assert np.allclose(again.state, sol14.state, atol=1e-10)


def test_file_start_matches_flat_start(case14, sol14):
    sol = solve_ac_powerflow(case14, PowerFlowOptions(start="file"))
    assert np.allclose(sol.v_complex, sol14.v_complex, atol=1e-7)
    assert sol.iterations <= sol14.iterations


def test_unknown_start_mode_rejected(case14, monkeypatch):
    """An unknown start mode, and a state start without a state of length 2n, raise
    ``ValueError`` before the Y-bus is built."""
    monkeypatch.setattr(powerflow, "build_ybus", lambda case: pytest.fail("the solve started"))
    with pytest.raises(ValueError, match="unknown start mode 'warm'"):
        solve_ac_powerflow(case14, PowerFlowOptions(start="warm"))
    with pytest.raises(ValueError, match="initial_state"):
        solve_ac_powerflow(case14, PowerFlowOptions(start="state"))
    with pytest.raises(ValueError, match="initial_state"):
        solve_ac_powerflow(case14, PowerFlowOptions(start="state", initial_state=np.ones(2 * case14.n - 1)))


@pytest.mark.parametrize("max_iter", [-1, True, 2.5, "3"])
def test_iteration_budget_not_a_count_rejected(case14, monkeypatch, max_iter):
    """An iteration budget that is not a non-negative integer raises ``ValueError`` before
    the Y-bus is built; 0 stays allowed (see the next tests)."""
    monkeypatch.setattr(powerflow, "build_ybus", lambda case: pytest.fail("the solve started"))
    with pytest.raises(ValueError, match=f"max_iter must be a non-negative integer, got {max_iter!r}"):
        solve_ac_powerflow(case14, PowerFlowOptions(max_iter=max_iter))


def test_iteration_budget_exhaustion_raises(case14):
    with pytest.raises(PowerFlowError, match="did not converge"):
        solve_ac_powerflow(case14, PowerFlowOptions(max_iter=2))


def test_zero_iteration_budget_reports_starting_mismatch(case14):
    problem = _NewtonProblem(case14, build_ybus(case14))
    start = float(np.max(np.abs(problem.residual(problem.initial_state(PowerFlowOptions())))))
    with pytest.raises(PowerFlowError, match=f"within 0 iterations \\(final mismatch {start:.3e}\\)"):
        solve_ac_powerflow(case14, PowerFlowOptions(max_iter=0))


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_tolerance_not_finite_positive_rejected(case14, tol):
    with pytest.raises(ValueError, match=f"tol must be a finite positive number, got {tol}"):
        solve_ac_powerflow(case14, PowerFlowOptions(tol=tol))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the flat start can land on a low-voltage solution")
def test_flat_start_reaches_the_continuation_operating_point():
    """A flat start lands on the operating point that a 40-step warm continuation in the load
    scale reaches.  On this draw it converges, in 14 iterations, to a low-voltage solution
    (min |V| 0.191) instead of the continuation's (min |V| 0.960)."""
    base = with_devices(random_meshed(7, 80, 38, 2, 3, 1), np.random.default_rng(7))
    flat = solve_ac_powerflow(scale_loading(base, 0.2))
    state = None
    for step in range(1, 41):
        options = PowerFlowOptions() if state is None else PowerFlowOptions(start="state", initial_state=state)
        state = solve_ac_powerflow(scale_loading(base, 0.2 * step / 40), options).state
    assert np.max(np.abs(flat.state - state)) < 1e-6


def test_infeasible_loading_diverges():
    # far beyond the loadability limit of the corridor
    with pytest.raises(DivergenceError):
        solve_ac_powerflow(two_bus(p=30.0, x=0.1))


def test_isolated_bus_gives_singular_system():
    case = triangle()
    case = GridCase(
        case.name,
        case.base_mva,
        case.buses + (Bus(4, BusKind.PQ),),
        case.branches,
        case.generators,
    )
    with pytest.raises(SingularSystemError):
        solve_ac_powerflow(case)


def test_pv_bus_holds_setpoint_without_limits():
    sol = solve_ac_powerflow(pv_case())
    assert sol.v_mag[1] == pytest.approx(1.02, abs=1e-9)
    assert sol.q_limited == {}  # the PV bus stays PV


def test_q_limit_upper_bound_enforced():
    case = pv_case(q_max=0.05)
    free = solve_ac_powerflow(case)
    assert free.q_gen[1] > 0.05  # the limit actually binds

    sol = solve_ac_powerflow(case, PowerFlowOptions(enforce_q_limits=True))
    assert sol.q_limited == {1: pytest.approx(0.05)}  # the PV bus became PQ at its limit
    assert sol.q_gen[1] == pytest.approx(0.05, abs=1e-9)
    # a binding upper limit means the setpoint can no longer be held up
    assert sol.v_mag[1] < 1.02
    assert sol.iterations > free.iterations
    assert sol.max_mismatch < 1e-8


def test_q_limit_lower_bound_enforced():
    case = pv_case(q_max=5.0, p_load=0.0, q_load=-0.8, v_set=0.97)
    free = solve_ac_powerflow(case)
    assert free.q_gen[1] < -0.1  # absorbing below the floor

    sol = solve_ac_powerflow(case, PowerFlowOptions(enforce_q_limits=True))
    assert sol.q_limited == {1: pytest.approx(-0.1)}
    assert sol.q_gen[1] == pytest.approx(-0.1, abs=1e-9)
    # a binding lower limit leaves the bus above its setpoint
    assert sol.v_mag[1] > 0.97


def test_q_limits_off_by_default():
    sol = solve_ac_powerflow(pv_case(q_max=0.05))
    assert sol.q_limited == {}
    assert sol.v_mag[1] == pytest.approx(1.02, abs=1e-9)


def test_slack_q_recovered(sol14):
    # the slack generator covers the reactive mismatch at its bus
    k = sol14.case.slack_index()
    bus = sol14.case.buses[k]
    assert sol14.q_gen[k] == pytest.approx(sol14.q_inj[k] + bus.q_load, abs=1e-9)


def test_power_balance_closes(sol14, sol118):
    for sol in (sol14, sol118):
        bal = power_balance(sol)
        assert abs(bal.residual) < 1e-8
        assert bal.p_generation > bal.p_load > 0


def test_power_balance_includes_conductive_shunt():
    case = two_bus(p=0.2)
    case.buses[1].g_shunt = 0.05
    sol = solve_ac_powerflow(case)
    bal = power_balance(sol)
    assert bal.p_shunt_loss == pytest.approx(0.05 * sol.v_mag[1] ** 2, abs=1e-12)
    assert abs(bal.residual) < 1e-10


def test_power_balance_includes_current_loads():
    sol = solve_ac_powerflow(ring5())
    bal = power_balance(sol)
    v = sol.v_complex
    expected = sum(
        (v[k] * complex(b.i_load_r, b.i_load_i).conjugate()).real
        for k, b in enumerate(sol.case.buses)
    )
    assert bal.p_load == pytest.approx(expected, abs=1e-12)
    assert abs(bal.residual) < 1e-10


def test_branch_terminal_currents_match_reference(sol14, lin14):
    """The pre-outage terminal currents of a query are the scalar reference's."""
    v = sol14.v_complex
    for idx in (0, 7, 14):
        got = evaluate_outage(sol14, lin14, idx).i_pre
        assert got == pytest.approx(reference.terminal_currents(sol14.case, v, idx), abs=1e-12)


def test_branch_terminal_currents_rejects_bad_branches(case14):
    sol = solve_ac_powerflow(case14.with_branch_open(5))
    lin = linearize_at_solution(sol)
    with pytest.raises(ValueError, match="open"):
        evaluate_outage(sol, lin, 5)
    with pytest.raises(ValueError, match="range"):
        evaluate_outage(sol, lin, 99)
    for k in NON_INTEGER_INDICES:
        with pytest.raises(TypeError, match="is not an integer"):
            evaluate_outage(sol, lin, k)


def test_branch_power_flows_match_reference(sol14):
    flows = branch_power_flows(sol14)
    v = sol14.v_complex
    for idx in range(sol14.case.n_branch):
        assert flows.p_from[idx] == pytest.approx(
            reference.from_side_power(sol14.case, v, idx), abs=1e-12
        )
    # flow conservation: from-side plus to-side power is the branch loss >= 0
    loss = flows.p_from + flows.p_to
    assert np.all(loss > -1e-12)


def test_branch_power_flows_zero_for_open_branch(case14):
    sol = solve_ac_powerflow(case14.with_branch_open(5))
    flows = branch_power_flows(sol)
    assert flows.p_from[5] == 0.0 and flows.q_to[5] == 0.0


def test_linearize_full_reproduces_operating_point(sol14, lin14):
    assert lin14.size == 2 * sol14.n + len(sol14._problem.pv)
    assert np.allclose(lin14.solve(lin14.matrix @ lin14.x_op), sol14.full_state, atol=1e-9)
    assert np.allclose(state_to_complex(lin14.x_op, sol14.n), sol14.v_complex, atol=0)


def test_linearize_network_mode_shape_and_pins(sol14, lin14_network):
    lin = lin14_network
    assert lin.size == 2 * sol14.n
    assert np.allclose(lin.solve(lin.matrix @ lin.x_op), sol14.state, atol=1e-9)
    s = lin.slack
    pin_rows = lin.matrix[[2 * s, 2 * s + 1], :].toarray()
    expected = np.zeros((2, lin.size))
    expected[0, 2 * s] = 1.0
    expected[1, 2 * s + 1] = 1.0
    assert np.array_equal(pin_rows, expected)


def test_linearize_rejects_unknown_mode(sol14):
    with pytest.raises(ValueError, match="mode"):
        linearize_at_solution(sol14, mode="dc")


def test_full_model_is_the_solutions_own(sol14, lin14):
    """Full mode factorizes once per solution; network mode builds a new model per call."""
    assert linearize_at_solution(sol14) is linearize_at_solution(sol14) is lin14
    assert linearize_at_solution(sol14, "network") is not linearize_at_solution(sol14, "network")


def test_singular_full_model_is_not_cached(monkeypatch, case14):
    """A singular factorization raises on every call; the first that succeeds is kept."""
    sol = solve_ac_powerflow(case14)
    calls = []

    def singular(matrix):
        calls.append(matrix.shape)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(powerflow, "splu", singular)
    for _ in range(2):
        with pytest.raises(SingularSystemError):
            linearize_at_solution(sol)
    assert len(calls) == 2
    monkeypatch.undo()
    lin = linearize_at_solution(sol)
    assert lin is linearize_at_solution(sol)
    assert np.array_equal(lin.matrix.toarray(), sol._problem.jacobian(sol.full_state).toarray())


def test_radial_chain_voltage_drop_monotone():
    sol = solve_ac_powerflow(radial_chain(n=5, p=0.1))
    vmag = sol.v_mag
    assert np.all(np.diff(vmag) < 0)


# -- the fixed-pattern Jacobian ----------------------------------------------------


def _bits(matrix: sp.csc_matrix) -> tuple[bytes, bytes, bytes]:
    return (
        matrix.indptr.astype(np.int64).tobytes(),
        matrix.indices.astype(np.int64).tobytes(),
        matrix.data.tobytes(),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(1, 16),
    n_chords=st.integers(0, 6),
    n_parallel=st.integers(0, 3),
    n_spurs=st.integers(0, 6),
    n_open=st.integers(0, 2),
    pin_share=st.sampled_from([0.0, 0.5]),
)
def test_fixed_pattern_jacobian_equals_coo_assembly(
    seed, n_core, n_chords, n_parallel, n_spurs, n_open, pin_share
):
    """The scatter into the precomputed pattern equals ``coo_matrix(...).tocsc()`` bit for bit.

    Random networks carry parallel circuits, off-nominal taps and open
    branches (explicit zeros in the admittance matrix); some PV buses are
    pinned at a reactive injection; states are perturbed away from flat.
    The layout reused over a post-outage admittance matrix is checked too.
    """
    rng = np.random.default_rng(seed)
    case = with_devices(random_meshed(seed, n_core, n_chords, n_parallel, n_spurs, n_open), rng)
    ybus = build_ybus(case)
    pv = [k for k, bus in enumerate(case.buses) if bus.kind == BusKind.PV]
    q_pinned = {k: float(rng.uniform(-0.2, 0.2)) for k in pv if rng.random() < pin_share}
    problem = _NewtonProblem(case, ybus, q_pinned)
    closed = [k for k, br in enumerate(case.branches) if br.closed]
    problems = [problem]
    if closed:
        problems.append(problem.with_ybus(_without_branch(ybus, closed[int(rng.integers(len(closed)))])))
    rows, cols = problem._entry_positions()
    for p in problems:
        for _ in range(2):
            x = p.initial_state(PowerFlowOptions())
            x[: 2 * case.n] += rng.normal(scale=0.05, size=2 * case.n)
            x[2 * case.n :] += rng.normal(scale=0.1, size=len(p.pv))
            expected = sp.coo_matrix((p._entries(x), (rows, cols)), shape=(p.size, p.size)).tocsc()
            assert _bits(p.jacobian(x)) == _bits(expected)


def test_fixed_pattern_rejects_three_entries_at_one_position():
    with pytest.raises(ValueError, match="more than two"):
        _CscPattern(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64), 1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(1, 16),
    n_chords=st.integers(0, 6),
    n_parallel=st.integers(0, 3),
    n_spurs=st.integers(0, 6),
    n_open=st.integers(0, 2),
    pin_share=st.sampled_from([0.0, 0.5]),
)
def test_stacked_residual_rows_equal_single_residuals(seed, n_core, n_chords, n_parallel, n_spurs, n_open, pin_share):
    """Each row of a stacked residual is the residual of that state alone, bit for bit.

    One row collapses a bus voltage to zero: it reads NaN in the stack, and
    alone it raises :class:`DivergenceError`.
    """
    rng = np.random.default_rng(seed)
    case = with_devices(random_meshed(seed, n_core, n_chords, n_parallel, n_spurs, n_open), rng)
    pv = [k for k, bus in enumerate(case.buses) if bus.kind == BusKind.PV]
    q_pinned = {k: float(rng.uniform(-0.2, 0.2)) for k in pv if rng.random() < pin_share}
    problem = _NewtonProblem(case, build_ybus(case), q_pinned)
    x = np.tile(problem.initial_state(PowerFlowOptions()), (4, 1))
    x[:, : 2 * case.n] += rng.normal(scale=0.05, size=(4, 2 * case.n))
    x[:, 2 * case.n :] += rng.normal(scale=0.1, size=(4, len(problem.pv)))
    bus = int(rng.integers(case.n))
    x[2, 2 * bus : 2 * bus + 2] = 0.0
    stacked = problem.residual(x)
    assert stacked.shape == x.shape
    for i in (0, 1, 3):
        assert stacked[i].tobytes() == problem.residual(x[i]).tobytes()
    assert np.isnan(stacked[2]).all()
    with pytest.raises(DivergenceError, match="collapsed"):
        problem.residual(x[2])


# -- the Newton set-up built from arrays, and one column order per pattern ---------


def _limited(case: GridCase, rng: np.random.Generator) -> GridCase:
    """``case`` with finite reactive limits on every generator and a second unit at some of them."""
    gens = []
    for g in case.generators:
        gens.append(replace(g, q_min=-float(rng.uniform(0.0, 0.3)), q_max=float(rng.uniform(0.0, 0.3))))
        if rng.random() < 0.3:
            gens.append(Generator(g.bus, p_set=float(rng.uniform(0.0, 0.1)), v_set=g.v_set, q_min=-0.05, q_max=0.05))
    return replace(case, generators=tuple(gens))


def _draw(seed: int, n_core: int, n_chords: int, n_spurs: int, limited: bool, ties: bool = False) -> GridCase:
    """A random network with devices; with ``ties`` its Jacobian columns hold entries of equal
    magnitude: half the load buses carry no load, and most lines have no charging, some with
    r > x."""
    rng = np.random.default_rng(seed)
    case = with_devices(random_meshed(seed, n_core, n_chords, 1, n_spurs, 1), rng)
    if ties:
        buses = [replace(b, p_load=0.0, q_load=0.0) if b.kind == BusKind.PQ and rng.random() < 0.5 else b for b in case.buses]
        branches = [
            replace(br, b_charging=0.0, r=1.5 * br.x if rng.random() < 0.3 else br.r) if rng.random() < 0.6 else br
            for br in case.branches
        ]
        case = replace(case, buses=tuple(buses), branches=tuple(branches))
    return _limited(case, rng) if limited else case


def _layout_bits(problem: _NewtonProblem) -> dict[str, tuple[str, bytes]]:
    names = ("pv", "pv_vset", "pv_qmin", "pv_qmax", "p_fix", "q_fix", "i_fix")
    bits = {name: (getattr(problem, name).dtype.str, getattr(problem, name).tobytes()) for name in names}
    bits["slack_v"] = ("<c16", np.array([problem.slack_v]).tobytes())
    return bits


@pytest.mark.parametrize("name", ["case14", "case118"])
def test_newton_layout_equals_per_record_reference_on_bundled_cases(name):
    case = bundled_case(name)
    for q_pinned in ({}, {int(k): 0.1 * (-1) ** int(k) for k in _NewtonProblem(case, build_ybus(case)).pv[::3]}):
        problem = _NewtonProblem(case, build_ybus(case), q_pinned)
        expected = {k: (v.dtype.str, v.tobytes()) for k, v in reference.newton_layout(case, q_pinned).items()}
        assert _layout_bits(problem) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(1, 16),
    n_spurs=st.integers(0, 5),
    limited=st.booleans(),
    pin_share=st.sampled_from([0.0, 0.5]),
)
def test_newton_layout_equals_per_record_reference(seed, n_core, n_spurs, limited, pin_share):
    """The array-built bus roles, setpoints, summed limits and constant injections of a
    Newton system equal a record-by-record build bit for bit, with pinned PV buses and
    several generators at one bus."""
    case = _draw(seed, n_core, 3, n_spurs, limited)
    rng = np.random.default_rng(seed + 1)
    pv = [k for k, bus in enumerate(case.buses) if bus.kind == BusKind.PV]
    q_pinned = {k: float(rng.uniform(-0.2, 0.2)) for k in pv if rng.random() < pin_share}
    problem = _NewtonProblem(case, build_ybus(case), q_pinned)
    expected = {k: (v.dtype.str, v.tobytes()) for k, v in reference.newton_layout(case, q_pinned).items()}
    assert _layout_bits(problem) == expected


def _factor_bits(lu) -> list[bytes]:
    return [lu.perm_r.tobytes()] + [m.tocsc().data.tobytes() + m.tocsc().indices.tobytes() for m in (lu.L, lu.U)]


@pytest.mark.parametrize("ties", [False, True], ids=["case118", "ties"])
def test_reused_column_order_gives_the_factors_of_a_fresh_splu(monkeypatch, ties):
    """After the first factorization of a pattern, SuperLU orders nothing: each later iterate,
    and a layout over another admittance matrix of that pattern, factorizes ``P J P^T`` in the
    stored order under NATURAL, to the pivots, factors and steps of a fresh ``splu(J)``, also
    where a column's largest magnitude is held by two entries."""
    specs = []

    def spy(matrix, permc_spec=None):
        specs.append(permc_spec)
        return splu(matrix) if permc_spec is None else splu(matrix, permc_spec=permc_spec)

    case = _draw(4, 20, 4, 8, False, ties=True) if ties else bundled_case("case118")
    ybus = build_ybus(case)
    problem = _NewtonProblem(case, ybus)
    outage = problem.with_ybus(_without_branch(ybus, next(k for k, br in enumerate(case.branches) if br.closed)))
    assert outage._pattern is problem._pattern
    monkeypatch.setattr(powerflow, "splu", spy)
    x = problem.initial_state(PowerFlowOptions())
    for p in (problem, problem, outage, problem, outage):
        lu = p.factorize(x)
        jacobian = p.jacobian(x)
        fresh = splu(jacobian)
        f = p.residual(x)
        assert lu.solve(-f).tobytes() == fresh.solve(-f).tobytes()
        if specs[-1] == "NATURAL":
            perm_c, ordered = p._pattern._ordered
            assert perm_c.tobytes() == fresh.perm_c.tobytes()
            assert perm_c.base is None  # a view of the first factors' perm_c would keep them alive
            order = np.argsort(perm_c)
            assert np.array_equal(ordered.matrix(p._entries(x)).toarray(), jacobian.toarray()[np.ix_(order, order)])
            assert _factor_bits(lu._lu)[1:] == _factor_bits(fresh)[1:]
            assert lu._lu.perm_r[perm_c].tobytes() == fresh.perm_r.tobytes()
        x = x + fresh.solve(-f)
    assert specs == [None] + ["NATURAL"] * 4


def _solve_outcome(case: GridCase, options: PowerFlowOptions):
    try:
        sol = solve_ac_powerflow(case, options)
    except PowerFlowError as exc:
        return type(exc).__name__, str(exc)
    return (
        sol.state.tobytes(),
        sol.q_gen.tobytes(),
        sol.iterations,
        sol.max_mismatch,
        sorted(sol.q_limited.items()),
        sol._problem.pv.tobytes(),
    )


def _fresh_splu_outcome(case: GridCase, options: PowerFlowOptions):
    """The solve with a plain ``splu`` of the Jacobian at every Newton iterate."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_NewtonProblem, "factorize", lambda self, x: splu(self.jacobian(x)))
        return _solve_outcome(case, options)


@pytest.mark.parametrize("name", ["case14", "case118"])
@pytest.mark.parametrize("q_limits", [False, True])
def test_solve_equals_newton_with_fresh_splu_on_bundled_cases(name, q_limits):
    options = PowerFlowOptions(enforce_q_limits=q_limits)
    case = bundled_case(name)
    assert _solve_outcome(case, options) == _fresh_splu_outcome(case, options)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(2, 40),
    n_chords=st.integers(0, 12),
    n_spurs=st.integers(0, 8),
    limited=st.booleans(),
    ties=st.booleans(),
    start=st.sampled_from(["flat", "file"]),
)
def test_solve_equals_newton_with_fresh_splu(seed, n_core, n_chords, n_spurs, limited, ties, start):
    """States, reactive outputs, bus kinds, pins and iteration counts equal those of a Newton
    that lets SuperLU order every iterate afresh, bit for bit, with and without reactive
    limits, and on networks whose Jacobian columns tie for their largest entry; a draw that
    fails, fails with the same error."""
    case = _draw(seed, n_core, n_chords, n_spurs, limited, ties)
    options = PowerFlowOptions(start=start, enforce_q_limits=limited)
    assert _solve_outcome(case, options) == _fresh_splu_outcome(case, options)
