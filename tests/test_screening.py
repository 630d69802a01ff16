"""Connectivity analysis, nonlinear oracle and end-to-end screening tests."""

import math
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from gridscreen.case_io import Branch, Bus, BusKind, GridCase, build_ybus, scale_loading
from gridscreen.errors import PowerFlowError, SingularSystemError
from gridscreen.powerflow import (
    LinearizedSystem,
    PowerFlowOptions,
    _NewtonProblem,
    branch_power_flows,
    linearize_at_solution,
    solve_ac_powerflow,
    state_to_complex,
)
from gridscreen.screening import (
    OracleOutcome,
    _ChordBlock,
    _Oracle,
    compare_severities,
    find_bridges,
    is_connected,
    oracle_outage,
    screen,
)
from gridscreen import powerflow, screening, sensitivity
from gridscreen.sensitivity import _CHUNK, SEVERITY_METRICS, _transfer_chunks, evaluate_outage, severity_from_deltas

from gridbuild import (
    NON_INTEGER_INDICES,
    RING5_BRIDGE,
    overload_pair,
    parallel_pair,
    radial_chain,
    random_meshed,
    ring5,
    triangle,
    with_devices,
)


def double_circuit_spur() -> GridCase:
    """Two parallel circuits feeding a bus that feeds a spur."""
    return GridCase(
        "double_spur",
        100.0,
        (
            Bus(1, BusKind.SLACK),
            Bus(2, BusKind.PQ, p_load=0.3, q_load=0.1),
            Bus(3, BusKind.PQ, p_load=0.2),
        ),
        (
            Branch(1, 2, 0.01, 0.05),
            Branch(1, 2, 0.01, 0.05),
            Branch(2, 3, 0.02, 0.08),
        ),
        (),
    )


def test_find_bridges_handles_parallel_circuits():
    assert find_bridges(double_circuit_spur()) == {2}
    assert find_bridges(parallel_pair()) == set()
    assert find_bridges(radial_chain(n=4)) == {0, 1, 2}
    assert find_bridges(triangle()) == set()


def test_find_bridges_case14(case14):
    assert find_bridges(case14) == {13}


def test_is_connected_with_skips(case14):
    assert is_connected(case14)
    assert not is_connected(case14, skip_branch=13)
    assert is_connected(case14, skip_branch=2)
    assert not is_connected(case14.with_branch_open(13))


def test_is_connected_rejects_a_skip_branch_that_indexes_no_branch(case14):
    for k in (-1, case14.n_branch, 99):
        with pytest.raises(ValueError, match=f"branch index {k} out of range"):
            is_connected(case14, skip_branch=k)
    for k in NON_INTEGER_INDICES:
        with pytest.raises(TypeError, match=f"branch index {re.escape(repr(k))} is not an integer"):
            is_connected(case14, skip_branch=k)
    assert not is_connected(case14, skip_branch=np.int64(13))


def test_oracle_flags_islanding_outage():
    case = ring5()
    base = solve_ac_powerflow(case)
    out = oracle_outage(case, RING5_BRIDGE, base)
    assert out.islanded and not out.converged
    assert "islands" in out.detail
    assert out.delta_vmag is None


def test_oracle_rejects_open_branch(case14, sol14):
    with pytest.raises(ValueError, match="open"):
        oracle_outage(case14.with_branch_open(2), 2, sol14)


def test_oracle_deltas_are_post_minus_pre(case14, sol14):
    out = oracle_outage(case14, 4, sol14)
    assert out.converged and not out.islanded
    post = solve_ac_powerflow(case14.with_branch_open(4))
    assert np.allclose(out.delta_vmag, post.v_mag - sol14.v_mag, atol=1e-9)
    flows = branch_power_flows(post).p_from - branch_power_flows(sol14).p_from
    assert np.allclose(out.delta_p, flows, atol=1e-9)
    # the outaged branch loses exactly its own flow
    assert out.delta_p[4] == pytest.approx(-branch_power_flows(sol14).p_from[4], abs=1e-9)


def test_oracle_gap_is_second_order_on_linear_network():
    """With constant-current devices the predicted state change is exact, so
    the only gap to the oracle is the curvature of the monitored maps: the
    |V| error obeys the Taylor remainder bound and the line power error is
    exactly the quadratic cross term of the product rule."""
    case = ring5()
    sol = solve_ac_powerflow(case)
    lin = linearize_at_solution(sol)
    v = sol.v_complex
    yb = sol.ybus
    for outage in range(case.n_branch):
        if outage == RING5_BRIDGE:
            continue
        impact = evaluate_outage(sol, lin, outage)
        out = oracle_outage(case, outage, sol)
        assert out.converged

        dvc = state_to_complex(impact.delta_state)
        bound = 2.0 * np.abs(dvc) ** 2 / np.abs(v) + 1e-12
        assert np.all(np.abs(impact.delta_vmag - out.delta_vmag) <= bound)

        di = yb.yff * dvc[yb.from_idx] + yb.yft * dvc[yb.to_idx]
        cross = (dvc[yb.from_idx] * np.conj(di)).real
        cross[outage] = -(dvc[yb.from_idx[outage]] * np.conj(
            yb.yff[outage] * v[yb.from_idx[outage]] + yb.yft[outage] * v[yb.to_idx[outage]]
        )).real
        assert np.allclose(out.delta_p - impact.delta_p, cross, atol=1e-10)


def test_oracle_reports_nonconvergence_as_outcome():
    case = overload_pair(p=8.0)
    base = solve_ac_powerflow(case)
    out = oracle_outage(case, 0, base)
    assert not out.converged and not out.islanded
    assert out.detail != ""


def test_screen_ranks_islanding_first():
    report = screen(ring5(), top_k=3)
    assert report.case_name == "ring5"
    first = report.entries[0]
    assert first.branch == RING5_BRIDGE
    assert math.isinf(first.severity) and first.islanding
    assert first.note == "islands the network"
    assert [e.rank for e in report.entries] == [1, 2, 3, 4, 5]
    finite = [e.severity for e in report.entries[1:]]
    assert finite == sorted(finite, reverse=True)
    assert len(report.top()) == 3


def test_screen_singular_non_bridge_is_not_islanding(monkeypatch, case14, sol14):
    """A non-bridge outage with a singular transfer matrix ranks at +inf but does not claim islanding."""
    monkeypatch.setattr(sensitivity, "COND_LIMIT", 1.0)  # every transfer matrix reads singular
    bridges = find_bridges(case14)
    report = screen(case14, sol14)
    assert len(report.entries) == 20 and len(bridges) == 1
    for e in report.entries:
        assert math.isinf(e.severity)
        assert e.islanding == (e.branch in bridges)
        assert e.note == ("islands the network" if e.branch in bridges else "singular transfer matrix")


def test_screen_zero_voltage_raises_before_any_solve(monkeypatch, case118, sol118):
    """|V| is not differentiable at a zero-voltage bus; the screen fails before it solves or starts a pool.

    A screen under a branch metric ranks the outages but keeps no rows, and
    warns nothing; a query of that solution raises."""
    state = sol118.state.copy()
    state[6:8] = 0.0  # bus 4 at zero voltage
    sol = replace(sol118, state=state)
    # a model of that state, which keeps no terminal responses, so a pass on it solves
    lin = linearize_at_solution(sol, "network")
    calls = []
    solve = LinearizedSystem.solve
    monkeypatch.setattr(LinearizedSystem, "solve", lambda lin, rhs: calls.append(rhs) or solve(lin, rhs))
    monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(ValueError, match="voltage magnitude is zero"):
        screen(case118, sol, lin, metric="vmag_inf")
    assert not calls
    assert threading.active_count() == before
    screen(case118, sol, lin, metric="imag_inf")  # |V| is not monitored
    assert calls
    # a pass that keeps its rows monitors |V| too, so this one keeps none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        screen(case118, sol, lin, metric="pline_inf")
    assert lin._rows is None
    with pytest.raises(ValueError, match="voltage magnitude is zero"):
        evaluate_outage(sol, lin, 10)


def test_screen_skips_open_branches(case14):
    report = screen(case14.with_branch_open(2))
    assert len(report.entries) == case14.n_branch - 1
    assert all(e.branch != 2 for e in report.entries)


def test_screen_rejects_unknown_metric(case14):
    with pytest.raises(ValueError, match="metric"):
        screen(case14, metric="worst_case")


@pytest.mark.parametrize("top_k", [0, -2])
def test_screen_rejects_top_k_below_one(case14, sol14, top_k):
    with pytest.raises(ValueError, match="top_k must be at least 1"):
        screen(case14, sol14, top_k=top_k)


@pytest.mark.parametrize("top_k", [True, 2.5, "3"])
def test_screen_rejects_top_k_that_is_not_an_integer(monkeypatch, case14, sol14, top_k):
    monkeypatch.setattr(screening, "_transfer_chunks", _no_engine_pass)
    with pytest.raises(TypeError, match="top_k must be an integer"):
        screen(case14, sol14, top_k=top_k)


def test_screen_rejects_a_solution_of_another_case(case14, sol14):
    """The base-loading solution would rank branch 11 fifth for the 1.3x case, whose own screen ranks 10."""
    loaded = scale_loading(case14, 1.3)
    assert [e.branch for e in screen(loaded).top()] == [13, 12, 16, 14, 10]
    for case in (loaded, case14.with_branch_open(2)):
        with pytest.raises(ValueError, match="not a solution of this case"):
            screen(case, sol14)
    assert screen(replace(case14), sol14).entries == screen(case14, sol14).entries  # an equal case


def test_screen_rejects_a_model_of_another_solution(case14, sol14):
    loaded = linearize_at_solution(solve_ac_powerflow(scale_loading(case14, 1.3)))
    early = solve_ac_powerflow(case14, PowerFlowOptions(tol=1e-3))  # the same case, another state
    for lin in (loaded, linearize_at_solution(early, "network")):
        with pytest.raises(ValueError, match="linear model is not taken at this solution"):
            screen(case14, sol14, lin)
    assert screen(case14, early, linearize_at_solution(early, "network")).entries


def test_oracle_rejects_a_solution_of_another_case(case14, sol14):
    """From the base-loading solution, the 1.3x case's outage 3 would converge to max |dV| 0.0106, not 0.0146."""
    loaded = scale_loading(case14, 1.3)
    own = oracle_outage(loaded, 3, solve_ac_powerflow(loaded))
    assert np.max(np.abs(own.delta_vmag)) == pytest.approx(0.0146, abs=1e-4)
    with pytest.raises(ValueError, match="not a solution of this case"):
        oracle_outage(loaded, 3, sol14)


def test_screen_accepts_prebuilt_solution(case14, sol14, lin14):
    a = screen(case14, sol14, lin14)
    b = screen(case14)
    assert [e.branch for e in a.entries] == [e.branch for e in b.entries]
    assert [e.severity for e in a.entries] == pytest.approx([e.severity for e in b.entries])


@pytest.mark.parametrize("metric", ["vmag_inf", "vmag_2", "imag_inf", "pline_inf"])
def test_screen_metric_variants(case14, sol14, metric):
    report = screen(case14, sol14, metric=metric)
    assert report.metric == metric
    finite = [e for e in report.entries if not e.islanding]
    assert all(np.isfinite(e.severity) and e.severity > 0 for e in finite)
    assert sum(e.islanding for e in report.entries) == 1


def test_screen_lightly_loaded_linear_network_ranks_perfectly():
    from gridscreen.case_io import scale_loading

    report = screen(scale_loading(ring5(), 0.1), with_oracle=True)
    comp = report.comparison
    assert comp.n_compared == 4
    assert comp.spearman == pytest.approx(1.0)
    assert comp.top_overlap[3] == 3
    assert comp.max_abs_error < 5e-4
    bridge_entry = report.entries[0]
    assert bridge_entry.oracle_islanded and math.isinf(bridge_entry.oracle_severity)


def test_screen_case14_oracle_fidelity(case14, sol14, lin14):
    report = screen(case14, sol14, lin14, with_oracle=True)
    comp = report.comparison
    assert comp.n_compared == 19
    assert not comp.insufficient
    assert comp.spearman == pytest.approx(0.8947, abs=1e-3)
    assert comp.top_overlap[5] >= 3
    assert comp.max_abs_error < 0.05


def test_screen_nonconverged_oracle_excluded_from_comparison():
    case = overload_pair(p=8.0)
    report = screen(case, with_oracle=True)
    entry = next(e for e in report.entries if not e.oracle_converged)
    assert entry.oracle_severity is None
    assert report.comparison.insufficient
    assert report.comparison.n_compared < 3
    # both circuits are non-bridges and neither carries the load alone
    assert report.comparison.n_diverged == 2


def test_compare_severities_identical_maps():
    values = {0: 0.5, 1: 0.4, 2: 0.1, 3: 0.9}
    comp = compare_severities(values, dict(values))
    assert comp.spearman == pytest.approx(1.0)
    assert comp.top_overlap == {3: 3, 5: 4, 10: 4}
    assert comp.max_abs_error == 0.0
    assert not comp.insufficient


def test_compare_severities_reversed_ranking():
    pred = {k: float(k) for k in range(6)}
    ref = {k: float(-k) for k in range(6)}
    comp = compare_severities(pred, ref)
    assert comp.spearman == pytest.approx(-1.0)


def test_compare_severities_drops_nonfinite_and_disjoint():
    pred = {0: 1.0, 1: float("inf"), 2: 0.5, 5: 0.1}
    ref = {0: 0.9, 1: 1.0, 2: 0.4, 7: 2.0}
    comp = compare_severities(pred, ref)
    assert comp.n_compared == 2
    assert comp.insufficient
    assert comp.spearman is None and comp.max_abs_error is None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    pairs=st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=3, max_size=300),
    decimals=st.sampled_from([None, 1, 0]),
    reference=st.sampled_from(["drawn", "reversed", "negated", "cubed"]),
)
def test_compare_severities_spearman_is_scipys_bit_for_bit(pairs, decimals, reference):
    """Spearman's rho is ``scipy.stats.spearmanr``'s, bit for bit, ties (rounded draws) included.

    The reference is drawn, the predictions in reverse order, their negation
    (a reversed ranking) or their cube (the same ranking).  Where a sample is
    constant scipy reads NaN, and the comparison None.
    """
    pred = np.array([p for p, _ in pairs])
    ref = np.array([r for _, r in pairs])
    if decimals is not None:
        pred, ref = np.round(pred, decimals), np.round(ref, decimals)
    ref = {"drawn": ref, "reversed": pred[::-1], "negated": -pred, "cubed": pred**3}[reference]
    comp = compare_severities(dict(enumerate(pred.tolist())), dict(enumerate(ref.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns of a constant sample
        expected = spearmanr(pred, ref).correlation
    if comp.spearman is None:
        assert np.isnan(expected)
    else:
        assert np.float64(comp.spearman).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize(
    "pred, ref",
    [([1.0, 1.0, 1.0], [0.1, 0.2, 0.3]), ([0.1, 0.2, 0.3, 0.4], [2.0] * 4), ([0.0, -0.0, 0.0], [5.0, 5.0, 5.0])],
)
def test_compare_severities_constant_sample_has_no_spearman(pred, ref):
    """A constant sample gives no Spearman's rho, and no warning; the other fields stand."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = compare_severities(dict(enumerate(pred)), dict(enumerate(ref)))
    assert comp.spearman is None
    assert not comp.insufficient and comp.n_compared == len(pred)
    assert comp.max_abs_error == max(abs(p - r) for p, r in zip(pred, ref))


def _assert_screen_equals_evaluate_outage(case, sol, mode):
    lin = linearize_at_solution(sol, mode)
    closed = np.array([br.closed for br in case.branches])
    bridges = find_bridges(case)
    impacts = {
        idx: evaluate_outage(sol, lin, idx)
        for idx in np.flatnonzero(closed)
        if idx not in bridges
    }
    for metric in SEVERITY_METRICS:
        report = screen(case, sol, lin, metric=metric)
        finite = [e for e in report.entries if not e.islanding]
        assert len(finite) == len(impacts)
        for e in finite:
            impact = impacts[e.branch]
            expected = severity_from_deltas(
                metric, impact.delta_vmag, impact.delta_imag, impact.delta_p, e.branch, closed
            )
            assert e.severity == expected, (metric, e.branch)


@pytest.mark.parametrize("mode", ["full", "network"])
def test_screen_equals_evaluate_outage_case118(case118, sol118, mode):
    """Blocked screen severities are exactly the single-outage ones, across block boundaries."""
    non_bridges = [
        idx for idx, br in enumerate(case118.branches) if br.closed and idx not in find_bridges(case118)
    ]
    assert len(non_bridges) > _CHUNK
    _assert_screen_equals_evaluate_outage(case118, sol118, mode)


@pytest.mark.parametrize("mode", ["full", "network"])
def test_screen_equals_evaluate_outage_with_open_branches(case14, mode):
    # branches 0 and 1 leave the slack bus; branch 2 is open
    case = case14.with_branch_open(2)
    _assert_screen_equals_evaluate_outage(case, solve_ac_powerflow(case), mode)


# -- the oracle against a fresh re-solve --------------------------------------------


def _open_and_double_circuit(case14: GridCase) -> GridCase:
    """case14 with branch 2 open and a second circuit beside branch 5."""
    branches = case14.with_branch_open(2).branches + (case14.branches[5],)
    return GridCase("case14_open_double", case14.base_mva, case14.buses, branches, case14.generators)


def _assert_oracle_equals_fresh_resolve(case, sol):
    """The oracle agrees with a fresh full Newton re-solve of every non-bridge outage.

    The post-outage admittance matrix of the Newton path is bitwise the
    fresh one.  The converged and islanded flags are equal, and so is the
    failure detail of a diverged outage.  A converged state lies within
    ``10 tol`` of the fresh solve's, its residual under a fresh post-outage
    Newton system with the same reactive pins is at most ``tol``, and the
    outcome's deltas are those of that state.
    """
    bridges = find_bridges(case)
    oracle = _Oracle(sol)
    options = PowerFlowOptions(
        tol=sol.options.tol,
        max_iter=2 * sol.options.max_iter,
        start="state",
        initial_state=sol.state,
        enforce_q_limits=sol.options.enforce_q_limits,
    )
    base_flows = branch_power_flows(sol)

    def from_currents(ybus, v):
        return ybus.yff * v[ybus.from_idx] + ybus.yft * v[ybus.to_idx]

    base_i = np.abs(from_currents(sol.ybus, sol.v_complex))
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    # record the pins and state each outcome's deltas are built from
    solved = {}
    with pytest.MonkeyPatch.context() as m:
        _recording_monitors(m, solved)
        outcomes = _outcomes(oracle, outages)  # one call, as the screen makes it
    for k in outages:
        post_case = case.with_branch_open(k)
        post_ybus = build_ybus(post_case)
        got = oracle.problem(k).ybus.matrix
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(post_ybus.matrix, attr)), (k, attr)

        outcome = outcomes[k]
        try:
            post = solve_ac_powerflow(post_case, options)
        except PowerFlowError as exc:
            assert not outcome.converged and not outcome.islanded and outcome.detail == str(exc)
            continue
        assert outcome.converged and not outcome.islanded
        pins, x = solved[k][0], np.frombuffer(solved[k][1])
        assert pins == post.q_limited, k
        assert np.max(np.abs(x[: 2 * case.n] - post.state)) <= 10 * options.tol, k
        residual = _NewtonProblem(post_case, post_ybus, pins).residual(x)
        assert np.max(np.abs(residual)) <= options.tol, k

        v = state_to_complex(x, case.n)
        i_from = from_currents(post_ybus, v)
        assert np.array_equal(outcome.delta_vmag, np.abs(v) - sol.v_mag), k
        assert np.array_equal(outcome.delta_imag, np.abs(i_from) - base_i), k
        p_from = (v[post_ybus.from_idx] * np.conj(i_from)).real
        assert np.array_equal(outcome.delta_p, p_from - base_flows.p_from), k
    return outages


def test_oracle_equals_fresh_resolve_case14(case14, sol14):
    assert len(_assert_oracle_equals_fresh_resolve(case14, sol14)) == 19


def test_oracle_equals_fresh_resolve_case118(case118, sol118):
    assert len(_assert_oracle_equals_fresh_resolve(case118, sol118)) == 177


def test_oracle_equals_fresh_resolve_open_and_double_circuit(case14):
    case = _open_and_double_circuit(case14)
    assert len(_assert_oracle_equals_fresh_resolve(case, solve_ac_powerflow(case))) == 19


def _no_engine_pass(*args, **kwargs):
    raise AssertionError("the oracle ran an outage-engine pass")


def test_oracle_equals_fresh_resolve_with_q_limits(monkeypatch, case118):
    """Every post-outage solve starts unpinned, so its Q-limit rounds run in the shared driver.

    A Q-pinned base has no unpinned Jacobian to share, so the oracle builds
    no chord model and runs no outage-engine pass.
    """
    sol = solve_ac_powerflow(case118, PowerFlowOptions(enforce_q_limits=True))
    assert len(sol.q_limited) == 6
    oracle = _Oracle(sol)
    assert oracle._lin is None and oracle._layout.q_pinned == {}
    assert oracle._layout.size == sol._problem.size + len(sol.q_limited)
    monkeypatch.setattr(screening, "_transfer_chunks", _no_engine_pass)
    _assert_oracle_equals_fresh_resolve(case118, sol)


def test_oracle_filters_broyden_states_past_reactive_limits(monkeypatch, case14):
    """On a base without Q pins the oracle runs Broyden's iteration with reactive limits enforced
    and drops every converged state that breaks a limit; those outages take the Newton path with
    its Q-limit rounds, and every outcome still equals a fresh re-solve.
    """
    sol = solve_ac_powerflow(case14, PowerFlowOptions(enforce_q_limits=True))
    assert sol.q_limited == {} and _Oracle(sol)._lin is not None
    iterate, converged, kept = _Oracle._iterate, {}, {}

    def recording(oracle, block):
        states = iterate(oracle, block)
        limited = oracle._options
        oracle._options = replace(limited, enforce_q_limits=False)
        try:
            converged.update(iterate(oracle, block))
        finally:
            oracle._options = limited
        kept.update(states)
        return states

    monkeypatch.setattr(_Oracle, "_iterate", recording)
    assert len(_assert_oracle_equals_fresh_resolve(case14, sol)) == 19
    # Broyden's iteration converges on every outage, so the filter alone sends outages to Newton
    assert len(converged) == 19 and set(kept) < set(converged)
    assert len(set(converged) - set(kept)) == 5


def test_oracle_shares_the_screens_full_model(case118, sol118, lin118):
    """In full mode the oracle's chord model is the screen's own factorization."""
    assert _Oracle(sol118)._lin is lin118


def test_oracle_takes_the_solutions_model_and_layout(case14, sol14, lin14):
    """On an unpinned base the oracle's chord model and Newton layout are the solution's own."""
    oracle = _Oracle(sol14)
    assert oracle._lin is lin14
    assert oracle._layout is sol14._problem


def test_oracle_outage_factorizes_the_base_once(monkeypatch, case118):
    """Single-outage calls on one solution share its model and build no Newton layout."""
    sol = solve_ac_powerflow(case118)
    factorized, layouts = [], []
    factorized_system = powerflow._factorized_system
    init = _NewtonProblem.__init__

    def counting_factorized_system(mode, *args):
        factorized.append(mode)
        return factorized_system(mode, *args)

    def counting_init(self, *args, **kwargs):
        layouts.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(powerflow, "_factorized_system", counting_factorized_system)
    monkeypatch.setattr(_NewtonProblem, "__init__", counting_init)
    outcomes = [oracle_outage(case118, k, sol) for k in range(5)]
    assert all(o.converged for o in outcomes)
    assert factorized == ["full"]
    assert layouts == []


@pytest.mark.parametrize("q_limits", [False, True])
def test_oracle_rejects_bad_branch_indices(monkeypatch, case118, q_limits):
    """An index past either end, or one that is not an integer, raises before any solve,
    with or without base pins."""
    sol = solve_ac_powerflow(case118, PowerFlowOptions(enforce_q_limits=q_limits))
    assert bool(sol.q_limited) == q_limits
    monkeypatch.setattr(screening, "_transfer_chunks", _no_engine_pass)
    monkeypatch.setattr(screening, "_newton", _no_engine_pass)
    for k in (-1, case118.n_branch):
        with pytest.raises(ValueError, match=f"branch index {k} out of range"):
            oracle_outage(case118, k, sol)
    for k in NON_INTEGER_INDICES:
        with pytest.raises(TypeError, match=f"branch index {re.escape(repr(k))} is not an integer"):
            oracle_outage(case118, k, sol)


def test_oracle_with_singular_model_takes_the_newton_path(monkeypatch, case14, sol14):
    """Where the base model is singular every outage is re-solved by Newton and still matches."""

    def singular(*args, **kwargs):
        raise SingularSystemError("singular operating-point model")

    monkeypatch.setattr(screening, "linearize_at_solution", singular)
    monkeypatch.setattr(screening, "_transfer_chunks", _no_engine_pass)
    assert _Oracle(sol14)._lin is None
    assert len(_assert_oracle_equals_fresh_resolve(case14, sol14)) == 19


def _recording_monitors(monkeypatch, found: dict) -> None:
    """Record into ``found``, by outage, the rows of every :meth:`_Oracle._monitors` call.

    Each row is the outage's reactive pins, its state and its three monitor
    changes as bytes, None for a quantity the oracle's metric does not read.
    The pins are those the Newton path (``screening._newton``) returned for
    the outage; a state of Broyden's method has none.
    """
    monitors, problem, newton = _Oracle._monitors, _Oracle.problem, screening._newton
    opened, pins = [], {}

    def recording_problem(oracle, k):
        opened.append(k)
        return problem(oracle, k)

    def recording_newton(*args):
        solved = newton(*args)
        pins[opened[-1]] = solved[0].q_pinned
        return solved

    def recording_monitors(oracle, states):
        ks, *deltas = monitors(oracle, states)
        for i, k in enumerate(ks.tolist()):
            row = (None if d is None else d[i].tobytes() for d in deltas)
            found[k] = (pins.pop(k, {}), states[k].tobytes(), *row)
        return (ks, *deltas)

    monkeypatch.setattr(_Oracle, "problem", recording_problem)
    monkeypatch.setattr(screening, "_newton", recording_newton)
    monkeypatch.setattr(_Oracle, "_monitors", recording_monitors)


def _outcomes(oracle: _Oracle, outages: list[int]) -> dict[int, OracleOutcome]:
    """The outcomes of one :meth:`_Oracle.solve` call, a failed solve mapped as :func:`oracle_outage` maps it."""
    return {
        k: OracleOutcome(k, False, False, detail=str(o)) if isinstance(o, PowerFlowError) else o
        for k, o in oracle.solve(outages).items()
    }


def _oracle_columns(report) -> dict[int, tuple]:
    """Each entry's oracle flags and severity, by branch."""
    return {e.branch: (e.oracle_islanded, e.oracle_converged, e.oracle_severity) for e in report.entries}


@pytest.mark.parametrize("which", ["case14", "case118"])
def test_screen_oracle_is_the_same_in_both_modes(monkeypatch, case14, sol14, case118, sol118, which):
    """Network mode linearizes the full model inside the oracle; its monitors are the full-mode bytes."""
    case, sol = (case14, sol14) if which == "case14" else (case118, sol118)
    found = {"full": {}, "network": {}}
    reports = {}
    for mode in ("full", "network"):
        _recording_monitors(monkeypatch, found[mode])
        reports[mode] = screen(case, sol, linearize_at_solution(sol, mode), metric="pline_inf", with_oracle=True)
        monkeypatch.undo()
    assert found["full"] and found["full"] == found["network"]
    assert _oracle_columns(reports["full"]) == _oracle_columns(reports["network"])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(2, 12),
    n_chords=st.integers(0, 5),
    n_parallel=st.integers(0, 3),
    n_spurs=st.integers(0, 4),
    n_open=st.integers(0, 2),
)
def test_oracle_equals_fresh_resolve_on_random_networks(seed, n_core, n_chords, n_parallel, n_spurs, n_open):
    """Random meshed networks with constant-power loads and PV generators, every non-bridge outage."""
    case = with_devices(random_meshed(seed, n_core, n_chords, n_parallel, n_spurs, n_open), np.random.default_rng(seed))
    _assert_oracle_equals_fresh_resolve(case, solve_ac_powerflow(case))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_core=st.integers(10, 30), loading=st.sampled_from([1.0, 0.6, 0.3]))
def test_oracle_lands_on_the_root_on_loaded_random_networks(seed, n_core, loading):
    """Loaded random networks: the oracle's flags are a fresh re-solve's, and its states lie on the root.

    The reference is the fresh Newton re-solve continued to ``tol=1e-12``,
    not the one stopped at ``tol``: ``powerflow._solve_round`` returns the
    first iterate within ``tol``, which on these draws lies up to 5.2e-9
    off its root, five times as far as any converged oracle state.
    """
    case = with_devices(random_meshed(seed, n_core, 12, 1, 3, 1), np.random.default_rng(seed))
    case = scale_loading(case, loading)
    try:
        sol = solve_ac_powerflow(case)
    except PowerFlowError:
        reject()  # no operating point to re-solve from
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    rows = {}
    with pytest.MonkeyPatch.context() as m:
        _recording_monitors(m, rows)
        solved = _Oracle(sol).solve(outages)
    options = PowerFlowOptions(max_iter=2 * sol.options.max_iter, start="state", initial_state=sol.state)
    for k in outages:
        post_case = case.with_branch_open(k)
        try:
            post = solve_ac_powerflow(post_case, options)
        except PowerFlowError:
            assert isinstance(solved[k], PowerFlowError), k
            continue
        assert not isinstance(solved[k], PowerFlowError), k
        root = solve_ac_powerflow(post_case, replace(options, tol=1e-12, initial_state=post.state)).state
        assert np.max(np.abs(np.frombuffer(rows[k][1])[: 2 * case.n] - root)) <= 10 * options.tol, k


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(2, 12),
    n_chords=st.integers(0, 5),
    n_parallel=st.integers(0, 3),
    n_spurs=st.integers(0, 4),
    n_open=st.integers(0, 2),
)
def test_predictions_equal_the_oracle_on_constant_current_networks(seed, n_core, n_chords, n_parallel, n_spurs, n_open):
    """Predicted post-outage states equal the oracle's converged ones on exactly linear networks.

    Every load of ``random_meshed`` is constant-current, so the network is
    linear and the first-order prediction is exact, for every non-bridge
    outage in both modes.
    """
    case = random_meshed(seed, n_core, n_chords, n_parallel, n_spurs, n_open)
    sol = solve_ac_powerflow(case)
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    rows = {}
    with pytest.MonkeyPatch.context() as m:
        _recording_monitors(m, rows)
        solved = _Oracle(sol).solve(outages)
    assert sorted(rows) == sorted(solved) == outages
    for mode in ("full", "network"):
        lin = linearize_at_solution(sol, mode)
        for k in outages:
            x = np.frombuffer(rows[k][1])
            predicted = sol.state + evaluate_outage(sol, lin, k).delta_state
            assert np.max(np.abs(predicted - x[: 2 * case.n])) <= 1e-10, (mode, k)


# -- the chord iteration ----------------------------------------------------------


@pytest.mark.parametrize("which", ["case14", "open_double", "case118"])
def test_compensated_inverse_solves_the_post_outage_jacobian(case14, sol14, case118, sol118, which):
    """The base LU with the rank-4 compensation inverts each post-outage Jacobian at the base state.

    Each row of a Broyden group is checked against its own outage.
    Branches 0 and 1 of case14 leave the slack bus, whose rows keep their
    pins.
    """
    if which == "case118":
        case, sol = case118, sol118
    elif which == "case14":
        case, sol = case14, sol14
    else:
        case = _open_and_double_circuit(case14)
        sol = solve_ac_powerflow(case)
    bridges = find_bridges(case)
    oracle = _Oracle(sol)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    rng = np.random.default_rng(7)
    checked = []
    for block, _ in _chord_groups(oracle, outages):
        r = rng.normal(size=(len(block.outages), oracle._lin.x_op.size))
        inverse = block.inverse(r)
        for i, k in enumerate(block.outages):
            post_case = case.with_branch_open(int(k))
            jacobian = _NewtonProblem(post_case, build_ybus(post_case)).jacobian(oracle._lin.x_op)
            assert np.max(np.abs(jacobian @ inverse[i] - r[i])) <= 1e-9, k
            checked.append(int(k))
    assert sorted(checked) == outages


def _chord_groups(oracle: _Oracle, outages: list[int]) -> list[tuple[_ChordBlock, dict[int, np.ndarray]]]:
    """The Broyden groups of the oracle's own engine pass over ``outages``, each with the states that converge by it."""
    groups = []
    iterate = oracle._iterate

    def recording_iterate(block):
        converged = iterate(block)
        groups.append((block, converged))
        return converged

    oracle._iterate = recording_iterate
    try:
        oracle.solve(outages)
    finally:
        del oracle._iterate
    return groups


def _chord_converged(oracle: _Oracle, outages: list[int]) -> set[int]:
    """The outages whose chord iteration converges."""
    return {k for _, converged in _chord_groups(oracle, outages) for k in converged}


def test_chord_iteration_carries_most_outages(case118, sol118):
    """On the constant-current ring every non-bridge outage converges by chord
    iteration; on case118, all but a few do without the full Newton path."""
    case = ring5()
    oracle = _Oracle(solve_ac_powerflow(case))
    outages = [k for k in range(case.n_branch) if k != RING5_BRIDGE]
    assert _chord_converged(oracle, outages) == set(outages)
    bridges = find_bridges(case118)
    oracle = _Oracle(sol118)
    outages = [k for k, br in enumerate(case118.branches) if br.closed and k not in bridges]
    assert len(outages) == 177
    assert len(_chord_converged(oracle, outages)) >= 150


@pytest.mark.parametrize("mode", ["full", "network"])
def test_broyden_sends_no_case14_or_case118_outage_to_newton(monkeypatch, case14, sol14, case118, sol118, mode):
    """The screen's oracle opens the Newton path for no outage of case14 or case118, in few steps.

    A step is one call of the compensated base LU for a whole Broyden
    group; a row-step is one outage's share of it, but the first step, by
    superposition, solves one column for the whole group.  All 177 case118
    outages form one group, which takes 21 steps and 872 row-steps (1048
    with a column per outage in the first step); in blocks of 32 outages
    they took 76 steps.  The chord without Broyden's update took 134 steps
    and 1270 row-steps on case118, and sent branch 7 to Newton after all 50
    steps of its budget; on case14 it took 30 steps, where Broyden's
    iteration takes 17 steps and 92 row-steps.
    """
    opened, steps = [], []
    problem, inverse = _Oracle.problem, _ChordBlock.inverse

    def recording_problem(oracle, k):
        opened.append(k)
        return problem(oracle, k)

    def counting_inverse(block, r):
        steps.append(len(r))
        return inverse(block, r)

    monkeypatch.setattr(_Oracle, "problem", recording_problem)
    monkeypatch.setattr(_ChordBlock, "inverse", counting_inverse)
    screen(case118, sol118, linearize_at_solution(sol118, mode), metric="pline_inf", with_oracle=True)
    assert opened == [] and steps[0] == 1
    assert len(steps) <= 25 and sum(steps) <= 1100, (len(steps), sum(steps))
    steps.clear()
    screen(case14, sol14, linearize_at_solution(sol14, mode), metric="pline_inf", with_oracle=True)
    assert opened == []
    assert len(steps) <= 20, len(steps)


@pytest.mark.parametrize("which", ["14", "118"])
def test_the_prediction_is_the_first_broyden_step(request, monkeypatch, which):
    """The first step from ``x0`` is ``s_0 = -M_k^-1 F_k(x0)`` with ``F_k(x0) = r0 - E_k B_k
    x0[rows]``, so ``s_0 + M_k^-1 r0`` is ``W_k T_k^-1 B_k x0[rows]``: its voltage part is the
    engine's prediction, the screen's delta_state row, for every non-bridge outage."""
    sol = request.getfixturevalue(f"sol{which}")
    case = sol.case
    firsts = []  # [block, x_1] of each Broyden group
    residual = _ChordBlock.residual

    def recording_residual(block, x, f=None):
        if f is not None:  # a group's residual at x0; its next residual is at x_1 = x0 + s_0
            firsts.append([block, None])
        elif firsts[-1][1] is None:
            firsts[-1][1] = x.copy()
        return residual(block, x, f)

    monkeypatch.setattr(_ChordBlock, "residual", recording_residual)
    lin = linearize_at_solution(sol)
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    oracle = _Oracle(sol)
    assert oracle._lin is lin
    oracle.solve(outages)
    x0 = lin.x_op
    r0 = oracle._layout.residual(x0[None])
    n2 = 2 * case.n
    predicted = {}
    for block, x1 in firsts:
        prediction = (x1 - x0 + block.inverse(r0))[:, :n2]
        predicted.update(zip(block.outages.tolist(), prediction))
    assert sorted(predicted) == outages
    for k in outages:
        delta_state = evaluate_outage(sol, lin, k).delta_state
        assert np.max(np.abs(predicted[k] - delta_state)) <= 1e-10 * np.max(np.abs(delta_state)), k


# -- the oracle's blocks -----------------------------------------------------------


def _overload_beside_ring() -> GridCase:
    """``overload_pair``'s two circuits and a loaded ring, all at the slack.

    Neither circuit alone carries the 8 p.u. load, so the chord iteration of
    either outage blows up and its Newton re-solve diverges; the ring's
    outages converge by chord in the same block.
    """
    return GridCase(
        "overload_ring",
        100.0,
        (
            Bus(1, BusKind.SLACK),
            Bus(2, BusKind.PQ, p_load=8.0),
            Bus(3, BusKind.PQ, p_load=0.3, q_load=0.1),
            Bus(4, BusKind.PQ, p_load=0.2, q_load=0.05),
        ),
        (
            Branch(1, 2, 0.0, 0.1),
            Branch(1, 2, 0.0, 0.1),
            Branch(1, 3, 0.01, 0.05),
            Branch(3, 4, 0.02, 0.08),
            Branch(4, 1, 0.01, 0.06),
        ),
        (),
    )


@pytest.mark.parametrize("which", ["case14", "case118", "case118_q_limits", "open_double"])
def test_screen_oracle_equals_oracle_outage(monkeypatch, case14, sol14, case118, sol118, which):
    """The screen solves its oracle outages in blocks; each equals :func:`oracle_outage` bit for bit.

    ``oracle_outage`` solves a block of one outage.  The screen reduces each
    Broyden group's states to monitors and severities; under every metric
    each row of monitors holds only the quantity the metric reads, equal to
    that of the outage alone, and each severity equals
    :func:`severity_from_deltas` of the outage alone.
    """
    if which == "case14":
        case, sol = case14, sol14
    elif which == "case118":
        case, sol = case118, sol118
    elif which == "case118_q_limits":
        case, sol = case118, solve_ac_powerflow(case118, PowerFlowOptions(enforce_q_limits=True))
    else:
        case = _open_and_double_circuit(case14)
        sol = solve_ac_powerflow(case)
    # record, under each metric, the monitors the screen's oracle reduces to severities
    batched, reports = {}, {}
    for metric in SEVERITY_METRICS:
        batched[metric] = {}
        _recording_monitors(monkeypatch, batched[metric])
        reports[metric] = screen(case, sol, metric=metric, with_oracle=True)
        monkeypatch.undo()
    closed = np.array([br.closed for br in case.branches])
    converged = sorted(e.branch for e in reports["pline_inf"].entries if e.oracle_converged)
    assert all(sorted(rows) == converged for rows in batched.values())
    alone = {e.branch: oracle_outage(case, e.branch, sol) for e in reports["pline_inf"].entries}
    for metric, report in reports.items():
        for e in report.entries:
            a = alone[e.branch]
            assert (e.oracle_islanded, e.oracle_converged) == (a.islanded, a.converged), e.branch
            if a.islanded:
                assert math.isinf(e.oracle_severity)
            else:
                assert a.converged, e.branch
                deltas = (a.delta_vmag, a.delta_imag, a.delta_p)
                assert e.oracle_severity == severity_from_deltas(metric, *deltas, e.branch, closed), (metric, e.branch)
    for metric, rows in batched.items():
        for k, (_, _, *deltas) in rows.items():
            assert deltas == _metric_row(metric, alone[k]), (metric, k)


def _metric_row(metric: str, outcome: OracleOutcome) -> list[bytes | None]:
    """The monitor changes of ``outcome`` as bytes, only the one ``metric`` reads; the others None."""
    quantity = sensitivity._METRIC_QUANTITY[metric]
    deltas = (outcome.delta_vmag, outcome.delta_imag, outcome.delta_p)
    return [d.tobytes() if q == quantity else None for q, d in zip(sensitivity._QUANTITIES, deltas)]


@pytest.mark.parametrize("which", ["overload_ring", "case118"])
def test_oracle_rows_are_isolated(monkeypatch, case118, sol118, which):
    """Rows that leave a Broyden group early do not touch the rows that stay.

    On the overload ring two rows blow up beside three that converge by
    chord.  On case118 a lowered ``COND_LIMIT`` makes some transfer
    matrices singular, and a chord patience of one step sends the rows
    whose mismatch sets no new minimum in some step to the Newton path (at
    the default patience every case118 row converges by chord).  Every
    outage gets the pins and state, or the error, that it gets when solved
    alone.
    """
    if which == "case118":
        case, sol = case118, sol118
    else:
        case = _overload_beside_ring()
        sol = solve_ac_powerflow(case)
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    oracle = _Oracle(sol)
    if which == "case118":
        conds = np.concatenate([chunk[-1] for chunk in _transfer_chunks(oracle._lin, case, outages, sol.ybus)])
        monkeypatch.setattr(sensitivity, "COND_LIMIT", float(np.percentile(conds, 90)))
        monkeypatch.setattr(screening, "_CHORD_PATIENCE", 1)
    # one group holds rows that converge by chord beside rows that leave it,
    # and its engine blocks hold outages with a singular transfer matrix
    groups = _chord_groups(oracle, outages)
    singular = len(outages) - sum(len(block.outages) for block, _ in groups)
    kinds = [(singular, len(chord), len(block.outages) - len(chord)) for block, chord in groups]
    if which == "case118":
        assert len(kinds) == 1 and all(kinds[0]), kinds
    else:
        assert kinds == [(0, 3, 2)]

    rows = {}
    _recording_monitors(monkeypatch, rows)
    together = oracle.solve(outages)
    together_rows = dict(rows)
    assert sorted(together) == outages
    for k in outages:
        rows.clear()
        alone = oracle.solve([k])[k]
        if isinstance(alone, PowerFlowError):
            assert type(together[k]) is type(alone) and str(together[k]) == str(alone), k
            assert k not in together_rows and not rows, k
        else:
            assert together_rows[k] == rows[k], k  # the pins, the state and its monitor changes
    diverged = [k for k in outages if isinstance(together[k], PowerFlowError)]
    assert diverged == ([] if which == "case118" else [0, 1])


@pytest.mark.parametrize("base, passes", [("full", 1), ("network", 2), ("q_pinned", 1)])
def test_oracle_screen_makes_one_engine_pass(monkeypatch, case118, sol118, base, passes):
    """In full mode the oracle's Broyden groups are built from the screen's own engine pass.

    In network mode the oracle still iterates on the full model, so it
    makes a pass of its own; a Q-pinned base has no chord model, so only
    the screen's pass is made.
    """
    calls = []
    transfer_chunks = sensitivity._transfer_chunks

    def counting_transfer_chunks(*args):
        calls.append(args)
        return transfer_chunks(*args)

    monkeypatch.setattr(sensitivity, "_transfer_chunks", counting_transfer_chunks)
    monkeypatch.setattr(screening, "_transfer_chunks", counting_transfer_chunks)
    sol = solve_ac_powerflow(case118, PowerFlowOptions(enforce_q_limits=True)) if base == "q_pinned" else sol118
    mode = "network" if base == "network" else "full"
    report = screen(case118, sol, linearize_at_solution(sol, mode), metric="pline_inf", with_oracle=True)
    assert len(calls) == passes
    assert report.comparison.n_compared == 177 and report.comparison.n_diverged == 0


@pytest.mark.parametrize("rows", [20, 80])
def test_oracle_groups_hold_whole_engine_blocks_within_the_budget(monkeypatch, case118, sol118, lin118, rows):
    """A lowered group budget splits case118 into several Broyden groups; every outage is still the one alone.

    At 80 rows a group holds two engine blocks of 32 outages; at 20 rows
    every engine block exceeds the budget and is a group by itself.  Each
    group is a run of whole consecutive engine blocks, whose states are
    reduced to monitors before the next group is iterated, and every
    outage's pins and state are bit for bit those of :func:`oracle_outage`.
    """
    budget = rows * lin118.size
    monkeypatch.setattr(screening, "_GROUP_ENTRIES", budget)
    engine_blocks, groups, reduced = [], [], []
    together = {}
    _recording_monitors(monkeypatch, together)
    transfer_chunks = screening._transfer_chunks
    iterate, monitors = _Oracle._iterate, _Oracle._monitors

    def recording_transfer_chunks(*args):
        for chunk in transfer_chunks(*args):
            engine_blocks.append(chunk[0].tolist())
            yield chunk

    def recording_iterate(oracle, block):
        groups.append(block.outages.tolist())
        converged = iterate(oracle, block)
        reduced.append(None)  # the group's monitors come next, before any other group
        return converged

    def recording_monitors(oracle, states):
        assert reduced[-1] is None, "monitors of states not from the last group"
        reduced[-1] = sorted(states)
        return monitors(oracle, states)

    monkeypatch.setattr(screening, "_transfer_chunks", recording_transfer_chunks)
    monkeypatch.setattr(_Oracle, "_iterate", recording_iterate)
    monkeypatch.setattr(_Oracle, "_monitors", recording_monitors)
    screen(case118, sol118, metric="pline_inf", with_oracle=True)
    monkeypatch.undo()
    assert len(engine_blocks) == 6  # the screen's pass is the only one
    blocks = iter(engine_blocks)
    merged = []  # engine blocks per group
    for group in groups:
        taken, count = [], 0
        while len(taken) < len(group):
            taken += next(blocks)
            count += 1
        assert taken == group, group  # whole consecutive engine blocks, none split
        assert len(group) * lin118.size <= budget or count == 1, group
        merged.append(count)
    assert next(blocks, None) is None
    assert merged == ([2, 2, 2] if rows == 80 else [1] * 6)

    assert reduced == [sorted(group) for group in groups]  # every row converged
    assert len(together) == 177
    alone = {}
    _recording_monitors(monkeypatch, alone)
    for k, (pins, x, *_) in together.items():
        assert oracle_outage(case118, k, sol118).converged, k
        assert alone[k][:2] == (pins, x), k


@pytest.mark.parametrize("metric", SEVERITY_METRICS)
def test_oracle_severities_do_not_depend_on_the_groups(monkeypatch, case118, sol118, lin118, metric):
    """Monitors taken a Broyden group at a time give the one-group screen's oracle columns bit for bit.

    All of case118 forms one group by default; a budget of 40 rows splits it
    into six.  Every oracle flag and severity and the comparison summary are
    the same bytes (``repr`` round-trips a float), and every row of the
    split screen's monitors is that of :func:`oracle_outage`.
    """
    one_group = screen(case118, sol118, metric=metric, with_oracle=True)
    monkeypatch.setattr(screening, "_GROUP_ENTRIES", 40 * lin118.size)
    groups = []
    iterate = _Oracle._iterate

    def counting_iterate(oracle, block):
        groups.append(len(block.outages))
        return iterate(oracle, block)

    monkeypatch.setattr(_Oracle, "_iterate", counting_iterate)
    split = {}
    _recording_monitors(monkeypatch, split)
    several_groups = screen(case118, sol118, metric=metric, with_oracle=True)
    monkeypatch.undo()
    assert len(groups) == 6 and sum(groups) == 177
    assert repr(_oracle_columns(several_groups)) == repr(_oracle_columns(one_group))
    assert repr(several_groups.comparison) == repr(one_group.comparison)
    assert len(split) == 177
    for k, (_, _, *deltas) in split.items():
        assert deltas == _metric_row(metric, oracle_outage(case118, k, sol118)), k


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_core=st.integers(10, 30), loading=st.sampled_from([1.0, 0.6, 0.3]))
def test_oracle_rows_equal_oracle_outage_on_random_networks(seed, n_core, loading):
    """Every outage solved in a block gets, bit for bit, the outcome it gets alone.

    Rows leave a block as they converge or fail, taking their stored
    Broyden steps with them; the rows that stay must not see it.
    """
    case = with_devices(random_meshed(seed, n_core, 12, 1, 3, 1), np.random.default_rng(seed))
    case = scale_loading(case, loading)
    try:
        sol = solve_ac_powerflow(case)
    except PowerFlowError:
        reject()  # no operating point to re-solve from
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    together = _outcomes(_Oracle(sol), outages)
    for k in outages:
        alone = oracle_outage(case, k, sol)
        o = together[k]
        assert (o.islanded, o.converged, o.detail) == (alone.islanded, alone.converged, alone.detail), k
        for name in ("delta_vmag", "delta_imag", "delta_p"):
            a, b = getattr(o, name), getattr(alone, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), (k, name)


def test_screen_notes_a_diverged_oracle(monkeypatch):
    """A non-islanding outage whose oracle diverges says so, unless its transfer matrix is singular."""
    case = _overload_beside_ring()
    report = screen(case, metric="pline_inf", with_oracle=True)
    assert report.comparison.n_diverged == 2
    notes = {e.branch: e.note for e in report.entries}
    assert notes == {0: "oracle did not converge", 1: "oracle did not converge", 2: "", 3: "", 4: ""}
    monkeypatch.setattr(sensitivity, "COND_LIMIT", 1.0)  # every transfer matrix reads singular
    report = screen(case, metric="pline_inf", with_oracle=True)
    assert report.comparison.n_diverged == 2
    assert all(e.note == "singular transfer matrix" for e in report.entries)
