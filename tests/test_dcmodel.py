"""DC power flow, PTDF and LODF baseline tests."""

from dataclasses import replace

import numpy as np
import pytest

from gridscreen.case_io import Branch, Bus, BusKind, GridCase
from gridscreen.dcmodel import build_dc_model, dc_lodf, solve_dc
from gridscreen.errors import CaseError, IslandingError
from gridscreen.powerflow import branch_power_flows
from gridscreen.screening import find_bridges

from gridbuild import NON_INTEGER_INDICES, radial_chain, triangle, two_bus


def _nodal_injections(model, flows):
    """Recover per-bus injections implied by a set of branch flows."""
    p = np.zeros(model.n)
    np.add.at(p, model.from_idx, flows)
    np.add.at(p, model.to_idx, -flows)
    return p


def test_dc_solution_satisfies_kcl(case14):
    model = build_dc_model(case14)
    dc = solve_dc(model)
    assert dc.theta[model.slack] == 0.0
    injections = _nodal_injections(model, dc.flows)
    keep = np.arange(model.n) != model.slack
    assert np.allclose(injections[keep], model.p_bus[keep], atol=1e-12)
    # lossless model: the slack absorbs exactly the net of all other buses
    assert injections.sum() == pytest.approx(0.0, abs=1e-12)


def test_dc_flow_on_tree_equals_downstream_demand():
    case = radial_chain(n=4, p=0.1)
    dc = solve_dc(case)
    assert dc.flows == pytest.approx([0.3, 0.2, 0.1], abs=1e-14)


def test_dc_counts_conductive_shunt_as_load():
    case = two_bus(p=0.2, x=0.1)
    case.buses[1].g_shunt = 0.05
    dc = solve_dc(case)
    assert dc.flows[0] == pytest.approx(0.25, abs=1e-14)


def test_dc_ignores_tap_ratio():
    plain = two_bus(p=0.2, x=0.1)
    tapped = two_bus(p=0.2, x=0.1, tap=0.9)
    assert solve_dc(tapped).flows == pytest.approx(solve_dc(plain).flows, abs=0)


def test_tree_flows_invariant_under_phase_shift():
    base = radial_chain(n=4, p=0.1)
    shifted = GridCase(
        base.name,
        base.base_mva,
        base.buses,
        tuple(
            Branch(br.from_bus, br.to_bus, br.r, br.x, br.b_charging, shift=0.03 if k == 1 else 0.0)
            for k, br in enumerate(base.branches)
        ),
        base.generators,
    )
    assert solve_dc(shifted).flows == pytest.approx(solve_dc(base).flows, abs=1e-14)
    # the shift is absorbed by the downstream angles instead
    assert solve_dc(shifted).theta[2] == pytest.approx(solve_dc(base).theta[2] - 0.03, abs=1e-14)


def test_parallel_shifter_drives_circulating_flow():
    case = GridCase(
        "loop_shifter",
        100.0,
        (Bus(1, BusKind.SLACK), Bus(2, BusKind.PQ)),
        (Branch(1, 2, 0.0, 0.1), Branch(1, 2, 0.0, 0.1, shift=0.02)),
        (),
    )
    dc = solve_dc(case)
    assert dc.flows == pytest.approx([0.1, -0.1], abs=1e-14)


def test_dc_tracks_ac_flows_at_nominal_loading(case14, sol14):
    dc = solve_dc(case14)
    ac = branch_power_flows(sol14).p_from
    assert np.max(np.abs(dc.flows - ac)) < 0.1
    assert np.max(np.abs(dc.flows - ac)) / np.max(np.abs(ac)) < 0.08


def test_lodf_triangle_closed_form():
    model = build_dc_model(triangle(x=0.1))
    res = dc_lodf(model, 0)
    assert res.lodf == pytest.approx([-1.0, 1.0, 1.0], abs=1e-12)
    assert res.predicted[0] == 0.0
    # the self-PTDF of a triangle branch is 2/3, so the transfer is 3x the flow
    assert res.transfer == pytest.approx(res.p_pre[0] * 3.0, abs=1e-12)


def test_lodf_self_factor_is_exactly_minus_one(case14):
    model = build_dc_model(case14)
    res = dc_lodf(model, 4)
    assert res.lodf[4] == -1.0
    assert res.predicted[4] == 0.0


@pytest.mark.parametrize("fixture_name", ["case14", "case118"])
def test_lodf_matches_dc_resolve(fixture_name, request):
    """The LODF prediction must be exact within the DC model itself."""
    case = request.getfixturevalue(fixture_name)
    model = build_dc_model(case)
    base = solve_dc(model)
    bridges = find_bridges(case)
    worst = 0.0
    for outage in range(case.n_branch):
        if outage in bridges or not case.branches[outage].closed:
            continue
        res = dc_lodf(model, outage, base)
        actual = solve_dc(case.with_branch_open(outage)).flows
        keep = np.flatnonzero(~np.isnan(res.predicted))
        keep = keep[keep != outage]
        worst = max(worst, float(np.max(np.abs(res.predicted[keep] - actual[keep]))))
    assert worst < 1e-9


def test_lodf_bridge_raises(case14):
    model = build_dc_model(case14)
    for outage in sorted(find_bridges(case14)):
        with pytest.raises(IslandingError):
            dc_lodf(model, outage)


def test_lodf_every_chain_branch_is_a_bridge():
    model = build_dc_model(radial_chain(n=4))
    for outage in range(3):
        with pytest.raises(IslandingError):
            dc_lodf(model, outage)


def test_lodf_rejects_bad_branch_arguments(case14):
    model = build_dc_model(case14.with_branch_open(2))
    with pytest.raises(ValueError, match="open"):
        dc_lodf(model, 2)
    with pytest.raises(ValueError, match="range"):
        dc_lodf(model, 99)
    for k in NON_INTEGER_INDICES:
        with pytest.raises(TypeError, match="is not an integer"):
            dc_lodf(model, k)


def test_zero_reactance_branch_is_rejected(case14):
    """A closed branch with x = 0 and r > 0 is a valid AC case but has no DC susceptance."""
    case = two_bus(r=0.05, x=0.0)
    case.validate()
    with pytest.raises(CaseError, match=r"branch 0 \(1-2\) is closed with zero reactance"):
        build_dc_model(case)
    # open, the same branch carries no flow and needs no susceptance
    branches = case14.branches + (replace(case14.branches[0], r=0.05, x=0.0),)
    extended = GridCase("case14_zero_x", case14.base_mva, case14.buses, branches, case14.generators)
    assert build_dc_model(extended.with_branch_open(case14.n_branch)).b_branch[-1] == 0.0


def test_lodf_marks_open_branches_nan(case14):
    model = build_dc_model(case14.with_branch_open(2))
    res = dc_lodf(model, 4)
    assert np.isnan(res.lodf[2]) and np.isnan(res.predicted[2])
    assert np.isfinite(res.lodf[6])
