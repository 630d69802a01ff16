"""Independent reference implementations used as test oracles.

Everything here is written with scalar complex arithmetic and explicit
loops, deliberately independent of the package's vectorized code paths.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from gridscreen.case_io import BusKind, GridCase
from gridscreen.powerflow import LinearizedSystem, PowerFlowSolution
from gridscreen.sensitivity import COND_LIMIT


def branch_pi_admittances(branch):
    """Two-port admittances of one branch from the series/shunt data.

    The scalar complex formula that ``case_io`` evaluates in arrays; its
    stamps must equal these bit for bit.
    """
    if not branch.closed:
        return 0j, 0j, 0j, 0j
    ys = 1.0 / complex(branch.r, branch.x)
    bc = 1j * branch.b_charging / 2.0
    tap = branch.tap * complex(math.cos(branch.shift), math.sin(branch.shift))
    yff = (ys + bc) / (branch.tap * branch.tap)
    yft = -ys / tap.conjugate()
    ytf = -ys / tap
    ytt = ys + bc
    return yff, yft, ytf, ytt


def branch_block(case: GridCase, branch_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """State rows ``[2f, 2f+1, 2t, 2t+1]`` and real 4x4 current block of one branch.

    ``block @ dv[rows]`` is the change of ``[Ifr, Ifi, Itr, Iti]`` for a
    voltage state change ``dv``: each 2x2 entry is the real form
    ``[[g, -b], [b, g]]`` of multiplication by one admittance ``g + jb``.
    """
    br = case.branches[branch_idx]
    f = case.bus_index(br.from_bus)
    t = case.bus_index(br.to_bus)
    yff, yft, ytf, ytt = branch_pi_admittances(br)
    block = np.zeros((4, 4))
    for i, row in enumerate(((yff, yft), (ytf, ytt))):
        for j, y in enumerate(row):
            block[2 * i, 2 * j] = y.real
            block[2 * i, 2 * j + 1] = -y.imag
            block[2 * i + 1, 2 * j] = y.imag
            block[2 * i + 1, 2 * j + 1] = y.real
    return np.array([2 * f, 2 * f + 1, 2 * t, 2 * t + 1]), block


def dense_ybus(case: GridCase) -> np.ndarray:
    n = case.n
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        yff, yft, ytf, ytt = branch_pi_admittances(br)
        f = case.bus_index(br.from_bus)
        t = case.bus_index(br.to_bus)
        y[f, f] += yff
        y[f, t] += yft
        y[t, f] += ytf
        y[t, t] += ytt
    for k, bus in enumerate(case.buses):
        y[k, k] += complex(bus.g_shunt, bus.b_shunt)
    return y


def _generators_at(case: GridCase, bus_id: int) -> list:
    return [g for g in case.generators if g.bus == bus_id]


def _effective_pv(case: GridCase, sol: PowerFlowSolution) -> list[int]:
    slack = case.slack_index()
    pv = []
    for k, bus in enumerate(case.buses):
        if k == slack or k in sol.q_limited:
            continue
        if bus.kind == BusKind.PV and _generators_at(case, bus.id):
            pv.append(k)
    return pv


def newton_residual(sol: PowerFlowSolution, x: np.ndarray) -> np.ndarray:
    """Residual of the equations the solver claims to have solved.

    Row layout: interleaved nodal current mismatch, the slack rows replaced
    by rectangular voltage pins, one magnitude row appended per PV bus.
    """
    case = sol.case
    n = case.n
    slack = case.slack_index()
    pv = _effective_pv(case, sol)
    y = dense_ybus(case)

    v = x[0 : 2 * n : 2] + 1j * x[1 : 2 * n : 2]
    q_extra = dict(zip(pv, x[2 * n :]))

    f = np.empty(2 * n + len(pv))
    i_net = y @ v
    for k, bus in enumerate(case.buses):
        p = -bus.p_load + sum(g.p_set for g in _generators_at(case, bus.id))
        q = -bus.q_load + sol.q_limited.get(k, 0.0) + q_extra.get(k, 0.0)
        i_dev = complex(p, q).conjugate() / v[k].conjugate() - complex(bus.i_load_r, bus.i_load_i)
        mis = i_net[k] - i_dev
        f[2 * k] = mis.real
        f[2 * k + 1] = mis.imag

    slack_bus = case.buses[slack]
    gens = _generators_at(case, slack_bus.id)
    v_set = gens[0].v_set if gens else slack_bus.v_init
    slack_v = v_set * cmath.exp(1j * slack_bus.theta_init)
    f[2 * slack] = v[slack].real - slack_v.real
    f[2 * slack + 1] = v[slack].imag - slack_v.imag

    for j, k in enumerate(pv):
        v_pv = _generators_at(case, case.buses[k].id)[0].v_set
        f[2 * n + j] = v[k].real ** 2 + v[k].imag ** 2 - v_pv**2

    return f


def terminal_currents(case: GridCase, v: np.ndarray, branch_idx: int) -> np.ndarray:
    """Interleaved ``[Ifr, Ifi, Itr, Iti]`` for one branch at voltages ``v``."""
    br = case.branches[branch_idx]
    yff, yft, ytf, ytt = branch_pi_admittances(br)
    vf = v[case.bus_index(br.from_bus)]
    vt = v[case.bus_index(br.to_bus)]
    i_from = yff * vf + yft * vt
    i_to = ytf * vf + ytt * vt
    return np.array([i_from.real, i_from.imag, i_to.real, i_to.imag])


def terminal_responses(lin: LinearizedSystem, branch_idx: int) -> np.ndarray:
    """Voltage responses (2n, 4) of ``lin`` to unit current injections at one branch's terminals.

    Columns are ``[from_real, from_imag, to_real, to_imag]``, each from a
    dense solve of ``lin.matrix`` with a unit entry in the terminal's KCL
    row ``2b`` or ``2b + 1``; a slack terminal's right-hand side is zero,
    and so is its column.
    """
    case = lin.case
    br = case.branches[branch_idx]
    rhs = np.zeros((lin.size, 4))
    for j, bus in enumerate((case.bus_index(br.from_bus), case.bus_index(br.to_bus))):
        if bus != lin.slack:
            rhs[2 * bus, 2 * j] = rhs[2 * bus + 1, 2 * j + 1] = 1.0
    return np.linalg.solve(lin.matrix.toarray(), rhs)[: 2 * case.n]


def outage_chain(sol: PowerFlowSolution, lin: LinearizedSystem, branch_idx: int):
    """``(cond, injection, delta_state)`` of removing one branch, on dense arrays.

    ``Z`` is :func:`terminal_responses`, ``B`` the :func:`branch_block`, the
    transfer matrix ``T = I - B Z[rows]`` and the injection ``T^-1 i_pre``
    from the :func:`terminal_currents` at the solution; the state change is
    ``Z`` times the injection.  Where ``cond(T)`` exceeds ``COND_LIMIT`` (an
    islanding outage), the injection and the state change are None.
    """
    z = terminal_responses(lin, branch_idx)
    rows, block = branch_block(lin.case, branch_idx)
    t = np.eye(4) - block @ z[rows]
    cond = float(np.linalg.cond(t))
    if not cond <= COND_LIMIT:
        return cond, None, None
    injection = np.linalg.solve(t, terminal_currents(sol.case, sol.v_complex, branch_idx))
    return cond, injection, z @ injection


def from_side_power(case: GridCase, v: np.ndarray, branch_idx: int) -> float:
    """Active power entering branch ``branch_idx`` at its from terminal."""
    br = case.branches[branch_idx]
    yff, yft, _, _ = branch_pi_admittances(br)
    vf = v[case.bus_index(br.from_bus)]
    vt = v[case.bus_index(br.to_bus)]
    return (vf * (yff * vf + yft * vt).conjugate()).real


def directional_derivative(func, x: np.ndarray, direction: np.ndarray, step: float = 1e-6):
    """Central finite difference of ``func`` along ``direction``."""
    hi = func(x + step * direction)
    lo = func(x - step * direction)
    return (np.asarray(hi) - np.asarray(lo)) / (2.0 * step)


def newton_layout(case: GridCase, q_pinned: dict[int, float]) -> dict:
    """The per-bus Newton data of ``powerflow._NewtonProblem``, record by record.

    ``p_fix``/``q_fix``/``i_fix`` are the constant injections (generation
    minus load, pinned reactive injections included), ``pv`` the buses that
    hold their voltage with its first generator's setpoint and the summed
    reactive limits, and ``slack_v`` the slack bus's complex voltage.
    """
    slack = case.slack_index()
    p_fix = np.array([-b.p_load for b in case.buses])
    q_fix = np.array([-b.q_load for b in case.buses])
    i_fix = np.array([-complex(b.i_load_r, b.i_load_i) for b in case.buses])
    pv, vset, qmin, qmax = [], [], [], []
    for k, bus in enumerate(case.buses):
        gens = _generators_at(case, bus.id)
        for g in gens:
            p_fix[k] += g.p_set
        if k != slack and bus.kind == BusKind.PV and gens and k not in q_pinned:
            pv.append(k)
            vset.append(gens[0].v_set)
            qmin.append(sum(g.q_min for g in gens))
            qmax.append(sum(g.q_max for g in gens))
    for k, q in q_pinned.items():
        q_fix[k] += q
    slack_bus = case.buses[slack]
    slack_gens = _generators_at(case, slack_bus.id)
    v_slack = slack_gens[0].v_set if slack_gens else slack_bus.v_init
    return {
        "pv": np.array(pv, dtype=np.int64),
        "pv_vset": np.array(vset, dtype=float),
        "pv_qmin": np.array(qmin, dtype=float),
        "pv_qmax": np.array(qmax, dtype=float),
        "p_fix": p_fix,
        "q_fix": q_fix,
        "i_fix": i_fix,
        "slack_v": np.array([v_slack * complex(math.cos(slack_bus.theta_init), math.sin(slack_bus.theta_init))]),
    }


def first_case_fault(case: GridCase) -> str | None:
    """The message of the first structural fault of ``case``, checked record by record.

    Buses come first, then the slack count, branches, generators and the
    generator setpoints; within one record the checks run in the order
    below.  None for a valid case.
    """
    if case.base_mva <= 0:
        return f"base MVA must be positive, got {case.base_mva}"
    if not case.buses:
        return "case has no buses"
    seen: set = set()
    for bus in case.buses:
        if bus.id in seen:
            return f"duplicate bus id {bus.id}"
        seen.add(bus.id)
        if bus.v_init <= 0:
            return f"bus {bus.id}: initial voltage magnitude must be positive"
    n_slack = sum(1 for b in case.buses if b.kind == BusKind.SLACK)
    if n_slack != 1:
        return f"case must have exactly one slack bus, found {n_slack}"
    for i, br in enumerate(case.branches):
        for end in (br.from_bus, br.to_bus):
            if end not in seen:
                return f"branch {i} references unknown bus {end}"
        if br.from_bus == br.to_bus:
            return f"branch {i} connects bus {br.from_bus} to itself"
        if br.closed and br.r == 0 and br.x == 0:
            return f"branch {i} is closed with zero impedance"
        if not br.tap > 0:
            return f"branch {i} has non-positive tap ratio {br.tap}"
    for g in case.generators:
        if g.bus not in seen:
            return f"generator references unknown bus {g.bus}"
        if g.q_min > g.q_max:
            return f"generator at bus {g.bus} has q_min > q_max"
        if g.v_set <= 0:
            return f"generator at bus {g.bus} has non-positive voltage setpoint"
    regulated = {b.id for b in case.buses if b.kind in (BusKind.PV, BusKind.SLACK)}
    v_set: dict = {}
    for g in case.generators:
        if g.bus in regulated and v_set.setdefault(g.bus, g.v_set) != g.v_set:
            return f"bus {g.bus}: generators disagree on the voltage setpoint ({v_set[g.bus]} vs {g.v_set})"
    return None
