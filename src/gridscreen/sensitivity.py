"""Line outage modeling by equivalent current injections at the terminals.

A branch removal is reproduced, inside the operating-point linear model, by
a four-component injection (real and imaginary current at each terminal).
The injection must equal the current the branch itself would carry at the
perturbed state; that self-consistency condition is a 4x4 linear system
whose matrix also detects islanding: it loses rank exactly when the network
cannot absorb the branch's current elsewhere.

All first-order monitored quantities (voltage magnitudes, branch current
magnitudes, branch active-power flows) follow from the resulting voltage
change by the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .case_io import GridCase, branch_admittances, build_ybus
from .errors import IslandingError, SingularSystemError
from .powerflow import (
    BranchTerminalCurrents,
    LinearizedSystem,
    PowerFlowSolution,
    _network_system,
    branch_terminal_currents,
    state_to_complex,
)

__all__ = [
    "InjectionSensitivity",
    "BranchCurrentJacobian",
    "OutageTransferMatrix",
    "OutageImpact",
    "CircuitLodfResult",
    "SEVERITY_METRICS",
    "COND_LIMIT",
    "injection_sensitivity",
    "branch_current_jacobian",
    "outage_transfer_matrix",
    "solve_outage_injection",
    "delta_voltage_magnitude",
    "delta_current_magnitude",
    "delta_line_power",
    "evaluate_outage",
    "circuit_lodf",
    "severity_from_deltas",
    "singular_outage_branches",
]

# transfer matrices above this condition number are treated as singular
COND_LIMIT = 1e12

# below this current magnitude the directional derivative of |I| is undefined
# and the Euclidean norm of the current change is reported instead
_CURRENT_FLOOR = 1e-9

SEVERITY_METRICS = ("vmag_inf", "vmag_2", "imag_inf", "pline_inf")


def _complex_block(y: complex) -> np.ndarray:
    """2x2 real form of multiplication by a complex number."""
    return np.array([[y.real, -y.imag], [y.imag, y.real]])


@dataclass
class InjectionSensitivity:
    """Voltage response columns for unit current injections at a branch's terminals.

    Column order is ``[from_real, from_imag, to_real, to_imag]``.  Columns
    belonging to a slack terminal are identically zero: the slack absorbs
    any injected current without a voltage response.
    """

    branch: int
    rows: np.ndarray  # the four KCL row indices, -1 where the terminal is the slack
    dv: np.ndarray  # (2n, 4) voltage part of the response
    full: np.ndarray  # (size, 4) response of the complete linear system


def injection_sensitivity(lin: LinearizedSystem, branch_idx: int) -> InjectionSensitivity:
    """Solve the linear model for the four terminal injection directions."""
    case = lin.case
    if not 0 <= branch_idx < case.n_branch:
        raise ValueError(f"branch index {branch_idx} out of range")
    br = case.branches[branch_idx]
    f = case.bus_index(br.from_bus)
    t = case.bus_index(br.to_bus)

    rows = np.full(4, -1, dtype=np.int64)
    for pos, bus in ((0, f), (2, t)):
        pair = lin.kcl_rows(bus)
        if pair is not None:
            rows[pos], rows[pos + 1] = pair

    rhs = np.zeros((lin.size, 4))
    for j in range(4):
        if rows[j] >= 0:
            rhs[rows[j], j] = 1.0
    full = lin.solve(rhs)
    for j in range(4):
        if rows[j] < 0:
            full[:, j] = 0.0
    return InjectionSensitivity(branch=branch_idx, rows=rows, dv=full[: 2 * lin.n, :], full=full)


@dataclass
class BranchCurrentJacobian:
    """Derivative of one branch's terminal currents wrt its terminal voltages.

    The branch two-port is linear, so this 4x4 block is exact and does not
    depend on the operating point.  ``rows`` are the interleaved state
    indices of the terminal voltages.
    """

    branch: int
    rows: np.ndarray  # (4,) state indices [2f, 2f+1, 2t, 2t+1]
    block: np.ndarray  # (4, 4)

    def apply_state(self, dv_state: np.ndarray) -> np.ndarray:
        """Terminal current change for a voltage state change."""
        return self.block @ dv_state[self.rows]


def branch_current_jacobian(
    case: GridCase, branch_idx: int, include_charging: bool = True
) -> BranchCurrentJacobian:
    if not 0 <= branch_idx < case.n_branch:
        raise ValueError(f"branch index {branch_idx} out of range")
    br = case.branches[branch_idx]
    if not br.closed:
        raise ValueError(f"branch {branch_idx} is open")
    yff, yft, ytf, ytt = branch_admittances(br, include_charging)
    block = np.zeros((4, 4))
    block[0:2, 0:2] = _complex_block(yff)
    block[0:2, 2:4] = _complex_block(yft)
    block[2:4, 0:2] = _complex_block(ytf)
    block[2:4, 2:4] = _complex_block(ytt)
    f = case.bus_index(br.from_bus)
    t = case.bus_index(br.to_bus)
    rows = np.array([2 * f, 2 * f + 1, 2 * t, 2 * t + 1], dtype=np.int64)
    return BranchCurrentJacobian(branch=branch_idx, rows=rows, block=block)


@dataclass
class OutageTransferMatrix:
    """Self-consistency matrix of the equivalent-injection outage model."""

    branch: int
    t: np.ndarray  # (4, 4)
    cond: float = field(init=False)

    def __post_init__(self):
        self.cond = float(np.linalg.cond(self.t))

    @property
    def singular(self) -> bool:
        return not np.isfinite(self.cond) or self.cond > COND_LIMIT


def outage_transfer_matrix(sens: InjectionSensitivity, jac: BranchCurrentJacobian) -> OutageTransferMatrix:
    """Build the transfer matrix for removing the branch both arguments describe.

    ``jac.block @ sens.dv[jac.rows]`` is the 4x4 derivative of the branch's
    terminal currents wrt the injections at its own terminals.
    """
    if sens.branch != jac.branch:
        raise ValueError("sensitivity and Jacobian describe different branches")
    t = np.eye(4) - jac.block @ sens.dv[jac.rows, :]
    return OutageTransferMatrix(branch=sens.branch, t=t)


def solve_outage_injection(
    tm: OutageTransferMatrix, i_pre: BranchTerminalCurrents | np.ndarray
) -> np.ndarray:
    """Equivalent injection reproducing the outage, from the pre-outage current.

    Raises :class:`IslandingError` when the transfer matrix is singular,
    which signals that the branch removal disconnects its terminals from
    the rest of the network.
    """
    if tm.singular:
        raise IslandingError(
            f"outage transfer matrix of branch {tm.branch} is singular "
            f"(cond {tm.cond:.3e}); the outage islands part of the network"
        )
    pre = i_pre.vector if isinstance(i_pre, BranchTerminalCurrents) else np.asarray(i_pre, dtype=float)
    return np.linalg.solve(tm.t, pre)


# -- chain-rule monitors --------------------------------------------------------


def delta_voltage_magnitude(dv_state: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-bus first-order change of |V| for a voltage state change."""
    vmag = np.abs(v)
    if np.any(vmag < 1e-12):
        raise ValueError("voltage magnitude is zero at some bus; |V| is not differentiable")
    dv = state_to_complex(dv_state)
    return (v.real * dv.real + v.imag * dv.imag) / vmag


def _side_slice(side: str) -> slice:
    if side == "from":
        return slice(0, 2)
    if side == "to":
        return slice(2, 4)
    raise ValueError(f"side must be 'from' or 'to', got {side!r}")


def delta_current_magnitude(
    dv_state: np.ndarray,
    sol: PowerFlowSolution,
    branch_idx: int,
    side: str = "from",
) -> tuple[float, bool]:
    """First-order change of a branch's terminal current magnitude.

    Returns ``(delta, used_fallback)``.  When the branch carries (almost) no
    current the directional derivative of the magnitude is undefined; the
    Euclidean norm of the current change is returned instead and the flag
    set.
    """
    jac = branch_current_jacobian(sol.case, branch_idx)
    di4 = jac.apply_state(dv_state)
    s = _side_slice(side)
    di = di4[s]
    pre = branch_terminal_currents(sol, branch_idx)
    i0 = pre.vector[s]
    mag = float(np.hypot(i0[0], i0[1]))
    if mag < _CURRENT_FLOOR:
        return float(np.hypot(di[0], di[1])), True
    return float((i0 @ di) / mag), False


def delta_line_power(
    dv_state: np.ndarray,
    sol: PowerFlowSolution,
    branch_idx: int,
    side: str = "from",
) -> float:
    """First-order change of a branch's terminal active power by the product rule."""
    jac = branch_current_jacobian(sol.case, branch_idx)
    di4 = jac.apply_state(dv_state)
    s = _side_slice(side)
    di = di4[s][0] + 1j * di4[s][1]
    pre = branch_terminal_currents(sol, branch_idx)
    i0 = pre.i_from if side == "from" else pre.i_to
    k = jac.rows[s][0] // 2
    v0 = sol.v_complex[k]
    dv = dv_state[jac.rows[s][0]] + 1j * dv_state[jac.rows[s][1]]
    return float((dv * np.conj(i0)).real + (v0 * np.conj(di)).real)


# -- full per-outage evaluation --------------------------------------------------


@dataclass
class _BranchBaseline:
    """Pre-outage branch quantities shared by every outage evaluation."""

    closed: np.ndarray  # bool (m,)
    i_from: np.ndarray  # complex (m,)
    i_to: np.ndarray
    p_from: np.ndarray
    p_to: np.ndarray


def _build_baseline(sol: PowerFlowSolution) -> _BranchBaseline:
    yb = sol.ybus
    v = sol.v_complex
    vf = v[yb.from_idx]
    vt = v[yb.to_idx]
    i_from = yb.yff * vf + yb.yft * vt
    i_to = yb.ytf * vf + yb.ytt * vt
    closed = np.array([br.closed for br in sol.case.branches])
    return _BranchBaseline(
        closed=closed,
        i_from=i_from,
        i_to=i_to,
        p_from=(vf * np.conj(i_from)).real,
        p_to=(vt * np.conj(i_to)).real,
    )


@dataclass
class OutageImpact:
    """First-order impact of one line outage on every monitored quantity.

    Branch-indexed arrays follow the from side.  The outaged branch itself
    uses the removed-branch convention: its current change is the negated
    pre-outage current (the physical post-outage current is zero), and its
    power change follows from that by the product rule.
    """

    outage: int
    injection: np.ndarray  # (4,)
    i_pre: np.ndarray  # (4,)
    cond: float
    delta_state: np.ndarray  # (2n,)
    delta_vmag: np.ndarray  # (n,)
    delta_imag: np.ndarray  # (m,)
    delta_p: np.ndarray  # (m,)
    imag_fallback: np.ndarray  # bool (m,)


def evaluate_outage(
    sol: PowerFlowSolution,
    lin: LinearizedSystem,
    outage: int,
    baseline: _BranchBaseline | None = None,
) -> OutageImpact:
    """Predict the impact of removing one closed branch.

    Raises :class:`IslandingError` when the outage would disconnect the
    network (singular transfer matrix).
    """
    case = sol.case
    if baseline is None:
        baseline = _build_baseline(sol)
    sens = injection_sensitivity(lin, outage)
    jac = branch_current_jacobian(case, outage)
    tm = outage_transfer_matrix(sens, jac)
    i_pre = np.array(
        [
            baseline.i_from[outage].real,
            baseline.i_from[outage].imag,
            baseline.i_to[outage].real,
            baseline.i_to[outage].imag,
        ]
    )
    injection = solve_outage_injection(tm, i_pre)
    dv_state = sens.dv @ injection

    v = sol.v_complex
    delta_vmag = delta_voltage_magnitude(dv_state, v)

    yb = sol.ybus
    dvc = state_to_complex(dv_state)
    di_from = yb.yff * dvc[yb.from_idx] + yb.yft * dvc[yb.to_idx]
    # removed-branch convention for the outaged line itself
    di_from[outage] = -baseline.i_from[outage]

    mag = np.abs(baseline.i_from)
    tiny = baseline.closed & (mag < _CURRENT_FLOOR)
    safe_mag = np.where(mag < _CURRENT_FLOOR, 1.0, mag)
    aligned = (baseline.i_from.real * di_from.real + baseline.i_from.imag * di_from.imag) / safe_mag
    delta_imag = np.where(tiny, np.abs(di_from), aligned)
    delta_imag[~baseline.closed] = 0.0

    vf = v[yb.from_idx]
    delta_p = (dvc[yb.from_idx] * np.conj(baseline.i_from)).real + (vf * np.conj(di_from)).real
    delta_p[~baseline.closed] = 0.0

    return OutageImpact(
        outage=outage,
        injection=injection,
        i_pre=i_pre,
        cond=tm.cond,
        delta_state=dv_state,
        delta_vmag=delta_vmag,
        delta_imag=delta_imag,
        delta_p=delta_p,
        imag_fallback=tiny,
    )


def severity_from_deltas(
    metric: str,
    delta_vmag: np.ndarray,
    delta_imag: np.ndarray,
    delta_p: np.ndarray,
    outage: int,
    closed: np.ndarray,
) -> float:
    """Scalar severity of one outage under a named metric.

    Branch metrics take the maximum over the *other* closed branches, so
    they measure redistribution rather than the (always large) loss of the
    outaged branch itself.
    """
    if metric == "vmag_inf":
        return float(np.max(np.abs(delta_vmag)))
    if metric == "vmag_2":
        return float(np.linalg.norm(delta_vmag))
    others = closed.copy()
    others[outage] = False
    if metric == "imag_inf":
        return float(np.max(np.abs(delta_imag[others]))) if others.any() else 0.0
    if metric == "pline_inf":
        return float(np.max(np.abs(delta_p[others]))) if others.any() else 0.0
    raise ValueError(f"unknown severity metric {metric!r}; choose from {SEVERITY_METRICS}")


@dataclass
class CircuitLodfResult:
    """AC analogue of the DC outage distribution factors.

    ``ratio[m]`` is the predicted power change on branch ``m`` divided by
    the pre-outage power of the outaged branch (from side); NaN when that
    reference power is negligible.
    """

    outage: int
    dp: np.ndarray
    ratio: np.ndarray
    p_pre: np.ndarray


def circuit_lodf(
    sol: PowerFlowSolution,
    lin: LinearizedSystem,
    outage: int,
    baseline: _BranchBaseline | None = None,
) -> CircuitLodfResult:
    if baseline is None:
        baseline = _build_baseline(sol)
    impact = evaluate_outage(sol, lin, outage, baseline)
    p_ref = baseline.p_from[outage]
    if abs(p_ref) < 1e-12:
        ratio = np.full(len(impact.delta_p), np.nan)
    else:
        ratio = impact.delta_p / p_ref
        ratio[~baseline.closed] = np.nan
    return CircuitLodfResult(outage=outage, dp=impact.delta_p, ratio=ratio, p_pre=baseline.p_from)


# -- islanding detection via transfer-matrix rank --------------------------------


def singular_outage_branches(case: GridCase) -> set[int]:
    """Closed branches whose removal makes the series connection network singular.

    The test runs on the pure series network at nominal ratios (no shunts,
    no line charging, no off-nominal taps or phase shifts, devices absent,
    slack voltage pinned), where the transfer matrix of a branch loses rank
    exactly when the branch is a cut of the connected network.  Shunt and
    device stamps, and the circulating current of a transformer loop whose
    ratios do not multiply to one, can keep an islanded block invertible, so
    this topology question is asked of the topology-only model.  Each branch
    goes through the same injection, Jacobian and transfer-matrix chain as
    an outage evaluation.
    """
    case.validate()
    nominal = replace(case, branches=tuple(replace(br, tap=1.0, shift=0.0) for br in case.branches))
    yb = build_ybus(nominal, include_charging=False, include_shunts=False)
    try:
        lin = _network_system(nominal, yb.matrix, nominal.slack_index(), np.zeros(2 * nominal.n))
    except SingularSystemError as exc:
        raise SingularSystemError(
            "series connection network is singular; the case is likely disconnected"
        ) from exc
    return {
        idx
        for idx, br in enumerate(nominal.branches)
        if br.closed
        and outage_transfer_matrix(
            injection_sensitivity(lin, idx),
            branch_current_jacobian(nominal, idx, include_charging=False),
        ).singular
    }
