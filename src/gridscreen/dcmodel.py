"""Classical DC power flow, PTDF and LODF baseline.

The DC approximation keeps only branch reactances: flat voltage magnitudes,
small angles, lossless branches.  Tap ratios are ignored; phase shifts enter
as fixed flow offsets.  Everything is linear, so line outage effects follow
exactly from linear transfer factors within the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .case_io import GridCase, _bus_positions, _closed_branch
from .errors import CaseError, IslandingError, SingularSystemError

# a unit transfer across a bridge returns in full over the bridge itself,
# leaving 1 - PTDF == 0; this tolerance separates that from roundoff
_BRIDGE_TOL = 1e-9


@dataclass
class DcModel:
    """Reduced susceptance matrix of a case with its LU factorization."""

    case: GridCase
    slack: int
    b_branch: np.ndarray  # 1/x per branch, zero when open
    from_idx: np.ndarray
    to_idx: np.ndarray
    shift: np.ndarray
    p_bus: np.ndarray  # fixed net injection per bus
    reduced_index: np.ndarray  # bus -> row of the reduced system (-1 at slack)
    _lu: object

    @property
    def n(self) -> int:
        return self.case.n

    def solve_reduced(self, p: np.ndarray) -> np.ndarray:
        """Bus angles for injection vector ``p`` (slack angle fixed at zero)."""
        theta = np.zeros(self.n)
        keep = self.reduced_index >= 0
        theta[keep] = self._lu.solve(p[keep])
        return theta

    def branch_flows(self, theta: np.ndarray) -> np.ndarray:
        return self.b_branch * (theta[self.from_idx] - theta[self.to_idx] - self.shift)


@dataclass
class DcSolution:
    theta: np.ndarray
    flows: np.ndarray


@dataclass
class DcLodfResult:
    """Flow redistribution for one line outage in the DC model.

    ``lodf[m]`` is the fraction of the pre-outage flow of branch ``outage``
    that lands on branch ``m``; the outaged branch itself carries ``-1``.
    ``transfer`` is the equivalent terminal-to-terminal power transfer that
    reproduces the outage.
    """

    outage: int
    lodf: np.ndarray
    p_pre: np.ndarray
    predicted: np.ndarray
    transfer: float


def build_dc_model(case: GridCase) -> DcModel:
    case.validate()
    n = case.n
    from_idx = _bus_positions(case, [br.from_bus for br in case.branches])
    to_idx = _bus_positions(case, [br.to_bus for br in case.branches])
    for i, br in enumerate(case.branches):
        if br.closed and br.x == 0:
            raise CaseError(f"branch {i} ({br.from_bus}-{br.to_bus}) is closed with zero reactance: no DC model")
    b_branch = np.array([1.0 / br.x if br.closed else 0.0 for br in case.branches])
    shift = np.array([br.shift for br in case.branches])

    rows = np.concatenate([from_idx, from_idx, to_idx, to_idx])
    cols = np.concatenate([from_idx, to_idx, from_idx, to_idx])
    vals = np.concatenate([b_branch, -b_branch, -b_branch, b_branch])
    b_full = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    slack = case.slack_index()
    keep = np.arange(n) != slack
    reduced_index = np.full(n, -1, dtype=np.int64)
    reduced_index[keep] = np.arange(n - 1)
    b_red = b_full[keep][:, keep].tocsc()
    try:
        lu = splu(b_red)
    except RuntimeError as exc:
        raise SingularSystemError(f"singular DC susceptance matrix: {exc}") from exc

    p_bus = np.zeros(n)
    for k, bus in enumerate(case.buses):
        # a conductive shunt draws roughly its rated power at flat voltage
        p_bus[k] -= bus.p_load + bus.g_shunt
    for g in case.generators:
        p_bus[case.bus_index(g.bus)] += g.p_set

    return DcModel(
        case=case,
        slack=slack,
        b_branch=b_branch,
        from_idx=from_idx,
        to_idx=to_idx,
        shift=shift,
        p_bus=p_bus,
        reduced_index=reduced_index,
        _lu=lu,
    )


def solve_dc(case: GridCase | DcModel) -> DcSolution:
    """Bus angles and branch flows of the DC power flow."""
    model = case if isinstance(case, DcModel) else build_dc_model(case)
    # phase shifts act as equivalent injections at the branch terminals
    p_shift = np.zeros(model.n)
    np.add.at(p_shift, model.from_idx, model.b_branch * model.shift)
    np.add.at(p_shift, model.to_idx, -model.b_branch * model.shift)
    theta = model.solve_reduced(model.p_bus + p_shift)
    return DcSolution(theta=theta, flows=model.branch_flows(theta))


def dc_lodf(model: DcModel, outage: int, solution: DcSolution | None = None) -> DcLodfResult:
    """Line outage distribution factors for removing branch ``outage``.

    They follow from the PTDF, the per-branch flow change of a unit
    transfer from the branch's from bus to its to bus.  Raises
    :class:`IslandingError` when the branch is a bridge in the DC network
    (its self-PTDF reaches one and no redistribution exists).
    """
    _closed_branch(model.case, outage)
    p = np.zeros(model.n)
    p[model.from_idx[outage]] += 1.0
    p[model.to_idx[outage]] -= 1.0
    theta = model.solve_reduced(p)
    ptdf = model.b_branch * (theta[model.from_idx] - theta[model.to_idx])
    denom = 1.0 - ptdf[outage]
    if abs(denom) < _BRIDGE_TOL:
        raise IslandingError(f"branch {outage} is a bridge in the DC network")

    if solution is None:
        solution = solve_dc(model)
    p_pre = solution.flows
    transfer = p_pre[outage] / denom

    closed = model.b_branch != 0.0
    lodf = np.where(closed, ptdf / denom, np.nan)
    lodf[outage] = -1.0
    predicted = np.where(closed, p_pre + lodf * p_pre[outage], np.nan)
    predicted[outage] = 0.0
    return DcLodfResult(outage=outage, lodf=lodf, p_pre=p_pre, predicted=predicted, transfer=transfer)
