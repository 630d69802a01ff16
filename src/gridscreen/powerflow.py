"""Newton power flow in rectangular voltage coordinates.

The residual is the nodal current mismatch ``Y V - I_dev(V)``, written as
interleaved real/imaginary rows.  The slack bus contributes two rows pinning
its rectangular voltage, and every PV bus contributes one magnitude row
``Vr^2 + Vi^2 - v_set^2`` together with one reactive-injection variable, so
the system stays square.

Because the residual is linear in the network and only the device currents
depend on the state, the converged Jacobian *is* the operating-point network
model used by the outage sensitivity machinery; :func:`linearize_at_solution`
packages it behind a reusable LU factorization.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .case_io import (
    AdmittanceMatrix,
    BusKind,
    GridCase,
    _bus_kinds,
    _bus_positions,
    _closed_branch,
    _complex,
    build_ybus,
)
from .errors import DivergenceError, PowerFlowError, SingularSystemError

logger = logging.getLogger(__name__)

__all__ = [
    "PowerFlowOptions",
    "PowerFlowSolution",
    "LinearizedSystem",
    "BranchTerminalCurrents",
    "BranchFlows",
    "PowerBalance",
    "solve_ac_powerflow",
    "linearize_at_solution",
    "branch_terminal_currents",
    "branch_power_flows",
    "power_balance",
    "expand_complex_matrix",
    "state_to_complex",
    "complex_to_state",
]

# mismatch must grow this many consecutive steps before the iteration is
# declared divergent
_GROWTH_LIMIT = 3
# reactive-limit passes after the first solve when limits are enforced
_Q_LIMIT_ROUNDS = 5
_Q_LIMIT_MARGIN = 1e-9
_VOLTAGE_COLLAPSE = 1e-12
# below this current magnitude the directional derivative of |I| is undefined
# and the Euclidean norm of the current change is reported instead
_CURRENT_FLOOR = 1e-9


def state_to_complex(state: np.ndarray, n: int | None = None) -> np.ndarray:
    """Interleaved ``[V1r, V1i, V2r, ...]`` vector (or rows of them) to complex bus voltages."""
    if n is None:
        n = state.shape[-1] // 2
    return state[..., 0 : 2 * n : 2] + 1j * state[..., 1 : 2 * n : 2]


def complex_to_state(v: np.ndarray) -> np.ndarray:
    state = np.empty(2 * len(v))
    state[0::2] = v.real
    state[1::2] = v.imag
    return state


def expand_complex_matrix(matrix: sp.spmatrix) -> sp.coo_matrix:
    """Real block expansion of a complex matrix under interleaved ordering.

    Each entry ``y`` becomes the 2x2 block ``[[Re y, -Im y], [Im y, Re y]]``,
    so that complex products map to products of the expanded system.
    """
    coo = matrix.tocoo()
    nnz = coo.nnz
    rows = np.repeat(2 * coo.row, 4) + np.tile([0, 0, 1, 1], nnz)
    cols = np.repeat(2 * coo.col, 4) + np.tile([0, 1, 0, 1], nnz)
    vals = np.empty(4 * nnz)
    vals[0::4] = coo.data.real
    vals[1::4] = -coo.data.imag
    vals[2::4] = coo.data.imag
    vals[3::4] = coo.data.real
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * coo.shape[0], 2 * coo.shape[1]))


def _pinned_network(ybus: sp.spmatrix, slack: int) -> sp.coo_matrix:
    """Expanded network entries for the non-slack rows, plus the two slack pins.

    Rows ``2k``/``2k+1`` are the current balance of bus ``k``; at the slack
    they are replaced by unit pins on its rectangular voltage.
    """
    coo = ybus.tocoo()
    keep = coo.row != slack
    sub = sp.coo_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape)
    net = expand_complex_matrix(sub)
    rows = np.concatenate([net.row, [2 * slack, 2 * slack + 1]])
    cols = np.concatenate([net.col, [2 * slack, 2 * slack + 1]])
    vals = np.concatenate([net.data, [1.0, 1.0]])
    return sp.coo_matrix((vals, (rows, cols)), shape=net.shape)


class _CscPattern:
    """The compressed-column layout of a fixed list of entry positions.

    :meth:`matrix` scatters entry values straight into that layout.  The
    result equals ``coo_matrix((vals, (rows, cols))).tocsc()`` bit for bit,
    explicit zeros included, as long as no position holds more than two
    entries: a sum of two floats does not depend on their order.

    :meth:`factorize` orders the columns once per pattern.  SuperLU's
    column order (COLAMD, then an elimination-tree post-order) depends on
    the positions of the entries only, not on their values, so the order
    the first factorization returns is the order of every later one, and
    later factorizations reuse it exactly as SuperLU returned it.  Every
    copy of the pattern, such as a :meth:`_NewtonProblem.with_ybus`
    layout, shares it.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, size: int):
        key = cols * size + rows
        order = np.argsort(key, kind="stable")
        key = key[order]
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        count = np.diff(np.r_[start, len(key)])
        if count.max(initial=0) > 2:
            raise ValueError("more than two entries share a position")
        position = key[start]
        index_dtype = np.int32 if max(size, len(key)) < 2**31 else np.int64
        self.shape = (size, size)
        self._indices = (position % size).astype(index_dtype)
        self._indptr = np.searchsorted(position // size, np.arange(size + 1)).astype(index_dtype)
        self._first = order[start]
        self._pair = np.flatnonzero(count == 2)
        self._second = order[start[self._pair] + 1]
        # the first factorization's column permutation, and this layout
        # permuted by it (see factorize)
        self._ordered: tuple[np.ndarray, _CscPattern] | None = None

    def matrix(self, vals: np.ndarray) -> sp.csc_matrix:
        data = vals[self._first]
        data[self._pair] += vals[self._second]
        return sp.csc_matrix((data, self._indices.copy(), self._indptr.copy()), shape=self.shape)

    def factorize(self, vals: np.ndarray):
        """SuperLU factors of :meth:`matrix` ``(vals)``, in the column order of this pattern.

        The first call lets SuperLU order the columns and keeps its
        ``perm_c``.  A later call factorizes ``P A P^T`` under
        ``permc_spec="NATURAL"``, with ``P`` the permutation that moves row
        and column ``i`` to ``perm_c[i]``.  With NATURAL, SciPy skips the
        post-order, so the stored order is used exactly as returned.  The
        rows are permuted with the columns so that SuperLU's diagonal pivot
        preference, which decides a tie for a column's largest entry, names
        the same entry as in a fresh factorization; each column lists its
        entries in the order of this layout, unsorted, so SuperLU visits
        them in the same order.  The pivots, the factors and every solve
        are then those of a fresh ``splu(matrix(vals))``, bit for bit.
        Raises ``RuntimeError`` on a singular matrix.
        """
        if self._ordered is None:
            lu = splu(self.matrix(vals))
            perm_c = lu.perm_c.copy()  # a view of perm_c would keep the factors alive
            self._ordered = (perm_c, self._permuted(perm_c))
            return lu
        perm_c, ordered = self._ordered
        matrix = ordered.matrix(vals)
        matrix.has_canonical_format = True  # keeps splu from sorting the row indices of each column
        return _PermutedLU(splu(matrix, permc_spec="NATURAL"), perm_c)

    def _permuted(self, perm_c: np.ndarray) -> "_CscPattern":
        """This layout with row and column ``i`` moved to ``perm_c[i]``; each column keeps its entry order."""
        order = np.argsort(perm_c)
        counts = np.diff(self._indptr)[order]
        indptr = np.r_[0, np.cumsum(counts)]
        # the position in this layout of each entry of the permuted one
        gather = np.repeat(self._indptr[order] - indptr[:-1], counts) + np.arange(indptr[-1])
        moved_to = np.empty_like(gather)
        moved_to[gather] = np.arange(len(gather))
        permuted = copy.copy(self)
        permuted._indices = perm_c[self._indices[gather]].astype(self._indices.dtype)
        permuted._indptr = indptr.astype(self._indptr.dtype)
        permuted._first = self._first[gather]
        permuted._pair = moved_to[self._pair]
        permuted._ordered = None
        return permuted


class _PermutedLU:
    """Factors of ``P A P^T``, where ``P`` moves row ``i`` to ``perm_c[i]``; :meth:`solve` solves ``A x = b``."""

    def __init__(self, lu, perm_c: np.ndarray):
        self._lu = lu
        self._perm_c = perm_c

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        permuted = np.empty_like(rhs)
        permuted[self._perm_c] = rhs
        return self._lu.solve(permuted)[self._perm_c]


@dataclass
class PowerFlowOptions:
    """Newton solver settings.

    Reactive limit enforcement is off by default: converting PV buses to PQ
    at a binding limit is a discrete regime change that the operating-point
    linear model cannot represent, so outage screening and its nonlinear
    oracle are run with the PV setpoints held.  Enable it for standalone
    operating-point studies.
    """

    tol: float = 1e-8
    max_iter: int = 25
    start: str = "flat"  # "flat" | "file" | "state"
    initial_state: np.ndarray | None = None
    enforce_q_limits: bool = False


class _NewtonProblem:
    """One Newton system: a case with a fixed PV/PQ role assignment.

    ``q_pinned`` maps bus indices whose generators were moved to a reactive
    limit; those buses are treated as PQ with the pinned injection folded
    into the constant term.
    """

    def __init__(self, case: GridCase, ybus: AdmittanceMatrix, q_pinned: dict[int, float] | None = None):
        self.case = case
        self.ybus = ybus
        self.n = case.n
        self.q_pinned = dict(q_pinned or {})

        n = self.n
        self.slack = case.slack_index()
        slack_bus = case.buses[self.slack]

        buses, gens = case.buses, case.generators
        p_fix = -np.array([b.p_load for b in buses], dtype=float)
        q_fix = -np.array([b.q_load for b in buses], dtype=float)
        i_load_r = np.array([b.i_load_r for b in buses], dtype=float)
        i_fix = _complex(-i_load_r, -np.array([b.i_load_i for b in buses], dtype=float))

        # each bus's generators in record order: their summed output and
        # limits, and the setpoint of the first
        at = _bus_positions(case, [g.bus for g in gens])
        np.add.at(p_fix, at, np.array([g.p_set for g in gens], dtype=float))
        gen_buses, first = np.unique(at, return_index=True)
        bus_vset = np.zeros(n)
        bus_vset[gen_buses] = np.array([g.v_set for g in gens], dtype=float)[first]
        bus_qmin, bus_qmax = np.zeros(n), np.zeros(n)
        np.add.at(bus_qmin, at, np.array([g.q_min for g in gens], dtype=float))
        np.add.at(bus_qmax, at, np.array([g.q_max for g in gens], dtype=float))
        pinned = np.fromiter(self.q_pinned, dtype=np.int64, count=len(self.q_pinned))
        q_fix[pinned] += np.fromiter(self.q_pinned.values(), dtype=float, count=len(pinned))

        is_pv = np.zeros(n, dtype=bool)
        is_pv[gen_buses] = _bus_kinds(buses)[gen_buses] == BusKind.PV
        is_pv[self.slack] = False
        is_pv[pinned] = False
        self.pv = np.flatnonzero(is_pv)
        self.pv_vset = bus_vset[self.pv]
        self.pv_qmin = bus_qmin[self.pv]
        self.pv_qmax = bus_qmax[self.pv]
        self.p_fix = p_fix
        self.q_fix = q_fix
        self.i_fix = i_fix

        v_slack = float(bus_vset[self.slack]) if self.slack in gen_buses else slack_bus.v_init
        self.slack_v = v_slack * complex(math.cos(slack_bus.theta_init), math.sin(slack_bus.theta_init))

        self.size = 2 * n + len(self.pv)
        self._device_idx = np.delete(np.arange(n), self.slack)
        self._static = _pinned_network(ybus.matrix, self.slack)
        self._pattern = _CscPattern(*self._entry_positions(), self.size)

    def with_ybus(self, ybus: AdmittanceMatrix) -> "_NewtonProblem":
        """This layout over another admittance matrix with the same sparsity pattern.

        The bus roles, the device data and the Jacobian pattern are shared;
        only the network entries change.
        """
        problem = copy.copy(self)
        problem.ybus = ybus
        problem._static = _pinned_network(ybus.matrix, self.slack)
        return problem

    # -- state handling -------------------------------------------------------

    def initial_state(self, options: PowerFlowOptions) -> np.ndarray:
        n = self.n
        x = np.zeros(self.size)
        if options.start == "flat":
            v = np.ones(self.n, dtype=complex)
            v[self.pv] = self.pv_vset
            v[self.slack] = self.slack_v
            x[: 2 * n] = complex_to_state(v)
            return x
        if options.start == "file":
            v = np.array(
                [b.v_init * complex(math.cos(b.theta_init), math.sin(b.theta_init)) for b in self.case.buses]
            )
            mag = np.abs(v[self.pv])
            v[self.pv] = v[self.pv] / mag * self.pv_vset
            v[self.slack] = self.slack_v
            x[: 2 * n] = complex_to_state(v)
            x[2 * n :] = self._estimate_reactive(v)
            return x
        # start "state": an initial_state of length >= 2n, as solve_ac_powerflow checks
        x[: 2 * n] = options.initial_state[: 2 * n]
        v = state_to_complex(x, n)
        x[2 * n :] = self._estimate_reactive(v)
        return x

    def q_violations(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """PV buses whose reactive injection at state ``x`` is below / above its limits."""
        q = x[2 * self.n :]
        return q < self.pv_qmin - _Q_LIMIT_MARGIN, q > self.pv_qmax + _Q_LIMIT_MARGIN

    def _estimate_reactive(self, v: np.ndarray) -> np.ndarray:
        if len(self.pv) == 0:
            return np.zeros(0)
        s_net = v * np.conj(self.ybus.matrix @ v)
        q_dev = s_net.imag - (v * np.conj(self.i_fix)).imag
        return q_dev[self.pv] - self.q_fix[self.pv]

    # -- residual and Jacobian -------------------------------------------------

    def _injections(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Complex voltages, total device injection currents and voltage collapse at state ``x``.

        ``x`` is one state or a stack of them along a leading axis.  The
        third result marks the states whose voltage collapsed toward zero at
        some bus; for a single state that raises :class:`DivergenceError`
        instead, and for a stack the currents of the marked rows are
        meaningless.
        """
        n = self.n
        v = state_to_complex(x, n)
        q_bus = np.empty(v.shape)
        q_bus[...] = self.q_fix
        q_bus[..., self.pv] += x[..., 2 * n :]
        s = self.p_fix + 1j * q_bus
        d = v.real * v.real + v.imag * v.imag
        collapsed = np.any(d < _VOLTAGE_COLLAPSE, axis=-1)
        if x.ndim == 1 and collapsed:
            raise DivergenceError("voltage magnitude collapsed toward zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            i_dev = np.conj(s / v) + self.i_fix
        return v, i_dev, collapsed

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Residual at state ``x``, or at each row of a stack of states.

        A single state whose voltage collapses raises
        :class:`DivergenceError`; in a stack, such a row reads NaN.
        """
        n = self.n
        v, i_dev, collapsed = self._injections(x)
        mis = (self.ybus.matrix @ v.T).T - i_dev
        f = np.empty(x.shape[:-1] + (self.size,))
        f[..., 0 : 2 * n : 2] = mis.real
        f[..., 1 : 2 * n : 2] = mis.imag
        s = self.slack
        f[..., 2 * s] = v[..., s].real - self.slack_v.real
        f[..., 2 * s + 1] = v[..., s].imag - self.slack_v.imag
        if len(self.pv):
            vp = v[..., self.pv]
            f[..., 2 * n :] = vp.real**2 + vp.imag**2 - self.pv_vset**2
        f[collapsed] = np.nan
        return f

    def _entry_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and columns of the Jacobian entries, in the order of :meth:`_entries`."""
        n = self.n
        k = self._device_idx
        rows = [self._static.row, np.repeat(2 * k, 4) + np.tile([0, 0, 1, 1], len(k))]
        cols = [self._static.col, np.repeat(2 * k, 4) + np.tile([0, 1, 0, 1], len(k))]
        if len(self.pv):
            kp = self.pv
            aug = 2 * n + np.arange(len(kp))
            # reactive-injection columns
            rows.append(np.concatenate([2 * kp, 2 * kp + 1]))
            cols.append(np.concatenate([aug, aug]))
            # magnitude rows
            rows.append(np.concatenate([aug, aug]))
            cols.append(np.concatenate([2 * kp, 2 * kp + 1]))
        return np.concatenate(rows), np.concatenate(cols)

    def _entries(self, x: np.ndarray) -> np.ndarray:
        """Jacobian entry values at state ``x``, at the positions of :meth:`_entry_positions`."""
        n = self.n
        v = state_to_complex(x, n)
        q_bus = self.q_fix.copy()
        q_bus[self.pv] += x[2 * n :]

        k = self._device_idx
        vr, vi = v.real[k], v.imag[k]
        d = vr * vr + vi * vi
        p, q = self.p_fix[k], q_bus[k]
        ir = (p * vr + q * vi) / d
        ii = (p * vi - q * vr) / d
        # partial derivatives of the injected device current wrt Vr, Vi
        di = np.empty(4 * len(k))
        di[0::4] = (p - 2 * vr * ir) / d
        di[1::4] = (q - 2 * vi * ir) / d
        di[2::4] = (-q - 2 * vr * ii) / d
        di[3::4] = (p - 2 * vi * ii) / d
        vals = [self._static.data, -di]

        if len(self.pv):
            kp = self.pv
            vpr, vpi = v.real[kp], v.imag[kp]
            dp = vpr * vpr + vpi * vpi
            vals.append(np.concatenate([-vpi / dp, vpr / dp]))
            vals.append(np.concatenate([2 * vpr, 2 * vpi]))
        return np.concatenate(vals)

    def jacobian(self, x: np.ndarray) -> sp.csc_matrix:
        return self._pattern.matrix(self._entries(x))

    def factorize(self, x: np.ndarray):
        """LU factors of the Jacobian at ``x``, in the column order of its pattern (see :class:`_CscPattern`)."""
        try:
            return self._pattern.factorize(self._entries(x))
        except RuntimeError as exc:
            raise SingularSystemError(f"singular power flow Jacobian: {exc}") from exc


@dataclass
class _BranchBaseline:
    """Pre-outage branch quantities shared by every outage evaluation; every array is read-only."""

    v_re: np.ndarray  # (n,) real parts of the bus voltages
    v_im: np.ndarray  # (n,) their imaginary parts
    v_mag: np.ndarray
    zero_voltage: bool  # some |V| is below 1e-12, where |V| is not differentiable
    closed: np.ndarray  # bool (m,)
    opened: np.ndarray  # indices of the open branches
    v_from: np.ndarray  # complex (m,) from-bus voltage
    i_from: np.ndarray  # complex (m,)
    i_from_re: np.ndarray  # (m,) real parts of i_from
    i_from_im: np.ndarray  # (m,) its imaginary parts
    i_from_conj: np.ndarray
    i_terminal: np.ndarray  # (m, 4) [Re i_from, Im i_from, Re i_to, Im i_to]
    tiny: np.ndarray  # bool (m,) closed with |i_from| below _CURRENT_FLOOR
    any_tiny: bool  # tiny.any()
    safe_mag: np.ndarray  # (m,) |i_from|, 1 where below _CURRENT_FLOOR
    p_from: np.ndarray


@dataclass
class PowerFlowSolution:
    """Converged operating point of a case."""

    case: GridCase
    options: PowerFlowOptions
    state: np.ndarray  # interleaved rectangular voltages, length 2n
    q_gen: np.ndarray  # per-bus generator reactive injection
    iterations: int
    max_mismatch: float
    kinds_effective: np.ndarray  # per-bus BusKind after any Q-limit conversion
    q_limited: dict[int, float]
    ybus: AdmittanceMatrix
    _problem: _NewtonProblem = field(repr=False)

    @property
    def n(self) -> int:
        return self.case.n

    @property
    def v_complex(self) -> np.ndarray:
        return state_to_complex(self.state, self.n)

    @property
    def v_mag(self) -> np.ndarray:
        return np.abs(self.v_complex)

    @property
    def v_angle(self) -> np.ndarray:
        return np.angle(self.v_complex)

    @property
    def full_state(self) -> np.ndarray:
        """State vector including the reactive variables of the final system."""
        x = np.empty(self._problem.size)
        x[: 2 * self.n] = self.state
        x[2 * self.n :] = self.q_gen[self._problem.pv]
        return x

    @cached_property
    def _baseline(self) -> _BranchBaseline:
        """Pre-outage branch quantities, built once per solution."""
        yb = self.ybus
        v = self.v_complex
        vf = v[yb.from_idx]
        vt = v[yb.to_idx]
        i_from = yb.yff * vf + yb.yft * vt
        i_to = yb.ytf * vf + yb.ytt * vt
        closed = np.array([br.closed for br in self.case.branches])
        mag = np.abs(i_from)
        v_mag = np.abs(v)
        tiny = closed & (mag < _CURRENT_FLOOR)
        baseline = _BranchBaseline(
            v_re=v.real.copy(),  # contiguous parts for the monitor chain rule
            v_im=v.imag.copy(),
            v_mag=v_mag,
            zero_voltage=bool((v_mag < 1e-12).any()),
            closed=closed,
            opened=np.flatnonzero(~closed),
            v_from=vf,
            i_from=i_from,
            i_from_re=i_from.real.copy(),
            i_from_im=i_from.imag.copy(),
            i_from_conj=np.conj(i_from),
            i_terminal=np.stack([i_from.real, i_from.imag, i_to.real, i_to.imag], axis=1),
            tiny=tiny,
            any_tiny=bool(tiny.any()),
            safe_mag=np.where(mag < _CURRENT_FLOOR, 1.0, mag),
            p_from=(vf * np.conj(i_from)).real,
        )
        for value in vars(baseline).values():  # every later query shares these arrays
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return baseline

    @cached_property
    def _model(self) -> "LinearizedSystem":
        """The full-mode linear model, factorized on first use; a singular one raises on every use."""
        problem = self._problem
        x_op = self.full_state
        return _factorized_system("full", self.case, problem.jacobian(x_op), x_op, problem.slack)

    @property
    def p_inj(self) -> np.ndarray:
        """Net active injection per bus (generation minus load)."""
        v = self.v_complex
        return (v * np.conj(self.ybus.matrix @ v)).real

    @property
    def q_inj(self) -> np.ndarray:
        v = self.v_complex
        return (v * np.conj(self.ybus.matrix @ v)).imag


def _solve_round(problem: _NewtonProblem, x: np.ndarray, options: PowerFlowOptions) -> tuple[np.ndarray, int, float]:
    mismatch_prev: float | None = None
    growth = 0
    f = problem.residual(x)
    for iteration in range(1, options.max_iter + 1):
        lu = problem.factorize(x)
        x = x + lu.solve(-f)
        f = problem.residual(x)
        mismatch = float(np.max(np.abs(f)))
        if not math.isfinite(mismatch):
            raise DivergenceError("power flow mismatch is not finite")
        if mismatch <= options.tol:
            return x, iteration, mismatch
        if mismatch_prev is not None and mismatch > mismatch_prev:
            growth += 1
            if growth >= _GROWTH_LIMIT:
                raise DivergenceError(
                    f"mismatch grew for {growth} consecutive iterations (now {mismatch:.3e})"
                )
        else:
            growth = 0
        mismatch_prev = mismatch
    # f is the residual at the last iterate, the starting one when max_iter is 0
    raise PowerFlowError(
        f"power flow did not converge within {options.max_iter} iterations "
        f"(final mismatch {float(np.max(np.abs(f))):.3e})"
    )


def _newton(
    problem: _NewtonProblem, x: np.ndarray, options: PowerFlowOptions
) -> tuple[_NewtonProblem, np.ndarray, int, float]:
    """Newton rounds from ``x`` with the reactive-limit passes of :func:`solve_ac_powerflow`.

    Returns the final problem (with its reactive pins), its converged state,
    the total iteration count and the max-norm residual of the final problem
    at that state.
    """
    case, ybus = problem.case, problem.ybus
    q_pinned = dict(problem.q_pinned)
    total_iterations = 0
    rounds_allowed = _Q_LIMIT_ROUNDS if options.enforce_q_limits else 0
    round_no = 0
    while True:
        x, iterations, mismatch = _solve_round(problem, x, options)
        total_iterations += iterations
        if len(problem.pv) == 0:
            break
        low, high = problem.q_violations(x)
        if not (low.any() or high.any()):
            break
        if round_no >= rounds_allowed:
            if options.enforce_q_limits:
                logger.warning("reactive limits still violated after %d rounds", rounds_allowed)
            break
        round_no += 1
        for j in np.flatnonzero(low | high):
            k = int(problem.pv[j])
            pinned = float(problem.pv_qmin[j] if low[j] else problem.pv_qmax[j])
            q_pinned[k] = pinned
            logger.info("bus %s hit a reactive limit, pinned at %.6g", case.buses[k].id, pinned)
        state = x[: 2 * problem.n]
        problem = _NewtonProblem(case, ybus, q_pinned)
        x = problem.initial_state(PowerFlowOptions(start="state", initial_state=state))
    return problem, x, total_iterations, mismatch


def solve_ac_powerflow(case: GridCase, options: PowerFlowOptions | None = None) -> PowerFlowSolution:
    """Solve the AC power flow of ``case`` by Newton iteration.

    Reactive generator limits are checked after convergence; violating PV
    buses are converted to PQ at the binding limit and the problem re-solved,
    for at most five passes.  Raises a :class:`~gridscreen.errors.PowerFlowError`
    subclass on numerical failure, and ``ValueError`` before any work for a
    ``tol`` not finite and positive, a ``max_iter`` that is not a
    non-negative integer (``bool`` included), an unknown ``start``, or
    ``start="state"`` without an ``initial_state`` of length at least 2n.
    """
    options = options or PowerFlowOptions()
    if not 0 < options.tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {options.tol}")
    if type(options.max_iter) is bool or not isinstance(options.max_iter, (int, np.integer)) or options.max_iter < 0:
        raise ValueError(f"max_iter must be a non-negative integer, got {options.max_iter!r}")
    if options.start not in ("flat", "file", "state"):
        raise ValueError(f"unknown start mode {options.start!r}; choose from 'flat', 'file', 'state'")
    if options.start == "state" and (options.initial_state is None or len(options.initial_state) < 2 * case.n):
        raise ValueError("start='state' requires an initial_state of length >= 2n")
    case.validate()
    ybus = build_ybus(case)
    problem = _NewtonProblem(case, ybus)
    problem, x, total_iterations, mismatch = _newton(problem, problem.initial_state(options), options)
    q_pinned = problem.q_pinned

    n = case.n
    v = state_to_complex(x, n)
    kinds = _bus_kinds(case.buses)
    own = kinds != BusKind.PQ
    own[problem.slack] = True
    pinned = np.fromiter(q_pinned, dtype=np.int64, count=len(q_pinned))
    own[pinned] = True
    kinds[pinned] = int(BusKind.PQ)
    # the reactive power of the constant-current loads, Im(v * conj(i_load)),
    # multiplied as NumPy multiplies two complex scalars: its array product
    # may fuse the parts into other bits
    i_load_conj = np.conj(-problem.i_fix)
    q_current = v.real * i_load_conj.imag + v.imag * i_load_conj.real
    s_net = v * np.conj(ybus.matrix @ v)
    q_gen = np.where(own, s_net.imag + np.array([b.q_load for b in case.buses], dtype=float) + q_current, 0.0)

    return PowerFlowSolution(
        case=case,
        options=options,
        state=x[: 2 * n].copy(),
        q_gen=q_gen,
        iterations=total_iterations,
        max_mismatch=mismatch,
        kinds_effective=kinds,
        q_limited=dict(q_pinned),
        ybus=ybus,
        _problem=problem,
    )


# -- the converged-iteration linear model -------------------------------------


@dataclass
class LinearizedSystem:
    """LU-factorized linear network model taken at a converged solution.

    ``mode="full"`` keeps the complete Newton matrix, so constant-power and
    PV devices respond to perturbations through their linearized stamps.
    ``mode="network"`` keeps only the expanded admittance matrix with the
    devices frozen as constant current sources.  Both share the row layout:
    rows ``2k``/``2k+1`` are the current balance of bus ``k`` for every bus
    but ``slack``, whose two rows pin its rectangular voltage, and in full
    mode one magnitude row per PV bus follows.  ``x_op`` is the operating
    point, so ``matrix @ x_op`` is the right-hand side it solves exactly.
    """

    mode: str
    case: GridCase
    n: int
    size: int
    matrix: sp.csc_matrix
    x_op: np.ndarray
    slack: int
    _lu: object = field(repr=False)
    # a solution's baseline and the read-only rows by outage of an engine
    # pass of it, (cond, injection, delta_state, delta_vmag, delta_imag,
    # delta_p) each (see ``sensitivity._impact_chunks``); a replace has none
    _rows: tuple[object, dict[int, tuple]] | None = field(default=None, init=False, repr=False, compare=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


def linearize_at_solution(sol: PowerFlowSolution, mode: str = "full") -> LinearizedSystem:
    """Extract the linear model of the final Newton iteration at the solution's state.

    Full mode returns the solution's own model, which every later call, the
    screen and the oracle share, so do not mutate it; network mode builds a
    new model on each call.  A model of either mode keeps the rows of an
    engine pass over at most 128 terminal buses, such as a case118 screen's,
    monitors included, and a later query of the same solution copies its
    row there instead of solving or computing its monitors; both give the
    same bits.
    """
    if mode == "full":
        return sol._model
    if mode == "network":
        return _network_system(sol.case, sol.ybus.matrix, sol._problem.slack, sol.state.copy())
    raise ValueError(f"unknown linearization mode {mode!r}")


def _network_system(case: GridCase, ybus: sp.spmatrix, slack: int, x_op: np.ndarray) -> LinearizedSystem:
    """Network-mode model of ``ybus``: the pinned admittance matrix alone."""
    matrix = _pinned_network(ybus, slack).tocsc()
    return _factorized_system("network", case, matrix, x_op, slack)


def _factorized_system(
    mode: str, case: GridCase, matrix: sp.csc_matrix, x_op: np.ndarray, slack: int
) -> LinearizedSystem:
    """Factor ``matrix`` into a linear model of the operating point ``x_op``."""
    try:
        lu = splu(matrix)
    except RuntimeError as exc:
        raise SingularSystemError(f"singular operating-point model: {exc}") from exc
    return LinearizedSystem(
        mode=mode,
        case=case,
        n=case.n,
        size=matrix.shape[0],
        matrix=matrix,
        x_op=x_op,
        slack=slack,
        _lu=lu,
    )


# -- branch quantities ---------------------------------------------------------


@dataclass
class BranchTerminalCurrents:
    """Complex currents entering one branch at its two terminals."""

    branch: int
    i_from: complex
    i_to: complex

    @property
    def vector(self) -> np.ndarray:
        """Interleaved real form ``[Ifr, Ifi, Itr, Iti]``."""
        return np.array([self.i_from.real, self.i_from.imag, self.i_to.real, self.i_to.imag])


def branch_terminal_currents(sol: PowerFlowSolution, branch_idx: int) -> BranchTerminalCurrents:
    """Currents flowing into branch ``branch_idx`` from each terminal bus."""
    _closed_branch(sol.case, branch_idx)
    ifr, ifi, itr, iti = sol._baseline.i_terminal[branch_idx]
    return BranchTerminalCurrents(branch_idx, complex(ifr, ifi), complex(itr, iti))


@dataclass
class BranchFlows:
    """Per-branch complex power entering each terminal (zeros for open branches)."""

    p_from: np.ndarray
    q_from: np.ndarray
    p_to: np.ndarray
    q_to: np.ndarray


def branch_power_flows(sol: PowerFlowSolution) -> BranchFlows:
    yb = sol.ybus
    v = sol.v_complex
    vf = v[yb.from_idx]
    vt = v[yb.to_idx]
    s_from = vf * np.conj(yb.yff * vf + yb.yft * vt)
    s_to = vt * np.conj(yb.ytf * vf + yb.ytt * vt)
    return BranchFlows(s_from.real, s_from.imag, s_to.real, s_to.imag)


@dataclass
class PowerBalance:
    p_generation: float
    p_load: float
    p_series_loss: float
    p_shunt_loss: float

    @property
    def residual(self) -> float:
        return self.p_generation - self.p_load - self.p_series_loss - self.p_shunt_loss


def power_balance(sol: PowerFlowSolution) -> PowerBalance:
    """Active power accounting at the solution; ``residual`` should be ~0."""
    case = sol.case
    v = sol.v_complex
    i_load = np.array([complex(b.i_load_r, b.i_load_i) for b in case.buses])
    p_load = sum(b.p_load for b in case.buses) + float((v * np.conj(i_load)).real.sum())
    p_gen = float(sol.p_inj.sum()) + p_load
    flows = branch_power_flows(sol)
    p_series = float((flows.p_from + flows.p_to).sum())
    vmag2 = np.abs(v) ** 2
    p_shunt = float(sum(b.g_shunt * vmag2[k] for k, b in enumerate(case.buses)))
    return PowerBalance(p_gen, p_load, p_series, p_shunt)
