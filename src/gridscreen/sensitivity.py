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

One engine evaluates outages in blocks.  The outages are sorted by terminal
bus, so that neighbours in a block share terminals, and one engine pass
solves the linear model once per distinct terminal bus: a block solves only
the buses that no earlier block left in the pass's slot array, and each bus
keeps its two response columns there from its first use to its last.  The
block then stacks the transfer matrices, the injections and the monitors.
What does not depend on the pass is built once: the terminal state rows and
4x4 current blocks of every branch per admittance matrix (its branch
table), and the pre-outage currents, the zero-voltage guard and the parts
the monitors read per solution.  The screen and the CLI's ``sens`` read the
engine's blocks, and the engine pass keeps nothing; ``sens`` computes only
the quantity it prints.  The screen's pass, over at most ``_LIVE_BUSES``
distinct terminal buses, keeps on the model each outage's row, one
read-only buffer of its injection, pre-outage currents, state change and
three monitors.  A single-outage query, :func:`evaluate_outage`, the one
builder of an :class:`OutageImpact` and the one reader of those rows, runs
no engine pass: where the model keeps the outage's row, it copies that
buffer once and returns slices of the copy; otherwise it takes the
engine's bus solve and floating-point operations for its row on plain 4x4
and (2n, 4) arrays, so every caller gets the same numbers for the same
outage.
The terminal solves release the interpreter lock and run ahead on a small
thread pool (one worker per usable CPU; none for a single block); the rest
of each block, the copy of its solved columns into the slot array included,
runs on the calling thread, in block order, so results do not depend on the
number of workers.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .case_io import AdmittanceMatrix, GridCase, _branch_blocks, _branch_stamps, _closed_branch, build_ybus
from .errors import IslandingError, SingularSystemError
from .powerflow import (
    BranchTerminalCurrents,
    LinearizedSystem,
    PowerFlowSolution,
    _network_system,
    state_to_complex,
)

# transfer matrices above this condition number are treated as singular
COND_LIMIT = 1e12

# outages per block of the outage engine
_CHUNK = 32

# the identity the transfer matrices start from
_EYE4 = np.eye(4)
_EYE4.flags.writeable = False

# terminal buses whose response columns one engine pass keeps at a time; a
# block has at most 2 * _CHUNK, and a bus pushed out by this bound is solved
# again at its next use.  The model keeps the rows of an impact pass over at
# most this many
_LIVE_BUSES = 4 * _CHUNK

# monitored quantity each severity metric reads
_METRIC_QUANTITY = {"vmag_inf": "vmag", "vmag_2": "vmag", "imag_inf": "imag", "pline_inf": "pline"}
_QUANTITIES = ("vmag", "imag", "pline")

SEVERITY_METRICS = tuple(_METRIC_QUANTITY)


@dataclass
class InjectionSensitivity:
    """Voltage response columns for unit current injections at a branch's terminals.

    Column order is ``[from_real, from_imag, to_real, to_imag]``.  Columns
    belonging to a slack terminal are identically zero: the slack absorbs
    any injected current without a voltage response.
    """

    branch: int
    dv: np.ndarray  # (2n, 4) voltage part of the response


def _bus_solve(lin: LinearizedSystem, buses: list[int]) -> np.ndarray:
    """Responses (size, 2k) of ``lin`` to unit current injections at ``buses``.

    Bus ``buses[p]`` gets columns ``2p`` (real injection) and ``2p + 1``
    (imaginary injection); those of a slack bus are zero, because the slack
    absorbs any injected current without a voltage response.  SuperLU
    passes the right-hand sides to BLAS, which rounds a column in a last,
    partial group of four columns differently from one in a full group; a
    zero pair fills that group, so that a bus's columns have the same bits
    whatever else is solved with them, and a block of outages gives the
    bits of each outage alone.
    """
    k = 2 * len(buses)
    rhs = np.zeros((lin.size, k + k % 4), order="F")  # SuperLU's own layout: no copy to convert
    for p, b in enumerate(buses):
        if b != lin.slack:
            rhs[2 * b, 2 * p] = rhs[2 * b + 1, 2 * p + 1] = 1.0
    return lin.solve(rhs)[:, :k] if buses else rhs


def injection_sensitivity(lin: LinearizedSystem, branch_idx: int) -> InjectionSensitivity:
    """Solve the linear model for the four terminal injection directions."""
    case = lin.case
    _closed_branch(case, branch_idx)
    br = case.branches[branch_idx]
    terminals = [case.bus_index(br.from_bus), case.bus_index(br.to_bus)]
    return InjectionSensitivity(branch=branch_idx, dv=_bus_solve(lin, terminals)[: 2 * lin.n, :])


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


def branch_current_jacobian(case: GridCase, branch_idx: int) -> BranchCurrentJacobian:
    _closed_branch(case, branch_idx)
    br = case.branches[branch_idx]
    ends = (np.array([case.bus_index(br.from_bus)]), np.array([case.bus_index(br.to_bus)]))
    rows, blocks = _branch_blocks(*ends, *_branch_stamps((br,)))
    return BranchCurrentJacobian(branch=branch_idx, rows=rows[0], block=blocks[0])


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
        return bool(_singular(self.cond))


def _singular(cond):
    """The singularity rule for transfer-matrix condition numbers (scalar or array).

    Infinite and NaN condition numbers count as singular.
    """
    return np.logical_not(cond <= COND_LIMIT)


def _islanding_error(branch: int, cond: float) -> IslandingError:
    return IslandingError(
        f"outage transfer matrix of branch {branch} is singular "
        f"(cond {cond:.3e}); the outage islands part of the network"
    )


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
        raise _islanding_error(tm.branch, tm.cond)
    pre = i_pre.vector if isinstance(i_pre, BranchTerminalCurrents) else np.asarray(i_pre, dtype=float)
    return np.linalg.solve(tm.t, pre)


# -- the outage engine -------------------------------------------------------------


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _ordered_map(fn: Callable, items: list) -> Iterator:
    """``map(fn, items)`` in order, with the calls running ahead on a thread pool.

    The pool has one worker per usable CPU, at most one per item, and at
    most one result more than it has workers is in flight (submitted and not
    yet taken).  With one item or one usable CPU the calls run inline and no
    pool is made.  An exception, or a consumer that stops early, cancels the
    calls not yet started, and the pool waits for the running ones.
    """
    workers = min(_usable_cpus(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for item in items:
                pending.append(pool.submit(fn, item))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _slot_plan(
    lin: LinearizedSystem, f: np.ndarray, t: np.ndarray
) -> tuple[list[tuple[list[int], list[int], np.ndarray]], int]:
    """Which buses each block of an engine pass solves, and where their columns live.

    ``f`` and ``t`` (c,) hold the from and to bus of each outage, in engine
    order; block ``b`` holds outages ``b * _CHUNK`` up to ``(b + 1) *
    _CHUNK``.  Every non-slack terminal bus gets a slot, two columns of one
    slot array, from its first use to its last; a freed slot is reused.
    Column 0 of that array is zero and serves every slack terminal, because
    the slack absorbs any injected current without a voltage response; slot
    ``s`` is columns ``1 + 2s`` and ``2 + 2s``.  Returns one ``(new, at,
    cols)`` per block and the number of slots: the buses the block solves,
    the slot-array columns their responses go to, and each outage's four
    columns (c, 4) for the directions ``[from_real, from_imag, to_real,
    to_imag]``.  A block with an odd number of new buses also solves one bus
    of the next block, so that its solve fills whole groups of four columns
    (see :func:`_bus_solve`).  With ``_LIVE_BUSES`` slots taken, the bus not
    in the block whose next use is furthest away loses its slot and is
    solved again at that use.  A single block takes slots ``0, 1, ...`` in
    bus order.
    """
    pairs = list(zip(f.tolist(), t.tolist()))
    blocks = [pairs[start : start + _CHUNK] for start in range(0, len(pairs), _CHUNK)]
    slack = {lin.slack}
    buses = [sorted(set(chain.from_iterable(block)) - slack) for block in blocks]
    later: dict[int, list[int]] = {}  # bus -> the blocks that still use it, the next one last
    for j in range(len(buses) - 1, -1, -1):
        for b in buses[j]:
            later.setdefault(b, []).append(j)
    live: dict[int, int] = {}  # bus -> slot
    free: list[int] = []
    plan = []
    for j, (block, block_buses) in enumerate(zip(blocks, buses)):
        new = [b for b in block_buses if b not in live]
        if len(new) % 2 and j + 1 < len(buses):
            new += [b for b in buses[j + 1] if b not in live and b not in new][:1]
        for b in new:
            if free:
                live[b] = free.pop()
            elif len(live) < _LIVE_BUSES:
                live[b] = len(live)
            else:
                idle = set(live).difference(block_buses)
                live[b] = live.pop(max(idle, key=lambda v: (later[v][-1], v)))
        at = [c for b in new for c in (1 + 2 * live[b], 2 + 2 * live[b])]
        plan.append((new, at, _columns(block, block_buses, live)))
        for b in block_buses:
            uses = later[b]
            uses.pop()
            if not uses:
                free.append(live.pop(b))
    return plan, len(free)  # every bus is freed after its last use


def _columns(block: list[tuple[int, int]], block_buses: list[int], live: dict[int, int]) -> np.ndarray:
    """The four slot-array columns (c, 4) of each outage ``(f, t)`` of ``block``, the buses in slots ``live``."""
    col = {b: (1 + 2 * live[b], 2 + 2 * live[b]) for b in block_buses}
    return np.array([col.get(a, (0, 0)) + col.get(b, (0, 0)) for a, b in block], dtype=np.int64)


def _transfer_chunks(
    lin: LinearizedSystem, case: GridCase, outages: Iterable[int], ybus: AdmittanceMatrix
) -> Iterator[tuple[np.ndarray, ...]]:
    """Transfer matrices of ``outages``, in blocks that share terminal solves.

    Outages are sorted by terminal buses and cut into blocks of up to
    ``_CHUNK``, and the pass solves ``lin`` once per distinct non-slack
    terminal bus, in the first block that uses it (see :func:`_slot_plan`).
    ``SuperLU.solve`` releases the interpreter lock, so these solves run
    ahead on a thread pool of one worker per usable CPU (inline for one
    block or one CPU); the blocks are yielded in order and the results do
    not depend on the worker count.  The branch rows and blocks are those
    of the branch table of ``ybus``, the admittance matrix of ``case``,
    built once per matrix.  Yields
    ``(idx, rows, blocks, resp, cols, t, cond)`` per block: the outages
    (c,), their terminal state rows (c, 4) and branch blocks
    ``B_k`` (c, 4, 4) (see :class:`BranchCurrentJacobian`); ``resp``, the
    pass's slot array (size, k) of terminal responses, and ``cols`` (c, 4),
    the columns of ``resp`` that hold each outage's responses to unit
    injections ``[from_real, from_imag, to_real, to_imag]`` (a zero column
    at a slack terminal); the transfer matrices ``I - B_k dv[rows]``
    (c, 4, 4) and their condition numbers (c,).  ``resp`` is reused: it
    holds this block's columns only until the next block is requested.
    """
    outages = list(outages)
    for k in outages:  # before any conversion: 3.7 and True are no branch indices
        _closed_branch(case, k)
    idx = np.array(outages, dtype=np.int64)
    if len(idx) > 1:
        f, to = ybus.from_idx[idx], ybus.to_idx[idx]
        idx = idx[np.lexsort((np.maximum(f, to), np.minimum(f, to)))]  # stable
    f, to = ybus.from_idx[idx], ybus.to_idx[idx]
    table_rows, table_blocks = ybus._branch_table
    rows, blocks = table_rows[idx], table_blocks[idx]
    plan, n_slots = _slot_plan(lin, f, to)
    resp = np.zeros((lin.size, 1 + 2 * n_slots), order="F")
    solves = _ordered_map(lambda new: _bus_solve(lin, new), [new for new, _, _ in plan])
    with closing(solves):
        for start, (_, at, cols), solved in zip(range(0, len(idx), _CHUNK), plan, solves):
            resp[:, at] = solved
            block = slice(start, start + _CHUNK)
            at_terminals = resp[rows[block, :, None], cols[:, None, :]]  # dv[rows, :] of each outage
            t = _EYE4 - blocks[block] @ at_terminals
            yield idx[block], rows[block], blocks[block], resp, cols, t, np.linalg.cond(t)


@dataclass
class _ImpactChunk:
    """Engine results for a block of outages; row ``i`` describes ``outages[i]``.

    Rows of singular outages hold NaN, and monitors not asked for are None.
    """

    outages: np.ndarray  # (c,)
    cond: np.ndarray  # (c,)
    singular: np.ndarray  # bool (c,)
    injection: np.ndarray  # (c, 4)
    delta_state: np.ndarray  # (c, 2n)
    delta_vmag: np.ndarray | None  # (c, n)
    delta_imag: np.ndarray | None  # (c, m)
    delta_p: np.ndarray | None  # (c, m)


def _monitors(
    sol: PowerFlowSolution,
    delta_state: np.ndarray,
    outages: np.ndarray,
    quantities: tuple[str, ...],
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Chain-rule changes of the monitors for rows of voltage state changes.

    Row ``i`` of ``delta_state`` (c, 2n) is the voltage change of removing
    branch ``outages[i]``.  Returns ``(delta_vmag, delta_imag, delta_p)``,
    (c, n), (c, m) and (c, m), the branch ones on the from side; a quantity
    not in ``quantities`` is None.  Each row's own outage column follows the
    removed-branch convention: its current change is the negated pre-outage
    current.  A closed branch that carries (almost) no current has no
    directional derivative of |I|; its |I| change is the magnitude of its
    current change instead.  Open branches read 0.  With ``"vmag"`` asked
    for, no bus voltage may be zero; :func:`_impact_chunks` checks that.
    The sums and quotients are taken in place, in the order the formulas
    give them, and steps that would change nothing are skipped.
    """
    base = sol._baseline
    yb = sol.ybus
    delta_vmag = delta_imag = delta_p = None
    if "vmag" in quantities:
        # the real and imaginary parts straight from the interleaved rows
        delta_vmag = base.v_re * delta_state[:, 0::2]
        delta_vmag += base.v_im * delta_state[:, 1::2]
        delta_vmag /= base.v_mag
    if "imag" in quantities or "pline" in quantities:
        dvc = state_to_complex(delta_state)
        dv_from = dvc.take(yb.from_idx, axis=1)
        di_from = yb.yff * dv_from
        di_from += yb.yft * dvc.take(yb.to_idx, axis=1)
        di_from[np.arange(len(outages)), outages] = -base.i_from[outages]
        if "imag" in quantities:
            delta_imag = base.i_from_re * di_from.real
            delta_imag += base.i_from_im * di_from.imag
            delta_imag /= base.safe_mag
            if base.any_tiny:
                delta_imag = np.where(base.tiny, np.abs(di_from), delta_imag)
            if len(base.opened):
                delta_imag[:, base.opened] = 0.0
        if "pline" in quantities:
            # the last use of di_from: its conjugate and product go in its place
            dp_from = dv_from * base.i_from_conj
            np.conjugate(di_from, out=di_from)
            np.multiply(base.v_from, di_from, out=di_from)
            delta_p = np.add(dp_from.real, di_from.real)
            if len(base.opened):
                delta_p[:, base.opened] = 0.0
    return delta_vmag, delta_imag, delta_p


def _require_model_of(sol: PowerFlowSolution, lin: LinearizedSystem) -> None:
    """Raise ``ValueError`` unless ``lin`` is a model of ``sol``: of its case, at its state bit for bit."""
    if not (lin.case is sol.case or lin.case == sol.case) or lin.x_op[: 2 * sol.n].tobytes() != sol.state.tobytes():
        raise ValueError("the linear model is not taken at this solution")


def _require_voltage(base) -> None:
    """Raise ``ValueError`` at a zero-voltage bus, where |V| is not differentiable."""
    if base.zero_voltage:
        raise ValueError("voltage magnitude is zero at some bus; |V| is not differentiable")


def _impact_chunks(
    sol: PowerFlowSolution,
    lin: LinearizedSystem,
    outages: Iterable[int],
    quantities: tuple[str, ...] = _QUANTITIES,
    chunks: Iterator[tuple[np.ndarray, ...]] | None = None,
) -> Iterator[_ImpactChunk]:
    """First-order impacts of ``outages`` block by block, monitoring only ``quantities``.

    The pre-outage currents of a block solve its stacked transfer matrices
    for the equivalent injections; singular matrices are replaced by the
    identity for that solve and their rows set to NaN.  Those currents and
    the |I| fallback flags stay on ``sol._baseline``.  ``chunks``, where
    given, is the engine pass over ``outages`` on ``lin`` to read (see
    :func:`_transfer_chunks`), so that another stage can share it; by
    default the impacts make their own.  Monitoring ``"vmag"`` at a
    zero-voltage bus, where |V| is not differentiable, raises
    ``ValueError`` before any solve.  The pass keeps nothing: the screen's
    pass, :func:`_outage_severities`, keeps rows for later queries, and the
    CLI's ``sens`` computes only the quantity it prints.
    """
    base = sol._baseline
    if "vmag" in quantities:
        _require_voltage(base)
    n2 = 2 * sol.n
    if chunks is None:
        chunks = _transfer_chunks(lin, sol.case, outages, sol.ybus)
    with closing(chunks):
        for idx, _, _, resp, cols, t, cond in chunks:
            singular = _singular(cond)
            masked = singular.any()
            if masked:
                t = np.where(singular[:, None, None], _EYE4, t)
            injection = np.linalg.solve(t, base.i_terminal[idx][..., None])[..., 0]
            if masked:
                injection[singular] = np.nan
            # each outage's four response columns times its injection, stacked
            delta_state = np.matmul(resp[:n2, cols].transpose(1, 0, 2), injection[..., None])[..., 0]
            monitors = _monitors(sol, delta_state, idx, quantities)
            yield _ImpactChunk(idx, cond, singular, injection, delta_state, *monitors)


def _outage_severities(
    sol: PowerFlowSolution,
    lin: LinearizedSystem,
    outages: list[int],
    metric: str,
    chunks: Iterator[tuple[np.ndarray, ...]] | None = None,
) -> dict[int, float]:
    """Severities by outage index under ``metric``, the screen's impact pass.

    Outages with a singular transfer matrix are left out.  ``outages`` are
    closed branches of ``sol.case``, and ``chunks`` is that of
    :func:`_impact_chunks`.  A pass over at most ``_LIVE_BUSES`` non-slack
    terminal buses of a solution with no zero-voltage bus keeps its rows:
    it monitors all of ``_QUANTITIES``, whatever ``metric`` reads, and once
    it ends it replaces what ``lin`` kept by the baseline of ``sol`` and
    ``(cond, row)`` of each nonsingular outage.  ``row`` is one read-only
    float64 buffer, ``[injection (4), i_pre (4), delta_state (2n),
    delta_vmag (n), delta_imag (m), delta_p (m)]``, a row of one
    ``np.concatenate`` per block; :func:`evaluate_outage` copies it.  Any
    other pass monitors only what ``metric`` reads and keeps nothing.
    """
    base = sol._baseline
    closed = base.closed
    ends = set(sol.ybus.from_idx[outages].tolist()) | set(sol.ybus.to_idx[outages].tolist())
    kept = {} if len(ends - {lin.slack}) <= _LIVE_BUSES and not base.zero_voltage else None  # rows by outage
    quantities = _QUANTITIES if kept is not None else (_METRIC_QUANTITY[metric],)
    severities = {}
    for chunk in _impact_chunks(sol, lin, outages, quantities, chunks):
        ok = np.flatnonzero(~chunk.singular).tolist()
        values = _severities(metric, chunk.delta_vmag, chunk.delta_imag, chunk.delta_p, chunk.outages, closed)
        severities.update(zip(chunk.outages[ok].tolist(), values[ok].tolist()))
        if kept is not None:
            # one copy per block, which the severities do not read; each kept row is a view of it
            monitors = chunk.delta_vmag, chunk.delta_imag, chunk.delta_p
            table = np.concatenate(
                (chunk.injection, base.i_terminal[chunk.outages], chunk.delta_state, *monitors), axis=1
            )
            table.flags.writeable = False
            kept.update(zip(chunk.outages[ok].tolist(), zip(chunk.cond[ok].tolist(), map(table.__getitem__, ok))))
    if kept is not None:
        lin._rows = (base, kept)
    return severities


@dataclass
class OutageImpact:
    """First-order impact of one line outage on every monitored quantity.

    :func:`evaluate_outage` builds it, in fresh arrays; an all-branches run
    reads the engine's blocks instead, which hold the same numbers.
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


def evaluate_outage(sol: PowerFlowSolution, lin: LinearizedSystem, outage: int) -> OutageImpact:
    """Predict the impact of removing one closed branch.

    No engine pass: where ``lin`` keeps the outage's row for ``sol`` (see
    :func:`_outage_severities`), as after a case14 or case118 ``screen``
    but not after the CLI's ``sens``, which keeps none, that one buffer is
    copied once and the impact's arrays are slices of the copy, fresh,
    writeable and not overlapping (``imag_fallback`` is its own copy), and
    nothing is computed; else one :func:`_bus_solve` of its
    two terminal buses (unit injections ``[from_real, from_imag, to_real,
    to_imag]``, zero at a slack terminal), the 4x4 transfer system and the
    monitors, the floating-point operations of the engine's row, so the
    screen gets the same numbers.
    Raises :class:`IslandingError` when the outage would disconnect the
    network (singular transfer matrix), ``ValueError`` for an out-of-range or
    open branch or, where it solves, for a ``lin`` that is not a model of
    ``sol`` (a kept row was made by a pass of that same pair), and
    ``TypeError`` when ``outage`` is not a Python or NumPy integer (``bool``
    included).
    """
    base = sol._baseline
    _require_voltage(base)
    _closed_branch(sol.case, outage)
    kept = lin._rows
    row = kept[1].get(outage) if kept is not None and kept[0] is base else None
    if row is not None:  # slices of one fresh copy of the read-only row
        cond, row = row
        row = row.copy()
        v = 8 + 2 * sol.n  # where delta_vmag starts, then delta_imag and delta_p
        i = v + sol.n
        p = i + len(base.tiny)
        parts = row[:4], row[4:8], cond, row[8:v], row[v:i], row[i:p], row[p:]
        return OutageImpact(int(outage), *parts, base.tiny.copy())
    _require_model_of(sol, lin)
    w = _bus_solve(lin, [sol.ybus.from_idx[outage], sol.ybus.to_idx[outage]])
    table_rows, table_blocks = sol.ybus._branch_table
    t = _EYE4 - table_blocks[outage] @ w[table_rows[outage]]
    cond = float(np.linalg.cond(t))
    if _singular(cond):
        raise _islanding_error(int(outage), cond)
    injection = np.linalg.solve(t, base.i_terminal[outage])
    delta_state = w[: 2 * sol.n] @ injection
    monitors = (rows[0] for rows in _monitors(sol, delta_state[None], np.array([outage]), _QUANTITIES))
    i_pre = base.i_terminal[outage].copy()
    return OutageImpact(int(outage), injection, i_pre, cond, delta_state, *monitors, base.tiny.copy())


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
    rows = (None if deltas is None else np.asarray(deltas)[None] for deltas in (delta_vmag, delta_imag, delta_p))
    return float(_severities(metric, *rows, np.array([outage]), closed)[0])


def _severities(
    metric: str,
    delta_vmag: np.ndarray | None,
    delta_imag: np.ndarray | None,
    delta_p: np.ndarray | None,
    outages: np.ndarray,
    closed: np.ndarray,
) -> np.ndarray:
    """Severities (c,) of rows of monitor changes, row ``i`` for removing ``outages[i]``.

    The rows are those of :class:`_ImpactChunk`; see
    :func:`severity_from_deltas` for the metrics.
    """
    if metric == "vmag_inf":
        return np.max(np.abs(delta_vmag), axis=1)
    if metric == "vmag_2":
        # a norm along an axis does not sum like the norm of one row
        return np.array([np.linalg.norm(row) for row in delta_vmag])
    if metric in ("imag_inf", "pline_inf"):
        deltas = delta_imag if metric == "imag_inf" else delta_p
        others = np.tile(closed, (len(outages), 1))
        others[np.arange(len(outages)), outages] = False
        worst = np.where(others, np.abs(deltas), -np.inf).max(axis=1, initial=-np.inf)
        return np.where(others.any(axis=1), worst, 0.0)
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


def circuit_lodf(sol: PowerFlowSolution, lin: LinearizedSystem, outage: int) -> CircuitLodfResult:
    """AC line outage distribution factors of removing one closed branch.

    The power changes are those of :func:`evaluate_outage`, whose errors
    this raises: :class:`IslandingError` for an islanding outage,
    ``ValueError`` for an out-of-range or open branch and ``TypeError``
    when ``outage`` is not a Python or NumPy integer (``bool`` included).
    """
    base = sol._baseline
    impact = evaluate_outage(sol, lin, outage)
    p_ref = base.p_from[outage]
    if abs(p_ref) < 1e-12:
        ratio = np.full(len(impact.delta_p), np.nan)
    else:
        ratio = impact.delta_p / p_ref
        ratio[~base.closed] = np.nan
    return CircuitLodfResult(outage=outage, dp=impact.delta_p, ratio=ratio, p_pre=base.p_from)


# -- islanding detection via transfer-matrix rank --------------------------------


def singular_outage_branches(case: GridCase) -> set[int]:
    """Closed branches whose removal makes the series connection network singular.

    The test runs on the pure series network at nominal ratios, where the
    transfer matrix of a branch loses rank exactly when the branch is a cut
    of the connected network.  That network is a copy of the case without
    bus shunts, line charging, off-nominal taps or phase shifts, in network
    mode (devices absent, slack voltage pinned).  Shunt and device stamps,
    and the circulating current of a transformer loop whose ratios do not
    multiply to one, can keep an islanded block invertible, so this topology
    question is asked of the topology-only model.  The outage engine builds
    the transfer matrices, and the singularity rule is that of
    :class:`OutageTransferMatrix`.
    """
    case.validate()
    series = replace(
        case,
        buses=tuple(replace(bus, g_shunt=0.0, b_shunt=0.0) for bus in case.buses),
        branches=tuple(replace(br, b_charging=0.0, tap=1.0, shift=0.0) for br in case.branches),
    )
    ybus = build_ybus(series)
    try:
        lin = _network_system(series, ybus.matrix, series.slack_index(), np.zeros(2 * series.n))
    except SingularSystemError as exc:
        raise SingularSystemError(
            "series connection network is singular; the case is likely disconnected"
        ) from exc
    closed = [idx for idx, br in enumerate(series.branches) if br.closed]
    return {int(k) for idx, *_, cond in _transfer_chunks(lin, series, closed, ybus) for k in idx[_singular(cond)]}
