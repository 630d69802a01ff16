"""N-1 line outage screening, ranking, and oracle comparison.

Screening evaluates the first-order impact of every single closed-branch
outage from one factorized operating-point model, ranks the outages by a
scalar severity metric, and (optionally) re-solves the full nonlinear power
flow per outage to measure how faithful the ranking is.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from .case_io import GridCase, _branch_index, _closed_branch, _without_branch
from .errors import PowerFlowError, SingularSystemError
from .powerflow import (
    LinearizedSystem,
    PowerFlowSolution,
    _newton,
    _NewtonProblem,
    linearize_at_solution,
    solve_ac_powerflow,
    state_to_complex,
)
from .sensitivity import (
    _METRIC_QUANTITY,
    _QUANTITIES,
    SEVERITY_METRICS,
    _outage_severities,
    _require_model_of,
    _severities,
    _singular,
    _transfer_chunks,
)

logger = logging.getLogger(__name__)

__all__ = [
    "OracleOutcome",
    "ScreenEntry",
    "ComparisonSummary",
    "ScreeningReport",
    "find_bridges",
    "is_connected",
    "oracle_outage",
    "screen",
    "compare_severities",
]

_TOP_OVERLAP_SIZES = (3, 5, 10)


# -- graph topology ---------------------------------------------------------------


def _adjacency(case: GridCase, skip_branch: int | None = None) -> list[list[tuple[int, int]]]:
    """Closed-branch adjacency as ``bus -> [(neighbor, branch_idx), ...]``."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(case.n)]
    for idx, br in enumerate(case.branches):
        if not br.closed or idx == skip_branch:
            continue
        f = case.bus_index(br.from_bus)
        t = case.bus_index(br.to_bus)
        adj[f].append((t, idx))
        adj[t].append((f, idx))
    return adj


def is_connected(case: GridCase, skip_branch: int | None = None) -> bool:
    """Whether all buses are reachable over closed branches (optionally skipping one).

    A ``skip_branch`` that is not an integer raises ``TypeError``, one out of
    range ``ValueError``.
    """
    if skip_branch is not None:
        _branch_index(case, skip_branch)
    adj = _adjacency(case, skip_branch)
    seen = [False] * case.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        k = stack.pop()
        for nb, _ in adj[k]:
            if not seen[nb]:
                seen[nb] = True
                count += 1
                stack.append(nb)
    return count == case.n


def find_bridges(case: GridCase) -> set[int]:
    """Indices of closed branches whose removal disconnects the network.

    Iterative depth-first lowpoint search.  Parallel branches are tracked by
    branch index, so one circuit of a double circuit is never a bridge.
    """
    adj = _adjacency(case)
    n = case.n
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    counter = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # each frame: (bus, branch used to enter, iterator position)
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            k, in_branch, pos = stack.pop()
            if pos < len(adj[k]):
                stack.append((k, in_branch, pos + 1))
                nb, br = adj[k][pos]
                if br == in_branch:
                    continue
                if disc[nb] == -1:
                    disc[nb] = low[nb] = counter
                    counter += 1
                    stack.append((nb, br, 0))
                else:
                    low[k] = min(low[k], disc[nb])
            else:
                if in_branch != -1:
                    # k is fully explored; fold its lowpoint into its parent
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[k])
                    if low[k] > disc[parent]:
                        bridges.add(in_branch)
    return bridges


# -- nonlinear oracle --------------------------------------------------------------


@dataclass
class OracleOutcome:
    """Result of re-solving the nonlinear power flow with one branch removed."""

    branch: int
    islanded: bool
    converged: bool
    delta_vmag: np.ndarray | None = None
    delta_imag: np.ndarray | None = None
    delta_p: np.ndarray | None = None
    detail: str = ""


# Broyden's iteration need not shrink the max-norm mismatch every step, so
# an outage leaves it, for the full Newton path, only once its mismatch has
# set no new minimum for this many consecutive steps (or is not finite)
_CHORD_PATIENCE = 2


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (c, size) stacks; each row's sum is its own."""
    return np.einsum("ij,ij->i", a, b)


# state entries (rows times model size) a Broyden group of the oracle holds
# at most, unless one engine block alone holds more: all 177 case118 rows
# (289 entries each) form one group, while a 944-bus model (2319 entries a
# row) iterates one engine block at a time
_GROUP_ENTRIES = 2**16


@dataclass
class _ChordBlock:
    """Post-outage systems of outages at the oracle's base state.

    One engine block's outages, or a Broyden group of them (:meth:`joined`).
    Row ``i`` describes outage ``outages[i]``: its terminal state rows
    ``rows[i]``, its branch block ``B_k`` with the rows of a slack terminal
    zeroed, ``stamps[i]`` (those rows hold the voltage pins), and the
    rank-4 compensation ``compensation[i] = W_k T_k^-1 B_k`` (size, 4) of
    the base LU, where ``W_k`` are the responses of ``J0`` to unit currents
    at the branch terminals (zero at a slack terminal) and ``T_k`` is the
    transfer matrix of the outage engine on ``J0``.
    """

    layout: _NewtonProblem
    lin: LinearizedSystem
    outages: np.ndarray  # (c,)
    rows: np.ndarray  # (c, 4)
    stamps: np.ndarray  # (c, 4, 4)
    compensation: np.ndarray  # (c, size, 4)

    def take(self, mask: np.ndarray) -> "_ChordBlock":
        """The rows of the block that ``mask`` selects."""
        return _ChordBlock(
            self.layout, self.lin, self.outages[mask], self.rows[mask], self.stamps[mask], self.compensation[mask]
        )

    @staticmethod
    def joined(blocks: list["_ChordBlock"]) -> "_ChordBlock":
        """The rows of ``blocks``, one after another; one block is returned as it is."""
        if len(blocks) == 1:
            return blocks[0]
        names = ("outages", "rows", "stamps", "compensation")
        parts = (np.concatenate([getattr(b, name) for b in blocks]) for name in names)
        return _ChordBlock(blocks[0].layout, blocks[0].lin, *parts)

    def _at_terminals(self, x: np.ndarray) -> np.ndarray:
        """Each row's entries at its own terminal rows, as (c, 4, 1)."""
        return x[np.arange(len(x))[:, None], self.rows][..., None]

    def residual(self, x: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        """Post-outage residual ``F_k(x_i)`` of each row of ``x`` (c, size).

        The base layout's residual at ``x``, ``f`` where given (it is
        overwritten), less the removed branch's terminal currents; a row
        whose voltage collapsed reads NaN.
        """
        if f is None:
            f = self.layout.residual(x)
        f[np.arange(len(x))[:, None], self.rows] -= np.matmul(self.stamps, self._at_terminals(x))[..., 0]
        return f

    def inverse(self, r: np.ndarray) -> np.ndarray:
        """``M_k^-1 r_i`` per row: ``y + W_k T_k^-1 B_k y[rows]`` with ``y = J0^-1 r_i``.

        ``M_k = J0 - E_k B_k E_k^T`` is the post-outage Jacobian at the base
        state; the zero columns of ``W_k`` make this the compensation with
        the slack rows of ``B_k`` zeroed.  One row ``r`` (1, size) serves
        every row of the block, by one single-column solve.
        """
        y = self.lin.solve(r.T).T
        return y + np.matmul(self.compensation, self._at_terminals(y))[..., 0]


class _Oracle:
    """Post-outage nonlinear re-solves on the base solution's network and linear model.

    The oracle takes the base's admittance matrix, baseline monitors and
    Newton layout (a fresh one without Q pins where the base holds some,
    since every re-solve starts unpinned).  Its ``J0`` is the base's own
    full-mode model ``linearize_at_solution(base)`` at the base state
    ``x0 = J0.x_op``; a Q-pinned base has none.  Removing branch ``k``
    changes that Jacobian only by the branch's 4x4 stamp ``B_k`` in its
    terminal rows (none in the rows of a slack terminal, which hold the
    voltage pins), so the post-outage Jacobian at ``x0`` is
    ``M_k = J0 - E_k B_k E_k^T``, whose inverse is the base LU with a rank-4
    compensation through the engine's transfer matrix of ``k`` on ``J0``
    (see :class:`_ChordBlock`).

    :meth:`solve` gathers the blocks of an engine pass on ``J0`` into groups
    of at most ``_GROUP_ENTRIES`` state entries and runs Broyden's method
    from ``x0`` on the true post-outage residual ``F_k`` for a whole group
    at a time, with ``M_k^-1`` as its first inverse Jacobian ``H_0``.  The
    "good" update is applied in the step-storage form of Kelley (*Iterative
    Methods for Linear and Nonlinear Equations*, 1995, section 7.3): each
    step ``z = -H_0 F_k(x)`` gains ``s_{j+1} (s_j . z) / |s_j|^2`` for every
    stored step ``s_j`` in turn and is divided by ``1 - s_n . z / |s_n|^2``,
    where ``s_n`` is the last one.  So each step is one stacked residual,
    one multi-column solve of the base LU, one stacked compensation and one
    row-wise dot product per stored step, and nothing is refactorized.  The
    first step takes one column: ``F_k(x0) = r0 - E_k B_k x0[rows]``, where
    ``r0`` is the base residual at ``x0``, and ``M_k^-1 E_k B_k`` is the
    compensation ``W_k T_k^-1 B_k`` (the slack rows of ``B_k`` drop out, as
    the slack columns of ``W_k`` are zero), so ``s_0 = W_k T_k^-1 B_k
    x0[rows] - M_k^-1 r0`` takes the single-column solve ``J0^-1 r0`` for
    the whole group.  Its voltage part, ``W_k T_k^-1 B_k x0[rows]``, is the
    engine's prediction of the outage, corrected by ``-M_k^-1 r0``.
    Each row keeps its own steps, which leave the group with it, so each
    row's arithmetic is that of the outage iterated alone.  An outage leaves
    the group as soon as its mismatch is at most ``tol / 10``: on case118
    its state then lies within 4.3e-10 of the root.  Where there is no
    chord model, ``M_k`` is singular, the mismatch is not finite or has set
    no new minimum for ``_CHORD_PATIENCE`` steps in a row, a voltage
    collapses, the iteration budget runs out or, with Q-limit enforcement,
    the result violates a reactive limit, the outage is re-solved by
    ``_newton`` instead, exactly as ``solve_ac_powerflow`` of the case with
    the branch open, started from ``base.state``.  Either way the converged
    flag and the failure detail are those of that re-solve, and a converged
    state has a post-outage residual of at most ``tol``.

    Each converged state becomes its result at once (:meth:`_reduce`), a
    Broyden group at a time: the severity under ``metric``, or without one
    the converged :class:`OracleOutcome`.
    """

    def __init__(self, base: PowerFlowSolution, metric: str | None = None):
        self._options = replace(
            base.options, max_iter=2 * base.options.max_iter, start="state", initial_state=base.state
        )
        self._base = base
        self._metric = metric
        self._layout = _NewtonProblem(base.case, base.ybus) if base.q_limited else base._problem
        self._lin = None  # every outage goes to the full Newton path (``_newton``)
        if not base.q_limited:
            try:
                self._lin = linearize_at_solution(base)
            except SingularSystemError:
                pass

    def problem(self, branch_idx: int) -> _NewtonProblem:
        """The Newton system of the case with branch ``branch_idx`` open."""
        return self._layout.with_ybus(_without_branch(self._base.ybus, branch_idx))

    def _chord_block(self, chunk: tuple[np.ndarray, ...], ok: np.ndarray) -> _ChordBlock:
        """The systems of the outages ``ok`` selects in one block of an engine pass on ``J0``."""
        idx, rows, blocks, resp, cols, t, _ = chunk
        rows, blocks, cols = rows[ok], blocks[ok], cols[ok]
        compensation = np.matmul(resp[:, cols].transpose(1, 0, 2), np.linalg.solve(t[ok], blocks))
        stamps = blocks.copy()
        stamps[rows // 2 == self._layout.slack] = 0.0  # the slack rows hold the voltage pins
        return _ChordBlock(self._layout, self._lin, idx[ok], rows, stamps, compensation)

    def _chord_stage(self, chunks: Iterator[tuple[np.ndarray, ...]], found: dict) -> Iterator[tuple[np.ndarray, ...]]:
        """Pass on the blocks of an engine pass on ``J0``, iterating their outages in groups on the way.

        Each block's outages with a nonsingular ``T_k`` join the current
        group while it holds at most ``_GROUP_ENTRIES`` state entries (or is
        that block alone); a block that does not fit first sends the group
        to :meth:`_iterate`.  A block's systems are built before the pass
        reuses its slot array, and the last group is iterated when the pass
        ends.  ``found`` gains the results of the outages that converge, a
        group at a time, before the next group is taken.
        """
        size = self._lin.size
        group: list[_ChordBlock] = []
        with closing(chunks):
            for chunk in chunks:
                ok = ~_singular(chunk[-1])
                if group and (sum(len(b.outages) for b in group) + np.count_nonzero(ok)) * size > _GROUP_ENTRIES:
                    found.update(self._reduce(self._iterate(_ChordBlock.joined(group))))
                    group = []
                group.append(self._chord_block(chunk, ok))
                yield chunk
        if group:
            found.update(self._reduce(self._iterate(_ChordBlock.joined(group))))

    def _iterate(self, block: _ChordBlock) -> dict[int, np.ndarray]:
        """Broyden iteration of a group from ``x0``: the states of the outages that converge by it."""
        options = self._options
        x = np.tile(self._lin.x_op, (len(block.outages), 1))
        r0 = self._layout.residual(x[:1])  # the base residual; F_k(x0) differs from it at the terminal rows only
        best = np.max(np.abs(block.residual(x, np.tile(r0, (len(x), 1)))), axis=1)
        stalled = np.zeros(len(best), dtype=int)  # steps since the last new minimum
        # the steps s_0 .. s_n of the rows still in the group, and their squared norms
        steps: list[np.ndarray] = []
        norms: list[np.ndarray] = []
        converged = {}
        for n in range(options.max_iter):
            if not len(block.outages):
                break
            if n:
                s = -block.inverse(f)
            else:  # -M_k^-1 F_k(x0) by superposition (see the class docstring)
                s = np.matmul(block.compensation, block._at_terminals(x))[..., 0] - block.inverse(r0)
            with np.errstate(divide="ignore", invalid="ignore"):  # a breakdown gives a non-finite step
                for j in range(n - 1):
                    s += steps[j + 1] * (_dot(steps[j], s) / norms[j])[:, None]
                if n:
                    s /= (1.0 - _dot(steps[n - 1], s) / norms[n - 1])[:, None]
            steps.append(s)
            norms.append(_dot(s, s))
            x = x + s
            f = block.residual(x)
            mismatch = np.max(np.abs(f), axis=1)
            done = mismatch <= options.tol / 10  # see the class docstring
            for i in np.flatnonzero(done):
                converged[int(block.outages[i])] = x[i].copy()
            improved = mismatch < best  # NaN never improves
            best = np.where(improved, mismatch, best)
            stalled = np.where(improved, 0, stalled + 1)
            keep = ~done & np.isfinite(mismatch) & (stalled < _CHORD_PATIENCE)
            if not keep.all():
                block, x, f, best, stalled = block.take(keep), x[keep], f[keep], best[keep], stalled[keep]
                steps, norms = [v[keep] for v in steps], [v[keep] for v in norms]
        if options.enforce_q_limits:
            converged = {
                k: x for k, x in converged.items() if not any(v.any() for v in self._layout.q_violations(x))
            }
        return converged

    def solve(self, outages: list[int], chorded: dict | None = None) -> dict:
        """Results of non-islanding outages by outage, or the :class:`PowerFlowError` of a failed Newton path.

        ``chorded``, where given, holds what a :meth:`_chord_stage` on an
        engine pass over exactly ``outages`` found; by default the oracle
        makes that pass itself.  The outages it did not settle take the
        Newton path one at a time.
        """
        if chorded is None:
            chorded = {}
            if self._lin is not None:
                chunks = _transfer_chunks(self._lin, self._base.case, outages, self._base.ybus)
                for _ in self._chord_stage(chunks, chorded):
                    pass
        results = {k: chorded[k] for k in outages if k in chorded}
        for k in sorted(k for k in outages if k not in chorded):
            problem = self.problem(k)
            try:
                _, x, _, _ = _newton(problem, problem.initial_state(self._options), self._options)
            except PowerFlowError as exc:
                results[k] = exc
            else:
                results.update(self._reduce({k: x}))
        return results

    def _monitors(self, states: dict[int, np.ndarray]) -> tuple[np.ndarray | None, ...]:
        """The outages of ``states`` (converged states by outage) and their monitor changes.

        Returns ``(outages, delta_vmag, delta_imag, delta_p)``, (c,), (c, n),
        (c, m) and (c, m): row ``i`` holds the post-outage minus base values
        at the state of ``outages[i]``, the branch ones on the from side,
        where the open branch carries no current.  A quantity that the
        oracle's metric does not read is None; without a metric all three
        are computed.  Each row's arithmetic is its own, so a row reads the
        same in a stack of any outages.
        """
        ks = np.array(list(states), dtype=int)
        n = self._base.n
        quantities = _QUANTITIES if self._metric is None else (_METRIC_QUANTITY[self._metric],)
        # states with reactive pins are longer than 2n
        v = state_to_complex(np.array([x[: 2 * n] for x in states.values()]).reshape(len(ks), 2 * n))
        yb, baseline = self._base.ybus, self._base._baseline
        delta_vmag = delta_imag = delta_p = None
        if "vmag" in quantities:
            delta_vmag = np.abs(v) - baseline.v_mag
        if "imag" in quantities or "pline" in quantities:
            v_from = v[:, yb.from_idx]
            i_from = yb.yff * v_from + yb.yft * v[:, yb.to_idx]
            i_from[np.arange(len(ks)), ks] = 0.0
            if "imag" in quantities:
                delta_imag = np.abs(i_from) - np.abs(baseline.i_from)
            if "pline" in quantities:
                delta_p = (v_from * np.conj(i_from)).real - baseline.p_from
        return ks, delta_vmag, delta_imag, delta_p

    def _reduce(self, states: dict[int, np.ndarray]) -> dict:
        """The results of converged states by outage: severities under the metric, or outcomes without one."""
        ks, *deltas = self._monitors(states)
        if self._metric is not None:
            return dict(zip(ks.tolist(), _severities(self._metric, *deltas, ks, self._base._baseline.closed).tolist()))
        return {k: OracleOutcome(k, False, True, *(d[i] for d in deltas)) for i, k in enumerate(ks.tolist())}


def _require_solution_of(case: GridCase, sol: PowerFlowSolution) -> None:
    """Raise ``ValueError`` unless ``sol`` is a solution of ``case`` (or of an equal case)."""
    if not (sol.case is case or sol.case == case):
        raise ValueError("the power flow solution is not a solution of this case")


def oracle_outage(case: GridCase, branch_idx: int, base: PowerFlowSolution) -> OracleOutcome:
    """Ground-truth outage impact by a warm-started nonlinear re-solve.

    ``base`` must be the power flow solution of ``case``.  The post-outage
    power flow of ``case`` with branch ``branch_idx`` open is solved from
    ``base.state`` by the oracle of ``base``, a group of one outage (see
    :class:`_Oracle`); the deltas are post-outage minus ``base`` values.
    The converged flag, and the detail of a failed solve, are those of
    ``solve_ac_powerflow(case.with_branch_open(branch_idx), ...)`` started
    from ``base.state``, with the base tolerance and Q-limit settings and
    twice the iteration budget; a converged state lies within about
    ``10 tol`` of that solve's.  Non-convergence is reported as an outcome,
    not raised: a contingency whose post-outage power flow fails to solve
    is itself a finding.  Raises ``ValueError`` for an open or out-of-range
    branch, and for a ``base`` of another case.
    """
    _closed_branch(case, branch_idx)
    _require_solution_of(case, base)
    if not is_connected(case, skip_branch=branch_idx):
        return OracleOutcome(branch=branch_idx, islanded=True, converged=False, detail="islands the network")
    result = _Oracle(base).solve([branch_idx])[branch_idx]
    if isinstance(result, PowerFlowError):
        return OracleOutcome(branch=branch_idx, islanded=False, converged=False, detail=str(result))
    return result


# -- screening ---------------------------------------------------------------------


@dataclass
class ScreenEntry:
    """One ranked outage."""

    branch: int
    from_bus: int
    to_bus: int
    severity: float  # +inf for islanding outages
    islanding: bool
    rank: int = 0
    note: str = ""
    oracle_severity: float | None = None
    oracle_islanded: bool | None = None
    oracle_converged: bool | None = None


@dataclass
class ComparisonSummary:
    """Agreement between predicted and oracle severities."""

    n_compared: int
    spearman: float | None
    top_overlap: dict[int, int]
    max_abs_error: float | None
    mean_abs_error: float | None
    insufficient: bool
    # non-islanding outages whose oracle solve did not converge; they are
    # left out of every other field
    n_diverged: int = 0


@dataclass
class ScreeningReport:
    case_name: str
    metric: str
    mode: str
    top_k: int
    entries: list[ScreenEntry]
    comparison: ComparisonSummary | None = None

    def top(self) -> list[ScreenEntry]:
        return self.entries[: self.top_k]


def _rank_key(entry: ScreenEntry) -> tuple[float, int]:
    return (-entry.severity, entry.branch)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``values``; equal values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # where each run of equal values starts
    counts = np.diff(first, append=len(values))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(first + (counts + 1) / 2, counts)
    return ranks


def _spearman(a: np.ndarray, b: np.ndarray) -> float | None:
    """Spearman's rho of two samples, bit for bit as SciPy's ``spearmanr`` computes it.

    That is the Pearson correlation of their average ranks.  A constant
    sample has no correlation: None, without a warning.
    """
    if (a == a[0]).all() or (b == b[0]).all():
        return None
    rho = np.corrcoef(np.column_stack((_average_ranks(a), _average_ranks(b))), rowvar=False)[1, 0]
    return float(rho) if np.isfinite(rho) else None


def compare_severities(predicted: dict[int, float], reference: dict[int, float]) -> ComparisonSummary:
    """Rank agreement between two finite severity maps over common branches."""
    common = sorted(
        b
        for b in predicted.keys() & reference.keys()
        if np.isfinite(predicted[b]) and np.isfinite(reference[b])
    )
    if len(common) < 3:
        return ComparisonSummary(
            n_compared=len(common),
            spearman=None,
            top_overlap={k: 0 for k in _TOP_OVERLAP_SIZES},
            max_abs_error=None,
            mean_abs_error=None,
            insufficient=True,
        )
    pred = np.array([predicted[b] for b in common])
    ref = np.array([reference[b] for b in common])
    spearman = _spearman(pred, ref)

    def top_set(values: dict[int, float], k: int) -> set[int]:
        order = sorted(common, key=lambda b: (-values[b], b))
        return set(order[:k])

    top_overlap = {k: len(top_set(predicted, k) & top_set(reference, k)) for k in _TOP_OVERLAP_SIZES}
    err = np.abs(pred - ref)
    return ComparisonSummary(
        n_compared=len(common),
        spearman=spearman,
        top_overlap=top_overlap,
        max_abs_error=float(err.max()),
        mean_abs_error=float(err.mean()),
        insufficient=False,
    )


def screen(
    case: GridCase,
    sol: PowerFlowSolution | None = None,
    lin: LinearizedSystem | None = None,
    *,
    metric: str = "vmag_inf",
    top_k: int = 5,
    with_oracle: bool = False,
) -> ScreeningReport:
    """Rank all single closed-branch outages of ``case`` by predicted severity.

    Islanding outages (graph bridges) are flagged rather than evaluated and
    sort above every finite severity.  The other outages go through the
    outage engine in blocks; each severity equals the one computed from
    :func:`evaluate_outage` for the same outage.  A non-bridge outage whose
    transfer matrix is singular is not flagged as islanding; it gets the
    severity +inf and the note "singular transfer matrix".  With
    ``with_oracle`` every outage is additionally re-solved nonlinearly, and
    the report carries per-entry oracle severities plus a rank-agreement
    summary whose ``n_diverged`` counts the non-islanding outages whose
    re-solve did not converge; such an outage gets the note "oracle did not
    converge" unless its transfer matrix is singular.  ``sol`` must solve
    ``case`` and ``lin``, the model that predicts the outages, must be taken
    at ``sol``, by default ``linearize_at_solution(sol)`` (full mode); either
    raises ``ValueError`` otherwise.  The re-solves are those of
    :class:`_Oracle` with ``metric``, so each oracle severity is that of
    :func:`oracle_outage` bit for bit, whatever the model, and no more than
    one Broyden group's states are held at once.  In a connected case whose
    ``lin`` is the full-mode model of ``sol``, one engine pass serves both
    the severities and the re-solves; otherwise the oracle makes a pass of
    its own.
    A ``top_k`` that is not an integer (``bool`` included) raises
    ``TypeError``, one below 1 ``ValueError``.
    """
    if metric not in SEVERITY_METRICS:
        raise ValueError(f"unknown severity metric {metric!r}; choose from {SEVERITY_METRICS}")
    if isinstance(top_k, bool) or not isinstance(top_k, (int, np.integer)):
        raise TypeError(f"top_k must be an integer, got {top_k!r}")
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    if sol is None:
        sol = solve_ac_powerflow(case)
    _require_solution_of(case, sol)
    if lin is None:
        lin = linearize_at_solution(sol)
    _require_model_of(sol, lin)
    bridges = find_bridges(case)
    outages = [idx for idx, br in enumerate(case.branches) if br.closed and idx not in bridges]
    chunks = _transfer_chunks(lin, sol.case, outages, sol.ybus)
    chorded = None
    if with_oracle:
        connected = is_connected(case)
        # in a connected case exactly the bridges island it; in a disconnected one, every outage
        islands = bridges if connected else set(range(case.n_branch))
        oracle = _Oracle(sol, metric)
        if connected and oracle._lin is lin:
            # the oracle iterates on the screen's model, so it reads the screen's engine pass
            chorded = {}
            chunks = oracle._chord_stage(chunks, chorded)
    severities = _outage_severities(sol, lin, outages, metric, chunks)

    entries: list[ScreenEntry] = []
    for idx, br in enumerate(case.branches):
        if not br.closed:
            continue
        entry = ScreenEntry(
            branch=idx,
            from_bus=br.from_bus,
            to_bus=br.to_bus,
            severity=float("inf"),
            islanding=idx in bridges,
        )
        if idx in bridges:
            entry.note = "islands the network"
        elif idx in severities:
            entry.severity = severities[idx]
        else:
            entry.note = "singular transfer matrix"
        entries.append(entry)

    if with_oracle:
        solved = oracle.solve([e.branch for e in entries if e.branch not in islands], chorded)
        for entry in entries:
            entry.oracle_islanded = entry.branch in islands
            entry.oracle_converged = not entry.oracle_islanded and not isinstance(solved[entry.branch], PowerFlowError)
            if entry.oracle_islanded:
                entry.oracle_severity = float("inf")
            elif entry.oracle_converged:
                entry.oracle_severity = solved[entry.branch]
            elif entry.note != "singular transfer matrix":
                entry.note = "oracle did not converge"

    entries.sort(key=_rank_key)
    for rank, entry in enumerate(entries, start=1):
        entry.rank = rank

    comparison = None
    if with_oracle:
        # a converged oracle outcome is never islanded and has a severity
        predicted: dict[int, float] = {}
        reference: dict[int, float] = {}
        n_diverged = 0
        for e in entries:
            if e.oracle_islanded:
                continue
            if not e.oracle_converged:
                n_diverged += 1
            elif not e.islanding:
                predicted[e.branch] = e.severity
                reference[e.branch] = e.oracle_severity
        comparison = compare_severities(predicted, reference)
        comparison.n_diverged = n_diverged

    return ScreeningReport(
        case_name=case.name,
        metric=metric,
        mode=lin.mode,
        top_k=top_k,
        entries=entries,
        comparison=comparison,
    )
