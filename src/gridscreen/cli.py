"""Command line interface.

Exit codes: 0 success, 1 input or usage error, 2 numerical failure.
All numeric output is formatted to 12 significant digits and carries no
timestamps, so repeated runs on the same input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .case_io import GridCase, case_to_json, load_case
from .dcmodel import build_dc_model, dc_lodf, solve_dc
from .errors import CaseError, GridScreenError
from .powerflow import (
    PowerFlowOptions,
    branch_power_flows,
    linearize_at_solution,
    power_balance,
    solve_ac_powerflow,
)
from .screening import compare_severities, find_bridges, screen
from .sensitivity import SEVERITY_METRICS, _impact_chunks


def _fmt(x: float) -> str:
    if x != x:
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def _round12(x: float | None) -> float | None:
    """12-significant-digit float for JSON output; None and infinities map to None."""
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise CaseError(f"{flag} must be at least 1, got {value}")
    return value


def _powerflow_options(args) -> PowerFlowOptions:
    if not 0 < args.tol < math.inf:
        raise CaseError(f"--tol must be a finite positive number, got {args.tol:g}")
    return PowerFlowOptions(
        tol=args.tol,
        max_iter=_at_least_one("--max-iter", args.max_iter),
        start="file" if args.warm else "flat",
        enforce_q_limits=args.q_limits,
    )


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-8, help="convergence tolerance (default 1e-8)")
    p.add_argument("--max-iter", type=int, default=25, help="Newton iteration limit (default 25)")
    p.add_argument("--warm", action="store_true", help="start from the case file voltages")
    p.add_argument("--q-limits", action="store_true", help="enforce generator reactive limits")


def _parse_outage(value: str, case: GridCase) -> list[int]:
    if value == "all":
        return [i for i, br in enumerate(case.branches) if br.closed]
    try:
        if not (value.isascii() and value.isdigit()):  # int() also reads "1_0", " 3" and "+3"
            raise ValueError
        idx = int(value)
    except ValueError:  # also past int()'s limit on digits
        raise CaseError(f"--outage must be a branch index or 'all', got {value!r}") from None
    if not 0 <= idx < case.n_branch:
        raise CaseError(f"branch index {idx} out of range (case has {case.n_branch} branches)")
    if not case.branches[idx].closed:
        raise CaseError(f"branch {idx} is open")
    return [idx]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridscreen", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="AC power flow: bus voltages and branch flows")
    p.add_argument("case")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p.add_argument("--out", help="write output to a file instead of stdout")
    _add_solver_args(p)

    p = sub.add_parser("dump", help="case round-trip: canonical JSON form of a case")
    p.add_argument("case")
    p.add_argument("--out")

    p = sub.add_parser("dclodf", help="DC baseline: outage distribution factors")
    p.add_argument("case")
    p.add_argument("--outage", default="all", help="branch index or 'all' (default all)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("sens", help="first-order outage impact for one or all branches")
    p.add_argument("case")
    p.add_argument("--outage", default="all", help="branch index or 'all' (default all)")
    p.add_argument(
        "--quantity",
        choices=("vmag", "imag", "pline"),
        default="vmag",
        help="monitored quantity: bus |V|, branch |I| or branch P (default vmag)",
    )
    p.add_argument("--mode", choices=("full", "network"), default="full")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    _add_solver_args(p)

    p = sub.add_parser("screen", help="rank all N-1 line outages by severity")
    p.add_argument("case")
    p.add_argument("--metric", choices=SEVERITY_METRICS, default="vmag_inf")
    p.add_argument("--mode", choices=("full", "network"), default="full")
    p.add_argument("--top", type=int, default=5, help="top-K used by the summary (default 5)")
    p.add_argument("--with-oracle", action="store_true", help="re-solve every outage nonlinearly")
    p.add_argument("--json", action="store_true", help="JSON report instead of ranked CSV")
    p.add_argument("--out")
    p.add_argument("--summary", help="also write a JSON summary to this file")
    _add_solver_args(p)

    p = sub.add_parser("compare", help="rank agreement between two screening JSON reports")
    p.add_argument("predicted", help="screening JSON (e.g. from `screen --json`)")
    p.add_argument("reference", help="screening JSON to compare against")
    p.add_argument("--out")

    return parser


# -- subcommand bodies ---------------------------------------------------------


def _cmd_solve(args) -> int:
    case = load_case(args.case)
    sol = solve_ac_powerflow(case, _powerflow_options(args))
    flows = branch_power_flows(sol)
    balance = power_balance(sol)
    vm = sol.v_mag
    va = np.degrees(sol.v_angle)
    p_inj, q_inj = sol.p_inj, sol.q_inj

    if args.json:
        doc = {
            "case": case.name,
            "iterations": sol.iterations,
            "max_mismatch": _round12(sol.max_mismatch),
            "balance_residual": _round12(balance.residual),
            "buses": [
                {
                    "id": bus.id,
                    "vm": _round12(vm[k]),
                    "va_deg": _round12(va[k]),
                    "p_inj": _round12(p_inj[k]),
                    "q_inj": _round12(q_inj[k]),
                }
                for k, bus in enumerate(case.buses)
            ],
            "branches": [
                {
                    "branch": m,
                    "from": br.from_bus,
                    "to": br.to_bus,
                    "closed": br.closed,
                    "p_from": _round12(flows.p_from[m]),
                    "q_from": _round12(flows.q_from[m]),
                    "p_to": _round12(flows.p_to[m]),
                    "q_to": _round12(flows.q_to[m]),
                }
                for m, br in enumerate(case.branches)
            ],
        }
        _emit(_json_dump(doc), args.out)
        return 0

    lines = [f"# case {case.name}: {sol.iterations} iterations, mismatch {_fmt(sol.max_mismatch)}"]
    lines.append("# buses")
    lines.append("id,vm,va_deg,p_inj,q_inj")
    for k, bus in enumerate(case.buses):
        lines.append(f"{bus.id},{_fmt(vm[k])},{_fmt(va[k])},{_fmt(p_inj[k])},{_fmt(q_inj[k])}")
    lines.append("# branches")
    lines.append("branch,from,to,p_from,q_from,p_to,q_to")
    for m, br in enumerate(case.branches):
        lines.append(
            f"{m},{br.from_bus},{br.to_bus},{_fmt(flows.p_from[m])},{_fmt(flows.q_from[m])},"
            f"{_fmt(flows.p_to[m])},{_fmt(flows.q_to[m])}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_dump(args) -> int:
    case = load_case(args.case)
    _emit(case_to_json(case), args.out)
    return 0


def _cmd_dclodf(args) -> int:
    case = load_case(args.case)
    model = build_dc_model(case)
    base = solve_dc(model)
    outages = _parse_outage(args.outage, case)
    bridges = find_bridges(case)

    results = []
    for l in outages:
        if l in bridges:
            results.append((l, None))
        else:
            results.append((l, dc_lodf(model, l, base)))

    if args.json:
        doc = {"case": case.name, "outages": []}
        for l, res in results:
            br = case.branches[l]
            rec = {"outage": l, "from": br.from_bus, "to": br.to_bus, "islanding": res is None}
            if res is not None:
                rec["transfer"] = _round12(res.transfer)
                rec["p_pre"] = _round12(res.p_pre[l])
                rec["rows"] = [
                    {
                        "monitored": m,
                        "lodf": _round12(res.lodf[m]),
                        "p_pre": _round12(res.p_pre[m]),
                        "predicted": _round12(res.predicted[m]),
                    }
                    for m in range(case.n_branch)
                    if case.branches[m].closed and m != l
                ]
            doc["outages"].append(rec)
        _emit(_json_dump(doc), args.out)
        return 0

    lines = ["outage,monitored,from,to,lodf,p_pre,predicted,islanding"]
    for l, res in results:
        if res is None:
            br = case.branches[l]
            lines.append(f"{l},,{br.from_bus},{br.to_bus},,,,true")
            continue
        for m in range(case.n_branch):
            if not case.branches[m].closed or m == l:
                continue
            br = case.branches[m]
            lines.append(
                f"{l},{m},{br.from_bus},{br.to_bus},{_fmt(res.lodf[m])},"
                f"{_fmt(res.p_pre[m])},{_fmt(res.predicted[m])},false"
            )
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_sens(args) -> int:
    case = load_case(args.case)
    sol = solve_ac_powerflow(case, _powerflow_options(args))
    lin = linearize_at_solution(sol, args.mode)
    outages = _parse_outage(args.outage, case)
    bridges = find_bridges(case)
    field = {"vmag": "delta_vmag", "imag": "delta_imag", "pline": "delta_p"}[args.quantity]
    # the condition number and monitor row of each non-bridge outage whose
    # transfer matrix is not singular
    rows: dict[int, tuple[float, np.ndarray]] = {}
    for chunk in _impact_chunks(sol, lin, [l for l in outages if l not in bridges], (args.quantity,)):
        for i in np.flatnonzero(~chunk.singular):
            rows[int(chunk.outages[i])] = float(chunk.cond[i]), getattr(chunk, field)[i]
    # (label, column) of each monitored bus or closed branch
    if args.quantity == "vmag":
        key, monitored = "bus", [(bus.id, k) for k, bus in enumerate(case.buses)]
    else:
        key, monitored = "branch", [(m, m) for m, br in enumerate(case.branches) if br.closed]

    if args.json:
        doc = {"case": case.name, "quantity": args.quantity, "mode": args.mode, "outages": []}
        for l in outages:
            br = case.branches[l]
            rec = {"outage": l, "from": br.from_bus, "to": br.to_bus, "islanding": l in bridges}
            row = rows.get(l)
            if row is not None:
                rec["cond"] = _round12(row[0])
                rec["deltas"] = [{key: label, "delta": _round12(row[1][c])} for label, c in monitored]
                if args.quantity == "imag":
                    for d in rec["deltas"]:
                        d["fallback"] = bool(sol._baseline.tiny[d["branch"]])
            elif l not in bridges:
                rec["note"] = "singular transfer matrix"
            doc["outages"].append(rec)
        _emit(_json_dump(doc), args.out)
        return 0

    lines = [f"outage,{key},{field},islanding"]
    for l in outages:
        row = rows.get(l)
        if row is None:
            lines.append(f"{l},,,{str(l in bridges).lower()}")
            continue
        lines.extend(f"{l},{label},{_fmt(row[1][c])},false" for label, c in monitored)
    _emit("\n".join(lines), args.out)
    return 0


def _comparison_json(summary) -> dict:
    return {
        "n_compared": summary.n_compared,
        "spearman": _round12(summary.spearman),
        "top_overlap": {str(k): v for k, v in summary.top_overlap.items()},
        "max_abs_error": _round12(summary.max_abs_error),
        "mean_abs_error": _round12(summary.mean_abs_error),
        "insufficient": summary.insufficient,
    }


def _report_json(report) -> dict:
    doc = {
        "case": report.case_name,
        "metric": report.metric,
        "mode": report.mode,
        "top_k": report.top_k,
        "entries": [
            {
                "rank": e.rank,
                "branch": e.branch,
                "from": e.from_bus,
                "to": e.to_bus,
                "severity": _round12(e.severity),
                "islanding": e.islanding,
                "note": e.note,
                "oracle_severity": _round12(e.oracle_severity),
                "oracle_islanded": e.oracle_islanded,
                "oracle_converged": e.oracle_converged,
            }
            for e in report.entries
        ],
    }
    if report.comparison is not None:
        doc["comparison"] = {**_comparison_json(report.comparison), "n_diverged": report.comparison.n_diverged}
    return doc


def _cmd_screen(args) -> int:
    top_k = _at_least_one("--top", args.top)
    case = load_case(args.case)
    sol = solve_ac_powerflow(case, _powerflow_options(args))
    report = screen(
        case,
        sol,
        linearize_at_solution(sol, args.mode),
        metric=args.metric,
        top_k=top_k,
        with_oracle=args.with_oracle,
    )

    if args.summary:
        doc = _report_json(report)
        doc["entries"] = doc["entries"][: report.top_k]
        Path(args.summary).write_text(_json_dump(doc) + "\n")

    if args.json:
        _emit(_json_dump(_report_json(report)), args.out)
        return 0

    lines = ["rank,branch,from,to,severity,islanding,oracle_severity"]
    for e in report.entries:
        oracle = "" if e.oracle_severity is None else _fmt(e.oracle_severity)
        lines.append(
            f"{e.rank},{e.branch},{e.from_bus},{e.to_bus},{_fmt(e.severity)},"
            f"{str(e.islanding).lower()},{oracle}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def _severities_from_report(path: str) -> dict[int, float]:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CaseError(f"cannot read report {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past int()'s limit on digits
        raise CaseError(f"invalid report JSON in {path}: {exc}") from exc
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise CaseError(f"{path} is not a screening report (missing 'entries')")
    out: dict[int, float] = {}
    seen: set[int] = set()
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or "branch" not in e:
            raise CaseError(f"{path}: entry {i} is not a screening entry (an object with a 'branch')")
        branch, severity, islanding = e["branch"], e.get("severity"), e.get("islanding", False)
        if type(branch) is not int:  # a JSON integer: not 3.7, "1" or true
            raise CaseError(f"{path}: entry {i} has a branch that is not an integer ({branch!r})")
        if severity is not None and type(severity) not in (int, float):
            raise CaseError(f"{path}: entry {i} has a severity that is not a number or null ({severity!r})")
        if type(islanding) is not bool:  # JSON true or false: not "no", 0 or null
            raise CaseError(f"{path}: entry {i} has an islanding flag that is not true or false ({islanding!r})")
        if branch in seen:
            raise CaseError(f"{path}: entry {i} repeats branch {branch}")
        seen.add(branch)
        if islanding or severity is None:
            continue
        try:
            out[branch] = float(severity)
        except OverflowError as exc:  # an integer beyond the float range
            raise CaseError(f"{path}: entry {i} has a severity out of range ({exc})") from exc
    return out


def _cmd_compare(args) -> int:
    predicted = _severities_from_report(args.predicted)
    reference = _severities_from_report(args.reference)
    _emit(_json_dump(_comparison_json(compare_severities(predicted, reference))), args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "dump": _cmd_dump,
    "dclodf": _cmd_dclodf,
    "sens": _cmd_sens,
    "screen": _cmd_screen,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CaseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except GridScreenError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
