"""Command-line interface tests, driven through ``main`` with captured output."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridscreen import sensitivity
from gridscreen.case_io import bundled_case_path, case_from_json, case_to_json
from gridscreen.cli import _report_json, main
from gridscreen.dcmodel import build_dc_model, dc_lodf
from gridscreen.screening import find_bridges, screen
from gridscreen.sensitivity import evaluate_outage

from gridbuild import overload_pair, two_bus

CASE14 = str(bundled_case_path("case14"))
CASE118 = str(bundled_case_path("case118"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "gridscreen 0.1.0"


@pytest.mark.parametrize("module", ["gridscreen", "gridscreen.cli"])
def test_module_forms_run_the_command_line(capsys, module):
    """``python -m gridscreen`` and ``python -m gridscreen.cli`` print the bytes of ``main`` and
    exit with its code, 1 on a usage error."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in (["solve", CASE14, "--json"], ["screen", CASE14, "--top", "0"]):
        code, out, err = run(capsys, *argv)
        done = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=env, check=False)
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode()), argv
    assert code == 1 and err


def test_missing_command_exits_one(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "error" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate", CASE14)
    assert code == 1


def test_missing_case_file_exits_one(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/case.m")
    assert code == 1
    assert "error:" in err


def test_undecodable_case_file_exits_one(tmp_path, capsys):
    """A case file that is no UTF-8 text is a case error, for either reader."""
    for name in ("case.m", "case.json"):
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read case file {bad}") and "Traceback" not in err, err


def test_case_json_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    """``json.loads`` refuses an integer of more than 4300 digits with a ValueError; it is a case error."""
    doc = case_to_json(two_bus())
    bad = tmp_path / "huge.json"
    bad.write_text(doc.replace('"base_mva":100.0', '"base_mva":' + "9" * 5000))
    assert bad.read_text() != doc
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: invalid case JSON") and "Traceback" not in err, err


@pytest.mark.parametrize("value", ["inf", "nan", "2.5"])
def test_non_integer_bus_id_exits_one(tmp_path, capsys, value):
    """A bus id that is not a whole number is named with its line, not a traceback or a truncation."""
    lines = open(CASE14).read().splitlines()
    row = lines.index("mpc.bus = [") + 2  # bus 2
    assert lines[row].split()[0] == "2"
    lines[row] = lines[row].replace("2", value, 1)
    bad = tmp_path / "case.m"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"error: line {row + 1}: bus id must be an integer, got {value}"), err


def test_non_finite_pd_exits_one(tmp_path, capsys):
    """NaN as bus 4's PD is named with its line and column, where it used to end in a singular Jacobian."""
    lines = open(CASE14).read().splitlines()
    row = lines.index("mpc.bus = [") + 4  # bus 4
    entries = lines[row].split()
    assert entries[0] == "4"
    entries[2] = "nan"
    lines[row] = "\t".join(entries)
    bad = tmp_path / "case.m"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: line {row + 1}: mpc.bus column 3 must be finite, got nan\n", err


@pytest.mark.parametrize(
    "table, i, key, value",
    [("branches", 3, "r", "NaN"), ("buses", 3, "p_load", "NaN"), ("branches", 3, "x", "Infinity")],
)
def test_non_finite_json_field_exits_one(tmp_path, capsys, table, i, key, value):
    """A NaN resistance or load, or an infinite reactance, in a case JSON is a case error: NaN used
    to end in a singular Jacobian, and an infinite reactance left a closed branch without current."""
    doc = json.loads(run(capsys, "dump", CASE14)[1])
    doc[table][i][key] = "VALUE"
    bad = tmp_path / "case.json"
    bad.write_text(json.dumps(doc).replace('"VALUE"', value))
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: malformed case dictionary: '{key}' must be a finite number, not {value}\n", err


def test_solve_csv_layout(capsys):
    code, out, _ = run(capsys, "solve", CASE14)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# case case14: 4 iterations")
    bus_head = lines.index("id,vm,va_deg,p_inj,q_inj")
    branch_head = lines.index("branch,from,to,p_from,q_from,p_to,q_to")
    assert branch_head - bus_head - 1 == 15  # 14 bus rows + section comment
    assert len(lines) - branch_head - 1 == 20
    first_bus = lines[bus_head + 1].split(",")
    assert first_bus[0] == "1" and float(first_bus[1]) == pytest.approx(1.06)


def test_solve_json_content(capsys):
    code, out, _ = run(capsys, "solve", CASE14, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "case14"
    assert doc["iterations"] == 4
    assert abs(doc["balance_residual"]) < 1e-8
    assert len(doc["buses"]) == 14 and len(doc["branches"]) == 20
    assert doc["buses"][0]["vm"] == pytest.approx(1.06)
    # every float is pre-rounded to 12 significant digits
    for rec in doc["branches"]:
        for key in ("p_from", "q_from", "p_to", "q_to"):
            v = rec[key]
            assert v == float(f"{v:.12g}")


def test_solve_out_file(tmp_path, capsys):
    target = tmp_path / "solution.json"
    code, out, _ = run(capsys, "solve", CASE14, "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    _, stdout, _ = run(capsys, "solve", CASE14, "--json")
    assert target.read_text() == stdout


def test_solve_solver_flags(capsys):
    code, out, _ = run(capsys, "solve", CASE14, "--warm", "--tol", "1e-10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_mismatch"] < 1e-10


def test_solve_numerical_failure_exits_two(tmp_path, capsys):
    bad = tmp_path / "infeasible.json"
    bad.write_text(case_to_json(two_bus(p=30.0, x=0.1)))
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "numerical failure" in err


def test_dclodf_zero_reactance_exits_one(tmp_path, capsys):
    zero_x = tmp_path / "zero_x.json"
    zero_x.write_text(case_to_json(two_bus(r=0.05, x=0.0)))
    code, out, err = run(capsys, "dclodf", str(zero_x))
    assert code == 1 and out == ""
    assert err.startswith("error: branch 0 (1-2) is closed with zero reactance") and "Traceback" not in err


def test_dump_round_trip(capsys, case14):
    code, out, _ = run(capsys, "dump", CASE14)
    assert code == 0
    assert case_from_json(out) == case14


def test_dclodf_all_csv(capsys, case14):
    code, out, _ = run(capsys, "dclodf", CASE14)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outage,monitored,from,to,lodf,p_pre,predicted,islanding"
    assert "13,,7,8,,,,true" in lines
    # 19 non-bridge outages, each reporting the 19 other closed branches
    assert len(lines) == 1 + 19 * 19 + 1


def test_dclodf_single_outage_json(capsys, case14):
    code, out, _ = run(capsys, "dclodf", CASE14, "--outage", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    rec = doc["outages"][0]
    assert rec["outage"] == 4 and not rec["islanding"]
    assert len(rec["rows"]) == 19
    res = dc_lodf(build_dc_model(case14), 4)
    by_monitor = {r["monitored"]: r["lodf"] for r in rec["rows"]}
    assert by_monitor[6] == pytest.approx(res.lodf[6], rel=1e-11)


def test_dclodf_bridge_json_flags_islanding(capsys):
    code, out, _ = run(capsys, "dclodf", CASE14, "--outage", "13", "--json")
    assert code == 0
    rec = json.loads(out)["outages"][0]
    assert rec["islanding"] is True and "rows" not in rec


@pytest.mark.parametrize(
    "case, digest",
    [
        (CASE14, "53bd7576dc91a5f2832fd0fbb8154e0945a5efcd03aa67f41806a1b12cbd779f"),
        (CASE118, "aa171c22b8f09183dc381d3a7cc8b5324fe3c4d9fe43a56f9b64c8e0c823e27c"),
    ],
)
def test_dclodf_json_bytes(capsys, case, digest):
    """Every outage's DC factors, from the unit transfer between its terminals; the bytes are pinned."""
    code, out, _ = run(capsys, "dclodf", case, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "case, q_limits, digest",
    [
        (CASE14, False, "4395f2913f679f242c021e30ee917900a3dd6523d5c6289dd13fd6ccf56b0278"),
        (CASE14, True, "4395f2913f679f242c021e30ee917900a3dd6523d5c6289dd13fd6ccf56b0278"),
        (CASE118, False, "70efcfce21c6109021df08395082b9040c2d14172efbd18d6898b9832ff2af54"),
        (CASE118, True, "481d72400e64a1df8a03d77ed851d47cb205b9361a7b8f9b1d657173cf1909eb"),
    ],
)
def test_solve_json_bytes(capsys, case, q_limits, digest):
    """The solution and its final mismatch, with and without reactive limits (case14 binds
    none); the bytes are pinned."""
    code, out, _ = run(capsys, "solve", case, "--json", *(["--q-limits"] if q_limits else []))
    assert code == 0
    assert json.loads(out)["max_mismatch"] > 0.0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# int() would read "1_0" as 10, " 3" and "+3" as 3, and "\u0663" (Arabic-Indic three) as 3
@pytest.mark.parametrize(
    "value", ["99", "abc", "-3", "1_0", " 3", "+3", "\u0663", pytest.param("9" * 5000, id="5000-digits")]
)
def test_dclodf_rejects_bad_outage(capsys, value):
    code, _, err = run(capsys, "dclodf", CASE14, "--outage", value)
    assert code == 1
    assert "error:" in err


def test_outage_of_open_branch_rejected(tmp_path, capsys, case14):
    path = tmp_path / "opened.json"
    path.write_text(case_to_json(case14.with_branch_open(2)))
    code, _, err = run(capsys, "dclodf", str(path), "--outage", "2")
    assert code == 1
    assert "open" in err


def test_sens_vmag_csv(capsys):
    code, out, _ = run(capsys, "sens", CASE14, "--outage", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outage,bus,delta_vmag,islanding"
    assert len(lines) == 15
    assert all(line.endswith(",false") for line in lines[1:])


def test_sens_islanding_row(capsys):
    code, out, _ = run(capsys, "sens", CASE14, "--outage", "13")
    assert code == 0
    assert out.splitlines()[1] == "13,,,true"


def test_sens_imag_json_carries_fallback(capsys):
    code, out, _ = run(capsys, "sens", CASE14, "--outage", "4", "--quantity", "imag", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "imag"
    rec = doc["outages"][0]
    assert {d["branch"] for d in rec["deltas"]} == set(range(20)) - {-1}
    assert all(isinstance(d["fallback"], bool) for d in rec["deltas"])


def test_sens_pline_network_mode(capsys):
    code, out, _ = run(
        capsys, "sens", CASE14, "--outage", "4", "--quantity", "pline", "--mode", "network"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outage,branch,delta_p,islanding"
    assert len(lines) == 21


def test_sens_all_outages(capsys):
    code, out, _ = run(capsys, "sens", CASE14)
    assert code == 0
    lines = out.splitlines()
    # 19 evaluated outages with 14 bus rows each, plus one islanding row
    assert len(lines) == 1 + 19 * 14 + 1


def test_sens_json_defaults_to_vmag(capsys):
    """``sens --json`` without ``--quantity`` reports bus |V| changes for every outage; its bytes are pinned."""
    code, out, _ = run(capsys, "sens", CASE14, "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["quantity"], doc["mode"], len(doc["outages"])) == ("vmag", "full", 20)
    assert [rec["outage"] for rec in doc["outages"] if rec["islanding"]] == [13]
    assert all(len(rec["deltas"]) == 14 for rec in doc["outages"] if not rec["islanding"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5448aefce70072848f2c457e50b9b781ddc378b4e9a877aae7da3e9f4c88d9ef"
    )


@pytest.mark.parametrize(
    "quantity, digest",
    [
        ("imag", "4895a6fd2f33d18ad0c3746b5036437e44e6533c46b051a386be792ea6f60612"),
        ("pline", "b172f80130fa165addd75b13490b6140de904fd46bfb81c50e9be4e9a2b9afc3"),
    ],
)
def test_sens_branch_csv_with_a_bridge(capsys, quantity, digest):
    """The branch-quantity CSV over every outage prints bridge 13 as one islanding row; its bytes are pinned."""
    code, out, _ = run(capsys, "sens", CASE14, "--quantity", quantity)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"outage,branch,{'delta_imag' if quantity == 'imag' else 'delta_p'},islanding"
    # 19 evaluated outages with 20 branch rows each, plus one islanding row
    assert len(lines) == 1 + 19 * 20 + 1 and lines.index("13,,,true") == 1 + 13 * 20
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--quantity", "pline"), "a407f37832fa455bbe82c7e99f42a96b1882c38e9daedf4f73d25e0fbd9fae76"),
        (
            ("--mode", "network", "--quantity", "imag"),
            "d4c93b4735fd2fa59bb1e3ea6d466a10b60914a29eda70ee99b6ad4e731b7148",
        ),
    ],
)
def test_sens_json_case118_bytes(capsys, argv, digest):
    """case118's outages fill six engine blocks, solved on the thread pool or, with one
    usable CPU, inline; the bytes are pinned."""
    code, out, _ = run(capsys, "sens", CASE118, "--json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sens_singular_non_bridge_outages_print_as_screen_does(capsys, monkeypatch, sol14, lin14):
    """With COND_LIMIT at the median case14 condition number, sens marks only bridge 13
    islanding, and its singular outages are screen's "singular transfer matrix" entries:
    a JSON note without cond or deltas, and one CSV row ending in false."""
    case = sol14.case
    bridges = find_bridges(case)
    outages = [k for k, br in enumerate(case.branches) if br.closed and k not in bridges]
    conds = [evaluate_outage(sol14, lin14, k).cond for k in outages]
    monkeypatch.setattr(sensitivity, "COND_LIMIT", float(np.median(conds)))
    code, out, _ = run(capsys, "screen", CASE14, "--json")
    assert code == 0 and bridges == {13}
    singular = sorted(e["branch"] for e in json.loads(out)["entries"] if e["note"] == "singular transfer matrix")
    assert 0 < len(singular) < len(outages)

    code, out, _ = run(capsys, "sens", CASE14, "--json")
    assert code == 0
    records = json.loads(out)["outages"]
    assert [rec["outage"] for rec in records if rec["islanding"]] == [13]
    noted = [rec for rec in records if "note" in rec]
    assert [rec["outage"] for rec in noted] == singular
    assert all(rec["note"] == "singular transfer matrix" and not {"cond", "deltas"} & set(rec) for rec in noted)

    code, out, _ = run(capsys, "sens", CASE14, "--quantity", "pline")
    assert code == 0
    blank = [line for line in out.splitlines() if ",,," in line]
    assert blank == [f"{k},,,{str(k in bridges).lower()}" for k in sorted([*singular, *bridges])]


def test_screen_csv_ranking(capsys):
    code, out, _ = run(capsys, "screen", CASE14)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,branch,from,to,severity,islanding,oracle_severity"
    assert len(lines) == 21
    top = lines[1].split(",")
    assert top[0] == "1" and top[1] == "13" and top[4] == "inf" and top[5] == "true"
    assert top[6] == ""  # no oracle requested


def test_screen_json_islanding_severity_null(capsys):
    code, out, _ = run(capsys, "screen", CASE14, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metric"] == "vmag_inf" and doc["mode"] == "full"
    first = doc["entries"][0]
    assert first["islanding"] is True and first["severity"] is None
    assert first["note"] == "islands the network"
    finite = [e["severity"] for e in doc["entries"][1:]]
    assert all(isinstance(v, float) for v in finite)
    assert finite == sorted(finite, reverse=True)


def test_screen_summary_file(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    code, out, _ = run(
        capsys, "screen", CASE14, "--top", "3", "--summary", str(summary)
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert doc["top_k"] == 3
    assert len(doc["entries"]) == 3


@pytest.mark.parametrize(
    "argv",
    [("solve", CASE14, "--max-iter", "0"), ("screen", CASE14, "--top", "-2", "--summary", "{summary}")],
    ids=["max-iter", "top"],
)
def test_counts_below_one_rejected(tmp_path, capsys, argv):
    summary = tmp_path / "summary.json"
    code, out, err = run(capsys, *(a.format(summary=summary) for a in argv))
    assert code == 1
    assert out == ""
    assert err == f"error: {argv[2]} must be at least 1, got {argv[3]}\n"
    assert not summary.exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", ["solve", "sens", "screen"])
def test_tolerance_not_finite_positive_rejected(capsys, command, tol):
    code, out, err = run(capsys, command, CASE14, "--tol", tol)
    assert code == 1
    assert out == ""
    assert err == f"error: --tol must be a finite positive number, got {tol}\n"


def test_screen_with_oracle_json(capsys):
    code, out, _ = run(capsys, "screen", CASE14, "--with-oracle", "--json")
    assert code == 0
    doc = json.loads(out)
    comp = doc["comparison"]
    assert comp["n_compared"] == 19
    assert comp["spearman"] > 0.8
    assert comp["top_overlap"]["5"] >= 3
    entry = doc["entries"][0]
    assert entry["oracle_islanded"] is True and entry["oracle_severity"] is None


def test_screen_json_counts_diverged_oracle_solves():
    # neither circuit of the pair carries the load alone
    doc = _report_json(screen(overload_pair(p=8.0), with_oracle=True))
    assert doc["comparison"]["n_diverged"] == 2
    assert all(e["oracle_converged"] is False for e in doc["entries"])


@pytest.mark.parametrize(
    "args",
    [
        (CASE14, "--json"),  # one engine block
        (CASE118, "--json"),  # several blocks: the thread pool, given two usable CPUs
        (CASE118, "--mode", "network", "--metric", "imag_inf", "--json"),
    ],
    ids=["case14-json", "case118-json", "case118-network-imag-json"],
)
def test_screen_reruns_are_byte_identical(capsys, args):
    _, first, _ = run(capsys, "screen", *args)
    _, second, _ = run(capsys, "screen", *args)
    assert first == second


def test_screen_with_oracle_reruns_are_byte_identical(capsys):
    _, first, _ = run(capsys, "screen", CASE14, "--with-oracle", "--json")
    _, second, _ = run(capsys, "screen", CASE14, "--with-oracle", "--json")
    assert first == second


def test_compare_self_is_perfect(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "screen", CASE14, "--json", "--out", str(report))
    assert code == 0
    code, out, _ = run(capsys, "compare", str(report), str(report))
    assert code == 0
    doc = json.loads(out)
    assert doc["n_compared"] == 19
    assert doc["spearman"] == pytest.approx(1.0)
    assert doc["max_abs_error"] == 0.0


def test_compare_two_modes(tmp_path, capsys):
    full = tmp_path / "full.json"
    network = tmp_path / "network.json"
    run(capsys, "screen", CASE14, "--json", "--out", str(full))
    run(capsys, "screen", CASE14, "--mode", "network", "--json", "--out", str(network))
    code, out, _ = run(capsys, "compare", str(full), str(network))
    assert code == 0
    doc = json.loads(out)
    assert doc["n_compared"] == 19
    assert not doc["insufficient"]


def test_compare_rejects_non_report(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"no_entries": true}')
    code, _, err = run(capsys, "compare", str(bogus), str(bogus))
    assert code == 1
    assert "entries" in err

    code, _, err = run(capsys, "compare", str(tmp_path / "missing.json"), str(bogus))
    assert code == 1

    # a top-level array, then entries without a branch, not an object, with a non-numeric
    # severity, with a branch that is no JSON integer (checked on an unscored entry too), with
    # a boolean severity or one past the float range, with an islanding flag that is not JSON
    # true or false (checked on an unscored entry too), and a repeated branch
    bogus.write_text("[]")
    code, _, err = run(capsys, "compare", str(bogus), str(bogus))
    assert code == 1 and "entries" in err and "Traceback" not in err
    good = {"branch": 0, "severity": 0.5, "islanding": False}
    for bad in (
        {"severity": 0.5},
        [3],
        "x",
        {"branch": 2, "severity": "x"},
        {"branch": [1], "severity": 0.5},
        {"branch": 3.7, "severity": 0.5},
        {"branch": "1", "severity": 0.5},
        {"branch": True, "severity": 0.5},
        {"branch": 1.0, "severity": None, "islanding": True},
        {"branch": 2, "severity": True},
        {"branch": 2, "severity": 10**400},
        {"branch": 2, "severity": 0.5, "islanding": "no"},
        {"branch": 2, "severity": 0.5, "islanding": 0},
        {"branch": 2, "severity": None, "islanding": None},
        {"branch": 0, "severity": 0.7},
        {"branch": 0, "severity": None, "islanding": True},
    ):
        bogus.write_text(json.dumps({"entries": [good, bad]}))
        code, _, err = run(capsys, "compare", str(bogus), str(bogus))
        assert code == 1, bad
        assert err.startswith("error: ") and str(bogus) in err and "entry 1" in err, (bad, err)


def test_compare_rejects_invalid_json(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "compare", str(broken), str(broken))
    assert code == 1
    assert "JSON" in err
    # bytes that are not UTF-8, and an integer past int()'s limit on digits
    for data in (b"\xff\xfe", b'{"entries": [{"branch": ' + b"9" * 5000 + b', "severity": 1}]}'):
        broken.write_bytes(data)
        code, _, err = run(capsys, "compare", str(broken), str(broken))
        assert code == 1 and err.startswith("error: invalid report JSON"), err
