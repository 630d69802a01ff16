"""Standing mutation check: every named one-line mutant of ``src/`` must fail its tests.

Run it from any directory, with numpy, scipy, pytest and hypothesis installed::

    python tests/mutants.py

For each mutant the working tree, without ``.git``, is copied to a temporary
directory; the mutant's ``old`` string, which must occur exactly once in its
file, is replaced by ``new``; and ``python -m pytest -x -q`` runs the
mutant's test file and ``-k`` filter in the copy, which must fail.  The copy
is deleted afterwards, so the tree is left as it was.  The whole tree is
copied, not ``src/`` alone, because ``pyproject.toml`` puts its own ``src``
on the tests' import path.  The script exits 1 if a mutant survives, if its
``old`` string is not found exactly once, or if its tests cannot run.

pytest does not collect this file: its name does not start with ``test_``.
A change that adds a fork, a fast path or a kept result adds a mutant here
that only its tests catch.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# seconds one mutant's tests may take; a mutant that stops the solver converging must not hang
TIMEOUT = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # the mutated file, relative to the tree
    old: str
    new: str
    tests: str  # the test file that must catch it
    select: str  # its -k filter


MUTANTS = (
    Mutant(
        "engine transfer matrix I + B Z",
        "src/gridscreen/sensitivity.py",
        "t = _EYE4 - blocks[block] @ at_terminals",
        "t = _EYE4 + blocks[block] @ at_terminals",
        "tests/test_acceptance.py",
        "c5",
    ),
    Mutant(
        "query transfer matrix I + B Z",
        "src/gridscreen/sensitivity.py",
        "t = _EYE4 - table_blocks[outage] @ w[table_rows[outage]]",
        "t = _EYE4 + table_blocks[outage] @ w[table_rows[outage]]",
        "tests/test_acceptance.py",
        "c1",
    ),
    Mutant(
        "own-column current sign in the monitors",
        "src/gridscreen/sensitivity.py",
        "di_from[np.arange(len(outages)), outages] = -base.i_from[outages]",
        "di_from[np.arange(len(outages)), outages] = base.i_from[outages]",
        "tests/test_sensitivity.py",
        "removed_branch_conventions",
    ),
    Mutant(
        "min ranks for ties",
        "src/gridscreen/screening.py",
        "np.repeat(first + (counts + 1) / 2, counts)",
        "np.repeat(first + 1, counts)",
        "tests/test_screening.py",
        "spearman_is_scipys_bit_for_bit",
    ),
    Mutant(
        "oracle stops at tol * 1e3",
        "src/gridscreen/screening.py",
        "done = mismatch <= options.tol / 10",
        "done = mismatch <= options.tol * 1e3",
        "tests/test_screening.py",
        "oracle_deltas_are_post_minus_pre",
    ),
    Mutant(
        "Broyden update sign",
        "src/gridscreen/screening.py",
        "s += steps[j + 1] * (_dot(steps[j], s) / norms[j])[:, None]",
        "s -= steps[j + 1] * (_dot(steps[j], s) / norms[j])[:, None]",
        "tests/test_screening.py",
        "filters_broyden_states_past_reactive_limits",
    ),
    Mutant(
        "chord patience of 1",
        "src/gridscreen/screening.py",
        "(stalled < _CHORD_PATIENCE)",
        "(stalled < 1)",
        "tests/test_screening.py",
        "broyden_sends_no_case14_or_case118_outage_to_newton",
    ),
    Mutant(
        "kept row read for another solution",
        "src/gridscreen/sensitivity.py",
        "if kept is not None and kept[0] is base else None",
        "if kept is not None else None",
        "tests/test_sensitivity.py",
        "queries_after_a_screen",
    ),
    Mutant(
        "branch block sign",
        "src/gridscreen/case_io.py",
        "_BLOCK_SIGNS = np.array([[1.0, -1.0, 1.0, -1.0],",
        "_BLOCK_SIGNS = np.array([[1.0, 1.0, 1.0, -1.0],",
        "tests/test_acceptance.py",
        "c3",
    ),
    Mutant(
        "impact pass keeps rows",
        "src/gridscreen/sensitivity.py",
        "    n2 = 2 * sol.n\n",
        "    n2 = 2 * sol.n\n    lin._rows = (base, {})\n",
        "tests/test_sensitivity.py",
        "impact_pass_keeps_nothing",
    ),
    Mutant(
        "screen keeps rows of its metric's monitor only",
        "src/gridscreen/sensitivity.py",
        "quantities = _QUANTITIES if kept is not None else (_METRIC_QUANTITY[metric],)",
        "quantities = (_METRIC_QUANTITY[metric],)",
        "tests/test_sensitivity.py",
        "queries_after_a_screen",
    ),
    Mutant(
        "screen counts no diverged oracle solve",
        "src/gridscreen/screening.py",
        "comparison.n_diverged = len(solved) - len(reference)",
        "comparison.n_diverged = 0",
        "tests/test_screening.py",
        "nonconverged_oracle_excluded_from_comparison",
    ),
    Mutant(
        "oracle islanding read from the bridges",
        "src/gridscreen/screening.py",
        "entry.oracle_islanded = idx in islands",
        "entry.oracle_islanded = idx in bridges",
        "tests/test_screening.py",
        "disconnected_case",
    ),
)


def run(mutant: Mutant) -> str | None:
    """Apply ``mutant`` to a copy of the tree and run its tests there; None if they catch it, else why not."""
    with tempfile.TemporaryDirectory(prefix="gridscreen-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, tree, ignore=ignore)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"{mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}, not once"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import gridscreen; print(gridscreen.__file__)"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        if where.returncode or not Path(where.stdout.strip()).resolve().is_relative_to(tree.resolve()):
            return f"gridscreen is not imported from the copy: {where.stdout.strip() or where.stderr.strip()}"
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        command += [mutant.tests, "-k", mutant.select]
        try:
            tests = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"{mutant.tests} -k {mutant.select} did not end within {TIMEOUT} s"
        if tests.returncode == 1:  # a test failed
            return None
        tail = "\n".join(tests.stdout.splitlines()[-5:] + tests.stderr.splitlines()[-5:])
        if tests.returncode == 0:
            return f"survived {mutant.tests} -k {mutant.select}:\n{tail}"
        return f"pytest exited {tests.returncode} on {mutant.tests} -k {mutant.select}:\n{tail}"


def main() -> int:
    failures = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        problem = run(mutant)
        verdict = "caught" if problem is None else "FAILED"
        print(f"{verdict}: {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        if problem is not None:
            failures += 1
            print(problem, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
