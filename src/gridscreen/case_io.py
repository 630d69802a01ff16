"""Case model, MATPOWER-format parsing, and admittance matrix assembly.

All quantities are stored in per-unit on the system MVA base.  Branch
orientation follows the case file: the "from" side carries the off-nominal
tap of a transformer, and the phase shift is applied from "from" to "to".
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from enum import IntEnum
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import get_type_hints

import numpy as np
import scipy.sparse as sp

from .errors import CaseError


class BusKind(IntEnum):
    """Bus role in the power flow problem (values match the MATPOWER type codes)."""

    PQ = 1
    PV = 2
    SLACK = 3


@dataclass
class Bus:
    """One network node.

    Loads are positive when they consume power.  ``i_load_r``/``i_load_i``
    describe an optional constant-current load component (rectangular
    coordinates, per-unit); networks whose devices are all of this kind are
    exactly linear in the rectangular voltage state.
    """

    id: int
    kind: BusKind
    p_load: float = 0.0
    q_load: float = 0.0
    g_shunt: float = 0.0
    b_shunt: float = 0.0
    v_init: float = 1.0
    theta_init: float = 0.0
    i_load_r: float = 0.0
    i_load_i: float = 0.0


@dataclass
class Branch:
    """A transmission line or transformer between two buses.

    ``tap`` is the off-nominal turns ratio on the from side (1.0 for lines)
    and ``shift`` the phase shift in radians.  ``b_charging`` is the total
    line charging susceptance, split equally between the terminals.
    """

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    tap: float = 1.0
    shift: float = 0.0
    closed: bool = True


@dataclass
class Generator:
    """A machine holding `v_set` at its bus within reactive limits."""

    bus: int
    p_set: float = 0.0
    v_set: float = 1.0
    q_min: float = -math.inf
    q_max: float = math.inf


@dataclass
class GridCase:
    """An immutable-by-convention network snapshot.

    Buses keep their external ids; everything else references buses by id.
    Positional indices (used by matrices and result vectors) follow the
    order of ``buses``.
    """

    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {bus.id: i for i, bus in enumerate(self.buses)}

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    def bus_index(self, bus_id: int) -> int:
        """Positional index of the bus with external id ``bus_id``."""
        try:
            return self._index[bus_id]
        except KeyError:
            raise CaseError(f"unknown bus id {bus_id}") from None

    def slack_index(self) -> int:
        for i, bus in enumerate(self.buses):
            if bus.kind == BusKind.SLACK:
                return i
        raise CaseError("case has no slack bus")

    def with_branch_open(self, branch_idx: int) -> "GridCase":
        """Copy of the case with one branch switched out (indices preserved).

        A ``branch_idx`` that is not an integer raises ``TypeError``, one out
        of range ``ValueError``; an open branch may be opened again.
        """
        _branch_index(self, branch_idx)
        branches = list(self.branches)
        branches[branch_idx] = replace(branches[branch_idx], closed=False)
        return GridCase(self.name, self.base_mva, self.buses, tuple(branches), self.generators)

    def validate(self) -> None:
        """Raise :class:`CaseError` on any structural inconsistency.

        The error names the first fault in record order: buses, the slack
        count, branches, generators, then the generators' voltage
        setpoints, and within one record its first failed check.
        """
        if self.base_mva <= 0:
            raise CaseError(f"base MVA must be positive, got {self.base_mva}")
        if not self.buses:
            raise CaseError("case has no buses")
        seen = set()
        for bus in self.buses:
            if bus.id in seen:
                raise CaseError(f"duplicate bus id {bus.id}")
            seen.add(bus.id)
            if bus.v_init <= 0:
                raise CaseError(f"bus {bus.id}: initial voltage magnitude must be positive")
        n_slack = sum(bus.kind == BusKind.SLACK for bus in self.buses)
        if n_slack != 1:
            raise CaseError(f"case must have exactly one slack bus, found {n_slack}")
        index = self._index
        for i, br in enumerate(self.branches):
            for end in (br.from_bus, br.to_bus):
                if end not in index:
                    raise CaseError(f"branch {i} references unknown bus {end}")
            if br.from_bus == br.to_bus:
                raise CaseError(f"branch {i} connects bus {br.from_bus} to itself")
            if br.closed and br.r == 0 and br.x == 0:
                raise CaseError(f"branch {i} is closed with zero impedance")
            if not br.tap > 0:
                raise CaseError(f"branch {i} has non-positive tap ratio {br.tap}")
        for g in self.generators:
            if g.bus not in index:
                raise CaseError(f"generator references unknown bus {g.bus}")
            if g.q_min > g.q_max:
                raise CaseError(f"generator at bus {g.bus} has q_min > q_max")
            if g.v_set <= 0:
                raise CaseError(f"generator at bus {g.bus} has non-positive voltage setpoint")
        # each generator at a regulated bus against the first there, itself
        # included, as a NaN setpoint differs from itself
        v_set: dict[int, float] = {}
        for g in self.generators:
            if self.buses[index[g.bus]].kind in (BusKind.PV, BusKind.SLACK):
                first = v_set.setdefault(g.bus, g.v_set)
                if first != g.v_set:
                    raise CaseError(
                        f"bus {g.bus}: generators disagree on the voltage setpoint ({first} vs {g.v_set})"
                    )


def _bus_kinds(buses) -> np.ndarray:
    """The type code of every bus, in record order."""
    return np.fromiter([b.kind for b in buses], dtype=np.int64, count=len(buses))


def _bus_positions(case: GridCase, ids: list) -> np.ndarray:
    """Positional indices of the buses with external ids ``ids``.

    An id that names no bus raises :class:`CaseError` as
    :meth:`GridCase.bus_index` does.
    """
    positions = np.fromiter(map(case._index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))
    if (positions < 0).any():
        raise CaseError(f"unknown bus id {ids[int((positions < 0).argmax())]}")
    return positions


def _branch_index(case: GridCase, k: int) -> None:
    """Raise unless ``k`` indexes a branch of ``case``.

    An index that is not a Python or numpy integer, ``bool`` included,
    raises ``TypeError``; one out of range, ``ValueError``.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise TypeError(f"branch index {k!r} is not an integer")
    if not 0 <= k < case.n_branch:
        raise ValueError(f"branch index {k} out of range")


def _closed_branch(case: GridCase, k: int) -> None:
    """Raise unless ``k`` indexes a closed branch of ``case``.

    Checks ``k`` as :func:`_branch_index` does; an open branch raises
    ``ValueError``.
    """
    _branch_index(case, k)
    if not case.branches[k].closed:
        raise ValueError(f"branch {k} is open")


# -- MATPOWER-format parsing -------------------------------------------------

# column counts for the table rows we understand
_MIN_COLS = {"bus": 13, "gen": 10, "branch": 11}
# the real columns read from each table, status columns included: each must be finite,
# but a generator's reactive limits QMAX and QMIN (columns 3 and 4) may be infinite
_REAL_COLS = {"bus": (2, 3, 4, 5, 7, 8), "gen": (1, 3, 4, 5, 7), "branch": (2, 3, 4, 8, 9, 10)}

_TABLE_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[")
_BASE_RE = re.compile(r"mpc\.baseMVA\s*=\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*;")
_NAME_RE = re.compile(r"function\s+mpc\s*=\s*(\w+)")


def _integer(value: float, what: str, lineno: int) -> int:
    """A table entry that must be a whole number, such as a bus id or type code.

    A value that is not finite, or not integral, raises :class:`CaseError`
    at line ``lineno``.
    """
    if not value.is_integer():
        raise CaseError(f"{what} must be an integer, got {value!r}", line=lineno)
    return int(value)


def parse_case(text: str, name: str = "case") -> GridCase:
    """Parse MATPOWER-format case text into a :class:`GridCase`.

    Only the ``baseMVA``, ``bus``, ``gen`` and ``branch`` tables are read;
    other assignments are ignored, and so are the columns not read.  Raises
    :class:`CaseError` with a line number on malformed input, a value that
    is not finite among them (a reactive limit may be infinite).
    """
    base_mva: float | None = None
    tables: dict[str, list[tuple[int, list[float]]]] = {"bus": [], "gen": [], "branch": []}
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()  # a comment runs from % to the end of the line
        if not line:
            continue
        if current is None:
            m = _NAME_RE.search(line)
            if m and name == "case":
                name = m.group(1)
            m = _BASE_RE.search(line)
            if m:
                base_mva = float(m.group(1))
                if math.isinf(base_mva):
                    raise CaseError(f"mpc.baseMVA must be finite, got {m.group(1)}", line=lineno)
                continue
            m = _TABLE_RE.search(line)
            if m:
                table = m.group(1)
                if table in tables:
                    current = table
                continue
        else:
            if line.startswith("]"):
                current = None
                continue
            row_text = line.rstrip(";").strip()
            if not row_text:
                continue
            try:
                row = list(map(float, row_text.split()))
            except ValueError:
                raise CaseError(f"malformed numeric row in mpc.{current}", line=lineno) from None
            if len(row) < _MIN_COLS[current]:
                raise CaseError(
                    f"mpc.{current} row has {len(row)} columns, expected at least {_MIN_COLS[current]}",
                    line=lineno,
                )
            if not math.isfinite(sum(row)):  # some entry is not finite, which a column not read may hold
                for k in _REAL_COLS[current]:
                    limit = current == "gen" and k in (3, 4)
                    if math.isnan(row[k]) or not limit and math.isinf(row[k]):
                        rule = "a number" if limit else "finite"
                        raise CaseError(f"mpc.{current} column {k + 1} must be {rule}, got {row[k]!r}", line=lineno)
            tables[current].append((lineno, row))

    if current is not None:
        raise CaseError(f"unterminated mpc.{current} table")
    if base_mva is None:
        raise CaseError("missing mpc.baseMVA")
    if not tables["bus"]:
        raise CaseError("missing or empty mpc.bus table")

    base = base_mva
    buses = []
    for lineno, row in tables["bus"]:
        bus_id = _integer(row[0], "bus id", lineno)
        code = _integer(row[1], "bus type code", lineno)
        try:
            kind = BusKind(code)
        except ValueError:
            raise CaseError(f"bus {bus_id} has unknown type code {code}", line=lineno) from None
        if row[7] <= 0:
            raise CaseError(f"bus {bus_id} has non-positive voltage magnitude", line=lineno)
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                p_load=row[2] / base,
                q_load=row[3] / base,
                g_shunt=row[4] / base,
                b_shunt=row[5] / base,
                v_init=row[7],
                theta_init=math.radians(row[8]),
            )
        )

    # out-of-service units are dropped here so downstream code never sees them
    generators = []
    for lineno, row in tables["gen"]:
        bus_id = _integer(row[0], "generator bus", lineno)
        if row[7] <= 0:
            continue
        generators.append(
            Generator(
                bus=bus_id,
                p_set=row[1] / base,
                v_set=row[5],
                q_min=row[4] / base,
                q_max=row[3] / base,
            )
        )

    branches = []
    for lineno, row in tables["branch"]:
        ratio = row[8]
        branches.append(
            Branch(
                from_bus=_integer(row[0], "branch from bus", lineno),
                to_bus=_integer(row[1], "branch to bus", lineno),
                r=row[2],
                x=row[3],
                b_charging=row[4],
                tap=1.0 if ratio == 0 else ratio,
                shift=math.radians(row[9]),
                closed=row[10] > 0,
            )
        )

    case = GridCase(name, base, tuple(buses), tuple(branches), tuple(generators))
    case.validate()
    return case


def load_case(path: str | Path) -> GridCase:
    """Read a case from a ``.m`` (MATPOWER format) or ``.json`` file."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseError(f"cannot read case file {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        return case_from_json(text)
    return parse_case(text, name=path.stem)


def bundled_case_path(name: str) -> Path:
    """Path of a case file shipped with the package (e.g. ``"case14"``)."""
    from importlib.resources import files

    resource = files("gridscreen.data").joinpath(f"{name}.m")
    path = Path(str(resource))
    if not path.exists():
        raise CaseError(f"no bundled case named {name!r}")
    return path


def bundled_case(name: str) -> GridCase:
    return load_case(bundled_case_path(name))


# -- JSON round trip ----------------------------------------------------------

_SCHEMA_VERSION = 1


def _schema(record_type: type) -> list[tuple[Field, type]]:
    """The fields of a case record type, each with its resolved annotation."""
    hints = get_type_hints(record_type)
    return [(f, hints[f.name]) for f in fields(record_type)]


def _unbounded(f: Field) -> bool:
    """True for a field whose default is an infinite limit; JSON writes that limit as null."""
    return isinstance(f.default, float) and math.isinf(f.default)


def _records_to_dicts(record_type: type, records) -> list[dict]:
    schema = _schema(record_type)
    docs = []
    for record in records:
        doc = {}
        for f, typ in schema:
            value = getattr(record, f.name)
            if _unbounded(f) and value == f.default:
                value = None
            elif issubclass(typ, IntEnum):
                value = int(value)
            doc[f.name] = value
        docs.append(doc)
    return docs


def _from_json(name: str, typ: type, value, unbounded: bool = False):
    """``value`` as the field ``name`` of type ``typ``, or a ``TypeError`` naming the field.

    A bool takes only JSON true or false, a string only a JSON string, an integer only a JSON
    integer, and a float only a finite JSON number, or an infinite one for an ``unbounded`` limit.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ is bool:
        ok, rule = isinstance(value, bool), "true or false"  # bool("false") is True
    elif typ is str:
        ok, rule = isinstance(value, str), "a string"
    elif issubclass(typ, int):
        ok, rule = number and isinstance(value, int), "an integer"
    elif unbounded:
        ok, rule = number and not math.isnan(value), "a number"
    else:
        ok, rule = number and math.isfinite(value), "a finite number"
    if not ok:
        raise TypeError(f"{name!r} must be {rule}, not {json.dumps(value)}")
    return typ(value)


def _records_from_dicts(record_type: type, docs) -> tuple:
    schema = _schema(record_type)
    records = []
    for doc in docs:
        values = {}
        for f, typ in schema:
            # a missing optional field, or a null limit, takes the dataclass default; required
            # fields come first, so a record that is no dict fails on its first key
            if f.default is not MISSING and (f.name not in doc or doc[f.name] is None and _unbounded(f)):
                continue
            values[f.name] = _from_json(f.name, typ, doc[f.name], _unbounded(f))
        records.append(record_type(**values))
    return tuple(records)


def case_to_dict(case: GridCase) -> dict:
    return {
        "schema_version": _SCHEMA_VERSION,
        "name": case.name,
        "base_mva": case.base_mva,
        "buses": _records_to_dicts(Bus, case.buses),
        "branches": _records_to_dicts(Branch, case.branches),
        "generators": _records_to_dicts(Generator, case.generators),
    }


def case_from_dict(data: dict) -> GridCase:
    """Read a case from :func:`case_to_dict`'s form, version 1; a missing optional field or name takes its default."""
    try:
        if _from_json("schema_version", int, data["schema_version"]) != _SCHEMA_VERSION:
            raise ValueError(f"'schema_version' must be {_SCHEMA_VERSION}, not {data['schema_version']}")
        buses = _records_from_dicts(Bus, data["buses"])
        branches = _records_from_dicts(Branch, data["branches"])
        generators = _records_from_dicts(Generator, data["generators"])
        case = GridCase(
            name=_from_json("name", str, data.get("name", "case")),
            base_mva=_from_json("base_mva", float, data["base_mva"]),
            buses=buses,
            branches=branches,
            generators=generators,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CaseError(f"malformed case dictionary: {exc}") from exc
    case.validate()
    return case


def case_to_json(case: GridCase) -> str:
    """Canonical JSON form: stable key order, one byte stream per case."""
    return json.dumps(case_to_dict(case), sort_keys=True, separators=(",", ":"))


def case_from_json(text: str) -> GridCase:
    try:
        data = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer beyond Python's digit limit
        raise CaseError(f"invalid case JSON: {exc}") from exc
    return case_from_dict(data)


# -- admittance assembly ------------------------------------------------------

def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array of the given parts, bit for bit (``re + 1j * im`` may flip a signed zero)."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _c_prod(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """Parts of ``a * b``, multiplied as CPython multiplies complex numbers."""
    return ar * br - ai * bi, ar * bi + ai * br


def _c_quot(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """Parts of ``a / b``, divided as CPython divides complex numbers (Smith's method).

    NumPy's complex division multiplies by a reciprocal, so its quotients
    can differ from CPython's in the last bit.
    """
    ar, ai, br, bi = (np.asarray(part, dtype=float) for part in (ar, ai, br, bi))
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        re = np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _branch_stamps(branches) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-port admittances ``(yff, yft, ytf, ytt)`` of every branch, zeros for open ones.

    The fields are read once into arrays and combined in real arithmetic
    that repeats CPython's complex operations step by step, so every stamp
    equals the scalar complex formula of its branch bit for bit.  A closed
    branch with zero impedance raises :class:`CaseError`.
    """
    r = np.array([br.r for br in branches], dtype=float)
    x = np.array([br.x for br in branches], dtype=float)
    b_charging = np.array([br.b_charging for br in branches], dtype=float)
    tap = np.array([br.tap for br in branches], dtype=float)
    shift = np.array([br.shift for br in branches], dtype=float)
    closed = np.array([br.closed for br in branches], dtype=bool)
    short = closed & (r == 0) & (x == 0)
    if short.any():
        raise CaseError(f"branch {int(short.argmax())} is closed with zero impedance")
    cos, sin = np.ones(len(shift)), np.zeros(len(shift))
    for i in np.flatnonzero(shift):  # math's cos and sin, as the scalar formula; NumPy's may round otherwise
        cos[i], sin[i] = math.cos(shift[i]), math.sin(shift[i])
    ys = _c_quot(1.0, 0.0, r, x)  # 1 / (r + jx)
    bc = _c_quot(*_c_prod(0.0, 1.0, b_charging, 0.0), 2.0, 0.0)  # 1j * b / 2
    ratio = _c_prod(tap, 0.0, cos, sin)  # tap * (cos + j sin)
    ys_bc = (ys[0] + bc[0], ys[1] + bc[1])
    yff = _c_quot(*ys_bc, tap * tap, 0.0)
    yft = _c_quot(-ys[0], -ys[1], ratio[0], -ratio[1])
    ytf = _c_quot(-ys[0], -ys[1], *ratio)
    return tuple(np.where(closed, _complex(*y), 0j) for y in (yff, yft, ytf, ys_bc))


# a branch block is the 2x2 real form of multiplication by each admittance:
# its entries, as positions in [yff.real, yff.imag, yft.real, ..., ytt.imag],
# and their signs
_BLOCK_PARTS = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [4, 5, 6, 7], [5, 4, 7, 6]])
_BLOCK_SIGNS = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0]] * 2)
# the state rows of a branch's terminals [2f, 2f + 1, 2t, 2t + 1], less 2f and 2t
_ROW_OFFSETS = np.array([0, 1, 0, 1])


def _branch_blocks(
    f: np.ndarray, t: np.ndarray, yff: np.ndarray, yft: np.ndarray, ytf: np.ndarray, ytt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The terminal state rows (c, 4) and current blocks (c, 4, 4) of c branches.

    ``f`` and ``t`` are the branches' terminal buses, the others their
    two-port admittances (see :func:`_branch_stamps`).  Row ``i`` of
    both is the :class:`~gridscreen.sensitivity.BranchCurrentJacobian` of
    branch ``i``: the state rows ``[2f, 2f + 1, 2t, 2t + 1]`` of its
    terminal voltages and the derivative of its terminal currents wrt them.
    """
    rows = 2 * np.array([f, f, t, t]).T + _ROW_OFFSETS
    y = np.empty((len(f), 4), dtype=complex)
    y[:, 0], y[:, 1], y[:, 2], y[:, 3] = yff, yft, ytf, ytt
    return rows, y.view(float).take(_BLOCK_PARTS, axis=1) * _BLOCK_SIGNS


@dataclass
class AdmittanceMatrix:
    """Sparse bus admittance matrix with its per-branch stamps.

    The stamp arrays are aligned with ``case.branches`` (zeros for open
    branches) so that any branch quantity can be recovered without
    re-reading the case.
    """

    n: int
    matrix: sp.csr_matrix
    from_idx: np.ndarray
    to_idx: np.ndarray
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    y_shunt: np.ndarray

    @cached_property
    def _branch_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The state rows (m, 4) and current blocks (m, 4, 4) of every branch, read-only.

        Built from the stamps on first use (see :func:`_branch_blocks`);
        open branches have zero blocks.
        """
        rows, blocks = _branch_blocks(self.from_idx, self.to_idx, self.yff, self.yft, self.ytf, self.ytt)
        rows.flags.writeable = blocks.flags.writeable = False
        return rows, blocks


def build_ybus(case: GridCase) -> AdmittanceMatrix:
    """Assemble the complex bus admittance matrix of all closed branches and bus shunts.

    The pure series connection network is the matrix of a copy of the case
    without line charging, bus shunts, off-nominal taps and phase shifts;
    every row of it sums to zero.
    """
    from_idx = _bus_positions(case, [br.from_bus for br in case.branches])
    to_idx = _bus_positions(case, [br.to_bus for br in case.branches])
    y_shunt = _complex(
        np.array([b.g_shunt for b in case.buses], dtype=float), np.array([b.b_shunt for b in case.buses], dtype=float)
    )
    return _assemble_ybus(case.n, from_idx, to_idx, *_branch_stamps(case.branches), y_shunt)


def _without_branch(ybus: AdmittanceMatrix, branch_idx: int) -> AdmittanceMatrix:
    """``ybus`` with the stamp of one branch zeroed, as if the branch were open.

    The zeroed entries stay explicit, so the matrix keeps the sparsity
    pattern of ``ybus`` and equals ``build_ybus`` of the case with that
    branch open.
    """
    stamps = [s.copy() for s in (ybus.yff, ybus.yft, ybus.ytf, ybus.ytt)]
    for s in stamps:
        s[branch_idx] = 0j
    return _assemble_ybus(ybus.n, ybus.from_idx, ybus.to_idx, *stamps, ybus.y_shunt)


def _assemble_ybus(
    n: int,
    from_idx: np.ndarray,
    to_idx: np.ndarray,
    yff: np.ndarray,
    yft: np.ndarray,
    ytf: np.ndarray,
    ytt: np.ndarray,
    y_shunt: np.ndarray,
) -> AdmittanceMatrix:
    """Sum the branch stamps and bus shunts into the sparse admittance matrix."""
    rows = np.concatenate([from_idx, from_idx, to_idx, to_idx, np.arange(n)])
    cols = np.concatenate([from_idx, to_idx, from_idx, to_idx, np.arange(n)])
    vals = np.concatenate([yff, yft, ytf, ytt, y_shunt])
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()
    return AdmittanceMatrix(
        n=n,
        matrix=matrix,
        from_idx=from_idx,
        to_idx=to_idx,
        yff=yff,
        yft=yft,
        ytf=ytf,
        ytt=ytt,
        y_shunt=y_shunt,
    )


def scale_loading(case: GridCase, factor: float) -> GridCase:
    """Uniformly scale every load and generator setpoint by ``factor``; one not finite raises ``ValueError``."""
    if not math.isfinite(factor):
        raise ValueError(f"loading factor must be finite, got {factor}")
    buses = tuple(
        replace(
            b,
            p_load=factor * b.p_load,
            q_load=factor * b.q_load,
            i_load_r=factor * b.i_load_r,
            i_load_i=factor * b.i_load_i,
        )
        for b in case.buses
    )
    gens = tuple(replace(g, p_set=factor * g.p_set) for g in case.generators)
    return GridCase(case.name, case.base_mva, buses, case.branches, gens)
