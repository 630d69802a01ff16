"""Parser, validation, serialization and admittance construction tests."""

import json
import math
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscreen.case_io import (
    Branch,
    Bus,
    BusKind,
    Generator,
    GridCase,
    build_ybus,
    bundled_case,
    bundled_case_path,
    case_from_json,
    case_to_json,
    load_case,
    parse_case,
    scale_loading,
)
from gridscreen.errors import CaseError

import reference
from gridbuild import NON_INTEGER_INDICES, random_meshed, triangle, two_bus, with_devices

MINI_CASE = """\
function mpc = mini
% a tiny two-bus fixture
mpc.baseMVA = 100;

mpc.bus = [
    1  3  0    0   0  0  1  1.00  0.0  132  1  1.1  0.9;
    2  1  90  30   0  5  1  0.98  -2.5 132  1  1.1  0.9; % load bus
];

mpc.gen = [
    1  50  0  300  -300  1.02  100  1  400  -400;
    2  10  0  100  -100  1.00  100  0  100  -100;
];

mpc.branch = [
    1  2  0.01  0.05  0.02  130  0  0  0      0  1;
    2  1  0.02  0.08  0.00  130  0  0  0.95  30  0;
];
"""


def test_parse_mini_case():
    case = parse_case(MINI_CASE, name="mini")
    assert case.name == "mini"
    assert case.base_mva == 100.0
    assert case.n == 2 and case.n_branch == 2

    b1, b2 = case.buses
    assert b1.kind is BusKind.SLACK and b2.kind is BusKind.PQ
    assert b2.p_load == pytest.approx(0.90)
    assert b2.q_load == pytest.approx(0.30)
    assert b2.b_shunt == pytest.approx(0.05)
    assert b2.v_init == pytest.approx(0.98)
    assert b2.theta_init == pytest.approx(math.radians(-2.5))

    # generator 2 is out of service and must be dropped
    assert len(case.generators) == 1
    gen = case.generators[0]
    assert gen.bus == 1 and gen.p_set == pytest.approx(0.50)
    assert gen.q_max == pytest.approx(3.0) and gen.q_min == pytest.approx(-3.0)

    line, xfmr = case.branches
    assert line.closed and line.tap == 1.0 and line.shift == 0.0
    assert not xfmr.closed
    assert xfmr.tap == pytest.approx(0.95)
    assert xfmr.shift == pytest.approx(math.radians(30.0))


def test_parse_function_name_used_when_no_override():
    case = parse_case(MINI_CASE.replace("mini", "other"))
    assert case.name == "other"


def test_parse_reports_line_numbers():
    broken = MINI_CASE.replace("2  1  90  30", "2  1  oops  30")
    with pytest.raises(CaseError) as err:
        parse_case(broken)
    assert "line 7" in str(err.value)


def test_parse_rejects_short_rows():
    broken = MINI_CASE.replace(
        "1  2  0.01  0.05  0.02  130  0  0  0      0  1;",
        "1  2  0.01  0.05;",
    )
    with pytest.raises(CaseError, match="column"):
        parse_case(broken)


@pytest.mark.parametrize("value", ["1.5", "inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "row, edited, line",
    [
        ("    2  1  90  30", "    {}  1  90  30", 7),  # bus id
        ("    2  1  90  30", "    2  {}  90  30", 7),  # bus type
        ("    1  50  0  300", "    {}  50  0  300", 11),  # generator bus
        ("    2  10  0  100", "    {}  10  0  100", 12),  # generator bus, out of service
        ("    1  2  0.01", "    {}  2  0.01", 16),  # branch from bus
        ("    2  1  0.02", "    2  {}  0.02", 17),  # branch to bus
    ],
    ids=["bus-id", "bus-type", "gen-bus", "gen-bus-off", "branch-from", "branch-to"],
)
def test_parse_rejects_non_integer_ids_and_codes(row, edited, line, value):
    """Bus ids, bus types and branch and generator buses are whole numbers: a fraction or a
    value that is not finite raises CaseError at its line, where ``int`` would truncate it or
    raise OverflowError or ValueError."""
    assert MINI_CASE.count(row) == 1
    with pytest.raises(CaseError, match=f"^line {line}: .* must be an integer, got {value}$"):
        parse_case(MINI_CASE.replace(row, edited.format(value)))


def test_parse_accepts_integral_floats():
    case = parse_case(MINI_CASE.replace("    2  1  90  30", "    2.0  1e0  90  30"))
    assert case == parse_case(MINI_CASE)
    assert type(case.buses[1].id) is int


def _with_entry(text: str, line: int, column: int, value: str) -> str:
    """``text`` with the entry in ``column`` (0-based) of table row ``line`` replaced by ``value``."""
    lines = text.splitlines()
    row, rest = lines[line - 1].split(";", 1)
    entries = row.split()
    entries[column] = value
    lines[line - 1] = "    " + "  ".join(entries) + ";" + rest
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "table, line, column",
    [
        ("bus", 7, 2),  # PD
        ("bus", 7, 5),  # BS
        ("bus", 7, 7),  # VM
        ("bus", 7, 8),  # VA
        ("gen", 11, 1),  # PG
        ("gen", 11, 5),  # VG
        ("gen", 12, 7),  # GEN_STATUS of the unit out of service
        ("branch", 16, 2),  # BR_R
        ("branch", 16, 3),  # BR_X
        ("branch", 17, 8),  # TAP
        ("branch", 17, 9),  # SHIFT
        ("branch", 16, 10),  # BR_STATUS
    ],
)
def test_parse_rejects_non_finite_entries(table, line, column, value):
    """A column the reader takes, status columns included, holds a finite number; anything else
    raises CaseError at its line, where it would reach the solver as NaN or a dead branch."""
    with pytest.raises(CaseError, match=f"^line {line}: mpc.{table} column {column + 1} must be finite, got {value}$"):
        parse_case(_with_entry(MINI_CASE, line, column, value))


def test_parse_takes_infinite_reactive_limits_only():
    """QMAX and QMIN may be infinite, never NaN; columns the reader ignores may hold anything."""
    unbounded = _with_entry(_with_entry(MINI_CASE, 11, 3, "Inf"), 11, 4, "-Inf")
    gen = parse_case(unbounded).generators[0]
    assert (gen.q_min, gen.q_max) == (-math.inf, math.inf)
    for column in (3, 4):
        with pytest.raises(CaseError, match=f"^line 11: mpc.gen column {column + 1} must be a number, got nan$"):
            parse_case(_with_entry(MINI_CASE, 11, column, "NaN"))
    ignored = _with_entry(_with_entry(_with_entry(MINI_CASE, 7, 9, "Inf"), 11, 8, "Inf"), 16, 5, "NaN")
    assert parse_case(ignored) == parse_case(MINI_CASE)


def test_parse_rejects_an_infinite_base():
    with pytest.raises(CaseError, match="^line 3: mpc.baseMVA must be finite, got 1e999$"):
        parse_case(MINI_CASE.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 1e999;"))
    with pytest.raises(CaseError, match="^missing mpc.baseMVA$"):
        parse_case(MINI_CASE.replace("mpc.baseMVA = 100;", "mpc.baseMVA = -;"))


def test_parse_requires_tables():
    with pytest.raises(CaseError, match="bus"):
        parse_case("function mpc = empty\nmpc.baseMVA = 100;\n")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: GridCase(c.name, -1.0, c.buses, c.branches, c.generators), "base"),
        (
            lambda c: GridCase(
                c.name,
                c.base_mva,
                c.buses + (Bus(1, BusKind.PQ),),
                c.branches,
                c.generators,
            ),
            "duplicate",
        ),
        (
            lambda c: GridCase(
                c.name,
                c.base_mva,
                tuple(
                    Bus(b.id, BusKind.PQ if b.kind is BusKind.SLACK else b.kind, b.p_load, b.q_load)
                    for b in c.buses
                ),
                c.branches,
                c.generators,
            ),
            "slack",
        ),
        (
            lambda c: GridCase(
                c.name,
                c.base_mva,
                c.buses,
                c.branches + (Branch(1, 99, 0.01, 0.05),),
                c.generators,
            ),
            "unknown bus",
        ),
        (
            lambda c: GridCase(
                c.name,
                c.base_mva,
                c.buses,
                c.branches + (Branch(2, 2, 0.01, 0.05),),
                c.generators,
            ),
            "itself",
        ),
        (
            lambda c: GridCase(
                c.name,
                c.base_mva,
                c.buses,
                c.branches + (Branch(1, 2, 0.0, 0.0),),
                c.generators,
            ),
            "impedance",
        ),
        (
            lambda c: GridCase(
                c.name,
                c.base_mva,
                c.buses,
                c.branches + (Branch(1, 2, 0.01, 0.05, tap=-2.0),),
                c.generators,
            ),
            "tap",
        ),
        (
            lambda c: GridCase(
                c.name,
                c.base_mva,
                c.buses,
                c.branches,
                c.generators + (Generator(2, 0.1, 1.0, q_min=0.5, q_max=-0.5),),
            ),
            "q_min",
        ),
        (
            lambda c: GridCase(
                c.name,
                c.base_mva,
                c.buses,
                c.branches,
                c.generators + (Generator(1, 0.1, 1.0), Generator(1, 0.1, 1.05)),
            ),
            "bus 1: generators disagree",
        ),
    ],
)
def test_validate_rejects_bad_cases(mutate, fragment):
    base = triangle()
    with pytest.raises(CaseError, match=fragment):
        mutate(base).validate()


def test_validate_accepts_open_zero_impedance_branch():
    case = triangle()
    case = GridCase(
        case.name,
        case.base_mva,
        case.buses,
        case.branches + (Branch(1, 2, 0.0, 0.0, closed=False),),
        case.generators,
    )
    case.validate()


# one fault each: (record list, what to change); ``pick`` chooses a record
_FAULTS = {
    "duplicate-id": ("buses", lambda c, i, pick: {"id": c.buses[pick(c.n)].id}),
    "v_init": ("buses", lambda c, i, pick: {"v_init": -0.5}),
    "second-slack": ("buses", lambda c, i, pick: {"kind": BusKind.SLACK}),
    "unknown-from": ("branches", lambda c, i, pick: {"from_bus": 10**6}),
    "unknown-to": ("branches", lambda c, i, pick: {"to_bus": 10**6 + 1}),
    "self-loop": ("branches", lambda c, i, pick: {"to_bus": c.branches[i].from_bus}),
    "short": ("branches", lambda c, i, pick: {"r": 0.0, "x": 0.0, "closed": True}),
    "tap": ("branches", lambda c, i, pick: {"tap": [0.0, -1.0, math.nan][pick(3)]}),
    "unknown-gen-bus": ("generators", lambda c, i, pick: {"bus": 10**6 + 2}),
    "q-limits": ("generators", lambda c, i, pick: {"q_min": 1.0, "q_max": -1.0}),
    "v_set": ("generators", lambda c, i, pick: {"v_set": 0.0}),
    "setpoint": ("generators", lambda c, i, pick: {"bus": c.generators[pick(len(c.generators))].bus, "v_set": 1.1}),
}


def _with_fault(case: GridCase, name: str, pick) -> GridCase:
    field, change = _FAULTS[name]
    records = list(getattr(case, field))
    if not records:
        return case
    i = pick(len(records))
    records[i] = replace(records[i], **change(case, i, pick))
    return replace(case, **{field: tuple(records)})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(2, 12),
    faults=st.lists(st.sampled_from(sorted(_FAULTS)), min_size=2, max_size=2),
    picks=st.lists(st.integers(0, 10**6), min_size=8, max_size=8),
)
def test_validate_names_the_first_of_two_faults(seed, n_core, faults, picks):
    """With two faults anywhere in a case, ``validate`` names the first in record order, in the
    words of a record-by-record check."""
    rng = np.random.default_rng(seed)
    case = with_devices(random_meshed(seed, n_core, 3, 1, 2, 1), rng)
    draws = iter(picks)

    def pick(size: int) -> int:
        return next(draws) % size

    for name in faults:
        case = _with_fault(case, name, pick)
    expected = reference.first_case_fault(case)
    if expected is None:  # the two faults undid each other, e.g. a repeated setpoint
        case.validate()
        return
    with pytest.raises(CaseError) as err:
        case.validate()
    assert str(err.value) == expected


def test_validate_checks_each_record_in_order():
    """Within one record the first failed check is named; across records the first record."""
    base = triangle()
    bus = replace(base.buses[1], id=base.buses[0].id, v_init=0.0)
    with pytest.raises(CaseError, match="^duplicate bus id"):
        replace(base, buses=(base.buses[0], bus, base.buses[2])).validate()
    branches = (replace(base.branches[0], tap=-1.0), replace(base.branches[1], to_bus=99, r=0.0, x=0.0))
    with pytest.raises(CaseError, match="^branch 0 has non-positive tap"):
        replace(base, branches=branches + base.branches[2:]).validate()
    with pytest.raises(CaseError, match="^branch 0 references unknown bus 99$"):  # before its zero impedance
        replace(base, branches=branches[::-1] + base.branches[2:]).validate()


def test_bundled_case14_matches_published_shape(case14):
    assert case14.n == 14
    assert case14.n_branch == 20
    assert len(case14.generators) == 5
    assert case14.slack_index() == 0
    taps = [br.tap for br in case14.branches if br.tap != 1.0]
    assert sorted(taps) == pytest.approx([0.932, 0.969, 0.978])
    shunted = [b.id for b in case14.buses if b.b_shunt != 0.0]
    assert shunted == [9]


def test_bundled_case118_matches_published_shape(case118):
    assert case118.n == 118
    assert case118.n_branch == 186
    assert len(case118.generators) == 54
    slack = case118.buses[case118.slack_index()]
    assert slack.id == 69
    assert len([br for br in case118.branches if br.tap != 1.0]) == 9


def test_bundled_case_path_and_unknown_name():
    path = bundled_case_path("case14")
    assert path.suffix == ".m" and path.exists()
    with pytest.raises(CaseError):
        bundled_case("case9999")


def test_json_round_trip(case14):
    text = case_to_json(case14)
    again = case_from_json(text)
    assert again == case14
    assert case_to_json(again) == text


def test_json_round_trip_keeps_unbounded_q_limits():
    case = GridCase(
        "unbounded",
        100.0,
        (Bus(1, BusKind.SLACK), Bus(2, BusKind.PV)),
        (Branch(1, 2, 0.01, 0.05),),
        (Generator(2, 0.1, 1.0),),
    )
    again = case_from_json(case_to_json(case))
    assert again.generators[0].q_min == -math.inf
    assert again.generators[0].q_max == math.inf


def test_canonical_json_bytes():
    """The canonical form of a case with an open branch, current loads, a phase shifter and
    unbounded reactive limits is pinned byte for byte, and reads back to an equal case."""
    case = GridCase(
        "feature",
        100.0,
        (
            Bus(1, BusKind.SLACK, v_init=1.02),
            Bus(2, BusKind.PV, p_load=0.3, q_load=0.1, g_shunt=0.01, b_shunt=0.05),
            Bus(3, BusKind.PQ, i_load_r=0.25, i_load_i=-0.125, theta_init=-0.05),
        ),
        (
            Branch(1, 2, 0.01, 0.05, 0.02),
            Branch(2, 3, 0.0, 0.08, tap=0.98, shift=math.radians(-5)),
            Branch(1, 3, 0.02, 0.1, closed=False),
        ),
        (Generator(1, 0.4, 1.02), Generator(2, 0.2, 1.01, q_min=-0.3)),
    )
    text = case_to_json(case)
    assert text == (
        '{"base_mva":100.0,"branches":['
        '{"b_charging":0.02,"closed":true,"from_bus":1,"r":0.01,"shift":0.0,"tap":1.0,"to_bus":2,"x":0.05},'
        '{"b_charging":0.0,"closed":true,"from_bus":2,"r":0.0,"shift":-0.08726646259971647,"tap":0.98,'
        '"to_bus":3,"x":0.08},'
        '{"b_charging":0.0,"closed":false,"from_bus":1,"r":0.02,"shift":0.0,"tap":1.0,"to_bus":3,"x":0.1}],'
        '"buses":['
        '{"b_shunt":0.0,"g_shunt":0.0,"i_load_i":0.0,"i_load_r":0.0,"id":1,"kind":3,"p_load":0.0,"q_load":0.0,'
        '"theta_init":0.0,"v_init":1.02},'
        '{"b_shunt":0.05,"g_shunt":0.01,"i_load_i":0.0,"i_load_r":0.0,"id":2,"kind":2,"p_load":0.3,"q_load":0.1,'
        '"theta_init":0.0,"v_init":1.0},'
        '{"b_shunt":0.0,"g_shunt":0.0,"i_load_i":-0.125,"i_load_r":0.25,"id":3,"kind":1,"p_load":0.0,'
        '"q_load":0.0,"theta_init":-0.05,"v_init":1.0}],'
        '"generators":[{"bus":1,"p_set":0.4,"q_max":null,"q_min":null,"v_set":1.02},'
        '{"bus":2,"p_set":0.2,"q_max":null,"q_min":-0.3,"v_set":1.01}],'
        '"name":"feature","schema_version":1}'
    )
    again = case_from_json(text)
    assert again == case
    assert type(again.buses[0].kind) is BusKind


def _case_doc():
    """A two-bus case document with every record field given."""
    return {
        "schema_version": 1,
        "name": "doc",
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "kind": 3},
            {"id": 2, "kind": 2, "p_load": 0.1, "q_load": 0.02, "v_init": 1.01},
        ],
        "branches": [
            {"from_bus": 1, "to_bus": 2, "r": 0.01, "x": 0.1, "b_charging": 0.02, "tap": 1.0, "shift": 0.0,
             "closed": False},
        ],
        "generators": [{"bus": 2, "p_set": 0.2, "v_set": 1.02, "q_min": -0.5, "q_max": 0.5}],
    }


def _drop(key, table=None):
    def edit(doc):
        (doc if table is None else doc[table][-1]).pop(key)
        return doc

    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc

    return edit


def _put(table, key, value):
    def edit(doc):
        doc[table][-1][key] = value
        return doc

    return edit


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_drop("buses"), "malformed case dictionary: 'buses'"),
        (_drop("kind", "buses"), "malformed case dictionary: 'kind'"),
        (_put("buses", "p_load", None), "malformed case dictionary: 'p_load' must be a finite number, not null"),
        (_put("buses", "kind", 9), "malformed case dictionary: 9 is not a valid BusKind"),
        (lambda doc: [doc], "malformed case dictionary: list indices must be integers or slices, not str"),
        (_put("generators", "q_max", None), Generator(2, 0.2, 1.02, -0.5, math.inf)),
        (_drop("closed", "branches"), Branch(1, 2, 0.01, 0.1, 0.02, closed=True)),
        (
            _put("branches", "closed", "false"),
            "malformed case dictionary: 'closed' must be true or false, not \"false\"",
        ),
        (_put("branches", "closed", None), "malformed case dictionary: 'closed' must be true or false, not null"),
        (_put("branches", "closed", 0), "malformed case dictionary: 'closed' must be true or false, not 0"),
        (_put("buses", "id", math.inf), "malformed case dictionary: 'id' must be an integer, not Infinity"),
        (_set("name", None), "malformed case dictionary: 'name' must be a string, not null"),
        (_set("name", [1, 2]), "malformed case dictionary: 'name' must be a string, not [1, 2]"),
        (_set("name", 7), "malformed case dictionary: 'name' must be a string, not 7"),
        (_drop("name"), "case"),
        (_set("schema_version", 99), "malformed case dictionary: 'schema_version' must be 1, not 99"),
        (_set("schema_version", True), "malformed case dictionary: 'schema_version' must be an integer, not true"),
        (_set("schema_version", 1.0), "malformed case dictionary: 'schema_version' must be an integer, not 1.0"),
        (_set("schema_version", "1"), "malformed case dictionary: 'schema_version' must be an integer, not \"1\""),
        (_drop("schema_version"), "malformed case dictionary: 'schema_version'"),
    ],
    ids=[
        "no-buses", "no-kind", "null-p_load", "kind-9", "array", "null-q_max", "no-closed",
        "string-closed", "null-closed", "integer-closed", "infinite-id", "null-name", "array-name",
        "number-name", "no-name", "schema-99", "schema-true", "schema-float", "schema-string", "no-schema",
    ],
)
def test_json_reader_on_malformed_documents(edit, expected):
    """A malformed document raises CaseError with the reader's message, ``closed`` included
    when it is not JSON true or false, ``name`` when it is not a JSON string and
    ``schema_version`` when it is not the JSON integer 1; a null reactive limit reads as
    unbounded, a branch without ``closed`` as closed and a case without a name as "case"."""
    text = json.dumps(edit(_case_doc()))
    if isinstance(expected, str) and expected.startswith("malformed"):
        with pytest.raises(CaseError) as err:
            case_from_json(text)
        assert str(err.value) == expected
    elif isinstance(expected, str):
        assert case_from_json(text).name == expected
    else:
        case = case_from_json(text)
        assert expected in case.generators + case.branches


@pytest.mark.parametrize(
    "table, i, key, value, expected",
    [
        ("branches", 3, "r", math.nan, "'r' must be a finite number, not NaN"),
        ("branches", 3, "x", math.inf, "'x' must be a finite number, not Infinity"),
        ("buses", 3, "p_load", math.nan, "'p_load' must be a finite number, not NaN"),
        ("generators", 0, "q_max", math.nan, "'q_max' must be a number, not NaN"),
        ("branches", 3, "from_bus", 2.5, "'from_bus' must be an integer, not 2.5"),
        ("generators", 1, "bus", 2.7, "'bus' must be an integer, not 2.7"),
        ("buses", 3, "kind", 2.9, "'kind' must be an integer, not 2.9"),
        ("buses", 3, "id", 4.0, "'id' must be an integer, not 4.0"),
        ("branches", 3, "r", "0.01", "'r' must be a finite number, not \"0.01\""),
        ("buses", 3, "q_load", True, "'q_load' must be a finite number, not true"),
        ("buses", 3, "kind", True, "'kind' must be an integer, not true"),
        (None, None, "base_mva", "100", "'base_mva' must be a finite number, not \"100\""),
        (None, None, "base_mva", math.inf, "'base_mva' must be a finite number, not Infinity"),
    ],
)
def test_json_reader_takes_numbers_only_as_written(case14, table, i, key, value, expected):
    """An integer field takes only a JSON integer and a float field only a finite JSON number
    (a reactive limit may be infinite); a bool, a string or a fraction is never converted."""
    doc = json.loads(case_to_json(case14))
    (doc if table is None else doc[table][i])[key] = value
    with pytest.raises(CaseError) as err:
        case_from_json(json.dumps(doc))
    assert str(err.value) == f"malformed case dictionary: {expected}"


_FIELD_VALUES = [2.5, 2.0, True, "1", None, math.nan, math.inf, -math.inf, [], {}]
_RECORD_TYPES = {"buses": Bus, "branches": Branch, "generators": Generator}
_FIELDS = [(None, "base_mva", MISSING)] + [
    (table, f.name, f.default) for table, record_type in _RECORD_TYPES.items() for f in fields(record_type)
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(where=st.sampled_from(_FIELDS), pick=st.integers(0, 10**6), value=st.sampled_from(_FIELD_VALUES))
def test_json_reader_keeps_a_field_as_written_or_raises(case14, where, pick, value):
    """With one field of the case14 document set to a value of the pool, the reader raises
    CaseError or gives a case whose field holds that value, of that type; null reads as an
    unbounded reactive limit and nowhere else."""
    table, key, default = where
    doc = json.loads(case_to_json(case14))
    if table is None:
        record = doc
    else:
        i = pick % len(doc[table])
        record = doc[table][i]
    record[key] = value
    try:
        case = case_from_json(json.dumps(doc))
    except CaseError:
        return
    held = getattr(case if table is None else getattr(case, table)[i], key)
    if value is None:
        assert isinstance(default, float) and math.isinf(default) and held == default, (where, held)
    else:
        assert type(held) is type(value) and held == value, (where, value, held)


def test_load_case_dispatches_on_suffix(tmp_path, case14):
    m_path = tmp_path / "mini.m"
    m_path.write_text(MINI_CASE)
    assert load_case(m_path).name == "mini"

    j_path = tmp_path / "grid.json"
    j_path.write_text(case_to_json(case14))
    assert load_case(j_path) == case14

    bad = tmp_path / "grid.txt"
    bad.write_text("nonsense")
    with pytest.raises(CaseError):
        load_case(bad)


def test_with_branch_open_preserves_indexing(case14):
    opened = case14.with_branch_open(3)
    assert opened.n_branch == case14.n_branch
    assert not opened.branches[3].closed
    assert case14.branches[3].closed
    for k, br in enumerate(opened.branches):
        if k != 3:
            assert br == case14.branches[k]


def test_with_branch_open_checks_the_index(case14):
    """A branch index is an integer in range; an open branch may be opened again."""
    for k in NON_INTEGER_INDICES:
        with pytest.raises(TypeError, match="is not an integer"):
            case14.with_branch_open(k)
    for k in (-1, case14.n_branch, np.int64(case14.n_branch)):
        with pytest.raises(ValueError, match="out of range"):
            case14.with_branch_open(k)
    opened = case14.with_branch_open(np.int64(3))
    assert opened.with_branch_open(3) == opened


def test_scale_loading_scales_demand_and_dispatch():
    case = two_bus(p=0.5, q=0.2, i_load=0.1 - 0.05j)
    case = GridCase(
        case.name,
        case.base_mva,
        case.buses,
        case.branches,
        (Generator(1, p_set=0.4, v_set=1.01),),
    )
    scaled = scale_loading(case, 1.5)
    assert scaled.buses[1].p_load == pytest.approx(0.75)
    assert scaled.buses[1].q_load == pytest.approx(0.30)
    assert scaled.buses[1].i_load_r == pytest.approx(0.15)
    assert scaled.buses[1].i_load_i == pytest.approx(-0.075)
    assert scaled.generators[0].p_set == pytest.approx(0.6)
    assert scaled.generators[0].v_set == pytest.approx(1.01)


def test_scale_loading_rejects_a_factor_that_is_not_finite():
    case = two_bus(p=0.5, q=0.2)
    for factor in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="loading factor must be finite"):
            scale_loading(case, factor)
    assert scale_loading(case, -1.0).buses[1].p_load == -0.5


def _stamp_bits(stamps) -> list[bytes]:
    return [np.asarray(y, dtype=complex).tobytes() for y in stamps]


def _reference_stamps(branches) -> list[bytes]:
    pi = [reference.branch_pi_admittances(br) for br in branches]
    return _stamp_bits(zip(*pi)) if pi else _stamp_bits([[]] * 4)


@pytest.mark.parametrize("name", ["case14", "case118"])
def test_ybus_stamps_equal_the_scalar_formula_on_bundled_cases(name):
    """The array-built stamps are the scalar complex formula of each branch, bit for bit."""
    case = bundled_case(name)
    ybus = build_ybus(case)
    assert _stamp_bits((ybus.yff, ybus.yft, ybus.ytf, ybus.ytt)) == _reference_stamps(case.branches)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_core=st.integers(1, 16),
    n_parallel=st.integers(0, 3),
    n_open=st.integers(0, 3),
)
def test_ybus_stamps_equal_the_scalar_formula(seed, n_core, n_parallel, n_open):
    """Random networks with taps, phase shifts of both signs, open branches, zero resistance,
    zero or negative reactance and charging, and signed zeros: every stamp equals
    the scalar formula bit for bit."""
    rng = np.random.default_rng(seed)
    case = random_meshed(seed, n_core, 3, n_parallel, 2, n_open)
    branches = []
    for br in case.branches:
        u = rng.random(6)
        br = replace(
            br,
            r=0.0 if u[0] < 0.25 else br.r,
            x=-br.x if u[1] < 0.1 else br.x,
            shift=[0.0, -0.0, float(rng.uniform(-0.7, 0.7))][int(u[2] * 3)],
            tap=float(rng.uniform(0.8, 1.2)) if u[3] < 0.4 else br.tap,
            b_charging=[0.0, -0.0, br.b_charging, float(rng.normal(scale=0.2))][int(u[4] * 4)],
        )
        if u[5] < 0.05:
            br = replace(br, r=0.0, x=0.0, closed=False)
        branches.append(br)
    case = replace(case, branches=tuple(branches))
    ybus = build_ybus(case)
    assert _stamp_bits((ybus.yff, ybus.yft, ybus.ytf, ybus.ytt)) == _reference_stamps(branches)


def test_ybus_rejects_a_closed_branch_without_impedance():
    case = two_bus(r=0.0, x=0.0)
    with pytest.raises(CaseError, match="branch 0 is closed with zero impedance"):
        build_ybus(case)


def _stamps(case: GridCase, k: int = 0) -> tuple[complex, complex, complex, complex]:
    """The two-port admittances ``(yff, yft, ytf, ytt)`` that ``build_ybus`` stamps for branch ``k``."""
    ybus = build_ybus(case)
    return tuple(complex(y[k]) for y in (ybus.yff, ybus.yft, ybus.ytf, ybus.ytt))


def test_branch_admittances_plain_line():
    yff, yft, ytf, ytt = _stamps(two_bus(r=0.0, x=0.1, b_charging=0.04))
    ys = 1.0 / 0.1j
    assert yff == pytest.approx(ys + 0.02j)
    assert ytt == pytest.approx(ys + 0.02j)
    assert yft == pytest.approx(-ys)
    assert ytf == pytest.approx(-ys)


def test_branch_admittances_transformer():
    transformer = dict(r=0.01, x=0.2, tap=0.95, shift=math.radians(10))
    ys = 1.0 / (0.01 + 0.2j)
    tap = 0.95 * np.exp(1j * math.radians(10))
    yff, yft, ytf, ytt = _stamps(two_bus(b_charging=0.1, **transformer))
    assert yff == pytest.approx((ys + 0.05j) / 0.95**2)
    assert yft == pytest.approx(-ys / np.conj(tap))
    assert ytf == pytest.approx(-ys / tap)
    assert ytt == pytest.approx(ys + 0.05j)
    assert _stamps(two_bus(b_charging=0.0, **transformer))[0] == pytest.approx(ys / 0.95**2)


def test_branch_admittances_open_branch_is_zero():
    assert _stamps(two_bus(r=0.01, x=0.2).with_branch_open(0)) == (0j, 0j, 0j, 0j)


def test_build_ybus_places_branch_blocks():
    case = two_bus(x=0.1, b_charging=0.04)
    adm = build_ybus(case)
    y = adm.matrix.toarray()
    yff, yft, ytf, ytt = _stamps(case)
    assert y[0, 0] == pytest.approx(yff)
    assert y[0, 1] == pytest.approx(yft)
    assert y[1, 0] == pytest.approx(ytf)
    assert y[1, 1] == pytest.approx(ytt)


def test_build_ybus_shunt_and_charging_toggles():
    case = two_bus(x=0.1, b_charging=0.04)
    case.buses[1].g_shunt = 0.03
    case.buses[1].b_shunt = -0.02
    full = build_ybus(case).matrix.toarray()
    no_shunt = build_ybus(
        replace(case, buses=tuple(replace(b, g_shunt=0.0, b_shunt=0.0) for b in case.buses))
    ).matrix.toarray()
    no_chg = build_ybus(
        replace(case, branches=tuple(replace(br, b_charging=0.0) for br in case.branches))
    ).matrix.toarray()
    assert full[1, 1] - no_shunt[1, 1] == pytest.approx(0.03 - 0.02j)
    assert full[0, 0] - no_chg[0, 0] == pytest.approx(0.02j)
    assert full[0, 1] == pytest.approx(no_chg[0, 1])


def test_build_ybus_open_branches_leave_no_trace(case14):
    opened = case14.with_branch_open(5)
    y_open = build_ybus(opened).matrix.toarray()
    manual = build_ybus(case14).matrix.toarray()
    yff, yft, ytf, ytt = _stamps(case14, 5)
    f = case14.bus_index(case14.branches[5].from_bus)
    t = case14.bus_index(case14.branches[5].to_bus)
    manual[f, f] -= yff
    manual[f, t] -= yft
    manual[t, f] -= ytf
    manual[t, t] -= ytt
    assert np.allclose(y_open, manual, atol=1e-14)
