"""Small synthetic networks used across the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from gridscreen.case_io import Branch, Bus, BusKind, Generator, GridCase

# objects that are no branch index, though NumPy would convert each of them
# (or, for the string, Python's int) to 3 or 1; bool is an int to Python
NON_INTEGER_INDICES = (3.7, "3", True, np.float64(3.0), np.bool_(True))


def two_bus(
    p: float = 0.5,
    q: float = 0.0,
    r: float = 0.0,
    x: float = 0.1,
    b_charging: float = 0.0,
    i_load: complex | None = None,
    tap: float = 1.0,
    shift: float = 0.0,
) -> GridCase:
    """Slack feeding one load bus over a single branch."""
    load = Bus(2, BusKind.PQ, p_load=p, q_load=q)
    if i_load is not None:
        load.i_load_r = i_load.real
        load.i_load_i = i_load.imag
    return GridCase(
        "two_bus",
        100.0,
        (Bus(1, BusKind.SLACK), load),
        (Branch(1, 2, r, x, b_charging, tap=tap, shift=shift),),
        (),
    )


def parallel_pair(i_load: complex = 0.4 - 0.1j, r: float = 0.01, x: float = 0.1) -> GridCase:
    """Two identical circuits between slack and one constant-current load."""
    return GridCase(
        "parallel_pair",
        100.0,
        (Bus(1, BusKind.SLACK), Bus(2, BusKind.PQ, i_load_r=i_load.real, i_load_i=i_load.imag)),
        (Branch(1, 2, r, x), Branch(1, 2, r, x)),
        (),
    )


def triangle(
    p2: float = 0.4,
    q2: float = 0.1,
    p3: float = 0.3,
    q3: float = 0.05,
    x: float = 0.1,
    r: float = 0.02,
    b_charging: float = 0.0,
) -> GridCase:
    """Fully meshed three-bus network; no branch is a bridge."""
    return GridCase(
        "triangle",
        100.0,
        (
            Bus(1, BusKind.SLACK),
            Bus(2, BusKind.PQ, p_load=p2, q_load=q2),
            Bus(3, BusKind.PQ, p_load=p3, q_load=q3),
        ),
        (
            Branch(1, 2, r, x, b_charging),
            Branch(1, 3, r, x, b_charging),
            Branch(3, 2, r, x, b_charging),
        ),
        (),
    )


def overload_pair(p: float = 8.0) -> GridCase:
    """Two circuits whose single-circuit loadability is below the demand."""
    return GridCase(
        "overload_pair",
        100.0,
        (Bus(1, BusKind.SLACK), Bus(2, BusKind.PQ, p_load=p)),
        (Branch(1, 2, 0.0, 0.1), Branch(1, 2, 0.0, 0.1)),
        (),
    )


def ring5() -> GridCase:
    """Ring 1-2-3-4 with a bridge spur 4-5; all loads constant-current.

    Every device is linear in the rectangular voltage state, so first-order
    outage predictions are exact on this network.
    """
    return GridCase(
        "ring5",
        100.0,
        (
            Bus(1, BusKind.SLACK),
            Bus(2, BusKind.PQ, i_load_r=0.3, i_load_i=-0.1),
            Bus(3, BusKind.PQ, i_load_r=0.5, i_load_i=0.2),
            Bus(4, BusKind.PQ, i_load_r=0.2, i_load_i=0.05),
            Bus(5, BusKind.PQ, i_load_r=0.4, i_load_i=-0.15),
        ),
        (
            Branch(1, 2, 0.01, 0.05, 0.02),
            Branch(2, 3, 0.02, 0.08, 0.01),
            Branch(3, 4, 0.015, 0.06, 0.03),
            Branch(4, 1, 0.01, 0.04, 0.0),
            Branch(4, 5, 0.02, 0.09, 0.0),
        ),
        (),
    )


RING5_BRIDGE = 4


def radial_chain(n: int = 4, p: float = 0.1) -> GridCase:
    """A pure chain: every branch is a bridge."""
    buses = [Bus(1, BusKind.SLACK)]
    branches = []
    for k in range(2, n + 1):
        buses.append(Bus(k, BusKind.PQ, p_load=p))
        branches.append(Branch(k - 1, k, 0.01, 0.05))
    return GridCase("chain", 100.0, tuple(buses), tuple(branches), ())


def slack_split() -> GridCase:
    """A loop on one side of the slack and a loaded spur on the other.

    The slack's voltage pins decouple the two sides, so an outage in the
    loop cannot move any quantity on the spur.
    """
    return GridCase(
        "slack_split",
        100.0,
        (
            Bus(1, BusKind.SLACK),
            Bus(2, BusKind.PQ, p_load=0.2, q_load=0.05),
            Bus(3, BusKind.PQ, p_load=0.3, q_load=0.1),
            Bus(4, BusKind.PQ, p_load=0.1),
            Bus(5, BusKind.PQ, p_load=0.25, q_load=0.08),
        ),
        (
            Branch(1, 2, 0.01, 0.05),
            Branch(2, 3, 0.02, 0.08),
            Branch(3, 1, 0.015, 0.06),
            Branch(1, 4, 0.01, 0.04),
            Branch(4, 5, 0.02, 0.09),
        ),
        (),
    )


SLACK_SPLIT_LOOP_BRANCH = 1  # inside the loop, not a bridge
SLACK_SPLIT_SPUR_BRANCH = 4  # on the far side of the slack


def pv_case(
    q_max: float = 0.1,
    p_load: float = 0.6,
    q_load: float = 0.4,
    v_set: float = 1.02,
) -> GridCase:
    """Slack, one PV generator bus and one PQ load bus in a triangle."""
    return GridCase(
        "pv_triangle",
        100.0,
        (
            Bus(1, BusKind.SLACK),
            Bus(2, BusKind.PV),
            Bus(3, BusKind.PQ, p_load=p_load, q_load=q_load),
        ),
        (
            Branch(1, 2, 0.01, 0.05),
            Branch(2, 3, 0.01, 0.06),
            Branch(1, 3, 0.02, 0.08),
        ),
        (Generator(2, p_set=0.3, v_set=v_set, q_min=-0.1, q_max=q_max),),
    )


def random_meshed(
    seed: int,
    n_core: int = 12,
    n_chords: int = 4,
    n_parallel: int = 2,
    n_spurs: int = 3,
    n_open: int = 1,
) -> GridCase:
    """Seeded random connected network with loops, parallel circuits and spurs.

    A random spanning tree over ``n_core`` buses gets ``n_chords`` extra
    branches that close loops; ``n_spurs`` buses hang radially off earlier
    buses (so spurs can chain); ``n_parallel`` circuits double existing
    corridors, spurs included; ``n_open`` open branches join random bus
    pairs.  The slack sits at a random bus, every load is constant-current,
    and some branches are off-nominal transformers.
    """
    rng = np.random.default_rng(seed)
    n = n_core + n_spurs
    slack = int(rng.integers(1, n + 1))

    def branch(f: int, t: int, closed: bool = True) -> Branch:
        tap = float(rng.uniform(0.9, 1.1)) if rng.random() < 0.3 else 1.0
        return Branch(
            int(f),
            int(t),
            float(rng.uniform(0.001, 0.05)),
            float(rng.uniform(0.01, 0.3)),
            float(rng.uniform(0.0, 0.1)),
            tap=tap,
            closed=closed,
        )

    branches = [branch(rng.integers(1, k), k) for k in range(2, n_core + 1)]
    for _ in range(n_chords if n_core > 1 else 0):
        f, t = rng.choice(np.arange(1, n_core + 1), size=2, replace=False)
        branches.append(branch(f, t))
    branches += [branch(rng.integers(1, k), k) for k in range(n_core + 1, n + 1)]
    for _ in range(n_parallel if branches else 0):
        base = branches[int(rng.integers(len(branches)))]
        branches.append(branch(base.from_bus, base.to_bus))
    for _ in range(n_open if n > 1 else 0):
        f, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        branches.append(branch(f, t, closed=False))

    buses = []
    for k in range(1, n + 1):
        if k == slack:
            buses.append(Bus(k, BusKind.SLACK))
        else:
            i_load = rng.uniform(0.0, 0.3) * np.exp(-1j * rng.uniform(0.0, 0.5))
            buses.append(Bus(k, BusKind.PQ, i_load_r=i_load.real, i_load_i=i_load.imag))
    order = rng.permutation(len(branches))
    return GridCase(f"random_meshed_{seed}", 100.0, tuple(buses), tuple(branches[i] for i in order), ())


def with_devices(case: GridCase, rng: np.random.Generator) -> GridCase:
    """``case`` with constant-power loads on its PQ buses and generators on about a third of them."""
    buses, gens = [], []
    for bus in case.buses:
        if bus.kind == BusKind.SLACK:
            buses.append(bus)
            gens.append(Generator(bus.id, p_set=0.0, v_set=1.02))
            continue
        bus = replace(bus, p_load=float(rng.uniform(0.0, 0.3)), q_load=float(rng.uniform(-0.05, 0.1)))
        if rng.random() < 0.35:
            bus = replace(bus, kind=BusKind.PV)
            p_set, v_set = float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.97, 1.05))
            gens.append(Generator(bus.id, p_set=p_set, v_set=v_set))
        buses.append(bus)
    return GridCase(case.name, case.base_mva, tuple(buses), case.branches, tuple(gens))
