"""Seeded tiled cases: ``copies`` replicas of a base case tied to copy 0.

Copy ``c`` renumbers every bus id to ``id + c * stride``.  The former slack
bus of each copy ``c >= 1`` becomes a PV bus whose generation equals the
base case's solved slack output, so every copy balances itself.  Each copy
is tied to copy 0 by three series lines without charging, all between buses
with the same base id: one between the slack buses and two between buses
the seed picks.  Tied buses sit at equal voltages, so the ties carry no
current and the tiled power flow solution is the base solution repeated
exactly.  Chains of ties between random buses do not have this property
and diverge from a flat start at a few copies.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from gridscreen import Branch, BusKind, GridCase, PowerFlowSolution

TIE_R = 0.005
TIE_X = 0.05


def slack_generation(sol: PowerFlowSolution) -> float:
    """Active power the base slack bus generates at the solved state."""
    case = sol.case
    k = case.slack_index()
    bus = case.buses[k]
    v = sol.v_complex[k]
    i_load = complex(bus.i_load_r, bus.i_load_i)
    return float(sol.p_inj[k] + bus.p_load + (v * np.conj(i_load)).real)


def id_stride(base: GridCase) -> int:
    return 10 ** len(str(max(b.id for b in base.buses)))


def tile_case(base: GridCase, slack_p: float, copies: int, seed: int) -> GridCase:
    """``copies`` replicas of ``base`` tied to copy 0; ``slack_p`` from :func:`slack_generation`."""
    if copies < 1:
        raise ValueError("copies must be at least 1")
    rng = np.random.default_rng(seed)
    stride = id_stride(base)
    slack_id = base.buses[base.slack_index()].id
    others = [b.id for b in base.buses if b.id != slack_id]
    slack_gens = [g for g in base.generators if g.bus == slack_id]
    slack_extra = slack_p - sum(g.p_set for g in slack_gens[1:])

    buses, branches, gens = [], [], []
    for c in range(copies):
        off = c * stride
        for b in base.buses:
            kind = BusKind.PV if c and b.kind == BusKind.SLACK else b.kind
            buses.append(replace(b, id=b.id + off, kind=kind))
        for br in base.branches:
            branches.append(replace(br, from_bus=br.from_bus + off, to_bus=br.to_bus + off))
        for g in base.generators:
            p_set = slack_extra if c and g is slack_gens[0] else g.p_set
            gens.append(replace(g, bus=g.bus + off, p_set=p_set))
        if c:
            picks = rng.choice(len(others), size=2, replace=False)
            for bus_id in (slack_id, others[picks[0]], others[picks[1]]):
                branches.append(Branch(bus_id, bus_id + off, TIE_R, TIE_X))
    case = GridCase(f"{base.name}x{copies}", base.base_mva, tuple(buses), tuple(branches), tuple(gens))
    case.validate()
    return case


def tiled_state(base_state: np.ndarray, copies: int) -> np.ndarray:
    """The exact tiled solution: the base interleaved state repeated per copy."""
    return np.tile(base_state, copies)
