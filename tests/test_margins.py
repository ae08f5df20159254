"""Decision margins on the golden grid: how far each decision of a run sits
from the line that would flip it.

A change in the last digits of a float, as another BLAS build or another
summation order makes, can move no outcome of the grid while every decision
sits well clear of its line. The grid is run again with the two kernels that
decide, and the verifier's read of the verification bit, wrapped from here:
the wrappers read what the wrapped function read and call it unchanged. The
floors:
- every Bell draw is at least ``DRAW_FLOOR`` from a branch boundary (a
  cumulative branch probability its row compares it with);
- every comparison distance is at least ``DECADES`` decades from the
  tolerance it is compared with (``protocol.EQUALITY_TOL``);
- every recovered fidelity is at least ``FIDELITY_FLOOR`` from the floor or
  ceiling that its scenario's check reads;
- every read of the verification bit (``protocol._read_basis_bit``) finds
  the larger amplitude's modulus within ``EQUALITY_TOL`` of 1 by at least
  ``DECADES`` decades, and at least ``BIT_GAP`` above the other's.
"""
import math

import numpy as np

import regen_golden
from aqsim import protocol as proto
from aqsim import scenarios
from aqsim import statevector as sv
from aqsim.adversary import SCENARIO_TOKENS, Scenario
from aqsim.defense import DEFENSE_GRID

DRAW_FLOOR = 1e-9
DECADES = 3
FIDELITY_FLOOR = 1e-12
BIT_GAP = 0.5
FIDELITY_LINES = {"recover-fidelity": scenarios.HONEST_FIDELITY_FLOOR,
                  "recover-fidelity-degraded": scenarios.DEGRADED_FIDELITY_CEILING}


def draw_margins(probs, u) -> np.ndarray:
    """Each row's distance from its draw to the nearest cumulative branch
    probability, which ``bell_measure_rows`` compares the draw with."""
    return np.abs(np.asarray(u)[:, None] - np.cumsum(probs, axis=1)).min(axis=1)


def comparison_distances(a, b) -> np.ndarray:
    """Each row's distance as ``equal_up_to_phase_rows`` measures it: the
    norm of a minus b turned by the phase between their entries where b is
    largest (no turn where that entry of a is below ``PROB_FLOOR``)."""
    rows = np.arange(len(a))
    j = np.argmax(np.abs(b), axis=1)
    aj, bj = a[rows, j], b[rows, j]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = aj / bj
        turn = np.where(np.abs(aj) < sv.PROB_FLOOR, 1.0, ratio / np.abs(ratio))
    return np.linalg.norm(a - turn[:, None] * b, axis=1)


def decades_from(distance: float, tol: float) -> float:
    return math.inf if distance == 0.0 else abs(math.log10(distance / tol))


def test_every_decision_of_the_golden_grid_clears_its_margin(monkeypatch):
    measure, compare = sv.bell_measure_rows, sv.equal_up_to_phase_rows
    read_bit = proto._read_basis_bit
    draws, distances, bit_decades, bit_gaps = [], [], [], []

    def measured(amps, axis1, axis2, u):
        rows, probs, residual = measure(amps, axis1, axis2, u)
        draws.extend(draw_margins(probs, u).tolist())
        return rows, probs, residual

    def compared(a, b, tol):
        found, equal = comparison_distances(a, b).tolist(), compare(a, b, tol)
        assert equal == [d <= tol for d in found]  # the distances the kernel decided by
        distances.extend(decades_from(d, tol) for d in found)
        return equal

    def read(amps):
        bit, moduli = read_bit(amps), np.abs(amps)
        bit_decades.append(decades_from(abs(moduli[bit] - 1.0), proto.EQUALITY_TOL))
        bit_gaps.append(moduli[bit] - moduli[1 - bit])
        return bit

    monkeypatch.setattr(sv, "bell_measure_rows", measured)
    monkeypatch.setattr(sv, "equal_up_to_phase_rows", compared)
    monkeypatch.setattr(proto, "_read_basis_bit", read)
    short, decided, reads = [], 0, 0
    for scenario in SCENARIO_TOKENS:
        expect = scenarios.SCENARIOS[Scenario.from_token(scenario).variant].expect
        lines = [FIDELITY_LINES[name] for name in expect if name in FIDELITY_LINES]
        for defenses in DEFENSE_GRID:
            for key, result in regen_golden.cell_runs(scenario, defenses):
                fidelities = result.recovered_fidelities or ()
                assert lines or not fidelities, key  # every recovery is checked
                margins = [("draw", min(draws, default=math.inf), DRAW_FLOOR),
                           ("distance decades", min(distances, default=math.inf), DECADES),
                           ("fidelity", min((abs(f - line) for f in fidelities for line in lines),
                                            default=math.inf), FIDELITY_FLOOR),
                           ("bit decades", min(bit_decades, default=math.inf), DECADES),
                           ("bit gap", min(bit_gaps, default=math.inf), BIT_GAP)]
                short += [(key, what, margin) for what, margin, floor in margins if margin < floor]
                decided += len(draws) + len(distances) + len(fidelities)
                reads += len(bit_decades)
                for seen in (draws, distances, bit_decades, bit_gaps):
                    seen.clear()
    assert not short
    assert decided and reads  # the wrappers saw the grid's decisions
