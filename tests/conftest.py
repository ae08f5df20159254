"""Shared test setup.

``golden_grid`` runs each scenario x defense cell of the golden grid at most
once per test session; ``test_golden``, ``test_jsonutil`` and
``test_transcripts`` all read the same runs.
"""
import pytest

import regen_golden


class GoldenGrid:
    """The (key, RunResult) pairs of ``regen_golden.cell_runs`` for each cell,
    made on first use and kept for the session. Tests must not mutate them."""

    def __init__(self):
        self._cells = {}

    def runs(self, scenario: str, defenses) -> list:
        cell = (scenario, defenses)
        if cell not in self._cells:
            self._cells[cell] = list(regen_golden.cell_runs(scenario, defenses))
        return self._cells[cell]


@pytest.fixture(scope="session")
def golden_grid() -> GoldenGrid:
    return GoldenGrid()
