"""Shared test setup: ``scripts/`` is put on ``sys.path`` for the tests that
import ``regen_golden`` or ``run_matrix``.

``golden_grid`` runs each scenario x defense cell of the golden grid at most
once per test session; ``test_golden``, ``test_jsonutil`` and
``test_transcripts`` all read the same runs.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import regen_golden  # noqa: E402


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
