"""The canonical emitter's fast path against the old recursive emitter."""
import enum
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import canonical_oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import regen_golden  # noqa: E402
from run_matrix import DEFENSE_GRID  # noqa: E402

from aqsim import jsonutil  # noqa: E402
from aqsim.adversary import SCENARIO_TOKENS  # noqa: E402


class Color(str, enum.Enum):
    RED = "red"


class Level(enum.IntEnum):
    HIGH = 3


class Flag(int):
    pass


ODD_DOCUMENTS = [
    None, True, False, 0, -7, 2 ** 70, 0.0, -0.0, 1e-300, -2.5, 1 / 3,
    "", "plain", "quote\" back\\slash \n tab\t", "café ☃ \U0001f600",
    [], {}, (1, 2.0, "three"), [(), [None]], {"k": (0.1, -0.0)},
    np.float64(0.1), np.float32(0.5), np.int64(-3), np.uint8(200), np.float64(-0.0),
    Color.RED, Level.HIGH, Flag(5), OrderedDict([("b", 1), ("a", [Flag(2), Color.RED])]),
    {"nested": {"deep": [{"x": np.float64(2.0)}, [np.int32(1), True]]}},
]


@pytest.mark.parametrize("doc", ODD_DOCUMENTS, ids=repr)
def test_odd_documents_match_the_oracle(doc):
    assert jsonutil.canonical_json(doc) == canonical_oracle.canonical_json(doc)


@pytest.mark.parametrize("doc,error", [
    (float("nan"), ValueError), ([float("inf")], ValueError), ({"x": -float("inf")}, ValueError),
    ({1: "a"}, TypeError), ({"a": {2.0: 1}}, TypeError), (object(), TypeError),
    ({"s": {1, 2}}, TypeError), (np.bool_(True), TypeError), (b"bytes", TypeError),
])
def test_rejections_match_the_oracle(doc, error):
    with pytest.raises(error):
        canonical_oracle.canonical_json(doc)
    with pytest.raises(error):
        jsonutil.canonical_json(doc)


@pytest.mark.parametrize("scenario", SCENARIO_TOKENS)
def test_golden_grid_transcripts_match_the_oracle(scenario):
    # the n=64 runs add time but no new document shapes
    small = tuple(n for n in regen_golden.NS if n < 64)
    for defenses in DEFENSE_GRID:
        for key, result in regen_golden.cell_runs(scenario, defenses, small):
            doc = result.transcript.to_jsonable()
            assert jsonutil.canonical_json(doc) == canonical_oracle.canonical_json(doc), key
