"""The benchmark's traced replay against the package as it is.

``perfbench/replay.py`` drives each trial through the layers' public
functions, in the order ``scenarios.run_scenario`` calls them, and then
checks the trial against ``run_scenario`` itself. So it fails when a name or
signature it calls changes, or when a document it logs no longer renders.
"""
import numpy as np
import pytest

import replay
from aqsim.adversary import SCENARIO_TOKENS, Scenario
from aqsim.defense import DEFENSE_GRID

N, TRIALS, SEED = 2, 2, 31


@pytest.mark.parametrize("defenses", DEFENSE_GRID, ids=lambda d: ",".join(d.tokens()) or "none")
@pytest.mark.parametrize("scenario", SCENARIO_TOKENS)
def test_traced_replay_matches_run_scenario(scenario, defenses, tmp_path):
    argv = ["run", "--scenario", scenario, "--n", str(N), "--trials", str(TRIALS),
            "--seed", str(SEED), "--format", "json", "--out", str(tmp_path)]
    if defenses.tokens():
        argv += ["--defenses", ",".join(defenses.tokens())]
    spans = replay.Spans()
    rc, _, trials = replay.traced_invocation(spans, argv, {})
    assert rc == 0
    assert len(trials) == TRIALS
    assert len(list(tmp_path.iterdir())) == TRIALS
    assert replay.after_invocation(spans, Scenario.from_token(scenario), N, SEED, defenses,
                                   trials, np.random.default_rng(0))
