"""scripts/startup.py: the start-up phases of a fresh ``aqsim run``."""
import startup


def test_one_sample_times_every_start_up_phase():
    rows = startup.measure(1)
    assert [row["phase"] for row in rows] == list(startup.PHASES)
    assert all(row["ms"] > 0 and row["samples"] == 1 for row in rows)
