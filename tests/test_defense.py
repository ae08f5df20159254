import numpy as np
import pytest

from aqsim import adversary as adv
from aqsim import defense
from aqsim.adversary import MissingDecoy, Scenario
from aqsim.defense import DefenseConfig
from aqsim.protocol import BAND_OFF, BAND_SIGNAL, Carrier, CarrierStream, QuantumRegistry
from aqsim.scenarios import run_scenario


def signal(i, slot=None):
    return Carrier(id=f"c{i}", band=BAND_SIGNAL, time_slot=slot if slot is not None else i,
                   payload=f"c{i}")


def off_band(i, slot):
    return Carrier(id=f"d{i}", band=BAND_OFF, time_slot=slot, payload=f"d{i}")


# --- devices ----------------------------------------------------------------


def test_filter_passes_honest_stream():
    carriers = [signal(i) for i in range(4)]
    passed, flagged = defense.wavelength_filter(carriers)
    assert passed == tuple(carriers)
    assert flagged == ()


def test_filter_flags_every_off_band_carrier():
    carriers = []
    for i in range(3):
        carriers.append(signal(i))
        carriers.append(off_band(i, slot=i))
    passed, flagged = defense.wavelength_filter(carriers)
    assert len(flagged) == 3
    assert all(c.band == BAND_OFF for c in flagged)
    assert all(c.band == BAND_SIGNAL for c in passed)


def test_pns_passes_one_per_slot():
    passed, flagged = defense.photon_number_splitter([signal(i) for i in range(5)])
    assert len(passed) == 5 and flagged == ()


def test_pns_flags_all_but_first_in_shared_slots():
    carriers = [signal(0, slot=0), signal(1, slot=0), signal(2, slot=1),
                signal(3, slot=1), signal(4, slot=2)]
    passed, flagged = defense.photon_number_splitter(carriers)
    assert [c.id for c in flagged] == ["c1", "c3"]
    assert [c.id for c in passed] == ["c0", "c2", "c4"]


def test_pns_also_catches_ipe_layout():
    # slot-count oracle on the injected layout: every slot holds 2 carriers,
    # so the splitter flags one per slot even though the probe is off-band
    registry = QuantumRegistry()
    package_carriers = CarrierStream(
        Carrier(id=f"p{i + 1}", band=BAND_SIGNAL, time_slot=i, payload=f"p{i + 1}")
        for i in range(3)
    )
    sig = CarrierStream(
        Carrier(id=f"sa{i + 1}", band=BAND_SIGNAL, time_slot=3 + i, payload=f"sa{i + 1}")
        for i in range(3)
    )
    from aqsim.protocol import SignaturePackage
    from aqsim.statevector import BellOutcome
    package = SignaturePackage(package_carriers, sig, (BellOutcome.PHI_PLUS,) * 3)
    injected = adv.ipe_inject(package, adv.make_decoy_set(3, registry))
    slot_counts = {}
    for c in injected.masked:
        slot_counts[c.time_slot] = slot_counts.get(c.time_slot, 0) + 1
    assert all(count == 2 for count in slot_counts.values())
    _, flagged = defense.photon_number_splitter(injected.masked)
    assert len(flagged) == 3


def test_screen_runs_filter_then_pns():
    carriers = [signal(0, slot=0), off_band(0, slot=0), signal(1, slot=1), signal(2, slot=1)]
    report = defense.screen(carriers, DefenseConfig(wavelength_filter=True, pns=True))
    devices = [d for d, _ in report.flagged]
    assert devices == ["wavelength-filter", "pns"]
    assert [c.id for _, c in report.flagged] == ["d0", "c2"]


def test_defense_config_tokens():
    assert DefenseConfig.from_tokens(["pns"]).tokens() == ["pns"]
    assert DefenseConfig.from_tokens(["wavelength-filter", "pns"]).tokens() == [
        "wavelength-filter", "pns"]
    with pytest.raises(ValueError):
        DefenseConfig.from_tokens(["sonic-screwdriver"])


# --- pipeline behavior --------------------------------------------------------


def test_detected_run_aborts_with_alarm_event():
    result = run_scenario(
        Scenario.from_token("ipe"), 3, 71, 0, defenses=DefenseConfig(wavelength_filter=True)
    )
    assert result.verdict == "attack-detected"
    assert result.alarms == ("wavelength-filter",)
    assert result.checks == {"V": None, "v5": None, "recover_fidelity_min": None,
                             "signature_valid": None}
    alarm_events = [e for e in result.transcript.events if e["kind"] == "defense-alarm"]
    assert len(alarm_events) == 1
    assert len(alarm_events[0]["payload"]["flagged"]) == 3
    assert result.record is None  # the arbiter never saw the run


def test_detection_prevents_extraction():
    # the flagged probes never reach the attacker; forcing the measurement
    # anyway reports the missing decoys
    registry = QuantumRegistry()
    decoys = adv.make_decoy_set(2, registry)
    with pytest.raises(MissingDecoy):
        adv.ipe_extract((), decoys, registry, np.random.default_rng(0))


def test_delay_photon_run_detected_only_by_pns():
    detected = run_scenario(
        Scenario.from_token("delay-photon"), 3, 73, 0, defenses=DefenseConfig(pns=True)
    )
    assert detected.verdict == "attack-detected"
    assert detected.alarms == ("pns",)

    missed = run_scenario(
        Scenario.from_token("delay-photon"), 3, 73, 0,
        defenses=DefenseConfig(wavelength_filter=True),
    )
    assert missed.verdict == "no-dispute"
    assert missed.alarms == ()
    assert missed.extraction_matches is True


@pytest.mark.parametrize("n", [1, 8, 64])
def test_no_false_positives_on_honest_runs(n):
    both = DefenseConfig(wavelength_filter=True, pns=True)
    for trial in range(100):
        result = run_scenario(Scenario.from_token("honest"), n, 79, trial, defenses=both)
        assert result.alarms == ()
        assert result.checks["V"] == 1


def test_detection_completeness_sample():
    filter_only = DefenseConfig(wavelength_filter=True)
    pns_only = DefenseConfig(pns=True)
    for trial in range(20):
        ipe = run_scenario(Scenario.from_token("ipe"), 4, 83, trial, defenses=filter_only)
        assert ipe.alarms == ("wavelength-filter",)
        delay = run_scenario(Scenario.from_token("delay-photon"), 4, 83, trial,
                             defenses=pns_only)
        assert delay.alarms == ("pns",)
