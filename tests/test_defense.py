import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import canonical_oracle
import oracles
from aqsim import adversary as adv
from aqsim import defense
from aqsim.adversary import MissingDecoy, Scenario
from aqsim.defense import DEFENSE_GRID, DefenseConfig
from aqsim.protocol import BAND_OFF, BAND_SIGNAL, Carrier, CarrierStream, QuantumRegistry
from aqsim.scenarios import run_scenario

FILTER = DefenseConfig(wavelength_filter=True)
PNS = DefenseConfig(pns=True)


def signal(i, slot=None):
    return Carrier(id=f"c{i}", band=BAND_SIGNAL, time_slot=slot if slot is not None else i)


def off_band(i, slot):
    return Carrier(id=f"d{i}", band=BAND_OFF, time_slot=slot)


def flagged_by(carriers, config):
    return [c for _, c in defense.screen(carriers, config).flagged]


# --- devices ----------------------------------------------------------------


def test_filter_passes_honest_stream():
    assert defense.screen([signal(i) for i in range(4)], FILTER).flagged == ()


def test_filter_flags_every_off_band_carrier():
    carriers = []
    for i in range(3):
        carriers.append(signal(i))
        carriers.append(off_band(i, slot=i))
    report = defense.screen(carriers, FILTER)
    assert len(report.flagged) == 3
    assert all(device == "wavelength-filter" for device, _ in report.flagged)
    assert all(c.band == BAND_OFF for _, c in report.flagged)
    assert [c for c in carriers if c not in flagged_by(carriers, FILTER)] == carriers[::2]


def test_pns_passes_one_per_slot():
    assert defense.screen([signal(i) for i in range(5)], PNS).flagged == ()


def test_pns_flags_all_but_first_in_shared_slots():
    carriers = [signal(0, slot=0), signal(1, slot=0), signal(2, slot=1),
                signal(3, slot=1), signal(4, slot=2)]
    flagged = flagged_by(carriers, PNS)
    assert [c.id for c in flagged] == ["c1", "c3"]
    assert [c.id for c in carriers if c not in flagged] == ["c0", "c2", "c4"]


def test_pns_also_catches_ipe_layout():
    # slot-count oracle on the injected layout: every slot holds 2 carriers,
    # so the splitter flags one per slot even though the probe is off-band
    registry = QuantumRegistry()
    package_carriers = CarrierStream(
        Carrier(id=f"p{i + 1}", band=BAND_SIGNAL, time_slot=i)
        for i in range(3)
    )
    sig = CarrierStream(
        Carrier(id=f"sa{i + 1}", band=BAND_SIGNAL, time_slot=3 + i)
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
    assert len(flagged_by(injected.masked, PNS)) == 3


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
    events = json.loads(result.transcript_bytes())["events"]
    alarm_events = [e for e in events if e["kind"] == "defense-alarm"]
    assert len(alarm_events) == 1
    assert alarm_events[0]["payload"]["flagged"] == [
        {"device": "wavelength-filter", "id": f"d1_{i}", "band": BAND_OFF, "slot": i - 1}
        for i in range(1, 4)]
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


carrier_rows = st.lists(st.tuples(st.text(max_size=3),
                                  st.sampled_from([BAND_SIGNAL, BAND_OFF, "uv"]),
                                  st.integers(-2, 5)), max_size=14)


@given(carrier_rows, st.sampled_from(DEFENSE_GRID), st.lists(st.integers(0, 14), max_size=3))
def test_the_column_screen_matches_the_per_carrier_oracle(rows, config, cuts):
    # random bands and repeated, out-of-order slots, under each device set;
    # the carriers go in as one stream, and cut into streams of one transmission
    carriers = [Carrier(name, band, slot) for name, band, slot in rows]
    expected = oracles.screen_carriers(carriers, config.wavelength_filter, config.pns)
    assert defense.screen(carriers, config).flagged == tuple(expected)
    bounds = [0, *sorted(min(cut, len(carriers)) for cut in cuts), len(carriers)]
    streams = [CarrierStream(carriers[a:b]) for a, b in zip(bounds, bounds[1:])]
    flagged = defense.screen_streams(streams, config)
    assert [(device, carriers[row]) for device, hits in flagged
            for row in hits.tolist()] == expected
    assert all(len(hits) for _, hits in flagged)
    if flagged:
        assert defense.render_alarm(streams, flagged).text == canonical_oracle.canonical_json(
            [{"device": device, "id": c.id, "band": c.band, "slot": c.time_slot}
             for device, c in expected])
