"""Receive-side screening against Trojan-horse carriers.

Two independently toggleable devices sit in front of a receiving party's
apparatus: a wavelength filter that rejects any carrier off the signal
band, and a photon-number splitter (PNS) that rejects time slots occupied
by more than one carrier. Detection is deterministic in this ideal model:
a flagged carrier is pulled from the channel and the run raises an alarm.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .protocol import BAND_SIGNAL, Carrier

DEVICE_FILTER = "wavelength-filter"
DEVICE_PNS = "pns"
DEVICE_TOKENS = (DEVICE_FILTER, DEVICE_PNS)


class DefenseConfig(NamedTuple):
    wavelength_filter: bool = False
    pns: bool = False

    @property
    def any_enabled(self) -> bool:
        return self.wavelength_filter or self.pns

    def tokens(self) -> list[str]:
        out = []
        if self.wavelength_filter:
            out.append(DEVICE_FILTER)
        if self.pns:
            out.append(DEVICE_PNS)
        return out

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "DefenseConfig":
        unknown = [t for t in tokens if t not in DEVICE_TOKENS]
        if unknown:
            raise ValueError(f"unknown defense token(s): {unknown}")
        return cls(wavelength_filter=DEVICE_FILTER in tokens, pns=DEVICE_PNS in tokens)


# Every on/off combination of the two devices: none, filter, pns, both.
DEFENSE_GRID = tuple(DefenseConfig(wavelength_filter=f, pns=p)
                     for p in (False, True) for f in (False, True))


def wavelength_filter(carriers: Sequence[Carrier]) -> tuple[tuple[Carrier, ...], tuple[Carrier, ...]]:
    """Partition by band: signal carriers pass, everything else is flagged."""
    passed = tuple(c for c in carriers if c.band == BAND_SIGNAL)
    flagged = tuple(c for c in carriers if c.band != BAND_SIGNAL)
    return passed, flagged


def photon_number_splitter(carriers: Sequence[Carrier]) -> tuple[tuple[Carrier, ...], tuple[Carrier, ...]]:
    """Flag every carrier beyond the first in any occupied time slot."""
    seen: set[int] = set()
    passed = []
    flagged = []
    for c in carriers:
        if c.time_slot in seen:
            flagged.append(c)
        else:
            seen.add(c.time_slot)
            passed.append(c)
    return tuple(passed), tuple(flagged)


class ScreenReport(NamedTuple):
    flagged: tuple[tuple[str, Carrier], ...]  # (device token, carrier)


def screen(carriers: Sequence[Carrier], config: DefenseConfig) -> ScreenReport:
    """Run the enabled devices in order: wavelength filter, then PNS."""
    passed = tuple(carriers)
    flagged: list[tuple[str, Carrier]] = []
    if config.wavelength_filter:
        passed, hits = wavelength_filter(passed)
        flagged.extend((DEVICE_FILTER, c) for c in hits)
    if config.pns:
        passed, hits = photon_number_splitter(passed)
        flagged.extend((DEVICE_PNS, c) for c in hits)
    return ScreenReport(flagged=tuple(flagged))
