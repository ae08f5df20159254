"""Receive-side screening against Trojan-horse carriers.

Two independently toggleable devices sit in front of a receiving party's
apparatus: a wavelength filter that rejects any carrier off the signal
band, and a photon-number splitter (PNS) that rejects time slots occupied
by more than one carrier. Detection is deterministic in this ideal model:
a flagged carrier is pulled from the channel and the run raises an alarm.

A screen runs on the columns that a ``CarrierStream`` keeps: the filter is
a mask over the band column, and the splitter a repeated-slot test over
the slot column of what the filter passed, in stream order. The alarm's
rows are laid out from the streams' canonical id, band and slot texts.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

import numpy as np

from . import jsonutil
from .protocol import Carrier, CarrierStream

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


def screen_streams(
    streams: Sequence[CarrierStream], config: DefenseConfig
) -> tuple[tuple[str, np.ndarray], ...]:
    """Run the enabled devices in order, wavelength filter then PNS, over
    ``streams`` taken as one transmission. Returns (device token, rows) for
    each device that flagged a carrier: rows number the carriers of the
    streams in order, ascending. The PNS flags every carrier that the
    filter passed beyond the first in its slot."""
    slots = np.concatenate([stream.slots for stream in streams])
    passed = np.arange(len(slots))
    flagged = []
    if config.wavelength_filter:
        off = np.concatenate([stream.off_band for stream in streams])
        if off.any():
            flagged.append((DEVICE_FILTER, passed[off]))
            passed = passed[~off]
    if config.pns:
        kept = slots[passed]
        order = np.argsort(kept, kind="stable")  # a slot's carriers stay in stream order
        ranked = kept[order]
        repeat = np.zeros(len(kept), dtype=bool)
        repeat[order[1:][ranked[1:] == ranked[:-1]]] = True
        if repeat.any():
            flagged.append((DEVICE_PNS, passed[repeat]))
    return tuple(flagged)


_ALARM_KEYS = ("device", "id", "band", "slot")
_DEVICE_TEXTS = {device: jsonutil.canonical_json(device) for device in DEVICE_TOKENS}


def render_alarm(streams: Sequence[CarrierStream], flagged) -> jsonutil.Rendered:
    """Rendered ``[{"device", "id", "band", "slot"}, ...]`` of what
    ``screen_streams`` flagged, laid out from the streams' ``columns``."""
    devices, ids, bands, slots = [], [], [], []
    for device, rows in flagged:
        rows = rows.tolist()
        devices += [_DEVICE_TEXTS[device]] * len(rows)
        start = 0
        for stream in streams:  # the rows ascend: each stream's are one run
            index = [row - start for row in
                     rows[bisect_left(rows, start):bisect_left(rows, start + len(stream))]]
            for texts, column in zip((ids, bands, slots), stream.columns):
                texts += [column[i] for i in index]
            start += len(stream)
    return jsonutil.render_records(_ALARM_KEYS, [devices, ids, bands, slots])


class ScreenReport(NamedTuple):
    flagged: tuple[tuple[str, Carrier], ...]  # (device token, carrier)


def screen(carriers: Sequence[Carrier], config: DefenseConfig) -> ScreenReport:
    """``screen_streams`` over one stream of ``carriers``, each flagged
    carrier paired with its device."""
    stream = CarrierStream(carriers)
    return ScreenReport(flagged=tuple((device, stream[row]) for device, rows in
                                      screen_streams((stream,), config) for row in rows.tolist()))
