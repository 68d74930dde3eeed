"""Frame vocabulary and the airtime model shared by both MAC schemes.

Control frames (RTS/CTS/BA/TF/MBA/CF-End) ride at the legacy
6 Mbps base rate behind a 20 us preamble.  Data PPDUs occupy whole OFDM
symbols of their numerology behind the preamble of their PPDU format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import US
from .phy import HE_SYMBOL_US, LEGACY_GI_US, LEGACY_SYMBOL_US, PpduFormat

# sizes in bytes
RTS_BYTES = 20
CTS_BYTES = 14
BA_BYTES = 32
CF_END_BYTES = 20
TF_BASE_BYTES = 28
TF_PER_USER_BYTES = 5
MBA_BASE_BYTES = 22
MBA_PER_STA_BYTES = 8
BSR_REPORT_BYTES = 32

MAC_HEADER_BYTES = 30
MPDU_OVERHEAD_BYTES = 8        # A-MPDU delimiter + FCS
SERVICE_TAIL_BITS = 22         # 16-bit SERVICE field + 6 tail bits per PPDU

LEGACY_PREAMBLE_US = 20.0
LEGACY_BASE_BITS_PER_SYMBOL = 24   # 6 Mbps: 48 subcarriers, BPSK 1/2
LEGACY_FULL_SYMBOL_US = LEGACY_SYMBOL_US + LEGACY_GI_US  # 4.0 us


def _us_to_ns(us: float) -> int:
    return round(us * US)


def legacy_frame_duration_ns(frame_bytes: int) -> int:
    """Airtime of a legacy-rate control/management frame, whole 4 us symbols."""
    bits = 8 * frame_bytes + SERVICE_TAIL_BITS
    symbols = math.ceil(bits / LEGACY_BASE_BITS_PER_SYMBOL)
    return _us_to_ns(LEGACY_PREAMBLE_US + symbols * LEGACY_FULL_SYMBOL_US)


def tf_bytes(n_users: int) -> int:
    """Trigger frames grow with the per-user info list."""
    return TF_BASE_BYTES + TF_PER_USER_BYTES * n_users


def mba_bytes(n_stas: int) -> int:
    """Multi-STA block acks grow with the per-STA info list."""
    return MBA_BASE_BYTES + MBA_PER_STA_BYTES * n_stas


def data_duration_ns(ppdu: PpduFormat, total_bits: int, bits_per_symbol: float,
                     gi_us: float = 0.8, he: bool = True) -> int:
    """Preamble plus payload rounded up to whole OFDM symbols."""
    symbol_us = (HE_SYMBOL_US + gi_us) if he else LEGACY_FULL_SYMBOL_US
    symbols = max(1, math.ceil((total_bits + SERVICE_TAIL_BITS) / bits_per_symbol))
    return _us_to_ns(ppdu.preamble_us + symbols * symbol_us)


def symbols_that_fit(duration_ns: int, ppdu: PpduFormat, gi_us: float = 0.8,
                     he: bool = True) -> int:
    symbol_us = (HE_SYMBOL_US + gi_us) if he else LEGACY_FULL_SYMBOL_US
    available = duration_ns - _us_to_ns(ppdu.preamble_us)
    if available <= 0:
        return 0
    return int(available // _us_to_ns(symbol_us))


def mpdu_bits(payload_bytes: int) -> int:
    """On-air bits of one MPDU inside an A-MPDU: payload, MAC header,
    delimiter and FCS."""
    return 8 * (payload_bytes + MAC_HEADER_BYTES + MPDU_OVERHEAD_BYTES)


@dataclass(frozen=True)
class Mpdu:
    """One MPDU as an object.  Nothing in the simulator builds one: the
    engines carry a flow's packets as arrays of sequence numbers (see
    ``traffic.CbrFlow``).  It stays only while the benchmark's
    ``frames.mpdu_compares`` counter (``bench/probes.py``) wraps its
    ``__eq__``, and goes with that counter."""

    destination: int
    payload_bytes: int
    seq: int
    enqueued_ns: int = 0


def mpdus_that_fit(duration_ns: int, ppdu: PpduFormat, bits_per_symbol: float,
                   mpdu_bits: int, cap: int, gi_us: float = 0.8, he: bool = True) -> int:
    """Largest A-MPDU (in MPDUs of equal size) whose airtime fits the duration."""
    symbols = symbols_that_fit(duration_ns, ppdu, gi_us, he)
    if symbols <= 0:
        return 0
    bits = symbols * bits_per_symbol - SERVICE_TAIL_BITS
    return max(0, min(cap, int(bits // mpdu_bits)))
