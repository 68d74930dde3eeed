"""The MU-MAC rules the engine runs: trigger frames and their validation,
UORA backoff, the AP's BSR table, the hybrid RU schedule, multi-STA BA and
the DL power split."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .ru import RuAssignment, RuLayout, mu_mimo_admissible

AID_RANDOM_ACCESS = 0          # RU open to associated STAs
AID_UNASSOCIATED = 2045        # RU open to unassociated STAs
MAX_AID = 2007                 # the largest AID an AP assigns (IEEE 802.11-2020, 9.4.1.8)
AID_RESERVED = 4095            # never defined; the validator rejects it


class MuMacError(ValueError):
    pass


@dataclass(frozen=True)
class TfUser:
    aid12: int
    ru_index: int            # index into the trigger frame's layout
    n_ss: int = 1
    ss_start: int = 0

    @property
    def is_random_access(self) -> bool:
        return self.aid12 in (AID_RANDOM_ACCESS, AID_UNASSOCIATED)


@dataclass(frozen=True)
class TriggerFrame:
    layout: RuLayout
    per_user: tuple[TfUser, ...]
    mu_mimo_ltf_mode: int = 0       # 0 single stream, 1 MU-MIMO

    def ru_of(self, user: TfUser) -> RuAssignment:
        return self.layout.rus[user.ru_index]

    @property
    def ra_ru_indices(self) -> tuple[int, ...]:
        return tuple(u.ru_index for u in self.per_user if u.is_random_access)

    @property
    def scheduled_users(self) -> tuple[TfUser, ...]:
        return tuple(u for u in self.per_user if not u.is_random_access)

    def users_of(self, ru_index: int) -> tuple[TfUser, ...]:
        return tuple(u for u in self.per_user if u.ru_index == ru_index)


def validate_tf(tf: TriggerFrame) -> list[str]:
    violations = []
    shared = set()
    seen: dict[int, int] = {}
    for user in tf.per_user:
        if user.aid12 == AID_RESERVED:
            violations.append("AID12 4095 is reserved")
        if user.is_random_access and (user.n_ss > 1 or user.ss_start != 0):
            violations.append("random-access RUs never carry a spatial-stream allocation")
        if not 0 <= user.ru_index < len(tf.layout.rus):
            violations.append(f"RU index {user.ru_index} outside the layout")
            continue
        seen[user.ru_index] = seen.get(user.ru_index, 0) + 1
        if seen[user.ru_index] > 1:
            shared.add(user.ru_index)
    for ru_index in shared:
        users = tf.users_of(ru_index)
        tones = tf.layout.rus[ru_index].tones
        if any(u.is_random_access for u in users):
            violations.append("MU-MIMO is not allowed on random-access RUs")
        if not mu_mimo_admissible(tones, len(users)):
            violations.append(
                f"{len(users)} users on a {tones}-tone RU is not MU-MIMO admissible")
    if shared and tf.mu_mimo_ltf_mode != 1:
        violations.append("shared RUs require MU-MIMO LTF mode 1")
    return violations


# --- UORA --------------------------------------------------------------------------

@dataclass
class OboState:
    ocw_min: int                # the MacSection's; they ride in the Beacon
    ocw_max: int
    ocw: int = field(default=-1)    # -1: start at ocw_min
    obo: int | None = None      # None until the first draw
    candidate_ru: int | None = None   # index into the TF's RA RUs, this round

    def __post_init__(self):
        if self.ocw < 0:
            self.ocw = self.ocw_min


def uora_update(state: OboState, n_ra_rus: int, rng,
                boundary_eligible: bool) -> tuple[bool, OboState]:
    """One TF round of OFDMA backoff.

    The counter drops by the number of random-access RUs; reaching (or
    crossing) zero makes the STA eligible to pick a candidate RU now.  The
    stated rule only says "below the number of RUs", but the worked example
    transmits at obo == n_ra_rus, so boundary_eligible (the MacSection's
    uora_boundary_eligible) counts that boundary as eligible; without it
    the strict-less reading holds (eligible at the next TF).
    """
    if n_ra_rus < 1:
        return False, state  # this TF round does not support random access
    obo = state.obo
    if obo is None:
        obo = rng.randint(0, state.ocw)
    if obo < n_ra_rus:
        new_obo, eligible = 0, True
    else:
        new_obo = obo - n_ra_rus
        eligible = new_obo == 0 if boundary_eligible else False
    return eligible, replace(state, obo=new_obo)


def uora_transmit_phase(eligible: dict[int, OboState], n_ra_rus: int,
                        carrier_idle, rng) -> tuple[dict[int, OboState], list[int]]:
    """Eligible STAs each pick one RA RU uniformly; CS-blocked STAs defer and
    keep obo = 0 and no candidate RU for the next TF.  Two transmitters on
    an RU collide (no capture); a lone transmitter succeeds.

    Returns (updated states, transmitted STA ids); a transmitted STA's state
    holds the RU it picked as its candidate_ru.
    """
    states = dict(eligible)
    transmitted = []
    for sta in sorted(eligible):
        ru_index = rng.randint(0, n_ra_rus - 1)
        if not carrier_idle(sta):
            states[sta] = replace(states[sta], candidate_ru=None)
            continue
        states[sta] = replace(states[sta], candidate_ru=ru_index)
        transmitted.append(sta)
    return states, transmitted


def ocw_on_result(state: OboState, acked: bool) -> OboState:
    if acked:
        return replace(state, ocw=state.ocw_min, obo=None, candidate_ru=None)
    return replace(state, ocw=min(2 * (state.ocw + 1) - 1, state.ocw_max),
                   obo=None, candidate_ru=None)


# --- BSR ----------------------------------------------------------------------------

class BsrTable:
    """AP-side view of STA buffer depths, fed by piggyback and BSRP reports:
    the last reported queue depth in bytes of each AID with a non-empty
    queue."""

    def __init__(self):
        self.queued: dict[int, int] = {}

    def ingest(self, sta: int, queued_bytes: int) -> None:
        if queued_bytes < 0:
            raise MuMacError("negative queue depth")
        if queued_bytes == 0:
            self.queued.pop(sta, None)   # empty queue leaves the scheduling pool
            return
        self.queued[sta] = queued_bytes

    def backlogged(self) -> list[int]:
        return sorted(self.queued)


# --- scheduling -----------------------------------------------------------------------

def build_schedule(backlogged: list[int], layout: RuLayout, rng, ra_fraction: float,
                   users_per_ru: int, nss: int) -> TriggerFrame | None:
    """Hybrid schedule over a validated layout: ra_fraction of the RUs
    opens for random access, the rest go to uniformly random STAs of the
    backlogged AIDs, given ascending (the baseline policy).  MU-MIMO packs
    users_per_ru where admissible; every user sends nss streams."""
    n_rus = len(layout.rus)
    n_ra = round(ra_fraction * n_rus)
    ra_indices = range(n_rus - n_ra, n_rus)
    sched_indices = range(n_rus - n_ra)
    pool = list(backlogged)
    if not pool and not n_ra:
        return None
    users: list[TfUser] = []
    rng.shuffle(pool)
    mu_mode = 0
    for ru_index in sched_indices:
        tones = layout.rus[ru_index].tones
        group = users_per_ru if users_per_ru > 1 and \
            mu_mimo_admissible(tones, users_per_ru) else 1
        placed = 0
        while pool and placed < group:
            sta = pool.pop()
            users.append(TfUser(sta, ru_index, n_ss=nss, ss_start=placed * nss))
            placed += 1
        if placed > 1:
            mu_mode = 1
    for ru_index in ra_indices:
        users.append(TfUser(AID_RANDOM_ACCESS, ru_index))
    if not users:
        return None
    tf = TriggerFrame(layout, tuple(users), mu_mimo_ltf_mode=mu_mode)
    violations = validate_tf(tf)
    if violations:
        raise MuMacError("; ".join(violations))
    return tf


# --- multi-STA BA and round outcomes ------------------------------------------------------

@dataclass(frozen=True)
class MultiStaBa:
    bitmaps: dict[int, tuple[bool, ...]]

    @property
    def acked_stas(self) -> frozenset[int]:
        return frozenset(self.bitmaps)


ACCESS_FAILURE = "access_failure"


def mba_for(decoded: dict[int, tuple[bool, ...]]) -> MultiStaBa | str:
    """MBA covers exactly the decoded STAs; zero decodes is an access failure."""
    if not decoded:
        return ACCESS_FAILURE
    return MultiStaBa(dict(decoded))


def dl_power_split_dbm(total_dbm: float, n_rus: int) -> float:
    """The AP divides transmit power evenly across scheduled RUs."""
    if n_rus < 1:
        raise MuMacError("need at least one RU")
    return total_dbm - 10.0 * math.log10(n_rus)

