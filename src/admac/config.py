"""Model parameters, frame timings, and per-sector channel constants.

A beacon interval of ``bi_slots`` idle slots is divided into sector service
periods; contention happens only inside a station's own period.  This module
turns raw configuration (populations, window sizes, frame sizes, PHY rates)
into the derived quantities the analytical model and the simulator share:
frame airtimes, whole-slot exchange durations, and per-sector transition
constants.
"""

import math
from typing import NamedTuple

from .errors import ConfigError, InfeasibleModelError

MICRO = 1e-6

# what each window rule subtracts from 2**i * w0; window_sizes reads it
WINDOW_RULES = {"doubling": 0, "doubling-minus-one": 1}
SPLIT_RULES = ("equal", "proportional")
_NO_SLOT = "every sector service period must be >= 1 slot"


class _ModelFields(NamedTuple):
    """The parameters in order, with their types and defaults, unchecked."""

    n: int = 10
    q: int = 1
    sector_populations: tuple = ()
    w0: int = 7
    m: int = 5
    bi_slots: int = 20000
    cbap_slots: int = 8000
    cbap_split: tuple = ()
    slot_time: float = 5 * MICRO
    sifs: float = 2.5 * MICRO
    difs: float = 13.5 * MICRO
    rifs: float = 9 * MICRO
    rts_bytes: int = 20
    cts_bytes: int = 26
    ack_bytes: int = 14
    msdu_bytes: int = 7995
    control_rate: float = 27.5e6
    data_rate: float = 2e9
    phy_overhead: float = 0.0
    window_rule: str = "doubling"
    cbap_split_rule: str = "equal"
    strict_timing: bool = True


class ModelParams(_ModelFields):
    """Validated scenario description shared by model and simulator.

    The defaults are the paper's scenario: a 60 GHz directional MAC with
    RTS/CTS protection, 27.5 Mb/s control rate and 2 Gb/s data rate.
    Every way of building one checks the fields and derives empty
    ``sector_populations`` and ``cbap_split``: the constructor, ``_make``,
    ``_replace``, ``copy`` and unpickling.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        draft = _ModelFields(*args, **kwargs)
        for name, kind in _FIELD_TYPES.items():
            value = getattr(draft, name)
            if kind not in (int, float) or name in ("w0", "m"):
                continue  # window_sizes checks w0 and m
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int that rounds to 2**1024 or more
                finite, value = False, f"an integer of {value.bit_length()} bits"
            if not finite:
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in _LEAST:
            check_least(name, getattr(draft, name))
        window_sizes(draft.w0, draft.m, draft.window_rule)
        if not 1 <= draft.cbap_slots <= draft.bi_slots:
            raise ConfigError(f"cbap_slots must be in [1, bi_slots], "
                              f"got {draft.cbap_slots}")
        if draft.cbap_split_rule not in SPLIT_RULES:
            raise ConfigError(f"unknown cbap_split_rule {draft.cbap_split_rule!r}")
        if not (draft.sector_populations or draft.cbap_split) and (
                draft.n >= draft.q > draft.cbap_slots):
            raise ConfigError(_NO_SLOT)  # before the stations are dealt out
        populations = _per_sector(draft, "sector_populations", "n",
                                  "every sector must hold at least one station",
                                  _round_robin, draft.q)
        split = _per_sector(draft, "cbap_split", "cbap_slots", _NO_SLOT,
                            _split_cbap, populations, draft.cbap_split_rule)
        return tuple.__new__(cls, draft._replace(sector_populations=populations,
                                                 cbap_split=split))

    @classmethod
    def _make(cls, iterable):
        """The parameters of ``iterable`` in field order, checked; ``_replace``
        builds through it."""
        return cls(*iterable)


def _per_sector(params, name, total, below_one, derive, *args):
    """The tuple of ``name``, ``derive(total, *args)`` when empty, checked to
    have q entries, each >= 1, that sum to ``total``.  A q above the total
    is refused before ``derive`` builds a list."""
    value, whole = getattr(params, name), getattr(params, total)
    if not value:
        if params.q > whole:
            raise ConfigError(below_one)
        value = derive(whole, *args)
    value = tuple(value)
    if len(value) != params.q:
        raise ConfigError(f"{name} has {len(value)} entries, expected q={params.q}")
    if any(v < 1 for v in value):
        raise ConfigError(below_one)
    if sum(value) != whole:
        raise ConfigError(f"{name} sums to {sum(value)}, expected {total}={whole}")
    return value


# the type of every parameter, read by the config-file parser and the checks
_FIELD_TYPES = dict(_ModelFields.__annotations__)

# the comparison and least value of each one-sided bound, in checking order
_LEAST = {
    "n": (">=", 1), "q": (">=", 1), "w0": (">=", 2), "bi_slots": (">=", 1),
    **dict.fromkeys(("slot_time", "sifs", "difs", "rifs", "control_rate",
                     "data_rate"), (">", 0)),
    "phy_overhead": (">=", 0),
    **dict.fromkeys(("rts_bytes", "cts_bytes", "ack_bytes", "msdu_bytes"), (">=", 1)),
}


def check_least(name, value):
    """Refuse ``value`` below the least value of ``name``, or at a strict one."""
    sign, least = _LEAST[name]
    if value < least or (sign == ">" and value == least):
        raise ConfigError(f"{name} must be {sign} {least}, got {value}")


def _round_robin(n, q):
    """Deal n stations one at a time over q sectors."""
    base, extra = divmod(n, q)
    return [base + 1 if k < extra else base for k in range(q)]


def _split_cbap(cbap_slots, populations, rule):
    """Divide the contention period into per-sector slot budgets."""
    if rule == "equal":
        return _round_robin(cbap_slots, len(populations))
    n = sum(populations)
    split = [cbap_slots * nk // n for nk in populations]
    for k in range(cbap_slots - sum(split)):
        split[k] += 1
    return split


def make_params(**overrides):
    """Build ModelParams from its defaults plus keyword overrides."""
    unknown = sorted(overrides.keys() - _FIELD_TYPES.keys())
    if unknown:
        raise ConfigError(f"unknown parameter(s): {', '.join(unknown)}")
    return ModelParams(**overrides)


def window_sizes(w0, m, rule="doubling"):
    """Contention window width per backoff stage 0..m, ``2**i * w0`` less
    what ``rule`` subtracts.  Every check of the schedule runs here, before
    the widths are built; the model's arithmetic needs floats of them."""
    if m < 0:
        raise ConfigError(f"m must be >= 0, got {m}")
    if rule not in WINDOW_RULES:
        raise ConfigError(f"unknown window_rule {rule!r}")
    less = WINDOW_RULES[rule]
    if w0 - less < 1:
        raise ConfigError(f"window rule {rule!r} yields an empty window")
    try:
        math.ldexp(w0, m)
    except OverflowError:
        raise ConfigError(f"the widest window w0 * 2**{m} does not fit a float")
    return tuple((2 ** i) * w0 - less for i in range(m + 1))


def _frame_airtime(num_bytes, rate, phy_overhead):
    """Seconds to serialize a frame: PHY preamble plus payload bits."""
    return phy_overhead + 8.0 * num_bytes / rate


class TimingDurations(NamedTuple):
    """Payload airtime, and each exchange in whole slots: seconds and count."""

    t_data: float
    t_suc: float
    t_col: float
    n_frame_slots: int
    n_col_slots: int


def derive_timings(params):
    """Compute success/collision exchange durations and slot counts.

    A successful exchange spends the RTS, two SIFS gaps, the CTS, a DIFS,
    the data frame, and the ACK; with ``strict_timing`` disabled an extra
    SIFS is inserted before the acknowledgment.  A collision costs the RTS
    plus SIFS, DIFS, and the RIFS recovery gap.  The simulator and the
    analytic layer charge each exchange rounded up to whole slots:
    ``n_frame_slots`` and ``n_col_slots``, or ``t_suc`` and ``t_col`` in
    seconds.  The checks read the exchanges' real lengths.
    """
    t_rts = _frame_airtime(params.rts_bytes, params.control_rate, params.phy_overhead)
    t_cts = _frame_airtime(params.cts_bytes, params.control_rate, params.phy_overhead)
    t_ack = _frame_airtime(params.ack_bytes, params.control_rate, params.phy_overhead)
    t_data = _frame_airtime(params.msdu_bytes, params.data_rate, params.phy_overhead)
    t_suc = t_rts + 2.0 * params.sifs + t_cts + params.difs + t_data + t_ack
    if not params.strict_timing:
        t_suc += params.sifs
    t_col = t_rts + params.sifs + params.difs + params.rifs
    if not t_suc > t_col > 0:
        raise ConfigError(
            f"timings must satisfy t_suc > t_col > 0, got {t_suc} and {t_col}"
        )
    if not math.isfinite(t_suc / params.slot_time):
        raise ConfigError(f"a success exchange of {t_suc} s is not a finite "
                          f"number of {params.slot_time} s slots")
    n_frame_slots = math.ceil(t_suc / params.slot_time)
    n_col_slots = math.ceil(t_col / params.slot_time)
    return TimingDurations(
        t_data=t_data,
        t_suc=n_frame_slots * params.slot_time,
        t_col=n_col_slots * params.slot_time,
        n_frame_slots=n_frame_slots,
        n_col_slots=n_col_slots,
    )


class SectorModel(NamedTuple):
    """Per-sector transition constants of the backoff chain."""

    n_k: int
    p_h: float
    p_h_prime: float
    p_f: float
    cbap_k_slots: int


def derive_sector_models(params, timings):
    """Per-sector boundary/suspension constants.

    ``p_h`` is the chance a decrement slot is the last one that still fits a
    full exchange before the sector period ends; ``p_h_prime`` covers the
    deferral zone of the final ``n_frame_slots`` slots; ``p_f`` is the
    out-of-period share of the beacon interval, the chance a suspended
    station's next slot is still outside its own period.
    """
    nf = timings.n_frame_slots
    models = []
    for k, (nk, cbap_k) in enumerate(zip(params.sector_populations, params.cbap_split)):
        if cbap_k <= nf:
            raise InfeasibleModelError(
                f"sector {k}: service period of {cbap_k} slots cannot fit a "
                f"{nf}-slot frame exchange"
            )
        p_h = 1.0 / cbap_k
        models.append(
            SectorModel(
                n_k=nk,
                p_h=p_h,
                p_h_prime=nf * p_h,
                p_f=1.0 - cbap_k / params.bi_slots,
                cbap_k_slots=cbap_k,
            )
        )
    return models


_BOOL_STRINGS = {"true": True, "false": False, "yes": True, "no": False,
                 "1": True, "0": False}

def _parse_value(key, raw):
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    # an output's header quotes its strings: window_rule='doubling'
    if kind is str and len(raw) > 1 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1]
    try:
        if kind is tuple:
            return tuple(int(part) for part in raw.split(",") if part.strip())
        if kind is bool:
            return _BOOL_STRINGS[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}")


def open_text(path, mode="r", newline=None):
    """``path`` opened as UTF-8 text, or a ConfigError that names it."""
    try:
        return open(path, mode, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc.strerror}")


def read_lines(path):
    """Lines of ``path``; a ConfigError names it if unopenable or not UTF-8."""
    with open_text(path) as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read {path}: not UTF-8 ({exc.reason})")


def parse_config_file(path):
    """Read a flat key=value file into an override dict.

    Blank lines and ``#`` comments are ignored; unknown keys are a hard
    error so that typos cannot silently fall back to defaults.
    """
    overrides = {}
    unknown = []
    for lineno, line in enumerate(read_lines(path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, raw = text.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            unknown.append(key)
            continue
        overrides[key] = _parse_value(key, raw)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(sorted(unknown))}")
    return overrides
