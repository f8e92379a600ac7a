"""Parameter validation, frame timings, and sector-model derivation."""

import copy
import pickle

import pytest

from admac import (ConfigError, InfeasibleModelError, TimingDurations,
                   derive_sector_models, derive_timings, make_params,
                   window_sizes)
from admac import config
from admac.config import _frame_airtime, parse_config_file

MICRO = 1e-6


def test_frame_airtime_data_frame():
    # 7995 bytes at 2 Gb/s: 31.98 us of pure serialization
    assert _frame_airtime(7995, 2e9, 0.0) == pytest.approx(31.98 * MICRO,
                                                           rel=1e-12)


def test_frame_airtime_control_frame():
    assert _frame_airtime(20, 27.5e6, 0.0) == pytest.approx(
        160 / 27.5e6, rel=1e-12)


def test_frame_airtime_overhead_adds():
    base = _frame_airtime(100, 1e9, 0.0)
    assert _frame_airtime(100, 1e9, 2 * MICRO) == pytest.approx(
        base + 2 * MICRO, rel=1e-12)


# a slot short enough that each whole-slot charge is within one slot of
# the real exchange
FINE_SLOT = 1e-12


def test_derive_timings_default_scenario():
    t = derive_timings(make_params(slot_time=FINE_SLOT))
    t_rts = 160 / 27.5e6
    t_cts = 208 / 27.5e6
    t_ack = 112 / 27.5e6
    t_data = 63960 / 2e9
    expected_suc = t_rts + 2 * 2.5 * MICRO + t_cts + 13.5 * MICRO + t_data + t_ack
    assert t.t_suc == pytest.approx(expected_suc, abs=FINE_SLOT)
    assert t.t_col == pytest.approx(t_rts + 25 * MICRO, abs=FINE_SLOT)
    assert t.t_data == pytest.approx(t_data, rel=1e-12)
    # 67.93 us and 30.82 us / 5 us round up to 14 and 7 whole slots
    t = derive_timings(make_params())
    assert t.n_frame_slots == 14
    assert t.n_col_slots == 7


def test_derive_timings_loose_mode_adds_one_sifs():
    strict = derive_timings(make_params(slot_time=FINE_SLOT))
    loose = derive_timings(make_params(slot_time=FINE_SLOT, strict_timing=False))
    assert loose.t_suc - strict.t_suc == pytest.approx(2.5 * MICRO,
                                                       abs=FINE_SLOT)


def test_timing_identity_between_success_and_collision():
    params = make_params(slot_time=FINE_SLOT)
    t = derive_timings(params)
    t_cts, t_ack = (_frame_airtime(size, params.control_rate, params.phy_overhead)
                    for size in (params.cts_bytes, params.ack_bytes))
    expected_gap = (params.sifs - params.rifs + t_cts + t.t_data + t_ack)
    assert t.t_suc - t.t_col == pytest.approx(expected_gap, abs=FINE_SLOT)


def test_derive_timings_charges_whole_slots():
    params = make_params()
    t = derive_timings(params)
    # 67.93 us and 30.82 us cost 14 and 7 slots of 5 us
    assert t.t_suc == t.n_frame_slots * params.slot_time
    assert t.t_col == t.n_col_slots * params.slot_time
    assert t.t_suc == pytest.approx(70 * MICRO, rel=1e-15)
    assert t.t_col == pytest.approx(35 * MICRO, rel=1e-15)


def test_derive_timings_rejects_collision_longer_than_success():
    with pytest.raises(ConfigError):
        derive_timings(make_params(rifs=1.0))


def test_sector_model_default_scenario():
    params = make_params()
    t = derive_timings(params)
    sector, = derive_sector_models(params, t)
    assert sector.n_k == 10
    assert sector.p_h == pytest.approx(1 / 8000, rel=1e-15)
    assert sector.p_h_prime == pytest.approx(14 / 8000, rel=1e-15)
    assert sector.p_f == pytest.approx(0.6, rel=1e-15)
    assert sector.cbap_k_slots == 8000


def test_sector_model_deferral_ratio_is_exact():
    params = make_params()
    t = derive_timings(params)
    sector, = derive_sector_models(params, t)
    assert sector.p_h_prime == t.n_frame_slots * sector.p_h


def test_sector_model_twenty_slot_frame():
    params = make_params()
    t20 = TimingDurations(t_data=0, t_suc=100 * MICRO, t_col=50 * MICRO,
                          n_frame_slots=20, n_col_slots=10)
    sector, = derive_sector_models(params, t20)
    assert sector.p_h == pytest.approx(1.25e-4, rel=1e-15)
    assert sector.p_h_prime == pytest.approx(2.5e-3, rel=1e-15)


def test_sector_model_halving_window_doubles_p_h_exactly():
    t = derive_timings(make_params())
    full, = derive_sector_models(make_params(cbap_slots=8000), t)
    half, = derive_sector_models(make_params(cbap_slots=4000), t)
    assert half.p_h == 2.0 * full.p_h
    assert half.p_h_prime == 2.0 * full.p_h_prime


def test_sector_model_full_beacon_interval_never_suspends():
    params = make_params(cbap_slots=20000)
    sector, = derive_sector_models(params, derive_timings(params))
    assert sector.p_f == 0.0


def test_sector_model_window_must_fit_frame():
    params = make_params(q=2, cbap_slots=24)  # 12 slots per sector < 14
    with pytest.raises(InfeasibleModelError) as err:
        derive_sector_models(params, derive_timings(params))
    assert "sector 0" in str(err.value)


def test_round_robin_populations():
    assert make_params(n=10, q=4).sector_populations == (3, 3, 2, 2)
    assert make_params(n=8, q=4).sector_populations == (2, 2, 2, 2)
    assert make_params(n=5, q=1).sector_populations == (5,)


def test_equal_cbap_split_with_remainder():
    params = make_params(n=9, q=3, cbap_slots=8000)
    assert params.cbap_split == (2667, 2667, 2666)
    assert sum(params.cbap_split) == 8000


def test_proportional_cbap_split():
    params = make_params(n=4, q=2, sector_populations=(3, 1),
                         cbap_slots=8000, cbap_split_rule="proportional")
    assert params.cbap_split == (6000, 2000)


def test_explicit_splits_validated():
    with pytest.raises(ConfigError):
        make_params(n=10, q=2, sector_populations=(4, 4))
    with pytest.raises(ConfigError):
        make_params(n=10, q=2, sector_populations=(4, 4, 2))
    with pytest.raises(ConfigError):
        make_params(q=2, cbap_split=(4000, 5000))


def test_window_sizes_rules():
    assert window_sizes(7, 5) == (7, 14, 28, 56, 112, 224)
    assert window_sizes(7, 5, "doubling-minus-one") == (6, 13, 27, 55, 111, 223)
    assert window_sizes(4, 0) == (4,)
    with pytest.raises(ConfigError):
        window_sizes(4, 2, "tripling")
    # no stages at all would send the solvers past the end of the tuple
    for rule in ("doubling", "doubling-minus-one"):
        with pytest.raises(ConfigError, match=r"^m must be >= 0, got -1$"):
            window_sizes(7, -1, rule)


def test_window_sizes_refuses_a_widest_window_beyond_a_float():
    # 7 * 2**1021 is below 2**1024, the first power of two past the floats
    assert window_sizes(7, 1021)[-1] == 7 * 2 ** 1021
    assert window_sizes(7, 1021, "doubling-minus-one")[-1] == 7 * 2 ** 1021 - 1
    for w0, m in ((7, 1022), (2, 1023), (2 ** 1100, 0)):
        with pytest.raises(ConfigError, match="does not fit a float"):
            window_sizes(w0, m)
    with pytest.raises(ConfigError, match=r"^the widest window w0 \* 2\*\*1022"):
        make_params(m=1022)


@pytest.mark.parametrize("kwargs", [
    dict(nonsense=3),
    dict(w0=1),
    dict(q=0),
    dict(n=0),
    dict(m=-1),
    dict(cbap_slots=0),
    dict(cbap_slots=30000),
    dict(slot_time=0.0),
    dict(window_rule="x"),
])
def test_make_params_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        make_params(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(m=-1), "m must be >= 0, got -1"),
    (dict(window_rule="x"), "unknown window_rule 'x'"),
], ids=["m", "window-rule"])
def test_make_params_schedule_messages_are_pinned(kwargs, message):
    with pytest.raises(ConfigError) as err:
        make_params(**kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["slot_time", "sifs", "difs", "rifs",
                                  "control_rate", "data_rate",
                                  "phy_overhead"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_make_params_rejects_non_finite_floats(name, value):
    # NaN passes every ``<= 0`` check, and an infinite rate makes u = 0
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        make_params(**{name: value})


# each one-sided bound, at the value just below its least value or at 0
# for the strict ones
BOUND_PINS = [
    ("n", 0, "n must be >= 1, got 0"),
    ("q", 0, "q must be >= 1, got 0"),
    ("w0", 1, "w0 must be >= 2, got 1"),
    ("bi_slots", 0, "bi_slots must be >= 1, got 0"),
    ("slot_time", 0.0, "slot_time must be > 0, got 0.0"),
    ("sifs", 0.0, "sifs must be > 0, got 0.0"),
    ("difs", 0.0, "difs must be > 0, got 0.0"),
    ("rifs", 0.0, "rifs must be > 0, got 0.0"),
    ("control_rate", 0.0, "control_rate must be > 0, got 0.0"),
    ("data_rate", 0.0, "data_rate must be > 0, got 0.0"),
    ("phy_overhead", -5e-324, "phy_overhead must be >= 0, got -5e-324"),
    ("rts_bytes", 0, "rts_bytes must be >= 1, got 0"),
    ("cts_bytes", 0, "cts_bytes must be >= 1, got 0"),
    ("ack_bytes", 0, "ack_bytes must be >= 1, got 0"),
    ("msdu_bytes", 0, "msdu_bytes must be >= 1, got 0"),
]


@pytest.mark.parametrize("name, value, message", BOUND_PINS,
                         ids=[pin[0] for pin in BOUND_PINS])
def test_make_params_bound_messages_are_pinned(name, value, message):
    with pytest.raises(ConfigError) as err:
        make_params(**{name: value})
    assert str(err.value) == message


def test_bound_pins_cover_every_one_sided_bound():
    assert [pin[0] for pin in BOUND_PINS] == list(config._LEAST)


@pytest.mark.parametrize("name", ["n", "bi_slots", "cbap_slots",
                                  "rts_bytes", "msdu_bytes"])
def test_make_params_refuses_an_integer_past_a_float(name):
    # 2**1024 - 2**970 is the least integer that rounds past the largest float
    assert make_params(msdu_bytes=2 ** 1024 - 2 ** 970 - 1).msdu_bytes > 0
    with pytest.raises(ConfigError) as err:
        make_params(**{name: 2 ** 1024 - 2 ** 970})
    assert str(err.value) == f"{name} must be finite, got an integer of 1024 bits"


@pytest.mark.parametrize("name, value", [
    ("control_rate", 1e-305), ("data_rate", 1e-320), ("slot_time", 1e-320),
])
def test_derive_timings_refuses_an_exchange_of_more_slots_than_a_float(
        name, value):
    params = make_params(**{name: value})
    with pytest.raises(ConfigError, match="is not a finite number of .* s slots$"):
        derive_timings(params)


def test_sector_count_above_stations_is_refused_before_any_list(monkeypatch):
    def never(*args):
        raise AssertionError("_round_robin called")

    monkeypatch.setattr(config, "_round_robin", never)
    with pytest.raises(ConfigError,
                       match="^every sector must hold at least one station$"):
        make_params(n=10, q=10 ** 18)


def test_sector_count_above_contention_slots_is_refused_before_the_split(
        monkeypatch):
    def never(name):
        def called(*args):
            raise AssertionError(f"{name} called")
        return called

    # a sector count a derived split cannot give one slot each is refused
    # before the stations are dealt out, even when every sector has one
    monkeypatch.setattr(config, "_split_cbap", never("_split_cbap"))
    monkeypatch.setattr(config, "_round_robin", never("_round_robin"))
    for rule in config.SPLIT_RULES:
        for sizes in (dict(n=10, q=5, cbap_slots=4), dict(n=10 ** 8, q=10 ** 8)):
            with pytest.raises(ConfigError, match="^every sector service "
                                                  "period must be >= 1 slot$"):
                make_params(**sizes, cbap_split_rule=rule)
    # a given population tuple is still checked first
    with pytest.raises(ConfigError, match="^sector_populations has 2 entries, "
                                          "expected q=5$"):
        make_params(n=10, q=5, cbap_slots=4, sector_populations=(4, 6))


CONSTRUCTION_PATHS = {
    "make_params": lambda p: make_params(**p._asdict()),
    "constructor": lambda p: config.ModelParams(n=p.n, q=p.q),
    "_make": lambda p: config.ModelParams._make(p),
    "_replace": lambda p: p._replace(),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda p: pickle.loads(pickle.dumps(p)),
}


@pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
def test_every_construction_path_validates(monkeypatch, path):
    params = make_params(n=10, q=2)
    build = CONSTRUCTION_PATHS[path]
    rebuilt = build(params)
    assert type(rebuilt) is config.ModelParams
    assert repr(rebuilt) == repr(params)

    def refuse(*args):
        raise ConfigError("checked")

    monkeypatch.setattr(config, "window_sizes", refuse)
    with pytest.raises(ConfigError, match="^checked$"):
        build(params)


def test_replace_checks_and_derives_like_make_params():
    params = make_params(n=10, q=2)
    assert params._replace(w0=15) == make_params(n=10, q=2, w0=15)
    with pytest.raises(ConfigError,
                       match="^sector_populations sums to 10, expected n=20$"):
        params._replace(n=20)
    assert params._replace(n=20, sector_populations=()) == make_params(n=20,
                                                                       q=2)
    assert params._replace(q=4, sector_populations=(), cbap_split=()) == (
        make_params(n=10, q=4))


def test_parse_config_file_roundtrip(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(
        "# scenario\n"
        "n = 12\n"
        "q=3\n"
        "sector_populations = 4,4,4\n"
        "slot_time = 5e-6   # seconds\n"
        "strict_timing = false\n"
        "\n"
    )
    overrides = parse_config_file(path)
    assert overrides == {
        "n": 12, "q": 3, "sector_populations": (4, 4, 4),
        "slot_time": 5e-6, "strict_timing": False,
    }
    params = make_params(**overrides)
    assert params.sector_populations == (4, 4, 4)


def test_parse_config_file_unknown_key_is_fatal(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("n = 5\nwindow = 7\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(path)
    assert "window" in str(err.value)


def test_parse_config_file_bad_syntax(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)
    path.write_text("n = twelve\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)
