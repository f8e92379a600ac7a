"""The benchmark's checks pass on right values and fail on wrong ones.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py
"""

import math
from types import SimpleNamespace

import pytest

import checks

W0 = 7


def test_renewal_u_by_hand():
    # 7995 B at 2 Gb/s is 31.98 us; the exchange rounds up to 14 slots.
    assert checks.renewal_u(W0) == pytest.approx(31.98e-6 / (3 * 5e-6 + 70e-6),
                                                 rel=1e-12)


def test_lone_station_rejects_a_perturbed_u():
    u = checks.renewal_u(W0)
    checks.check_lone_station(u, W0, checks.ANALYTIC_LONE_TOL, "exact")
    checks.check_lone_station(u * 1.009, W0, checks.SIM_LONE_TOL, "sim")
    with pytest.raises(checks.CheckFailed):
        checks.check_lone_station(u * (1 + 1e-8), W0,
                                  checks.ANALYTIC_LONE_TOL, "analytic")
    with pytest.raises(checks.CheckFailed):
        checks.check_lone_station(u * 1.011, W0, checks.SIM_LONE_TOL, "sim")
    with pytest.raises(checks.CheckFailed):
        checks.check_lone_station(u, 15, checks.ANALYTIC_LONE_TOL, "wrong w0")


@pytest.mark.parametrize("u, drop", [(0.0, 0.1), (1.0, 0.1), (-0.2, 0.0),
                                     (0.3, -1e-12), (0.3, 1.5),
                                     (math.nan, 0.0)])
def test_ranges_reject_out_of_range_values(u, drop):
    checks.check_ranges(0.3, 0.0, "ok")
    checks.check_ranges(0.3, None, "no drops finished")
    with pytest.raises(checks.CheckFailed):
        checks.check_ranges(u, drop, "bad")


def test_share_invariance_rejects_one_differing_share():
    same = {"0.1": "0.33505991793871015", "0.4": "0.33505991793871015"}
    checks.check_share_invariance(same, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_share_invariance({**same, "0.7": "0.3350599179387102"},
                                      "bad")


def test_delay_rise_rejects_a_flat_or_falling_step():
    rising = {1.0: 1e-3, 0.5: 2e-3, 0.1: 9e-3}
    checks.check_delay_rises(rising, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_delay_rises({**rising, 0.5: 1e-3}, "flat")
    with pytest.raises(checks.CheckFailed):
        checks.check_delay_rises({**rising, 0.1: 1.5e-3}, "falls")


def test_sector_gain_rejects_no_gain():
    checks.check_sector_gain(0.31, 0.27, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_sector_gain(0.27, 0.27, "equal")


def test_sim_vs_analytic_rejects_six_percent():
    checks.check_sim_vs_analytic(0.27 * 1.049, 0.27, "ok")
    checks.check_sim_vs_analytic(0.27 * 0.951, 0.27, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_sim_vs_analytic(0.27 * 1.06, 0.27, "high")
    with pytest.raises(checks.CheckFailed):
        checks.check_sim_vs_analytic(0.27 * 0.94, 0.27, "low")


def _oracle_row(**changes):
    row = {"b000_closed": 0.0123456789, "b000_oracle": 0.0123456789,
           "tau_closed": 0.0456789, "tau_oracle": 0.0456789}
    row.update(changes)
    return row


def test_oracle_row_rejects_a_perturbed_tau_or_b000():
    checks.check_oracle_row(_oracle_row(tau_oracle=0.0456789 * (1 + 5e-7)),
                            "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle_row(_oracle_row(tau_oracle=0.0456789 * (1 + 2e-6)),
                                "tau")
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle_row(_oracle_row(b000_closed=0.0123456789 * 0.99),
                                "b000")


def _stats(idle):
    return SimpleNamespace(sector_cbap_slots=(4000, 4000), num_bi=10,
                           successes=(100, 90), collisions=(20, 30),
                           idle_slots=idle)


def test_slot_conservation_rejects_one_missing_slot():
    nf, nc = 14, 7
    full = tuple(40_000 - nf * s - nc * c for s, c in ((100, 20), (90, 30)))
    checks.check_slot_conservation(_stats(full), nf, nc, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_slot_conservation(_stats((full[0], full[1] - 1)), nf, nc,
                                       "one slot short")
