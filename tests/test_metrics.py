"""Utilization and delay metrics: formula examples and model invariants."""

import pytest
from hypothesis import assume, given, settings, strategies

from itertools import product

from admac import metrics
from admac import (AdmacError, ConfigError, CoupledSolution,
                   InfeasibleModelError, SectorModel, SlotProbabilities,
                   analyze, derive_sector_models, derive_timings,
                   expected_delay, make_params, sector_utilization,
                   service_weighted_mean, sigma_avg, slot_quantized,
                   window_sizes)
from conftest import bank_params, mean_sim_u


def make_sp(p_idle, p_suc, p_col, po_idle=1.0, po_suc=0.0, po_col=0.0):
    return SlotProbabilities(p_idle=p_idle, p_suc=p_suc, p_col=p_col,
                             po_idle=po_idle, po_suc=po_suc, po_col=po_col)


def make_sector(p_h, p_f=0.0, cbap_k_slots=8000, n_k=10):
    return SectorModel(n_k=n_k, p_h=p_h, p_h_prime=p_h, p_f=p_f,
                       cbap_k_slots=cbap_k_slots)


def make_solution(p_b, steps, backoff_ticks=3.0, collisions=0.5):
    return CoupledSolution(tau=0.1, p=0.3, p_b=p_b, alpha=0.05,
                           p_after_idle=0.5, p_after_collision=0.2,
                           drop_prob=0.1, backoff_ticks=backoff_ticks,
                           collisions_before_success=collisions,
                           steps=steps, iterations=1, residual=0.0)


# --- sector_utilization ---

def test_utilization_zero_without_successes():
    timings = derive_timings(make_params())
    sp = make_sp(p_idle=0.6, p_suc=0.0, p_col=0.4)
    assert sector_utilization(sp, timings, 5e-6) == 0.0


def test_utilization_back_to_back_successes():
    timings = derive_timings(make_params())
    sp = make_sp(p_idle=0.0, p_suc=1.0, p_col=0.0)
    got = sector_utilization(sp, timings, 5e-6)
    assert got == pytest.approx(timings.t_data / timings.t_suc, rel=1e-15)


def test_utilization_matches_simulator_within_five_percent(sim_bank):
    params = bank_params(w0=7, n=10, cbap_fraction=0.4)
    analytic = analyze(params).aggregate_u
    simulated = mean_sim_u(sim_bank.runs(w0=7, n=10, cbap_fraction=0.4),
                           params)
    rel = abs(analytic - simulated) / simulated
    assert rel <= 0.05, (
        f"analytic U={analytic:.4f} vs simulated U={simulated:.4f} "
        f"(rel err {rel:.1%}); see README 'Model fidelity'"
    )


# --- service_weighted_mean ---

def test_aggregate_weighted_mean():
    assert service_weighted_mean([0.5, 0.7], [1000, 3000]) == \
        pytest.approx(0.65, rel=1e-15)


def test_aggregate_of_constant_is_constant():
    assert service_weighted_mean([0.42, 0.42, 0.42], [700, 1, 9000]) == \
        pytest.approx(0.42, rel=1e-15)


def test_aggregate_single_sector_identity():
    assert service_weighted_mean([0.3127], [8000]) == \
        pytest.approx(0.3127, rel=1e-15)


def test_aggregate_single_sector_is_exact():
    # the weighted mean u * c / c reads one ulp above u for this pair
    u = 0.33505991793871015
    assert u * 14000 / 14000 != u
    assert service_weighted_mean([u], [14000]) == u


def test_aggregate_needs_positive_weight():
    with pytest.raises(InfeasibleModelError):
        service_weighted_mean([0.5], [0])


def test_single_sector_network_values_are_the_sectors_own():
    # d * c / c once put mean_delay_s one ulp off per_sector_delay[0] at
    # 59 of these points, and drop_prob off its sector's at 48
    for w0, n, share in product((7, 15, 31), range(1, 65),
                                (0.1, 0.4, 0.7, 1.0)):
        report = analyze(make_params(n=n, w0=w0,
                                     cbap_slots=round(share * 20000)))
        assert report.aggregate_u == report.per_sector_u[0]
        assert report.mean_delay == report.per_sector_delay[0]
        assert report.drop_prob == report.per_sector_drop_prob[0]


# --- sigma_avg ---

def test_sigma_avg_idle_only_is_slot_time():
    params = make_params()
    timings = derive_timings(params)
    sp = make_sp(0.9, 0.05, 0.05, po_idle=1.0, po_suc=0.0, po_col=0.0)
    got = sigma_avg(sp, timings, make_sector(p_h=0.0), params)
    assert got == pytest.approx(params.slot_time, rel=1e-15)


def test_sigma_avg_degenerate_boundary_pays_whole_gap():
    params = make_params()
    timings = derive_timings(params)
    sp = make_sp(0.9, 0.05, 0.05, po_idle=0.2, po_suc=0.5, po_col=0.3)
    sector = make_sector(p_h=1.0, cbap_k_slots=8000)
    got = sigma_avg(sp, timings, sector, params)
    expected = (params.bi_slots - 8000) * params.slot_time
    assert got == pytest.approx(expected, rel=1e-15)


def test_sigma_avg_charges_boundary_once_per_step_slot():
    params = make_params()
    timings = slot_quantized(derive_timings(params), params.slot_time)
    gap = (params.bi_slots - 8000) * params.slot_time
    # idle steps last one slot: the hazard is p_h itself
    idle = make_sp(0.9, 0.05, 0.05)
    got = sigma_avg(idle, timings, make_sector(p_h=0.01), params)
    assert got == pytest.approx(0.99 * params.slot_time + 0.01 * gap,
                                rel=1e-13)
    # success steps last 14 slots: 14 chances to hit the boundary
    busy = make_sp(0.0, 1.0, 0.0, po_idle=0.0, po_suc=1.0, po_col=0.0)
    hazard = 1.0 - 0.99 ** 14
    got = sigma_avg(busy, timings, make_sector(p_h=0.01), params)
    assert got == pytest.approx((1.0 - hazard) * timings.t_suc
                                + hazard * gap, rel=1e-13)


def test_sigma_avg_grows_when_service_share_shrinks():
    params_04 = make_params(n=50, cbap_slots=8000)
    params_10 = make_params(n=50, cbap_slots=20000)
    timings = derive_timings(params_04)
    sector_04 = derive_sector_models(params_04, timings)[0]
    sector_10 = derive_sector_models(params_10, timings)[0]
    # the split of the n=50 coupling at w0=7, m=5, rounded
    sp = make_sp(0.476, 0.249, 0.275, po_idle=0.485, po_suc=0.249,
                 po_col=0.266)
    assert sigma_avg(sp, timings, sector_04, params_04) > \
        sigma_avg(sp, timings, sector_10, params_10)


# --- expected_delay ---

def test_delay_collisionless_single_stage():
    # the 7.5 ticks of a collision-free w0=16 stage, priced at sigma_avg
    params = make_params(w0=16, m=3)
    timings = derive_timings(params)
    sp = make_sp(1.0, 0.0, 0.0)
    sector = make_sector(p_h=0.0)
    sol = make_solution(p_b=0.0, steps=sp, backoff_ticks=7.5, collisions=0.0)
    got = expected_delay(sol, timings, sector, params)
    sa = sigma_avg(sp, timings, sector, params)
    assert got == pytest.approx(timings.t_suc + 7.5 * sa, rel=1e-13)


def test_delay_requires_positive_decrement_probability():
    params = make_params()
    timings = derive_timings(params)
    sp = make_sp(0.5, 0.3, 0.2)
    with pytest.raises(InfeasibleModelError):
        expected_delay(make_solution(0.95, sp), timings,
                       make_sector(p_h=0.06), params)


def test_coupled_delay_single_stage_hand_formula():
    # the m=0, w0=8 counts at p_after_idle = 0.5 (tests/test_markov.py):
    # 7/8 * 0.5 * 4 ticks over the 1 - 7/16 delivered share, no collision.
    # A tick lasts sigma_avg over 1 - p_b - p_h, a collision t_col.
    params = make_params(w0=8, m=0)
    timings = derive_timings(params)
    sp = make_sp(0.5, 0.3, 0.2, po_idle=0.6, po_suc=0.3, po_col=0.1)
    sector = make_sector(p_h=0.0)
    tick = sigma_avg(sp, timings, sector, params) / 0.6
    ticks = 7.0 / 8.0 * 0.5 * 4.0 / (1.0 - 7.0 / 16.0)
    for collisions in (0.0, 1.5):
        sol = make_solution(p_b=0.4, steps=sp, backoff_ticks=ticks,
                            collisions=collisions)
        expected = ticks * tick + collisions * timings.t_col + timings.t_suc
        got = expected_delay(sol, timings, sector, params)
        assert got == pytest.approx(expected, rel=1e-13)


def test_delay_matches_independent_formula():
    # analyze's own delay against an enumeration of every path of zero and
    # non-zero draws through the stages, no shared loop
    params = make_params(n=30, cbap_slots=8000, m=5)
    timings = slot_quantized(derive_timings(params), params.slot_time)
    sector = derive_sector_models(params, timings)[0]
    report = analyze(params)
    sol = report.diagnostics[0]
    got = report.per_sector_delay[0]
    assert got == expected_delay(sol, timings, sector, params)
    sa = sigma_avg(sol.steps, timings, sector, params)
    tick = sa / (1.0 - sol.p_b - sector.p_h)
    widths = window_sizes(params.w0, params.m)

    def branches(i, w):
        """(chance, backoff time, collision odds) of each draw at stage i."""
        zero_odds = 0.0 if i == 0 else sol.p_after_collision
        return ((1.0 / w, 0.0, zero_odds),
                ((w - 1.0) / w, w / 2.0 * tick, sol.p_after_idle))

    mass = time = 0.0
    for i in range(params.m + 1):  # delivered at stage i
        stages = [branches(z, widths[z]) for z in range(i + 1)]
        for path in product(*stages):
            chance = 1.0
            for z, (draw, _, odds) in enumerate(path):
                chance *= draw * (odds if z < i else 1.0 - odds)
            backoff = sum(spent for _, spent, _ in path)
            mass += chance
            time += chance * (i * timings.t_col + timings.t_suc + backoff)
    assert got == pytest.approx(time / mass, rel=1e-12)


def test_delay_exceeds_success_time():
    for n in (5, 25, 50):
        params = make_params(n=n, cbap_slots=8000)
        report = analyze(params)
        assert report.per_sector_delay[0] > derive_timings(params).t_suc


# --- model invariants ---

@pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
def test_utilization_insensitive_to_service_share(n):
    u_04 = analyze(make_params(n=n, cbap_slots=8000)).aggregate_u
    u_10 = analyze(make_params(n=n, cbap_slots=20000)).aggregate_u
    assert abs(u_04 - u_10) <= 0.02


def test_delay_increases_with_population():
    delays = [analyze(make_params(n=n, cbap_slots=8000)).per_sector_delay[0]
              for n in (10, 20, 30, 40, 50)]
    assert all(a < b for a, b in zip(delays, delays[1:]))


def test_delay_decreases_with_service_share():
    delays = [
        analyze(make_params(n=30, cbap_slots=round(f * 20000)))
        .per_sector_delay[0]
        for f in (0.4, 0.6, 0.8, 1.0)
    ]
    assert all(a > b for a, b in zip(delays, delays[1:]))


def test_sectored_aggregate_matches_single_sector_slice():
    # four equal sectors of 10 behave exactly like one sector of 10
    # holding the same number of service slots
    whole = analyze(make_params(n=40, q=4, cbap_slots=8000))
    slice_ = analyze(make_params(n=10, q=1, cbap_slots=2000))
    assert whole.aggregate_u == pytest.approx(slice_.aggregate_u, rel=1e-12)
    assert whole.per_sector_delay[0] == pytest.approx(
        slice_.per_sector_delay[0], rel=1e-12)
    assert all(u == pytest.approx(whole.per_sector_u[0])
               for u in whole.per_sector_u)


def test_report_shapes_and_bounds():
    report = analyze(make_params(n=12, q=3, cbap_slots=9000))
    assert len(report.per_sector_u) == 3
    assert len(report.per_sector_delay) == 3
    assert len(report.per_sector_drop_prob) == 3
    assert all(0.0 < u < 1.0 for u in report.per_sector_u)
    assert all(0.0 <= d < 1.0 for d in report.per_sector_drop_prob)
    assert 0.0 < report.aggregate_u < 1.0


def test_analyze_solves_coupling_once_per_population(monkeypatch):
    # n=50 over four sectors is 13, 13, 12, 12 stations: two distinct n_k
    solved = []
    real = metrics.solve_idle_slot_coupling

    def counting(n_k, *args, **kwargs):
        solved.append(n_k)
        return real(n_k, *args, **kwargs)

    monkeypatch.setattr(metrics, "solve_idle_slot_coupling", counting)
    report = analyze(make_params(n=50, q=4, cbap_slots=8000))
    assert sorted(solved) == [12, 13]
    assert report.diagnostics[0] is report.diagnostics[1]
    assert report.diagnostics[2] is report.diagnostics[3]


@pytest.mark.parametrize("n, q, w0, share, u, delay, drop", [
    (10, 1, 7, 0.4, 0.33505991793871015, 0.0017965294793220357,
     0.020076766744955867),
    (50, 4, 15, 0.4, 0.33644589363241484, None, None),
    (30, 1, 31, 0.7, 0.32818146771866163, None, None),
], ids=["n10-q1-w7", "n50-q4-w15", "n30-q1-w31"])
def test_analyze_floats_are_pinned(n, q, w0, share, u, delay, drop):
    # exact floats: a change to the coupling's arithmetic shows here
    report = analyze(make_params(n=n, q=q, w0=w0,
                                 cbap_slots=round(share * 20000)))
    assert report.aggregate_u == u
    if delay is not None:
        assert report.per_sector_delay == (delay,)
        assert report.per_sector_drop_prob == (drop,)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=strategies.integers(1, 300), q=strategies.integers(1, 8),
       w0=strategies.integers(2, 128), m=strategies.integers(0, 7),
       cbap_slots=strategies.integers(1, 20000),
       window_rule=strategies.sampled_from(("doubling", "doubling-minus-one")),
       split_rule=strategies.sampled_from(("equal", "proportional")))
def test_analyze_is_a_valid_report_or_a_model_error(n, q, w0, m, cbap_slots,
                                                    window_rule, split_rule):
    try:
        params = make_params(n=n, q=q, w0=w0, m=m, bi_slots=20000,
                             cbap_slots=cbap_slots, window_rule=window_rule,
                             cbap_split_rule=split_rule)
    except ConfigError:
        assume(False)  # no valid parameter set, e.g. fewer stations than sectors
    try:
        report = analyze(params)
    except AdmacError:
        return
    # u reaches exactly 0.0 (with drop 1.0) at e.g. n=191, w0=2, m=1
    assert all(0.0 <= u <= 1.0 for u in report.per_sector_u)
    assert all(0.0 <= d <= 1.0 for d in report.per_sector_drop_prob)
    for sol in report.diagnostics:
        assert sol.residual <= 1e-10
        st = sol.steps
        assert abs(st.p_idle + st.p_suc + st.p_col - 1.0) <= 1e-12
        assert abs(st.po_idle + st.po_suc + st.po_col - 1.0) <= 1e-12
