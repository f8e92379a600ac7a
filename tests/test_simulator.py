"""Simulator: reference-loop equivalence, exact oracles, and invariants."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from admac import (ConfigError, InfeasibleModelError, SimStats, analyze,
                   derive_timings, empirical_report, make_params,
                   run_simulation, simulator, window_sizes)
from conftest import bank_params, mean_sim_u, tau_hat


def station_stream(seed, station_id):
    """The documented stream of one station: its own keyed MT19937."""
    return random.Random((seed << 20) + station_id)


class RefStation:
    """Backoff state of one station of the reference loop."""

    def __init__(self, seed, station_id, sector, w0):
        self.station_id = station_id
        self.sector = sector
        self.stage = 0
        self.enqueued_slot = 0
        self.rng = station_stream(seed, station_id)
        self.counter = self.draw(w0)

    def draw(self, width):
        """Uniform integer in [0, width - 1]."""
        return int(self.rng.random() * width)


def ref_stations(params, seed):
    """Stations in id order, sector by sector, each at a stage-0 draw."""
    w0 = window_sizes(params.w0, params.m, params.window_rule)[0]
    sectors = [k for k, n_k in enumerate(params.sector_populations)
               for _ in range(n_k)]
    return [RefStation(seed, sid, sector, w0)
            for sid, sector in enumerate(sectors)]


def reference_sim(params, timings, seed, num_bi):
    """Naive one-slot-at-a-time loop with per-slot invariant checks.

    Independent rewrite of the event semantics used to pin the production
    bucket-ring loop: one ``random.Random`` per station built here, no
    jumps, and it asserts on every slot that counters stay in range and that
    the decrements spent between two transmissions add up to the drawn
    counter no matter how many window suspensions intervene.
    """
    stations = ref_stations(params, seed)
    widths = window_sizes(params.w0, params.m, params.window_rule)
    nf = timings.n_frame_slots
    nc = math.ceil(timings.t_col / params.slot_time)
    starts = []
    s0 = 0
    for length in params.cbap_split:
        starts.append(s0)
        s0 += length
    q = params.q
    suc = [0] * q
    col = [0] * q
    idle = [0] * q
    drop = [0] * q
    att = [0] * q
    delays = [[] for _ in range(q)]
    drawn = {st.station_id: st.counter for st in stations}
    decs = {st.station_id: 0 for st in stations}
    for bi in range(num_bi):
        for k in range(q):
            length = params.cbap_split[k]
            base = bi * params.bi_slots + starts[k]
            members = [st for st in stations if st.sector == k]
            t = 0
            while t < length:
                remaining = length - t
                zeros = [st for st in members if st.counter == 0]
                for st in members:
                    assert 0 <= st.counter < widths[st.stage]
                    assert 0 <= st.stage <= params.m
                if zeros and remaining >= nf:
                    if len(zeros) == 1:
                        st = zeros[0]
                        assert decs[st.station_id] == drawn[st.station_id]
                        t += nf
                        end = base + t
                        suc[k] += 1
                        att[k] += 1
                        delays[k].append(end - st.enqueued_slot)
                        st.enqueued_slot = end
                        st.stage = 0
                        st.counter = st.draw(widths[0])
                        drawn[st.station_id] = st.counter
                        decs[st.station_id] = 0
                    else:
                        t += nc
                        end = base + t
                        col[k] += 1
                        att[k] += len(zeros)
                        for st in zeros:
                            assert decs[st.station_id] == drawn[st.station_id]
                            if st.stage == params.m:
                                drop[k] += 1
                                st.stage = 0
                                st.counter = 0
                                st.enqueued_slot = end
                            else:
                                st.stage += 1
                                st.counter = st.draw(widths[st.stage])
                            drawn[st.station_id] = st.counter
                            decs[st.station_id] = 0
                    continue
                for st in members:
                    if st.counter >= 2:
                        st.counter -= 1
                        decs[st.station_id] += 1
                    elif st.counter == 1 and (remaining - 1) >= nf:
                        st.counter = 0
                        decs[st.station_id] += 1
                idle[k] += 1
                t += 1
    return (tuple(suc), tuple(col), tuple(idle), tuple(drop), tuple(att),
            tuple(tuple(d) for d in delays))


@pytest.mark.parametrize("overrides", [
    dict(n=3, q=1, w0=4, m=2, bi_slots=600, cbap_slots=400),
    dict(n=3, q=2, w0=7, m=1, bi_slots=500, cbap_slots=300),
    dict(n=1, q=1, w0=7, m=5, bi_slots=300, cbap_slots=300),
    dict(n=5, q=1, w0=4, m=0, bi_slots=400, cbap_slots=200),
    # two stations in each of eight sectors
    dict(n=16, q=8, w0=4, m=2, bi_slots=1200, cbap_slots=800),
    # the window is the whole beacon interval
    dict(n=4, q=1, w0=7, m=2, bi_slots=400, cbap_slots=400),
    # windows of N_F + 4 slots: the tail re-key runs in most windows
    dict(n=8, q=4, w0=4, m=2, bi_slots=200, cbap_slots=72),
    # eight stations on stage windows of 2 and 4 slots: drops are common
    dict(n=8, q=1, w0=2, m=1, bi_slots=500, cbap_slots=400),
])
def test_jump_loop_matches_one_slot_reference(overrides):
    params = make_params(**overrides)
    timings = derive_timings(params)
    assert_matches_reference(params, timings, seed=3, num_bi=10)


@pytest.mark.parametrize("overrides", [
    # 150-slot windows on a ring of 256 buckets, widest window 8192:
    # draws past the ring wait in the overflow list for later windows
    dict(n=12, q=4, w0=16, m=9, bi_slots=700, cbap_slots=600),
    # widest window 2**41: the ring stays sized by the 30-slot window
    dict(n=3, q=1, w0=2, m=40, bi_slots=40, cbap_slots=30),
    # a stage-0 window wider than the ring: most draws overflow
    dict(n=6, q=1, w0=200, m=2, bi_slots=100, cbap_slots=72),
])
def test_overflow_past_the_ring_matches_reference(overrides):
    params = make_params(**overrides)
    assert window_sizes(params.w0, params.m)[-1] > params.cbap_split[0] + 2
    assert_matches_reference(params, derive_timings(params), seed=3,
                             num_bi=40)


def test_large_m_run_allocates_no_memory_per_window_width():
    # W_m = 2**41 slots; the ring is sized by the 400-slot window instead
    params = make_params(n=3, w0=2, m=40, bi_slots=500, cbap_slots=400)
    timings = derive_timings(params)
    run_simulation(params, timings, seed=0, num_bi=1)  # warm imports
    tracemalloc.start()
    try:
        run_simulation(params, timings, seed=0, num_bi=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def assert_matches_reference(params, timings, seed, num_bi):
    ref = reference_sim(params, timings, seed=seed, num_bi=num_bi)
    stats = run_simulation(params, timings, seed=seed, num_bi=num_bi)
    assert stats.successes == ref[0]
    assert stats.collisions == ref[1]
    assert stats.idle_slots == ref[2]
    assert stats.dropped == ref[3]
    assert stats.attempts == ref[4]
    assert stats.delays == ref[5]


@strategies.composite
def small_params(draw):
    """Valid parameter sets small enough for the one-slot reference loop."""
    ints = strategies.integers
    q = draw(ints(1, 3))
    cbap = q * draw(ints(15, 60))  # N_F = 14 slots at the default timing
    return make_params(
        n=draw(ints(q, 6)), q=q, w0=draw(ints(2, 8)), m=draw(ints(0, 3)),
        window_rule=draw(strategies.sampled_from(
            ("doubling", "doubling-minus-one"))),
        cbap_slots=cbap, bi_slots=cbap + draw(ints(0, 100)),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(params=small_params(), seed=strategies.integers(0, 1000))
def test_ring_loop_matches_reference_on_random_params(params, seed):
    assert_matches_reference(params, derive_timings(params), seed=seed,
                             num_bi=6)


def joint_chain_prediction(w0, m):
    """Exact two-station embedded chain, full-BI service, no boundaries.

    Enumerates the joint (stage, counter) state of both stations and solves
    the stationary distribution directly; renewal-reward over the embedded
    step durations then yields utilization, attempt rate, and the true
    conditional collision probability.
    """
    widths = window_sizes(w0, m)
    states = [(s1, j1, s2, j2)
              for s1 in range(m + 1) for j1 in range(widths[s1])
              for s2 in range(m + 1) for j2 in range(widths[s2])]
    idx = {st: k for k, st in enumerate(states)}
    n = len(states)

    def after_collision(s):
        if s < m:
            return [((s + 1, j), 1.0 / widths[s + 1])
                    for j in range(widths[s + 1])]
        return [((0, 0), 1.0)]

    matrix = np.zeros((n, n))
    for st in states:
        s1, j1, s2, j2 = st
        row = idx[st]
        if j1 == 0 and j2 == 0:
            for (ns1, nj1), pr1 in after_collision(s1):
                for (ns2, nj2), pr2 in after_collision(s2):
                    matrix[row, idx[(ns1, nj1, ns2, nj2)]] += pr1 * pr2
        elif j1 == 0:
            for nj1 in range(widths[0]):
                matrix[row, idx[(0, nj1, s2, j2)]] += 1.0 / widths[0]
        elif j2 == 0:
            for nj2 in range(widths[0]):
                matrix[row, idx[(s1, j1, 0, nj2)]] += 1.0 / widths[0]
        else:
            matrix[row, idx[(s1, j1 - 1, s2, j2 - 1)]] += 1.0
    system = matrix.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)

    pi_col = sum(pi[idx[st]] for st in states if st[1] == 0 and st[3] == 0)
    pi_suc = sum(pi[idx[st]] for st in states if (st[1] == 0) != (st[3] == 0))
    pi_idle = 1.0 - pi_col - pi_suc
    return pi_idle, pi_suc, pi_col


def test_two_station_run_matches_exact_joint_chain():
    params = make_params(n=2, w0=4, m=1, bi_slots=20000, cbap_slots=20000)
    timings = derive_timings(params)
    nf = timings.n_frame_slots
    nc = math.ceil(timings.t_col / params.slot_time)
    sigma = params.slot_time
    pi_idle, pi_suc, pi_col = joint_chain_prediction(4, 1)
    u_pred = pi_suc * timings.t_data / (
        sigma * (pi_idle + pi_suc * nf + pi_col * nc))
    tau_pred = (pi_suc + 2.0 * pi_col) / 2.0
    p_pred = 2.0 * pi_col / (pi_suc + 2.0 * pi_col)
    # pin the oracle itself so a regression there cannot hide
    assert u_pred == pytest.approx(0.373955, rel=1e-4)
    assert tau_pred == pytest.approx(0.285268, rel=1e-4)
    assert p_pred == pytest.approx(0.330943, rel=1e-4)

    for seed in (0, 1, 2):
        stats = run_simulation(params, timings, seed=seed, num_bi=100)
        steps = (stats.idle_slots[0] + stats.successes[0]
                 + stats.collisions[0])
        u = stats.successes[0] * timings.t_data / (20000 * sigma * 100)
        tau = stats.attempts[0] / (2 * steps)
        p = 2.0 * stats.collisions[0] / stats.attempts[0]
        assert u == pytest.approx(u_pred, rel=0.01)
        assert tau == pytest.approx(tau_pred, rel=0.01)
        assert p == pytest.approx(p_pred, rel=0.01)


def test_lone_station_renewal_cycle():
    # one saturated station: mean cycle = mean stage-0 draw + frame slots,
    # so U = payload / ((N_F + (W0-1)/2) * sigma); never any collision
    params = make_params(n=1, w0=7, m=5, bi_slots=2000, cbap_slots=2000)
    timings = derive_timings(params)
    stats = run_simulation(params, timings, seed=0, num_bi=1000)
    assert stats.collisions == (0,)
    assert stats.dropped == (0,)
    cycle = (timings.n_frame_slots + 3.0) * params.slot_time
    expected = timings.t_data / cycle
    u = empirical_report(stats, params).aggregate_u
    assert u == pytest.approx(expected, rel=0.02)


def test_identical_seed_bit_identical_stats():
    params = make_params(n=4, q=2, w0=7, m=2, bi_slots=800, cbap_slots=600)
    timings = derive_timings(params)
    one = run_simulation(params, timings, seed=7, num_bi=15)
    two = run_simulation(params, timings, seed=7, num_bi=15)
    assert one == two
    assert all(type(d) is int for sector in one.delays for d in sector)
    other = run_simulation(params, timings, seed=8, num_bi=15)
    assert other.successes != one.successes or other.attempts != one.attempts


@pytest.mark.parametrize("overrides", [
    dict(n=5, q=1, w0=4, m=2, bi_slots=1000, cbap_slots=700),
    dict(n=6, q=2, w0=7, m=3, bi_slots=1000, cbap_slots=700),
])
def test_slot_conservation_is_integer_exact(overrides):
    params = make_params(**overrides)
    timings = derive_timings(params)
    nf = timings.n_frame_slots
    nc = math.ceil(timings.t_col / params.slot_time)
    for seed in (0, 1, 2):
        stats = run_simulation(params, timings, seed=seed, num_bi=20)
        for k, cbap_k in enumerate(params.cbap_split):
            spent = (stats.idle_slots[k] + nf * stats.successes[k]
                     + nc * stats.collisions[k])
            assert spent == cbap_k * 20


def test_attempt_rate_within_three_standard_errors(sim_bank):
    params = bank_params(w0=7, n=20, cbap_fraction=0.4)
    tau = analyze(params).diagnostics[0].tau
    hats = np.array([tau_hat(stats, 20)
                     for stats in sim_bank.runs(w0=7, n=20,
                                                cbap_fraction=0.4)])
    se = hats.std(ddof=1) / math.sqrt(hats.size)
    gap = abs(hats.mean() - tau)
    assert gap <= 3.0 * se, (
        f"empirical attempt rate {hats.mean():.5f} vs analytic tau "
        f"{tau:.5f} differs by {gap / se:.1f} standard errors: the "
        "idle-slot coupling still treats the other stations as independent; "
        "see README 'Model fidelity'"
    )


def test_large_population_utilization_example(sim_bank):
    params = bank_params(w0=7, n=50, cbap_fraction=0.4)
    analytic = analyze(params).aggregate_u
    simulated = mean_sim_u(sim_bank.runs(w0=7, n=50, cbap_fraction=0.4),
                           params)
    rel = abs(simulated - analytic) / analytic
    assert rel <= 0.05, (
        f"simulated U={simulated:.4f} vs analytic U={analytic:.4f} "
        f"(rel err {rel:.1%}); see README 'Model fidelity'"
    )


@pytest.mark.parametrize("w0, m", [(4, 1), (7, 2)])
def test_coupling_tracks_exact_two_station_chain(w0, m):
    # the analytic layer against the exact joint chain, no simulation noise
    params = make_params(n=2, w0=w0, m=m, bi_slots=20000, cbap_slots=20000)
    timings = derive_timings(params)
    nf = timings.n_frame_slots
    nc = math.ceil(timings.t_col / params.slot_time)
    pi_idle, pi_suc, pi_col = joint_chain_prediction(w0, m)
    u_exact = pi_suc * timings.t_data / (
        params.slot_time * (pi_idle + pi_suc * nf + pi_col * nc))
    tau_exact = (pi_suc + 2.0 * pi_col) / 2.0
    report = analyze(params)
    assert report.aggregate_u == pytest.approx(u_exact, rel=0.015)
    assert report.diagnostics[0].tau == pytest.approx(tau_exact, rel=0.015)


def test_four_sectors_beat_one_empirically(sim_bank):
    params_1 = bank_params(w0=7, n=40, cbap_fraction=0.4, q=1)
    params_4 = bank_params(w0=7, n=40, cbap_fraction=0.4, q=4)
    sim_bank.prefetch([(7, 40, 0.4, 1), (7, 40, 0.4, 4)])
    u_1 = mean_sim_u(sim_bank.runs(w0=7, n=40, cbap_fraction=0.4, q=1),
                     params_1)
    u_4 = mean_sim_u(sim_bank.runs(w0=7, n=40, cbap_fraction=0.4, q=4),
                     params_4)
    assert u_4 > u_1


def test_report_marks_empty_run_undefined():
    stats = SimStats(
        num_bi=1, sector_cbap_slots=(8000,), successes=(0,),
        collisions=(0,), idle_slots=(8000,), dropped=(0,), attempts=(0,),
        delays=((),),
    )
    report = empirical_report(stats, make_params())
    assert report.per_sector_u == (0.0,)
    assert report.per_sector_delay == (None,)
    assert report.per_sector_drop_prob == (None,)


def test_report_single_sector_aggregate_is_sector_u():
    # seeds whose sector u is not recovered by the weighted mean u * c / c
    params = make_params(n=10, w0=7, bi_slots=20000, cbap_slots=14000)
    for seed in (8, 11, 14):
        stats = run_simulation(params, derive_timings(params), seed, num_bi=2)
        report = empirical_report(stats, params)
        u = report.per_sector_u[0]
        assert u * 14000 / 14000 != u
        assert report.aggregate_u == u


def test_report_utilization_is_payload_over_window_time():
    # 1000 data frames of 10 us each inside a 40 ms service window
    stats = SimStats(
        num_bi=1, sector_cbap_slots=(8000,), successes=(1000,),
        collisions=(0,), idle_slots=(0,), dropped=(0,), attempts=(1000,),
        delays=((200,),),
    )
    params = make_params(msdu_bytes=1250, data_rate=1e9)
    assert derive_timings(params).t_data == 1e-5
    report = empirical_report(stats, params)
    assert report.aggregate_u == pytest.approx(0.25, rel=1e-12)


def test_window_too_short_for_one_exchange():
    params = make_params(n=2, bi_slots=100, cbap_slots=10)
    timings = derive_timings(params)
    with pytest.raises(InfeasibleModelError):
        run_simulation(params, timings, seed=0, num_bi=1)


def test_zero_beacon_intervals_rejected():
    params = make_params(n=2, bi_slots=1000, cbap_slots=500)
    timings = derive_timings(params)
    with pytest.raises(ConfigError):
        run_simulation(params, timings, seed=0, num_bi=0)


@pytest.mark.parametrize("seed", [0, 7])
def test_each_station_draws_its_own_random_stream(seed):
    # the first and last station ids of a seed, drawn in turn
    ids = (0, 2**20 - 1)
    streams = simulator._streams(seed, ids)
    draws = 2000
    got = [[draw() for draw in streams] for _ in range(draws)]
    for column, sid in enumerate(ids):
        want = station_stream(seed, sid)
        assert [row[column] for row in got] == [
            want.random() for _ in range(draws)]


def test_population_beyond_stream_key_space_rejected(monkeypatch):
    # (seed << 20) + station id would alias seed s, station 2**20 with
    # seed s + 1, station 0; the check must come before any stream is built
    def no_stream(seed, station_ids):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(simulator, "_streams", no_stream)
    params = make_params(n=2**20 + 1)
    with pytest.raises(ConfigError, match=r"2\*\*20"):
        run_simulation(params, derive_timings(params), seed=0, num_bi=1)


@pytest.mark.parametrize("seed", [-1], ids=["negative"])
def test_negative_seed_rejected(seed):
    # random.Random seeds from abs(key), so a negative seed would alias a
    # positive one
    params = make_params(n=2)
    with pytest.raises(ConfigError, match=r"seed must be >= 0"):
        run_simulation(params, derive_timings(params), seed=seed, num_bi=1)


def test_seed_of_any_size_runs():
    params = make_params(n=2, bi_slots=300, cbap_slots=300)
    stats = run_simulation(params, derive_timings(params), seed=2**108,
                           num_bi=1)
    assert stats.successes[0] > 0
