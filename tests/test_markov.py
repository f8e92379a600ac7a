"""Closed-form normalization, fixed point, and idle-slot coupling."""

import hashlib
import itertools
from decimal import Decimal, localcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies

from admac import (AdmacError, ConfigError, InfeasibleModelError,
                   build_chain, solve_fixed_point, solve_idle_slot_coupling,
                   stationary_distribution, window_sizes)
from admac import markov
from admac.chain import raw_sector
from admac.markov import (_after_collision, _coupled_cycle, _packet_walk,
                          b000_closed_form, collision_probability,
                          eta_terms, tau_of)


def test_eta_terms_degenerate_case():
    assert eta_terms(0.0, 0.0, 0.0, 0.0) == (1.0, 1.0)


def test_eta_terms_busy_only():
    eta, eta_prime = eta_terms(0.5, 0.0, 0.0, 0.0)
    assert eta == pytest.approx(2.0, rel=1e-15)
    assert eta_prime == pytest.approx(2.0, rel=1e-15)


def test_eta_terms_formula_values():
    # independent hand evaluation of the two holding factors
    eta, eta_prime = eta_terms(0.3, 0.6, 1e-4, 2e-3)
    assert eta == pytest.approx((1 + 1e-4 / 0.4) / (1 - 0.3 - 1e-4), rel=1e-12)
    assert eta_prime == pytest.approx((1 + 2e-3 / 0.4) / (1 - 0.3 - 2e-3),
                                      rel=1e-12)
    assert eta == pytest.approx(1.4291327, abs=5e-8)
    assert eta_prime == pytest.approx(1.4398281, abs=5e-8)


@pytest.mark.parametrize("args", [
    (0.7, 0.0, 0.31, 0.31),   # p_b + p_h >= 1
    (0.7, 0.0, 0.1, 0.32),    # p_b + p_h_prime >= 1
    (0.3, 1.0, 0.0, 0.0),     # suspended forever
    (1.0, 0.0, 0.0, 0.0),
    (-0.1, 0.0, 0.0, 0.0),
])
def test_eta_terms_rejects_infeasible(args):
    with pytest.raises(InfeasibleModelError):
        eta_terms(*args)


@pytest.mark.parametrize("w0", [2, 7, 32])
@pytest.mark.parametrize("m", [0, 3])
def test_b000_no_collisions(w0, m):
    # p = 0 leaves only stage 0: 1 / (1 + (w0-1)/w0 * (1 + (w0-2)/2))
    expected = 1.0 / (1.0 + (w0 - 1) / w0 * (1.0 + (w0 - 2) / 2.0))
    assert b000_closed_form(0.0, w0, m, 1.0, 1.0) == pytest.approx(
        expected, rel=1e-12)


def test_b000_smooth_through_one_half():
    # window doubling makes p = 1/2 a removable singularity of the
    # geometric re-arrangement; the explicit sum must be continuous there
    eta, eta_prime = eta_terms(0.5, 0.0, 0.0, 0.0)
    lo = b000_closed_form(0.5 - 1e-9, 7, 5, eta, eta_prime)
    mid = b000_closed_form(0.5, 7, 5, eta, eta_prime)
    hi = b000_closed_form(0.5 + 1e-9, 7, 5, eta, eta_prime)
    assert 0.0 < mid <= 1.0
    assert lo == pytest.approx(mid, rel=1e-6)
    assert hi == pytest.approx(mid, rel=1e-6)


def test_b000_at_one_half_matches_oracle():
    p = 0.5
    eta, eta_prime = eta_terms(p, 0.6, 0.01, 0.05)
    closed = b000_closed_form(p, 4, 3, eta, eta_prime)
    chain = build_chain(p, raw_sector(0.01, 0.05, 0.6), 4, 3)
    oracle = stationary_distribution(chain)[chain.heads[0]]
    assert closed == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_b000_in_unit_interval(p):
    eta, eta_prime = eta_terms(min(p, 0.9), 0.6, 1e-4, 2e-3)
    assert 0.0 < b000_closed_form(p, 7, 5, eta, eta_prime) <= 1.0


def test_tau_of_limits():
    assert tau_of(0.0, 0.25, 5) == pytest.approx(0.25, rel=1e-15)
    assert tau_of(0.7, 0.25, 0) == pytest.approx(0.25, rel=1e-15)
    # explicit-sum value, also the p -> 1 limit (m + 1) * b000
    assert tau_of(1.0, 0.1, 5) == pytest.approx(0.6, rel=1e-12)


def test_tau_of_arithmetic_example():
    assert tau_of(0.5, 0.1, 5) == pytest.approx(0.196875, rel=1e-12)


def test_collision_probability():
    assert collision_probability(0.3, 1) == 0.0
    assert collision_probability(0.5, 3) == pytest.approx(0.75, rel=1e-15)


def test_fixed_point_single_station():
    sector = raw_sector(1e-4, 1.4e-3, 0.6, n_k=1)
    sol = solve_fixed_point(sector, 7, 5)
    assert sol.p == 0.0
    assert sol.residual == 0.0
    eta, eta_prime = eta_terms(0.0, 0.6, 1e-4, 1.4e-3)
    assert sol.tau == pytest.approx(
        b000_closed_form(0.0, 7, 5, eta, eta_prime), rel=1e-12)


def _suspension_free_b000(p, w0, m):
    """Independent normalization for p_h = p_h_prime = p_f = 0."""
    widths = window_sizes(w0, m)
    head = sum(p ** i for i in range(m + 1))
    columns = 0.0
    for i, w in enumerate(widths):
        inflow = (1.0 - p ** (m + 1)) if i == 0 else p ** i
        columns += inflow * (w - 1.0) / 2.0
    return 1.0 / (head + columns / (1.0 - p))


def test_suspension_free_reduction():
    # with no boundaries the holding factors collapse to 1/(1 - p_b)
    for p in (0.1, 0.3, 0.6):
        eta, eta_prime = eta_terms(p, 0.0, 0.0, 0.0)
        assert eta == eta_prime == pytest.approx(1.0 / (1.0 - p), rel=1e-12)
        assert b000_closed_form(p, 7, 5, eta, eta_prime) == pytest.approx(
            _suspension_free_b000(p, 7, 5), rel=1e-12)


def test_fixed_point_matches_damped_iteration_oracle():
    sector = raw_sector(0.0, 0.0, 0.0, n_k=10)
    w0, m = 7, 5

    def f(tau):
        p = collision_probability(tau, sector.n_k)
        eta, eta_prime = eta_terms(p, 0.0, 0.0, 0.0)
        return tau_of(p, b000_closed_form(p, w0, m, eta, eta_prime), m)

    tau = 0.05
    for _ in range(20000):
        nxt = 0.5 * tau + 0.5 * f(tau)
        if abs(nxt - tau) < 1e-13:
            tau = nxt
            break
        tau = nxt
    sol = solve_fixed_point(sector, w0, m)
    assert sol.tau == pytest.approx(tau, abs=1e-9)
    assert sol.residual <= 1e-10
    assert sol.p == pytest.approx(collision_probability(sol.tau, 10), abs=1e-9)


def test_fixed_point_default_sector_converges():
    from admac import derive_sector_models, derive_timings, make_params
    params10 = make_params(n=10)
    t = derive_timings(params10)
    sec10, = derive_sector_models(params10, t)
    sec20, = derive_sector_models(make_params(n=20), t)
    sol10 = solve_fixed_point(sec10, 7, 5)
    sol20 = solve_fixed_point(sec20, 7, 5)
    assert sol10.residual <= 1e-10
    assert sol20.residual <= 1e-10
    assert sol20.p > sol10.p
    assert sol20.tau < sol10.tau
    # the returned point solves the coupled system
    def g(sol, sector):
        p = collision_probability(sol.tau, sector.n_k)
        eta, eta_prime = eta_terms(p, sector.p_f, sector.p_h, sector.p_h_prime)
        return tau_of(p, b000_closed_form(p, 7, 5, eta, eta_prime), 5) - sol.tau
    assert abs(g(sol10, sec10)) <= 1e-10
    assert abs(g(sol20, sec20)) <= 1e-10


@pytest.mark.parametrize("n, cbap_slots, tau, p, iterations", [
    (10, 8000, 0.06267459718423626, 0.44151246492873397, 33),
    (50, 20000, 0.02113184320303863, 0.6488555227911823, 29),
])
def test_fixed_point_floats_are_pinned(n, cbap_slots, tau, p, iterations):
    # a refactor of the bisection leaves these floats and step counts as
    # they are; a different root finder re-pins them
    from admac import derive_sector_models, derive_timings, make_params
    params = make_params(n=n, cbap_slots=cbap_slots)
    sector, = derive_sector_models(params, derive_timings(params))
    sol = solve_fixed_point(sector, 7, 5)
    assert (sol.tau, sol.p, sol.iterations) == (tau, p, iterations)


@pytest.mark.parametrize("n_k", [1, 10])
def test_fixed_point_calls_no_public_markov_function(monkeypatch, n_k):
    # a tracer wraps every public function; calls from the bisection would
    # span each of its steps
    sector = raw_sector(1e-4, 1.4e-3, 0.6, n_k=n_k)
    expected = solve_fixed_point(sector, 7, 5)

    def refuse(*args):
        raise AssertionError("public function called")

    for name in ("eta_terms", "collision_probability", "b000_closed_form",
                 "tau_of"):
        monkeypatch.setattr(markov, name, refuse)
    assert solve_fixed_point(sector, 7, 5) == expected


def test_fixed_point_raises_when_the_budget_runs_out(monkeypatch):
    monkeypatch.setattr(markov, "MAX_ITER", 10)
    sector = raw_sector(1e-4, 1.4e-3, 0.6, n_k=10)
    with pytest.raises(InfeasibleModelError,
                       match=r"^fixed point did not converge below 1e-10 in "
                             r"10 iterations; last bracket \["):
        solve_fixed_point(sector, 7, 5)


def test_fixed_point_rejects_saturated_boundary():
    sector = raw_sector(0.5, 1.0 - 1e-12, 0.0, n_k=4)
    with pytest.raises(InfeasibleModelError):
        solve_fixed_point(sector, 7, 5)


# --- idle-slot coupling ---

def test_coupling_lone_station_renewal():
    # one station: a stage-0 draw of mean (w0 - 1)/2 idle slots, then one
    # success, so tau = 1 / (1 + (w0 - 1)/2) per channel step
    sol = solve_idle_slot_coupling(1, 7, 5)
    assert sol.tau == pytest.approx(0.25, rel=1e-15)
    assert sol.steps.p_idle == pytest.approx(0.75, rel=1e-15)
    assert (sol.p, sol.p_b, sol.drop_prob, sol.iterations) == (0.0, 0.0, 0.0, 0)
    # a one-slot stage-0 window: the station transmits back to back
    sol = solve_idle_slot_coupling(1, 2, 3, window_rule="doubling-minus-one")
    assert (sol.tau, sol.steps.p_idle, sol.steps.p_suc) == (1.0, 0.0, 1.0)


@pytest.mark.parametrize("n_k", [2, 10, 50])
def test_coupling_reproduces_its_idle_slot_rate(n_k):
    sol = solve_idle_slot_coupling(n_k, 7, 5)
    assert sol.residual <= 1e-10
    assert sol.p_after_idle == pytest.approx(
        1.0 - (1.0 - sol.alpha) ** (n_k - 1), rel=1e-12)
    # the drop probability is the product of the stage collision odds,
    # stage 0 mixing fresh draws (a zero there never collides) with
    # restarts at zero after a drop
    widths = window_sizes(7, 5)
    odds = [sol.p_after_idle * (w - 1) / w + sol.p_after_collision / w
            for w in widths[1:]]
    head = (sol.p_after_idle * (widths[0] - 1) / widths[0]
            * (1.0 - sol.drop_prob) + sol.p_after_collision * sol.drop_prob)
    product = head
    for c in odds:
        product *= c
    assert sol.drop_prob == pytest.approx(product, rel=1e-12)


@pytest.mark.parametrize("n_k", [2, 7, 40])
def test_coupling_step_split_is_consistent(n_k):
    sol = solve_idle_slot_coupling(n_k, 15, 4)
    st = sol.steps
    assert st.p_idle + st.p_suc + st.p_col == pytest.approx(1.0, abs=1e-15)
    assert st.po_idle + st.po_suc + st.po_col == pytest.approx(1.0, abs=1e-15)
    assert min(st.p_idle, st.p_suc, st.p_col, st.po_idle, st.po_suc,
               st.po_col) >= 0.0
    # each delivered attempt is one success step
    assert st.p_suc == pytest.approx(n_k * sol.tau * (1.0 - sol.p), rel=1e-12)
    assert sol.p_b == pytest.approx(1.0 - st.po_idle, rel=1e-15)


def test_coupling_two_stations_share_every_collision():
    sol = solve_idle_slot_coupling(2, 7, 5)
    assert sol.steps.po_col == pytest.approx(0.0, abs=1e-15)


def test_coupling_attempt_after_idle_collides_more_than_chain_step_rate():
    # reaching zero only on idle slots concentrates attempts there
    sector = raw_sector(0.0, 0.0, 0.0, n_k=50)
    chain_step = solve_fixed_point(sector, 7, 5)
    coupled = solve_idle_slot_coupling(50, 7, 5)
    assert coupled.p > chain_step.p
    assert coupled.p_after_idle > coupled.p > coupled.p_after_collision


@pytest.mark.parametrize("n_k, w0, iterations", [(10, 7, 33), (50, 31, 32)])
def test_coupling_step_counts_are_pinned(n_k, w0, iterations):
    assert solve_idle_slot_coupling(n_k, w0, 5).iterations == iterations


def test_coupling_residual_changes_sign_once():
    # the bisection's bracket [TAU_EPS, 1 - TAU_EPS] holds one root: the
    # residual starts positive, ends negative and crosses zero once on a
    # log-spaced scan, wherever the coupling has a steady state
    lo, hi = 1e-12, 1.0 - 5e-4
    alphas = [lo * (hi / lo) ** (i / 119) for i in range(120)]
    configurations = 0
    for rule, w0, m, n_k in itertools.product(
            ("doubling", "doubling-minus-one"), (2, 3, 7, 31), (1, 2, 5),
            (2, 3, 10, 50, 200)):
        widths = window_sizes(w0, m, rule)
        if widths[0] == 1:
            continue
        cycles = [_coupled_cycle(alpha, n_k, widths)[2] for alpha in alphas]
        residuals = [cycle.idle_attempts / cycle.decrements - alpha
                     for cycle, alpha in zip(cycles, alphas)]
        signs = [r > 0.0 for r in residuals]
        where = (n_k, w0, m, rule)
        assert residuals[0] > 0.0 > residuals[-1], where
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1, where
        configurations += 1
    assert configurations == 105


def test_coupling_raises_when_the_budget_runs_out(monkeypatch):
    monkeypatch.setattr(markov, "MAX_ITER", 10)
    with pytest.raises(InfeasibleModelError,
                       match=r"^idle-slot coupling did not converge below "
                             r"1e-10 in 10 iterations; last bracket \["):
        solve_idle_slot_coupling(10, 7, 5)
    # the same budget bounds the after-collision odds, which run out first
    monkeypatch.setattr(markov, "MAX_ITER", 3)
    with pytest.raises(InfeasibleModelError,
                       match="after-collision odds did not settle"):
        solve_idle_slot_coupling(10, 7, 5)


@pytest.mark.parametrize("args", [
    dict(n_k=2, w0=7, m=0),
    dict(n_k=3, w0=2, m=3, window_rule="doubling-minus-one"),
])
def test_coupling_rejects_regimes_without_steady_state(args):
    with pytest.raises(InfeasibleModelError):
        solve_idle_slot_coupling(**args)


@pytest.mark.parametrize("n_k, m, message", [
    (0, 5, "n_k must be >= 1, got 0"),
    (-3, 5, "n_k must be >= 1, got -3"),
    (1, -1, "m must be >= 0, got -1"),
    (10, -1, "m must be >= 0, got -1"),
])
def test_coupling_refuses_bad_arguments_before_bisecting(n_k, m, message,
                                                         monkeypatch):
    # an empty sector once ran the whole bisection budget and then reported
    # that it did not converge; m = -1 once ended in an IndexError
    def no_bisection(*args):
        raise AssertionError("bisected")
    monkeypatch.setattr(markov, "_bisect", no_bisection)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        solve_idle_slot_coupling(n_k, 7, m)


@pytest.mark.parametrize("n_k", [0, -2])
def test_fixed_point_refuses_an_empty_sector_before_bisecting(n_k,
                                                               monkeypatch):
    # n_k = 0 once bisected and then reported a negative busy probability
    def no_bisection(*args):
        raise AssertionError("bisected")
    monkeypatch.setattr(markov, "_bisect", no_bisection)
    with pytest.raises(ConfigError, match=f"^n_k must be >= 1, got {n_k}$"):
        solve_fixed_point(raw_sector(1e-4, 1.4e-3, 0.6, n_k=n_k), 7, 5)


PIN_N_K = (1, 2, 3, 10, 50, 1200, 2 ** 20)
PIN_W0 = (2, 3, 7, 31)
PIN_RULES = ("doubling", "doubling-minus-one")


def coupling_outcome(n_k, w0, m, rule):
    """The repr of a coupled solution, or the type and text of its error."""
    try:
        return repr(solve_idle_slot_coupling(n_k, w0, m, window_rule=rule))
    except AdmacError as exc:
        return f"{type(exc).__name__}: {exc}"


COUPLING_PINS = {
    0: "dc5c906f17186cb780bce82151bf6fb52b1b5c5ab7beafadee72a6cf8c64fcf8",
    1: "60711974dd1ba397b9cd6543e7d9ae7623d0de0c72a4f745f5256e926e6b29d2",
    2: "207fbd5efa71332868eb3274c11516346e9351cd2f83ebd4e55f9b0cf0838f0a",
    5: "765f01b02224c67ad9ef02c182f5d94454cd520c1eb7f428aee380e368d1c147",
    7: "6d12038d84506ce51f566ff4c029aa5f5527441b282c76ec52b9ff3afc76faf7",
}


@pytest.mark.parametrize("m", sorted(COUPLING_PINS))
def test_coupled_solutions_are_pinned(m):
    # every float of every solution, and every error text, over the grid;
    # a refactor leaves these bytes as they are, and a model change re-pins
    # them with the reason in CHANGES.md
    lines = [coupling_outcome(n_k, w0, m, rule)
             for rule in PIN_RULES for w0 in PIN_W0 for n_k in PIN_N_K]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == COUPLING_PINS[m]


@pytest.mark.parametrize("n_k", [1, 2, 30])
def test_the_root_is_walked_once(n_k):
    # one packet walk per bisection step, whose cycle and counts the
    # solution reads at the root; n_k = 1 walks once, at zero odds
    walks = []

    def counted(p_idle, widths):
        walks.append(p_idle)
        return _packet_walk(p_idle, widths)

    with mock.patch.object(markov, "_packet_walk", counted):
        sol = solve_idle_slot_coupling(n_k, 7, 5)
    assert len(walks) == max(sol.iterations, 1)
    assert walks[-1] == sol.p_after_idle


# --- delivered-packet counts ---

def delivered_counts(p_idle, p_zero, widths):
    """The walk's (backoff ticks, collisions) of a delivered packet."""
    _, _, delivered = _packet_walk(p_idle, widths)
    return delivered(p_zero)


@pytest.mark.parametrize("m", sorted(COUPLING_PINS))
def test_lone_station_counts_half_its_first_window(m):
    # alone, a packet counts down (W0 - 1)/2 ticks on average and never
    # collides
    for rule in PIN_RULES:
        for w0 in PIN_W0:
            sol = solve_idle_slot_coupling(1, w0, m, window_rule=rule)
            first = window_sizes(w0, m, rule)[0]
            assert sol.backoff_ticks == (first - 1) / 2
            assert sol.collisions_before_success == 0.0


def test_collision_free_walk_counts_half_the_window():
    ticks, collisions = delivered_counts(0.0, 0.0, window_sizes(16, 3))
    assert ticks == pytest.approx(7.5, rel=1e-13)
    assert collisions == 0.0


def test_single_retry_stage_counts_ignore_collision_probability():
    # m = 0: no attempt follows the station's own collision, so the counts
    # never read p_after_collision
    lo, hi = (delivered_counts(0.5, odds, (8,)) for odds in (0.1, 0.9))
    assert lo == pytest.approx(hi, rel=1e-15)


def test_single_stage_counts_hand_formula():
    # m = 0: a packet is delivered on its first attempt or dropped.  A zero
    # draw follows the station's own success and never collides; any other
    # draw counts down w/2 ticks on average and collides at p_after_idle.
    ticks, collisions = delivered_counts(0.5, 0.2, (8,))
    counted = 7.0 / 8.0
    delivered = 1.0 - counted * 0.5
    assert ticks == pytest.approx(counted * 0.5 * 4.0 / delivered, rel=1e-13)
    assert collisions == 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n_k=strategies.integers(1, 2 ** 20), w0=strategies.integers(1, 64),
       m=strategies.integers(0, 7),
       rule=strategies.sampled_from(("doubling", "doubling-minus-one")))
def test_coupling_is_a_valid_operating_point_or_a_model_error(n_k, w0, m, rule):
    try:
        sol = solve_idle_slot_coupling(n_k, w0, m, window_rule=rule)
    except AdmacError:
        return
    assert sol.residual <= 1e-10
    assert 0.0 <= sol.tau <= 1.0
    assert 0.0 <= sol.p <= 1.0
    assert 0.0 <= sol.drop_prob <= 1.0
    st = sol.steps
    assert abs(st.p_idle + st.p_suc + st.p_col - 1.0) <= 1e-12
    assert abs(st.po_idle + st.po_suc + st.po_col - 1.0) <= 1e-12


def coupled_cycle_by_composition(alpha, n_k, widths, shares):
    """The after-collision loop of ``_coupled_cycle`` with every pass taking
    the whole packet walk; appends the zero share of each pass to
    ``shares``."""
    p_idle, odds = _after_collision(alpha, n_k)
    _, cycle, _ = _packet_walk(p_idle, widths)
    p_zero = 0.0
    for _ in range(markov.MAX_ITER):
        shares.append(cycle(p_zero).zero_share)
        nxt = odds(shares[-1])
        if abs(nxt - p_zero) <= markov.ZERO_ODDS_TOL:
            return p_idle, nxt, cycle(nxt)
        p_zero = nxt
    raise InfeasibleModelError("the composition did not settle")


def recording_after_collision(shares):
    """``_after_collision`` whose odds append each zero share to ``shares``."""
    def after_collision(alpha, n_k):
        p_idle, odds = _after_collision(alpha, n_k)

        def recorded(zero_share):
            shares.append(zero_share)
            return odds(zero_share)
        return p_idle, recorded
    return after_collision


def packet_cycle_by_formula(p_idle, p_zero, widths):
    """The six per-packet means, one formula each, every sum from 0.0.

    Stage i collides with p_idle (W_i - 1)/W_i + p_zero/W_i; stage 0 mixes
    fresh draws, which never collide at zero, with restarts at zero after a
    drop.  A packet reaches stage i + 1 with reach_i times those odds.
    """
    head = p_idle * (widths[0] - 1) / widths[0]
    stage_p = [p_idle * (w - 1) / w + p_zero / w for w in widths]
    upper = 1.0
    for odds in stage_p[1:]:
        upper *= odds
    drop = head * upper / (1.0 - (p_zero - head) * upper)
    stage_p[0] = head * (1.0 - drop) + p_zero * drop
    reach = [1.0]
    for odds in stage_p[:-1]:
        reach.append(reach[-1] * odds)
    fresh = [1.0 - drop] + reach[1:]
    collided = [r * odds for r, odds in zip(reach, stage_p)]
    zero_next = [1.0 / w for w in widths[1:]] + [1.0]
    attempts = idle_attempts = decrements = zero_after = 0.0
    total = weighted = 0.0
    for i, w in enumerate(widths):
        attempts += reach[i]
        idle_attempts += fresh[i] * (w - 1) / w
        decrements += fresh[i] * (w - 1) / 2.0
        if i:
            zero_after += reach[i] / w
        total += collided[i]
        weighted += collided[i] * zero_next[i]
    return (drop, attempts, idle_attempts, drop + zero_after, decrements,
            weighted / total if total > 0.0 else 0.0)


coupling_cases = dict(
    alpha=strategies.floats(markov.TAU_EPS, 1.0 - markov.TAU_EPS),
    n_k=strategies.integers(2, 200), w0=strategies.integers(2, 64),
    m=strategies.integers(1, 7),
    rule=strategies.sampled_from(("doubling", "doubling-minus-one")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**coupling_cases)
def test_coupled_cycle_equals_the_packet_cycle_composition(alpha, n_k, w0, m,
                                                           rule):
    # the share-only passes give the zero share of the whole walk on every
    # pass, and so the same (p_idle, p_zero, cycle)
    widths = window_sizes(w0, m, rule)
    want, got = [], []
    recording = mock.patch.object(markov, "_after_collision",
                                  recording_after_collision(got))
    try:
        expected = coupled_cycle_by_composition(alpha, n_k, widths, want)
    except (InfeasibleModelError, ZeroDivisionError) as exc:
        with recording, pytest.raises(type(exc)):
            _coupled_cycle(alpha, n_k, widths)
    else:
        with recording:
            coupled = _coupled_cycle(alpha, n_k, widths)[:3]
            assert repr(coupled) == repr(expected)
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**coupling_cases)
def test_bisected_rate_terms_are_the_packet_cycle_floats(alpha, n_k, w0, m,
                                                         rule):
    # the cycle the residual reads, and the solution reports, holds the
    # floats of the stage-by-stage formulas, each summed in stage order
    widths = window_sizes(w0, m, rule)
    try:
        p_idle, p_zero, cycle, _ = _coupled_cycle(alpha, n_k, widths)
    except (InfeasibleModelError, ZeroDivisionError):
        return
    assert repr(tuple(cycle)) == repr(
        packet_cycle_by_formula(p_idle, p_zero, widths))


@pytest.mark.parametrize("alpha, n_k, zero_share", [
    (0.3, 2, 0.5),
    (1e-6, 11, 0.25),
    (0.1, 50, 0.9),
    (0.02, 1200, 0.3),
    (1e-7, 2 ** 20, 0.6),
    # (1 - alpha z)^k / (1 - alpha)^k passes the float range
    (0.6, 1200, 1e-4),
    (1e-3, 2 ** 20, 1e-2),
    (0.5, 2 ** 20, 0.01),
])
def test_after_collision_odds_match_exact_powers(alpha, n_k, zero_share):
    # 1 + ((1 - alpha z)^k - (1 - alpha)^k) / ((1 - alpha)^k - 1) in
    # 60-digit decimal arithmetic
    k = n_k - 1
    with localcontext() as ctx:
        ctx.prec = 60
        a, z = Decimal(alpha), Decimal(zero_share)
        none = (1 - a) ** k
        exact_idle = float(1 - none)
        exact = float(1 + ((1 - a * z) ** k - none) / (none - 1))
    p_idle, odds = _after_collision(alpha, n_k)
    assert p_idle == pytest.approx(exact_idle, rel=1e-12)
    assert odds(zero_share) == pytest.approx(exact, rel=1e-11)
