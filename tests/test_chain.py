"""Explicit-chain oracle: construction, stationary solve, validation grid."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.sparse import csr_array

from admac import (ExplicitChain, OracleError, OracleSizeError,
                   b000_closed_form, build_chain, derive_sector_models,
                   derive_timings, eta_terms, make_params, raw_sector,
                   solve_fixed_point, stationary_distribution, tau_of,
                   validation_report)


def dense_stationary(chain):
    """Reference solve: dense (P^T - I) with its last row replaced by ones."""
    a = chain.matrix.toarray().T - np.eye(chain.n_states)
    a[-1, :] = 1.0
    b = np.zeros(chain.n_states)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return {state: pi[row] for state, row in chain.index.items()}


def test_rows_sum_to_one():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 8, 3)
    sums = chain.matrix.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_state_count():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 2)
    # widths 4, 8, 16: each stage has 2w - 1 states
    assert chain.n_states == 7 + 15 + 31
    assert len(chain.index) == chain.n_states


def test_smallest_chain_hand_solution():
    # w0=2, m=0, no boundary probabilities: three built states, and
    # balance gives b(0,1,0) = (1-p) * b000 / (2 * (1-p_b))
    for p, p_b in ((0.3, 0.3), (0.3, 0.6), (0.0, 0.0)):
        chain = build_chain(p, raw_sector(0.0, 0.0, 0.37), 2, 0, p_b=p_b)
        assert chain.n_states == 3
        vec = stationary_distribution(chain)
        expected = 1.0 / (1.0 + (1.0 - p) / (2.0 * (1.0 - p_b)))
        assert vec.entries[(0, 0, 0)] == pytest.approx(expected, rel=1e-12)
        assert vec.entries[(0, 1, -1)] == pytest.approx(0.0, abs=1e-15)


def test_closed_form_matches_oracle_spot_check():
    p, w0, m = 0.3, 4, 2
    sector = raw_sector(0.01, 0.05, 0.6)
    eta, eta_prime = eta_terms(p, 0.6, 0.01, 0.05)
    closed = b000_closed_form(p, w0, m, eta, eta_prime)
    vec = stationary_distribution(build_chain(p, sector, w0, m))
    assert closed == pytest.approx(vec.entries[(0, 0, 0)], rel=1e-8)


def test_closed_form_matches_oracle_with_decoupled_busy_probability():
    # holding factors evaluated at p_b=0.3 while collisions branch at p=0.2
    p, p_b, w0, m = 0.2, 0.3, 7, 5
    sector = raw_sector(1e-4, 2e-3, 0.6)
    eta, eta_prime = eta_terms(p_b, 0.6, 1e-4, 2e-3)
    closed = b000_closed_form(p, w0, m, eta, eta_prime)
    vec = stationary_distribution(build_chain(p, sector, w0, m, p_b=p_b))
    assert closed == pytest.approx(vec.entries[(0, 0, 0)], rel=1e-8)
    assert tau_of(p, closed, m) == pytest.approx(vec.head_mass(), rel=1e-8)


def test_two_state_symmetric_chain_is_uniform():
    matrix = csr_array([[0.7, 0.3], [0.3, 0.7]])
    chain = ExplicitChain(index={(0, 0, 0): 0, (0, 1, 0): 1}, matrix=matrix,
                          n_states=2, m=0)
    vec = stationary_distribution(chain)
    assert vec.entries[(0, 0, 0)] == pytest.approx(0.5, rel=1e-12)
    assert vec.entries[(0, 1, 0)] == pytest.approx(0.5, rel=1e-12)


def test_sparse_solve_agrees_with_dense_solve():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 1)
    sparse = stationary_distribution(chain, method="direct")
    dense = dense_stationary(chain)
    worst = max(abs(sparse.entries[s] - dense[s]) for s in dense)
    assert worst <= 1e-10


def test_stationary_method_accepts_only_the_direct_solve():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 1)
    assert (stationary_distribution(chain, method="auto").entries
            == stationary_distribution(chain, method="direct").entries)
    with pytest.raises(OracleError):
        stationary_distribution(chain, method="power")


def test_chain_without_stationary_distribution_raises():
    # counters never decrement (p_b + p_h = 1): every counter and its twin
    # form a closed class, so the balance system has no unique solution
    chain = build_chain(0.3, raw_sector(0.2, 0.2, 0.5), 4, 1, p_b=0.8)
    with pytest.raises(OracleError):
        stationary_distribution(chain)


@strategies.composite
def small_chains(draw):
    w0 = draw(strategies.integers(1, 8))
    m = draw(strategies.integers(0, 3))
    rule = draw(strategies.sampled_from(("doubling", "doubling-minus-one")))
    if rule == "doubling-minus-one" and w0 == 1:
        w0 = 2
    unit = strategies.floats(0.0, 1.0)
    p = 0.9 * draw(unit)
    p_b = 0.6 * draw(unit)
    p_h = 0.1 * draw(unit)
    p_h_prime = 0.3 * draw(unit)
    p_f = 0.9 * draw(unit)
    return build_chain(p, raw_sector(p_h, p_h_prime, p_f), w0, m, p_b=p_b,
                       window_rule=rule)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain=small_chains())
def test_sparse_solve_matches_dense_on_random_chains(chain):
    sparse = stationary_distribution(chain)
    dense = dense_stationary(chain)
    worst = max(abs(sparse.entries[s] - dense[s]) for s in dense)
    assert worst <= 1e-12


@pytest.mark.parametrize("w0", [7, 15, 31])
@pytest.mark.parametrize("n", [10, 50])
def test_closed_form_matches_oracle_at_operating_points(w0, n):
    # the m = 5 points the cross-validation runs, with the boundary
    # probabilities of a contention share of 0.4 of a 20000-slot interval
    m = 5
    params = make_params(n=n, w0=w0, m=m, bi_slots=20000, cbap_slots=8000)
    sector = derive_sector_models(params, derive_timings(params))[0]
    p = solve_fixed_point(sector, w0, m).p
    eta, eta_prime = eta_terms(p, sector.p_f, sector.p_h, sector.p_h_prime)
    closed = b000_closed_form(p, w0, m, eta, eta_prime)
    chain = build_chain(p, sector, w0, m)
    assert chain.n_states == sum(2 * (2 ** i) * w0 - 1 for i in range(m + 1))
    vec = stationary_distribution(chain)
    assert closed == pytest.approx(vec.entries[(0, 0, 0)], rel=1e-8)
    assert tau_of(p, closed, m) == pytest.approx(vec.head_mass(), rel=1e-8)


def test_no_return_path_leaves_one_step_suspension_mass():
    # with p_f = 0 a suspended state is left immediately, so its mass is
    # exactly the one-step inflow p_h * b(i, j, 0)
    chain = build_chain(0.3, raw_sector(0.02, 0.1, 0.0), 4, 1)
    vec = stationary_distribution(chain)
    for (i, j, h), mass in vec.entries.items():
        if h != -1:
            continue
        p_col = 0.1 if j == 1 else 0.02
        assert mass == pytest.approx(p_col * vec.entries[(i, j, 0)],
                                     rel=1e-10, abs=1e-15)


def test_oracle_size_limit():
    with pytest.raises(OracleSizeError):
        build_chain(0.3, raw_sector(0.0, 0.0, 0.0), 4096, 4)


def test_validation_report_default_grid():
    rows = validation_report()
    assert len(rows) == 108
    worst = max(max(r["b000_rel_err"], r["tau_rel_err"]) for r in rows)
    assert worst <= 1e-8


def test_validation_report_empty_grid():
    assert validation_report(grid=()) == []


def test_validation_report_names_failing_point():
    with pytest.raises(OracleSizeError) as err:
        validation_report(grid=((4096, 4, 0.3, 0.0, 0.0, 0.0),))
    assert "w0=4096" in str(err.value)
