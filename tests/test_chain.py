"""Explicit-chain oracle: construction, stationary solve, validation grid."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from admac import (ConfigError, ExplicitChain, OracleError, OracleSizeError,
                   build_chain, derive_sector_models, derive_timings,
                   make_params, solve_fixed_point, stationary_distribution,
                   validation_report, window_sizes)
from admac.chain import CsrMatrix, raw_sector
from admac.markov import b000_closed_form, eta_terms, tau_of
from conftest import chain_states


def dense_matrix(chain):
    """The transition matrix of ``chain`` as a dense array."""
    data, indices, indptr = chain.matrix
    rows = np.repeat(np.arange(chain.n_states), np.diff(indptr))
    dense = np.zeros((chain.n_states, chain.n_states))
    np.add.at(dense, (rows, indices), data)
    return dense


def chain_from_dense(dense, heads, store_diagonal=True):
    """A hand-built chain holding every nonzero entry of ``dense``, and
    each diagonal entry when ``store_diagonal``."""
    keep = dense != 0.0
    if store_diagonal:
        keep |= np.eye(len(dense), dtype=bool)
    rows, cols = np.nonzero(keep)
    indptr = np.searchsorted(rows, np.arange(len(dense) + 1))
    return ExplicitChain(matrix=CsrMatrix(dense[rows, cols], cols, indptr),
                         n_states=len(dense), heads=heads)


def dense_stationary(chain):
    """Reference solve: dense (P^T - I) with its last row replaced by ones."""
    a = dense_matrix(chain).T - np.eye(chain.n_states)
    a[-1, :] = 1.0
    b = np.zeros(chain.n_states)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def state_masses(pi, w0, m):
    """Solved vector keyed by (stage, counter, flag) under doubling windows."""
    return dict(zip(chain_states(window_sizes(w0, m)), pi, strict=True))


def transmit_mass(masses, m):
    """Probability of being in any transmit state (i, 0, 0)."""
    return sum(masses[(i, 0, 0)] for i in range(m + 1))


def test_rows_sum_to_one():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 8, 3)
    sums = dense_matrix(chain).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_state_count():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 2)
    # widths 4, 8, 16: each stage has 2w - 1 states
    assert chain.n_states == 7 + 15 + 31
    assert len(chain_states(window_sizes(4, 2))) == chain.n_states
    assert chain.heads == (0, 7, 22)


@pytest.mark.parametrize("rule", ["doubling", "doubling-minus-one"])
def test_rows_follow_the_documented_layout(rule):
    # stage i takes 2 W_i - 1 rows: its head, W_i - 1 counters, then their
    # twins; a counter decrements, holds or suspends, a twin returns or stays
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 2,
                        window_rule=rule)
    widths = window_sizes(4, 2, rule)
    assert chain.heads == tuple(sum(2 * w - 1 for w in widths[:i])
                                for i in range(len(widths)))
    dense = dense_matrix(chain)
    for head, w in zip(chain.heads, widths):
        for r in range(head + 1, head + w):
            assert list(np.flatnonzero(dense[r])) == [r - 1, r, r + w - 1]
            twin = r + w - 1
            assert list(np.flatnonzero(dense[twin])) == [r, twin]


@pytest.mark.parametrize("rule", ["doubling", "doubling-minus-one"])
def test_every_row_stores_its_diagonal(rule):
    # the solve checks the layout on P's own index arrays, each row's
    # diagonal included, so the diagonal of a head above stage 0, which
    # has no self-loop, is stored as 0.0
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 3,
                        window_rule=rule)
    matrix = chain.matrix
    rows = np.repeat(np.arange(chain.n_states), np.diff(matrix.indptr))
    assert np.array_equal(rows[matrix.indices == rows],
                          np.arange(chain.n_states))
    dense = dense_matrix(chain)
    assert all(dense[h, h] == 0.0 for h in chain.heads[1:])


def test_chain_without_a_stored_diagonal_is_refused():
    # a two-state flip chain: stationary (1/2, 1/2), but no row stores its
    # diagonal, which the layout check needs
    chain = chain_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]), (0,),
                             store_diagonal=False)
    with pytest.raises(OracleError, match="no diagonal"):
        stationary_distribution(chain)


def test_built_chain_without_its_zero_head_diagonals_is_refused():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 2)
    bare = chain_from_dense(dense_matrix(chain), chain.heads,
                            store_diagonal=False)
    with pytest.raises(OracleError, match="no diagonal"):
        stationary_distribution(bare)


def test_two_state_chains_are_refused():
    # one stage of two rows is no head with k counters and k twins, though
    # this chain is uniform at stationarity
    chain = chain_from_dense(np.array([[0.7, 0.3], [0.3, 0.7]]), (0,))
    with pytest.raises(OracleError, match="spans 2 rows"):
        stationary_distribution(chain)


@pytest.mark.parametrize("heads", [(0,), (0, 6, 22), (0, 9, 22), (7, 22)])
def test_stage_spans_other_than_the_layout_are_refused(heads):
    # the chain of w0 = 4, m = 2 has its heads at rows 0, 7 and 22
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 2)
    with pytest.raises(OracleError):
        stationary_distribution(chain._replace(heads=heads))


def moved(dense, row, source, target, share):
    """``dense`` with a ``share`` of the entry (row, source) moved to
    (row, target): still stochastic."""
    out = dense.copy()
    out[row, target] += share * out[row, source]
    out[row, source] *= 1.0 - share
    return out


@pytest.mark.parametrize("row, source, target, share, match", [
    (8, 1, 0, 1.0, r"not \[r - 1"),    # twin (0, 1, -1) exits to the head
    (8, 1, 15, 1.0, r"not \[r - 1"),   # ... or to the next stage's head
    (12, 12, 0, 0.5, "entries"),       # twin (0, 5, -1) also exits there
    (5, 4, 0, 1.0, r"not \[r - 1"),    # counter (0, 5, 0) jumps to the head
    (3, 10, 11, 1.0, r"not \[r - 1"),  # ... (0, 3, 0) suspends to (0, 4, -1)
    (3, 3, 15, 0.5, "entries"),        # ... (0, 3, 0) leaves its stage
    (0, 1, 9, 0.5, "suspended twin"),  # the head reaches twin (0, 2, -1)
    (7, 6, 31, 0.5, "entries"),        # a counter reaches twin (1, 1, -1)
    (15, 1, 31, 0.5, "suspended twin"),  # head 1 reaches it
])
def test_rows_off_the_layout_are_refused(row, source, target, share, match):
    # w0 = 8, m = 1: stage 0 holds rows 0..14 (counters 1..7, twins 8..14),
    # stage 1 rows 15..45 (counters 16..30, twins 31..45)
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 8, 1)
    copy = chain_from_dense(dense_matrix(chain), chain.heads)
    assert np.array_equal(stationary_distribution(copy),
                          stationary_distribution(chain))
    dense = moved(dense_matrix(chain), row, source, target, share)
    assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= 1e-12
    changed = chain_from_dense(dense, chain.heads)
    with pytest.raises(OracleError, match=match):
        stationary_distribution(changed)


def test_smallest_chain_hand_solution():
    # w0=2, m=0, no boundary probabilities: three built states, and
    # balance gives b(0,1,0) = (1-p) * b000 / (2 * (1-p_b))
    for p, p_b in ((0.3, 0.3), (0.3, 0.6), (0.0, 0.0)):
        chain = build_chain(p, raw_sector(0.0, 0.0, 0.37), 2, 0, p_b=p_b)
        assert chain.n_states == 3
        masses = state_masses(stationary_distribution(chain), 2, 0)
        expected = 1.0 / (1.0 + (1.0 - p) / (2.0 * (1.0 - p_b)))
        assert masses[(0, 0, 0)] == pytest.approx(expected, rel=1e-12)
        assert masses[(0, 1, -1)] == pytest.approx(0.0, abs=1e-15)


def test_closed_form_matches_oracle_spot_check():
    p, w0, m = 0.3, 4, 2
    sector = raw_sector(0.01, 0.05, 0.6)
    eta, eta_prime = eta_terms(p, 0.6, 0.01, 0.05)
    closed = b000_closed_form(p, w0, m, eta, eta_prime)
    masses = state_masses(
        stationary_distribution(build_chain(p, sector, w0, m)), w0, m)
    assert closed == pytest.approx(masses[(0, 0, 0)], rel=1e-8)


def test_closed_form_matches_oracle_with_decoupled_busy_probability():
    # holding factors evaluated at p_b=0.3 while collisions branch at p=0.2
    p, p_b, w0, m = 0.2, 0.3, 7, 5
    sector = raw_sector(1e-4, 2e-3, 0.6)
    eta, eta_prime = eta_terms(p_b, 0.6, 1e-4, 2e-3)
    closed = b000_closed_form(p, w0, m, eta, eta_prime)
    masses = state_masses(
        stationary_distribution(build_chain(p, sector, w0, m, p_b=p_b)), w0, m)
    assert closed == pytest.approx(masses[(0, 0, 0)], rel=1e-8)
    assert tau_of(p, closed, m) == pytest.approx(transmit_mass(masses, m),
                                                 rel=1e-8)


def test_sparse_solve_agrees_with_dense_solve():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 1)
    sparse = stationary_distribution(chain, method="direct")
    dense = dense_stationary(chain)
    assert sparse.shape == dense.shape
    worst = np.max(np.abs(sparse - dense))
    assert worst <= 1e-10


def test_stationary_method_accepts_only_the_direct_solve():
    chain = build_chain(0.3, raw_sector(0.01, 0.05, 0.6), 4, 1)
    assert np.array_equal(stationary_distribution(chain, method="auto"),
                          stationary_distribution(chain, method="direct"))
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
    assert sparse.shape == dense.shape
    worst = np.max(np.abs(sparse - dense))
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
    masses = state_masses(stationary_distribution(chain), w0, m)
    assert closed == pytest.approx(masses[(0, 0, 0)], rel=1e-8)
    assert tau_of(p, closed, m) == pytest.approx(transmit_mass(masses, m),
                                                 rel=1e-8)


def test_validation_report_bytes_are_pinned_at_operating_points():
    # the repr of every oracle and closed-form value at the six points
    # above, so that a change to the chain's build or solve that moves a
    # single bit of b000 or tau shows
    points = []
    for n in (10, 50):
        for w0 in (7, 15, 31):
            params = make_params(n=n, w0=w0, m=5, bi_slots=20000,
                                 cbap_slots=8000)
            sector = derive_sector_models(params, derive_timings(params))[0]
            p = solve_fixed_point(sector, w0, 5).p
            points.append((w0, 5, p, sector.p_h, sector.p_h_prime,
                           sector.p_f))
    columns = ("b000_closed", "b000_oracle", "tau_closed", "tau_oracle")
    text = "".join(",".join(repr(row[c]) for c in columns) + "\n"
                   for row in validation_report(points))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5f7834d6e1de48653ebf0cc6fbbd1c0dd86266aed7ca3d6491b0e1eb4a62f086")


def test_no_return_path_leaves_one_step_suspension_mass():
    # with p_f = 0 a suspended state is left immediately, so its mass is
    # exactly the one-step inflow p_h * b(i, j, 0)
    chain = build_chain(0.3, raw_sector(0.02, 0.1, 0.0), 4, 1)
    masses = state_masses(stationary_distribution(chain), 4, 1)
    for (i, j, h), mass in masses.items():
        if h != -1:
            continue
        p_col = 0.1 if j == 1 else 0.02
        assert mass == pytest.approx(p_col * masses[(i, j, 0)],
                                     rel=1e-10, abs=1e-15)


def test_oracle_size_limit():
    with pytest.raises(OracleSizeError):
        build_chain(0.3, raw_sector(0.0, 0.0, 0.0), 4096, 4)


def test_build_chain_rejects_negative_m():
    with pytest.raises(ConfigError, match=r"^m must be >= 0, got -1$"):
        build_chain(0.3, raw_sector(0.0, 0.0, 0.0), 4, -1)


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
