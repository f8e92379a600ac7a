"""Brute-force validator for the closed-form chain solution.

Builds the full transition matrix over every (stage, counter, flag) state
from the same transition rules the closed form summarizes, solves for the
stationary distribution with one sparse LU, and reports closed-form-vs-
oracle errors over a parameter grid.  Desk-scale only: never used in
sweeps.  numpy and scipy are imported inside the functions that need
them, so that importing the package does not pay for them.
"""

import warnings
from typing import NamedTuple

from .config import SectorModel, window_sizes
from .errors import AdmacError, OracleError, OracleSizeError
from .markov import b000_closed_form, eta_terms, tau_of
from .numeric import left_sum

MAX_STATES = 100_000
# largest balance residual and negative mass a stationary vector may carry
STATIONARY_TOL = 1e-10

# Grid for closed-form-vs-oracle validation: (w0, m, p, p_h, p_h_prime, p_f).
DEFAULT_GRID = tuple(sorted(set(
    (w0, m, p, p_h, p_h_mult * p_h, p_f)
    for w0 in (4, 8)
    for m in (1, 2, 3)
    for p in (0.1, 0.3, 0.5)
    for p_h in (0.0, 0.01)
    for p_h_mult in (1.0, 5.0)
    for p_f in (0.0, 0.6)
)))


class ExplicitChain(NamedTuple):
    """Sparse (CSR) one-step transition matrix and each stage's head row."""

    matrix: object
    n_states: int
    heads: tuple


def raw_sector(p_h, p_h_prime, p_f, n_k=2):
    """SectorModel carrying bare probabilities for oracle grids."""
    return SectorModel(
        n_k=n_k, p_h=p_h, p_h_prime=p_h_prime, p_f=p_f, cbap_k_slots=1,
    )


def build_chain(p, sector, w0, m, p_b=None, window_rule="doubling"):
    """Explicit transition matrix of the per-station backoff chain.

    States are (i, j, 0) for j in [0, w_i-1] plus suspended twins
    (i, j, -1) for j >= 1; a transmission occupies exactly one chain step.
    The busy probability ``p_b`` defaults to the collision probability p,
    the identity that holds at every fixed point.  Stage i holds the rows
    base_i .. base_i + 2 w_i - 2: its head (i, 0, 0), its counters
    (i, j, 0) for j = 1 .. w_i - 1, then their twins (i, j, -1) in the same
    order; ``heads[i]`` is base_i.  The CSR arrays are written directly,
    each row's columns in ascending order.
    """
    import numpy as np
    from scipy.sparse import csr_array

    widths = window_sizes(w0, m, window_rule)
    n_states = sum(2 * w - 1 for w in widths)
    if n_states > MAX_STATES:
        raise OracleSizeError(
            f"chain would need {n_states} states (limit {MAX_STATES}); "
            f"use the closed form for parameters this large"
        )
    if p_b is None:
        p_b = p
    p_h, p_h_prime, p_f = sector.p_h, sector.p_h_prime, sector.p_f
    first = widths[0]
    head_lengths = [first + w_next for w_next in widths[1:]] + [first]
    nnz = sum(head_lengths) + 5 * sum(w - 1 for w in widths)
    lengths = np.empty(n_states, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    heads = []
    base = at = 0
    for i, w in enumerate(widths):
        k = w - 1
        heads.append(base)
        lengths[base] = head_lengths[i]
        lengths[base + 1:base + w] = 3
        lengths[base + w:base + w + k] = 2
        # head (i, 0, 0): a success draws a stage-0 counter; a collision
        # draws a stage-(i + 1) counter, or at stage m drops and restarts
        # at (0, 0, 0)
        indices[at:at + first] = np.arange(first)
        data[at:at + first] = (1.0 - p) / first
        if i < m:
            w_next = widths[i + 1]
            nxt = base + w + k
            indices[at + first:at + first + w_next] = np.arange(nxt,
                                                               nxt + w_next)
            data[at + first:at + first + w_next] = p / w_next
        else:
            data[at] += p
        at += head_lengths[i]
        # counter (i, j, 0): decrement, hold while busy, or suspend at the
        # boundary (p_h' at j = 1, p_h above); twin (i, j, -1): return or
        # stay suspended
        rows = np.arange(base + 1, base + w)
        cols = indices[at:at + 5 * k]
        vals = data[at:at + 5 * k]
        counter_cols = cols[:3 * k].reshape(k, 3)
        counter_vals = vals[:3 * k].reshape(k, 3)
        counter_cols[:, 0] = rows - 1
        counter_cols[:, 1] = rows
        counter_cols[:, 2] = rows + k
        counter_vals[:] = (1.0 - p_b - p_h, p_b, p_h)
        counter_vals[:1] = (1.0 - p_b - p_h_prime, p_b, p_h_prime)
        twin_cols = cols[3 * k:].reshape(k, 2)
        twin_cols[:, 0] = rows
        twin_cols[:, 1] = rows + k
        vals[3 * k:].reshape(k, 2)[:] = (1.0 - p_f, p_f)
        base += w + k
        at += 5 * k
    indptr = np.zeros(n_states + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])

    sums = np.add.reduceat(data, indptr[:-1])
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        raise OracleError("transition matrix rows do not sum to 1")
    matrix = csr_array((data, indices, indptr), shape=(n_states, n_states))
    return ExplicitChain(matrix=matrix, n_states=n_states, heads=tuple(heads))


def stationary_distribution(chain, method="auto"):
    """Solve pi P = pi, sum(pi) = 1 for the explicit chain.

    One sparse LU solve of (P^T - I) pi = 0 with the balance equation of
    state 0 replaced by pi_0 = 1, then normalized.  Pinning one state keeps
    the LU as sparse as P; a row of ones would fill it in.  ``method`` is
    "auto" or "direct", both meaning this solve.  ``chain.matrix`` may be
    any scipy sparse format.  Returns the mass vector in row order.
    """
    import numpy as np
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    if method not in ("auto", "direct"):
        raise OracleError(f"unknown stationary method {method!r}")
    pmat = chain.matrix.tocsr()
    n = chain.n_states
    data, indices, indptr = pmat.data, pmat.indices, pmat.indptr
    rows = np.repeat(np.arange(n), np.diff(indptr))

    # CSC column c of P^T - I: row c of P, then a -1 on the diagonal
    # (duplicates are summed by the solver).  Zeroing row 0 and setting its
    # diagonal to +1 turns state 0's balance equation into pi_0 = 1.
    a_indptr = indptr + np.arange(n + 1, dtype=indptr.dtype)
    at = np.arange(len(data)) + rows
    diagonal = a_indptr[1:] - 1
    a_indices = np.empty(a_indptr[-1], dtype=indices.dtype)
    a_indices[at] = indices
    a_indices[diagonal] = np.arange(n)
    a_data = np.empty(a_indptr[-1])
    a_data[at] = np.where(indices == 0, 0.0, data)
    a_data[diagonal] = -1.0
    a_data[diagonal[0]] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        x = spsolve(csc_array((a_data, a_indices, a_indptr), shape=(n, n)), b)
    total = x.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise OracleError("stationary solve failed: singular balance system")
    pi = x / total

    flow = np.bincount(indices, weights=data * pi[rows], minlength=n)
    residual = np.max(np.abs(flow - pi))
    if residual > STATIONARY_TOL:
        raise OracleError(f"stationary residual {residual} exceeds {STATIONARY_TOL}")
    if np.min(pi) < -STATIONARY_TOL:
        raise OracleError(f"stationary vector has negative mass {np.min(pi)}")
    return pi


def validation_report(grid=DEFAULT_GRID):
    """Closed form vs oracle on every grid point.

    Returns a list of dict rows with both b000 values, both tau values,
    and their relative errors.
    """
    rows = []
    for w0, m, p, p_h, p_h_prime, p_f in grid:
        point = f"(w0={w0}, m={m}, p={p}, p_h={p_h}, p_h'={p_h_prime}, p_f={p_f})"
        try:
            sector = raw_sector(p_h, p_h_prime, p_f)
            eta, eta_prime = eta_terms(p, p_f, p_h, p_h_prime)
            b_closed = b000_closed_form(p, w0, m, eta, eta_prime)
            tau_closed = tau_of(p, b_closed, m)
            chain = build_chain(p, sector, w0, m)
            pi = stationary_distribution(chain)
        except AdmacError as exc:
            raise type(exc)(f"grid point {point}: {exc}") from exc
        b_oracle = float(pi[chain.heads[0]])
        tau_oracle = left_sum(float(pi[h]) for h in chain.heads)
        rows.append({
            "w0": w0, "m": m, "p": p,
            "p_h": p_h, "p_h_prime": p_h_prime, "p_f": p_f,
            "b000_closed": b_closed, "b000_oracle": b_oracle,
            "b000_rel_err": abs(b_closed - b_oracle) / b_oracle,
            "tau_closed": tau_closed, "tau_oracle": tau_oracle,
            "tau_rel_err": abs(tau_closed - tau_oracle) / tau_oracle,
        })
    return rows
