"""Brute-force validator for the closed-form chain solution.

Builds the full transition matrix over every (stage, counter, flag) state
from the same transition rules the closed form summarizes, solves for its
stationary distribution by censoring it on its stage heads, with numpy
alone, and reports closed-form-vs-oracle errors over a parameter grid.
Desk-scale only: never used in sweeps.  numpy is imported inside the
functions that need it, so that importing the package does not pay for
it.
"""

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


class CsrMatrix(NamedTuple):
    """Arrays of a square sparse matrix in compressed sparse row form: row
    r's columns are ``indices[indptr[r]:indptr[r + 1]]``, its values the
    same slice of ``data``."""

    data: object
    indices: object
    indptr: object


class ExplicitChain(NamedTuple):
    """One-step transition matrix, a ``CsrMatrix``, and each stage's head
    row."""

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
    each row's columns in ascending order, and every row stores its
    diagonal, a head above stage 0 as an explicit 0.0.
    """
    import numpy as np

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
    # a head row holds the stage-0 counters, above stage 0 its own diagonal
    # (an explicit 0.0), and the next stage's head and counters
    head_lengths = [first + (i > 0) + w_next
                    for i, w_next in enumerate(widths[1:] + (0,))]
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
        head_at, at = at, at + first
        indices[head_at:at] = np.arange(first)
        data[head_at:at] = (1.0 - p) / first
        if i:
            indices[at] = base
            data[at] = 0.0
            at += 1
        if i < m:
            w_next = widths[i + 1]
            nxt = base + w + k
            indices[at:at + w_next] = np.arange(nxt, nxt + w_next)
            data[at:at + w_next] = p / w_next
            at += w_next
        else:
            data[head_at] += p
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
    return ExplicitChain(matrix=CsrMatrix(data, indices, indptr),
                         n_states=n_states, heads=tuple(heads))


def stationary_distribution(chain, method="auto"):
    """Solve pi P = pi, sum(pi) = 1 for the explicit chain.

    The chain must have ``build_chain``'s layout, read off its index arrays:
    stage i spans the 2 k_i + 1 rows from ``heads[i]``, a counter row r holds
    the columns [r - 1, r, r + k_i] and a twin row [r - k_i, r], a head row
    reaches only heads and counters, and every row stores its diagonal (a
    zero counts).  Any other chain is refused with ``OracleError``.  Then
    every path into a stage's counters and twins leaves through its head, so
    the chain censored on the heads moves from head h to head i with the
    sum of row h's entries over stage i's rows.  That small chain is solved
    by the state reduction of Grassmann, Taksar and Heyman, in Python
    floats, with the mass of ``heads[0]`` set to 1.  A counter's mass times
    its decrement entry is the inflow from the heads into it and the
    counters above it; a twin's mass times its return entry is its
    counter's mass times the suspend entry; a decrement or return entry
    that is not positive leaves the balance system singular and is
    refused.  No mass is formed by a subtraction.  The masses are then
    normalized, and the balance residual is checked against the full
    explicit matrix.  ``method`` is "auto" or "direct", both meaning this
    solve.  Returns the mass vector in row order.
    """
    import numpy as np

    if method not in ("auto", "direct"):
        raise OracleError(f"unknown stationary method {method!r}")
    n = chain.n_states
    data, indices, indptr = (chain.matrix.data, chain.matrix.indices,
                             chain.matrix.indptr)
    lengths = indptr[1:] - indptr[:-1]
    if (len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(indices)
            or len(data) != len(indices) or np.count_nonzero(lengths < 0)):
        raise OracleError(f"matrix arrays do not hold {n} CSR rows")
    rows = np.repeat(np.arange(n), lengths)
    offsets = indices - rows
    if np.count_nonzero(offsets == 0) != n:
        raise OracleError("transition matrix stores no diagonal in some row")
    stages, bounds, pivots = _stage_layout(chain.heads, n, lengths, offsets,
                                           indptr)

    # the head rows' entries, and the stage each reaches: a column with
    # 2i + 1 bounds at or below it is stage i's head or one of its
    # counters; an even count puts it among the twins, before row 0 or
    # past the last state
    heads = np.array(chain.heads)
    is_head = np.zeros(n, dtype=bool)
    is_head[heads] = True
    from_head = is_head[rows]
    head_cols, head_vals = indices[from_head], data[from_head]
    reach = np.searchsorted(bounds, head_cols, side="right")
    if np.count_nonzero(reach & 1) != len(reach):
        raise OracleError("a head row reaches a suspended twin or past the "
                          "last state")
    size = len(stages)
    from_stage = np.repeat(np.arange(size), lengths[heads])
    censored = np.bincount(from_stage * size + (reach >> 1),
                           weights=head_vals, minlength=size * size)
    head_mass = _gth(censored.reshape(size, size).tolist())

    if np.count_nonzero(data[pivots] > 0.0) != np.count_nonzero(pivots):
        raise OracleError("stationary solve failed: singular balance system")
    x = np.zeros(n)
    x[heads] = head_mass
    inflow = np.bincount(head_cols,
                         weights=head_vals * np.array(head_mass)[from_stage],
                         minlength=n)
    for base, k, start in stages:
        twins = start + 3 * k
        mass = inflow[base + k:base:-1].cumsum()[::-1] / data[start:twins:3]
        x[base + 1:base + k + 1] = mass
        x[base + k + 1:base + 2 * k + 1] = (
            mass * data[start + 2:twins:3] / data[twins:twins + 2 * k:2])
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


def _stage_layout(heads, n, lengths, offsets, indptr):
    """Check that the CSR arrays hold ``build_chain``'s layout; ``offsets``
    holds each entry's column less its row.  Returns each stage's head row,
    counter count k and first counter entry; the bounds of the head and
    counter rows of each stage, for ``np.searchsorted``; and the mask of
    the decrement and return entries."""
    import numpy as np

    if not heads or heads[0] != 0:
        raise OracleError("the first stage head is not row 0")
    stages, bounds = [], []
    expected = lengths.copy()
    for base, end in zip(heads, (*heads[1:], n)):
        k, odd = divmod(end - base - 1, 2)
        if k < 0 or odd:
            raise OracleError(
                f"stage at row {base} spans {end - base} rows, not 2k + 1")
        expected[base + 1:base + k + 1] = 3
        expected[base + k + 1:end] = 2
        stages.append((base, k, int(indptr[base + 1])))
        bounds += (base, base + k + 1)
    if np.count_nonzero(lengths != expected):
        raise OracleError("a counter row holds other than 3 entries, "
                          "or a twin row other than 2")
    template = offsets.copy()
    pivots = np.zeros(len(offsets), dtype=bool)
    for base, k, start in stages:
        twins = start + 3 * k
        template[start:twins:3] = -1
        template[start + 1:twins:3] = 0
        template[start + 2:twins:3] = k
        template[twins:twins + 2 * k:2] = -k
        template[twins + 1:twins + 2 * k:2] = 0
        pivots[start:twins:3] = True
        pivots[twins:twins + 2 * k:2] = True
    if np.count_nonzero(offsets != template):
        raise OracleError("a counter row r is not [r - 1, r, r + k], "
                          "or a twin row r not [r - k, r]")
    # two bounds at n give a column past the last state an even count
    return stages, np.array(bounds + [n, n]), pivots


def _gth(matrix):
    """Stationary vector of the small stochastic ``matrix`` (a list of rows
    of floats), scaled to a first entry of 1, by the state reduction of
    Grassmann, Taksar and Heyman: the last state is censored out first, and
    its outflow is summed, never taken as 1 less the self-loop."""
    for last in range(len(matrix) - 1, 0, -1):
        row = matrix[last]
        out = left_sum(row[:last])
        if not out > 0.0:
            raise OracleError(
                "stationary solve failed: singular balance system")
        for above in matrix[:last]:
            share = above[last] / out
            above[last] = share
            for j in range(last):
                above[j] += share * row[j]
    mass = [1.0]
    for j in range(1, len(matrix)):
        mass.append(left_sum(m * matrix[i][j] for i, m in enumerate(mass)))
    return mass


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
