"""Fixed point and steady state of the per-station backoff chain.

Each station is modeled by a three-dimensional chain over (backoff stage i,
residual counter j, suspension flag h).  The counter decrements only on
slots the station observes idle inside its own sector period; busy slots
freeze it, and period boundaries park the station in a suspended copy of
the state until its sector is scheduled again.  The chain is summarized by
two geometric-holding factors (``eta`` for ordinary counter states,
``eta_prime`` for the deferral-prone j=1 states), a closed-form probability
``b000`` of the stage-0 transmit state, and the per-slot attempt rate
``tau``.  The attempt rate and the conditional collision probability are
coupled through a monotone fixed point solved by bisection, once per chain
step (``solve_fixed_point``).

Because a counter moves only on an idle slot, a backoff station can reach
zero only on an idle slot, or by drawing zero right after its own
transmission.  ``solve_idle_slot_coupling`` couples the stations at those
idle-slot epochs instead, which is the coupling the slot-level system
actually has, and is what the performance metrics use.
"""

import math
from typing import NamedTuple

from .config import window_sizes
from .errors import (ConfigError, InfeasibleModelError,
                     InternalConsistencyError)
from .numeric import left_sum

TAU_EPS = 1e-12
PB_MARGIN = 1e-9
ZERO_ODDS_TOL = 1e-13
ROOT_TOL = 1e-10
MAX_ITER = 200


class FixedPointSolution(NamedTuple):
    """Converged attempt rate with its intermediate quantities."""

    tau: float
    p: float
    iterations: int
    residual: float


def eta_terms(p_b, p_f, p_h, p_h_prime):
    """Holding factors for counter states and their suspended twins.

    A counter state is held by busy slots (p_b) and boundary hits (p_h);
    each boundary hit also charges the geometric suspension dwell
    1 / (1 - p_f).  Requires p_b + p_h < 1 and p_b + p_h_prime < 1.
    """
    _check_holding(p_b, p_f, p_h, p_h_prime)
    return _holding_factors(p_b, p_f, p_h, p_h_prime)


def _check_holding(p_b, p_f, p_h, p_h_prime):
    """Refuse the inputs for which ``eta_terms`` has no holding factors."""
    if not 0.0 <= p_b < 1.0:
        raise InfeasibleModelError(f"p_b must be in [0, 1), got {p_b}")
    if not 0.0 <= p_f < 1.0:
        raise InfeasibleModelError(f"p_f must be in [0, 1), got {p_f}")
    for name, val in (("p_h", p_h), ("p_h_prime", p_h_prime)):
        if not 0.0 <= val < 1.0:
            raise InfeasibleModelError(f"{name} must be in [0, 1), got {val}")
    if p_b + p_h >= 1.0 or p_b + p_h_prime >= 1.0:
        raise InfeasibleModelError(
            f"holding probabilities exceed 1: p_b={p_b}, p_h={p_h}, "
            f"p_h_prime={p_h_prime}"
        )


def _holding_factors(p_b, p_f, p_h, p_h_prime):
    """``eta_terms`` on inputs ``_check_holding`` has passed."""
    eta = (1.0 + p_h / (1.0 - p_f)) / (1.0 - p_b - p_h)
    eta_prime = (1.0 + p_h_prime / (1.0 - p_f)) / (1.0 - p_b - p_h_prime)
    return eta, eta_prime


def _b000(p, widths, eta, eta_prime):
    """b000 over the stage windows ``widths``, and the transmit-state sum
    1 + p + .. + p**m that ``tau_of`` forms, in the same order."""
    m = len(widths) - 1
    head = 0.0
    columns = 0.0
    for i, w in enumerate(widths):
        pi = p ** i
        inflow = (1.0 - p ** (m + 1)) if i == 0 else pi
        head += pi
        columns += inflow * (w - 1.0) / w * (eta_prime + eta * (w - 2.0) / 2.0)
    bracket = head + columns
    if bracket < 1.0:
        raise InternalConsistencyError(
            f"normalization bracket {bracket} < 1; inputs p={p}")
    return 1.0 / bracket, head


def b000_closed_form(p, w0, m, eta, eta_prime, window_rule="doubling"):
    """Stationary probability of the stage-0 transmit state.

    Normalizes the chain by summing, per stage i, the transmit state mass
    p**i and the counter-column masses weighted by eta / eta_prime.  The
    sum is evaluated stage by stage so it is exact at p = 1 and at the
    window-doubling singularity p = 1/2.
    """
    widths = window_sizes(w0, m, window_rule)
    try:
        return _b000(p, widths, eta, eta_prime)[0]
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"{exc}, w0={w0}, m={m}") from None


def tau_of(p, b000, m):
    """Per-slot attempt probability: total mass of the transmit states."""
    return b000 * left_sum(p ** i for i in range(m + 1))


def collision_probability(tau, n_k):
    """Chance at least one of the other n_k - 1 stations attempts."""
    return _collision(tau, n_k)


def _collision(tau, n_k):
    return 1.0 - (1.0 - tau) ** (n_k - 1)


def _tau_residual(tau, sector, widths):
    """G(tau) = tau_of(p(tau)) - tau, and the collision probability p.

    Calls no public function, so that a tracer wrapping those spans no
    bisection step; the holding inputs are checked at the bracket ends
    (``_checked_residual``), and p rises with tau in between."""
    p = _collision(tau, sector.n_k)
    eta, eta_prime = _holding_factors(p, sector.p_f, sector.p_h,
                                      sector.p_h_prime)
    b000, head = _b000(p, widths, eta, eta_prime)
    return b000 * head - tau, p


def _checked_residual(tau, sector, widths):
    """``_tau_residual`` after the checks of ``eta_terms`` at tau."""
    _check_holding(_collision(tau, sector.n_k), sector.p_f, sector.p_h,
                   sector.p_h_prime)
    return _tau_residual(tau, sector, widths)


def _bisect(residual, lo, hi, what):
    """Bisect (lo, hi) until ``residual(mid)[0]``, a G falling through zero,
    is within ROOT_TOL; return mid, the step count and ``residual(mid)``."""
    for iteration in range(1, MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        found = residual(mid)
        if abs(found[0]) <= ROOT_TOL:
            return mid, iteration, found
        if found[0] > 0.0:
            lo = mid
        else:
            hi = mid
    raise InfeasibleModelError(
        f"{what} did not converge below {ROOT_TOL} in {MAX_ITER} iterations; "
        f"last bracket [{lo:.12g}, {hi:.12g}]"
    )


def solve_fixed_point(sector, w0, m, window_rule="doubling"):
    """Bisect tau until the attempt rate reproduces itself.

    The upper bracket is capped so that the busy probability implied by tau
    keeps every holding denominator positive.  Raises InfeasibleModelError
    when no sign change exists in the bracket or bisection fails to reach
    ROOT_TOL within MAX_ITER iterations.
    """
    if sector.n_k < 1:
        raise ConfigError(f"n_k must be >= 1, got {sector.n_k}")
    widths = window_sizes(w0, m, window_rule)
    try:
        return _bisect_tau(sector, widths)
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"{exc}, w0={w0}, m={m}") from None


def _bisect_tau(sector, widths):
    """``solve_fixed_point`` over the stage windows ``widths``."""
    if sector.n_k == 1:
        g, p = _checked_residual(0.0, sector, widths)
        return FixedPointSolution(tau=g, p=p, iterations=0, residual=0.0)

    lo = TAU_EPS
    hi = 1.0 - TAU_EPS
    pb_cap = 1.0 - max(sector.p_h, sector.p_h_prime) - PB_MARGIN
    if pb_cap <= 0.0:
        raise InfeasibleModelError(
            f"boundary probabilities leave no room for contention: "
            f"p_h_prime={sector.p_h_prime}"
        )
    hi = min(hi, 1.0 - (1.0 - pb_cap) ** (1.0 / (sector.n_k - 1)))

    g_lo, _ = _checked_residual(lo, sector, widths)
    g_hi, _ = _checked_residual(hi, sector, widths)
    if g_lo * g_hi > 0.0:
        raise InfeasibleModelError(
            f"no attempt-rate fixed point in ({lo}, {hi:.6g}): "
            f"G({lo})={g_lo:.3g}, G({hi:.6g})={g_hi:.3g}"
        )

    tau, iterations, (g, p) = _bisect(
        lambda mid: _tau_residual(mid, sector, widths), lo, hi, "fixed point")
    return FixedPointSolution(tau=tau, p=p, iterations=iterations,
                              residual=abs(g))


class SlotProbabilities(NamedTuple):
    """Outcome split of a channel step, for all stations and for the others.

    ``p_*`` split the steps of the whole sector into idle slots, successes
    and collisions; ``po_*`` split the steps a backoff station sees, which
    are made by the other stations only.
    """

    p_idle: float
    p_suc: float
    p_col: float
    po_idle: float
    po_suc: float
    po_col: float


class CoupledSolution(NamedTuple):
    """Operating point of a sector whose stations couple at idle slots.

    ``tau`` counts attempts per station per channel step (an idle slot, a
    success or a collision) and ``p`` the share of attempts that collide;
    ``p_b`` is the busy share of the steps a backoff station sees.  An
    attempt made on reaching zero after an idle slot collides with
    ``p_after_idle``; a zero drawn right after the station's own collision
    collides with ``p_after_collision``; a zero drawn right after its own
    success never collides.  ``alpha`` is the per-station chance of reaching
    zero on an idle slot, the unknown of the fixed point.  A delivered
    packet counts down ``backoff_ticks`` idle slots and meets
    ``collisions_before_success`` collisions on average.
    """

    tau: float
    p: float
    p_b: float
    alpha: float
    p_after_idle: float
    p_after_collision: float
    drop_prob: float
    backoff_ticks: float
    collisions_before_success: float
    steps: SlotProbabilities
    iterations: int
    residual: float


class _PacketCycle(NamedTuple):
    """Per-packet means of one station at given attempt collision odds."""

    drop_prob: float
    attempts: float
    idle_attempts: float
    zero_after_collision: float
    decrements: float
    zero_share: float


def _packet_walk(p_idle, widths):
    """Walk one packet through the stages at after-idle odds ``p_idle``.

    A stage-i draw of zero (chance 1/W_i) transmits at once; any other draw
    counts down on idle slots and transmits on reaching zero.  At stage 0
    the draw follows the station's own success, so a zero there never
    collides, except after a drop, when the next packet starts at zero
    straight after the collision.  The terms of ``p_idle`` alone are taken
    here, once.  Returns three functions of the after-collision odds: the
    chance ``zero_share`` that a station leaving a collision transmits again
    at once, the whole ``_PacketCycle``, and ``delivered_counts``, the mean
    counter ticks and collisions of a delivered packet before its success.
    A packet reaches stage i + 1 with the collided share of stage i.  Every
    sum runs in stage order from its stage-0 term, the float that 0.0 plus
    that term gives.
    """
    head = p_idle * (widths[0] - 1) / widths[0]
    zero_next = [1.0 / w for w in widths[1:]] + [1.0]
    upper = [(p_idle * (w - 1) / w, w) for w in widths[1:]]
    first_next, later_next = zero_next[0], zero_next[1:]

    def stage_odds(p_zero):
        """Odds of stages 1..m, the drop chance, stage 0's collided share."""
        stage_p = [idle + p_zero / w for idle, w in upper]
        product = math.prod(stage_p)
        drop = head * product / (1.0 - (p_zero - head) * product)
        return stage_p, drop, head * (1.0 - drop) + p_zero * drop

    def zero_share(p_zero):
        stage_p, _, collided = stage_odds(p_zero)
        total, weighted = collided, collided * first_next
        for odds_i, next_i in zip(stage_p, later_next):
            collided *= odds_i
            total += collided
            weighted += collided * next_i
        return weighted / total if total > 0.0 else 0.0

    def cycle(p_zero):
        stage_p, drop, collided = stage_odds(p_zero)
        w = widths[0]
        attempts, zero_after = 1.0, 0.0
        idle_attempts = (1.0 - drop) * (w - 1) / w
        decrements = (1.0 - drop) * (w - 1) / 2.0
        total, weighted = collided, collided * first_next
        for odds_i, w, next_i in zip(stage_p, widths[1:], later_next):
            reach = collided
            attempts += reach
            idle_attempts += reach * (w - 1) / w
            decrements += reach * (w - 1) / 2.0
            zero_after += reach / w
            collided = reach * odds_i
            total += collided
            weighted += collided * next_i
        return _PacketCycle(
            drop_prob=drop, attempts=attempts, idle_attempts=idle_attempts,
            zero_after_collision=drop + zero_after, decrements=decrements,
            zero_share=weighted / total if total > 0.0 else 0.0,
        )

    def delivered_counts(p_zero):
        # a packet starts with a fresh stage-0 draw, also after a drop;
        # ``spent`` holds the ticks of the stages it collided at
        stage_p, _, _ = stage_odds(p_zero)
        reach, spent = 1.0, 0.0
        share = ticks = collisions = 0.0
        for i, (odds_i, w) in enumerate(zip([head, *stage_p], widths)):
            drawn = reach * (w - 1) / 2.0
            success = reach * (1.0 - odds_i)
            share += success
            ticks += spent * (1.0 - odds_i) + drawn * (1.0 - p_idle)
            collisions += i * success
            spent = spent * odds_i + drawn * p_idle
            reach *= odds_i
        # a stage-0 zero draw never collides: share >= 1 / W_0
        return ticks / share, collisions / share

    return zero_share, cycle, delivered_counts


def _after_collision(alpha, n_k):
    """Collision odds of attempts after an idle slot and after a collision.

    An attempt after an idle slot collides when one of the other n_k - 1
    stations reached zero on it too, with chance p_idle.  The station's
    co-colliders are those others, binomial(n_k - 1, alpha) given at least
    one; each of them transmits again at once with ``zero_share``.  Returns
    p_idle and the after-collision odds as a function of ``zero_share``,
    with the terms of ``alpha`` alone computed once.  The difference of
    powers (1 - alpha zero_share)^k - (1 - alpha)^k is taken through expm1
    to keep it accurate, and directly where the ratio of the powers passes
    the float range (n_k from about 1175 up).
    """
    k = n_k - 1
    log_idle = math.log1p(-alpha)
    log_none = k * log_idle
    none = math.exp(log_none)
    p_idle = -math.expm1(log_none)

    def odds(zero_share):
        log_zero = math.log1p(-alpha * zero_share)
        try:
            gain = math.expm1(k * (log_zero - log_idle))
        except OverflowError:
            return 1.0 - (math.exp(k * log_zero) - none) / p_idle
        return 1.0 - none * gain / p_idle

    return p_idle, odds


def _coupled_cycle(alpha, n_k, widths):
    """p_idle, the after-collision odds settled at ``alpha``, the packet
    cycle at them, and the walk's ``delivered_counts``.  Each pass walks
    the zero share alone; the whole packet is walked once, at the settled
    odds."""
    p_idle, odds = _after_collision(alpha, n_k)
    zero_share, cycle, delivered_counts = _packet_walk(p_idle, widths)
    p_zero = 0.0
    for _ in range(MAX_ITER):
        nxt = odds(zero_share(p_zero))
        if abs(nxt - p_zero) <= ZERO_ODDS_TOL:
            return p_idle, nxt, cycle(nxt), delivered_counts
        p_zero = nxt
    raise InfeasibleModelError(
        f"after-collision odds did not settle at alpha={alpha:.6g}"
    )


def _solution(alpha, n_k, p_idle, p_zero, cycle, counts_at, iterations,
              residual):
    """Split the steps of the packet ``cycle`` at the settled odds by outcome.

    One packet cycle of a station spans ``cycle.decrements`` idle slots.
    Collisions are counted as collided attempts over their mean size: a
    collision after an idle slot holds the stations that reached zero on
    it, binomial(n_k, alpha) given at least two; one among zeros drawn
    after a collision holds the station and the co-colliders that drew
    zero too.
    """
    idle = cycle.decrements
    delivered = 1.0 - cycle.drop_prob
    successes = n_k * delivered
    own_collided = cycle.attempts - delivered
    collisions = 0.0
    if n_k > 1:
        several = (1.0 - (1.0 - alpha) ** n_k
                   - n_k * alpha * (1.0 - alpha) ** (n_k - 1))
        collisions = cycle.idle_attempts * several / alpha
        if p_zero > 0.0:
            size = 1.0 + (n_k - 1) * alpha * cycle.zero_share / (p_idle * p_zero)
            collisions += n_k * cycle.zero_after_collision * p_zero / size
    total = idle + successes + collisions
    other_suc = successes - delivered
    # every collision involves the station when n_k = 2; clip the rounding
    other_col = max(collisions - own_collided, 0.0)
    seen = idle + other_suc + other_col
    steps = SlotProbabilities(
        p_idle=idle / total,
        p_suc=successes / total,
        p_col=collisions / total,
        po_idle=idle / seen if n_k > 1 else 1.0,
        po_suc=other_suc / seen if n_k > 1 else 0.0,
        po_col=other_col / seen if n_k > 1 else 0.0,
    )
    ticks, collided = counts_at(p_zero)
    return CoupledSolution(
        tau=cycle.attempts / total, p=own_collided / cycle.attempts,
        p_b=1.0 - steps.po_idle, alpha=alpha, p_after_idle=p_idle,
        p_after_collision=p_zero, drop_prob=cycle.drop_prob,
        backoff_ticks=ticks, collisions_before_success=collided,
        steps=steps, iterations=iterations, residual=residual,
    )


def solve_idle_slot_coupling(n_k, w0, m, window_rule="doubling"):
    """Bisect the per-idle-slot rate at which a station reaches zero.

    Each station reaches zero on an idle slot with chance ``alpha``, so an
    attempt after an idle slot collides with 1 - (1 - alpha)^(n_k - 1).
    Walking one packet through the stages at those odds gives its attempts
    after idle slots and its counter decrements; their ratio must reproduce
    ``alpha``.  Raises InfeasibleModelError where no stationary regime
    exists: with m = 0 colliders restart at zero and collide again without
    end, and with a one-slot stage-0 window a successful station keeps the
    channel.
    """
    if n_k < 1:
        raise ConfigError(f"n_k must be >= 1, got {n_k}")
    widths = window_sizes(w0, m, window_rule)
    if n_k == 1:
        _, cycle_at, counts_at = _packet_walk(0.0, widths)
        return _solution(0.0, 1, 0.0, 0.0, cycle_at(0.0), counts_at, 0, 0.0)
    if m == 0:
        raise InfeasibleModelError(
            "m=0 with two or more stations per sector: colliding stations "
            "restart at counter 0 and collide again without end"
        )
    if widths[0] == 1:
        raise InfeasibleModelError(
            "a one-slot stage-0 window lets a successful station transmit "
            "again at once and keep the channel"
        )

    def residual(alpha):
        p_idle, p_zero, cycle, counts_at = _coupled_cycle(alpha, n_k, widths)
        return (cycle.idle_attempts / cycle.decrements - alpha,
                p_idle, p_zero, cycle, counts_at)

    alpha, iterations, (g, *root) = _bisect(
        residual, TAU_EPS, 1.0 - TAU_EPS, "idle-slot coupling")
    return _solution(alpha, n_k, *root, iterations, abs(g))
