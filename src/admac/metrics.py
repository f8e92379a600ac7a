"""Channel utilization and MAC delay from a coupled operating point.

Utilization weighs the payload airtime of successful steps against the
real-time cost of idle, success, and collision steps; delay sums the
per-stage service time over the stages at which packets are delivered.
Real time enters through the mean embedded-step duration ``sigma_avg``,
which charges each step its share of the out-of-period gap.  ``analyze``
charges busy steps the slot-quantized durations the simulator charges.
"""

from dataclasses import dataclass

from .config import (derive_sector_models, derive_timings, slot_quantized,
                     window_sizes)
from .errors import InfeasibleModelError
from .markov import solve_idle_slot_coupling
from .numeric import left_sum


@dataclass(frozen=True)
class PerformanceReport:
    """Per-sector and network utilization, delay, and drop statistics.

    ``aggregate_u``, ``mean_delay`` and ``drop_prob`` are the network values
    a result row prints.  ``analyze`` weights the sectors' values by service
    period; ``empirical_report`` weights ``u`` so, and gives the mean delay
    of every delivered packet and the dropped share of finished packets, or
    ``None`` when there are none."""

    per_sector_u: tuple
    aggregate_u: float
    per_sector_delay: tuple
    mean_delay: float
    per_sector_drop_prob: tuple
    drop_prob: float
    diagnostics: tuple


def sector_utilization(sp, timings, slot_time):
    """Fraction of sector time carrying successful payload."""
    busy = (
        sp.p_idle * slot_time
        + sp.p_suc * timings.t_suc
        + sp.p_col * timings.t_col
    )
    return sp.p_suc * timings.t_data / busy


def aggregate_utilization(per_sector):
    """Service-period-weighted mean of (u_k, cbap_k_slots) pairs."""
    total = sum(c for _, c in per_sector)
    if total <= 0:
        raise InfeasibleModelError("aggregate needs positive service periods")
    if len(per_sector) == 1:
        return per_sector[0][0]  # u * c / c can be one ulp off u
    return left_sum(u * c for u, c in per_sector) / total


def sigma_avg(sp, timings, sector, params):
    """Mean real-time duration of one embedded chain step.

    ``p_h`` is a per-slot hazard, and a step lasts as many slots as the
    slot type the other stations produce, so a step hits the sector
    boundary with chance 1 - (1 - p_h)^(step slots) and then pays the whole
    out-of-period gap.
    """
    sigma = params.slot_time
    in_period = (
        sp.po_idle * sigma
        + sp.po_suc * timings.t_suc
        + sp.po_col * timings.t_col
    )
    hazard = 1.0 - (1.0 - sector.p_h) ** (in_period / sigma)
    gap = (params.bi_slots - sector.cbap_k_slots) * sigma
    return (1.0 - hazard) * in_period + hazard * gap


def expected_delay(sol, timings, sector, params):
    """Mean MAC delay of packets that are eventually delivered.

    ``sol`` is the sector's ``CoupledSolution``.  A packet delivered at
    stage i costs i collisions, one success, and the backoff counted down
    at stages 0..i, each counter tick lasting sigma_avg of ``sol.steps``
    over the decrement probability.  A zero draw transmits at once: at
    stage 0 it follows the station's own success and never collides, and
    at a later stage it follows its own collision and collides at
    ``p_after_collision``.  Any other draw of a width-W window counts down
    W/2 ticks on average, and its attempt collides at ``p_after_idle``.
    Every packet starts with a stage-0 draw: the restart at counter 0 that
    follows a drop is left out of the delay.
    """
    advance = 1.0 - sol.p_b - sector.p_h
    if advance <= 0.0:
        raise InfeasibleModelError(
            f"saturation leaves no decrement probability: p_b={sol.p_b}, "
            f"p_h={sector.p_h}"
        )
    widths = window_sizes(params.w0, params.m, params.window_rule)
    tick = sigma_avg(sol.steps, timings, sector, params) / advance
    p_idle = sol.p_after_idle
    reach = 1.0      # chance the packet gets to the stage
    spent = 0.0      # backoff time spent before the stage, times reach
    delivered = 0.0
    delay = 0.0
    for i, w in enumerate(widths):
        counted = (w - 1.0) / w
        zero_odds = sol.p_after_collision if i else 0.0
        collide = counted * p_idle + zero_odds / w
        ticks = w / 2.0 * tick
        success = reach * (1.0 - collide)
        delivered += success
        delay += (spent * (1.0 - collide)
                  + reach * counted * (1.0 - p_idle) * ticks
                  + success * (i * timings.t_col + timings.t_suc))
        spent = spent * collide + reach * counted * p_idle * ticks
        reach *= collide
    if delivered <= 0.0:
        raise InfeasibleModelError("no packet is ever delivered")
    return delay / delivered


def analyze(params):
    """Full analytical report for one parameter set."""
    timings = derive_timings(params)
    sectors = derive_sector_models(params, timings)
    charged = slot_quantized(timings, params.slot_time)
    us, delays, drops, sols = [], [], [], []
    solved = {}  # the coupling depends on the sector only through n_k
    for sector in sectors:
        sol = solved.get(sector.n_k)
        if sol is None:
            sol = solved[sector.n_k] = solve_idle_slot_coupling(
                sector.n_k, params.w0, params.m,
                window_rule=params.window_rule,
            )
        us.append(sector_utilization(sol.steps, charged, params.slot_time))
        delays.append(expected_delay(sol, charged, sector, params))
        drops.append(sol.drop_prob)
        sols.append(sol)
    weights = [s.cbap_k_slots for s in sectors]
    total = sum(weights)
    return PerformanceReport(
        per_sector_u=tuple(us),
        aggregate_u=aggregate_utilization(list(zip(us, weights))),
        per_sector_delay=tuple(delays),
        mean_delay=left_sum(d * c for d, c in zip(delays, weights)) / total,
        per_sector_drop_prob=tuple(drops),
        drop_prob=left_sum(d * c for d, c in zip(drops, weights)) / total,
        diagnostics=tuple(sols),
    )
