"""Channel utilization and MAC delay from a coupled operating point.

Utilization weighs the payload airtime of successful steps against the
real-time cost of idle, success, and collision steps; delay prices the
backoff ticks and collisions that the coupled solution counts for a
delivered packet.  Real time enters through the mean embedded-step
duration ``sigma_avg``, which charges each step its share of the
out-of-period gap.  ``analyze`` charges busy steps the slot-quantized
durations the simulator charges, and weights every network value by
service period.
"""

from typing import NamedTuple

from .config import derive_sector_models, derive_timings, slot_quantized
from .errors import InfeasibleModelError
from .markov import solve_idle_slot_coupling
from .numeric import left_sum


class PerformanceReport(NamedTuple):
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


def service_weighted_mean(values, weights):
    """Mean of per-sector values weighted by their service periods."""
    total = sum(weights)
    if total <= 0:
        raise InfeasibleModelError("aggregate needs positive service periods")
    if len(values) == 1:
        return values[0]  # v * c / c can be one ulp off v
    return left_sum(v * c for v, c in zip(values, weights)) / total


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

    ``sol`` is the sector's ``CoupledSolution``, which counts the backoff
    ticks and the collisions of a delivered packet before its success.  A
    tick lasts sigma_avg of ``sol.steps`` over the decrement probability,
    and each collision and the success last their exchange times.
    """
    advance = 1.0 - sol.p_b - sector.p_h
    if advance <= 0.0:
        raise InfeasibleModelError(
            f"saturation leaves no decrement probability: p_b={sol.p_b}, "
            f"p_h={sector.p_h}"
        )
    tick = sigma_avg(sol.steps, timings, sector, params) / advance
    return (sol.backoff_ticks * tick
            + sol.collisions_before_success * timings.t_col + timings.t_suc)


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
    return PerformanceReport(
        per_sector_u=tuple(us),
        aggregate_u=service_weighted_mean(us, weights),
        per_sector_delay=tuple(delays),
        mean_delay=service_weighted_mean(delays, weights),
        per_sector_drop_prob=tuple(drops),
        drop_prob=service_weighted_mean(drops, weights),
        diagnostics=tuple(sols),
    )
