"""Output checks of the benchmark, each against an independent reference.

Every check compares a program output with a value computed here from
first principles, or with a property the method must have.  None compares
with stored output.  A failed check raises ``CheckFailed``.
"""

import math

# Default scenario (README "Configuration"): RTS/CTS exchange at a
# 27.5 Mb/s control rate, 7995-byte MSDUs at 2 Gb/s, 5 us slots.
SLOT_S = 5e-6
SIFS_S = 2.5e-6
DIFS_S = 13.5e-6
CONTROL_RATE = 27.5e6
DATA_RATE = 2e9
RTS_BYTES, CTS_BYTES, ACK_BYTES, MSDU_BYTES = 20, 26, 14, 7995

ANALYTIC_LONE_TOL = 1e-9
SIM_LONE_TOL = 0.01
SIM_VS_ANALYTIC_TOL = 0.05
ORACLE_TOL = 1e-6


class CheckFailed(AssertionError):
    """A program output disagrees with its reference."""


def renewal_u(w0):
    """Utilization of one saturated station alone in its sector.

    Each packet waits a uniform stage-0 draw, (W0 - 1) / 2 idle slots on
    average, and then takes one exchange rounded up to whole slots; it
    never collides, so the stage never rises.
    """
    t_data = 8.0 * MSDU_BYTES / DATA_RATE
    t_suc = (8.0 * (RTS_BYTES + CTS_BYTES + ACK_BYTES) / CONTROL_RATE
             + 2.0 * SIFS_S + DIFS_S + t_data)
    return t_data / ((w0 - 1) / 2.0 * SLOT_S + math.ceil(t_suc / SLOT_S) * SLOT_S)


def _relative(value, reference):
    return abs(value - reference) / abs(reference)


def check_lone_station(u, w0, tol, what):
    """A lone station's utilization matches the renewal formula."""
    reference = renewal_u(w0)
    if not _relative(u, reference) <= tol:
        raise CheckFailed(f"{what}: lone-station u {u!r} is not within "
                          f"{tol} of the renewal value {reference!r}")


def check_ranges(u, drop_prob, what):
    """Utilization lies in (0, 1) and a drop share in [0, 1]."""
    if not 0.0 < u < 1.0:
        raise CheckFailed(f"{what}: u {u!r} outside (0, 1)")
    if drop_prob is not None and not 0.0 <= drop_prob <= 1.0:
        raise CheckFailed(f"{what}: drop_prob {drop_prob!r} outside [0, 1]")


def check_share_invariance(u_by_share, what):
    """With one sector, the analytic utilization ignores the contention share.

    The coupling depends only on (n_k, w0, m, window rule), and the sector
    utilization on the coupling alone, so the values must be identical.
    """
    if len(set(u_by_share.values())) != 1:
        raise CheckFailed(f"{what}: u differs across contention shares: "
                          f"{sorted(u_by_share.items())}")


def check_delay_rises(delay_by_share, what):
    """The analytic delay rises strictly as the contention share falls."""
    shares = sorted(delay_by_share, reverse=True)
    delays = [delay_by_share[s] for s in shares]
    for (s_hi, d_hi), (s_lo, d_lo) in zip(zip(shares, delays),
                                          zip(shares[1:], delays[1:])):
        if not d_lo > d_hi:
            raise CheckFailed(f"{what}: delay {d_lo!r} at share {s_lo} does "
                              f"not exceed {d_hi!r} at share {s_hi}")


def check_sector_gain(u_sectored, u_single, what):
    """Splitting stations over sectors raises utilization at n >= 30."""
    if not u_sectored > u_single:
        raise CheckFailed(f"{what}: sectored u {u_sectored!r} does not beat "
                          f"single-sector u {u_single!r}")


def check_sim_vs_analytic(u_sim, u_analytic, what):
    """A simulated utilization lies within 5% of the analytic one."""
    if not _relative(u_sim, u_analytic) <= SIM_VS_ANALYTIC_TOL:
        raise CheckFailed(f"{what}: simulated u {u_sim!r} is not within "
                          f"{SIM_VS_ANALYTIC_TOL:.0%} of analytic u "
                          f"{u_analytic!r}")


def check_oracle_row(row, what):
    """Closed form and explicit chain agree on b000 and tau to 1e-6.

    The relative errors are recomputed from the four values rather than
    read from the row.
    """
    for name in ("b000", "tau"):
        closed, oracle = row[f"{name}_closed"], row[f"{name}_oracle"]
        if not _relative(closed, oracle) <= ORACLE_TOL:
            raise CheckFailed(f"{what}: closed-form {name} {closed!r} vs "
                              f"oracle {oracle!r} exceeds {ORACLE_TOL}")


def check_slot_conservation(stats, n_frame_slots, n_col_slots, what):
    """Every contention slot of a run is idle, a success or a collision."""
    for k, window in enumerate(stats.sector_cbap_slots):
        used = (stats.idle_slots[k] + n_frame_slots * stats.successes[k]
                + n_col_slots * stats.collisions[k])
        if used != window * stats.num_bi:
            raise CheckFailed(f"{what}: sector {k} accounts for {used} slots, "
                              f"expected {window} x {stats.num_bi}")
