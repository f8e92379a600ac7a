"""Slot-level simulator of saturated CSMA/CA inside sectored periods.

Time is a global integer slot clock.  Within a sector's service window,
every station whose counter is zero transmits; one transmitter is a success
consuming ceil(t_suc / slot) slots, two or more are a collision consuming
ceil(t_col / slot) slots, and an idle slot decrements every counter by one.
A transmission may start only when the remaining window still fits a full
exchange, so the final stretch of each window is provably transmission-free
and counters there sink to one (the deferral rule) while zeros wait for the
next window.  Outside its sector window a station is frozen.

Because idle decrements are lockstep, each sector keeps one idle clock that
advances only on idle slots, and stores each counter as its firing time
``fire = clock + counter``: station ``s`` sits in bucket ``fire & mask`` of a
ring of ``mask + 1`` lists, a calendar queue (Brown, CACM 1988).  The
stations at zero are the bucket at the clock; an idle stretch is a forward
scan to the next non-empty bucket, bounded by the last slot at which an
exchange still fits.  Past that bound the window enters its tail of ``gap``
slots: the buckets up to ``edge = clock + gap`` are emptied, zeros go to
``edge`` and the rest to ``edge + 1``.  The ring holds at least
``min(W_m, window + 2)`` buckets.  A draw at or beyond the ring size waits
in an overflow list, which moves into the ring at each window start: one
window advances the clock by at most its length, so no waiting station
comes due inside it, and memory does not grow with ``W_m``.  Each station
draws from its own MT19937 stream (``random.Random``), so the order inside
a bucket cannot change a result.  Delays are counted in slots, and no
numpy is loaded.
"""

from itertools import accumulate
from random import Random
from typing import NamedTuple

from .config import derive_sector_models, derive_timings, window_sizes
from .errors import ConfigError
from .metrics import PerformanceReport, service_weighted_mean

MAX_STATIONS = 1 << 20  # stream key (seed << 20) + station id stays unique


def _streams(seed, station_ids):
    """The ``random`` of each station's stream of uniform doubles, in order.

    Station ``sid`` reads ``Random((seed << 20) + sid)``, CPython's MT19937
    seeded from the key's bits; its sequence for an int seed is the same on
    every Python version.
    """
    return [Random((seed << 20) + sid).random for sid in station_ids]


class SimStats(NamedTuple):
    """Per-sector counters of one run; ``delays`` holds each sector's tuple
    of per-packet delays in slots, from enqueue to the end of the success."""

    num_bi: int
    sector_cbap_slots: tuple
    successes: tuple
    collisions: tuple
    idle_slots: tuple
    dropped: tuple
    attempts: tuple
    delays: tuple


def run_simulation(params, timings, seed, num_bi=200):
    """Simulate ``num_bi`` beacon intervals; deterministic in ``seed``."""
    if num_bi < 1:
        raise ConfigError(f"num_bi must be >= 1, got {num_bi}")
    if params.n > MAX_STATIONS:
        raise ConfigError(
            f"n must be <= {MAX_STATIONS} (2**20) so that per-station RNG "
            f"streams stay distinct across seeds, got {params.n}"
        )
    if seed < 0:
        raise ConfigError(
            f"seed must be >= 0: a stream is seeded from the absolute value "
            f"of its key (seed << 20) + station id, got {seed}"
        )
    derive_sector_models(params, timings)  # validates window vs frame fit
    streams = _streams(seed, range(params.n))
    widths = window_sizes(params.w0, params.m, params.window_rule)
    w0 = widths[0]
    m = params.m
    nf = timings.n_frame_slots
    nc = timings.n_col_slots

    successes, collisions, idles = [], [], []
    drops_all, attempts_all, delays_all = [], [], []
    first = 0
    # the sector windows run back to back from the start of each interval
    for start, length, n_k in zip(accumulate(params.cbap_split, initial=0),
                                  params.cbap_split,
                                  params.sector_populations):
        draws = streams[first:first + n_k]
        first += n_k
        # every counter below W_m fits, or else every fire one window can
        # reach, up to the tail's edge + 1
        size = 1 << (max(2, min(widths[-1], length + 2)) - 1).bit_length()
        mask = size - 1
        ring = [[] for _ in range(size)]
        # (fire, station) at or beyond the ring; every station starts here
        overflow = [(int(draw() * w0), s) for s, draw in enumerate(draws)]
        stages = [0] * n_k
        enqueued = [0] * n_k
        # The sector's idle clock: it advances only on idle slots, so a
        # counter is ``fire - clock`` and the idle slots add up to the clock.
        clock = 0
        n_col = n_collided = n_drop = 0
        delays = []
        for bi in range(num_bi):
            # the clock advances at most ``length`` in a window, so a
            # station due at or beyond ``clock + size`` waits for the next
            if overflow:
                waiting, overflow = overflow, []
                for fire, s in waiting:
                    if fire - clock < size:
                        ring[fire & mask].append(s)
                    else:
                        overflow.append((fire, s))
            # ``limit``: the last clock reading at which an exchange still
            # fits; ``close - limit + clock`` is the current global slot.
            limit = clock + length - nf
            close = bi * params.bi_slots + start + length - nf
            while True:
                here = clock & mask
                bucket = ring[here]
                if not bucket or clock > limit:
                    # idle stretch: scan to the next counter to reach zero
                    fire = clock + 1
                    while fire <= limit and not ring[fire & mask]:
                        fire += 1
                    if fire <= limit:
                        clock = fire
                        here = fire & mask
                        bucket = ring[here]
                    else:
                        # Transmission-free tail: counters sink to one and
                        # park.  The buckets before ``fire`` are empty; those
                        # from it up to the edge move to edge + 1, the zeros
                        # to the edge.  No tail when an exchange ended the
                        # window.
                        gap = limit + nf - clock
                        if gap > 0:
                            edge = clock + gap
                            parked = ring[here]
                            ring[here] = []
                            ones = []
                            for k in range(fire, clock + min(gap, mask) + 1):
                                bucket = ring[k & mask]
                                if bucket:
                                    ones += bucket
                                    bucket.clear()
                            ring[edge & mask] = parked
                            ring[(edge + 1) & mask] += ones
                            clock = edge
                        break
                # the stations at zero transmit: one succeeds, more collide
                s = bucket.pop()
                if not bucket:
                    limit -= nf
                    end = close - limit + clock
                    delays.append(end - enqueued[s])
                    enqueued[s] = end
                    stages[s] = 0
                    c = int(draws[s]() * w0)
                    if c < size:
                        ring[(clock + c) & mask].append(s)
                    else:
                        overflow.append((clock + c, s))
                    continue
                bucket.append(s)
                ring[here] = []
                limit -= nc
                end = close - limit + clock
                n_col += 1
                n_collided += len(bucket)
                for s in bucket:
                    stage = stages[s]
                    if stage == m:
                        n_drop += 1
                        stages[s] = 0
                        enqueued[s] = end
                        ring[here].append(s)
                        continue
                    stages[s] = stage + 1
                    c = int(draws[s]() * widths[stage + 1])
                    if c < size:
                        ring[(clock + c) & mask].append(s)
                    else:
                        overflow.append((clock + c, s))

        n_suc = len(delays)
        successes.append(n_suc)
        collisions.append(n_col)
        idles.append(clock)
        drops_all.append(n_drop)
        attempts_all.append(n_suc + n_collided)
        delays_all.append(tuple(delays))

    return SimStats(
        num_bi=num_bi,
        sector_cbap_slots=tuple(params.cbap_split),
        successes=tuple(successes),
        collisions=tuple(collisions),
        idle_slots=tuple(idles),
        dropped=tuple(drops_all),
        attempts=tuple(attempts_all),
        delays=tuple(delays_all),
    )


def empirical_report(stats, params):
    """Map run counters to utilization, delay, and drop statistics.

    Each mean delay is the exact integer total of its slots times
    ``slot_time``, over the packet count.
    """
    sigma = params.slot_time
    t_data = derive_timings(params).t_data
    us, delays, drops, totals = [], [], [], []
    for k, cbap_k in enumerate(stats.sector_cbap_slots):
        window_time = cbap_k * sigma * stats.num_bi
        us.append(stats.successes[k] * t_data / window_time)
        sector = stats.delays[k]
        totals.append(sum(sector))
        delays.append(totals[-1] * sigma / len(sector) if sector else None)
        finished = stats.successes[k] + stats.dropped[k]
        drops.append(stats.dropped[k] / finished if finished else None)
    delivered = sum(map(len, stats.delays))
    finished = sum(stats.successes) + sum(stats.dropped)
    return PerformanceReport(
        per_sector_u=tuple(us),
        aggregate_u=service_weighted_mean(us, stats.sector_cbap_slots),
        per_sector_delay=tuple(delays),
        mean_delay=sum(totals) * sigma / delivered if delivered else None,
        per_sector_drop_prob=tuple(drops),
        drop_prob=sum(stats.dropped) / finished if finished else None,
        diagnostics=(),
    )
