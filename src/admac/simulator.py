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
``fire = clock + counter`` in a heap of ``(fire, station)``.  An idle stretch
is one clock jump to the heap top; the stations at zero are the entries
whose ``fire`` equals the clock.  In the transmission-free tail of a window
(``gap`` slots) the entries at or below ``clock + gap`` are re-keyed: zeros
to ``clock + gap``, the rest to ``clock + gap + 1``.  numpy is imported
inside the functions that use it, so the analytic path never loads it.
"""

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .config import derive_sector_models, window_sizes
from .errors import ConfigError
from .metrics import PerformanceReport, aggregate_utilization

_BUFFER = 512
MAX_STATIONS = 1 << 20  # stream key (seed << 20) + station id stays unique


class _Stream:
    """Buffered per-station uniform-draw stream on a Philox generator."""

    def __init__(self, seed, station_id):
        import numpy as np

        self.gen = np.random.Generator(
            np.random.Philox(key=(seed << 20) + station_id)
        )
        self.buf = self.gen.random(_BUFFER).tolist()
        self.pos = 0

    def draw(self, width):
        """Uniform integer in [0, width - 1]."""
        if self.pos == _BUFFER:
            self.buf = self.gen.random(_BUFFER).tolist()
            self.pos = 0
        u = self.buf[self.pos]
        self.pos += 1
        return int(u * width)


@dataclass
class Station:
    """Mutable backoff state of one saturated station."""

    station_id: int
    sector: int
    stage: int
    counter: int
    enqueued_slot: int
    rng: _Stream = field(repr=False)


@dataclass(frozen=True)
class SectorSchedule:
    """Per-BI service windows: (start slot, length) per sector, in order."""

    windows: tuple
    bi_slots: int

    def __post_init__(self):
        cursor = 0
        for start, length in self.windows:
            if start < cursor or length < 1:
                raise ConfigError("sector windows must be disjoint and ordered")
            cursor = start + length
        if cursor > self.bi_slots:
            raise ConfigError("sector windows exceed the beacon interval")


def schedule_from_params(params):
    """Consecutive sector windows at the start of each beacon interval."""
    windows = []
    start = 0
    for length in params.cbap_split:
        windows.append((start, length))
        start += length
    return SectorSchedule(windows=tuple(windows), bi_slots=params.bi_slots)


def make_stations(params, seed):
    """Stations with fresh stage-0 draws and independent RNG streams."""
    if params.n > MAX_STATIONS:
        raise ConfigError(
            f"n must be <= {MAX_STATIONS} (2**20) so that per-station RNG "
            f"streams stay distinct across seeds, got {params.n}"
        )
    w0 = window_sizes(params.w0, params.m, params.window_rule)[0]
    stations = []
    sid = 0
    for sector, n_k in enumerate(params.sector_populations):
        for _ in range(n_k):
            rng = _Stream(seed, sid)
            stations.append(Station(
                station_id=sid, sector=sector, stage=0,
                counter=rng.draw(w0), enqueued_slot=0, rng=rng,
            ))
            sid += 1
    return stations


@dataclass(frozen=True)
class SimStats:
    """Per-sector counters and success-conditioned delays of one run."""

    seed: int
    num_bi: int
    sector_cbap_slots: tuple
    successes: tuple
    collisions: tuple
    idle_slots: tuple
    dropped: tuple
    attempts: tuple
    busy_time: tuple
    payload_time: tuple
    delays: tuple


def run_simulation(params, timings, seed, num_bi=200):
    """Simulate ``num_bi`` beacon intervals; deterministic in ``seed``."""
    import numpy as np

    if num_bi < 1:
        raise ConfigError(f"num_bi must be >= 1, got {num_bi}")
    derive_sector_models(params, timings)  # validates window vs frame fit
    schedule = schedule_from_params(params)
    stations = make_stations(params, seed)
    widths = window_sizes(params.w0, params.m, params.window_rule)
    w0 = widths[0]
    m = params.m
    nf = timings.n_frame_slots
    nc = math.ceil(timings.t_col / params.slot_time)
    sigma = params.slot_time

    successes, collisions, idles = [], [], []
    drops_all, attempts_all, delay_arrays = [], [], []
    for sector, (start, length) in enumerate(schedule.windows):
        members = [st for st in stations if st.sector == sector]
        draws = [st.rng.draw for st in members]
        stages = [0] * len(members)
        enqueued = [0] * len(members)
        heap = [(st.counter, k) for k, st in enumerate(members)]
        heapify(heap)
        clock = 0  # the sector's idle clock; counter = fire - clock
        last_start = length - nf

        n_suc = n_col = n_idle = n_drop = n_att = 0
        delays = []
        for bi in range(num_bi):
            base = bi * schedule.bi_slots + start
            t = 0
            while t < length:
                fire = heap[0][0]
                if fire == clock and t <= last_start:
                    # the stations at zero transmit: one succeeds, more collide
                    s = heappop(heap)[1]
                    if not heap or heap[0][0] != clock:
                        t += nf
                        end = base + t
                        n_suc += 1
                        n_att += 1
                        delays.append(end - enqueued[s])
                        enqueued[s] = end
                        stages[s] = 0
                        heappush(heap, (clock + draws[s](w0), s))
                        continue
                    t += nc
                    end = base + t
                    n_col += 1
                    colliders = [s]
                    while heap and heap[0][0] == clock:
                        colliders.append(heappop(heap)[1])
                    n_att += len(colliders)
                    for s in colliders:
                        stage = stages[s]
                        if stage == m:
                            n_drop += 1
                            stages[s] = 0
                            enqueued[s] = end
                            heappush(heap, (clock, s))
                        else:
                            stages[s] = stage + 1
                            heappush(heap, (
                                clock + draws[s](widths[stage + 1]), s))
                    continue
                if fire > clock and t + fire - clock <= last_start:
                    # idle jump to the next counter to reach zero
                    n_idle += fire - clock
                    t += fire - clock
                    clock = fire
                    continue
                # Transmission-free tail: counters sink to one and park.
                gap = length - t
                edge = clock + gap
                parked = []
                while heap and heap[0][0] <= edge:
                    fire, s = heappop(heap)
                    parked.append((edge if fire == clock else edge + 1, s))
                for entry in parked:
                    heappush(heap, entry)
                clock = edge
                n_idle += gap
                t = length

        successes.append(n_suc)
        collisions.append(n_col)
        idles.append(n_idle)
        drops_all.append(n_drop)
        attempts_all.append(n_att)
        delay_arrays.append(np.asarray(delays, dtype=np.float64) * sigma)

    return SimStats(
        seed=seed,
        num_bi=num_bi,
        sector_cbap_slots=tuple(params.cbap_split),
        successes=tuple(successes),
        collisions=tuple(collisions),
        idle_slots=tuple(idles),
        dropped=tuple(drops_all),
        attempts=tuple(attempts_all),
        busy_time=tuple(
            (s * nf + c * nc) * sigma
            for s, c in zip(successes, collisions)
        ),
        payload_time=tuple(s * timings.e_payload for s in successes),
        delays=tuple(delay_arrays),
    )


def empirical_report(stats, params):
    """Map run counters to utilization, delay, and drop statistics."""
    import numpy as np

    sigma = params.slot_time
    us, delays, drops = [], [], []
    for k, cbap_k in enumerate(stats.sector_cbap_slots):
        window_time = cbap_k * sigma * stats.num_bi
        us.append(stats.payload_time[k] / window_time)
        delays.append(
            float(np.mean(stats.delays[k])) if stats.delays[k].size else None
        )
        finished = stats.successes[k] + stats.dropped[k]
        drops.append(stats.dropped[k] / finished if finished else None)
    return PerformanceReport(
        per_sector_u=tuple(us),
        aggregate_u=aggregate_utilization(
            list(zip(us, stats.sector_cbap_slots))
        ),
        per_sector_delay=tuple(delays),
        per_sector_drop_prob=tuple(drops),
        diagnostics=(),
    )
