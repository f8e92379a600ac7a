"""Shared fixtures: a lazily built bank of full-size simulation runs.

Full-size runs (10 seeds x 200 beacon intervals at the default timing) are
expensive, and several test modules plus the acceptance gate share the same
configurations, so the bank caches them per session and only simulates the
configurations a given test actually requests.  A test asks for all of its
configurations at once, and the missing runs are built on every CPU this
process may run on; each station has its own random stream, so neither the
order nor the process changes a run.
"""

import numpy as np
import pytest

from admac import derive_timings, empirical_report, make_params, run_simulation
from admac.cli import _map

SEEDS = tuple(range(10))
NUM_BI = 200
BANK_BI_SLOTS = 20000


def bank_params(w0=7, n=10, cbap_fraction=0.4, q=1):
    """Default-timing parameter set used by the bank configurations."""
    return make_params(
        n=n, q=q, w0=w0,
        bi_slots=BANK_BI_SLOTS,
        cbap_slots=round(cbap_fraction * BANK_BI_SLOTS),
    )


def mean_sim_u(runs, params):
    """Across-seed mean of the aggregate empirical utilization."""
    return float(np.mean([
        empirical_report(stats, params).aggregate_u for stats in runs
    ]))


def sim_delays_mean(stats):
    """All-packet mean delay of one run in slots, None when nothing
    succeeded."""
    delivered = sum(map(len, stats.delays))
    return sum(map(sum, stats.delays)) / delivered if delivered else None


def tau_hat(stats, n_k, sector=0):
    """Attempts per station per embedded step in one sector."""
    steps = (stats.idle_slots[sector] + stats.successes[sector]
             + stats.collisions[sector])
    return stats.attempts[sector] / (n_k * steps)


def chain_states(widths):
    """States of the explicit chain in row order, one stage after another.

    Stage i of window width w contributes its head (i, 0, 0), its counters
    (i, j, 0) for j = 1 .. w - 1, then their suspended twins (i, j, -1) in
    the same order.
    """
    states = []
    for i, w in enumerate(widths):
        states.append((i, 0, 0))
        states.extend((i, j, 0) for j in range(1, w))
        states.extend((i, j, -1) for j in range(1, w))
    return states


def _bank_run(task):
    """One 200-BI run of a bank configuration (w0, n, cbap_fraction, q)."""
    key, seed = task
    params = bank_params(*key)
    return run_simulation(params, derive_timings(params), seed, NUM_BI)


class SimBank:
    """Cache of 10-seed, 200-BI runs keyed by (w0, n, cbap_fraction, q)."""

    def __init__(self):
        self._cache = {}

    def prefetch(self, keys):
        """Build the runs of every missing configuration in one pool of at
        most one process per usable CPU, serially on one CPU."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._cache]
        tasks = [(key, seed) for key in missing for seed in SEEDS]
        runs = iter(_map(_bank_run, tasks, len(tasks)))
        for key in missing:
            self._cache[key] = tuple(next(runs) for _ in SEEDS)

    def runs(self, w0=7, n=10, cbap_fraction=0.4, q=1):
        key = (w0, n, cbap_fraction, q)
        self.prefetch([key])
        return self._cache[key]

    def cached(self):
        return dict(self._cache)


@pytest.fixture(scope="session")
def sim_bank():
    return SimBank()
