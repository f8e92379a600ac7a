"""Analytical model and simulator for CSMA/CA in sectored service periods.

Saturated stations contend inside their sector's share of a repeating
beacon interval; backoff counters freeze outside it.  The package computes
saturation throughput and MAC delay from a per-station Markov chain, checks
the closed form against an explicit-chain oracle, and cross-validates both
against a deterministic slot-level simulator.

The names below load their submodule on first use (PEP 562), so that
``import admac`` costs no more than the names a caller touches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AdmacError", "ConfigError", "InfeasibleModelError",
               "InternalConsistencyError", "OracleError", "OracleSizeError",
               "ValidationError"),
    "config": ("ModelParams", "SectorModel", "TimingDurations",
               "derive_sector_models", "derive_timings", "make_params",
               "window_sizes"),
    "markov": ("CoupledSolution", "FixedPointSolution", "SlotProbabilities",
               "solve_fixed_point", "solve_idle_slot_coupling"),
    "chain": ("DEFAULT_GRID", "ExplicitChain", "build_chain",
              "stationary_distribution", "validation_report"),
    "metrics": ("PerformanceReport", "analyze", "expected_delay",
                "sector_utilization", "service_weighted_mean", "sigma_avg"),
    "simulator": ("SimStats", "empirical_report", "run_simulation"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
