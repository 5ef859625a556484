"""Experiment harness regenerating every paper table and figure."""

from . import experiments
from .curves import curve_points, speedup_at_score, time_to_reach
from .harness import (
    ALL_METHODS,
    active_run_store,
    bench_config,
    bench_dataset,
    bench_profile,
    format_table,
    make_method,
    resume_enabled,
    run_methods,
    run_single,
    set_run_store,
)
from .multi_seed import SeedSweep, format_seed_sweep, run_multi_seed
from .stats import improvement_pvalues, paired_pvalue

__all__ = [
    "experiments",
    "ALL_METHODS",
    "bench_profile",
    "bench_config",
    "bench_dataset",
    "make_method",
    "active_run_store",
    "resume_enabled",
    "set_run_store",
    "run_single",
    "run_methods",
    "format_table",
    "paired_pvalue",
    "improvement_pvalues",
    "curve_points",
    "time_to_reach",
    "speedup_at_score",
    "SeedSweep",
    "run_multi_seed",
    "format_seed_sweep",
]
