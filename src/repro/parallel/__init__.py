"""Deterministic parallel execution of independent sweep points."""

from repro.parallel.runner import Sweep, default_jobs, run_indexed

__all__ = ["Sweep", "default_jobs", "run_indexed"]
