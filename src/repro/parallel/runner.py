"""Deterministic fan-out over independent sweep points.

Every sweep in this repo — experiment grid points, chaos
``(seed, policy)`` pairs, sensitivity perturbations — shares one shape:
a list of *independent* points, each booting its own simulated machine
and returning a picklable result.  This module runs such a list across
a process pool while guaranteeing the output is byte-identical to the
serial run:

* Each point is tagged with its index before submission.
* Workers may finish in any order (``imap_unordered``), but results are
  re-sorted by that index before being returned — the *canonical merge
  order* the ``determinism/parallel-merge`` analyzer rule enforces.
* Workers are plain top-level functions over picklable arguments, so
  the ``fork`` and ``spawn`` start methods behave identically.
* Each point's simulation owns a private :class:`~repro.clock.Clock`
  and RNGs seeded from the point itself, so nothing about scheduling,
  process identity, or wall time can reach a result.

With ``jobs <= 1`` the pool is bypassed entirely — a plain in-process
loop — which is both the fallback and the reference the determinism
tests compare against.  :class:`Sweep` builds the seeded sweep of the
chaos campaign and the service sweeps on it.
"""

from __future__ import annotations

import gc
import multiprocessing
from collections import Counter
from dataclasses import dataclass, field


def default_jobs():
    """A sensible ``--jobs`` default: the machine's core count."""
    try:
        return max(1, multiprocessing.cpu_count())
    except NotImplementedError:
        return 1


def _run_task(fn, item):
    """``fn(item)`` as :func:`run_indexed` runs it: the collector
    paused, then one young collection whether ``fn`` returns or
    raises."""
    if not gc.isenabled():
        return fn(item)
    gc.disable()
    try:
        return fn(item)
    finally:
        gc.collect(0)
        gc.enable()


def _invoke(task):
    """Pool worker: run one indexed point.  Top-level so it pickles."""
    index, fn, item = task
    return index, _run_task(fn, item)


def _task_index(pair):
    return pair[0]


def run_indexed(fn, items, jobs=1):
    """``[fn(x) for x in items]``, fanned out over ``jobs`` processes.

    Results are merged in item order regardless of completion order,
    so the returned list is identical to the serial evaluation.  ``fn``
    must be picklable (a module-level function or ``functools.partial``
    of one) and must not rely on mutable global state — each worker
    process gets its own interpreter.

    Each call of ``fn``, in-process or in a worker, runs with the
    cyclic collector paused and is followed by one ``gc.collect(0)``.
    A booted machine is a web of reference cycles (the CPU holds its
    kernel, an enclave its runtime), so only the collector frees it;
    left on, it would re-scan the machines a task still uses every few
    hundred allocations.  A task returns plain data, so the machines it
    booted die with it and that one young collection frees them all.
    A collector the caller disabled is left alone.
    """
    items = list(items)
    if jobs is None:
        jobs = 1
    if jobs <= 1 or len(items) <= 1:
        return [_run_task(fn, item) for item in items]

    # ``fork`` is cheapest and inherits the loaded modules; fall back
    # to the platform default (spawn) where fork is unavailable.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()

    tasks = [(i, fn, item) for i, item in enumerate(items)]
    nproc = min(jobs, len(tasks))
    with ctx.Pool(processes=nproc) as pool:
        indexed = sorted(pool.imap_unordered(_invoke, tasks),
                         key=_task_index)
    return [result for _, result in indexed]


def _run_point(task):
    """Pool worker for one sweep point: its result, and its rerun's
    digest when determinism checking is on."""
    run, seed, policy, check = task
    result = run(seed, policy)
    return result, run(seed, policy).digest if check else None


@dataclass
class Sweep:
    """``run(seed, policy)`` over seeds × policies.  ``points`` holds
    ``(seed, policy, result)`` seed-outer, policy-inner at any ``jobs``
    width; each result has a ``digest`` and ``violations``.  A point
    whose from-scratch rerun ends with another digest is recorded in
    ``determinism_failures`` as ``(seed, policy, first, second)``."""

    points: list = field(default_factory=list)
    determinism_failures: list = field(default_factory=list)

    @classmethod
    def run_grid(cls, run, seeds, policies, check_determinism=True,
                 jobs=1):
        """Run the sweep.  ``run`` travels with every task, so it must
        pickle: a module-level function or a ``partial`` of one."""
        grid = [(seed, policy) for seed in seeds for policy in policies]
        tasks = [(run, seed, policy, check_determinism)
                 for seed, policy in grid]
        sweep = cls()
        for (seed, policy), (result, rerun_digest) in zip(
                grid, run_indexed(_run_point, tasks, jobs=jobs)):
            if rerun_digest is not None and rerun_digest != result.digest:
                sweep.determinism_failures.append(
                    (seed, policy, result.digest, rerun_digest))
            sweep.points.append((seed, policy, result))
        return sweep

    @property
    def violations(self):
        """``(seed, policy, message)`` per safety-invariant breach."""
        return [(seed, policy, message)
                for seed, policy, result in self.points
                for message in result.violations]

    @property
    def ok(self):
        return not self.violations and not self.determinism_failures

    def count(self, key):
        """Points per ``key(result)``, sorted by key."""
        return dict(sorted(Counter(
            key(result) for _, _, result in self.points).items()))

    def failure_lines(self, heading="SAFETY-INVARIANT VIOLATIONS"):
        """The text report of what failed."""
        lines = []
        if self.violations:
            lines.append(f"{heading}:")
            lines += [f"  seed={seed} policy={policy}: {message}"
                      for seed, policy, message in self.violations]
        if self.determinism_failures:
            lines.append("DETERMINISM FAILURES:")
            lines += [f"  seed={seed} policy={policy}: {first} != {second}"
                      for seed, policy, first, second
                      in self.determinism_failures]
        return lines

    def failure_report(self):
        """The JSON report of what failed."""
        return {
            "violations": [
                {"seed": seed, "policy": policy, "message": message}
                for seed, policy, message in self.violations
            ],
            "determinism_failures": [
                {"seed": seed, "policy": policy, "digests": [first, second]}
                for seed, policy, first, second in self.determinism_failures
            ],
        }
