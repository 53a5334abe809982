"""Seeded parallel-purity violations around the sweep entry point:
golden fixture for the effects pass.  Analyzed as
``repro.experiments.fixture_impure_sweep`` — the first two runner calls
below fire once each, the third stays silent."""

from repro.parallel import Sweep, run_indexed

SEEN = []


def tally_run(seed, policy):
    # Impure: records every point in a module-global list.
    SEEN.append((seed, policy))
    return seed


def pure_run(seed, policy):
    return seed, policy


def relay(worker, items):
    # The worker arrives through a parameter: its purity is unchecked.
    return run_indexed(worker, items, jobs=2)


def launch(seeds, policies):
    impure = Sweep.run_grid(tally_run, seeds, policies, jobs=2)
    pure = Sweep.run_grid(pure_run, seeds, policies, jobs=2)
    return impure, pure
