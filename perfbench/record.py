"""Regenerate ``references.json``, the outputs the benchmark checks against.

Run from the repository root after a change that is meant to alter the
simulated model (never after a pure speed-up)::

    python3 perfbench/record.py

* ``kv_resident`` / ``kv_paging``: the fingerprint after the checked work
  of every input variant, computed on the tier-``off`` reference path
  (no translation memo, no columnar interpreter) and required to equal
  the default tier's.
* ``svc_pool``: the digest of every service seed × policy point a run can
  pick.  Seeds 0–5 are checked against ``BENCH_service.json`` instead,
  so they are only verified here, not stored.
* ``explore``: digest, state and transition counts per world.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from repro.service.router import EnclaveService  # noqa: E402
from repro.service.sweep import SWEEP_POLICIES, pool_sweep_config  # noqa: E402


def record_kv(name):
    refs = {}
    for variant in range(workloads.VARIANTS):
        fingerprints = []
        for tier in ("off", None):
            workload = workloads.make(name)
            workload.setup(variant, fastpath=tier)
            fingerprints.append(workload.checked_fingerprint())
        if fingerprints[0] != fingerprints[1]:
            raise SystemExit(f"{name} variant {variant}: tier off and the "
                             f"default tier disagree: {fingerprints}")
        refs[str(variant)] = fingerprints[0]
        print(f"{name} variant {variant}: cycles "
              f"{fingerprints[0]['cycles']}", flush=True)
    return refs


def record_svc():
    committed = workloads.SvcPoolWorkload.committed_references()
    refs = {}
    for seed in range(workloads.SvcPoolWorkload.SEED_SPACE):
        for policy in SWEEP_POLICIES:
            result = EnclaveService(pool_sweep_config(seed, policy)).run()
            if result.violations:
                raise SystemExit(f"svc seed {seed} {policy}: "
                                 f"{result.violations}")
            committed_digest = committed.get((seed, policy))
            if seed < 6:
                if committed_digest != result.digest:
                    raise SystemExit(
                        f"svc seed {seed} {policy}: digest {result.digest} "
                        f"!= BENCH_service.json {committed_digest}")
                continue
            refs[f"{seed}:{policy}"] = result.digest
        print(f"svc seed {seed} recorded", flush=True)
    return refs


def record_explore():
    from repro.modelcheck.explorer import explore

    refs = {}
    for world in workloads.ExploreWorkload.WORLDS:
        result = explore(world, depth=workloads.ExploreWorkload.DEPTH,
                         max_states=workloads.ExploreWorkload.MAX_STATES)
        if not result.ok or result.truncated:
            raise SystemExit(f"explore {world}: ok={result.ok} "
                             f"truncated={result.truncated}")
        refs[world] = {"digest": result.digest[:16],
                       "states": result.states,
                       "transitions": result.transitions}
        print(f"explore {world}: {refs[world]}", flush=True)
    return refs


def main():
    refs = {
        "explore": record_explore(),
        "svc_pool": record_svc(),
        "kv_resident": record_kv("kv_resident"),
        "kv_paging": record_kv("kv_paging"),
    }
    with open(workloads.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCES}")


if __name__ == "__main__":
    main()
