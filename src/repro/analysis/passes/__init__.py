"""The pass registry.

Each pass family lives in its own module and exposes one class with:

* ``family``  — the rule-family id (findings use ``family/subrule``);
* ``applies(module)`` — whether the pass runs on a dotted module name;
* ``run(mod)`` — yield :class:`~repro.analysis.findings.Finding`
  objects for one :class:`~repro.analysis.walker.ModuleSource`;
* optionally ``prepare(project)`` — called once per analysis with the
  interprocedural :class:`~repro.analysis.callgraph.Project` before any
  ``run``, for passes whose findings need the whole call graph.
"""

from __future__ import annotations

from repro.analysis.passes.accounting import CycleAccountingPass
from repro.analysis.passes.determinism import DeterminismPass
from repro.analysis.passes.effects import EffectsPass
from repro.analysis.passes.lifecycle import LifecyclePass
from repro.analysis.passes.mutation import MutationDisciplinePass
from repro.analysis.passes.robustness import RobustnessPass
from repro.analysis.passes.taint import LeakagePass
from repro.analysis.passes.trust_boundary import TrustBoundaryPass

PASS_CLASSES = (
    TrustBoundaryPass,
    MutationDisciplinePass,
    DeterminismPass,
    CycleAccountingPass,
    LeakagePass,
    LifecyclePass,
    RobustnessPass,
    EffectsPass,
)


def build_passes(config, only=None):
    """Instantiate the registered passes; ``only`` (an iterable of
    family names) restricts to those families."""
    classes = PASS_CLASSES
    if only is not None:
        wanted = set(only)
        classes = tuple(cls for cls in classes if cls.family in wanted)
    return [cls(config) for cls in classes]


def rule_families():
    return tuple(cls.family for cls in PASS_CLASSES)


#: rule id -> one-line invariant, for SARIF rule metadata and the docs
#: catalog.  ``suppression/unused`` is emitted by the driver itself.
RULE_CATALOG = {
    "trust-boundary/import":
        "untrusted modules must not import enclave-private modules",
    "trust-boundary/attr":
        "untrusted modules must not read enclave-private attributes",
    "mutation-discipline/call":
        "only the ISA layer may call EPC/EPCM/TLB mutators",
    "mutation-discipline/store":
        "only the ISA layer may store through EPC/EPCM/TLB components",
    "determinism/time":
        "simulated results must not read the wall clock",
    "determinism/random":
        "simulated results must not use unseeded/global randomness",
    "determinism/hash":
        "builtin hash() is per-process salted; results must not use it",
    "determinism/parallel-merge":
        "fan-out results must merge in canonical task order, never "
        "completion/hash/worker order",
    "cycle-accounting/uncharged":
        "modeled paging paths must charge the simulated clock",
    "leakage/page-address":
        "secret-tainted values must not become page addresses",
    "leakage/index":
        "app code must not index containers with secret-tainted values",
    "leakage/branch":
        "secret-tainted branches must not guard paging activity",
    "lifecycle/launch-order":
        "enclave build follows ECREATE → EADD/EEXTEND → EINIT → EENTER",
    "lifecycle/evict-order":
        "eviction follows EBLOCK → TLB shootdown → EWB",
    "lifecycle/resume-order":
        "ERESUME resumes an interrupted enclave: AEX comes first",
    "lifecycle/recovery-order":
        "recovery follows crash → relaunch → restore; journal records "
        "only reach a live incarnation",
    "robustness/broad-except":
        "runtime code must not swallow faults with broad except handlers",
    "robustness/unbounded-restart":
        "restart/retry loops must be bounded or escape via "
        "raise/return/break (restart churn is a §5.3 signal)",
    "robustness/unbounded-queue":
        "service/runtime while-loops must bound, drain, or escape any "
        "list/deque they accumulate into",
    "robustness/unguarded-failover":
        "replica-selection loops must own the all-replicas-unhealthy "
        "fall-through with an explicit return/raise",
    "effects/epoch-soundness":
        "translation-affecting mutators must bump the TranslationEpoch "
        "on every path before returning",
    "effects/parallel-purity":
        "parallel task workers must resolve to project functions with "
        "empty ambient write sets (--jobs N bit-identity)",
    "effects/hot-path-perf":
        "hot-path loops must avoid invariant re-lookup, per-iteration "
        "allocation, and exception control flow; hot functions must not "
        "run import statements",
    "suppression/unused":
        "allow-annotations must suppress at least one finding (--strict)",
}
