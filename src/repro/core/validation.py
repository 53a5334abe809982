"""Configuration validation with actionable error messages.

``AutarkySystem`` builds from a :class:`~repro.core.config.SystemConfig`
whose fields interlock in non-obvious ways (quota vs budget vs EPC vs
layout vs ORAM geometry).  :func:`validate` checks every relationship
up front and reports *all* problems at once, each with the fix, instead
of letting a mis-sized run fail deep inside the driver.
"""

from __future__ import annotations

from repro.errors import PolicyError
from repro.sgx.params import EVICTION_BATCH


class ConfigError(PolicyError):
    """One or more configuration problems, listed in the message."""

    def __init__(self, problems):
        self.problems = list(problems)
        bullets = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(f"invalid SystemConfig:\n{bullets}")


def _layout_pages(cfg):
    return (1 + cfg.runtime_pages + cfg.code_pages + cfg.data_pages
            + cfg.heap_pages + cfg.reserve_pages)


def validate(cfg):
    """Return the list of problems (empty = valid)."""
    problems = []
    quota = cfg.quota_pages or cfg.epc_pages
    budget = cfg.enclave_managed_budget or quota
    total = _layout_pages(cfg)

    if cfg.epc_pages < 64:
        problems.append(
            f"epc_pages={cfg.epc_pages} is below any useful machine; "
            "use at least 64"
        )
    if cfg.quota_pages is not None and cfg.quota_pages > cfg.epc_pages:
        problems.append(
            f"quota_pages={cfg.quota_pages} exceeds "
            f"epc_pages={cfg.epc_pages}; the quota can never be met"
        )
    if budget > quota:
        problems.append(
            f"enclave_managed_budget={budget} exceeds the enclave "
            f"quota {quota}; the self-pager would deadlock against "
            "the driver — lower the budget or raise quota_pages"
        )
    if budget < cfg.runtime_pages + EVICTION_BATCH:
        problems.append(
            f"enclave_managed_budget={budget} cannot hold the pinned "
            f"runtime ({cfg.runtime_pages} pages) plus one eviction "
            f"batch ({EVICTION_BATCH}); raise it to at least "
            f"{cfg.runtime_pages + EVICTION_BATCH}"
        )
    if total > 1 << 32:
        problems.append(
            f"enclave layout of {total} pages is implausibly large"
        )

    spec = cfg.policy
    if spec.name == "clusters" and spec.cluster_pages is not None:
        if spec.cluster_pages < 1:
            problems.append("cluster_pages must be positive")
        elif spec.cluster_pages > budget:
            problems.append(
                f"cluster_pages={spec.cluster_pages} exceeds the "
                f"enclave-managed budget {budget}; a single cluster "
                "could never be fetched"
            )
    if spec.name == "rate_limit" and spec.max_faults_per_progress < 1:
        problems.append("max_faults_per_progress must be positive")
    if spec.name == "oram":
        if spec.oram_tree_pages < 1:
            problems.append("oram_tree_pages must be positive")
        if spec.oram_cache_pages and spec.oram_cache_pages > budget:
            problems.append(
                f"oram_cache_pages={spec.oram_cache_pages} exceeds "
                f"the enclave-managed budget {budget}; the pinned "
                "cache would not fit"
            )
    if spec.name not in ("baseline", "pin_all", "clusters",
                         "rate_limit", "oram"):
        problems.append(f"unknown policy {spec.name!r}")
    return problems


def check(cfg):
    """Raise :class:`ConfigError` if anything is wrong."""
    problems = validate(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg
