"""Configuration dataclasses for assembling a full system."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import PolicyError
from repro.immutable import share
from repro.sgx.params import (
    DEFAULT_EPC_PAGES,
    ArchOptimizations,
    CostModel,
    SgxVersion,
)
from repro.runtime.self_paging import EvictionOrder


@dataclass(frozen=True)
class PolicyConfig:
    """Which secure paging policy to build, and its knobs."""

    __deepcopy__ = share

    #: "baseline" (legacy SGX, no defense), "pin_all", "clusters",
    #: "rate_limit", or "oram".
    name: str = "rate_limit"

    # clusters / automatic data clustering
    cluster_pages: Optional[int] = 10
    #: How ClusterPolicy treats pages no cluster covers ("reject" or
    #: "demand" — the late-clustering pattern of §7.3).
    cluster_unclustered: str = "reject"

    # rate_limit
    max_faults_per_progress: int = 1_000
    grace_faults: Optional[int] = None

    # oram
    oram_tree_pages: int = 262_144           # 1 GB of 4 KiB blocks
    oram_cache_pages: int = 32_768           # 128 MB cache
    oram_oblivious_metadata: bool = False    # True = CoSMIX baseline


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to boot the machine and launch the enclave."""

    __deepcopy__ = share

    policy: PolicyConfig = field(default_factory=PolicyConfig)
    epc_pages: int = DEFAULT_EPC_PAGES
    #: Per-enclave EPC quota (None = whole EPC).
    quota_pages: Optional[int] = None
    #: Resident budget for enclave-managed pages (None = quota).
    enclave_managed_budget: Optional[int] = None
    sgx_version: SgxVersion = SgxVersion.SGX1
    arch_opts: ArchOptimizations = field(default_factory=ArchOptimizations)
    cost: CostModel = field(default_factory=CostModel)
    eviction_order: EvictionOrder = EvictionOrder.FIFO
    exitless: bool = True
    #: None = unbounded TLB; set (e.g. 1536) for capacity-miss studies.
    tlb_capacity: Optional[int] = None
    #: Translation fast-path tier: "off" (the reference semantics) or
    #: "columnar"; ``None`` is "columnar" (see repro.sgx.columnar).
    fastpath: Optional[str] = None
    #: Enclave layout sizes (pages).
    runtime_pages: int = 64
    code_pages: int = 256
    data_pages: int = 1_024
    heap_pages: int = 131_072
    #: Unassigned address space for GrapheneRuntime.grow_heap.
    reserve_pages: int = 0

    @staticmethod
    def for_policy(name, **kwargs):
        """Shorthand: ``SystemConfig.for_policy("clusters", cluster_pages=10)``."""
        policy_fields = {
            f for f in PolicyConfig.__dataclass_fields__ if f != "name"
        }
        policy_kwargs = {
            k: kwargs.pop(k) for k in list(kwargs) if k in policy_fields
        }
        return SystemConfig(
            policy=PolicyConfig(name=name, **policy_kwargs), **kwargs
        )


#: The policies :func:`small_config` sizes.
SMALL_POLICIES = ("pin_all", "clusters", "rate_limit", "rate_limit_sgx2")


def small_config(policy_name, epc_pages=1_024, quota_pages=128):
    """A small, paging-heavy system, so every hostile act has teeth: the
    chaos campaign runs it as is, and each service tenant over its
    share of the EPC and its own quota.  ``rate_limit_sgx2`` is rate
    limiting over the SGX2 paging ops."""
    common = dict(
        epc_pages=epc_pages,
        quota_pages=quota_pages,
        runtime_pages=8,
        code_pages=16,
        data_pages=16,
        heap_pages=256,
    )
    if policy_name == "pin_all":
        return SystemConfig.for_policy(
            "pin_all", enclave_managed_budget=min(120, quota_pages - 8),
            **common
        )
    if policy_name == "clusters":
        return SystemConfig.for_policy(
            "clusters", cluster_pages=8, enclave_managed_budget=64,
            **common
        )
    if policy_name in ("rate_limit", "rate_limit_sgx2"):
        sgx2 = policy_name == "rate_limit_sgx2"
        return SystemConfig.for_policy(
            "rate_limit", max_faults_per_progress=64, grace_faults=512,
            enclave_managed_budget=64,
            sgx_version=SgxVersion.SGX2 if sgx2 else SgxVersion.SGX1,
            **common
        )
    raise PolicyError(f"no small sizing for policy {policy_name!r}")
