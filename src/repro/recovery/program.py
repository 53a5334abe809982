"""Relaunchable enclave programs.

Recovery restores *state*, but something must first rebuild the
*enclave* — same kernel, same layout, same policy, same deterministic
warm-up — so that the relaunched incarnation's measurement (and hence
sealing key) and bootstrap fingerprint match what the crashed one
sealed.  :class:`EnclaveProgram` packages exactly that: the launch
recipe, reproducible on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import SystemConfig
from repro.core.system import DirectEngine, OramEngine, build_policy
from repro.oram.policy import OramPolicy
from repro.runtime.libos import EnclaveLayout, GrapheneRuntime
from repro.sgx.params import PAGE_SIZE


@dataclass(frozen=True)
class HeapWarmup:
    """The heap warm-up of one policy over the first ``pages`` heap
    pages: pin_all touches and seals them, clusters allocates them (one
    deterministic cluster assignment), every other policy needs none.

    Picklable, and a function of the runtime alone, as
    :attr:`EnclaveProgram.warmup` must be."""

    policy: str
    pages: int

    def __call__(self, runtime):
        heap = runtime.regions["heap"]
        if self.policy == "pin_all":
            for i in range(self.pages):
                runtime.access(heap.start + i * PAGE_SIZE)
            runtime.policy.seal()
        elif self.policy == "clusters":
            runtime.allocator.alloc_pages(self.pages)


@dataclass
class EnclaveProgram:
    """One enclave's reproducible launch recipe.

    ``warmup`` is the deterministic bootstrap run before the base
    checkpoint is sealed (preloads, seals, cluster assignment); it must
    depend only on the runtime handed to it — any ambient input would
    make the relaunch fingerprint diverge and restore fail-stop.
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    #: Explicit layout (multi-enclave programs need distinct bases);
    #: None derives one from the config like AutarkySystem does.
    layout: Optional[EnclaveLayout] = None
    warmup: Optional[Callable] = None
    name: str = "enclave"

    def build_layout(self):
        cfg = self.config
        if self.layout is not None:
            return self.layout
        return EnclaveLayout(
            runtime_pages=cfg.runtime_pages,
            code_pages=cfg.code_pages,
            data_pages=cfg.data_pages,
            heap_pages=cfg.heap_pages,
            reserve_pages=cfg.reserve_pages,
        )

    def launch(self, kernel):
        """Launch (or relaunch) the enclave on ``kernel`` and run its
        warm-up; returns the ready runtime.  Two calls on equivalent
        kernels produce bit-identical canonical state and identical
        measurements (the relaunch contract restore depends on)."""
        cfg = self.config
        layout = self.build_layout()
        policy = build_policy(cfg, layout, kernel.clock)
        legacy = cfg.policy.name == "baseline"
        runtime = GrapheneRuntime.launch(
            kernel,
            policy,
            layout=layout,
            quota_pages=cfg.quota_pages,
            legacy=legacy,
            sgx_version=cfg.sgx_version,
            enclave_managed_budget=cfg.enclave_managed_budget,
            eviction_order=cfg.eviction_order,
            exitless=cfg.exitless,
        )
        if getattr(policy, "manager", False) is None:
            policy.manager = runtime.clusters
        if cfg.policy.name in ("clusters", "rate_limit"):
            runtime.configure_heap(cfg.policy.cluster_pages)
        else:
            runtime.configure_heap(None)
        if self.warmup is not None:
            self.warmup(runtime)
        return runtime

    def engine(self, runtime):
        """The access engine applications drive (rebuilt per launch)."""
        if isinstance(runtime.policy, OramPolicy):
            return OramEngine(runtime, runtime.policy)
        return DirectEngine(runtime)
