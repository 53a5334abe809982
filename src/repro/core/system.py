"""One-call assembly of the full stack, plus the access engines apps use.

:class:`EnclaveProgram` is the one launch recipe: it turns a
:class:`SystemConfig` into a running runtime on a kernel, and builds
its *engine* — the interface application models program against.
:class:`AutarkySystem` boots a machine from the same config and
launches one program on it.  The engines:

* :class:`DirectEngine` — accesses go through the MMU (page faults,
  self-paging).  Used by every policy except ORAM.
* :class:`OramEngine` — data accesses are instrumented through the
  (cached) ORAM; code accesses still go through the MMU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.clock import Category
from repro.core.config import SystemConfig
from repro.core.metrics import Measurement
from repro.errors import PolicyError
from repro.host.kernel import HostKernel
from repro.immutable import share
from repro.oram.policy import OramPolicy
from repro.runtime.libos import EnclaveLayout, GrapheneRuntime
from repro.runtime.policies import (
    ClusterPolicy,
    PinAllPolicy,
    RateLimitPolicy,
)
from repro.runtime.rate_limit import RateLimiter
from repro.sgx.columnar import END_OF_KEYS, PageRun, ReplayFrontend
from repro.sgx.params import PAGE_SIZE, AccessType


def build_policy(cfg, layout, clock):
    """Construct the configured paging policy from a :class:`SystemConfig`.

    Policies that consult clusters come back with ``manager=None`` —
    :meth:`EnclaveProgram.launch` wires in the runtime's
    :class:`ClusterManager` after launch.
    """
    spec = cfg.policy
    if spec.name == "baseline":
        return None
    if spec.name == "pin_all":
        return PinAllPolicy()
    if spec.name == "clusters":
        return ClusterPolicy(manager=None,
                             unclustered=spec.cluster_unclustered)
    if spec.name == "rate_limit":
        limiter = RateLimiter(
            spec.max_faults_per_progress,
            grace_faults=spec.grace_faults,
        )
        return RateLimitPolicy(limiter, manager=None)
    if spec.name == "oram":
        heap_start = (
            layout.base
            + PAGE_SIZE * (1 + cfg.runtime_pages + cfg.code_pages
                           + cfg.data_pages)
        )
        return OramPolicy(
            tree_pages=spec.oram_tree_pages,
            cache_pages=spec.oram_cache_pages,
            clock=clock,
            region_start=heap_start,
            oblivious_metadata=spec.oram_oblivious_metadata,
        )
    raise PolicyError(f"unknown policy {spec.name!r}")


class DirectEngine:
    """MMU-mediated access engine (the normal path).

    The batched/compute hot paths bind the CPU run engine and the clock
    at construction — the per-call behaviour is identical to routing
    through the runtime wrappers, minus the wrapper frames.

    Apps with repeating page traces plan them once with
    :meth:`make_run`, a :class:`~repro.sgx.columnar.PageRun` that reads
    or writes, and replay the cached ``(run, cycles)`` pair with
    :meth:`replay`.  On the columnar tier ``replay`` is rebound to the
    batch interpreter (:mod:`repro.sgx.columnar`); at tier off it issues
    exactly the run's per-address accesses, with the run's access type,
    as one batched run — same observables either way.  A request
    server hands its key stream to :meth:`serve_window`, which on the
    columnar tier settles each run of requests that are steady-state
    replays in one bulk step.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        kernel = runtime.kernel
        self._access_run = kernel.cpu.access_run
        self._probe_run = kernel.mmu.probe_run
        self._require_alive = runtime.enclave.require_alive
        self._charge = kernel.clock.charge
        self._enclave = runtime.enclave
        self._tcs = runtime.tcs
        self._bind_fastpath(kernel)

    def _bind_fastpath(self, kernel):
        """Rebind the replay API to the columnar frontend when the
        machine was built with the columnar tier."""
        if kernel.cpu.columnar is not None:
            frontend = ReplayFrontend(kernel, self._enclave, self._tcs)
            self.replay = frontend.replay
            self._replay_settled = frontend.replay_settled
            self.serve_window = self._serve_settled

    def make_run(self, vaddrs, write=False):
        """Plan a repeating page trace of reads, or of writes, for
        :meth:`replay`."""
        return PageRun(vaddrs, write)

    def replay(self, trace):
        """Replay a cached ``(run, cycles)`` trace: the run's accesses,
        with its access type, as one batched run, plus one bulk compute
        charge."""
        run, cycles = trace
        self.data_access_run(run.vaddrs, run.write)
        self._charge(cycles, Category.COMPUTE)

    def serve_window(self, keys, traces, request_cycles, kind):
        """Serve the requests at the head of the iterator ``keys`` that
        can be settled in bulk, and return ``(served, key)``: how many
        were served and the next key, which the caller serves on its
        own (:data:`~repro.sgx.columnar.END_OF_KEYS` when ``keys`` ran
        out).

        Serving one request means, exactly, ``progress(kind)``, then
        ``compute(request_cycles)``, then :meth:`replay` of its cached
        trace in ``traces``.  This engine settles nothing in bulk off
        the columnar tier, so it only hands back the first key.
        """
        return 0, next(keys, END_OF_KEYS)

    def _serve_settled(self, keys, traces, request_cycles, kind):
        """:meth:`serve_window` on the columnar tier: the frontend
        settles the window's hits, then their progress events reach
        the policy as one counted event.  A recovery manager journals
        every progress event as a sealed record that may crash the
        enclave mid-window, so while one is attached progress is not
        pure bookkeeping and every request is served on its own."""
        if self.runtime.recovery is not None:
            return 0, next(keys, END_OF_KEYS)
        served, key = self._replay_settled(keys, traces, request_cycles)
        if served:
            self.runtime.progress(kind, served)
        return served, key

    def data_access(self, vaddr, write=False):
        self.runtime.access(
            vaddr, AccessType.WRITE if write else AccessType.READ
        )

    def data_access_run(self, vaddrs, write=False):
        """Batched :meth:`data_access`: same faults, counters, and
        cycles as the per-address loop, charged in one call.

        The all-hit case (liveness check, then one TLB probe over the
        run) is resolved right here; anything else — a TLB miss, the
        fast path off — takes the CPU's full batched path, which
        replays the run with identical per-address semantics.
        """
        access = AccessType.WRITE if write else AccessType.READ
        self._require_alive()
        if self._probe_run(vaddrs, access) is None:
            self._access_run(self._enclave, self._tcs, vaddrs, access)

    def code_access(self, vaddr):
        self.runtime.access(vaddr, AccessType.EXEC)

    def compute(self, cycles):
        self._charge(cycles, Category.COMPUTE)

    def progress(self, kind):
        self.runtime.progress(kind)

    def region(self, name):
        return self.runtime.regions[name]


class OramEngine(DirectEngine):
    """CoSMIX-style instrumented engine: data accesses use ORAM."""

    def __init__(self, runtime, oram_policy):
        super().__init__(runtime)
        self.oram_policy = oram_policy

    def _bind_fastpath(self, kernel):
        """ORAM data accesses never touch the MMU, so the columnar
        interpreter does not apply; traces replay per-address through
        the ORAM (the generic :meth:`DirectEngine.replay`) and
        :meth:`DirectEngine.serve_window` settles nothing in bulk."""

    def data_access(self, vaddr, write=False):
        self.oram_policy.access(vaddr, write=write)

    def data_access_run(self, vaddrs, write=False):
        # ORAM accesses are inherently per-address (each one walks a
        # tree path); batching changes nothing observable.
        for vaddr in vaddrs:
            self.oram_policy.access(vaddr, write=write)


@dataclass(frozen=True)
class HeapWarmup:
    """The heap warm-up of one policy over the first ``pages`` heap
    pages: pin_all touches and seals them, clusters allocates them (one
    deterministic cluster assignment), every other policy needs none.

    Picklable, and a function of the runtime alone, as
    :attr:`EnclaveProgram.warmup` must be."""

    __deepcopy__ = share

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

    Recovery relaunches a crashed enclave from it — same kernel, same
    layout, same policy, same deterministic warm-up — so that the new
    incarnation's measurement (and hence sealing key) and bootstrap
    fingerprint match what the crashed one sealed.

    ``warmup`` is the deterministic bootstrap run before the base
    checkpoint is sealed (preloads, seals, cluster assignment); it must
    depend only on the runtime handed to it — any ambient input would
    make the relaunch fingerprint diverge and restore fail-stop.
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    #: Base address of the enclave (enclaves sharing one kernel need
    #: distinct bases); every size comes from the config.
    base: int = EnclaveLayout.base
    warmup: Optional[Callable] = None
    name: str = "enclave"

    def build_layout(self):
        cfg = self.config
        return EnclaveLayout(
            base=self.base,
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
        runtime = GrapheneRuntime.launch(
            kernel,
            policy,
            layout=layout,
            quota_pages=cfg.quota_pages,
            legacy=cfg.policy.name == "baseline",
            sgx_version=cfg.sgx_version,
            enclave_managed_budget=cfg.enclave_managed_budget,
            eviction_order=cfg.eviction_order,
            exitless=cfg.exitless,
        )
        # Policies that consult clusters get the runtime's manager.
        if getattr(policy, "manager", False) is None:
            policy.manager = runtime.clusters
        clustered = cfg.policy.name in ("clusters", "rate_limit")
        runtime.configure_heap(
            cfg.policy.cluster_pages if clustered else None)
        if self.warmup is not None:
            self.warmup(runtime)
        return runtime

    def engine(self, runtime):
        """The access engine applications drive (rebuilt per launch)."""
        if isinstance(runtime.policy, OramPolicy):
            return OramEngine(runtime, runtime.policy)
        return DirectEngine(runtime)


class AutarkySystem:
    """The assembled machine + enclave + runtime + policy: one kernel
    built from the config, one :class:`EnclaveProgram` launched on it."""

    def __init__(self, config=None):
        self.config = config or SystemConfig()
        cfg = self.config
        from repro.core.validation import check
        check(cfg)
        self.kernel = HostKernel(
            epc_pages=cfg.epc_pages,
            cost=cfg.cost,
            arch_opts=cfg.arch_opts,
            tlb_capacity=cfg.tlb_capacity,
            fastpath=cfg.fastpath,
        )
        self.program = EnclaveProgram(cfg)
        self.runtime = self.program.launch(self.kernel)

    @property
    def policy(self):
        return self.runtime.policy

    @property
    def layout(self):
        return self.runtime.layout

    @property
    def enclave(self):
        return self.runtime.enclave

    @property
    def clock(self):
        return self.kernel.clock

    def engine(self):
        return self.program.engine(self.runtime)

    def measure(self):
        return Measurement(self.kernel, self.runtime)

    def attach_attacker(self, attacker):
        self.kernel.attacker = attacker
        return attacker

    def heap_start(self):
        return self.runtime.regions["heap"].start
