"""Shared fixtures: small machines and enclaves for fast tests."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AutarkySystem
from repro.host.kernel import HostKernel
from repro.runtime.libos import EnclaveLayout, GrapheneRuntime
from repro.runtime.policies import RateLimitPolicy
from repro.runtime.rate_limit import RateLimiter


SMALL_LAYOUT = dict(
    runtime_pages=4, code_pages=16, data_pages=16, heap_pages=512,
)


@pytest.fixture
def kernel():
    """A small machine: 2,048-page EPC, default costs."""
    return HostKernel(epc_pages=2_048)


@pytest.fixture
def small_system():
    """Factory: AutarkySystem with a small footprint.

    Usage: ``system = small_system("rate_limit", quota_pages=256)``.
    """
    def build(policy="rate_limit", **overrides):
        kwargs = dict(
            epc_pages=2_048,
            quota_pages=1_024,
            enclave_managed_budget=512,
            max_faults_per_progress=100_000,
            **SMALL_LAYOUT,
        )
        kwargs.update(overrides)
        return AutarkySystem(SystemConfig.for_policy(policy, **kwargs))
    return build


@pytest.fixture
def launched(kernel):
    """A launched self-paging enclave runtime with a rate-limit policy."""
    policy = RateLimitPolicy(RateLimiter(100_000))
    runtime = GrapheneRuntime.launch(
        kernel, policy,
        layout=EnclaveLayout(**SMALL_LAYOUT),
        quota_pages=1_024,
        enclave_managed_budget=512,
    )
    return runtime


@pytest.fixture
def legacy(kernel):
    """A launched legacy (vanilla SGX) enclave runtime."""
    return GrapheneRuntime.launch(
        kernel, None,
        layout=EnclaveLayout(**SMALL_LAYOUT),
        quota_pages=1_024,
        legacy=True,
    )


@pytest.fixture
def pinned_system(small_system):
    """A pin-all system with 64 heap pages preloaded and sealed."""
    from repro.sgx.params import PAGE_SIZE
    system = small_system("pin_all")
    heap = system.runtime.regions["heap"]
    system.runtime.preload(
        [heap.start + i * PAGE_SIZE for i in range(64)], pin=True
    )
    system.policy.seal()
    return system


@pytest.fixture
def rerun_differs(monkeypatch):
    """Patch a sweep's run function so each point's rerun differs.

    ``rerun_differs(module, name)`` wraps ``module.name``: every second
    call returns the same result with its digest zeroed.  A sweep at
    ``--jobs 1`` calls the run function twice per point, so every
    point becomes a determinism failure ``(seed, policy, digest,
    "0" * 16)``.
    """
    def patch(module, name):
        real = getattr(module, name)
        calls = itertools.count(1)

        def rerun_zeroed(*args, **kwargs):
            result = real(*args, **kwargs)
            if next(calls) % 2 == 0:
                return dataclasses.replace(result, digest="0" * 16)
            return result
        monkeypatch.setattr(module, name, rerun_zeroed)
    return patch
