"""Multi-tenant enclave service: deterministic admission, backpressure,
and graceful degradation over one shared EPC (see docs/service.md)."""

from repro.service.admission import TokenBucket
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.chaos import (
    ServiceFaultEvent,
    ServiceFaultKind,
    ServiceFaultPlan,
)
from repro.service.metrics import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_DEGRADED,
    OUTCOME_SHED,
    OUTCOMES,
    SHED_REASONS,
    RequestResult,
    ServiceMetrics,
)
from repro.service.router import (
    EnclaveService,
    ServiceConfig,
    ServiceResult,
    run_service,
)
from repro.service.tenant import Tenant, TenantSpec, default_tenants

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "OUTCOMES",
    "OUTCOME_ABORTED",
    "OUTCOME_COMPLETED",
    "OUTCOME_DEGRADED",
    "OUTCOME_SHED",
    "SHED_REASONS",
    "CircuitBreaker",
    "EnclaveService",
    "RequestResult",
    "ServiceConfig",
    "ServiceFaultEvent",
    "ServiceFaultKind",
    "ServiceFaultPlan",
    "ServiceMetrics",
    "ServiceResult",
    "Tenant",
    "TenantSpec",
    "TokenBucket",
    "default_tenants",
    "run_service",
]
