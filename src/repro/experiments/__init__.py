"""Experiment harness: one module per paper table/figure.

Every experiment exposes a ``run(...)`` returning structured rows and a
``format_table(rows)`` that prints the same rows/series the paper
reports.  Benchmarks under ``benchmarks/`` call these with the default
(scaled) parameters; ``examples/`` and EXPERIMENTS.md show full-size
invocations.

Index (see DESIGN.md §3):

========  =======================================================
E1        §7 nbench architecture-overhead analysis
E2        Figure 5 — paging latency breakdown (SGX1 vs SGX2)
E3        Figure 6 — uthash: clusters vs (un)cached ORAM
E4        Figure 7 — rate-limited paging on Phoenix/PARSEC
E5        Table 2 — libjpeg / Hunspell / FreeType end-to-end
E6        Figure 8 — Memcached under four YCSB distributions
E7        attack mitigation (published attacks vs Autarky)
E8        leakage analysis (§5.3 bounds)
A1        ablation — FIFO vs fault-frequency eviction
A2        ablation — exitless vs exit-based calls, SGX1 vs SGX2
E9        extension — multi-enclave EPC coordination
E10       extension — software-only defenses vs Autarky (§4)
E11       extension — cost-model sensitivity analysis
A3        extension — ORAM position-map strategies
========  =======================================================
"""

from repro.experiments import formatting

__all__ = ["formatting"]
