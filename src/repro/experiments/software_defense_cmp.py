"""E10 (extension) — quantifying §4: software-only defenses vs Autarky.

Three head-to-head scenarios on a legacy enclave guarded by a
Varys-style AEX-rate watchdog, against the same attacks Autarky blocks:

1. **False positives** — a benign workload whose working set exceeds
   EPC demand-pages; every sensible detection threshold kills it.
2. **Paid leakage** — with the threshold raised until the benign run
   survives, the fault-injection attacker simply paces itself below
   the threshold and still collects a page trace.
3. **The silent channel** — the A/D-bit monitor causes zero AEXs;
   the watchdog never fires at any threshold, and the full trace leaks.

Autarky columns for comparison: zero false positives with unrestricted
demand paging, zero traced pages, and termination on the first probe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.ad_monitor import AdBitMonitor
from repro.attacks.controlled_channel import PageFaultTracer
from repro.core.config import SystemConfig
from repro.core.system import AutarkySystem
from repro.errors import EnclaveTerminated
from repro.experiments.formatting import render_table
from repro.runtime.software_defense import AexRateDefense
from repro.sgx.params import AccessType


@dataclass
class DefenseRow:
    scenario: str
    defense: str
    survived_benign: bool
    attack_pages_leaked: int
    attack_detected: bool


def _legacy_system():
    return AutarkySystem(SystemConfig.for_policy(
        "baseline",
        epc_pages=2_048, quota_pages=256,
        runtime_pages=4, code_pages=8, data_pages=8, heap_pages=1_024,
    ))


def _autarky_system():
    return AutarkySystem(SystemConfig.for_policy(
        "rate_limit",
        max_faults_per_progress=100_000,
        epc_pages=2_048, quota_pages=512, enclave_managed_budget=256,
        runtime_pages=4, code_pages=8, data_pages=8, heap_pages=1_024,
    ))


def _targets(system):
    """The heap pages every probe attack targets."""
    heap = system.runtime.regions["heap"]
    return [heap.page(i) for i in range(16)]


def _contenders(threshold, targets=False):
    """Boot each scenario's two contenders in table order, one at a
    time, and yield ``(defense, system, watchdog)``: the legacy enclave
    guarded by an AEX-rate watchdog of ``threshold``, then Autarky,
    which needs none.  With ``targets`` the attacked pages are made
    resident before the watchdog starts counting (the OS pages them
    in for the legacy enclave; Autarky pins them)."""
    system = _legacy_system()
    if targets:
        system.runtime.preload_os(_targets(system))
    yield (f"aex-rate (budget {threshold})", system,
           AexRateDefense(system.kernel, system.enclave, threshold))
    system = _autarky_system()
    if targets:
        system.runtime.preload(_targets(system), pin=True)
    yield "autarky", system, None


def _terminated(watchdog, steps, step, period=1):
    """Run ``step(i)`` for ``i`` in ``range(steps)``, the watchdog (if
    any) checkpointing before every ``period``-th step; True iff the
    enclave was terminated on the way."""
    try:
        for i in range(steps):
            if watchdog is not None and i % period == 0:
                watchdog.checkpoint()
            step(i)
    except EnclaveTerminated:
        return True
    return False


def scenario_false_positives(threshold=8):
    """Scenario 1: the watchdog kills a benign workload that
    legitimately demand-pages: it writes 600 heap pages, more than its
    quota holds, and checkpoints every 16."""
    rows = []
    for defense, system, watchdog in _contenders(threshold):
        heap = system.runtime.regions["heap"]
        killed = _terminated(
            watchdog, 600,
            lambda i: system.runtime.access(heap.page(i), AccessType.WRITE),
            period=16,
        )
        rows.append(DefenseRow(
            "benign demand paging", defense, not killed, 0, False,
        ))
    return rows


def _probe_attack(scenario, threshold, probes, arm):
    """Both contenders' rows for one attack on the target pages, which
    the victim reads round-robin ``probes`` times; on the legacy
    enclave the victim's own loop checkpoints before each read.

    ``arm(system, pages)`` arms the attacker and returns ``(sample,
    leaked)``: a hook run after each read (or ``None``) and a function
    counting the pages the attacker learned."""
    rows = []
    for defense, system, watchdog in _contenders(threshold, targets=True):
        pages = _targets(system)
        sample, leaked = arm(system, pages)

        def step(i):
            system.runtime.access(pages[i % len(pages)], AccessType.READ)
            if sample is not None:
                sample()

        detected = _terminated(watchdog, probes, step)
        rows.append(DefenseRow(scenario, defense, True, leaked(), detected))
    return rows


def scenario_paced_attack(threshold=24, probes=120):
    """Scenario 2: the attacker paces fault injection under the
    (loosened) threshold — one traced fault per victim iteration — and
    traces pages anyway."""
    def arm(system, pages):
        tracer = PageFaultTracer(system.kernel, system.enclave, pages)
        system.attach_attacker(tracer)
        tracer.arm()
        # Autarky reports every fault at the enclave base (§5.1.2),
        # which names no page.
        return None, lambda: sum(
            1 for v in tracer.log.trace if v != system.enclave.base)
    return _probe_attack(
        "paced fault-injection attack", threshold, probes, arm)


def scenario_silent_channel(threshold=8, probes=60):
    """Scenario 3: the fault-free A/D-bit monitor — invisible to AEX
    counting at any threshold."""
    def arm(system, pages):
        monitor = AdBitMonitor(system.kernel, system.enclave, pages)
        monitor.arm()
        return monitor.sample, lambda: sum(
            len(accessed) for accessed in monitor.access_trace())
    return _probe_attack(
        "A/D-bit monitoring (fault-free)", threshold, probes, arm)


def run():
    return (
        scenario_false_positives()
        + scenario_paced_attack()
        + scenario_silent_channel()
    )


def format_table(rows):
    return render_table(
        ["scenario", "defense", "benign survives", "pages leaked",
         "attack detected"],
        [
            (r.scenario, r.defense, r.survived_benign,
             r.attack_pages_leaked, r.attack_detected)
            for r in rows
        ],
        title="E10 (extension): software-only AEX-rate defenses vs "
              "Autarky (§4)",
    )


def main():
    rows = run()
    print(format_table(rows))
    return rows


if __name__ == "__main__":
    main()
