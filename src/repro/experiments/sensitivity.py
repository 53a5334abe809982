"""E11 (extension) — cost-model sensitivity analysis.

A simulation-based reproduction owes the reader an answer to: *would
the conclusions change if the calibration constants are off?*  This
experiment perturbs the most influential cost constants across a wide
range and re-checks each headline, qualitative conclusion:

* C1 (Figure 5): SGX1 paging is cheaper than SGX2.
* C2 (Figure 5/A2): eliding the AEX makes protected paging cheaper
  than unprotected paging.
* C3 (A2): exitless host calls beat exit-based OCALLs.
* C4 (E1): the A/D fill check costs well under 1%.
* C5 (Figure 7 mechanism): Autarky's per-fault premium stays within
  ~2.5x of an unprotected fault (the bound that keeps rate-limited
  paging's slowdown moderate).

A conclusion is *robust* if it holds at every perturbation point.  C2
is expected to flip at extremes (it hinges on transition costs
dominating — exactly what the paper says), which the table makes
visible instead of hiding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.experiments.ablation_paths import reload_fault_cycles
from repro.experiments.formatting import render_table
from repro.sgx.params import ArchOptimizations, CostModel, SgxVersion

#: Multipliers applied to each perturbed constant.
FACTORS = (0.5, 0.75, 1.0, 1.5, 2.0)

#: Constants most likely to be miscalibrated, per conclusion.
PERTURBED_FIELDS = (
    "aex", "eresume", "eenter", "eexit",
    "ewb", "eldu", "eacceptcopy", "exitless_call",
)


@dataclass
class SensitivityRow:
    field: str
    factor: float
    c1_sgx1_cheaper: bool
    c2_elide_beats_unprotected: bool
    c3_exitless_cheaper: bool
    c4_ad_check_small: bool
    c5_premium_bounded: bool

    @property
    def all_hold(self):
        return all((
            self.c1_sgx1_cheaper, self.c2_elide_beats_unprotected,
            self.c3_exitless_cheaper, self.c4_ad_check_small,
            self.c5_premium_bounded,
        ))


def evaluate(cost, faults=200):
    """Check every conclusion under one cost model."""
    sgx1 = reload_fault_cycles(faults, cost=cost)
    sgx2 = reload_fault_cycles(faults, cost=cost,
                               sgx_version=SgxVersion.SGX2)
    unprotected = reload_fault_cycles(faults, "baseline", cost=cost)
    elided = reload_fault_cycles(
        faults, cost=cost,
        arch_opts=ArchOptimizations(in_enclave_resume=True,
                                    elide_aex=True),
    )
    exit_based = reload_fault_cycles(faults, cost=cost, exitless=False)

    ad_fraction = cost.autarky_ad_check / max(
        cost.autarky_ad_check + 2_000, 1
    )  # per-fill check vs a conservative 2k-cycle inter-fill gap

    return dict(
        c1_sgx1_cheaper=sgx1 < sgx2,
        c2_elide_beats_unprotected=elided < unprotected,
        c3_exitless_cheaper=sgx1 < exit_based,
        c4_ad_check_small=ad_fraction < 0.01,
        c5_premium_bounded=sgx1 / unprotected < 2.5,
    )


def _grid_point(task):
    """Picklable worker: one (field, factor) perturbation."""
    field, factor, faults = task
    base = CostModel()
    cost = dataclasses.replace(
        base, **{field: int(getattr(base, field) * factor)}
    )
    return SensitivityRow(
        field=field, factor=factor, **evaluate(cost, faults),
    )


def run(fields=PERTURBED_FIELDS, factors=FACTORS, faults=150, jobs=1):
    from repro.parallel import run_indexed
    tasks = [
        (field, factor, faults)
        for field in fields for factor in factors
    ]
    return run_indexed(_grid_point, tasks, jobs=jobs)


def robustness_summary(rows):
    """conclusion -> fraction of perturbation points where it holds."""
    keys = ("c1_sgx1_cheaper", "c2_elide_beats_unprotected",
            "c3_exitless_cheaper", "c4_ad_check_small",
            "c5_premium_bounded")
    return {
        key: sum(1 for r in rows if getattr(r, key)) / len(rows)
        for key in keys
    }


def format_table(rows):
    def mark(flag):
        return "ok" if flag else "FLIP"

    table = render_table(
        ["perturbed constant", "x", "C1 sgx1<sgx2", "C2 elide<base",
         "C3 exitless", "C4 A/D small", "C5 premium<2.5x"],
        [
            (r.field, r.factor, mark(r.c1_sgx1_cheaper),
             mark(r.c2_elide_beats_unprotected),
             mark(r.c3_exitless_cheaper), mark(r.c4_ad_check_small),
             mark(r.c5_premium_bounded))
            for r in rows
        ],
        title="E11 (extension): cost-model sensitivity — do the "
              "paper's qualitative conclusions survive miscalibration?",
    )
    summary = robustness_summary(rows)
    footer = "\nrobustness: " + ", ".join(
        f"{key}={value:.0%}" for key, value in summary.items()
    )
    return table + footer


def main(jobs=1):
    rows = run(jobs=jobs)
    print(format_table(rows))
    return rows


if __name__ == "__main__":
    main()
