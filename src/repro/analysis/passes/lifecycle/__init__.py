"""Lifecycle pass: SGX ISA call sites must respect the protocol.

See :mod:`repro.analysis.passes.lifecycle.automaton` for the three
automata (launch, evict, resume) and the false-positive design.  The
pass checks every function — and the module body, for example
scripts — of modules under ``LIFECYCLE_PREFIXES``
(:mod:`repro.analysis.config`).
"""

from __future__ import annotations

from repro.analysis.config import LIFECYCLE_PREFIXES
from repro.analysis.findings import Finding
from repro.analysis.passes.lifecycle.automaton import (
    RULE_EVICT,
    RULE_LAUNCH,
    RULE_RECOVERY,
    RULE_RESUME,
    OpCollector,
    check_ops,
)

__all__ = ["LifecyclePass", "RULE_LAUNCH", "RULE_EVICT", "RULE_RESUME",
           "RULE_RECOVERY"]

_HINTS = {
    RULE_LAUNCH: ("build the enclave ECREATE → EADD/EEXTEND → EINIT → "
                  "EENTER (docs/architecture.md); ECREATE starts over"),
    RULE_EVICT: ("evict EBLOCK → page-table drop (TLB shootdown) → EWB "
                 "(§2.1); ELDU starts the page over"),
    RULE_RESUME: "ERESUME resumes an interrupted enclave: AEX comes first",
    RULE_RECOVERY: ("crash → relaunch → restore (docs/recovery.md); "
                    "journal records only reach a live incarnation"),
}


class LifecyclePass:
    family = "lifecycle"

    def __init__(self):
        self._project = None

    def prepare(self, project):
        self._project = project
        self._functions = {}
        for info in project.functions.values():
            self._functions.setdefault(info.module, []).append(info)
        for infos in self._functions.values():
            infos.sort(key=lambda f: f.node.lineno)

    def applies(self, module):
        return module.startswith(LIFECYCLE_PREFIXES)

    def run(self, mod):
        if self._project is None:
            return
        contexts = [(None, self._module_body(mod))]
        for info in self._functions.get(mod.module, ()):
            contexts.append((info, info.node.body))
        for caller, body in contexts:
            collector = OpCollector(self._project, mod.module, caller)
            ops = collector.collect(body)
            seen = set()
            for rule, line, message in check_ops(ops):
                if (rule, line) in seen:
                    continue
                seen.add((rule, line))
                yield Finding(
                    path=mod.path, line=line, rule=rule,
                    message=message, hint=_HINTS[rule],
                    module=mod.module,
                )

    @staticmethod
    def _module_body(mod):
        import ast
        return [stmt for stmt in mod.tree.body
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))]
