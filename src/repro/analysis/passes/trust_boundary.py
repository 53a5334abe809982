"""Trust-boundary pass: the host may not see behind the ISA.

The paper's §5.1.2/§5.1.3 changes exist precisely so the OS never
observes sub-page fault addresses, SSA contents, or other
enclave-private state.  In the simulator that state is ordinary Python
attributes, so this pass checks that modules on the untrusted side
(``repro.host.*``, ``repro.attacks.*``) neither import the
enclave-private modules nor reach through objects into enclave-private
attributes — except via the sanctioned driver surface, which implements
the §5.2.1 contract and is exempt (``TRUST_SANCTIONED`` in
:mod:`repro.analysis.config`).

Attacks that *deliberately* probe the host-visible surface annotate
their probes with ``# repro: allow[trust-boundary]``; the annotations
are the machine-checked inventory of what the threat model grants the
attacker.
"""

from __future__ import annotations

import ast

from repro.analysis.config import (
    ENCLAVE_PRIVATE_ATTRS,
    ENCLAVE_PRIVATE_MODULES,
    is_untrusted,
)
from repro.analysis.findings import Finding
from repro.analysis.walker import attr_chain

RULE_IMPORT = "trust-boundary/import"
RULE_ATTR = "trust-boundary/attr"


class TrustBoundaryPass:
    family = "trust-boundary"

    def applies(self, module):
        return is_untrusted(module)

    def run(self, mod):
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(mod, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_attr(mod, node)

    def _check_import(self, mod, node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            if node.level:  # relative import: resolve against the package
                package = mod.module.rsplit(".", node.level)[0]
                base = f"{package}.{node.module}" if node.module else package
            else:
                base = node.module or ""
            names = [base]
        for name in names:
            if any(name == p or name.startswith(p + ".")
                   for p in ENCLAVE_PRIVATE_MODULES):
                yield Finding(
                    path=mod.path,
                    line=node.lineno,
                    rule=RULE_IMPORT,
                    message=(
                        f"untrusted module imports enclave-private "
                        f"{name!r}"
                    ),
                    hint=(
                        "route the interaction through the sanctioned "
                        "driver surface (repro.host.driver), or annotate "
                        "an intentional attacker probe with "
                        "# repro: allow[trust-boundary]"
                    ),
                    module=mod.module,
                )

    def _check_attr(self, mod, node):
        if node.attr not in ENCLAVE_PRIVATE_ATTRS:
            return
        chain = attr_chain(node)
        # ``self.<attr>`` names the module's *own* state, not a reach
        # across the boundary; anything deeper (``self.enclave.backed``)
        # or rooted elsewhere (``tcs.ssa``) is a read of foreign state.
        if len(chain) == 2 and chain[0] in ("self", "cls"):
            return
        yield Finding(
            path=mod.path,
            line=node.lineno,
            rule=RULE_ATTR,
            message=(
                f"untrusted module reads enclave-private state "
                f"'.{node.attr}'"
                + (f" (via {'.'.join(chain[:-1])})" if chain else "")
            ),
            hint=(
                "the OS only sees masked faults and page-granular state "
                "(§5.1.2); go through repro.host.driver, or annotate an "
                "intentional probe with # repro: allow[trust-boundary]"
            ),
            module=mod.module,
        )
