"""effects/parallel-purity — ``run_indexed`` workers must be pure.

``repro.parallel.run_indexed`` (and ``Sweep.run_grid`` on top of it)
promises bit-identical results for any ``--jobs N``; that only holds
when every task callable is free of ambient writes — module/class
globals shared across tasks, or in-place mutation of the task item
itself (mutations are visible to the caller under ``--jobs 1`` but die
with the worker process under ``--jobs N``).  This checker finds every
runner call site, resolves the worker callable (looking through
``functools.partial`` and decorators — the summary belongs to the
undecorated def), and requires its *transitive* ambient write set to be
empty.  A worker it cannot resolve is a finding: its purity is unchecked.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.walker import attr_chain
from repro.analysis.passes.effects.model import display

RULE = "effects/parallel-purity"


def find_runner_sites(project, config):
    """Locate every parallel-runner call site, keyed by module name.

    Returns ``{module: [(call_node, worker_info, worker_label), ...]}``
    in deterministic order; ``worker_info`` is ``None`` for a call site
    whose worker expression does not resolve to a project function
    (lambdas and dynamic dispatch cannot be summarized).
    """
    sites = {}
    for qual in sorted(project.functions):
        info = project.functions[qual]
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if not chain or chain[-1] not in config.effects_task_runners:
                continue
            if not _is_runner_call(project, node, info):
                continue
            position = config.effects_task_runners[chain[-1]]
            worker_expr = _worker_expr(node, position)
            worker = None if worker_expr is None else _resolve_worker(
                project, info.module, worker_expr)
            if worker is None:
                label = "?" if worker_expr is None else \
                    ast.unparse(worker_expr)
            elif isinstance(worker_expr, ast.Call):
                # partial(worker, ...): name the worker, not the wrapper.
                label = worker.name
            else:
                label = ".".join(attr_chain(worker_expr)) or worker.name
            sites.setdefault(info.module, []).append((node, worker, label))
    return sites


def _is_runner_call(project, node, caller):
    """A call is a runner site when it resolves into ``repro.parallel``
    (or cannot resolve at all — synthetic fixtures analyze a single
    module, so the runner's definition is outside the project)."""
    candidates, _strong = project.resolve_call_ex(
        node, caller.module, caller)
    if not candidates:
        return True
    return any(
        c.module.startswith("repro.parallel") for c in candidates
    )


def _worker_expr(call, position):
    if len(call.args) > position:
        return call.args[position]
    for kw in call.keywords:
        if kw.arg == "fn":
            return kw.value
    return None


def _resolve_worker(project, module, expr):
    if isinstance(expr, ast.Call):
        # functools.partial(worker, ...) binds config, not impurity.
        chain = attr_chain(expr.func)
        if chain and chain[-1] == "partial" and expr.args:
            return _resolve_worker(project, module, expr.args[0])
        return None
    chain = attr_chain(expr)
    table = project.modules.get(module)
    if not chain or table is None:
        return None
    if len(chain) == 1:
        name = chain[0]
        if name in table.functions:
            return table.functions[name]
        origin = table.imports.get(name)
        if origin is not None:
            return project.resolve_dotted(origin)
        return None
    origin = table.imports.get(chain[0])
    if origin is not None:
        return project.resolve_dotted(".".join([origin] + chain[1:]))
    return None


def check_module(engine, config, sites, mod):
    """Yield purity findings for one module's runner call sites."""
    allowed = config.effects_purity_allowed_writes
    for call, worker, label in sites.get(mod.module, ()):
        if worker is None:
            yield Finding(
                path=mod.path, line=call.lineno, rule=RULE,
                message=f"parallel task '{label}' does not resolve to a "
                        f"project function, so its purity is unchecked",
                hint="pass the worker itself: a module-level function "
                     "or a functools.partial of one",
                module=mod.module)
            continue
        summary = engine.summaries.get(worker.qualname)
        if summary is None:
            continue
        offending = sorted(
            tok for tok in summary.writes if display(tok) not in allowed
        )
        if not offending:
            continue
        shown = ", ".join(display(tok) for tok in offending[:3])
        if len(offending) > 3:
            shown += ", ..."
        mutates_item = any(
            tok[0].startswith("param:") for tok in offending)
        detail = (
            "mutates its task item (diverges between --jobs 1 and "
            "--jobs N)" if mutates_item and all(
                tok[0].startswith("param:") for tok in offending)
            else "writes ambient shared state"
        )
        yield Finding(
            path=mod.path,
            line=call.lineno,
            rule=RULE,
            message=(
                f"parallel task '{label}' {detail}: {shown}; "
                f"--jobs N bit-identity requires pure workers"
            ),
            hint=(
                "build all state locally inside the worker (fresh "
                "objects per task), or annotate with # repro: "
                "allow[effects/parallel-purity] and a reason"
            ),
            module=mod.module,
        )
