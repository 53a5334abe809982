"""Source discovery, suppression parsing, and the analysis driver.

The walker turns files into :class:`ModuleSource` objects (path, dotted
module name, parsed AST, suppression table), runs every registered pass
over them, and filters findings through the per-line
``# repro: allow[RULE]`` annotations.

Suppression syntax
------------------

Either on the offending line::

    self.kernel.epc.resize(n)   # repro: allow[mutation-discipline] why

or as a standalone comment immediately above it::

    # repro: allow[trust-boundary] the attacker probes host state
    pfn = self.enclave.backed[vpn]

Several rules may be listed, comma separated.  A bare family name
(``trust-boundary``) suppresses every rule in the family; a full rule
id (``trust-boundary/attr``) suppresses only that rule.  Stale
annotations that suppress nothing are themselves reported under
``suppression/unused`` in ``--strict`` mode.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding, Report

ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")

#: Directories never scanned inside the package tree.
SKIP_DIRS = {"__pycache__"}


def attr_chain(node):
    """Flatten an attribute/name/call chain into its name segments.

    ``self.epcm.entry(pfn).pending`` → ``["self", "epcm", "entry",
    "pending"]``; returns ``[]`` when the chain roots in something
    unnameable (a literal, a subscript result, …).
    """
    parts = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            break
        else:
            return []
    parts.reverse()
    return parts


def comment_tokens(source):
    """The comment tokens of ``source`` (none once it stops tokenizing):
    the analyzer's annotations are real comments, so mentioning their
    syntax in a docstring or string literal is inert."""
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok
    except (tokenize.TokenError, IndentationError):
        return


class Suppressions:
    """The ``# repro: allow[...]`` table of one source file.

    Annotations are real comment tokens (found via :mod:`tokenize`), so
    the syntax can be *mentioned* in docstrings and string literals —
    the analyzer's own documentation depends on that.
    """

    def __init__(self, source):
        #: code line → (frozenset of allowed rule tokens, comment line)
        self.by_line = {}
        self._used = set()       # comment lines that suppressed something
        self._comment_lines = {}  # comment line → tokens (for staleness)

        lines = source.splitlines()
        allow_comments = {}      # lineno → (rules, standalone?)
        for tok in comment_tokens(source):
            match = ALLOW_RE.search(tok.string)
            if not match:
                continue
            rules = frozenset(
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            )
            lineno, col = tok.start
            standalone = lines[lineno - 1][:col].strip() == ""
            allow_comments[lineno] = (rules, standalone)
            self._comment_lines[lineno] = rules

        pending_rules, pending_line = None, None
        for lineno in range(1, len(lines) + 1):
            entry = allow_comments.get(lineno)
            if entry is not None:
                rules, standalone = entry
                if standalone:
                    # Applies to the next code line (consecutive
                    # standalone allows merge).
                    if pending_rules:
                        pending_rules = pending_rules | rules
                    else:
                        pending_rules, pending_line = rules, lineno
                else:
                    self.by_line[lineno] = (rules, lineno)
                continue
            stripped = lines[lineno - 1].strip()
            if not stripped or stripped.startswith("#"):
                continue  # blanks and plain comments keep the pending
            if pending_rules is not None:
                self.by_line[lineno] = (pending_rules, pending_line)
            pending_rules, pending_line = None, None

    @staticmethod
    def _matches(tokens, rule):
        family = rule.split("/", 1)[0]
        return rule in tokens or family in tokens

    def suppresses(self, rule, line):
        """True iff ``rule`` at ``line`` is annotated away (marks the
        annotation as used)."""
        entry = self.by_line.get(line)
        if entry is None:
            return False
        tokens, comment_line = entry
        if self._matches(tokens, rule):
            self._used.add(comment_line)
            return True
        return False

    def unused(self):
        """Comment lines whose annotation never suppressed a finding."""
        return sorted(
            line for line in self._comment_lines if line not in self._used
        )

    def unused_entries(self):
        """Like :meth:`unused`, with each line's rule tokens (so the
        driver can skip annotations for families it did not run)."""
        return [
            (line, self._comment_lines[line]) for line in self.unused()
        ]


@dataclass
class ModuleSource:
    """One parsed source file ready for analysis."""

    path: str
    module: str
    source: str
    tree: ast.AST
    suppressions: Suppressions = field(default=None)

    def __post_init__(self):
        if self.suppressions is None:
            self.suppressions = Suppressions(self.source)


#: Directory names that anchor a dotted module name besides ``repro``:
#: the repo's sibling trees the analyzer also covers.
ROOT_COMPONENTS = ("repro", "tests", "benchmarks", "examples")


def module_name_for(path):
    """Derive the dotted module name from a file path.

    Looks for the last ``repro`` component (or a ``tests``/
    ``benchmarks``/``examples`` root) so it works for the installed
    tree, ``src/`` checkouts, sibling trees, and synthetic test trees
    alike; falls back to the file stem.
    """
    parts = list(Path(path).with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for root in ROOT_COMPONENTS:  # "repro" wins over an enclosing root
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == root:
                return ".".join(parts[i:])
    return parts[-1] if parts else str(path)


def load_module(path, module=None):
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return ModuleSource(
        path=str(path),
        module=module or module_name_for(path),
        source=source,
        tree=ast.parse(source, filename=str(path)),
    )


def iter_source_files(root):
    root = Path(root)
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if SKIP_DIRS.intersection(path.parts):
            continue
        yield path


def default_root():
    """The installed ``repro`` package directory."""
    import repro
    return Path(repro.__file__).parent


def default_roots():
    """Default analysis scope: the package plus, when running from a
    checkout (``src/repro`` layout with a ``pyproject.toml`` two levels
    up), the ``benchmarks/`` and ``examples/`` trees."""
    package = default_root()
    roots = [package]
    repo = package.parent.parent
    if (repo / "pyproject.toml").is_file():
        for extra in ("benchmarks", "examples"):
            tree = repo / extra
            if tree.is_dir():
                roots.append(tree)
    return roots


def run_passes(modules, strict=False, only=None):
    """Run the registered passes over ``modules``; returns a Report.

    The interprocedural :class:`~repro.analysis.callgraph.Project` is
    built exactly once here and shared by every pass via ``prepare``;
    its build time, resolution-cache statistics, and per-pass-family
    wall time land in the report (``--format json``) so regressions in
    graph construction or any one pass are visible in CI.  ``only``
    restricts the run to the named pass families; stale-annotation
    findings (``--strict``) then cover only annotations mentioning
    those families, so a narrowed run cannot misreport suppressions
    owned by passes it never executed.
    """
    import time

    from repro.analysis.callgraph import Project
    from repro.analysis.passes import build_passes

    passes = build_passes(only=only)
    # Timing tool output, never a simulated result: the analyzer runs
    # on the host, outside the deterministic simulation.
    started = time.perf_counter()  # repro: allow[determinism/time]
    project = Project(modules)
    build_seconds = time.perf_counter() - started  # repro: allow[determinism/time]
    pass_seconds = {pass_.family: 0.0 for pass_ in passes}
    for pass_ in passes:
        prepare = getattr(pass_, "prepare", None)
        if prepare is not None:
            started = time.perf_counter()  # repro: allow[determinism/time]
            prepare(project)
            pass_seconds[pass_.family] += \
                time.perf_counter() - started  # repro: allow[determinism/time]
    report = Report()
    report.callgraph = {
        "build_seconds": round(build_seconds, 6),
        "modules": len(project.modules),
        "functions": len(project.functions),
    }
    ran_families = frozenset(pass_seconds)
    for mod in modules:
        report.checked_files += 1
        for pass_ in passes:
            if not pass_.applies(mod.module):
                continue
            started = time.perf_counter()  # repro: allow[determinism/time]
            for finding in pass_.run(mod):
                if mod.suppressions.suppresses(finding.rule, finding.line):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)
            pass_seconds[pass_.family] += \
                time.perf_counter() - started  # repro: allow[determinism/time]
        if strict:
            for line, tokens in mod.suppressions.unused_entries():
                if only is not None and not any(
                        token.split("/", 1)[0] in ran_families
                        for token in tokens):
                    continue
                report.findings.append(Finding(
                    path=mod.path,
                    line=line,
                    rule="suppression/unused",
                    message="allow annotation suppresses nothing",
                    hint="delete the stale # repro: allow[...] comment",
                    module=mod.module,
                ))
    report.findings.sort(key=Finding.sort_key)
    report.callgraph["resolve_cache_hits"] = project.cache_hits
    report.callgraph["resolve_cache_misses"] = project.cache_misses
    report.callgraph["pass_seconds"] = {
        family: round(seconds, 6)
        for family, seconds in sorted(pass_seconds.items())
    }
    return report


def analyze_paths(paths, strict=False, only=None):
    """Analyze explicit files/directories; returns a Report."""
    modules = []
    for path in paths:
        for file_path in iter_source_files(path):
            modules.append(load_module(file_path))
    return run_passes(modules, strict=strict, only=only)


def analyze_tree(root=None, strict=False, only=None):
    """Analyze the default scope (package + benchmarks/ + examples/
    when present); an explicit ``root`` narrows to that tree."""
    roots = [root] if root is not None else default_roots()
    return analyze_paths(roots, strict=strict, only=only)


def analyze_source(source, module, path="<memory>", strict=False,
                   only=None):
    """Analyze one in-memory snippet (the unit-test entry point)."""
    mod = ModuleSource(
        path=path,
        module=module,
        source=source,
        tree=ast.parse(source, filename=path),
    )
    return run_passes([mod], strict=strict, only=only)
