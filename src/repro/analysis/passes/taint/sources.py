"""Where secrets enter the program.

Two kinds of taint source feed the leakage engine:

* **Default sources** — parameter names that are secrets whenever
  they enter a function under a module prefix
  (:data:`repro.analysis.config.TAINT_SECRET_PARAMS`): app inputs like
  ``word``/``key``/``features`` and ORAM ``block_id``.
* **In-line declarations** — a ``# repro: secret`` comment on (or
  standalone above) a ``def`` marks every parameter secret
  (``# repro: secret[a, b]`` restricts to the named ones); on an
  assignment it marks the assigned names.

Like suppressions, declarations are real comment tokens found via
:mod:`tokenize`, so mentioning the syntax in a docstring is inert.
"""

from __future__ import annotations

import re

from repro.analysis.config import TAINT_SECRET_PARAMS
from repro.analysis.walker import comment_tokens

SECRET_RE = re.compile(r"#\s*repro:\s*secret(?:\[([^\]]*)\])?")


class SecretDecls:
    """The ``# repro: secret`` table of one source file.

    ``for_line(n)`` returns ``None`` (no declaration), ``()`` (declare
    everything on that line), or a tuple of names.
    """

    def __init__(self, source):
        self.by_line = {}
        lines = source.splitlines()
        decls = {}
        for tok in comment_tokens(source):
            match = SECRET_RE.search(tok.string)
            if not match:
                continue
            names = ()
            if match.group(1):
                names = tuple(
                    n.strip() for n in match.group(1).split(",")
                    if n.strip())
            lineno, col = tok.start
            standalone = lines[lineno - 1][:col].strip() == ""
            decls[lineno] = (names, standalone)

        pending = None
        for lineno in range(1, len(lines) + 1):
            entry = decls.get(lineno)
            if entry is not None:
                names, standalone = entry
                if standalone:
                    pending = names if pending is None else pending + names
                else:
                    self.by_line[lineno] = names
                continue
            stripped = lines[lineno - 1].strip()
            if not stripped or stripped.startswith("#"):
                continue
            if pending is not None:
                self.by_line[lineno] = pending
            pending = None

    def __bool__(self):
        return bool(self.by_line)

    def for_line(self, lineno):
        return self.by_line.get(lineno)


def default_secret_params(module, func_info):
    """Parameter names of ``func_info`` that are secret by default
    under ``module``."""
    secret = set()
    for prefix, names in TAINT_SECRET_PARAMS.items():
        if module.startswith(prefix):
            secret.update(n for n in func_info.params if n in names)
            secret.update(n for n in func_info.kwonly if n in names)
    return secret


def declared_secret_params(decls, func_info):
    """Parameter names declared secret by a ``# repro: secret`` on the
    ``def`` line (or standalone above it)."""
    node = func_info.node
    lineno = node.lineno
    if node.decorator_list:
        lineno = node.decorator_list[0].lineno
    names = decls.for_line(lineno)
    if names is None and lineno != node.lineno:
        names = decls.for_line(node.lineno)
    if names is None:
        return set()
    if names == ():
        return set(func_info.params) | set(func_info.kwonly)
    return {n for n in names
            if n in func_info.params or n in func_info.kwonly}
