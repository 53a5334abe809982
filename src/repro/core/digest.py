"""One digest for every run, explored state, and recovery fingerprint,
and one way to gate fresh digests against committed ones."""

from __future__ import annotations

import hashlib
import json


def canonical_digest(value):
    """Hex sha256 of ``repr(value)``; ``value`` must be a canonical
    tuple tree (deterministic ``repr``).  Run digests print its first
    16 hex characters."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def read_pinned(path, pins_of):
    """The committed JSON report at ``path``, whose digests
    ``pins_of(report)`` keys.  Raises ``ValueError`` saying why when
    the file cannot be read, is not such a report or pins nothing, so
    a gate with nothing to compare refuses to run."""
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        pinned = pins_of(report)
    except OSError as exc:
        raise ValueError(exc.strerror or exc) from exc
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"not a committed report ({exc!r})") from exc
    if not pinned:
        raise ValueError("it pins no digest")
    return report


def pin_mismatches(fresh, pinned, describe):
    """One line per key that ``fresh`` and ``pinned`` both hold with
    different digests, in key order: ``describe(key): fresh !=
    baseline pinned``."""
    return [
        f"{describe(key)}: {fresh[key]} != baseline {pinned[key]}"
        for key in sorted(fresh.keys() & pinned.keys())
        if fresh[key] != pinned[key]
    ]
