"""One digest for every run, explored state, and recovery fingerprint."""

from __future__ import annotations

import hashlib


def canonical_digest(value):
    """Hex sha256 of ``repr(value)``; ``value`` must be a canonical
    tuple tree (deterministic ``repr``).  Run digests print its first
    16 hex characters."""
    return hashlib.sha256(repr(value).encode()).hexdigest()
