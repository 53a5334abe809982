"""Untrusted backing store for evicted enclave pages.

The kernel's store holds the sealed blobs EWB produces; an SGX2
runtime keeps one of its own for the pages it seals in-enclave.  Being
untrusted memory, a store exposes tampering primitives, which the
host's acts (:mod:`repro.host.adversary`) use: the crypto layer, not
the store, is what keeps the enclave safe.
"""

from __future__ import annotations

import dataclasses

from repro.errors import SgxError


class BackingStore:
    """(enclave_id, vaddr) → sealed page blob, plus a replay shelf."""

    def __init__(self):
        self._pages = {}
        #: Old blobs an attacker squirrelled away for replay attempts.
        self._stale = {}
        #: Audit trail of attacker writes: (kind, enclave_id, vaddr).
        #: Ground truth for chaos campaigns — if a run consumed a page
        #: recorded here without aborting, the safety invariant fell.
        self.tamper_log = []
        #: Keys whose *current* blob is attacker-written.  A fresh
        #: legitimate put() clears the taint; take() of a tainted key
        #: hands hostile bytes to the loader.
        self.tainted = set()

    def put(self, enclave_id, vaddr, sealed):
        """Store a freshly sealed blob, superseding any current one.

        Re-evicting the same page must carry a *strictly newer* version:
        the crypto layer bumps the version counter on every seal, and a
        legitimate reload always ``take()``s the entry first.  A put()
        that would regress the version is therefore a driver/runtime bug
        (it would let journal replay silently accept an older page), so
        it fails loudly here.  Attacker writes go through
        :meth:`substitute`/:meth:`replay`, which bypass this check —
        the *crypto* layer is what defeats those.
        """
        self.put_pages(enclave_id, (vaddr,), (sealed,))

    def put_pages(self, enclave_id, vaddrs, blobs):
        """:meth:`put` each ``(vaddr, sealed)`` pair in order.  Every
        page keeps its own version check, stale-shelf copy and taint
        reset; a regression stops the list at that page."""
        pages = self._pages
        tainted = self.tainted
        for vaddr, sealed in zip(vaddrs, blobs):
            key = (enclave_id, vaddr)
            old = pages.get(key)
            if old is not None:
                old_v = getattr(old, "version", None)
                new_v = getattr(sealed, "version", None)
                if (key not in tainted
                        and old_v is not None and new_v is not None
                        and new_v <= old_v):
                    # A tainted entry is exempt: its version field is
                    # attacker-chosen garbage, and rewriting the true
                    # blob over it is a restore, not a regression.
                    raise SgxError(
                        f"backing-store version regression for "
                        f"{vaddr:#x} (enclave {enclave_id}): put version "
                        f"{new_v} over stored version {old_v}"
                    )
                self._stale[key] = old
            pages[key] = sealed
            tainted.discard(key)

    def get(self, enclave_id, vaddr):
        return self._pages.get((enclave_id, vaddr))

    def take(self, enclave_id, vaddr):
        """Remove and return the blob (a page being reloaded).

        The blob also lands on the stale shelf: untrusted memory has no
        delete — an attacker keeps a copy of everything it ever held."""
        return self.take_pages(enclave_id, (vaddr,))[0]

    def take_pages(self, enclave_id, vaddrs):
        """:meth:`take` each page in order; a missing blob stops the list
        at that page."""
        pages = self._pages
        stale = self._stale
        blobs = []
        for vaddr in vaddrs:
            key = (enclave_id, vaddr)
            sealed = pages.pop(key, None)
            if sealed is None:
                raise SgxError(
                    f"no swapped copy of {vaddr:#x} for enclave {enclave_id}"
                )
            stale[key] = sealed
            blobs.append(sealed)
        return blobs

    def accepts_puts(self, enclave_id, vaddrs):
        """Whether :meth:`put_pages` would skip every version check: no
        page has a current blob, or only an attacker-written one."""
        pages = self._pages
        tainted = self.tainted
        for vaddr in vaddrs:
            key = (enclave_id, vaddr)
            if key in pages and key not in tainted:
                return False
        return True

    def has(self, enclave_id, vaddr):
        return (enclave_id, vaddr) in self._pages

    def swapped_pages(self, enclave_id):
        """Sorted page addresses currently swapped out for an enclave."""
        return sorted(v for e, v in self._pages if e == enclave_id)

    def stale_pages(self, enclave_id):
        """Sorted page addresses with a superseded blob on the shelf."""
        return sorted(v for e, v in self._stale if e == enclave_id)

    def __len__(self):
        return len(self._pages)

    # -- attacker primitives (used by security tests) ----------------------

    def stale_copy(self, enclave_id, vaddr):
        """A previously superseded blob, for replay attempts."""
        return self._stale.get((enclave_id, vaddr))

    def substitute(self, enclave_id, vaddr, sealed):
        """Overwrite the stored blob with attacker-chosen bytes."""
        key = (enclave_id, vaddr)
        self.tamper_log.append(("substitute", enclave_id, vaddr))
        self._pages[key] = sealed
        self.tainted.add(key)

    def forge(self, enclave_id, vaddr, mac="forged"):
        """Substitute the stored blob with a copy carrying a forged
        ``mac``; reloading it must fail integrity verification."""
        blob = self._pages[(enclave_id, vaddr)]
        self.substitute(enclave_id, vaddr, dataclasses.replace(blob, mac=mac))

    def replay(self, enclave_id, vaddr):
        """Put the stale-shelf copy back in place (a replay attack).
        Returns True when a stale blob existed to replay."""
        stale = self._stale.get((enclave_id, vaddr))
        if stale is None:
            return False
        key = (enclave_id, vaddr)
        self.tamper_log.append(("replay", enclave_id, vaddr))
        self._pages[key] = stale
        self.tainted.add(key)
        return True

    def tampered_pages(self, enclave_id):
        """Page addresses this store saw attacker writes for."""
        return {
            vaddr for _kind, eid, vaddr in self.tamper_log
            if eid == enclave_id
        }
