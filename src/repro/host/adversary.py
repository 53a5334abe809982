"""The Byzantine host's acts, implemented once.

In Autarky the adversary is the OS itself (§3): it owns the page
tables, the EPC paging path, interrupt delivery and whole-enclave
suspension (§5.2.1), and it can scribble on every sealed blob it
stores.  The chaos campaign, the model checker's worlds and the service
router all play that OS; this module is the one library of what it can
do.  Each caller keeps only its own target choice — the campaign's
seeded RNG, the model's lowest address, the router's elected primary —
and its own bookkeeping.

Every act sees only what the host sees: the kernel, an enclave, its
TCS, page addresses and a :class:`~repro.host.backing.BackingStore`
(the kernel's EWB store, or the untrusted memory an SGX2 runtime seals
its own pages into).
"""

from __future__ import annotations


def swapped_out(kernel, enclave, store, within, stale=False):
    """Sorted pages of ``within`` whose sealed blob sits in ``store``
    while the page is not resident: the pages a forged blob can reach.
    With ``stale``, only those with a superseded blob to replay."""
    eid = enclave.enclave_id
    pages = store.swapped_pages(eid)
    if stale:
        shelf = set(store.stale_pages(eid))
        pages = [v for v in pages if v in shelf]
    resident = kernel.driver.resident
    return [v for v in pages
            if v in within and not resident(enclave, v)]


def suspended_pages(kernel, enclave, within=None):
    """Sorted pages a suspended enclave's resume will reload (only those
    in ``within`` when given): forging one of them is consumed by the
    resume itself, not by a later fault."""
    pages = sorted(kernel.driver.state(enclave).suspend_set)
    if within is None:
        return pages
    return [v for v in pages if v in within]


def tamper(store, enclave, vaddr, replay=False):
    """Replace the sealed blob of ``vaddr`` with a forged copy, or with
    its superseded copy when ``replay``.  Reloading it must fail
    integrity verification."""
    if replay:
        store.replay(enclave.enclave_id, vaddr)
    else:
        store.forge(enclave.enclave_id, vaddr)


def clobber(kernel, vaddr, clear_ad=False):
    """Unmap a page the enclave believes resident, or clear the
    accessed/dirty bits Autarky requires set; the next touch must be
    diagnosed as an attack."""
    if clear_ad:
        kernel.page_table.set_accessed_dirty(vaddr, accessed=False,
                                             dirty=False)
    else:
        kernel.page_table.drop(vaddr)


def aex_storm(kernel, enclave, tcs, rounds):
    """``rounds`` interrupt/resume round trips: the §3.2 interrupt
    channel.  It costs cycles, never correctness."""
    cpu = kernel.cpu
    for _ in range(rounds):
        cpu.interrupt(enclave, tcs)
        cpu.resume_from_interrupt(enclave, tcs)


def resume(kernel, enclave, forged=False):
    """Resume a suspended enclave.  When the host ``forged`` a
    suspend-set blob meanwhile, ELDU must reject it, so a resume that
    returns is a violation; returns the violation messages."""
    kernel.driver.resume_enclave(enclave)
    if forged:
        return ["resume restored a forged suspend-set blob without "
                "aborting"]
    return []
