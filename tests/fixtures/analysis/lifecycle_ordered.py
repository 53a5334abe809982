"""Correctly ordered SGX ISA flows: negative fixture for the
lifecycle pass.  Analyzed as ``repro.experiments.fixture_ordered``;
must produce zero findings — including the branch-arm and
eviction/reload shapes the automata are designed not to flag."""


def clean_launch(instr, epc, pages):
    enclave = instr.ecreate(epc, size=4)
    for page in pages:
        instr.eadd(enclave, page)
        instr.eextend(enclave, page)
    instr.einit(enclave)
    instr.eenter(enclave)
    return enclave


def clean_evict(instr, page_table, enclave, page):
    instr.eblock(enclave, page)
    page_table.drop(page)
    instr.ewb(enclave, page)


def evict_reload_cycle(instr, page_table, enclave, page):
    instr.eblock(enclave, page)
    page_table.drop(page)
    instr.ewb(enclave, page)
    instr.eldu(enclave, page)
    instr.eblock(enclave, page)
    page_table.drop(page)
    instr.ewb(enclave, page)


def branch_arms_are_independent(instr, page_table, enclave, page, fast):
    if fast:
        instr.ewb(enclave, page)
    else:
        instr.eblock(enclave, page)
        page_table.drop(page)
        instr.ewb(enclave, page)


def driver_batched_cycle(instr, page_table, backing, enclave, bases,
                         perms):
    """The driver's pager transactions: EBLOCK's check phase validates
    an eviction, and EBLOCK and EWB commit with what it returned; ELDU's
    check phase validates the reload."""
    found = instr.eblock_check(enclave, bases)
    instr.eblock_pages(enclave, bases, found)
    page_table.drop_pages(bases)
    sealed = instr.ewb_pages(enclave, bases, found)
    backing.put_pages(enclave.enclave_id, bases, sealed)
    blobs = backing.take_pages(enclave.enclave_id, bases)
    contents = instr.eldu_check(enclave, bases, blobs)
    instr.eldu_pages(enclave, bases, blobs, perms, contents)
    instr.eblock_pages(enclave, bases)


def clean_resume(cpu, enclave):
    cpu.aex(enclave)
    cpu.eresume(enclave)
