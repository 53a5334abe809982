"""Deliberately mis-ordered SGX ISA flows: golden fixture for the
lifecycle pass.  Analyzed as ``repro.experiments.fixture_misordered``
— each automaton fires on its marked line."""


def broken_launch(instr, epc, page):
    enclave = instr.ecreate(epc, size=4)
    instr.einit(enclave)
    instr.eadd(enclave, page)  # launch: EADD after EINIT
    instr.eenter(enclave)


def broken_evict(instr, page_table, enclave, page):
    instr.ewb(enclave, page)
    page_table.drop(page)  # evict: shootdown after EWB
    instr.eblock(enclave, page)  # evict: EBLOCK after EWB


def broken_resume(cpu, enclave):
    cpu.eresume(enclave)  # resume: ERESUME before its AEX
    cpu.aex(enclave)


def broken_batched_evict(instr, page_table, enclave, bases):
    found = instr.eblock_check(enclave, bases)
    instr.eblock_pages(enclave, bases, found)
    instr.ewb_pages(enclave, bases, found)
    page_table.drop_pages(bases)  # evict: shootdown after EWB
