"""EPC allocator and EPCM security-check unit tests."""

import pytest

from repro.errors import EpcExhausted, EpcmViolation, SgxError
from repro.sgx.epc import EpcAllocator
from repro.sgx.epcm import Epcm, EpcmEntry, PageType, Permissions
from repro.sgx.params import AccessType


class TestEpcAllocator:
    def test_alloc_until_exhausted(self):
        epc = EpcAllocator(3)
        frames = [epc.alloc() for _ in range(3)]
        assert len({f.pfn for f in frames}) == 3
        with pytest.raises(EpcExhausted):
            epc.alloc()

    def test_free_allows_reuse(self):
        epc = EpcAllocator(1)
        frame = epc.alloc()
        epc.free(frame)
        again = epc.alloc()
        assert again.pfn == frame.pfn

    def test_double_free_rejected(self):
        epc = EpcAllocator(2)
        frame = epc.alloc()
        epc.free(frame)
        with pytest.raises(SgxError):
            epc.free(frame)

    def test_free_scrubs_contents(self):
        epc = EpcAllocator(1)
        frame = epc.alloc()
        frame.contents = "secret"
        epc.free(frame)
        assert epc.alloc().contents is None

    def test_counters(self):
        epc = EpcAllocator(4)
        epc.alloc()
        epc.alloc()
        assert epc.used_pages == 2
        assert epc.free_pages == 2

    def test_lookup_unallocated_frame_rejected(self):
        epc = EpcAllocator(2)
        with pytest.raises(SgxError):
            epc.frame(0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            EpcAllocator(0)


class TestPermissions:
    def test_rw_denies_exec(self):
        assert Permissions.RW.allows(AccessType.READ)
        assert Permissions.RW.allows(AccessType.WRITE)
        assert not Permissions.RW.allows(AccessType.EXEC)

    def test_rx_denies_write(self):
        assert Permissions.RX.allows(AccessType.EXEC)
        assert not Permissions.RX.allows(AccessType.WRITE)

    def test_without_write(self):
        assert not Permissions.RWX.without_write().write
        assert Permissions.RWX.without_write().execute


class TestEpcmChecks:
    def _valid_entry(self, epcm, pfn=0, enclave_id=1, vaddr=0x1000):
        entry = epcm.entry(pfn)
        entry.valid = True
        entry.page_type = PageType.REG
        entry.enclave_id = enclave_id
        entry.vaddr = vaddr
        entry.perms = Permissions.RW
        return entry

    def test_valid_access_passes(self):
        epcm = Epcm(4)
        self._valid_entry(epcm)
        epcm.check_access(0, 1, 0x1000, AccessType.READ)

    def test_invalid_entry_rejected(self):
        epcm = Epcm(4)
        with pytest.raises(EpcmViolation):
            epcm.check_access(0, 1, 0x1000, AccessType.READ)

    def test_wrong_enclave_rejected(self):
        epcm = Epcm(4)
        self._valid_entry(epcm, enclave_id=1)
        with pytest.raises(EpcmViolation):
            epcm.check_access(0, 2, 0x1000, AccessType.READ)

    def test_wrong_vaddr_rejected(self):
        """The OS mapping the wrong frame at an address is caught —
        the core of SGX's page-table integrity."""
        epcm = Epcm(4)
        self._valid_entry(epcm, vaddr=0x1000)
        with pytest.raises(EpcmViolation):
            epcm.check_access(0, 1, 0x2000, AccessType.READ)

    def test_pending_page_rejected(self):
        epcm = Epcm(4)
        entry = self._valid_entry(epcm)
        entry.pending = True
        with pytest.raises(EpcmViolation):
            epcm.check_access(0, 1, 0x1000, AccessType.READ)

    def test_modified_page_rejected(self):
        epcm = Epcm(4)
        entry = self._valid_entry(epcm)
        entry.modified = True
        with pytest.raises(EpcmViolation):
            epcm.check_access(0, 1, 0x1000, AccessType.READ)

    def test_blocked_page_rejected(self):
        epcm = Epcm(4)
        entry = self._valid_entry(epcm)
        entry.blocked = True
        with pytest.raises(EpcmViolation):
            epcm.check_access(0, 1, 0x1000, AccessType.READ)

    def test_perm_violation_rejected(self):
        epcm = Epcm(4)
        self._valid_entry(epcm)  # RW
        with pytest.raises(EpcmViolation):
            epcm.check_access(0, 1, 0x1000, AccessType.EXEC)

    def test_non_reg_page_type_rejected(self):
        epcm = Epcm(4)
        entry = self._valid_entry(epcm)
        entry.page_type = PageType.TCS
        with pytest.raises(EpcmViolation):
            epcm.check_access(0, 1, 0x1000, AccessType.READ)

    def test_default_entry_invalid(self):
        assert not EpcmEntry().valid

    def test_never_used_frame_reads_invalid(self):
        # Entries are created on first use: a frame no instruction has
        # touched reads as a fresh, invalid entry, and checking it
        # creates nothing.
        epcm = Epcm(4)
        with pytest.raises(EpcmViolation, match="pfn 3: EPCM entry invalid"):
            epcm.check_access(3, 1, 0x1000, AccessType.READ)
        assert len(epcm._entries) == 0
        assert not epcm.entry(3).valid
        assert len(epcm._entries) == 1

    @pytest.mark.parametrize("pfn", (-1, 4, 1_000))
    def test_pfn_outside_the_epc_raises(self, pfn):
        epcm = Epcm(4)
        with pytest.raises(IndexError):
            epcm.entry(pfn)
        with pytest.raises(IndexError):
            epcm.check_access(pfn, 1, 0x1000, AccessType.READ)
