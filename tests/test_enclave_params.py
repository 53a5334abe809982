"""Enclave object, measurement, params helpers, and error hierarchy."""

import pickle

import pytest

from repro import errors
from repro.sgx.enclave import Enclave, EnclaveAttributes, Measurement
from repro.sgx.params import (
    PAGE_SIZE,
    AccessType,
    ArchOptimizations,
    CostModel,
    page_base,
    vpn_of,
)

BASE = 0x2000_0000


class TestHelpers:
    def test_vpn_of(self):
        assert vpn_of(0) == 0
        assert vpn_of(PAGE_SIZE) == 1
        assert vpn_of(PAGE_SIZE + 5) == 1

    def test_page_base(self):
        assert page_base(PAGE_SIZE + 5) == PAGE_SIZE
        assert page_base(PAGE_SIZE) == PAGE_SIZE

    def test_access_type_values(self):
        assert AccessType.READ.value == "r"
        assert AccessType.WRITE.value == "w"
        assert AccessType.EXEC.value == "x"


class TestCostModel:
    def test_transition_pairs(self):
        cost = CostModel()
        assert cost.transition_pair_aex() == cost.aex + cost.eresume
        assert cost.transition_pair_call() == cost.eenter + cost.eexit

    def test_arch_optimizations_default_off(self):
        opts = ArchOptimizations()
        assert not opts.elide_aex
        assert not opts.in_enclave_resume


class TestEnclave:
    def test_range_queries(self):
        enclave = Enclave(BASE, 4)
        assert enclave.contains(BASE)
        assert enclave.contains(BASE + 4 * PAGE_SIZE - 1)
        assert not enclave.contains(BASE + 4 * PAGE_SIZE)
        assert not enclave.contains(BASE - 1)
        assert enclave.limit == BASE + 4 * PAGE_SIZE

    def test_contains_vpn(self):
        enclave = Enclave(BASE, 4)
        assert enclave.contains_vpn(vpn_of(BASE))
        assert not enclave.contains_vpn(vpn_of(BASE) + 4)

    def test_unaligned_base_rejected(self):
        with pytest.raises(errors.SgxError):
            Enclave(BASE + 1, 4)

    def test_require_alive(self):
        enclave = Enclave(BASE, 4)
        enclave.require_alive()
        enclave.dead = True
        with pytest.raises(errors.SgxError):
            enclave.require_alive()

    def test_ids_increase(self):
        assert Enclave(BASE, 1).enclave_id < Enclave(BASE, 1).enclave_id

    def test_default_attributes(self):
        attrs = EnclaveAttributes()
        assert not attrs.self_paging
        assert attrs.sgx2


class TestMeasurement:
    def test_digest_depends_on_history(self):
        a, b = Measurement(), Measurement()
        a.extend("EADD", 0x1000)
        b.extend("EADD", 0x2000)
        assert a.digest() != b.digest()

    def test_digest_stable(self):
        m = Measurement()
        m.extend("EADD", 0x1000)
        assert m.digest() == m.digest()

    def test_order_matters(self):
        a, b = Measurement(), Measurement()
        a.extend("EADD", 1)
        a.extend("EADD", 2)
        b.extend("EADD", 2)
        b.extend("EADD", 1)
        assert a.digest() != b.digest()


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc_type in (
            errors.SgxError, errors.EpcmViolation, errors.EpcExhausted,
            errors.IntegrityError, errors.PageFault,
            errors.EnclaveTerminated, errors.AttackDetected,
            errors.RateLimitExceeded, errors.PolicyError,
        ):
            assert issubclass(exc_type, errors.ReproError)

    def test_attack_detected_is_termination(self):
        assert issubclass(errors.AttackDetected,
                          errors.EnclaveTerminated)
        assert issubclass(errors.RateLimitExceeded,
                          errors.EnclaveTerminated)

    def test_epcm_violation_is_sgx_error(self):
        assert issubclass(errors.EpcmViolation, errors.SgxError)

    def test_page_fault_formats_fields(self):
        fault = errors.PageFault(0x1234, write=True, present=False,
                                 reason="test")
        text = str(fault)
        assert "0x1234" in text and "write=True" in text
        assert text == ("#PF at 0x1234 (write=True, exec=False, "
                        "present=False, reason='test')")

    def test_page_fault_pickles_with_its_fields(self):
        fault = errors.PageFault(0x1234, exec_=True, present=True,
                                 reason="protection")
        copy = pickle.loads(pickle.dumps(fault))
        assert (copy.vaddr, copy.write, copy.exec_, copy.present,
                copy.reason) == (0x1234, False, True, True, "protection")
        assert str(copy) == str(fault)

    def test_enclave_terminated_keeps_cause(self):
        exc = errors.EnclaveTerminated("why")
        assert exc.cause == "why"
