"""The frozen value records built on the hot paths: ``SealedPage`` (one
per evicted page), ``SealedBlob`` (one per journal record), ``Request``
and ``RequestResult`` (one each per service request).

Each must behave as the ``@dataclass(frozen=True)`` it is declared as,
however its ``__init__`` is written: same fields in the same order,
positional and keyword construction, refused assignment, value equality
and hashing, ``repr``, pickling, and ``dataclasses.replace`` (which
``EnclaveService._admit``, ``Journal.corrupt_tail`` and
``BackingStore.forge`` use).
"""

import dataclasses
import pickle

import pytest

from repro.service.metrics import RequestResult
from repro.service.tenant import Request
from repro.sgx.crypto import SealedBlob, SealedPage

#: ``(class, field values in declaration order, repr, a replacement)``.
RECORDS = {
    "SealedPage": (
        SealedPage,
        {"enclave_id": 3, "vaddr": 0x5000, "version": 2, "nonce": 7,
         "ciphertext": "page", "mac": 99},
        "SealedPage(enclave_id=3, vaddr=20480, version=2, nonce=7, "
        "ciphertext='page', mac=99)",
        ("mac", 100),
    ),
    "SealedBlob": (
        SealedBlob,
        {"kind": "fault", "seq": 4, "payload": (0x5000, "r", True, 1),
         "prev_mac": "ab", "mac": "cd"},
        "SealedBlob(kind='fault', seq=4, payload=(20480, 'r', True, 1), "
        "prev_mac='ab', mac='cd')",
        ("mac", "ce"),
    ),
    "Request": (
        Request,
        {"tenant": "tenant-0", "request_id": 5, "keys": (1, 2),
         "writes": (False, True), "issued_cycles": 10,
         "deadline_cycles": 60, "stall_cycles": 0, "probe_vaddr": None},
        "Request(tenant='tenant-0', request_id=5, keys=(1, 2), "
        "writes=(False, True), issued_cycles=10, deadline_cycles=60, "
        "stall_cycles=0, probe_vaddr=None)",
        ("probe_vaddr", (1, 0x7000)),
    ),
    "RequestResult": (
        RequestResult,
        {"tenant": "tenant-1", "request_id": 6, "outcome": "shed",
         "reason": "deadline", "cycles": 12, "fetches": 3},
        "RequestResult(tenant='tenant-1', request_id=6, outcome='shed', "
        "reason='deadline', cycles=12, fetches=3)",
        ("cycles", 13),
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_fields_in_declaration_order(record):
    cls, values, _, _ = record
    assert tuple(f.name for f in dataclasses.fields(cls)) == tuple(values)


def test_positional_and_keyword_construction_agree(record):
    cls, values, _, _ = record
    built = cls(**values)
    assert cls(*values.values()) == built
    assert all(getattr(built, name) == value
               for name, value in values.items())


def test_assignment_and_deletion_are_refused(record):
    cls, values, _, (name, new) = record
    built = cls(**values)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, new)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(built, name)
    assert getattr(built, name) == values[name]


def test_value_equality_and_hashing(record):
    cls, values, _, (name, new) = record
    one, two = cls(**values), cls(**values)
    assert one == two and one is not two
    assert hash(one) == hash(two)
    other = cls(**{**values, name: new})
    assert other != one
    assert len({one, two, other}) == 2


def test_repr(record):
    cls, values, text, _ = record
    assert repr(cls(**values)) == text


def test_pickle_round_trip(record):
    cls, values, _, _ = record
    built = cls(**values)
    copy = pickle.loads(pickle.dumps(built))
    assert type(copy) is cls
    assert copy == built
    assert vars(copy) == vars(built)


def test_replace_changes_one_field(record):
    cls, values, _, (name, new) = record
    built = cls(**values)
    changed = dataclasses.replace(built, **{name: new})
    assert type(changed) is cls
    assert getattr(changed, name) == new
    assert changed == cls(**{**values, name: new})
    assert built == cls(**values)


def test_request_defaults():
    request = Request(tenant="t", request_id=1, keys=(), writes=(),
                      issued_cycles=0, deadline_cycles=1)
    assert request.stall_cycles == 0
    assert request.probe_vaddr is None
