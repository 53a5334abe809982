"""Fault plans: what the scripted Byzantine host will do, and when.

A plan is a seed-deterministic list of :class:`FaultEvent`s.  Each
event names a :class:`FaultKind`, the workload operation index at which
it arms (or applies), and a kind-specific parameter.  Three delivery
mechanisms exist:

* **syscall-level** kinds arm the injector and fire when a matching
  host call passes through :meth:`HostKernel.syscall`;
* **instruction-level** kinds fire from the EAUG hook inside the
  SGX instruction layer;
* **op-level** kinds are applied by the campaign driver between two
  workload operations (they need host-side state the syscall path
  never sees: the backing store, the suspend machinery, the CPU).

The file format of these plans and the service's lives here too: one
JSON codec (:func:`to_json`, :func:`from_json`) and one reader,
:func:`read_plan_file`, behind ``chaos --plan`` and ``serve --plan``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import random
import typing
from dataclasses import dataclass


class FaultKind(enum.Enum):
    """Everything the scripted host knows how to do to an enclave."""

    # -- syscall-level (fire inside HostKernel.syscall) --------------------
    #: Refuse ay_fetch_pages with a transient error.
    DENY_FETCH = "deny-fetch"
    #: Refuse ay_evict_pages with a transient error.
    DENY_EVICT = "deny-evict"
    #: Refuse the SGX2 privileged halves (augment/modpr/trim/remove).
    DENY_SGX2 = "deny-sgx2"
    #: Lie: report a fetch as successful without performing it.
    DROP_FETCH = "drop-fetch"
    #: Service paging calls, but only after a long stall.
    DELAY_RESPONSE = "delay-response"

    # -- instruction-level (fire from the EAUG hook) -----------------------
    #: Refuse EAUG with EPC-pressure errors.
    EAUG_REFUSE = "eaug-refuse"

    # -- op-level (applied by the campaign between operations) -------------
    #: Shrink the enclave's EPC quota for a window of operations.
    QUOTA_SQUEEZE = "quota-squeeze"
    #: Memory-ballooning upcall asking the enclave to shrink.
    BALLOON_REQUEST = "balloon-request"
    #: Forge the sealed blob of a swapped-out page, then touch it.
    TAMPER_BACKING = "tamper-backing"
    #: Replay a stale (superseded) sealed blob, then touch the page.
    REPLAY_STALE = "replay-stale"
    #: A burst of hardware interrupts (SGX-Step-style single stepping).
    AEX_STORM = "aex-storm"
    #: EENTER with no pending fault and no expected call.
    SPURIOUS_EENTER = "spurious-eenter"
    #: Suspend the whole enclave and restore it correctly.
    SUSPEND_RESUME = "suspend-resume"
    #: Suspend, forge one swapped page, then attempt the restore.
    SUSPEND_TAMPER = "suspend-tamper"
    #: Clobber the PTE of a resident enclave-managed page, then touch it.
    UNMAP_RESIDENT = "unmap-resident"
    #: Clear the accessed/dirty bits Autarky requires pinned set.
    AD_CLEAR = "ad-clear"
    #: Kill the enclave outright at an operation boundary; the
    #: supervisor must restore it to bit-identical state.
    CRASH_ENCLAVE = "crash-enclave"
    #: Kill the enclave AND truncate the tail journal record (the crash
    #: interrupted the final append).
    JOURNAL_TORN_TAIL = "journal-torn-tail"
    #: Kill the enclave AND corrupt the tail journal record's payload
    #: under its old MAC (a torn write that left garbage behind).
    JOURNAL_CORRUPT_TAIL = "journal-corrupt-tail"


#: Kinds the injector intercepts at the syscall boundary, mapped to the
#: syscall names they affect.
SYSCALL_KINDS = {
    FaultKind.DENY_FETCH: ("ay_fetch_pages",),
    FaultKind.DENY_EVICT: ("ay_evict_pages",),
    FaultKind.DENY_SGX2: (
        "sgx2_augment_batch", "sgx2_modpr_batch",
        "sgx2_trim_batch", "sgx2_remove_batch",
    ),
    FaultKind.DROP_FETCH: ("ay_fetch_pages",),
    FaultKind.DELAY_RESPONSE: (
        "ay_fetch_pages", "ay_evict_pages", "os_resolve",
    ),
}

#: Kinds delivered through the SGX instruction hook.
INSTRUCTION_KINDS = (FaultKind.EAUG_REFUSE,)

#: Kinds the campaign driver applies between workload operations.
OP_KINDS = tuple(
    k for k in FaultKind
    if k not in SYSCALL_KINDS and k not in INSTRUCTION_KINDS
)

#: Rotation guaranteeing kind coverage across a campaign: seed ``i``
#: always contributes ``FORCED_KINDS[i % len(FORCED_KINDS)]`` as its
#: first event, so any sweep of ≥ ``len(FORCED_KINDS)`` seeds injects
#: every kind at least once.
FORCED_KINDS = tuple(FaultKind)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted hostile act.

    ``at_op``
        Workload operation index: op-level events apply right before
        that operation; syscall/instruction events arm there and fire
        on the next matching call.
    ``param``
        Kind-specific magnitude — calls to deny, cycles to stall,
        pages to squeeze or balloon, interrupts in the storm.
    """

    kind: FaultKind
    at_op: int
    param: int = 1

    def describe(self):
        return f"{self.kind.value}@op{self.at_op}(param={self.param})"


#: Parameter ranges per kind: (low, high) for random.Random.randint.
#: Denial counts straddle the runtime's default retry budget (4
#: attempts) on purpose: low draws are absorbed by backoff (degraded),
#: high draws exhaust it (structured chaos-abort) — the sweep must see
#: both sides of the boundary.
_PARAM_RANGES = {
    FaultKind.DENY_FETCH: (1, 6),
    FaultKind.DENY_EVICT: (1, 6),
    FaultKind.DENY_SGX2: (1, 6),
    FaultKind.DROP_FETCH: (1, 2),
    FaultKind.DELAY_RESPONSE: (50_000, 500_000),
    FaultKind.EAUG_REFUSE: (1, 3),
    FaultKind.QUOTA_SQUEEZE: (8, 64),
    FaultKind.BALLOON_REQUEST: (8, 128),
    FaultKind.TAMPER_BACKING: (1, 1),
    FaultKind.REPLAY_STALE: (1, 1),
    FaultKind.AEX_STORM: (4, 32),
    FaultKind.SPURIOUS_EENTER: (1, 1),
    FaultKind.SUSPEND_RESUME: (1, 1),
    FaultKind.SUSPEND_TAMPER: (1, 1),
    FaultKind.UNMAP_RESIDENT: (1, 1),
    FaultKind.AD_CLEAR: (1, 1),
    FaultKind.CRASH_ENCLAVE: (1, 1),
    FaultKind.JOURNAL_TORN_TAIL: (1, 1),
    FaultKind.JOURNAL_CORRUPT_TAIL: (1, 1),
}

#: The crash-and-recover kinds, excludable as a group via
#: ``FaultPlan.generate(..., exclude=CRASH_KINDS)`` (``--no-crash``).
CRASH_KINDS = (
    FaultKind.CRASH_ENCLAVE,
    FaultKind.JOURNAL_TORN_TAIL,
    FaultKind.JOURNAL_CORRUPT_TAIL,
)


@dataclass(frozen=True)
class FaultPlan:
    """A seed-deterministic schedule of hostile acts."""

    seed: int
    events: tuple[FaultEvent, ...]

    @classmethod
    def generate(cls, seed, n_ops, min_events=2, max_events=5,
                 exclude=()):
        """Build the plan for ``seed`` over a run of ``n_ops`` operations.

        Fully deterministic: driven only by ``random.Random(seed)``.
        The first event's kind comes from the :data:`FORCED_KINDS`
        rotation so campaigns cover every kind; the rest are drawn
        uniformly.  Events are sorted by ``at_op`` (ties keep draw
        order) so the campaign can consume them as a schedule.

        ``exclude`` removes kinds from both the rotation and the random
        draws (e.g. :data:`CRASH_KINDS` under ``--no-crash``); the
        coverage guarantee then applies to the remaining kinds.
        """
        if n_ops < 1:
            raise ValueError("a plan needs at least one operation")
        allowed = tuple(k for k in FaultKind if k not in set(exclude))
        if not allowed:
            raise ValueError("every fault kind is excluded")
        rng = random.Random(seed)
        count = rng.randint(min_events, max_events)
        kinds = [allowed[seed % len(allowed)]]
        kinds.extend(
            rng.choice(allowed) for _ in range(count - 1)
        )
        events = []
        for kind in kinds:
            low, high = _PARAM_RANGES[kind]
            events.append(FaultEvent(
                kind=kind,
                # Keep injections clear of the warm-up prologue and
                # leave ops afterwards for consequences to surface.
                at_op=rng.randint(1, max(1, n_ops - 10)),
                param=rng.randint(low, high),
            ))
        events.sort(key=lambda e: e.at_op)
        return cls(seed=seed, events=tuple(events))

    def op_events(self):
        """Events the campaign applies between operations."""
        return [e for e in self.events if e.kind in OP_KINDS]

    def armed_events(self):
        """Events the injector delivers (syscall or instruction level)."""
        return [e for e in self.events if e.kind not in OP_KINDS]

    def kinds(self):
        return {e.kind for e in self.events}

    def describe(self):
        inner = ", ".join(e.describe() for e in self.events)
        return f"plan(seed={self.seed}: {inner})"


# -- the plan file format: one codec, one reader -------------------------------

#: What a ``repro chaos --plan`` envelope holds beside its ``plan``:
#: ``repro modelcheck --export`` writes exactly these keys.
WITNESS_KEYS = ("policy", "expected_outcome", "source_trace")


def to_json(record):
    """The dataclass ``record`` (a plan, an event, a tenant) as a
    JSON-ready dict: an enum by its value, a tuple as a list, a nested
    dataclass as its own dict.  :func:`from_json` reads it back."""
    return {field.name: _encode(getattr(record, field.name))
            for field in dataclasses.fields(record)}


def _encode(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if dataclasses.is_dataclass(value):
        return to_json(value)
    return value


def from_json(cls, payload, where):
    """Rebuild the dataclass ``cls`` from :func:`to_json` output, led by
    its fields' type hints: an enum from its value, an ``int`` read as
    int, ``tuple[X, ...]`` from a list of X, a dataclass from its
    object.  An unknown key, a missing field without a default or a
    value its hint cannot read raises ``ValueError`` (an object or a
    list of the wrong shape ``TypeError``) naming its place from
    ``where``: a plan written by a newer tree, or with a misspelt key,
    must not replay as a weaker plan."""
    fields = dataclasses.fields(cls)
    check_keys(payload, [field.name for field in fields], where)
    hints = typing.get_type_hints(cls)
    values = {}
    for field in fields:
        if field.name in payload:
            values[field.name] = _decode(hints[field.name],
                                         payload[field.name],
                                         f"{where}.{field.name}")
        elif field.default is dataclasses.MISSING:
            raise ValueError(f"{where} lacks the key {field.name}")
    return cls(**values)


def _decode(hint, value, where):
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise TypeError(f"{where} must be a JSON list")
        item = typing.get_args(hint)[0]
        return tuple(_decode(item, entry, f"{where}[{i}]")
                     for i, entry in enumerate(value))
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, where)
    if hint is int or isinstance(hint, enum.EnumMeta):
        try:
            return hint(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    return value


def read_plan_file(path, plan_type, keys):
    """``(plan, envelope)`` from a ``--plan`` file.

    The file holds either a bare ``plan_type`` (:func:`to_json` output)
    or an envelope with the plan under ``plan`` beside some of
    ``keys``; a bare plan comes back in the envelope ``{"plan": ...}``.
    A file that cannot be read, is not JSON or does not hold such a
    plan raises ``OSError``, ``ValueError`` or ``TypeError``."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    envelope = (payload if isinstance(payload, dict) and "plan" in payload
                else {"plan": payload})
    check_keys(envelope, ("plan", *keys), "envelope")
    return from_json(plan_type, envelope["plan"], "plan"), envelope


def check_keys(payload, known, where):
    """Raise ``ValueError`` naming every key of the JSON object
    ``payload`` that ``known`` lacks (``TypeError`` if it is not an
    object).  Every object a ``--plan`` file holds is checked with it,
    so a misspelt key is refused instead of being skipped along with
    the check or the field it was meant to set."""
    if not isinstance(payload, dict):
        raise TypeError(f"{where} must be a JSON object")
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: "
                         f"{', '.join(unknown)}")
