"""Policy constants for the static-analysis passes.

Everything the passes treat as special — which modules sit on which
side of the trust boundary, which attribute names are enclave-private,
which modules are the sanctioned ISA mutators, which paths are exempt
from determinism — is declared here rather than hard-coded in the
passes, so the policy is reviewable in one place.  Exemptions of one
function are not: they sit at its ``def`` as a
``# repro: allow[RULE] <reason>`` annotation (which ``--strict``
reports once it suppresses nothing), and a hot function carries a
``# repro: hot`` marker.
"""

from __future__ import annotations

import re

# -- trust boundary (§5.1.2 / §5.1.3) ----------------------------------------

#: Module prefixes that run on the untrusted side of the boundary.
UNTRUSTED_PREFIXES = ("repro.host.", "repro.attacks.")
#: The sanctioned driver/IOCTL surface: the one untrusted module
#: allowed to touch enclave bookkeeping, because it *implements* the
#: two-level page-management contract (§5.2.1).
TRUST_SANCTIONED = frozenset({
    "repro.host.driver",
})
#: Modules holding enclave-private state; untrusted code may not
#: import them at all (the SSA is readable only from inside, §2.1).
ENCLAVE_PRIVATE_MODULES = frozenset({
    "repro.sgx.ssa",
})
#: Attribute names that denote enclave-private state when read through
#: another object (``tcs.ssa``, ``enclave.backed``, …).  A direct
#: ``self.<name>`` on the module's own object is fine.
ENCLAVE_PRIVATE_ATTRS = frozenset({
    "ssa",                  # SSA stack: true fault addresses (§5.1.2)
    "exitinfo",             # EXITINFO: unmasked vaddr + access type
    "saved_context",        # saved register context in the SSA frame
    "backed",               # hardware-side residency map (EPCM view)
    "runtime",              # the enclave's trusted software object
    "measurement",          # MRENCLAVE log (attestation-private)
    "_balloon_request",     # in-enclave balloon mailbox
    "_balloon_response",
})


def is_untrusted(module):
    """Whether ``module`` runs on the untrusted side of the boundary."""
    if module in TRUST_SANCTIONED:
        return False
    return module.startswith(UNTRUSTED_PREFIXES)


# -- mutation discipline (§2.1, §5.1.4) --------------------------------------

#: Modules allowed to mutate EPC/EPCM/TLB state: the ISA model itself.
#: ``cpu`` flushes the TLB on mode transitions the way the silicon
#: does, and ``pagetable`` delivers the OS-initiated IPI shootdowns
#: that the SGX eviction flows require — both are architectural
#: actions, not software reaching around the ISA.
MUTATION_SANCTIONED = frozenset({
    "repro.sgx.instructions",
    "repro.sgx.mmu",
    "repro.sgx.cpu",
    "repro.sgx.pagetable",
    # The state-owning modules may of course mutate themselves.
    "repro.sgx.epc",
    "repro.sgx.epcm",
    "repro.sgx.tlb",
    # The columnar batch interpreter settles bulk TLB-hit accounting
    # (``tlb.hits += n``) exactly as the MMU's TLB probe does — it is
    # the same architectural action, vectorized.
    "repro.sgx.columnar",
})
#: Component-name → methods that mutate it.  A call such as
#: ``anything.epc.resize(...)`` outside the sanctioned modules is a
#: violation; reads (``epc.free_pages``, ``epcm.entry(p)``) are not.
MUTATING_METHODS = {
    "epc": frozenset({"alloc", "alloc_frames", "free", "free_frames",
                      "resize"}),
    "epcm": frozenset(),      # mutations happen via entry-attr stores
    "tlb": frozenset({"install", "flush", "flush_page", "flush_pages"}),
}
#: Components whose attribute stores count as mutations
#: (``x.epcm.entry(p).pending = True``; ``kernel.instr.tlb = ...``).
MUTABLE_COMPONENTS = frozenset({
    "epc", "epcm", "tlb",
})

# -- determinism --------------------------------------------------------------

#: Modules exempt from the determinism pass.  Only the CLI's progress
#: display may read the wall clock: its output is chatter, never part
#: of a simulated result.
DETERMINISM_EXEMPT = frozenset({
    "repro.cli",
    # The benchmark measures *wall* time by design (simulated results
    # inside it are still checked for bit-equality).
    "repro.bench",
})
#: Wall-clock functions of the ``time`` module.
WALLCLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})
#: ``datetime``/``date`` constructors that read the wall clock.
WALLCLOCK_DATETIME_ATTRS = frozenset({
    "now", "utcnow", "today",
})
#: Module-level ``random.*`` calls (global, unseeded RNG).
GLOBAL_RANDOM_ATTRS = frozenset({
    "random", "randint", "randrange", "randbytes", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular",
    "gauss", "normalvariate", "expovariate", "betavariate",
    "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "vonmisesvariate", "getrandbits", "seed",
})
#: Entropy sources that can never be reproduced from a seed.
ENTROPY_CALLS = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
})

# -- cycle accounting (Figures 5–8) ------------------------------------------

#: Modules whose fault/paging entry points must charge the clock.
ACCOUNTING_MODULES = frozenset({
    "repro.host.driver",
    "repro.sgx.instructions",
    "repro.sgx.cpu",
    "repro.sgx.mmu",
    "repro.runtime.self_paging",
    "repro.runtime.paging_ops",
    "repro.runtime.libos",
})
#: A function in an accounting module whose name matches this is a
#: modeled fault/paging path and must (transitively) charge.  One that
#: matches but is a pure data transformation or bookkeeping inside an
#: already-charged path carries a ``cycle-accounting`` allow
#: annotation with its reason at the ``def``.
ACCOUNTING_NAME_RE = re.compile(
    r"(^|_)(fetch|evict|page_in|page_out|swap|fault|paging"
    r"|ewb|eldu|eaug|eaccept|emod|eremove|eblock|etrack"
    r"|augment|trim|remove_batch|aex|eenter|eexit|eresume"
    r"|resume|suspend|interrupt|make_room|os_resolve"
    r"|claim|release)"
)
#: A call through one of these receiver names is assumed to charge
#: when the call graph cannot resolve the callee at all: the receivers
#: whose classes live outside the analyzed graph or dispatch
#: dynamically (the pass resolves every other callee
#: interprocedurally).
CHARGING_RECEIVERS = frozenset({
    "clock", "kernel", "ops", "channel", "runtime", "pager",
})

# -- secret taint / leakage (Pigeonhole; Autarky §3) -------------------------

#: Default taint sources: module prefix → parameter names whose values
#: are secrets when they enter any function under that prefix.  Apps
#: receive secret inputs (lookup keys, glyphs, feature vectors); ORAM
#: code handles secret block identifiers.  Additional sources are
#: declared in-line with a ``repro: secret`` comment.
TAINT_SECRET_PARAMS = {
    "repro.apps.": frozenset({
        "word", "words", "key", "keys", "item", "image", "glyph",
        "text", "features", "rows", "query",
    }),
    "repro.oram.": frozenset({"block_id"}),
}
#: Page-address sinks: callee name → argument position that becomes a
#: page address.  A tainted value reaching one of these arguments is
#: exactly the controlled channel (the OS observes the page).  Bare
#: ``access`` is deliberately absent: ``PathOram.access`` takes a
#: secret block id by design and reveals nothing.
TAINT_PAGE_SINKS = {
    "data_access": 0, "code_access": 0, "translate": 0,
    "data_access_run": 0, "access_run": 2,
    "make_run": 0, "replay": 0,
    "fetch_batch": 0, "evict_batch": 0,
    "page_in": 1, "evict_page": 1,
    "ay_fetch_pages": 1, "ay_evict_pages": 1,
    "claim_pages": 0, "release_pages": 0,
}
#: Module prefixes where a tainted *index* into a dict/list is a
#: finding on its own: app hot loops, where the index selects which
#: page of the table/array faults in.
TAINT_INDEX_PREFIXES = ("repro.apps.",)
#: Calls whose result is not secret even for tainted arguments: fresh
#: randomness (the ORAM remap idiom) and ``len`` — input *size* is
#: public in the oblivious model (the §6 operators' traces are
#: functions of N by design).
TAINT_SANITIZERS = frozenset({
    "randrange", "randint", "random", "choice", "sample",
    "getrandbits", "randbytes", "len",
})
#: Collection accessor methods: ``d.get(k)`` returns data taint of the
#: *collection*, not of the key — a dict lookup with a secret key does
#: not make the looked-up value secret.
TAINT_COLLECTION_ACCESSORS = frozenset({
    "get", "pop", "setdefault", "items", "keys", "values",
})
#: Collection mutator methods: ``l.append(v)`` makes the list as
#: secret as ``v`` (a later iteration over it carries the taint).
TAINT_COLLECTION_MUTATORS = frozenset({
    "append", "insert", "extend", "add",
})
#: Attributes of tainted objects that are public size metadata and
#: break the taint (``image.n_blocks`` drives a sequential scan).
TAINT_PUBLIC_ATTRS = frozenset({
    "n_blocks",
})
#: Module prefixes the leakage pass reports on.  The engine still
#: summarizes every module (flows cross the boundary), but findings
#: outside these prefixes would re-flag the same app secret at every
#: layer of the stack.
TAINT_REPORT_PREFIXES = ("repro.apps.", "repro.oram.")

# -- robustness (fail-safe exception discipline) -----------------------------

#: Module prefixes where broad exception handlers (bare ``except``,
#: ``except Exception``, ``except BaseException``) are findings: the
#: whole runtime package.  Tests, benchmarks and examples are exempt by
#: omission — they assert on failures rather than handle them, and are
#: not part of the fail-safe story.
ROBUSTNESS_PREFIXES = ("repro.",)
#: Exact module names also covered (the package root itself, which a
#: bare prefix match would miss).
ROBUSTNESS_ROOTS = frozenset({"repro"})
#: Module prefixes where the unbounded-queue rule runs: the long-lived
#: layers (the service's drive loop, the runtime's paging/supervision
#: loops) where an append-only container inside a ``while`` loop turns
#: offered load into unbounded memory.
ROBUSTNESS_QUEUE_PREFIXES = ("repro.service.", "repro.runtime.")
#: Module prefixes where the unguarded-failover rule runs: the pool
#: layer and the model checker's pool world (which elects through the
#: same ``TenantPool``), where a loop that selects a target replica
#: must own the all-replicas-unhealthy fall-through (explicit
#: ``return``/``raise`` after the loop) instead of silently falling
#: off the end.
ROBUSTNESS_FAILOVER_PREFIXES = ("repro.service.", "repro.modelcheck.")

# -- lifecycle orderliness (Guardian; SGX ISA §2.1, §5.2) --------------------

#: Module prefixes whose SGX ISA call sites are checked against the
#: launch / eviction / resume / recovery automata.  ``repro.recovery``
#: and ``repro.chaos`` entered the scope with the crash/restore
#: transitions: journal records must only reach a live incarnation.
#: ``repro.modelcheck`` drives the same crash/restore protocol, so its
#: action implementations are held to the spec statically too (and run
#: the automata dynamically, as the oracle).
LIFECYCLE_PREFIXES = (
    "repro.runtime.", "repro.host.", "repro.experiments.",
    "repro.recovery.", "repro.chaos.", "repro.modelcheck.",
    "tests.", "benchmarks.", "examples.",
)

# -- effects / purity (epoch soundness, parallel purity, hot path) -----------

#: Module prefixes the epoch-soundness checker reports on: the ISA
#: model, the host OS/driver side, and the in-enclave runtime — the
#: layers that own or reach translation-affecting state.
EFFECTS_EPOCH_PREFIXES = ("repro.sgx.", "repro.host.", "repro.runtime.")
#: Attribute names that constitute translation-affecting state: a write
#: through any of these (on an ambient object) must be covered by a
#: TranslationEpoch bump, or every columnar stamp taken before the
#: write stays trusted after it.
EFFECTS_TRANSLATION_ATTRS = frozenset({
    "_ptes",        # page-table entry map
    "_entries",     # TLB / EPCM entry stores
    "backed",       # EPC residency map
    "present", "writable", "executable", "accessed", "dirty", "pfn",
    "valid", "page_type", "enclave_id", "perms",
    "pending", "modified", "blocked",
})
#: Constructor-shaped methods exempt from epoch soundness: no stamp
#: can refer to an object still being built.
EFFECTS_EPOCH_EXEMPT_NAMES = frozenset({
    "__init__", "__post_init__",
})
#: Classes whose ``self.value += 1`` *is* the epoch bump.
EFFECTS_EPOCH_CLASSES = frozenset({
    "TranslationEpoch",
})
#: Parallel-runner entry points: callee name → positional index of the
#: task callable whose transitive write set must be empty
#: (``Sweep.run_grid`` takes each sweep's ``run(seed, policy)``).
EFFECTS_TASK_RUNNERS = {
    "run_indexed": 0,
    "run_grid": 0,
}
#: Reviewed-intentional ambient writes exempt from parallel purity, in
#: display form.  The enclave/TCS id counters are process-local
#: allocation bookkeeping: every forked worker re-derives them
#: deterministically from its own task, the ids never enter result
#: digests (the chaos/parallel CI jobs prove bit-identity across pool
#: widths), and flagging them at every runner call site would bury
#: real impurities.
EFFECTS_PURITY_ALLOWED_WRITES = frozenset({
    "repro.sgx.enclave.Enclave._next_id",
    "repro.sgx.tcs.Tcs._next_id",
})
#: Container methods that mutate their receiver (escape analysis treats
#: ``ambient.append(...)`` as an ambient element write).
EFFECTS_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "clear",
    "pop", "popitem", "remove", "discard", "setdefault",
    "sort", "reverse", "appendleft", "popleft",
})
#: Container methods whose result aliases an element of the receiver
#: (``d.get(k)`` hands out ambient state when ``d`` is ambient).
EFFECTS_ACCESSOR_METHODS = frozenset({
    "get", "pop", "popitem", "setdefault", "values", "items",
    "keys",
})
