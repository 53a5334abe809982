"""Policy configuration for the static-analysis passes.

Everything the passes treat as special — which modules sit on which
side of the trust boundary, which attribute names are enclave-private,
which modules are the sanctioned ISA mutators, which paths are exempt
from determinism — is declared here rather than hard-coded in the
passes, so the policy is reviewable in one place and synthetic tests
can build tighter or looser configs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


def _default(value):
    return field(default_factory=lambda: value)


@dataclass
class AnalysisConfig:
    """Tunable policy for all six pass families."""

    # -- trust boundary (§5.1.2 / §5.1.3) --------------------------------
    #: Module prefixes that run on the untrusted side of the boundary.
    untrusted_prefixes: tuple = ("repro.host.", "repro.attacks.")
    #: The sanctioned driver/IOCTL surface: the one untrusted module
    #: allowed to touch enclave bookkeeping, because it *implements*
    #: the two-level page-management contract (§5.2.1).
    trust_sanctioned: frozenset = _default(frozenset({
        "repro.host.driver",
    }))
    #: Modules holding enclave-private state; untrusted code may not
    #: import them at all (the SSA is readable only from inside, §2.1).
    enclave_private_modules: frozenset = _default(frozenset({
        "repro.sgx.ssa",
    }))
    #: Attribute names that denote enclave-private state when read
    #: through another object (``tcs.ssa``, ``enclave.backed``, …).
    #: A direct ``self.<name>`` on the module's own object is fine.
    enclave_private_attrs: frozenset = _default(frozenset({
        "ssa",                  # SSA stack: true fault addresses (§5.1.2)
        "exitinfo",             # EXITINFO: unmasked vaddr + access type
        "saved_context",        # saved register context in the SSA frame
        "backed",               # hardware-side residency map (EPCM view)
        "runtime",              # the enclave's trusted software object
        "measurement",          # MRENCLAVE log (attestation-private)
        "_balloon_request",     # in-enclave balloon mailbox
        "_balloon_response",
    }))

    # -- mutation discipline (§2.1, §5.1.4) ------------------------------
    #: Modules allowed to mutate EPC/EPCM/TLB state: the ISA model
    #: itself.  ``cpu`` flushes the TLB on mode transitions the way the
    #: silicon does, and ``pagetable`` delivers the OS-initiated IPI
    #: shootdowns that the SGX eviction flows require — both are
    #: architectural actions, not software reaching around the ISA.
    mutation_sanctioned: frozenset = _default(frozenset({
        "repro.sgx.instructions",
        "repro.sgx.mmu",
        "repro.sgx.cpu",
        "repro.sgx.pagetable",
        # The state-owning modules may of course mutate themselves.
        "repro.sgx.epc",
        "repro.sgx.epcm",
        "repro.sgx.tlb",
        # The columnar batch interpreter settles bulk TLB-hit
        # accounting (``tlb.hits += n``) exactly as the MMU fast path
        # does — it is the same architectural action, vectorized.
        "repro.sgx.columnar",
    }))
    #: Component-name → methods that mutate it.  A call such as
    #: ``anything.epc.resize(...)`` outside the sanctioned modules is a
    #: violation; reads (``epc.free_pages``, ``epcm.entry(p)``) are not.
    mutating_methods: dict = _default({
        "epc": frozenset({"alloc", "alloc_frames", "free", "free_frames",
                          "resize"}),
        "epcm": frozenset(),      # mutations happen via entry-attr stores
        "tlb": frozenset({"install", "flush", "flush_page", "flush_pages"}),
    })
    #: Components whose attribute stores count as mutations
    #: (``x.epcm.entry(p).pending = True``; ``kernel.instr.tlb = ...``).
    mutable_components: frozenset = _default(frozenset({
        "epc", "epcm", "tlb",
    }))

    # -- determinism ------------------------------------------------------
    #: Modules exempt from the determinism pass.  Only the CLI's
    #: progress display may read the wall clock: its output is chatter,
    #: never part of a simulated result.
    determinism_exempt: frozenset = _default(frozenset({
        "repro.cli",
        # The benchmark measures *wall* time by design (simulated
        # results inside it are still checked for bit-equality).
        "repro.bench",
    }))
    #: Wall-clock functions of the ``time`` module.
    wallclock_time_attrs: frozenset = _default(frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    }))
    #: ``datetime``/``date`` constructors that read the wall clock.
    wallclock_datetime_attrs: frozenset = _default(frozenset({
        "now", "utcnow", "today",
    }))
    #: Module-level ``random.*`` calls (global, unseeded RNG).
    global_random_attrs: frozenset = _default(frozenset({
        "random", "randint", "randrange", "randbytes", "choice",
        "choices", "shuffle", "sample", "uniform", "triangular",
        "gauss", "normalvariate", "expovariate", "betavariate",
        "gammavariate", "lognormvariate", "paretovariate",
        "weibullvariate", "vonmisesvariate", "getrandbits", "seed",
    }))
    #: Entropy sources that can never be reproduced from a seed.
    entropy_calls: frozenset = _default(frozenset({
        "os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom",
        "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
        "secrets.randbelow", "secrets.choice", "secrets.randbits",
    }))

    # -- cycle accounting (Figures 5–8) ----------------------------------
    #: Modules whose fault/paging entry points must charge the clock.
    accounting_modules: frozenset = _default(frozenset({
        "repro.host.driver",
        "repro.sgx.instructions",
        "repro.sgx.cpu",
        "repro.sgx.mmu",
        "repro.runtime.self_paging",
        "repro.runtime.paging_ops",
        "repro.runtime.libos",
    }))
    #: A function in an accounting module whose name matches this is a
    #: modeled fault/paging path and must (transitively) charge.
    accounting_name_re: str = (
        r"(^|_)(fetch|evict|page_in|page_out|swap|fault|paging"
        r"|ewb|eldu|eaug|eaccept|emod|eremove|eblock|etrack"
        r"|augment|trim|remove_batch|aex|eenter|eexit|eresume"
        r"|resume|suspend|interrupt|make_room|os_resolve"
        r"|claim|release)"
    )
    #: Reviewed exemptions: these match the verb pattern but are pure
    #: data transformations or bookkeeping inside an already-charged
    #: path, not modeled hardware/OS actions of their own.
    accounting_exempt_names: frozenset = _default(frozenset({
        "masked_fault",      # rewrites fault info; no architectural cost
        "_fault_access",     # error-code decoding helper
        "raise_pf",          # test convenience constructor
        "note_fault",        # statistics update inside the handler
        "make_paging_ops",   # constructor dispatch, not a modeled path
        # The bulk EBLOCK: like ``eblock`` (annotated at its def), its
        # cost is folded into the EWB figure, so charging would count
        # it twice.
        "eblock_pages",
    }))
    #: A call through one of these receiver names is assumed to charge
    #: when the call graph cannot resolve the callee at all.  The list
    #: used to carry every ISA-adjacent component name; now that the
    #: accounting pass resolves cross-module callees interprocedurally,
    #: only the receivers whose classes live outside the analyzed graph
    #: or dispatch dynamically remain.
    charging_receivers: frozenset = _default(frozenset({
        "clock", "kernel", "ops", "channel", "runtime", "pager",
    }))

    # -- secret taint / leakage (Pigeonhole; Autarky §3) ------------------
    #: Default taint sources: module prefix → parameter names whose
    #: values are secrets when they enter any function under that
    #: prefix.  Apps receive secret inputs (lookup keys, glyphs,
    #: feature vectors); ORAM code handles secret block identifiers.
    #: Additional sources are declared in-line with ``# repro: secret``.
    taint_secret_params: dict = _default({
        "repro.apps.": frozenset({
            "word", "words", "key", "keys", "item", "image", "glyph",
            "text", "features", "rows", "query",
        }),
        "repro.oram.": frozenset({"block_id"}),
    })
    #: Page-address sinks: callee name → argument position that becomes
    #: a page address.  A tainted value reaching one of these arguments
    #: is exactly the controlled channel (the OS observes the page).
    #: Bare ``access`` is deliberately absent: ``PathOram.access`` takes
    #: a secret block id by design and reveals nothing.
    taint_page_sinks: dict = _default({
        "data_access": 0, "code_access": 0, "translate": 0,
        "data_access_run": 0, "access_run": 2,
        "make_run": 0, "replay": 0,
        "fetch_batch": 0, "evict_batch": 0,
        "page_in": 1, "evict_page": 1,
        "ay_fetch_pages": 1, "ay_evict_pages": 1,
        "claim_pages": 0, "release_pages": 0,
    })
    #: Module prefixes where a tainted *index* into a dict/list is a
    #: finding on its own: app hot loops, where the index selects which
    #: page of the table/array faults in.
    taint_index_prefixes: tuple = ("repro.apps.",)
    #: Calls whose result is not secret even for tainted arguments:
    #: fresh randomness (the ORAM remap idiom) and ``len`` — input
    #: *size* is public in the oblivious model (the §6 operators'
    #: traces are functions of N by design).
    taint_sanitizers: frozenset = _default(frozenset({
        "randrange", "randint", "random", "choice", "sample",
        "getrandbits", "randbytes", "len",
    }))
    #: Collection accessor methods: ``d.get(k)`` returns data taint of
    #: the *collection*, not of the key — a dict lookup with a secret
    #: key does not make the looked-up value secret.
    taint_collection_accessors: frozenset = _default(frozenset({
        "get", "pop", "setdefault", "items", "keys", "values",
    }))
    #: Collection mutator methods: ``l.append(v)`` makes the list as
    #: secret as ``v`` (a later iteration over it carries the taint).
    taint_collection_mutators: frozenset = _default(frozenset({
        "append", "insert", "extend", "add",
    }))
    #: Attributes of tainted objects that are public size metadata and
    #: break the taint (``image.n_blocks`` drives a sequential scan).
    taint_public_attrs: frozenset = _default(frozenset({
        "n_blocks",
    }))
    #: Module prefixes the leakage pass reports on.  The engine still
    #: summarizes every module (flows cross the boundary), but findings
    #: outside these prefixes would re-flag the same app secret at
    #: every layer of the stack.
    taint_report_prefixes: tuple = ("repro.apps.", "repro.oram.")

    # -- robustness (fail-safe exception discipline) ----------------------
    #: Module prefixes where broad exception handlers (bare ``except``,
    #: ``except Exception``, ``except BaseException``) are findings:
    #: the whole runtime package.  Tests, benchmarks and examples are
    #: exempt by omission — they assert on failures rather than handle
    #: them, and are not part of the fail-safe story.
    robustness_prefixes: tuple = ("repro.",)
    #: Exact module names also covered (the package root itself, which
    #: a bare prefix match would miss).
    robustness_roots: frozenset = _default(frozenset({"repro"}))
    #: Module prefixes where the unbounded-queue rule runs: the
    #: long-lived layers (the service's drive loop, the runtime's
    #: paging/supervision loops) where an append-only container inside
    #: a ``while`` loop turns offered load into unbounded memory.
    robustness_queue_prefixes: tuple = (
        "repro.service.", "repro.runtime.",
    )
    #: Module prefixes where the unguarded-failover rule runs: the
    #: pool layer and the model checker's pool world (which elects
    #: through the same ``TenantPool``), where a loop that selects a
    #: target replica must own the all-replicas-unhealthy fall-through
    #: (explicit ``return``/``raise`` after the loop) instead of
    #: silently falling off the end.
    robustness_failover_prefixes: tuple = (
        "repro.service.", "repro.modelcheck.",
    )

    # -- lifecycle orderliness (Guardian; SGX ISA §2.1, §5.2) -------------
    #: Module prefixes whose SGX ISA call sites are checked against the
    #: launch / eviction / resume / recovery automata.  ``repro.recovery``
    #: and ``repro.chaos`` entered the scope with the crash/restore
    #: transitions: journal records must only reach a live incarnation.
    #: ``repro.modelcheck`` drives the same crash/restore protocol, so
    #: its action implementations are held to the spec statically too
    #: (and run the automata dynamically, as the oracle).
    lifecycle_prefixes: tuple = (
        "repro.runtime.", "repro.host.", "repro.experiments.",
        "repro.recovery.", "repro.chaos.", "repro.modelcheck.",
        "tests.", "benchmarks.", "examples.",
    )

    # -- effects / purity (epoch soundness, parallel purity, hot path) ----
    #: Module prefixes the epoch-soundness checker reports on: the ISA
    #: model, the host OS/driver side, and the in-enclave runtime — the
    #: layers that own or reach translation-affecting state.
    effects_epoch_prefixes: tuple = (
        "repro.sgx.", "repro.host.", "repro.runtime.",
    )
    #: Attribute names that constitute translation-affecting state: a
    #: write through any of these (on an ambient object) must be
    #: covered by a TranslationEpoch bump, or every MMU memo minted
    #: before the write stays trusted after it.
    effects_translation_attrs: frozenset = _default(frozenset({
        "_ptes",        # page-table entry map
        "_entries",     # TLB / EPCM entry stores
        "backed",       # EPC residency map
        "present", "writable", "executable", "accessed", "dirty", "pfn",
        "valid", "page_type", "enclave_id", "perms",
        "pending", "modified", "blocked",
    }))
    #: Constructor-shaped methods exempt from epoch soundness: no memo
    #: can refer to an object still being built.
    effects_epoch_exempt_names: frozenset = _default(frozenset({
        "__init__", "__post_init__",
    }))
    #: Classes whose ``self.value += 1`` *is* the epoch bump.
    effects_epoch_classes: frozenset = _default(frozenset({
        "TranslationEpoch",
    }))
    #: Parallel-runner entry points: callee name → positional index of
    #: the task callable whose transitive write set must be empty
    #: (``Sweep.run_grid`` takes each sweep's ``run(seed, policy)``).
    effects_task_runners: dict = _default({
        "run_indexed": 0,
        "run_grid": 0,
    })
    #: Reviewed-intentional ambient writes exempt from parallel
    #: purity, in display form.  The enclave/TCS id counters are
    #: process-local allocation bookkeeping: every forked worker
    #: re-derives them deterministically from its own task, the ids
    #: never enter result digests (the chaos/parallel CI jobs prove
    #: bit-identity across pool widths), and flagging them at every
    #: runner call site would bury real impurities.
    effects_purity_allowed_writes: frozenset = _default(frozenset({
        "repro.sgx.enclave.Enclave._next_id",
        "repro.sgx.tcs.Tcs._next_id",
    }))
    #: Container methods that mutate their receiver (escape analysis
    #: treats ``ambient.append(...)`` as an ambient element write).
    effects_mutator_methods: frozenset = _default(frozenset({
        "append", "extend", "insert", "add", "update", "clear",
        "pop", "popitem", "remove", "discard", "setdefault",
        "sort", "reverse", "appendleft", "popleft",
    }))
    #: Container methods whose result aliases an element of the
    #: receiver (``d.get(k)`` hands out ambient state when ``d`` is
    #: ambient).
    effects_accessor_methods: frozenset = _default(frozenset({
        "get", "pop", "popitem", "setdefault", "values", "items",
        "keys",
    }))
    #: Hot functions (``Class.method`` / bare function name) checked by
    #: effects/hot-path-perf; ``# repro: hot`` on or directly above a
    #: ``def`` marks additional ones in-line.
    effects_hot_functions: frozenset = _default(frozenset({
        "Mmu.probe_run", "Mmu.fast_hit", "Mmu.fast_view",
        "Mmu.translate_nofault",
        "Cpu.access", "Cpu.access_run",
        "Tlb.lookup", "Tlb.install",
        "PageTable.lookup", "Epcm.check_access",
        "Pte.allows", "TlbEntry.allows",
        # The columnar batch interpreter (PR 9).
        "ColumnarEngine.execute", "ReplayFrontend.replay",
    }))

    #: Rule families with dedicated pass implementations (used by the
    #: CLI for validation and by the docs test for coverage).
    rule_families: tuple = (
        "trust-boundary",
        "mutation-discipline",
        "determinism",
        "cycle-accounting",
        "leakage",
        "lifecycle",
        "robustness",
        "effects",
    )

    def accounting_pattern(self):
        return re.compile(self.accounting_name_re)

    def is_untrusted(self, module):
        if module in self.trust_sanctioned:
            return False
        return module.startswith(self.untrusted_prefixes)


DEFAULT_CONFIG = AnalysisConfig()
