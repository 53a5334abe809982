"""Static-analysis subsystem tests (``repro.analysis``).

Each rule family gets a caught-violation case, a negative case, and a
suppressed case, all driven through :func:`analyze_source` on synthetic
snippets; the final gate runs every pass over the real tree and
requires zero unsuppressed findings.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_CONFIG,
    analyze_source,
    analyze_tree,
)
from repro.analysis.callgraph import Project
from repro.analysis.walker import (
    ModuleSource,
    Suppressions,
    attr_chain,
    module_name_for,
    run_passes,
)

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def check(source, module="repro.host.probe", strict=False):
    return analyze_source(textwrap.dedent(source), module=module,
                          strict=strict)


def modsrc(module, source):
    src = textwrap.dedent(source)
    return ModuleSource(path=f"<{module}>", module=module, source=src,
                        tree=ast.parse(src))


def check_many(mods):
    """Analyze several in-memory modules as one project."""
    return run_passes([modsrc(m, s) for m, s in mods])


def check_fixture(name, module):
    path = FIXTURES / name
    return analyze_source(path.read_text(encoding="utf-8"),
                          module=module, path=str(path))


def rules_of(report):
    return [f.rule for f in report.findings]


# -- trust boundary -----------------------------------------------------------

class TestTrustBoundary:
    def test_private_import_flagged(self):
        report = check("from repro.sgx.ssa import SsaFrame\n")
        assert rules_of(report) == ["trust-boundary/import"]
        assert "enclave-private" in report.findings[0].message

    def test_plain_import_form_flagged(self):
        report = check("import repro.sgx.ssa\n")
        assert rules_of(report) == ["trust-boundary/import"]

    def test_import_fine_from_trusted_side(self):
        report = check("from repro.sgx.ssa import SsaFrame\n",
                       module="repro.runtime.handler")
        assert report.ok()

    def test_import_fine_from_sanctioned_driver(self):
        report = check("from repro.sgx.ssa import SsaFrame\n",
                       module="repro.host.driver")
        assert report.ok()

    def test_private_attr_read_flagged(self):
        report = check(
            """
            def peek(tcs):
                return tcs.ssa
            """
        )
        assert rules_of(report) == ["trust-boundary/attr"]

    def test_deep_chain_flagged(self):
        report = check(
            """
            def peek(self):
                return self.enclave.runtime
            """,
            module="repro.attacks.probe",
        )
        assert rules_of(report) == ["trust-boundary/attr"]

    def test_own_state_exempt(self):
        # ``self.ssa`` names the module's own attribute, not a reach
        # across the boundary.
        report = check(
            """
            class Probe:
                def mine(self):
                    return self.ssa
            """
        )
        assert report.ok()

    def test_suppressed_same_line(self):
        report = check(
            """
            def peek(tcs):
                return tcs.ssa  # repro: allow[trust-boundary] probe
            """
        )
        assert report.ok()
        assert report.suppressed == 1

    def test_suppressed_standalone_above(self):
        report = check(
            """
            def peek(tcs):
                # repro: allow[trust-boundary] documented probe
                return tcs.ssa
            """
        )
        assert report.ok()
        assert report.suppressed == 1


# -- mutation discipline ------------------------------------------------------

class TestMutationDiscipline:
    def test_mutator_call_flagged(self):
        report = check(
            """
            def grow(kernel):
                kernel.epc.resize(64)
            """,
            module="repro.experiments.grow",
        )
        assert rules_of(report) == ["mutation-discipline/call"]

    def test_tlb_flush_flagged(self):
        report = check(
            """
            def scrub(self):
                self.tlb.flush()
            """,
            module="repro.host.scrub",
        )
        assert rules_of(report) == ["mutation-discipline/call"]

    def test_bulk_mutators_flagged(self):
        report = check(
            """
            def grab(kernel, vaddrs):
                frames = kernel.epc.alloc_frames(len(vaddrs))
                kernel.epc.free_frames(frames)
                kernel.tlb.flush_pages(vaddrs)
            """,
            module="repro.experiments.grab",
        )
        assert rules_of(report) == ["mutation-discipline/call"] * 3

    def test_sanctioned_module_exempt(self):
        report = check(
            """
            def grow(self):
                self.epc.resize(64)
            """,
            module="repro.sgx.instructions",
        )
        assert report.ok()

    def test_nonmutating_method_fine(self):
        report = check(
            """
            def look(kernel):
                return kernel.epc.frame(3)
            """,
            module="repro.experiments.look",
        )
        assert report.ok()

    def test_store_through_component_flagged(self):
        report = check(
            """
            def poke(self, pfn):
                self.epcm.entry(pfn).pending = True
            """,
            module="repro.host.poke",
        )
        # The same store also trips the effects pass: an EPCM pending
        # bit is translation-affecting state written without a bump.
        assert rules_of(report) == [
            "effects/epoch-soundness", "mutation-discipline/store",
        ]

    def test_init_wiring_exempt(self):
        report = check(
            """
            class Kernel:
                def __init__(self, tlb):
                    self.tlb.owner = self
            """,
            module="repro.host.boot",
        )
        assert report.ok()

    def test_local_variable_not_flagged(self):
        report = check(
            """
            def make():
                tlb = object()
                return tlb
            """,
            module="repro.host.make",
        )
        assert report.ok()

    def test_suppressed(self):
        report = check(
            """
            def rebalance(self, donor):
                # repro: allow[mutation-discipline] capacity move
                donor.kernel.epc.resize(32)
            """,
            module="repro.host.balancer",
        )
        assert report.ok()
        assert report.suppressed == 1


# -- determinism --------------------------------------------------------------

class TestDeterminism:
    def test_wallclock_flagged(self):
        report = check(
            """
            import time

            def stamp():
                return time.time()
            """,
            module="repro.experiments.stamp",
        )
        assert rules_of(report) == ["determinism/time"]

    def test_from_import_alias_tracked(self):
        report = check(
            """
            from time import perf_counter as tick

            def stamp():
                return tick()
            """,
            module="repro.experiments.stamp",
        )
        assert rules_of(report) == ["determinism/time"]

    def test_global_random_flagged(self):
        report = check(
            """
            import random

            def draw():
                return random.randrange(10)
            """,
            module="repro.workloads.draw",
        )
        assert rules_of(report) == ["determinism/random"]

    def test_unseeded_random_instance_flagged(self):
        report = check(
            """
            import random

            def make():
                return random.Random()
            """,
            module="repro.workloads.make",
        )
        assert rules_of(report) == ["determinism/random"]

    def test_seeded_random_instance_fine(self):
        report = check(
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
            module="repro.workloads.make",
        )
        assert report.ok()

    def test_entropy_source_flagged(self):
        report = check(
            """
            import os

            def token():
                return os.urandom(8)
            """,
            module="repro.workloads.token",
        )
        assert rules_of(report) == ["determinism/random"]

    def test_builtin_hash_flagged(self):
        report = check(
            """
            def digest(x):
                return hash(x)
            """,
            module="repro.sgx.digest",
        )
        assert rules_of(report) == ["determinism/hash"]

    def test_hashlib_fine(self):
        report = check(
            """
            import hashlib

            def digest(data):
                return hashlib.sha256(data).hexdigest()
            """,
            module="repro.sgx.digest",
        )
        assert report.ok()

    def test_cli_module_exempt(self):
        report = check(
            """
            import time

            def banner():
                return time.time()
            """,
            module="repro.cli",
        )
        assert report.ok()

    def test_suppressed(self):
        report = check(
            """
            import time

            def stamp():
                return time.time()  # repro: allow[determinism] display
            """,
            module="repro.experiments.stamp",
        )
        assert report.ok()
        assert report.suppressed == 1


# -- determinism: parallel merges ---------------------------------------------

class TestParallelMerge:
    """determinism/parallel-merge fires only in modules that use the
    fan-out package, and only on scheduling-dependent merge shapes."""

    def test_unsorted_imap_unordered_flagged(self):
        report = check(
            """
            from repro.parallel import run_indexed

            def merge(pool, tasks):
                return list(pool.imap_unordered(str, tasks))
            """,
            module="repro.experiments.sweep",
        )
        assert rules_of(report) == ["determinism/parallel-merge"]

    def test_sorted_imap_unordered_fine(self):
        report = check(
            """
            from repro.parallel import run_indexed

            def merge(pool, tasks):
                return sorted(pool.imap_unordered(str, tasks),
                              key=lambda pair: pair[0])
            """,
            module="repro.experiments.sweep",
        )
        assert report.ok()

    def test_parallel_package_always_in_scope(self):
        report = check(
            """
            def merge(pool, tasks):
                return list(pool.imap_unordered(str, tasks))
            """,
            module="repro.parallel.runner",
        )
        assert rules_of(report) == ["determinism/parallel-merge"]

    def test_getpid_key_flagged(self):
        report = check(
            """
            import os
            from repro.parallel import run_indexed

            def tag(result):
                return (os.getpid(), result)
            """,
            module="repro.experiments.sweep",
        )
        assert rules_of(report) == ["determinism/parallel-merge"]

    def test_set_iteration_flagged(self):
        report = check(
            """
            from repro.parallel import run_indexed

            def merge(results):
                return [r for r in set(results)]
            """,
            module="repro.experiments.sweep",
        )
        assert rules_of(report) == ["determinism/parallel-merge"]

    def test_sorted_set_iteration_fine(self):
        report = check(
            """
            from repro.parallel import run_indexed

            def merge(results):
                return [r for r in sorted(set(results))]
            """,
            module="repro.experiments.sweep",
        )
        assert report.ok()

    def test_out_of_scope_module_untouched(self):
        report = check(
            """
            def merge(pool, tasks):
                return list(pool.imap_unordered(str, tasks))
            """,
            module="repro.experiments.sweep",
        )
        assert report.ok()

    def test_catalog_covers_rule(self):
        from repro.analysis.passes import RULE_CATALOG
        assert "determinism/parallel-merge" in RULE_CATALOG


# -- cycle accounting ---------------------------------------------------------

class TestCycleAccounting:
    MODULE = "repro.sgx.mmu"  # in the configured accounting set

    def test_uncharged_path_flagged(self):
        report = check(
            """
            class Mmu:
                def page_in(self, vaddr):
                    return vaddr
            """,
            module=self.MODULE,
        )
        assert rules_of(report) == ["cycle-accounting/uncharged"]

    def test_direct_charge_fine(self):
        report = check(
            """
            class Mmu:
                def page_in(self, vaddr):
                    self.clock.charge(100, "paging")
                    return vaddr
            """,
            module=self.MODULE,
        )
        assert report.ok()

    def test_charge_via_local_call_graph(self):
        report = check(
            """
            class Mmu:
                def page_in(self, vaddr):
                    return self._fill(vaddr)

                def _fill(self, vaddr):
                    self.clock.charge(100, "paging")
                    return vaddr
            """,
            module=self.MODULE,
        )
        assert report.ok()

    def test_charge_via_charging_receiver(self):
        # ``ops`` stays a charging receiver: the call graph cannot see
        # through a dynamically-dispatched PagingOps in a snippet.
        report = check(
            """
            class Pager:
                def evict_page(self, vaddr):
                    return self.ops.evict(self.enclave, vaddr)
            """,
            module=self.MODULE,
        )
        assert report.ok()

    def test_charge_via_cross_module_callee(self):
        # The interprocedural fixpoint sees a charge two modules away.
        report = check_many([
            ("repro.sgx.instructions", """
                class Isa:
                    def ewb(self, enclave, page):
                        self.clock.charge(400, "paging")
                """),
            ("repro.sgx.mmu", """
                from repro.sgx.instructions import Isa

                class Mmu:
                    def __init__(self):
                        self.isa = Isa()

                    def page_out(self, enclave, page):
                        self.isa.ewb(enclave, page)
                """),
        ])
        assert report.ok(), report.render_text()

    def test_abstract_body_skipped(self):
        report = check(
            """
            class Ops:
                def page_in(self, vaddr):
                    raise NotImplementedError
            """,
            module=self.MODULE,
        )
        assert report.ok()

    def test_non_accounting_module_not_in_scope(self):
        report = check(
            """
            class Helper:
                def page_in(self, vaddr):
                    return vaddr
            """,
            module="repro.workloads.helper",
        )
        assert report.ok()

    def test_non_matching_name_not_in_scope(self):
        report = check(
            """
            class Mmu:
                def translate(self, vaddr):
                    return vaddr
            """,
            module=self.MODULE,
        )
        assert report.ok()

    def test_suppressed(self):
        report = check(
            """
            class Mmu:
                # repro: allow[cycle-accounting] folded into EWB
                def page_out(self, vaddr):
                    return vaddr
            """,
            module=self.MODULE,
        )
        assert report.ok()
        assert report.suppressed == 1


# -- suppression semantics ----------------------------------------------------

class TestSuppressions:
    def test_exact_rule_id_suppresses(self):
        report = check(
            """
            def peek(tcs):
                return tcs.ssa  # repro: allow[trust-boundary/attr] x
            """
        )
        assert report.ok()

    def test_wrong_rule_does_not_suppress(self):
        report = check(
            """
            def peek(tcs):
                return tcs.ssa  # repro: allow[determinism] wrong family
            """
        )
        assert rules_of(report) == ["trust-boundary/attr"]

    def test_comma_separated_rules(self):
        report = check(
            """
            import time

            def peek(tcs):
                # repro: allow[trust-boundary, determinism] both
                return (tcs.ssa, time.time())
            """
        )
        assert report.ok()
        assert report.suppressed == 2

    def test_unused_annotation_reported_in_strict(self):
        report = check(
            """
            def fine():
                return 1  # repro: allow[determinism] stale
            """,
            module="repro.experiments.fine",
            strict=True,
        )
        assert rules_of(report) == ["suppression/unused"]

    def test_unused_annotation_ignored_without_strict(self):
        report = check(
            """
            def fine():
                return 1  # repro: allow[determinism] stale
            """,
            module="repro.experiments.fine",
        )
        assert report.ok()

    def test_docstring_mention_is_not_an_annotation(self):
        report = check(
            '''
            def doc():
                """Mentions # repro: allow[determinism] in prose."""
                return 1
            ''',
            module="repro.experiments.doc",
            strict=True,
        )
        assert report.ok()

    def test_standalone_skips_blank_and_plain_comments(self):
        source = textwrap.dedent(
            """
            # repro: allow[trust-boundary] reaches past the comment

            # an ordinary comment
            value = tcs.ssa
            """
        )
        supp = Suppressions(source)
        assert supp.suppresses("trust-boundary/attr", 5)


# -- plumbing -----------------------------------------------------------------

class TestPlumbing:
    def test_attr_chain_flattening(self):
        import ast
        node = ast.parse("self.epcm.entry(pfn).pending", mode="eval").body
        assert attr_chain(node) == ["self", "epcm", "entry", "pending"]
        literal = ast.parse("(1).bit_length", mode="eval").body
        assert attr_chain(literal) == []

    def test_module_name_for(self):
        assert module_name_for("src/repro/host/kernel.py") == \
            "repro.host.kernel"
        assert module_name_for("src/repro/analysis/__init__.py") == \
            "repro.analysis"
        assert module_name_for("benchmarks/bench_paging.py") == \
            "benchmarks.bench_paging"
        assert module_name_for("examples/demo.py") == "examples.demo"

    def test_default_roots_cover_sibling_trees(self):
        from repro.analysis.walker import default_roots
        names = {p.name for p in default_roots()}
        assert {"repro", "benchmarks", "examples"} <= names

    def test_sarif_rendering(self):
        report = check("from repro.sgx.ssa import SsaFrame\n")
        doc = json.loads(report.render_sarif())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rules == sorted(rules)
        assert "leakage/page-address" in rules
        assert "lifecycle/evict-order" in rules
        result = run["results"][0]
        assert result["ruleId"] == "trust-boundary/import"
        assert result["ruleIndex"] == \
            rules.index("trust-boundary/import")
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 1
        assert result["level"] == "error"

    def test_report_rendering(self):
        report = check("from repro.sgx.ssa import SsaFrame\n")
        text = report.render_text()
        assert "trust-boundary/import" in text
        assert "1 finding(s)" in text
        payload = json.loads(report.render_json())
        assert payload["findings"][0]["rule"] == "trust-boundary/import"
        assert payload["checked_files"] == 1

    def test_finding_sort_order(self):
        report = check(
            """
            import time

            def late(tcs):
                return tcs.ssa

            def early():
                return time.time()
            """
        )
        lines = [f.line for f in report.sorted_findings()]
        assert lines == sorted(lines)

    def test_syntax_tolerant_suppression_parser(self):
        # Unterminated string: tokenize raises, table comes back empty.
        supp = Suppressions("x = '")
        assert supp.by_line == {}


# -- call graph ---------------------------------------------------------------

class TestCallGraph:
    @staticmethod
    def first_call(project, qualname):
        info = project.functions[qualname]
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                return node, info
        raise AssertionError(f"no call in {qualname}")

    def test_local_name_is_strong(self):
        project = Project([modsrc("repro.x.a", """
            def helper(n):
                return n

            def main():
                return helper(1)
            """)])
        call, info = self.first_call(project, "repro.x.a.main")
        cands, strong = project.resolve_call_ex(call, "repro.x.a",
                                                caller=info)
        assert strong
        assert [c.qualname for c in cands] == ["repro.x.a.helper"]

    def test_import_alias_is_strong(self):
        project = Project([
            modsrc("repro.x.lib", """
                def cost(n):
                    return n
                """),
            modsrc("repro.x.use", """
                from repro.x.lib import cost as c

                def main():
                    return c(2)
                """),
        ])
        call, info = self.first_call(project, "repro.x.use.main")
        cands, strong = project.resolve_call_ex(call, "repro.x.use",
                                                caller=info)
        assert strong
        assert [c.qualname for c in cands] == ["repro.x.lib.cost"]

    def test_self_method_walks_base_classes(self):
        project = Project([modsrc("repro.x.m", """
            class Base:
                def fill(self, v):
                    return v

            class Child(Base):
                def main(self):
                    return self.fill(3)
            """)])
        call, info = self.first_call(project, "repro.x.m.Child.main")
        cands, strong = project.resolve_call_ex(call, "repro.x.m",
                                                caller=info)
        assert strong
        assert [c.qualname for c in cands] == ["repro.x.m.Base.fill"]

    def test_duck_typed_match_is_weak(self):
        project = Project([modsrc("repro.x.d", """
            class Engine:
                def fetch_pages(self, n):
                    return n

            def main(obj):
                return obj.fetch_pages(1)
            """)])
        call, info = self.first_call(project, "repro.x.d.main")
        cands, strong = project.resolve_call_ex(call, "repro.x.d",
                                                caller=info)
        assert not strong
        assert [c.qualname for c in cands] == \
            ["repro.x.d.Engine.fetch_pages"]

    def test_common_method_names_resolve_to_nothing(self):
        project = Project([modsrc("repro.x.c", """
            class Cache:
                def get(self, k):
                    return k

            def main(obj):
                return obj.get(1)
            """)])
        call, info = self.first_call(project, "repro.x.c.main")
        cands, strong = project.resolve_call_ex(call, "repro.x.c",
                                                caller=info)
        assert cands == ()
        assert not strong

    def test_bind_arguments_maps_keywords(self):
        project = Project([modsrc("repro.x.b", """
            def callee(a, b, c=0):
                return a

            def main():
                return callee(1, c=3, b=2)
            """)])
        call, _ = self.first_call(project, "repro.x.b.main")
        callee = project.functions["repro.x.b.callee"]
        bound = project.bind_arguments(call, callee)
        assert sorted(bound) == [0, 1, 2]
        assert bound[1].value == 2 and bound[2].value == 3


# -- secret taint / leakage ---------------------------------------------------

class TestLeakage:
    APP = "repro.apps.fixture"

    def test_page_address_sink_flagged(self):
        report = check(
            """
            class App:
                def get(self, key):
                    self.engine.data_access(self.base + key)
            """,
            module=self.APP,
        )
        assert rules_of(report) == ["leakage/page-address"]

    def test_flow_through_cross_module_helper(self):
        report = check_many([
            ("repro.oram.slots", """
                def slot_of(base, value):
                    return base + (value % 64) * 4096
                """),
            ("repro.apps.client", """
                from repro.oram.slots import slot_of

                class Client:
                    def fetch(self, key):
                        self.engine.data_access(
                            slot_of(self.base, key))
                """),
        ])
        assert [(f.module, f.rule) for f in report.findings] == \
            [("repro.apps.client", "leakage/page-address")]

    def test_latent_sink_reported_at_call_site(self):
        report = check_many([
            ("repro.oram.store", """
                class Store:
                    def touch(self, engine, addr):
                        engine.data_access(addr)
                """),
            ("repro.apps.reader", """
                from repro.oram.store import Store

                class Reader:
                    def __init__(self, engine):
                        self.engine = engine
                        self.store = Store()

                    def read(self, key):
                        self.store.touch(self.engine, key)
                """),
        ])
        assert [(f.module, f.rule) for f in report.findings] == \
            [("repro.apps.reader", "leakage/page-address")]

    def test_index_rule_scoped_to_apps(self):
        report = check(
            """
            def pick(table, key):
                return table[key]
            """,
            module=self.APP,
        )
        assert rules_of(report) == ["leakage/index"]
        report = check(
            """
            def pick(table, block_id):
                return table[block_id]
            """,
            module="repro.oram.pick",
        )
        assert report.ok()

    def test_oram_block_id_is_a_default_source(self):
        # path_oram passes because it *remaps*, not because ORAM code
        # is exempt: a naive position map is flagged.
        report = check(
            """
            class Naive:
                def access(self, block_id):
                    self.engine.data_access(
                        self.base + block_id * 4096)
            """,
            module="repro.oram.naive",
        )
        assert rules_of(report) == ["leakage/page-address"]

    def test_fresh_randomness_sanitizes(self):
        report = check(
            """
            class Remap:
                def place(self, rng, block_id):
                    pos = rng.randrange(64)
                    self.engine.data_access(self.base + pos * 4096)
            """,
            module="repro.oram.remap",
        )
        assert report.ok(), report.render_text()

    def test_len_declassifies_size(self):
        # Input *size* is public in the oblivious model: traces are
        # functions of N by design.
        report = check(
            """
            class Scan:
                def consume(self, words):
                    for i in range(len(words)):
                        self.engine.data_access(self.base + i * 4096)
            """,
            module=self.APP,
        )
        assert report.ok(), report.render_text()

    def test_secret_comment_declares_source(self):
        report = check(
            """
            class Mailbox:
                def stash(self, token):  # repro: secret
                    self.engine.data_access(token)
            """,
            module="repro.runtime.mailbox",
        )
        assert rules_of(report) == ["leakage/page-address"]

    def test_secret_comment_names_one_param(self):
        report = check(
            """
            # repro: secret[nonce]
            def mix(engine, nonce, salt):
                engine.data_access(salt)
                engine.data_access(nonce)
            """,
            module="repro.runtime.mix",
        )
        assert [(f.line, f.rule) for f in report.findings] == \
            [(5, "leakage/page-address")]

    def test_suppressed(self):
        report = check(
            """
            class App:
                def get(self, key):
                    # repro: allow[leakage] fixture
                    self.engine.data_access(self.base + key)
            """,
            module=self.APP,
        )
        assert report.ok()
        assert report.suppressed == 1


# -- lifecycle orderliness ----------------------------------------------------

class TestLifecycle:
    MODULE = "repro.runtime.flow"

    def test_add_after_einit_flagged(self):
        report = check(
            """
            def launch(instr, epc, page):
                enclave = instr.ecreate(epc, size=4)
                instr.einit(enclave)
                instr.eadd(enclave, page)
                instr.eenter(enclave)
            """,
            module=self.MODULE,
        )
        assert rules_of(report) == ["lifecycle/launch-order"]

    def test_double_einit_flagged(self):
        report = check(
            """
            def launch(instr, epc, page):
                enclave = instr.ecreate(epc, size=4)
                instr.eadd(enclave, page)
                instr.einit(enclave)
                instr.einit(enclave)
            """,
            module=self.MODULE,
        )
        assert rules_of(report) == ["lifecycle/launch-order"]

    def test_clean_launch_ok(self):
        report = check(
            """
            def launch(instr, epc, pages):
                enclave = instr.ecreate(epc, size=4)
                for page in pages:
                    instr.eadd(enclave, page)
                    instr.eextend(enclave, page)
                instr.einit(enclave)
                instr.eenter(enclave)
            """,
            module=self.MODULE,
        )
        assert report.ok(), report.render_text()

    def test_eblock_after_ewb_flagged(self):
        report = check(
            """
            def evict(instr, enclave, page):
                instr.ewb(enclave, page)
                instr.eblock(enclave, page)
            """,
            module=self.MODULE,
        )
        assert rules_of(report) == ["lifecycle/evict-order"]

    def test_bulk_ewb_before_bulk_drop_flagged(self):
        report = check(
            """
            def evict(instr, pt, enclave, bases):
                instr.eblock_pages(enclave, bases)
                instr.ewb_pages(enclave, bases)
                pt.drop_pages(bases)
            """,
            module=self.MODULE,
        )
        assert rules_of(report) == ["lifecycle/evict-order"]
        assert "drop(bases) after EWB" in report.findings[0].message

    def test_bulk_eviction_in_order_ok(self):
        report = check(
            """
            def cycle(instr, page_table, enclave, bases, blobs, perms):
                instr.eblock_pages(enclave, bases)
                page_table.drop_pages(bases)
                instr.ewb_pages(enclave, bases)
                instr.eldu_pages(enclave, bases, blobs, perms)
                instr.eblock_pages(enclave, bases)
            """,
            module=self.MODULE,
        )
        assert report.ok(), report.render_text()

    def test_eldu_resets_the_eviction_key(self):
        report = check(
            """
            def cycle(instr, pt, enclave, page):
                instr.eblock(enclave, page)
                pt.drop(page)
                instr.ewb(enclave, page)
                instr.eldu(enclave, page)
                instr.eblock(enclave, page)
                pt.drop(page)
                instr.ewb(enclave, page)
            """,
            module=self.MODULE,
        )
        assert report.ok(), report.render_text()

    def test_branch_arms_are_not_compared(self):
        report = check(
            """
            def evict(instr, pt, enclave, page, fast):
                if fast:
                    instr.ewb(enclave, page)
                else:
                    instr.eblock(enclave, page)
                    pt.drop(page)
                    instr.ewb(enclave, page)
            """,
            module=self.MODULE,
        )
        assert report.ok(), report.render_text()

    def test_pytest_raises_body_skipped(self):
        report = check(
            """
            import pytest

            def test_sealed(instr, enclave, page):
                instr.einit(enclave)
                with pytest.raises(RuntimeError):
                    instr.eadd(enclave, page)
            """,
            module="tests.test_flow",
        )
        assert report.ok(), report.render_text()

    def test_resume_inversion_flagged(self):
        report = check(
            """
            def resume(cpu, enclave):
                cpu.eresume(enclave)
                cpu.aex(enclave)
            """,
            module=self.MODULE,
        )
        assert rules_of(report) == ["lifecycle/resume-order"]

    def test_resume_of_foreign_suspend_ok(self):
        report = check(
            """
            def resume(cpu, enclave):
                cpu.eresume(enclave)
            """,
            module=self.MODULE,
        )
        assert report.ok()

    def test_splice_across_functions(self):
        # ``broken`` never names EWB, but its callee does: the callee's
        # ops are inlined with parameters rebound to the call site.
        report = check(
            """
            def finish(instr, enclave, page):
                instr.ewb(enclave, page)

            def broken(instr, enclave, page):
                finish(instr, enclave, page)
                instr.eblock(enclave, page)
            """,
            module=self.MODULE,
        )
        assert rules_of(report) == ["lifecycle/evict-order"]

    def test_out_of_scope_module_ignored(self):
        report = check(
            """
            def evict(instr, enclave, page):
                instr.ewb(enclave, page)
                instr.eblock(enclave, page)
            """,
            module="repro.oram.not_lifecycle",
        )
        assert report.ok()

    def test_suppressed(self):
        report = check(
            """
            def evict(instr, enclave, page):
                instr.ewb(enclave, page)
                # repro: allow[lifecycle] negative-path fixture
                instr.eblock(enclave, page)
            """,
            module=self.MODULE,
        )
        assert report.ok()
        assert report.suppressed == 1


# -- robustness (fail-safe exception discipline) ------------------------------

class TestRobustness:
    def test_bare_except_flagged(self):
        report = check("""
            def f():
                try:
                    g()
                except:
                    pass
            """, module="repro.runtime.handler")
        assert rules_of(report) == ["robustness/broad-except"]
        assert "bare except" in report.findings[0].message

    def test_except_exception_flagged(self):
        report = check("""
            try:
                g()
            except Exception as exc:
                log(exc)
            """, module="repro.chaos.campaign")
        assert rules_of(report) == ["robustness/broad-except"]

    def test_base_exception_and_qualified_flagged(self):
        report = check("""
            import builtins
            try:
                g()
            except BaseException:
                pass
            try:
                g()
            except builtins.Exception:
                pass
            """, module="repro.host.kernel")
        assert rules_of(report) == ["robustness/broad-except"] * 2

    def test_broad_member_of_tuple_flagged(self):
        report = check("""
            try:
                g()
            except (ValueError, Exception):
                pass
            """, module="repro.core.system")
        assert rules_of(report) == ["robustness/broad-except"]

    def test_narrow_handlers_clean(self):
        report = check("""
            from repro.errors import IntegrityError, PolicyError
            try:
                g()
            except (IntegrityError, PolicyError):
                recover()
            except KeyError:
                pass
            """, module="repro.runtime.libos")
        assert report.ok(), report.render_text()

    def test_log_and_reraise_exempt(self):
        report = check("""
            try:
                g()
            except Exception as exc:
                log(exc)
                raise
            """, module="repro.runtime.libos")
        assert report.ok(), report.render_text()

    def test_conditional_reraise_still_flagged(self):
        # ``raise`` behind an ``if`` can swallow on the other branch.
        report = check("""
            try:
                g()
            except Exception as exc:
                if transient(exc):
                    raise
            """, module="repro.runtime.libos")
        assert rules_of(report) == ["robustness/broad-except"]

    def test_tests_and_benchmarks_exempt(self):
        source = """
            try:
                g()
            except Exception:
                pass
            """
        for module in ("tests.test_probe", "benchmarks.bench_x",
                       "examples.demo"):
            assert check(source, module=module).ok()

    def test_allow_annotation_suppresses(self):
        report = check("""
            try:
                main()
            except Exception as exc:  # repro: allow[robustness] CLI edge
                report_and_exit(exc)
            """, module="repro.cli")
        assert report.ok()
        assert report.suppressed == 1

    def test_unbounded_queue_flagged(self):
        report = check("""
            def drive(service):
                inbox = []
                while service.running:
                    inbox.append(service.poll())
            """, module="repro.service.loop")
        assert rules_of(report) == ["robustness/unbounded-queue"]
        assert "inbox.append" in report.findings[0].message

    def test_unbounded_queue_attribute_receiver_flagged(self):
        report = check("""
            def drive(self):
                while self.running:
                    self.results.extend(self.poll())
            """, module="repro.runtime.loop")
        assert rules_of(report) == ["robustness/unbounded-queue"]

    def test_queue_bounded_by_loop_test_clean(self):
        report = check("""
            def select(source, target):
                victims = []
                while len(victims) < target:
                    victims.extend(source.pop_unit())
                return victims
            """, module="repro.runtime.selector")
        assert report.ok(), report.render_text()

    def test_queue_drained_in_loop_clean(self):
        report = check("""
            def bfs(frontier, graph):
                while frontier:
                    node = frontier.popleft()
                    for other in graph[node]:
                        frontier.append(other)
            """, module="repro.runtime.walker")
        assert report.ok(), report.render_text()

    def test_queue_escaping_loop_clean(self):
        report = check("""
            def drive(service, budget):
                log = []
                while service.running:
                    log.append(service.poll())
                    if len(log) >= budget:
                        return log
            """, module="repro.service.loop")
        assert report.ok(), report.render_text()

    def test_queue_rule_scoped_to_service_and_runtime(self):
        # Same shape outside the long-lived layers is not a finding.
        report = check("""
            def drive(service):
                inbox = []
                while service.running:
                    inbox.append(service.poll())
            """, module="repro.apps.batch")
        assert report.ok(), report.render_text()

    def test_unguarded_failover_flagged(self):
        report = check("""
            def elect(pool):
                for handle in pool.replicas:
                    if pool.healthy(handle):
                        return handle
            """, module="repro.service.pool")
        assert rules_of(report) == ["robustness/unguarded-failover"]
        assert "pool.replicas" in report.findings[0].message

    def test_guarded_failover_clean(self):
        report = check("""
            def elect(pool):
                for handle in pool.replicas:
                    if pool.healthy(handle):
                        return handle
                return None
            """, module="repro.service.pool")
        assert report.ok(), report.render_text()

    def test_failover_raise_guard_clean(self):
        report = check("""
            def elect(pool):
                for handle in pool.replicas:
                    if pool.healthy(handle):
                        return handle
                raise RuntimeError("pool exhausted")
            """, module="repro.service.pool")
        assert report.ok(), report.render_text()

    def test_failover_visit_sweep_clean(self):
        # No return/break in the body: a sweep, not a selection.
        report = check("""
            def retire(pool, recovery):
                for handle in pool.replicas:
                    recovery.teardown(handle.member_name)
            """, module="repro.service.router")
        assert report.ok(), report.render_text()

    def test_failover_rule_scoped_to_service(self):
        # Same shape outside repro.service. is not a finding.
        report = check("""
            def elect(pool):
                for handle in pool.replicas:
                    if pool.healthy(handle):
                        return handle
            """, module="repro.runtime.pool")
        assert report.ok(), report.render_text()


# -- golden fixtures ----------------------------------------------------------

class TestGoldenFixtures:
    def test_leaky_fixture_exact_findings(self):
        report = check_fixture("taint_leaky.py",
                               "repro.apps.fixture_leaky")
        assert [(f.line, f.rule) for f in report.sorted_findings()] == [
            (19, "leakage/page-address"),
            (24, "leakage/index"),
            (25, "leakage/index"),
            (29, "leakage/branch"),
        ], report.render_text()

    def test_oblivious_fixture_clean(self):
        report = check_fixture("taint_oblivious.py",
                               "repro.apps.fixture_oblivious")
        assert report.ok(), report.render_text()

    def test_misordered_fixture_exact_findings(self):
        report = check_fixture("lifecycle_misordered.py",
                               "repro.experiments.fixture_misordered")
        assert [(f.line, f.rule) for f in report.sorted_findings()] == [
            (9, "lifecycle/launch-order"),
            (15, "lifecycle/evict-order"),
            (16, "lifecycle/evict-order"),
            (20, "lifecycle/resume-order"),
            (28, "lifecycle/evict-order"),
        ], report.render_text()

    def test_ordered_fixture_clean(self):
        report = check_fixture("lifecycle_ordered.py",
                               "repro.experiments.fixture_ordered")
        assert report.ok(), report.render_text()

    def test_unbounded_queue_fixture_exact_findings(self):
        report = check_fixture("robustness_unbounded_queue.py",
                               "repro.service.fixture_queue")
        assert [(f.line, f.rule) for f in report.sorted_findings()] == [
            (13, "robustness/unbounded-queue"),
        ], report.render_text()

    def test_unguarded_failover_fixture_exact_findings(self):
        report = check_fixture("robustness_unguarded_failover.py",
                               "repro.service.fixture_failover")
        assert [(f.line, f.rule) for f in report.sorted_findings()] == [
            (13, "robustness/unguarded-failover"),
        ], report.render_text()

    def test_real_oram_is_oblivious(self):
        # The §6 regression: the real ORAM layer (path_oram.py,
        # oblivious.py, …) must stay clean with zero suppressions —
        # obliviousness is proven, not annotated away.
        import repro
        from repro.analysis.walker import analyze_paths
        oram = Path(repro.__file__).parent / "oram"
        report = analyze_paths([oram])
        assert report.ok(), report.render_text()
        assert report.suppressed == 0

    def test_real_opaque_app_is_oblivious(self):
        import repro
        from repro.analysis.walker import analyze_paths
        opaque = Path(repro.__file__).parent / "apps" / "opaque.py"
        report = analyze_paths([opaque])
        assert report.ok(), report.render_text()
        assert report.suppressed == 0


# -- the gate -----------------------------------------------------------------

class TestWholeTree:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_tree(strict=True)

    def test_tree_is_clean(self, report):
        assert report.findings == [], report.render_text()

    def test_tree_coverage(self, report):
        # Sanity: the walker really visited the package.
        assert report.checked_files > 50

    def test_known_suppressions_are_used(self, report):
        # Every allow annotation in the tree suppresses something
        # (strict mode would have reported stale ones above) and the
        # count matches the documented threat-model inventory: 19
        # architectural exceptions plus the 20 deliberate Table-2 app
        # leaks the attack experiments measure.
        assert report.suppressed == 39

    def test_config_families_cover_passes(self):
        from repro.analysis.passes import rule_families
        assert set(rule_families()) == set(DEFAULT_CONFIG.rule_families)

    def test_configured_function_names_are_defined(self):
        # A config entry naming a function the tree lacks turns its
        # rule off for that name without a word, e.g. a page sink
        # left behind when the function is deleted or renamed.
        functions, methods = set(), set()
        root = Path(__file__).parent.parent / "src" / "repro"
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef):
                    functions.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    methods.update(
                        f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef))
        config = DEFAULT_CONFIG
        bare = {*config.taint_page_sinks, *config.effects_task_runners,
                *config.accounting_exempt_names}
        assert sorted(bare - functions) == []
        assert sorted(
            name for name in config.effects_hot_functions
            if name not in (methods if "." in name else functions)
        ) == []
