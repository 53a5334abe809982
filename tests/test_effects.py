"""The effects pass: interprocedural effect/purity inference plus its
three checker families (epoch-soundness, parallel-purity,
hot-path-perf).

Golden fixtures under ``tests/fixtures/analysis`` pin the exact
findings for seeded violations (falsifiability: every seeded bug must
be detected) and prove the clean counterparts stay silent.  Engine
unit tests pin the summary semantics the checkers rely on — escape
analysis, transitive propagation, constructor freshness, and bump
coverage.
"""

import ast
import json
from pathlib import Path

from repro.analysis.callgraph import Project
from repro.analysis.cli import run as analyze_cli
from repro.analysis.passes.effects import EffectEngine, display
from repro.analysis.walker import ModuleSource, analyze_source

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def check_fixture(name, module, only=None):
    path = FIXTURES / name
    return analyze_source(path.read_text(encoding="utf-8"),
                          module=module, path=str(path), only=only)


def summarize(source, module="m"):
    mod = ModuleSource(path="<m>", module=module, source=source,
                       tree=ast.parse(source))
    engine = EffectEngine(Project([mod]))
    engine.run()
    return engine


def writes_of(engine, qualname):
    return sorted(display(t) for t in engine.summaries[qualname].writes)


# -- golden fixtures ----------------------------------------------------------

class TestEpochFixtures:
    def test_unsound_fixture_exact_findings(self):
        report = check_fixture("effects_epoch_unsound.py",
                               "repro.sgx.fixture_epoch_unsound")
        assert [(f.line, f.rule) for f in report.sorted_findings()] == [
            (13, "effects/epoch-soundness"),   # unmap_quietly: no bump
            (17, "effects/epoch-soundness"),   # protect: bump misses a path
            (24, "effects/epoch-soundness"),   # clear_via_alias
        ], report.render_text()

    def test_sound_fixture_clean(self):
        report = check_fixture("effects_epoch_sound.py",
                               "repro.sgx.fixture_epoch_sound")
        assert report.ok(), report.render_text()

    def test_scope_is_prefix_gated(self):
        # The same unsound code outside repro.sgx/host/runtime is not
        # the epoch checker's business.
        report = check_fixture("effects_epoch_unsound.py",
                               "repro.tools.fixture_elsewhere",
                               only=["effects"])
        assert report.ok(), report.render_text()


class TestPurityFixtures:
    def test_impure_fixture_exact_findings(self):
        report = check_fixture("effects_impure_task.py",
                               "repro.experiments.fixture_impure_task")
        assert [(f.line, f.rule) for f in report.sorted_findings()] == [
            (56, "effects/parallel-purity"),   # module-global dict write
            (57, "effects/parallel-purity"),   # task-item mutation
            (58, "effects/parallel-purity"),   # write via helper call
            (59, "effects/parallel-purity"),   # decorator-wrapped task
            (60, "effects/parallel-purity"),   # partial-wrapped task
        ], report.render_text()

    def test_item_mutation_is_called_out(self):
        report = check_fixture("effects_impure_task.py",
                               "repro.experiments.fixture_impure_task")
        by_line = {f.line: f.message for f in report.findings}
        assert "mutates its task item" in by_line[57]
        assert "writes ambient shared state" in by_line[58]

    def test_partial_worker_is_named(self):
        report = check_fixture("effects_impure_task.py",
                               "repro.experiments.fixture_impure_task")
        by_line = {f.line: f.message for f in report.findings}
        assert "'scaled_task'" in by_line[60]

    def test_pure_fixture_clean(self):
        report = check_fixture("effects_pure_task.py",
                               "repro.experiments.fixture_pure_task")
        assert report.ok(), report.render_text()


class TestSweepPurityFixture:
    def findings(self):
        report = check_fixture("effects_impure_sweep.py",
                               "repro.experiments.fixture_impure_sweep")
        return {f.line: f for f in report.sorted_findings()}

    def test_worker_through_a_parameter_is_one_finding(self):
        # run_indexed(worker, ...) cannot be summarized: fail closed.
        finding = self.findings()[23]
        assert finding.rule == "effects/parallel-purity"
        assert "'worker'" in finding.message
        assert "purity is unchecked" in finding.message

    def test_impure_run_handed_to_the_sweep_is_one_finding(self):
        findings = self.findings()
        assert findings[27].rule == "effects/parallel-purity"
        assert "'tally_run' writes ambient shared state" in \
            findings[27].message
        # The pure run function on the next line stays silent.
        assert sorted(findings) == [23, 27]


class TestHotPathFixtures:
    def test_hot_fixture_exact_findings(self):
        report = check_fixture("effects_hot_slow.py",
                               "repro.sgx.fixture_hot_slow")
        assert [(f.line, f.rule) for f in report.sorted_findings()] == [
            (14, "effects/hot-path-perf"),     # invariant attr chain
            (15, "effects/hot-path-perf"),     # per-iteration allocation
            (16, "effects/hot-path-perf"),     # try inside the loop
        ], report.render_text()

    def test_unmarked_twin_is_silent(self):
        # scan_cold has the identical body but no ``# repro: hot``.
        report = check_fixture("effects_hot_slow.py",
                               "repro.sgx.fixture_hot_slow")
        assert all(f.line < 23 for f in report.findings), \
            report.render_text()

    def test_import_in_a_hot_function_is_one_finding(self):
        # The import runs on every call of the marked method; its
        # unmarked twin (its import on line 21) stays silent.
        report = check_fixture("effects_hot_import.py",
                               "repro.apps.fixture_hot_import")
        findings = report.sorted_findings()
        assert [(f.line, f.rule) for f in findings] == [
            (13, "effects/hot-path-perf"),
        ], report.render_text()
        assert "runs an import statement" in findings[0].message

    def test_marker_text_in_a_string_marks_nothing(self):
        # Only a comment marks a def hot, as only a comment is an
        # allow annotation: the same text in a string literal is inert.
        source = (
            'MARKER = "# repro: hot"\n'
            "def scan(self, items):\n"
            "    for item in items:\n"
            "        self.table.inner.data[item] = [item]\n"
        )
        report = analyze_source(source, module="repro.sgx.fixture_marker",
                                only=["effects"])
        assert report.ok(), report.render_text()
        marked = analyze_source(source.replace('MARKER = "# repro: hot"',
                                               "# repro: hot"),
                                module="repro.sgx.fixture_marker",
                                only=["effects"])
        assert len(marked.findings) == 2, marked.render_text()


# -- engine semantics ---------------------------------------------------------

class TestEngineSummaries:
    def test_local_objects_do_not_escape(self):
        engine = summarize("""
class Box:
    def __init__(self):
        self.items = []

def build(n):
    box = Box()
    box.items.append(n)
    return box
""")
        assert writes_of(engine, "m.build") == []

    def test_parameter_writes_are_ambient(self):
        engine = summarize("""
def tag(box, n):
    box.items.append(n)
""")
        assert writes_of(engine, "m.tag") == ["arg[0].items[...]"]

    def test_helper_writes_propagate_but_stay_indirect(self):
        engine = summarize("""
STATE = {}

def outer(n):
    _inner(n)

def _inner(n):
    STATE[n] = n
""")
        assert writes_of(engine, "m.outer") == ["m.STATE[...]"]
        assert engine.summaries["m.outer"].direct_writes == frozenset()
        assert engine.summaries["m._inner"].direct_writes != frozenset()

    def test_bump_coverage_propagates_through_helpers(self):
        engine = summarize("""
class T:
    def retire(self, vpn):
        self._entries.pop(vpn, None)
        self._stamp()

    def _stamp(self):
        self.epoch.value += 1
""")
        assert engine.summaries["m.T._stamp"].bumps
        assert engine.summaries["m.T.retire"].epoch_sound

    def test_conditional_bump_is_unsound(self):
        engine = summarize("""
class T:
    def protect(self, vpn, writable):
        self._entries[vpn] = writable
        if writable:
            self.epoch.value += 1
""")
        assert not engine.summaries["m.T.protect"].epoch_sound

    def test_constructed_receiver_is_fresh(self):
        engine = summarize("""
class Table:
    def __init__(self):
        self._entries = {}

def make():
    t = Table()
    t._entries[0] = 1
    return t
""")
        assert writes_of(engine, "m.make") == []

    def test_fixpoint_converges_early(self):
        engine = summarize("def f():\n    return 1\n")
        assert engine.rounds <= 2


# -- pass selection and timing ------------------------------------------------

class TestOnlySelection:
    def test_only_filters_families(self):
        # The leaky taint fixture has zero effects findings, so an
        # effects-only run is clean even though the full run is not.
        full = check_fixture("taint_leaky.py", "repro.apps.fixture_leaky")
        assert not full.ok()
        effects_only = check_fixture("taint_leaky.py",
                                     "repro.apps.fixture_leaky",
                                     only=["effects"])
        assert effects_only.ok(), effects_only.render_text()

    def test_only_keeps_selected_family(self):
        report = check_fixture("effects_epoch_unsound.py",
                               "repro.sgx.fixture_epoch_unsound",
                               only=["effects"])
        assert len(report.findings) == 3, report.render_text()

    def test_unknown_family_is_an_error(self, capsys):
        path = FIXTURES / "effects_epoch_sound.py"
        code = analyze_cli(["--only", "no-such-family", str(path)])
        assert code == 2
        assert "unknown pass family" in capsys.readouterr().err

    def test_pass_seconds_reported_per_family(self):
        report = check_fixture("effects_epoch_sound.py",
                               "repro.sgx.fixture_epoch_sound")
        timing = json.loads(report.render_json())["callgraph"]["pass_seconds"]
        from repro.analysis.passes import rule_families
        assert set(timing) == set(rule_families())
        assert all(t >= 0 for t in timing.values())

    def test_only_run_times_only_selected(self):
        report = check_fixture("effects_epoch_sound.py",
                               "repro.sgx.fixture_epoch_sound",
                               only=["effects"])
        timing = json.loads(report.render_json())["callgraph"]["pass_seconds"]
        assert set(timing) == {"effects"}
