"""CLI tests."""

import os

import pytest

from repro.cli import ALIASES, EXPERIMENTS, SUBCOMMANDS, _resolve, main
from repro.recovery.cli import MIN_OPS


def test_list_runs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_resolve_aliases():
    for alias, target in ALIASES.items():
        assert _resolve(alias) is _resolve(target)


def test_unknown_experiment_exits():
    with pytest.raises(SystemExit):
        main(["warpdrive"])


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
@pytest.mark.parametrize("flag, code", [("--help", 0), ("--no-such-flag", 2)])
def test_subcommand_help_and_bad_flag(command, flag, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag])
    assert exc.value.code == code


@pytest.mark.parametrize("argv", [
    ["serve", "--tenants", "0"],
    ["serve", "--sweep", "--seeds", "0"],
    ["chaos", "--policies", "nope"],
    ["modelcheck", "--policy", "nope"],
    ["modelcheck", "--depth", "-1"],
    ["modelcheck", "--max-states", "0"],
    ["chaos", "--seeds", "0"],
    ["recover", "--ops", str(MIN_OPS - 1)],
    ["serve", "--smoke", "--ticks", "0"],
    ["serve", "--ticks", "-1"],
    ["chaos", "--seeds", "1", "--policies", "pin_all", "--jobs", "0"],
    ["modelcheck", "--policy", "pin_all", "--depth", "1", "--jobs", "0"],
    ["serve", "--sweep", "--seeds", "1", "--no-determinism-check",
     "--jobs", "-1"],
    ["modelcheck", "--policy", "pin_all", "--depth", "1",
     "--export", os.devnull],
    ["serve", "--sweep", "--seeds", "1", "--no-determinism-check",
     "--output", "."],
    ["serve", "--sweep", "--seeds", "1", "--no-determinism-check",
     "--output", "nodir/x.json"],
    ["bench", "--output", "."],
    # A flag that would run and report as if it had done its job.
    ["serve", "--baseline", "BENCH_service.json"],
    ["serve", "--smoke", "--baseline", "BENCH_service.json"],
    ["serve", "--pool"],
    ["serve", "--smoke", "--sweep"],
    ["serve", "--plan", "plan.json", "--sweep"],
    # A flag its serve mode never reads (--pool and --baseline above).
    *(["serve", "--plan", "plan.json", *flag] for flag in (
        ["--seed", "5"], ["--tenants", "9"], ["--ticks", "3"],
        ["--seeds", "2"], ["--jobs", "2"], ["--no-determinism-check"],
        ["--output", "x.json"])),
    ["serve", "--smoke", "--seeds", "2"],
    ["serve", "--jobs", "2"],
    ["serve", "--smoke", "--no-determinism-check"],
    ["serve", "--output", "x.json"],
    *(["serve", "--sweep", "--seeds", "1", "--no-determinism-check", *flag]
      for flag in (["--seed", "3"], ["--tenants", "2"], ["--ticks", "2"])),
    ["bench", "--profile", "--baseline"],
    ["bench", "--profile", "--profile-slice", "nope"],
    ["bench", "--profile", "--profile-top", "0"],
    ["bench", "--profile", "--profile-top", "-3"],
])
def test_out_of_range_value_is_refused(argv, tmp_path, monkeypatch,
                                       capsys):
    # Refused before anything runs: one argparse error line, exit 2,
    # and no report written into the working directory.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(
        f"repro {argv[0]}: error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["report", "."],
    ["report", "nodir/report.md"],
    ["leakage", "-q", "--jobs", "0"],
])
def test_main_parser_refuses_out_of_range_value(argv, tmp_path,
                                                monkeypatch, capsys):
    # The same refusal from main's own parser, before any section or
    # experiment runs.
    from repro.experiments import report as report_module
    monkeypatch.setattr(report_module, "SECTIONS",
                        [("E8", "leakage_analysis")])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("repro: error: ")
    assert not list(tmp_path.iterdir())


def test_runs_one_experiment(capsys):
    assert main(["leakage", "-q"]) == 0
    out = capsys.readouterr().out
    assert "cluster guess probability" in out


def test_every_entry_importable():
    for key in EXPERIMENTS:
        module = _resolve(key)
        assert callable(module.main)
        assert callable(module.run)


class TestReport:
    def test_generate_selected_sections(self, tmp_path):
        from repro.experiments.report import generate
        out = tmp_path / "report.md"
        text = generate(path=str(out), sections=["leakage_analysis"])
        assert out.read_text() == text
        assert "E8" in text
        assert "```text" in text

    def test_cli_report_command(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import report as report_module
        monkeypatch.setattr(
            report_module, "SECTIONS",
            [("E8", "leakage_analysis")],
        )
        out = tmp_path / "r.md"
        assert main(["report", str(out), "-q"]) == 0
        assert out.exists()
        assert "leakage" in out.read_text().lower()


class TestAnalyze:
    def test_cli_analyze_clean_tree(self, capsys):
        assert main(["analyze", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "file(s) checked" in out

    def test_cli_analyze_json(self, capsys):
        import json
        assert main(["analyze", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["checked_files"] > 50

    def test_cli_analyze_sarif(self, capsys):
        import json
        assert main(["analyze", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        assert run["results"] == []
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert any(r.startswith("leakage/") for r in rules)
        assert any(r.startswith("lifecycle/") for r in rules)

    def test_cli_analyze_seeded_violation(self, tmp_path, capsys):
        evil = tmp_path / "repro" / "host" / "evil.py"
        evil.parent.mkdir(parents=True)
        evil.write_text(
            "import time\n"
            "def spy(tcs):\n"
            "    return (tcs.ssa, time.time())\n"
        )
        assert main(["analyze", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "trust-boundary/attr" in out
        assert "determinism/time" in out

    def test_cli_analyze_missing_path_refused(self, capsys):
        assert main(["analyze", "/no/such/tree"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_listed_in_help(self, capsys):
        main(["list"])
        assert "analyze" in capsys.readouterr().out


class TestRecover:
    def test_cli_recover_text(self, capsys):
        assert main(["recover", "--ops", "40",
                     "--policies", "rate_limit"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "forgiven" in out
        assert "rejected (IntegrityAbort)" in out
        assert "quarantined after" in out
        assert "all recovery invariants hold" in out

    def test_cli_recover_json(self, capsys):
        import json
        assert main(["recover", "--ops", "40", "--format", "json",
                     "--policies", "pin_all", "oram"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        assert [r["policy"] for r in payload["policies"]] == [
            "pin_all", "oram"]
        assert all(r["restored_verified"] for r in payload["policies"])
        assert payload["rollback"]["rollback_rejected"]
        assert payload["quarantine"]["quarantined"]

    def test_listed_in_help(self, capsys):
        main(["list"])
        assert "recover" in capsys.readouterr().out


class TestVerifyClaims:
    def test_cli_verify_command(self, capsys, monkeypatch):
        from repro.experiments import verify_claims

        def tiny_check():
            yield verify_claims.Claim("T", "test claim", True, "ok")

        monkeypatch.setattr(verify_claims, "CHECKS", (tiny_check,))
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "1/1 claims hold" in out

    def test_failing_claim_exits_nonzero(self, monkeypatch, capsys):
        from repro.experiments import verify_claims

        def failing_check():
            yield verify_claims.Claim("F", "nope", False, "bad")

        monkeypatch.setattr(verify_claims, "CHECKS", (failing_check,))
        with pytest.raises(SystemExit):
            main(["verify"])

    def test_leakage_claim_directly(self):
        from repro.experiments import verify_claims
        claims = list(verify_claims._check_leakage())
        assert all(c.passed for c in claims)
