"""Software-defense baseline tests (§4's critique, quantified)."""

import pytest

from repro.experiments import software_defense_cmp
from repro.runtime.software_defense import (
    AexDetectionTripped,
    AexRateDefense,
)
from repro.sgx.params import AccessType


class TestAexRateDefense:
    def test_quiet_checkpoints_pass(self, kernel, legacy):
        watchdog = AexRateDefense(kernel, legacy.enclave, 4)
        assert watchdog.checkpoint() == 0
        assert not watchdog.tripped

    def test_burst_of_faults_trips(self, kernel, legacy):
        watchdog = AexRateDefense(kernel, legacy.enclave, 4)
        heap = legacy.regions["heap"]
        for i in range(8):  # 8 demand-paging AEXs
            legacy.access(heap.page(i), AccessType.WRITE)
        with pytest.raises(AexDetectionTripped):
            watchdog.checkpoint()
        assert legacy.enclave.dead

    def test_delta_reported(self, kernel, legacy):
        watchdog = AexRateDefense(kernel, legacy.enclave, 10)
        heap = legacy.regions["heap"]
        for i in range(3):
            legacy.access(heap.page(i), AccessType.WRITE)
        assert watchdog.checkpoint() == 3

    def test_bad_budget_rejected(self, kernel, legacy):
        with pytest.raises(ValueError):
            AexRateDefense(kernel, legacy.enclave, 0)


class TestComparisonExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return software_defense_cmp.run()

    def _by(self, rows, scenario_prefix, defense_prefix):
        return next(
            r for r in rows
            if r.scenario.startswith(scenario_prefix)
            and r.defense.startswith(defense_prefix)
        )

    def test_false_positive_on_benign_paging(self, rows):
        sw = self._by(rows, "benign", "aex-rate")
        autarky = self._by(rows, "benign", "autarky")
        assert not sw.survived_benign   # the §4 false positive
        assert autarky.survived_benign  # paging just works

    def test_paced_attack_evades_sw_defense(self, rows):
        sw = self._by(rows, "paced", "aex-rate")
        autarky = self._by(rows, "paced", "autarky")
        assert not sw.attack_detected
        assert sw.attack_pages_leaked > 50
        assert autarky.attack_detected
        assert autarky.attack_pages_leaked == 0

    def test_silent_channel_invisible_to_sw_defense(self, rows):
        sw = self._by(rows, "A/D", "aex-rate")
        autarky = self._by(rows, "A/D", "autarky")
        assert not sw.attack_detected
        assert sw.attack_pages_leaked > 0
        assert autarky.attack_detected
        assert autarky.attack_pages_leaked == 0

    def test_table_renders(self, rows):
        assert software_defense_cmp.format_table(rows)

    def test_printed_table_is_pinned(self, capsys):
        # The table ``repro e10`` prints, byte for byte (the padded last
        # column included); a refactor of the scenarios must not move
        # one cell.
        software_defense_cmp.main()
        assert capsys.readouterr().out == "\n".join((
            "E10 (extension): software-only AEX-rate defenses vs "
            "Autarky (§4)",
            "scenario                        | defense              "
            "| benign survives | pages leaked | attack detected",
            "--------------------------------+----------------------"
            "+-----------------+--------------+----------------",
            "benign demand paging            | aex-rate (budget 8)  "
            "| False           | 0            | False          ",
            "benign demand paging            | autarky              "
            "| True            | 0            | False          ",
            "paced fault-injection attack    | aex-rate (budget 24) "
            "| True            | 120          | False          ",
            "paced fault-injection attack    | autarky              "
            "| True            | 0            | True           ",
            "A/D-bit monitoring (fault-free) | aex-rate (budget 8)  "
            "| True            | 60           | False          ",
            "A/D-bit monitoring (fault-free) | autarky              "
            "| True            | 0            | True           ",
            "",
        ))
