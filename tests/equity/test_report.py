"""Scenario schedules, the two-arm equity report, and its CLI surface.

The report's claim — ledger-weighted IAU closes the long-run fairness gap
within the efficiency budget — is only meaningful if both arms replay the
exact same world.  These tests pin the schedule's determinism first, then
the comparison's teeth, then the ``python -m repro equity report`` wiring.
"""

import json

import pytest

from repro.cli import main
from repro.equity import (
    EFFICIENCY_BUDGET_PCT,
    compare_scenario,
    run_scenario,
)
from repro.sim.scenarios import (
    SCENARIOS,
    EquityScenario,
    get_scenario,
    unlucky_worker,
)


class TestScenarioSchedule:
    def test_registry_builders_round_trip(self):
        for name in SCENARIOS:
            scenario = get_scenario(name, rounds=7)
            assert scenario.name == name
            assert scenario.rounds == 7

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="rounds"):
            EquityScenario(name="bad", description="", rounds=0)
        with pytest.raises(ValueError, match="far_workers"):
            EquityScenario(
                name="bad", description="", n_workers=2, far_workers=3
            )
        with pytest.raises(ValueError, match="task_expiry_hours"):
            EquityScenario(name="bad", description="", task_expiry_hours=0.0)

    def test_schedule_is_pure_arithmetic(self):
        """Two instances of the same scenario emit identical schedules."""
        a = get_scenario("churn", rounds=12)
        b = get_scenario("churn", rounds=12)
        for index in range(12):
            assert a.round_tasks(index, 3.5) == b.round_tasks(index, 3.5)
            assert [w.worker_id for w in a.round_workers(index)] == [
                w.worker_id for w in b.round_workers(index)
            ]

    def test_worlds_build_identically(self):
        scenario = unlucky_worker(rounds=4)
        assert (
            scenario.build_world().fingerprint()
            == scenario.build_world().fingerprint()
        )

    def test_bursty_schedule_bursts(self):
        scenario = get_scenario("bursty", rounds=10)
        counts = [scenario.tasks_in_round(i) for i in range(10)]
        assert counts[4] == scenario.burst_size
        assert counts[0] == scenario.tasks_per_round

    def test_churn_joins_workers_on_schedule(self):
        scenario = get_scenario("churn", rounds=20)
        joined = [
            w.worker_id
            for i in range(20)
            for w in scenario.round_workers(i)
        ]
        # One joiner per join_every rounds (4, 8, 12, 16), none at round 0.
        assert joined == ["churn-j4", "churn-j5", "churn-j6", "churn-j7"]
        assert scenario.round_workers(0) == []


class TestRunScenario:
    def test_run_is_deterministic(self):
        scenario = unlucky_worker(rounds=6)
        first = run_scenario(scenario, seed=5)
        second = run_scenario(scenario, seed=5)
        assert first.as_dict() == second.as_dict()

    def test_outcome_accounts_every_worker(self):
        scenario = unlucky_worker(rounds=6)
        outcome = run_scenario(scenario, seed=0)
        assert sorted(outcome.income) == [f"unlucky-w{i}" for i in range(6)]
        assert outcome.rounds == 6
        assert len(outcome.gini_trajectory) == 6
        assert outcome.total_payoff == pytest.approx(
            sum(outcome.income.values())
        )

    def test_observer_arm_reports_metrics_without_equity_mode(self):
        outcome = run_scenario(
            unlucky_worker(rounds=4), equity_mode=False, seed=0
        )
        assert outcome.equity_mode is False
        assert 0.0 <= outcome.rolling_gini <= 1.0
        assert 0.0 < outcome.rolling_jain <= 1.0

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="FGT and IEGT"):
            run_scenario(unlucky_worker(rounds=2), algorithm="GTA")


class TestCompareScenario:
    def test_ledger_mode_closes_the_gap_on_unlucky(self):
        """The headline claim at test scale: fairer within the budget.

        Checked at a short and a longer horizon, each one deterministic.
        """
        for rounds in (16, 28):
            comparison = compare_scenario(unlucky_worker(rounds=rounds), seed=0)
            assert comparison.improved, rounds
            assert (
                comparison.ledger.rolling_gini
                < comparison.per_round.rolling_gini
            ), rounds
            assert comparison.within_budget, rounds
            assert comparison.efficiency_cost_pct <= EFFICIENCY_BUDGET_PCT

    def test_as_dict_and_format_cover_both_arms(self):
        comparison = compare_scenario(unlucky_worker(rounds=4), seed=0)
        data = comparison.as_dict()
        assert data["per_round"]["equity_mode"] is False
        assert data["ledger"]["equity_mode"] is True
        assert data["efficiency_budget_pct"] == EFFICIENCY_BUDGET_PCT
        text = comparison.format()
        assert "per-round arm" in text and "ledger arm" in text


class TestReportCLI:
    def test_json_report_exits_zero_and_improves(self, capsys):
        rc = main(
            [
                "equity", "report",
                "--scenario", "unlucky",
                "--rounds", "12",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["scenario"] for s in payload["scenarios"]] == ["unlucky"]
        assert payload["all_improved"] is True
        assert payload["all_within_budget"] is True

    def test_text_report_writes_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        rc = main(
            [
                "equity", "report",
                "--scenario", "unlucky",
                "--rounds", "6",
                "--output", str(out),
            ]
        )
        assert rc == 0
        assert "scenario unlucky" in capsys.readouterr().out
        # --output always persists the machine-readable JSON payload.
        saved = json.loads(out.read_text())
        assert [s["scenario"] for s in saved["scenarios"]] == ["unlucky"]
