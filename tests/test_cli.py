import hashlib
import json

import pytest

from aoi_shs.cli import ComparisonRow, main
from aoi_shs.shs_core import (
    BALANCE_RESIDUAL_TOL,
    CONDITION_LIMIT,
    CORRELATION_RESIDUAL_TOL,
    average_age,
    model_from_json,
    solve_correlation,
    solve_stationary,
)
from aoi_shs.two_sensor import TwoSensorParams, average_aoi_general

# sha256 of the default sweep-fig3 CSV, produced by the per-point solver
# before grids were solved in batches
FIG3_DEFAULT_SHA256 = "596526c2f8c55376a6963cf2d1737c8d9f5eeef7c8817193776260aac9b05f91"

FIG4_HEADER = ("lambda,theory_two_sensor,sim_two_sensor,ci_two_sensor,"
               "sim_mm11,ci_mm11,sim_mm2p,ci_mm2p")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheory:
    def test_symmetric_closed_form(self, capsys):
        code, out, _ = run(capsys, "theory", "--l1", "1", "--l2", "1",
                           "--m1", "1", "--m2", "1", "--method", "eq17")
        assert code == 0
        assert json.loads(out)["average_aoi"] == 1.609375

    def test_zero_wait(self, capsys):
        code, out, _ = run(capsys, "theory", "--m", "1", "--method", "zero_wait")
        assert code == 0
        assert json.loads(out)["average_aoi"] == 1.25

    def test_general_json_breakdown(self, capsys):
        code, out, _ = run(capsys, "theory", "--l1", "0.5", "--l2", "0.8",
                           "--m1", "1", "--m2", "1.4", "--method", "general")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["stationary"]) == 9
        assert len(doc["correlations"]) == 9
        assert sum(doc["stationary"]) == pytest.approx(1.0, abs=1e-12)
        expected = average_aoi_general(TwoSensorParams(0.5, 0.8, 1.0, 1.4)).average_aoi
        assert doc["average_aoi"] == pytest.approx(expected, rel=1e-15)

    def test_general_json_diagnostics(self, capsys):
        code, out, _ = run(capsys, "theory", "--l1", "0.5", "--l2", "0.8",
                           "--m1", "1", "--m2", "1.4", "--method", "general")
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert 1 <= diagnostics["stationary_condition"] < CONDITION_LIMIT
        assert 1 <= diagnostics["correlation_condition"] < CONDITION_LIMIT
        assert 0 <= diagnostics["stationary_residual"] < BALANCE_RESIDUAL_TOL
        assert 0 <= diagnostics["correlation_residual"] < CORRELATION_RESIDUAL_TOL

    def test_general_csv_breakdown(self, capsys):
        code, out, _ = run(capsys, "theory", "--l1", "0.5", "--l2", "0.8",
                           "--m1", "1", "--m2", "1.4", "--method", "general",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,pi,v_monitor,v_sensor1,v_sensor2,average_aoi"
        assert len(lines) == 10
        pis = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(pis) == pytest.approx(1.0, abs=1e-12)
        aois = {line.split(",")[5] for line in lines[1:]}
        assert len(aois) == 1

    def test_equal_service_requires_equal_rates(self, capsys):
        code, _, err = run(capsys, "theory", "--l1", "1", "--l2", "1",
                           "--m1", "1", "--m2", "2", "--method", "eq16")
        assert code == 2
        assert "--m1 == --m2" in err

    def test_symmetric_requires_equal_arrivals(self, capsys):
        code, _, err = run(capsys, "theory", "--l1", "1", "--l2", "2",
                           "--m", "1", "--method", "eq17")
        assert code == 2
        assert "--l1 == --l2" in err

    @pytest.mark.parametrize("method", ["eq16", "eq17"])
    def test_nan_rate_named_before_equality_checks(self, capsys, method):
        code, _, err = run(capsys, "theory", "--l1", "1", "--l2", "1",
                           "--m", "nan", "--method", method)
        assert code == 2
        assert "--m must be finite, got nan" in err

    def test_missing_rates_usage_error(self, capsys):
        code, _, err = run(capsys, "theory", "--method", "general")
        assert code == 2
        assert "requires" in err

    def test_m_conflicts_with_m1(self, capsys):
        code, _, err = run(capsys, "theory", "--l1", "1", "--l2", "1",
                           "--m", "1", "--m1", "1", "--method", "general")
        assert code == 2
        assert "not both" in err

    def test_negative_rate_usage_error(self, capsys):
        code, _, err = run(capsys, "theory", "--l1", "-1", "--l2", "1",
                           "--m", "1", "--method", "general")
        assert code == 2

    def test_unknown_method_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "theory", "--l1", "1", "--l2", "1", "--m", "1",
                "--method", "bogus")
        assert exc.value.code == 2


class TestSimulate:
    ARGS = ("simulate", "--model", "two_sensor", "--l1", "0.5", "--l2", "0.5",
            "--m", "1", "--horizon", "800", "--trials", "3", "--seed", "42")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["seed"] == 42
        assert len(doc["trial_values"]) == 3
        assert doc["events_processed"] > 0
        assert doc["mean_aoi"] > 0

    def test_byte_identical_rerun(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main([*self.ARGS, "--out", str(first)]) == 0
        assert main([*self.ARGS, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("model,l1,l2,m1,m2,horizon,trials,seed,warmup,")
        assert len(lines) == 2
        assert lines[1].startswith("two_sensor,")

    def test_single_queue_model(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "mm11", "--l1", "1",
                           "--m", "1", "--horizon", "500", "--trials", "2")
        assert code == 0
        assert json.loads(out)["model"] == "mm11"

    def test_invalid_model_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "simulate", "--model", "mm3", "--l1", "1", "--m", "1")
        assert exc.value.code == 2

    def test_missing_rate_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", "mm11", "--m", "1")
        assert code == 2
        assert "--l1" in err

    def test_bad_config_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--model", "mm11", "--l1", "1",
                         "--m", "1", "--warmup", "1.5")
        assert code == 2

    def test_trace_dir(self, capsys, tmp_path):
        trace = tmp_path / "traces"
        code, _, _ = run(capsys, "simulate", "--model", "mm2p", "--l1", "2",
                         "--m", "1", "--horizon", "200", "--trials", "2",
                         "--trace-dir", str(trace))
        assert code == 0
        assert sorted(p.name for p in trace.glob("*.csv")) == [
            "trial_000.csv", "trial_001.csv"]


class TestSweep:
    def test_default_grid_is_81_rows_with_corner_minimum(self, capsys):
        code, out, _ = run(capsys, "sweep-fig3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda1,lambda2,mu1,mu2,theory_aoi,sim_mean,sim_ci95"
        assert len(lines) == 82
        rows = [line.split(",") for line in lines[1:]]
        theory = [float(r[4]) for r in rows]
        corner = [r for r in rows if r[0] == "0.9" and r[3] == "1.8"]
        assert len(corner) == 1
        assert float(corner[0][4]) == min(theory)
        assert all(r[5] == "" and r[6] == "" for r in rows)

    def test_custom_grid_with_simulation(self, capsys):
        code, out, _ = run(capsys, "sweep-fig3", "--grid-l1", "0.3", "0.5", "2",
                           "--grid-m2", "1", "1.2", "2", "--simulate",
                           "--horizon", "400", "--trials", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[5]) > 0
            assert float(cells[6]) >= 0

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "sweep-fig3", "--grid-l1", "0.3", "0.3", "1",
                           "--grid-m2", "1", "1", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["lambda1"] == 0.3
        assert rows[0]["sim_mean"] is None

    def test_default_csv_is_pinned(self, capsys):
        code, out, _ = run(capsys, "sweep-fig3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == FIG3_DEFAULT_SHA256

    def test_zero_count_grid_rejected(self, capsys):
        code, _, err = run(capsys, "sweep-fig3", "--grid-l1", "0.3", "0.5", "0")
        assert code == 2
        assert "count" in err

    @pytest.mark.parametrize("argv", [
        ("sweep-fig3", "--grid-l1", "0.1", "0.9", "2.5"),
        ("sweep-fig3", "--grid-m2", "1", "1.8", "nan"),
        ("compare-fig4", "--grid-lambda", "0.2", "5", "1.5"),
    ])
    def test_non_integer_count_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{argv[1]}: grid count must be an integer" in err


class TestCompare:
    def test_pinned_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "compare-fig4", "--grid-lambda", "0.5", "2", "3",
                           "--horizon", "400", "--trials", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == FIG4_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")]
            assert len(cells) == 8
            assert all(x >= 0 for x in cells)

    def test_json_keys_match_csv_columns(self, capsys):
        code, out, _ = run(capsys, "compare-fig4", "--grid-lambda", "1", "1", "1",
                           "--horizon", "300", "--trials", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert list(rows[0].keys()) == FIG4_HEADER.split(",")

    def test_theory_column_uses_per_sensor_half_rate(self, capsys):
        code, out, _ = run(capsys, "compare-fig4", "--grid-lambda", "1", "1", "1",
                           "--horizon", "300", "--trials", "2", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["theory_two_sensor"] == pytest.approx(677 / 324, rel=1e-14)

    def test_comparison_row_relative_gap(self):
        row = ComparisonRow(1.0, 2.0, 2.1, 0.01, 2.5, 0.01, 1.8, 0.01)
        assert row.relative_gap == pytest.approx(0.05)
        no_theory = ComparisonRow(1.0, None, 2.1, 0.01, 2.5, 0.01, 1.8, 0.01)
        assert no_theory.relative_gap is None


class TestExportModel:
    def test_round_trip_into_solver(self, capsys, tmp_path):
        out_path = tmp_path / "chain.json"
        code = main(["export-model", "--l1", "0.4", "--l2", "1.1",
                     "--m1", "0.9", "--m2", "1.6", "--out", str(out_path)])
        assert code == 0
        model = model_from_json(out_path.read_text())
        assert model.num_states == 9
        assert len(model.transitions) == 18
        recovered = average_age(solve_correlation(model, solve_stationary(model)))
        expected = average_aoi_general(TwoSensorParams(0.4, 1.1, 0.9, 1.6)).average_aoi
        assert recovered == pytest.approx(expected, rel=1e-13)


class TestExitCodes:
    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, _, err = run(capsys, "theory", "--m", "1", "--method", "zero_wait",
                           "--out", str(target))
        assert code == 1
        assert err

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
