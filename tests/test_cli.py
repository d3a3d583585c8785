import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_by_cells
from test_des_sim import TRACE_PINS

import aoi_shs
from aoi_shs import des_sim
from aoi_shs.cli import _FIG3_HEADER, MAX_GRID_POINTS, _csv, _grids, _table, main
from aoi_shs.shs_core import (
    BALANCE_RESIDUAL_TOL,
    CONDITION_LIMIT,
    CORRELATION_RESIDUAL_TOL,
    average_age,
    model_from_json,
    solve_correlation,
    solve_stationary,
)
from aoi_shs.two_sensor import TwoSensorParams, average_aoi_general, average_aoi_grid

FIG4_HEADER = ("lambda,theory_two_sensor,sim_two_sensor,ci_two_sensor,"
               "sim_mm11,ci_mm11,sim_mm2p,ci_mm2p")

SIM_SHORT = ("--horizon", "300", "--trials", "2")
# the benchmark's protocol (perfbench/worker.py), at one fixed seed
SIM_FULL = ("--horizon", "2e5", "--trials", "10", "--warmup", "0.01", "--seed", "101")

# a rate log-uniform in [0.05, 20], and a START STOP COUNT grid of such rates
RATES = st.floats(math.log(0.05), math.log(20.0)).map(math.exp)
GRID_SPECS = st.tuples(RATES, RATES, st.integers(1, 30))

# each pinned command: its argv and the sha256 of its stdout. TestPinnedOutputs
# runs every one through main; CI runs every one through the installed
# aoi-shs script
PINNED_OUTPUTS = [
    pytest.param(("theory", "--l1", "0.5", "--l2", "0.8", "--m1", "1", "--m2", "1.4",
                  "--method", "general", "--format", "csv"),
                 "ef3fd24f7f1de9a2b46564ee9c859fb82bb4aaa3d0b92c5b9c11bbbf2a05545c",
                 id="theory-general-csv"),
    pytest.param(("theory", "--l1", "0.5", "--l2", "0.8", "--m1", "1", "--m2", "1.4",
                  "--method", "general"),
                 "24b53b68dfa368d7a263f7f15554df7db9264b39d45ecfc76e98a2d26662c791",
                 id="theory-general-json"),
    pytest.param(("theory", "--l1", "0.5", "--l2", "0.8", "--m", "1.2", "--method", "eq16"),
                 "dfa74edc5a69f8d7e30b25f4aa539a0ead3479466d2f9c06bed2808521b5daed",
                 id="theory-eq16"),
    pytest.param(("theory", "--l1", "0.7", "--l2", "0.7", "--m1", "1.1", "--m2", "1.1",
                  "--method", "eq17"),
                 "fea18c477df8f1190231672e05d1977eef37ace03bde940fe146fc88c4a30b95",
                 id="theory-eq17"),
    pytest.param(("theory", "--l1", "1", "--l2", "1", "--m", "1", "--method", "eq17",
                  "--format", "csv"),
                 "fd49b27d25bf77b3215947ca1104e8a6349112227639bd85cb7c1b4c9d8f2b0d",
                 id="theory-eq17-csv"),
    pytest.param(("theory", "--method", "zero_wait", "--m", "1"),
                 "415475a8193954ff3e62791d899e6fe96585d418e3495531591d563782161366",
                 id="theory-zero-wait-m"),
    pytest.param(("theory", "--method", "zero_wait", "--m1", "2"),
                 "0781fcb29c065b16c6915bad45c2b6fe6a87b8434873b0665ccc598c6d9b3fda",
                 id="theory-zero-wait-m1"),
    pytest.param(("simulate", "--model", "two_sensor", "--l1", "0.5", "--l2", "0.8",
                  "--m1", "1", "--m2", "1.4", *SIM_SHORT, "--format", "csv"),
                 "9a01ef5fdced49eb8ed3b65bb666b682620c608640fbc1a7dde895644e28fc6b",
                 id="simulate-two_sensor-csv"),
    pytest.param(("simulate", "--model", "two_sensor", "--l1", "0.5", "--l2", "0.8",
                  "--m1", "1", "--m2", "1.4", *SIM_SHORT, "--format", "json"),
                 "14c13fc78f3e408e727df33e050d869300b2a7d91d481bb06c0dfcdf396aefc8",
                 id="simulate-two_sensor-json"),
    pytest.param(("simulate", "--model", "mm11", "--l1", "1", "--m", "1", *SIM_SHORT,
                  "--format", "csv"),
                 "9c64efdc652523b521af82a6596b970a2183bf6e1745163166d80658f99bbd4d",
                 id="simulate-mm11-csv"),
    pytest.param(("simulate", "--model", "mm11", "--l1", "1", "--m", "1", *SIM_SHORT,
                  "--format", "json"),
                 "541d1fc31f7566c56a20f3b257e9af344246070f09290efce36d0a5ff5145ce6",
                 id="simulate-mm11-json"),
    pytest.param(("simulate", "--model", "mm2p", "--l1", "2", "--m1", "1.5", *SIM_SHORT,
                  "--format", "csv"),
                 "6ab152504e010d3f1b04044937a844fd39ed4af69efc4ec51bb6d34b3f0e574a",
                 id="simulate-mm2p-csv"),
    pytest.param(("simulate", "--model", "mm2p", "--l1", "2", "--m1", "1.5", *SIM_SHORT,
                  "--format", "json"),
                 "98170d49920f14885d6744460ca7d08ff199358ab6ba567f6e9cac47c0f66f88",
                 id="simulate-mm2p-json"),
    # the three models at total rate 4 and mu 1, the saturated benchmark's
    # load, past several draw blocks
    pytest.param(("simulate", "--model", "two_sensor", "--l1", "2", "--l2", "2", "--m", "1",
                  "--horizon", "2e4", "--trials", "2", "--format", "json"),
                 "131e1c4e7cf1a0c059a1672d72185d9f410ea2897c72db92ce821de8bd7c7e4a",
                 id="simulate-two_sensor-saturated-json"),
    pytest.param(("simulate", "--model", "mm11", "--l1", "4", "--m", "1",
                  "--horizon", "2e4", "--trials", "2", "--format", "json"),
                 "bb138efaacdd4283473228ea46da5ff0afb9a7543757767fff10f77381a40d43",
                 id="simulate-mm11-saturated-json"),
    pytest.param(("simulate", "--model", "mm2p", "--l1", "4", "--m", "1",
                  "--horizon", "2e4", "--trials", "2", "--format", "json"),
                 "26f15ada0dd50804044849d94a075a501d0fdc1049ed7fdf7f85834069134a8c",
                 id="simulate-mm2p-saturated-json"),
    # the benchmark's simulate commands at its full protocol, 49 draw blocks
    # per trial at the pair at lambda 4
    *(pytest.param(("simulate", "--model", *rates.split(), "--m", "1", *SIM_FULL,
                    "--format", "json"), sha256, id=f"simulate-{name}-full-json")
      for name, rates, sha256 in (
          ("two_sensor-light", "two_sensor --l1 0.5 --l2 0.5",
           "d27d5814bfc1a07b7224abda9c0f670c81012a5eec239ac51b3b46bcde134137"),
          ("two_sensor-saturated", "two_sensor --l1 2 --l2 2",
           "8710ecc439f26bf33c64da6b3600df1215d65b4156046087f182fd00dfc0909d"),
          ("mm11-light", "mm11 --l1 1",
           "dc4272dcb27ac51c388ad70962a0af16cfef4a3138c07dc6dbc67ccce9fe0add"),
          ("mm11-saturated", "mm11 --l1 4",
           "3ee19dd6f508c48ccd2c268501d415157f615e2b51e27f5aa2afb29cbf270244"),
          ("mm2p-light", "mm2p --l1 1",
           "0b98d6798de1f46512df7f29b9e1ae3bf03b1a18c5fc52fc5d6faf97d93b7a80"),
          ("mm2p-saturated", "mm2p --l1 4",
           "d0ea574cfeed5936e7ed107e8f6dbb1553d6b53d34dc80b1f17cf6d593ad9240"),
      )),
    pytest.param(("export-model", "--l1", "0.4", "--l2", "1.1", "--m1", "0.9", "--m2", "1.6"),
                 "7dc0fa3daa48950f327dcb465648c83d7825903a64970d8f8524f9de1fee6d7e",
                 id="export-model"),
    pytest.param(("compare-fig4", "--grid-lambda", "0.5", "2", "2", *SIM_SHORT),
                 "f9072741dc31b69da28175b08435037855ddb97b922572b8db0e265100900953",
                 id="compare-fig4"),
    pytest.param(("sweep-fig3",),
                 "e2b22ea1a5067ee6dafac067a764e8a0564f9e020a400cb18ee6cdba804617c0",
                 id="sweep-fig3-default"),
    pytest.param(("sweep-fig3", "--grid-l1", "0.3", "0.7", "2", "--grid-m2", "1", "1.5", "3",
                  "--format", "json"),
                 "c9a05e7b8c88709348289b2ac7c6d4e5ce173612e089e8259c0b5b980b67b107",
                 id="sweep-fig3-json"),
    pytest.param(("sweep-fig3", "--grid-l1", "0.3", "0.5", "2", "--grid-m2", "1", "1.2", "2",
                  "--simulate", *SIM_SHORT),
                 "804318756680063eac0ba7a803f79e00e6ac0daa80293b14995ee698a7a9736e",
                 id="sweep-fig3-simulate-csv"),
    pytest.param(("sweep-fig3", "--l2", "1.5", "--m1", "0.7", "--grid-l1", "0.9", "0.2", "4",
                  "--grid-m2", "1.3", "1.3", "1"),
                 "bc935793e7301ff300d7ae5173e33e418c423f776fcd0843b2f0f6f9198ca506",
                 id="sweep-fig3-reversed-one-point"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m aoi_shs`` in a child process that imports the package from
    the same directory as this process."""
    env = {**os.environ, "PYTHONPATH": str(Path(aoi_shs.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "aoi_shs", *argv], env=env,
                          capture_output=True, text=True)


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
        assert "--m must be strictly positive and finite, got nan" in err

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

    @pytest.mark.parametrize("argv, digests",
                             [pytest.param(*pin, id=name) for name, pin in TRACE_PINS.items()])
    def test_trace_dir(self, capsys, tmp_path, argv, digests):
        code, _, err = run(capsys, *argv, "--trace-dir", str(tmp_path))
        assert code == 0, err
        files = sorted(tmp_path.glob("*.csv"))
        assert [p.name for p in files] == [f"trial_{i:03d}.csv" for i in range(len(digests))]
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in files) == digests

    def test_trace_dir_on_a_file_fails_before_any_trial(self, capsys, tmp_path):
        # the directory is made before the first trial, so no trial runs
        taken = tmp_path / "taken"
        taken.write_text("")
        with mock.patch.object(des_sim, "_rng", wraps=des_sim._rng) as rng:
            code, out, err = run(capsys, "simulate", "--model", "mm11", "--l1", "1", "--m", "1",
                                 *SIM_SHORT, "--trace-dir", str(taken))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert rng.call_count == 0

    def test_single_trial_writes_null_and_empty_cells(self, capsys):
        args = ("simulate", "--model", "mm11", "--l1", "1", "--m", "1",
                "--horizon", "300", "--trials", "1")
        code, out, _ = run(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["stderr"] is None and doc["ci95_halfwidth"] is None
        code, out, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].split(",")[-3:-1] == ["", ""]


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

    @settings(max_examples=80, deadline=None)
    @given(keys=st.lists(st.text(st.characters(blacklist_characters=","), min_size=1),
                         min_size=1, max_size=8, unique=True),
           data=st.data())
    def test_json_table_matches_indented_dumps(self, keys, data):
        cells = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))
        rows = data.draw(st.lists(st.tuples(*[cells] * len(keys)), min_size=1, max_size=6))
        expected = json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
        assert _table("json", ",".join(keys), rows) == expected
        # a non-finite cell has no JSON form, so it raises rather than print
        row = data.draw(st.sampled_from(rows))
        bad = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        at = data.draw(st.integers(0, len(keys) - 1))
        with pytest.raises(ValueError, match="not JSON compliant"):
            _table("json", ",".join(keys), [(*row[:at], bad, *row[at + 1:])])

    @settings(max_examples=60, deadline=None)
    @given(l1_spec=GRID_SPECS, m2_spec=GRID_SPECS, l2=RATES, m1=RATES, simulate=st.booleans())
    def test_csv_matches_row_rendering(self, l1_spec, m2_spec, l2, m1, simulate):
        # the CSV equals the 7-tuple rows of the same points and ages rendered
        # one cell at a time; the simulator is replaced by a function of the point
        def fake_simulate(params, config):
            return SimpleNamespace(mean_aoi=params.lambda1 + params.mu2 / 3,
                                   ci95_halfwidth=params.lambda1 * params.mu2)

        argv = ["sweep-fig3", "--l2", repr(l2), "--m1", repr(m1),
                "--grid-l1", *map(repr, l1_spec), "--grid-m2", *map(repr, m2_spec)]
        out = io.StringIO()
        with mock.patch.object(des_sim, "simulate_two_sensor", fake_simulate), \
                contextlib.redirect_stdout(out):
            assert main(argv + ["--simulate"] * simulate) == 0

        l1s, m2s = _grids((l1_spec, "--grid-l1"), (m2_spec, "--grid-m2"))
        points = [(l1, l2, m1, m2) for l1 in l1s for m2 in m2s]
        ages = average_aoi_grid(np.array(points)).tolist()
        sims = [(None, None)] * len(points)
        if simulate:
            results = [fake_simulate(TwoSensorParams(*point), None) for point in points]
            sims = [(result.mean_aoi, result.ci95_halfwidth) for result in results]
        rows = [(*point, age, *sim) for point, age, sim in zip(points, ages, sims)]
        expected = _csv(_FIG3_HEADER, rows)
        assert expected == csv_by_cells(_FIG3_HEADER, rows)
        # compared as lists of lines, so that a failure names the first row
        # that differs instead of diffing the whole text
        assert out.getvalue().split("\n") == expected.split("\n")

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("sweep-fig3", "--grid-l1", "1", "inf", "3"),
        ("sweep-fig3", "--grid-m2", "nan", "1.8", "2"),
        ("compare-fig4", "--grid-lambda", "0.2", "inf", "2"),
    ])
    def test_non_finite_grid_endpoint_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        end, value = ("START", argv[2]) if argv[2] == "nan" else ("STOP", argv[3])
        assert f"{argv[1]} {end} must be strictly positive and finite, got {value}" in err


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
    @pytest.mark.parametrize("argv, message", [
        pytest.param(("theory", "--l1", "inf", "--l2", "1", "--m", "1"),
                     "--l1 must be strictly positive and finite, got inf", id="theory-l1-inf"),
        pytest.param(("theory", "--l1", "1", "--l2", "1", "--m1", "1", "--m2", "-2"),
                     "--m2 must be strictly positive and finite, got -2.0",
                     id="theory-m2-negative"),
        pytest.param(("simulate", "--model", "mm11", "--l1", "1", "--m", "nan"),
                     "--m must be strictly positive and finite, got nan", id="simulate-m-nan"),
        pytest.param(("simulate", "--model", "two_sensor", "--l1", "1", "--l2", "0",
                      "--m", "1"),
                     "--l2 must be strictly positive and finite, got 0.0", id="simulate-l2-zero"),
        pytest.param(("sweep-fig3", "--l2", "inf"),
                     "--l2 must be strictly positive and finite, got inf", id="sweep-l2-inf"),
        pytest.param(("sweep-fig3", "--m1", "-1"),
                     "--m1 must be strictly positive and finite, got -1.0",
                     id="sweep-m1-negative"),
        pytest.param(("compare-fig4", "--m", "nan"),
                     "--m must be strictly positive and finite, got nan", id="compare-m-nan"),
        pytest.param(("export-model", "--l1", "1", "--l2", "1", "--m1", "inf", "--m2", "1"),
                     "--m1 must be strictly positive and finite, got inf", id="export-m1-inf"),
    ])
    def test_bad_rate_flag_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv, flag, variant", [
        pytest.param(("simulate", "--model", "mm11", "--l1", "1", "--l2", "7",
                      "--m1", "1", "--m2", "5"), "--l2", "mm11", id="simulate-mm11-l2-m2"),
        pytest.param(("simulate", "--model", "mm2p", "--l1", "1", "--m1", "1", "--m2", "2"),
                     "--m2", "mm2p", id="simulate-mm2p-m2"),
        pytest.param(("theory", "--method", "zero_wait", "--l1", "3", "--m", "1"),
                     "--l1", "zero_wait", id="theory-zero-wait-l1"),
        pytest.param(("theory", "--method", "zero_wait", "--m1", "1", "--m2", "1"),
                     "--m2", "zero_wait", id="theory-zero-wait-m2"),
    ])
    def test_unread_rate_flag_rejected(self, capsys, argv, flag, variant):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err
        assert variant in err

    # 500001 = 3 x 166667 is one point above the cap, each flag below it
    @pytest.mark.parametrize("argv, flags", [
        pytest.param(("sweep-fig3", "--grid-l1", "0.1", "0.9", "3",
                      "--grid-m2", "1", "1.8", "166667"),
                     "--grid-l1 x --grid-m2", id="sweep-product"),
        pytest.param(("sweep-fig3", "--grid-l1", "0.1", "0.9", "1e9"),
                     "--grid-l1 x --grid-m2", id="sweep-l1-huge"),
        pytest.param(("compare-fig4", "--grid-lambda", "0.2", "5", "500001"),
                     "--grid-lambda", id="compare"),
    ])
    def test_grid_above_cap_rejected_before_allocating(self, capsys, argv, flags):
        assert MAX_GRID_POINTS == 500_000
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert f"{flags}: " in err and "exceed the cap of 500000" in err
        # one float per point of the grid alone would be 4 MB
        assert peak < 1_000_000

    # results outside the float range: a closed form whose denominator
    # underflows or whose age overflows, and an age integral past float max
    @pytest.mark.parametrize("argv, message", [
        pytest.param(("theory", "--method", "eq17", "--l1", "1e-320", "--l2", "1e-320",
                      "--m", "1e-320"),
                     "rates lam=1e-320, mu=1e-320 lie outside the float range",
                     id="eq17-overflow"),
        pytest.param(("theory", "--method", "zero_wait", "--m", "1e-320"),
                     "rates mu=1e-320 lie outside the float range", id="zero-wait-overflow"),
        pytest.param(("theory", "--method", "eq17", "--l1", "1e300", "--l2", "1e300",
                      "--m", "1e-300"),
                     "rates lam=1e+300, mu=1e-300 lie outside the float range",
                     id="eq17-underflow"),
        pytest.param(("theory", "--method", "eq16", "--l1", "1e-300", "--l2", "1e300",
                      "--m", "1"),
                     "rates lambda1=1e-300, lambda2=1e+300, mu=1.0 lie outside the float range",
                     id="eq16-underflow"),
        pytest.param(("simulate", "--model", "mm11", "--l1", "1e-300", "--m", "1e-300",
                      "--horizon", "1e300", "--trials", "2"),
                     "horizon must be at most 1.3408e+154", id="simulate-horizon"),
    ])
    def test_result_outside_float_range_refused(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert (code, out, caught) == (2, "", [])
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_grid_at_cap_is_built(self):
        (grid,) = _grids(((0.2, 5.0, MAX_GRID_POINTS), "--grid-lambda"))
        assert len(grid) == MAX_GRID_POINTS
        assert (grid[0], grid[-1]) == (0.2, 5.0)

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


class TestSharedParser:
    def test_commands_in_one_process_leave_no_state(self, capsys, tmp_path):
        # main parses every command with one parser built at import
        code, out, _ = run(capsys, "sweep-fig3", "--grid-l1", "0.3", "0.5", "2",
                           "--grid-m2", "1", "1.2", "2", "--simulate",
                           "--horizon", "400", "--trials", "2")
        assert code == 0
        assert all(line.split(",")[5] for line in out.splitlines()[1:])
        assert len(out.splitlines()) == 5

        with pytest.raises(SystemExit) as exc:
            main(["theory", "--l1", "1", "--l2", "1", "--m", "1", "--method", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()

        target = tmp_path / "theory.csv"
        code, out, _ = run(capsys, "theory", "--l1", "1", "--l2", "1", "--m", "1",
                           "--method", "eq17", "--format", "csv", "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text().splitlines()[-1] == "1.0,1.0,1.0,1.0,eq17,1.609375"

        pins = {p.id: p.values for p in PINNED_OUTPUTS}
        for pin in ("sweep-fig3-default", "theory-general-json"):
            argv, sha256 = pins[pin]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestPinnedOutputs:
    @pytest.mark.parametrize("argv, sha256", PINNED_OUTPUTS)
    def test_stdout_is_pinned(self, capsys, argv, sha256):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_module_entry_point_matches_main(self, capsys):
        argv = ("theory", "--l1", "1", "--l2", "1", "--m", "1", "--method", "eq17",
                "--format", "csv")
        _, out, _ = run(capsys, *argv)
        child = run_module(*argv)
        assert child.returncode == 0
        assert child.stdout == out
        assert out.splitlines()[-1] == "1.0,1.0,1.0,1.0,eq17,1.609375"

    def test_module_entry_point_exits_with_main_code(self):
        child = run_module("theory", "--l1", "1", "--l2", "2", "--m", "1",
                           "--method", "eq17", "--format", "csv")
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == \
            "error: method eq17 requires equal arrival rates: --l1 == --l2\n"
