import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import domtest
from domtest import Pairing, StatKind
from domtest.cli import emit_report, main, parse_csv, parse_report
from domtest import BootstrapConfig, TwoSampleData, run_test


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseCsv:
    def test_unpaired_rows(self):
        data = parse_csv(io.StringIO("group,value\n1,0.2\n2,0.9\n"), paired=False)
        assert list(data.x1) == [0.2]
        assert list(data.x2) == [0.9]
        assert data.pairing is Pairing.INDEPENDENT

    def test_paired_rows(self):
        data = parse_csv(io.StringIO("x1,x2\n1,3\n2,4\n"), paired=True)
        assert list(data.x1) == [1.0, 2.0]
        assert list(data.x2) == [3.0, 4.0]
        assert data.pairing is Pairing.MATCHED

    def test_missing_cell_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_csv(io.StringIO("x1,x2\n1,\n2,4\n"), paired=True)

    def test_bad_group_label(self):
        with pytest.raises(ValueError, match="group"):
            parse_csv(io.StringIO("group,value\n3,0.5\n"), paired=False)

    def test_unparseable_value_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_csv(io.StringIO("group,value\n1,0.5\n2,oops\n"), paired=False)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            parse_csv(io.StringIO("group,value\n1,0.5\n1,0.7\n"), paired=False)

    def test_headerless_input(self):
        data = parse_csv(io.StringIO("1,0.5\n2,0.7\n"), paired=False)
        assert list(data.x1) == [0.5]
        assert list(data.x2) == [0.7]

    def test_blank_lines_skipped(self):
        data = parse_csv(io.StringIO("x1,x2\n1,3\n\n2,4\n"), paired=True)
        assert data.n1 == 2

    def test_reads_from_path(self, tmp_path):
        path = _write(tmp_path, "d.csv", "group,value\n1,1.0\n2,2.0\n")
        data = parse_csv(path, paired=False)
        assert data.n1 == data.n2 == 1


class TestReportSerialization:
    def _report(self, **kwargs):
        data = TwoSampleData(x1=[1.0, 2.0], x2=[0.5, 3.0])
        config = BootstrapConfig(num_reps=99, seed=4, **kwargs)
        return run_test(data, config)

    def test_json_contains_reject_flag(self):
        text = emit_report(self._report(), format="json")
        assert '"reject": false' in text

    def test_round_trip(self):
        for kwargs in ({}, {"tau": math.inf}, {"statistic_kind": StatKind.KS}):
            report = self._report(**kwargs)
            assert parse_report(emit_report(report, format="json")) == report

    def test_json_is_strict(self):
        report = self._report(tau=math.inf)
        doc = json.loads(emit_report(report, format="json"))
        assert doc["tau"] == "inf"
        assert doc["num_bootstrap"] == 99

    def test_table_contains_decision(self):
        text = emit_report(self._report(), format="table")
        assert "FAIL TO REJECT H0" in text or "REJECT H0" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self._report(), format="yaml")


class TestMain:
    def test_test_subcommand_dominated(self, tmp_path, capsys):
        path = _write(tmp_path, "dom.csv", "group,value\n1,3\n1,4\n2,1\n2,2\n")
        code = main(["test", "--input", path, "--seed", "7", "--boot", "99"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["statistic"] == 0.0
        assert doc["reject"] is False
        assert doc["ties_detected"] is False

    def test_json_byte_identical_across_runs(self, tmp_path, capsys):
        path = _write(tmp_path, "d.csv", "group,value\n1,0.4\n1,0.9\n2,0.5\n2,0.7\n")
        argv = ["test", "--input", path, "--seed", "3", "--boot", "199", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_tau_inf_equals_huge_tau_on_diagonal_data(self, tmp_path, capsys):
        path = _write(tmp_path, "diag.csv", "group,value\n1,1\n1,3\n2,2\n2,4\n")
        argv = ["test", "--input", path, "--seed", "5", "--boot", "99"]
        assert main(argv + ["--tau", "inf"]) == 0
        with_inf = json.loads(capsys.readouterr().out)
        assert main(argv + ["--tau", "1e18"]) == 0
        with_huge = json.loads(capsys.readouterr().out)
        assert with_inf["statistic"] == with_huge["statistic"]
        assert with_inf["critical_value"] == with_huge["critical_value"]

    def test_paired_flag(self, tmp_path, capsys):
        path = _write(tmp_path, "p.csv", "x1,x2\n0.1,0.2\n0.5,0.4\n0.9,0.8\n")
        assert main(["test", "--input", path, "--paired", "--boot", "49"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pairing"] == "matched"
        assert doc["n1"] == 3

    def test_odc_subcommand(self, tmp_path, capsys):
        path = _write(tmp_path, "d.csv", "group,value\n1,1\n1,3\n2,2\n2,4\n")
        assert main(["odc", "--input", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "u,R_hat"
        assert lines[1] == "0.5,0.5"
        assert lines[2] == "1.0,1.0"

    def test_odc_out_file(self, tmp_path):
        path = _write(tmp_path, "d.csv", "group,value\n1,1\n2,2\n")
        out = tmp_path / "curve.csv"
        assert main(["odc", "--input", path, "--out", str(out)]) == 0
        assert out.read_text().startswith("u,R_hat")

    def test_null_quantiles_small(self, capsys):
        code = main(
            ["null-quantiles", "--paths", "4000", "--grid", "200", "--seed", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split()[1]) for line in lines]
        assert len(values) == 3
        assert abs(values[0] - 0.39) < 0.05
        assert abs(values[1] - 0.48) < 0.05
        assert abs(values[2] - 0.68) < 0.07

    def test_simulate_subcommand(self, tmp_path, capsys):
        argv = [
            "simulate",
            "--family",
            "power-null",
            "--gamma",
            "0",
            "--n",
            "15",
            "--reps",
            "20",
            "--boot",
            "29",
            "--seed",
            "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("family,gamma")
        cells = out[1].split(",")
        rate = float(cells[-2])
        assert 0.0 <= rate <= 1.0

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["test", "--nope"]) == 2

    def test_missing_file_exits_3(self, capsys):
        assert main(["test", "--input", "/nonexistent/file.csv"]) == 3

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "d.csv", "group,value\n1,1\n2,2\n")
        assert main(["test", "--input", path, "--alpha", "0.7"]) == 2

    def test_malformed_data_exits_3(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.csv", "x1,x2\n1,\n")
        assert main(["test", "--input", path, "--paired"]) == 3

    def test_simulate_needs_sizes(self, capsys):
        assert main(["simulate", "--family", "power-null"]) == 2

    @pytest.mark.parametrize("extra", [["--n1", "5"], ["--n2", "7"], ["--n1", "5", "--n2", "7"]])
    def test_simulate_n_with_n1_n2_exits_2(self, capsys, extra):
        argv = ["simulate", "--family", "power-null", "--n", "10", "--reps", "2", "--boot", "9"]
        assert main(argv + extra) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["normal-alt", "partial-null"])
    def test_simulate_gamma_past_exp_range_exits_2(self, capsys, family):
        argv = ["simulate", "--family", family, "--gamma", "800", "--n", "5", "--reps", "2"]
        assert main(argv + ["--boot", "5"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["3", "2000"])
    def test_simulate_power_alt_gamma_above_one_exits_2(self, capsys, gamma):
        argv = ["simulate", "--family", "power-alt", "--gamma", gamma, "--n", "5", "--reps", "2"]
        assert main(argv + ["--boot", "5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_null_quantiles_negative_seed_exits_2(self, capsys):
        argv = ["null-quantiles", "--paths", "10", "--grid", "10", "--seed", "-1"]
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["1.0", "0", "-0.1", "nan", "nan,0.95"])
    def test_null_quantiles_bad_levels_exit_2_before_simulating(
        self, monkeypatch, capsys, levels
    ):
        def fail(config):
            raise AssertionError("levels must be checked before any path is simulated")

        monkeypatch.setattr("domtest.cli.simulate_bridge_functional", fail)
        argv = ["null-quantiles", "--paths", "10", "--grid", "10", "--levels", levels]
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # `domtest test` and `null-quantiles` never need scipy; only the
    # simulation code imports it, when it runs.
    src = os.path.dirname(os.path.dirname(domtest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, domtest.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
