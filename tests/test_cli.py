import ast
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import domtest
from domtest import Pairing, StatKind, cli
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
        with pytest.raises(ValueError, match="^line 3: cannot parse value 'oops'$"):
            parse_csv(io.StringIO("group,value\n1,0.5\n2,oops\n"), paired=False)

    def test_unparseable_pair_names_its_column(self):
        with pytest.raises(ValueError, match="^line 2: cannot parse x2 value 'oops'$"):
            parse_csv(io.StringIO("x1,x2\n1,oops\n"), paired=True)

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

    @pytest.mark.parametrize("first", ["1,oops", "1,"])
    def test_bad_first_row_is_no_header(self, first):
        # a header has no numeric cell, so a half-numeric first row is data
        with pytest.raises(ValueError, match="line 1"):
            parse_csv(io.StringIO(first + "\n1,0.5\n2,0.7\n"), paired=False)

    def test_reads_from_path(self, tmp_path):
        path = _write(tmp_path, "d.csv", "group,value\n1,1.0\n2,2.0\n")
        data = parse_csv(path, paired=False)
        assert data.n1 == data.n2 == 1

    @pytest.mark.parametrize(
        "text, paired, x1, x2",
        [("group,value\n1,0.5\n2,-1\n1,3e2\n", False, [0.5, 300.0], [-1.0]),
         ('"1"," 0.5 "\r\n2,\t7\r\n', False, [0.5], [7.0]),
         ("x1,x2\n0.5, 2\n1_0,-4\n", True, [0.5, 10.0], [2.0, -4.0])],
    )
    def test_clean_bodies_are_read_a_column_at_a_time(self, monkeypatch, text, paired, x1, x2):
        # quoted cells, CRLF and padded values still take the bulk path
        def row_loop(rows, start, paired):
            raise AssertionError("a clean body must not need the row loop")

        monkeypatch.setattr(cli, "_row_columns", row_loop)
        data = parse_csv(io.StringIO(text), paired=paired)
        assert (data.x1.tolist(), data.x2.tolist()) == (x1, x2)


_NUMBERS = st.sampled_from(["0.5", "-3", "2.25e1", "1", "2", "7", "0", "-0.0", "1e-300"])
_CELLS = st.sampled_from(["1", "2", "3", " 1", "1.5", "", "nan", "inf", "1_0", "oops", "1,5"])


@st.composite
def _cell(draw):
    pad = st.sampled_from(["", " ", "\t", "\xa0", "\x1c"])
    text = draw(pad) + draw(_CELLS) + draw(pad)
    return f'"{text}"' if "," in text or draw(st.booleans()) else text


@st.composite
def _csv_file(draw):
    """CSV bytes: mostly clean group,value (or x1,x2) rows, a few rows of
    1 to 3 odd cells or none, an optional header, BOM and CRLF."""
    rows = [[draw(_NUMBERS) for _ in range(2)] for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.lists(_cell(), max_size=3))
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["group,value", "x1,x2", "a,b,c", " g , v "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()


def _parsed(raw, paired):
    """The bytes of both samples that ``parse_csv`` reads from the file
    ``raw``, or the text of the ValueError it raises."""
    source = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    try:
        data = parse_csv(source, paired=paired)
    except ValueError as exc:
        return str(exc)
    return data.x1.tobytes(), data.x2.tobytes()


def _no_bulk(body, paired):
    raise ValueError("row loop only")


@settings(max_examples=400, deadline=None)
@given(raw=_csv_file(), paired=st.booleans())
@example(raw=b"1,0.5\n2,0.7\n", paired=False)
@example(raw=b"\xef\xbb\xbfx1,x2\r\n0.5,nan\r\n", paired=True)
@example(raw=b"1,0.5\n1,0.7\n", paired=False)
@example(raw=b"1,0.5\n\n2,0.7\n", paired=False)
@example(raw=b"1,0.5\n 1,0.7\n2,1\n", paired=False)
@example(raw=b"1,\x1c0.5\n2,0.7\n", paired=False)
@example(raw=b"1,0.5,\n2,0.7\n", paired=True)
def test_bulk_parse_equals_the_row_loop(raw, paired):
    bulk = _parsed(raw, paired)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_bulk_columns", _no_bulk)
        assert _parsed(raw, paired) == bulk


class TestReportSerialization:
    def _report(self, **kwargs):
        data = TwoSampleData(x1=[1.0, 2.0], x2=[0.5, 3.0])
        config = BootstrapConfig(num_reps=99, seed=4, **kwargs)
        return run_test(data, config)

    def test_json_contains_reject_flag(self):
        text = emit_report(self._report(), format="json")
        assert '"reject": false' in text

    def test_round_trip(self):
        for kwargs in ({}, {"tau": math.inf}, {"eta": math.inf}, {"statistic_kind": StatKind.KS}):
            report = self._report(**kwargs)
            assert parse_report(emit_report(report, format="json")) == report

    @pytest.mark.parametrize(
        "key, value",
        [("reject", "false"), ("reject", 0), ("ties_detected", None),
         ("num_bootstrap", 9.7), ("num_bootstrap", 99.0), ("num_bootstrap", True),
         ("n1", "3"), ("seed", False), ("statistic", True), ("statistic", "1.0"),
         ("tau", "Infinity"), ("tau", "-inf"), ("eta", None),
         pytest.param("statistic", 2**1024, id="statistic-past-the-float-range"),
         ("pairing", "paired"), ("statistic_kind", 0)],
    )
    def test_parse_rejects_a_value_of_the_wrong_type(self, key, value):
        # "false" read as True, 9.7 as 9 and "3" as 3
        doc = json.loads(emit_report(self._report(), format="json"))
        doc[key] = value
        with pytest.raises(ValueError):
            parse_report(json.dumps(doc))

    @pytest.mark.parametrize("text", ["5", "null", "true"])
    def test_parse_needs_a_json_object(self, text):
        with pytest.raises(ValueError, match="JSON object"):
            parse_report(text)

    def test_parse_rejects_non_finite_constants(self):
        text = emit_report(self._report(), format="json")
        with pytest.raises(ValueError, match="statistic"):
            parse_report(re.sub(r'"statistic": [^,]*', '"statistic": NaN', text))

    def test_parse_reads_a_float_field_from_a_json_integer(self):
        doc = json.loads(emit_report(self._report(), format="json"))
        doc["statistic"] = 2
        statistic = parse_report(json.dumps(doc)).statistic
        assert statistic == 2.0 and type(statistic) is float

    def test_json_is_strict(self):
        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        report = self._report(tau=math.inf)
        doc = json.loads(emit_report(report, format="json"), parse_constant=reject)
        assert doc["tau"] == "inf"
        assert doc["num_bootstrap"] == 99
        doc = json.loads(emit_report(self._report(eta=math.inf)), parse_constant=reject)
        assert doc["eta"] == "inf"

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

    @pytest.mark.parametrize(
        "text, paired",
        [("1,0.2\n1,0.9\n2,0.4\n2,0.7\n", False),
         ("0.2,0.4\n0.9,0.7\n0.5,0.1\n", True),
         ("group,value\n1,0.2\n1,0.9\n2,0.4\n2,0.7\n", False)],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, text, paired):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
        argv = ["test", "--seed", "4", "--boot", "99"] + (["--paired"] if paired else [])
        reports = []
        for name, content in (("plain.csv", text), ("bom.csv", "\ufeff" + text)):
            assert main(argv + ["--input", _write(tmp_path, name, content)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

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

    def test_bad_first_row_exits_3(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.csv", "1,oops\n1,0.5\n2,0.7\n")
        assert main(["test", "--input", path]) == 3
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "odc"])
    def test_over_long_cell_exits_3(self, tmp_path, capsys, command):
        # a cell past csv.field_size_limit() (131072 characters by default)
        path = _write(tmp_path, "long.csv", "1,0.5\n2," + "x" * 200_000 + "\n")
        assert main([command, "--input", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 2: field larger than field limit")
        assert err.count("\n") == 1

    def test_wmw_on_tied_data_warns_and_keeps_its_report(self, tmp_path, capsys):
        path = _write(tmp_path, "tied.csv", "group,value\n1,1\n1,2\n1,2\n2,1\n2,3\n")
        assert main(["test", "--input", path, "--boot", "99"]) == 0
        out, err = capsys.readouterr()
        # the report's bytes from before the warning
        digest = "a6f19b76c755e954a519191bc08d2783670155659c382b9f0693a45fb5326d9c"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert json.loads(out)["ties_detected"] is True
        assert err.startswith("warning: ") and "--stat ks" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, stat",
        [("group,value\n1,1\n1,2\n1,2\n2,1\n2,3\n", "ks"),
         ("group,value\n1,1\n1,2\n2,1.5\n2,3\n", "wmw")],
    )
    def test_no_tie_warning_for_ks_or_untied_data(self, tmp_path, capsys, text, stat):
        path = _write(tmp_path, "d.csv", text)
        assert main(["test", "--input", path, "--boot", "99", "--stat", stat]) == 0
        assert capsys.readouterr().err == ""

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # one process reuses the cached parser; each call's exit code, stdout
        # and stderr are those of the same call in a fresh interpreter
        path = _write(tmp_path, "d.csv", "group,value\n1,0.4\n1,0.9\n2,0.5\n2,0.5\n")
        calls = [
            ["test", "--input", path, "--boot", "99", "--seed", "2"],
            ["test", "--input", path, "--boot", "many"],
            ["null-quantiles", "--paths", "64", "--grid", "20"],
            ["test", "--input", path, "--boot", "99", "--seed", "2"],
        ]
        together = []
        for argv in calls:
            code = main(argv)
            together.append((code, *capsys.readouterr()))
        alone = []
        for argv in calls:
            run = _fresh(["-m", "domtest.cli", *argv])
            alone.append((run.returncode, run.stdout, run.stderr))
        assert together == alone
        assert [code for code, _, _ in together] == [0, 2, 0, 0]
        assert together[0] == together[3]

    @pytest.mark.parametrize("spelling", ["Inf", "INFINITY", "infinity", " inf "])
    def test_tau_inf_spellings(self, tmp_path, capsys, spelling):
        path = _write(tmp_path, "d.csv", "group,value\n1,1\n2,2\n")
        assert main(["test", "--input", path, "--boot", "9", "--tau", spelling]) == 0
        assert json.loads(capsys.readouterr().out)["tau"] == "inf"

    def test_bad_tau_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "d.csv", "group,value\n1,1\n2,2\n")
        assert main(["test", "--input", path, "--tau", "x"]) == 2
        assert "invalid float value: 'x'" in capsys.readouterr().err

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

    def test_simulate_rho_needs_paired(self, capsys):
        argv = ["simulate", "--family", "power-null", "--n", "10", "--reps", "3", "--boot", "9"]
        assert main(argv + ["--rho", "0.5"]) == 2
        assert "--rho needs --paired" in capsys.readouterr().err
        # --paired alone keeps its Gaussian copula at rho 0
        assert main(argv + ["--paired"]) == 0
        alone = capsys.readouterr().out
        assert main(argv + ["--paired", "--rho", "0"]) == 0
        assert capsys.readouterr().out == alone

    # 10**16 float64 values are 80 PB, past any 47-bit address space, so the
    # allocation fails at once even where memory is overcommitted
    @pytest.mark.parametrize(
        "argv", [["test", "--boot", str(10**16)], ["null-quantiles", "--grid", str(10**16)]]
    )
    def test_input_too_large_to_allocate_exits_3(self, tmp_path, capsys, argv):
        if argv[0] == "test":
            argv = argv + ["--input", _write(tmp_path, "d.csv", "group,value\n1,1\n2,2\n")]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_bare_memory_error_still_says_what_happened(self, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setattr("domtest.cli.simulate_bridge_functional", exhausted)
        assert main(["null-quantiles", "--paths", "10", "--grid", "10"]) == 3
        assert capsys.readouterr() == ("", "error: out of memory\n")

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


def _fresh(args, **kwargs):
    """``python args`` in a fresh interpreter that imports this domtest."""
    src = os.path.dirname(os.path.dirname(domtest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


def _python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this domtest."""
    return _fresh(["-c", code], check=True).stdout.strip()


def test_too_many_null_quantile_paths_exit_3_at_once():
    # 10**16 paths need 80 PB of output, which cannot be allocated, and 4.9e12
    # child seeds, which would fill memory one by one if they came first. The
    # address-space limit bounds the process should they come first again.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    argv = ["-m", "domtest.cli", "null-quantiles", "--paths", str(10**16)]
    out = _fresh(argv, timeout=10, preexec_fn=limit)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.startswith("error: out of memory") and "Traceback" not in out.stderr


def test_cli_import_leaves_scipy_unloaded():
    # `domtest test` and `null-quantiles` never need scipy; only the
    # simulation code imports it, when it runs. Nor does the CLI load
    # concurrent.futures, which would add to every command's start-up.
    code = (
        "import sys, domtest.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
    )
    assert _python(code) == "[]"


def test_a_thread_that_outlives_the_main_thread_gets_the_same_reports(tmp_path, capsys):
    # Once the main thread returns, interpreter shutdown has begun, yet a
    # non-daemon thread still runs: there the bootstrap's draw helper (100 + 100
    # rows at B = 999 take several sub-chunks) and the bridge's second thread
    # (4096 paths are two chunks) must still start and give the same reports.
    rows = "".join(f"{1 + i % 2},{(i * 37) % 101 / 7}\n" for i in range(200))
    commands = [
        ["test", "--input", _write(tmp_path, "d.csv", "group,value\n" + rows), "--boot", "999"],
        ["null-quantiles", "--paths", "4096", "--grid", "50"],
    ]
    expected = []
    for argv in commands:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    code = (
        "import threading\n"
        "from domtest.cli import main\n"
        "def late():\n"
        "    threading.main_thread().join()\n"
        f"    for argv in {commands!r}:\n"
        "        assert main(argv) == 0\n"
        "threading.Thread(target=late).start()\n"
    )
    assert _python(code) == "".join(expected).strip()


def test_every_domtest_name_the_benchmark_imports_resolves():
    # The benchmark's scripts import library names directly; read their
    # imports without running them, so that deleting or renaming such a name
    # fails here and not only when the benchmark runs.
    root = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    imported = [
        (node.module, alias.name)
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "domtest"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        if not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or no such name


def test_each_public_name_declared_once():
    # A module's ``__all__`` is the only list of its public names: the package
    # exports their union, and a name in two modules would silently take the
    # later module's object.
    modules = [domtest.bootstrap, domtest.limitdist, domtest.odc, domtest.simulate, domtest.stats]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert set(names) | {"__version__"} == set(domtest.__all__)
    assert len(domtest.__all__) == 34
    for module in modules:
        for name in module.__all__:
            assert getattr(domtest, name) is getattr(module, name)
    code = (
        "from domtest import *; import domtest; "
        "print(sorted(name for name in domtest.__all__ if name in globals()))"
    )
    assert _python(code) == str(sorted(domtest.__all__))
