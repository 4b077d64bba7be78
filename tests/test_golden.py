"""Golden reports: sha256 digests of seeded ``run_test`` JSON, two
``simulate`` CSV rows, the ``odc`` command's CSV and ``test --format table``.

Every ``run_test`` digest was recorded before the draw-indexed WMW engine
replaced the count-matrix one, and every ``odc`` digest before ``OdcCurve``
stored its integer counts. The paired ``simulate`` row, the table digests and
the ``--out`` checks were recorded before the CLI declared each output once. A
change to any engine or writer must keep every seeded report byte-identical.
A failure here means some seeded output moved.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from domtest import BootstrapConfig, Pairing, StatKind, TwoSampleData, run_test
from domtest.cli import emit_report, main, parse_report

# name: (statistic, pairing, tau, ties, n1, n2, batch rows or None)
CASES = {
    "wmw-indep-inf": (StatKind.WMW, Pairing.INDEPENDENT, math.inf, False, 60, 60, None),
    "wmw-indep-inf-ties": (StatKind.WMW, Pairing.INDEPENDENT, math.inf, True, 60, 60, None),
    "wmw-indep-0.75": (StatKind.WMW, Pairing.INDEPENDENT, 0.75, False, 60, 60, None),
    "wmw-indep-0.75-ties": (StatKind.WMW, Pairing.INDEPENDENT, 0.75, True, 60, 60, None),
    "wmw-matched-inf": (StatKind.WMW, Pairing.MATCHED, math.inf, False, 50, 50, None),
    "wmw-matched-inf-ties": (StatKind.WMW, Pairing.MATCHED, math.inf, True, 50, 50, None),
    "wmw-matched-0.75": (StatKind.WMW, Pairing.MATCHED, 0.75, False, 50, 50, None),
    "wmw-matched-0.75-ties": (StatKind.WMW, Pairing.MATCHED, 0.75, True, 50, 50, None),
    "ks-indep-inf": (StatKind.KS, Pairing.INDEPENDENT, math.inf, False, 60, 60, None),
    "ks-indep-inf-ties": (StatKind.KS, Pairing.INDEPENDENT, math.inf, True, 60, 60, None),
    "ks-indep-0.75": (StatKind.KS, Pairing.INDEPENDENT, 0.75, False, 60, 60, None),
    "ks-indep-0.75-ties": (StatKind.KS, Pairing.INDEPENDENT, 0.75, True, 60, 60, None),
    "ks-matched-inf": (StatKind.KS, Pairing.MATCHED, math.inf, False, 50, 50, None),
    "ks-matched-inf-ties": (StatKind.KS, Pairing.MATCHED, math.inf, True, 50, 50, None),
    "ks-matched-0.75": (StatKind.KS, Pairing.MATCHED, 0.75, False, 50, 50, None),
    "ks-matched-0.75-ties": (StatKind.KS, Pairing.MATCHED, 0.75, True, 50, 50, None),
    "wmw-n1-is-1": (StatKind.WMW, Pairing.INDEPENDENT, math.inf, False, 1, 40, None),
    "wmw-n2-is-1": (StatKind.WMW, Pairing.INDEPENDENT, math.inf, False, 40, 1, None),
    "wmw-unequal-ties": (StatKind.WMW, Pairing.INDEPENDENT, 0.75, True, 37, 83, None),
    "wmw-several-batches": (StatKind.WMW, Pairing.INDEPENDENT, 0.75, True, 45, 70, 13),
    "ks-matched-several-batches": (StatKind.KS, Pairing.MATCHED, math.inf, True, 45, 45, 13),
}

DIGESTS = {
    "ks-indep-0.75": "d2c48a5a5101397a1670d17e4ebee2a098ef14e7dd7566401572172d5f117c93",
    "ks-indep-0.75-ties": "4ef335b2ce11b29acd063ff5bf90856e8d4e6020bf6e3fc29767ce7205ebf9e3",
    "ks-indep-inf": "eac5b21f51192ad1cd08c3c10053e56b701fd676e8c65d08bdba944b6e18fc8d",
    "ks-indep-inf-ties": "7917415c0e90c07f2a6b6168b03f8b92c655ca3efa40860bcd0ce28f738fd808",
    "ks-matched-0.75": "48010ba39c85cbc36aa984aac9bd97ee87ec4e708b19941fa41db71e49c3541f",
    "ks-matched-0.75-ties": "7870af5731f4c51725b505211f1723bb24ab9400d7b1eae65365b3ce0e275fd8",
    "ks-matched-inf": "6ab85a676ab18276f60a0e5d64aed1bbb07e62f3a4983525f02f82ee565a34d3",
    "ks-matched-inf-ties": "d8d21cc19a050c547efbc898a7be89b317a08f1da2b59d896b7e5b429d9ed05a",
    "ks-matched-several-batches": "8049c8832fccb7f7b6591fddb8947171949054ee01a9fc7bf523086651f37892",
    "wmw-indep-0.75": "a28d89b7d41315c208cc9464d387ef06aeffdc9d055d6e5fe9bfbe9687df091f",
    "wmw-indep-0.75-ties": "9a4acbda3a12765f8648c945e249f02e7bc6e0a15e47dc65cf04ab6d059becb1",
    "wmw-indep-inf": "37cfebd9b922666d15f142d58861225d0b0bdab4b6bada3c60ee8ce31625a003",
    "wmw-indep-inf-ties": "cdca3784de35e894c204089f512e1404810339bac8838102ddcb61ae19134d8d",
    "wmw-matched-0.75": "29523104f2e8314bf18e2db85990d6563d6d5b51b9175d53a87ace8e876b2cab",
    "wmw-matched-0.75-ties": "494e83bc6365c87332a157c0b57b056e2b0b277f178f0ee503d62e9ae4cba558",
    "wmw-matched-inf": "afb03ffbca12028c23ee913d4ce915ae3bd27a1ebfaa66a8a3fa62534a1fbef2",
    "wmw-matched-inf-ties": "4ac300e2b7ae74a0c31df55a677105118c227be28858dc18dc0492cf0a294f47",
    "wmw-n1-is-1": "84eb44b1b80d272142fb517e01a7216f28c7dfd89bb24f1995128084afb71bfd",
    "wmw-n2-is-1": "550f1982cd43806e4b4f8be9eb85e1e6dba907f645269104c16a87d1e88d0fc1",
    "wmw-several-batches": "274abdb43dd0848f78d4ca2b5ddc74e4b84687c7a330a3c8cb8765d3b7dd5a23",
    "wmw-unequal-ties": "930fd1b04b9f7492e2f4c8a9a7c80a67b6bfe72b4f4c6ae58951f85ab8aef65f",
}

SIMULATE_ARGS = [
    "simulate", "--family", "power-null", "--gamma", "0", "--n1", "30", "--n2", "40",
    "--reps", "40", "--boot", "99", "--tau", "0.75", "--seed", "11",
]
SIMULATE_DIGEST = "6df8fffce41866a20060924a30a81335f187b0d267575ba15ccb4a0a96c8da66"

# matched pairs, so the row carries a nonzero rho, and an infinite tau
PAIRED_SIMULATE_ARGS = [
    "simulate", "--family", "partial-null", "--gamma", "0.5", "--n", "20", "--paired",
    "--rho", "0.3", "--tau", "inf", "--stat", "ks", "--reps", "20", "--boot", "49",
    "--seed", "5",
]
PAIRED_SIMULATE_DIGEST = "4f105237e1b9b50a702e17e889cb6750d602dbe6064396975ebd706899acfe4d"

# `test --format table` on the data and seed of these CASES, timestamp line removed
TABLE_DIGESTS = {
    "ks-matched-0.75-ties": "f7397a0ca5fa2e6cdb8c33e67d586fa6419237308c8ef4331e550c7f31f145a7",
    "wmw-indep-inf": "99def401b87f00b8b37c6f9dcc691dcd1ec51db82a8b1c7ac4d0151ad3d2c217",
}

# name: (pairing, ties, n1, n2), drawn like CASES
ODC_CASES = {
    "odc-indep-ties": (Pairing.INDEPENDENT, True, 37, 83),
    "odc-matched-ties": (Pairing.MATCHED, True, 45, 45),
    "odc-n1-is-1": (Pairing.INDEPENDENT, False, 1, 40),
}

ODC_DIGESTS = {
    "odc-indep-ties": "f76dac0106a4f14e057f57fb0d42bc397b39fde3aa1c9150ce174e05acbbc191",
    "odc-matched-ties": "dde640e0ed51b06574a532107e1aa6cea3685d47eae90ffa30baac88a005f07c",
    "odc-n1-is-1": "293ac211bdd0d053a1c3033bf76bfef8fdddfa488ee16a17177cb01843e13e72",
}


def _case_data(name):
    _, pairing, _, ties, n1, n2, _ = CASES[name]
    return _draw(name, pairing, ties, n1, n2)


def _draw(name, pairing, ties, n1, n2):
    rng = np.random.default_rng(list(hashlib.sha256(name.encode()).digest()[:8]))
    if ties:
        x1 = rng.integers(0, 7, n1).astype(float)
        x2 = rng.integers(0, 7, n2).astype(float)
    else:
        x1 = rng.standard_normal(n1)
        x2 = rng.standard_normal(n2) + 0.2
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_test_report_bytes(name, monkeypatch):
    kind, _, tau, _, n1, n2, batch_rows = CASES[name]
    if batch_rows is not None:
        monkeypatch.setattr("domtest.bootstrap._BATCH_ELEMENTS", batch_rows * (n1 + n2))
    config = BootstrapConfig(tau=tau, num_reps=199, seed=20 + len(name), statistic_kind=kind)
    report = run_test(_case_data(name), config)
    text = emit_report(report)
    assert _sha256(text) == DIGESTS[name]
    assert parse_report(text) == report
    assert emit_report(parse_report(text)) == text


def test_simulate_row_bytes(capsys):
    assert main(SIMULATE_ARGS) == 0
    assert _sha256(capsys.readouterr().out) == SIMULATE_DIGEST


def test_paired_simulate_row_bytes(capsys):
    assert main(PAIRED_SIMULATE_ARGS) == 0
    assert _sha256(capsys.readouterr().out) == PAIRED_SIMULATE_DIGEST


def _input_args(data, tmp_path):
    """Write ``data`` as a headerless CSV that reads back exactly; return the
    ``--input`` (and ``--paired``) arguments that name it."""
    if data.pairing is Pairing.MATCHED:
        rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(data.x1, data.x2)]
    else:
        rows = [f"1,{float(a)!r}" for a in data.x1] + [f"2,{float(b)!r}" for b in data.x2]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    return ["--input", str(path)] + (["--paired"] if data.pairing is Pairing.MATCHED else [])


@pytest.mark.parametrize("name", sorted(ODC_CASES))
def test_odc_command_bytes(name, tmp_path, capsys):
    pairing, ties, n1, n2 = ODC_CASES[name]
    data = _draw(name, pairing, ties, n1, n2)
    assert main(["odc"] + _input_args(data, tmp_path)) == 0
    assert _sha256(capsys.readouterr().out) == ODC_DIGESTS[name]


@pytest.mark.parametrize("command", ["simulate", "odc"])
def test_out_file_equals_stdout(command, tmp_path, capsys):
    if command == "simulate":
        argv = PAIRED_SIMULATE_ARGS
    else:
        argv = ["odc"] + _input_args(_draw("odc-matched-ties", Pairing.MATCHED, True, 45, 45), tmp_path)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_report_bytes(name, tmp_path, capsys):
    kind, _, tau, _, _, _, _ = CASES[name]
    argv = ["test"] + _input_args(_case_data(name), tmp_path) + [
        "--tau", str(tau), "--boot", "199", "--seed", str(20 + len(name)),
        "--stat", kind.value, "--format", "table",
    ]
    assert main(argv) == 0
    *lines, stamp = capsys.readouterr().out.splitlines(keepends=True)
    assert re.fullmatch(r"  domtest \S+ at \S+\n", stamp)
    assert _sha256("".join(lines)) == TABLE_DIGESTS[name]
