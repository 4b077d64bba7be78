"""Command-line interface: CSV ingestion, report serialization, subcommands.

Exit codes: 0 success, 2 usage error, 3 data error or out of memory (an input
too large to allocate, say). The decision itself is never encoded in the exit
code; it lives in the emitted report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from datetime import datetime, timezone
from enum import Enum
from itertools import chain

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, TestReport, run_test
from .limitdist import BridgePathConfig, limit_quantiles, simulate_bridge_functional
from .odc import Pairing, TwoSampleData, empirical_odc
from .simulate import CopulaKind, CopulaSpec, FamilyKind, OdcFamily, ScenarioSpec, rejection_rate
from .stats import StatKind

__all__ = ["parse_csv", "emit_report", "parse_report", "main"]

# (JSON key, TestReport field, type), in the report's key order; ``_read``
# reads each type.
_REPORT_FIELDS = (
    ("statistic", "statistic", float),
    ("critical_value", "critical_value", float),
    ("p_value", "p_value", float),
    ("reject", "reject", bool),
    ("alpha", "alpha", float),
    ("tau", "tau", float),
    ("num_bootstrap", "num_reps", int),
    ("eta", "eta", float),
    ("seed", "seed", int),
    ("pairing", "pairing", Pairing),
    ("n1", "n1", int),
    ("n2", "n2", int),
    ("ties_detected", "ties_detected", bool),
    ("statistic_kind", "statistic_kind", StatKind),
)


def _plain(value):
    """The value every output writes: an enum as its value, an infinite float
    as the string "inf", anything else as it is."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and math.isinf(value):
        return str(value)
    return value


def _read(key: str, kind: type, value):
    """A report value of type ``kind``: a bool only from a JSON boolean, an int
    only from a JSON integer, a float from a JSON number within the float range
    or from the "inf" that ``_plain`` writes, an enum from its value."""
    if issubclass(kind, Enum):
        return kind(value)
    if kind is float and value == "inf":
        return math.inf
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is not float and type(value) is kind:
        return value
    raise ValueError(f"report key {key!r} must be of type {kind.__name__}, got {value!r}")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _float_cell(text: str, line_no: int, column: str = "") -> float:
    try:
        return float(text)
    except ValueError:
        what = f"{column} value".lstrip()
        raise ValueError(f"line {line_no}: cannot parse {what} {text!r}") from None


def parse_csv(source, paired: bool = False) -> TwoSampleData:
    """Read a two-sample dataset from CSV.

    Unpaired layout: columns ``group,value`` with group 1 or 2. Paired
    layout: columns ``x1,x2``, one pair per row. The first row is a header,
    and skipped, only when none of its cells reads as a number. Errors carry
    the 1-based line number.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return parse_csv(fh, paired=paired)
    reader = csv.reader(source)
    # Rows are streamed into two columns of cells: a list per row, all alive at
    # once, set off full garbage collections. Only a body that the column path
    # rejects is rebuilt as a list of rows, for the row loop.
    first: list[str] = []
    second: list[str] = []
    rest: list = []  # the first row of other than two cells and every row after it
    try:
        head = next(reader, [])
        start = 0 if any(map(_is_number, head)) else 1
        rows = reader if start else chain([head], reader)
        for row in rows:
            try:
                cell1, cell2 = row
            except ValueError:
                rest = [row, *rows]
                break
            first.append(cell1)
            second.append(cell2)
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    try:
        if rest:
            raise ValueError("a row of other than two cells")
        x1, x2 = _bulk_columns((first, second), paired)
    except ValueError:
        x1, x2 = _row_columns([head][:start] + [*zip(first, second), *rest], start, paired)
    pairing = Pairing.MATCHED if paired else Pairing.INDEPENDENT
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


def _bulk_columns(columns: tuple, paired: bool):
    """Both samples from a CSV body's two columns of cells, a column at a
    time, when every group is exactly 1 or 2 and both samples are nonempty.
    Raises ValueError, whose text is never shown, on any other body: ``float``
    reads a padded cell as ``_row_columns`` reads the stripped one, so what
    passes here is read the same by both."""
    first, second = columns
    if not first:
        raise ValueError("no rows")
    values = np.fromiter(map(float, second), np.float64, len(second))
    if paired:
        return np.fromiter(map(float, first), np.float64, len(first)), values
    if not set(first) <= {"1", "2"}:
        raise ValueError("a group other than 1 or 2")
    in1 = np.array(first) == "1"
    if in1.all() or not in1.any():
        raise ValueError("an empty sample")
    return values[in1], values[~in1]


def _row_columns(rows: list, start: int, paired: bool):
    """Both samples from ``rows[start:]``, a row at a time: the one source of
    every CSV data error and its 1-based line number."""
    layout = "x1,x2" if paired else "group,value"
    x1: list[float] = []
    x2: list[float] = []
    for idx in range(start, len(rows)):
        row = [cell.strip() for cell in rows[idx]]
        if not any(row):
            continue
        line_no = idx + 1
        if len(row) != 2 or not all(row):
            raise ValueError(f"line {line_no}: expected two cells {layout}")
        if paired:
            x1.append(_float_cell(row[0], line_no, "x1"))
            x2.append(_float_cell(row[1], line_no, "x2"))
        else:
            group = row[0]
            if group not in ("1", "2"):
                raise ValueError(f"line {line_no}: group must be 1 or 2, got {group!r}")
            value = _float_cell(row[1], line_no)
            (x1 if group == "1" else x2).append(value)
    if not x1 or not x2:
        raise ValueError("each sample needs at least one observation")
    return np.array(x1), np.array(x2)


def emit_report(report: TestReport, format: str = "json") -> str:
    """Serialize a test report as strict JSON or a human-readable table.

    JSON output carries no timestamp so identical runs emit identical bytes;
    an infinite tau or eta is written as the string "inf".
    """
    if format == "json":
        doc = {key: _plain(getattr(report, name)) for key, name, _ in _REPORT_FIELDS}
        doc["version"] = __version__
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if format != "table":
        raise ValueError(f"unknown report format: {format!r}")
    decision = "REJECT H0" if report.reject else "FAIL TO REJECT H0"
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [
        f"dominance test ({report.statistic_kind.value}, {report.pairing.value})",
        f"  n1 = {report.n1}, n2 = {report.n2}, ties = {report.ties_detected}",
        f"  statistic      = {report.statistic:.6g}",
        f"  critical value = {report.critical_value:.6g}  (alpha = {report.alpha:g})",
        f"  p-value        = {report.p_value:.6g}",
        f"  tau = {_plain(report.tau)}, bootstrap reps = {report.num_reps}, "
        f"eta = {report.eta:g}, seed = {report.seed}",
        f"  decision: {decision}",
        f"  domtest {__version__} at {stamp}",
    ]
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> TestReport:
    """Rebuild a TestReport from its JSON serialization."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a report is a JSON object, got {type(doc).__name__}")
    missing = [key for key, _, _ in _REPORT_FIELDS if key not in doc]
    if missing:
        raise ValueError(f"report is missing keys: {missing}")
    return TestReport(**{name: _read(key, kind, doc[key]) for key, name, kind in _REPORT_FIELDS})


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domtest",
        description="Rank-based stochastic dominance tests with bootstrap critical values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run a dominance test on a CSV file")
    p_test.add_argument("--input", required=True, help="CSV file (group,value or x1,x2)")
    p_test.add_argument("--paired", action="store_true", help="treat rows as matched pairs")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--tau", type=float, default=0.75, help="screen width; 'inf' for none")
    p_test.add_argument("--boot", type=int, default=999, help="bootstrap replications")
    p_test.add_argument("--eta", type=float, default=0.0, help="critical value floor")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--stat", choices=["wmw", "ks"], default="wmw")
    p_test.add_argument("--format", choices=["json", "table"], default="json")

    p_sim = sub.add_parser("simulate", help="Monte Carlo rejection rate for a scenario")
    p_sim.add_argument(
        "--family",
        required=True,
        choices=[k.value for k in FamilyKind],
    )
    p_sim.add_argument("--gamma", type=float, default=0.0)
    p_sim.add_argument("--n", type=int, help="common sample size")
    p_sim.add_argument("--n1", type=int)
    p_sim.add_argument("--n2", type=int)
    p_sim.add_argument("--paired", action="store_true")
    p_sim.add_argument("--rho", type=float, help="Gaussian copula correlation (needs --paired)")
    p_sim.add_argument("--reps", type=int, default=5000, help="Monte Carlo replications")
    p_sim.add_argument("--boot", type=int, default=500)
    p_sim.add_argument("--tau", type=float, default=0.75)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--stat", choices=["wmw", "ks"], default="wmw")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="write the CSV row here instead of stdout")

    p_odc = sub.add_parser("odc", help="emit the empirical dominance curve as CSV")
    p_odc.add_argument("--input", required=True)
    p_odc.add_argument("--paired", action="store_true")
    p_odc.add_argument("--out", help="write CSV here instead of stdout")

    p_nq = sub.add_parser("null-quantiles", help="limit-distribution quantiles by simulation")
    p_nq.add_argument("--paths", type=int, default=100000)
    p_nq.add_argument("--grid", type=int, default=1000)
    p_nq.add_argument("--levels", default="0.9,0.95,0.99")
    p_nq.add_argument("--seed", type=int, default=0)

    return parser


def _usage_checked(factory):
    """Turn config-validation failures into usage errors (exit code 2)."""
    try:
        return factory()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bootstrap_config(args, **extra) -> BootstrapConfig:
    return BootstrapConfig(
        alpha=args.alpha,
        tau=args.tau,
        num_reps=args.boot,
        seed=args.seed,
        statistic_kind=StatKind(args.stat),
        **extra,
    )


def _cmd_test(args) -> str:
    config = _usage_checked(lambda: _bootstrap_config(args, eta=args.eta))
    report = run_test(parse_csv(args.input, paired=args.paired), config)
    if report.ties_detected and report.statistic_kind is StatKind.WMW:
        sys.stderr.write(
            "warning: the data have tied values; WMW assumes continuous data and can "
            "reject a true null on ties, where --stat ks does not\n"
        )
    return emit_report(report, format=args.format)


def _cmd_simulate(args) -> str:
    if args.n is not None:
        if args.n1 is not None or args.n2 is not None:
            raise argparse.ArgumentTypeError("give either --n or --n1/--n2, not both")
        n1 = n2 = args.n
    else:
        n1, n2 = args.n1, args.n2
    if n1 is None or n2 is None:
        raise argparse.ArgumentTypeError("give --n, or both --n1 and --n2")
    if args.rho is not None and not args.paired:
        raise argparse.ArgumentTypeError("--rho needs --paired")
    spec = _usage_checked(
        lambda: ScenarioSpec(
            family=OdcFamily(kind=FamilyKind(args.family), gamma=args.gamma),
            n1=n1,
            n2=n2,
            copula=CopulaSpec(kind=CopulaKind.GAUSSIAN, rho=0.0 if args.rho is None else args.rho)
            if args.paired
            else CopulaSpec(kind=CopulaKind.PRODUCT),
            pairing=Pairing.MATCHED if args.paired else Pairing.INDEPENDENT,
            mc_reps=args.reps,
            bootstrap=_bootstrap_config(args),
        )
    )
    result = rejection_rate(spec)
    row = {
        "family": spec.family.kind,
        "gamma": spec.family.gamma,
        "n1": spec.n1,
        "n2": spec.n2,
        "pairing": spec.pairing,
        "rho": spec.copula.rho,
        "alpha": spec.bootstrap.alpha,
        "tau": spec.bootstrap.tau,
        "boot": spec.bootstrap.num_reps,
        "reps": spec.mc_reps,
        "seed": spec.bootstrap.seed,
        "rate": result.rate,
        "std_error": result.std_error,
    }
    return ",".join(row) + "\n" + ",".join(str(_plain(v)) for v in row.values()) + "\n"


def _cmd_odc(args) -> str:
    curve = empirical_odc(parse_csv(args.input, paired=args.paired))
    rows = (f"{float(u)!r},{float(value)!r}\n" for u, value in zip(curve.grid, curve.values))
    return "u,R_hat\n" + "".join(rows)


def _cmd_null_quantiles(args) -> str:
    try:
        levels = [float(part) for part in args.levels.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid levels: {args.levels!r}") from None
    if not levels or not all(0.0 < p < 1.0 for p in levels):
        raise argparse.ArgumentTypeError(f"need quantile levels in (0, 1), got {args.levels!r}")
    config = _usage_checked(
        lambda: BridgePathConfig(num_paths=args.paths, grid_size=args.grid, seed=args.seed)
    )
    values = limit_quantiles(simulate_bridge_functional(config), levels)
    return "".join(f"{level:g} {value:.6f}\n" for level, value in zip(levels, values))


_COMMANDS = {
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "odc": _cmd_odc,
    "null-quantiles": _cmd_null_quantiles,
}


def _write(text: str, out) -> None:
    """Write a command's output to the file ``out`` or, without one, to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        _write(_COMMANDS[args.command](args), getattr(args, "out", None))
    except argparse.ArgumentTypeError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except MemoryError as exc:  # numpy names the size it could not allocate; a bare one is empty
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
