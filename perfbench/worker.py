"""One benchmark process: one workload in one role.

Roles (``--role``):

* ``setup``: generate the workload's inputs from the seed and run one untimed
  warm-up op; report the time from process start to the end of that op.
* ``measure``: set up the same way, then run ops in a closed loop (one
  caller; the next op starts when the last returns) for ``--seconds``.
* ``trace``: set up, then alternate untraced ops with traced decompositions
  of the op into calls to each module's public functions, and report the
  per-layer metrics.
* ``record``: print the expected stdout digest of the op for a range of seeds.

An op is one in-process ``domtest.cli.main`` call with stdout captured. Every
op's stdout bytes are checked against the expected sha256 digest. The last
line of standard output is a JSON object that ``run.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.special import ndtr, ndtri

from domtest import cli
from domtest.bootstrap import (
    BootstrapConfig,
    bootstrap_odc,
    bootstrap_statistic_modified,
    critical_value,
    draw_weights,
    run_test,
    variance_profile,
)
from domtest.limitdist import BridgePathConfig, limit_quantiles, simulate_bridge_functional
from domtest.odc import Pairing, empirical_odc, rank_profile
from domtest.simulate import (
    CopulaSpec,
    FamilyKind,
    OdcFamily,
    ScenarioSpec,
    generate_dataset,
    rejection_rate,
    replication_streams,
)
from domtest.stats import StatKind, ks_statistic, wmw_statistic

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Uniforms are clamped into the open unit interval so normal quantiles stay finite.
_UNIT_LO = 2.0**-53
_UNIT_HI = 1.0 - 2.0**-53

# Repetitions of the one-off layer timings taken after the traced loop.
PER_DRAW_REPS = 20
CRITICAL_VALUE_REPS = 200
# Traced ops of another workload, for layers the workload's own op never calls.
PROBE_OPS = 3


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> bytes:
    """One op: ``domtest.cli.main(argv)`` in-process, returning its stdout bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"domtest {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue().encode("utf-8")


def _unit(x: np.ndarray) -> np.ndarray:
    return np.clip(x, _UNIT_LO, _UNIT_HI)


def _curve(family: str, gamma: float, v: np.ndarray) -> np.ndarray:
    """The population dominance curve of the family, applied to uniforms."""
    if family == "partial-null":
        return np.where(v < 0.5, ndtr(math.exp(gamma) * ndtri(np.minimum(v, 0.5))), v)
    if family == "normal-alt":
        return ndtr(math.exp(gamma) * ndtri(v))
    raise ValueError(f"no generator for family {family!r}")


def _screen(tracer: Tracer, data, odc, tau: float):
    """The contact-set screen rebuilt from public functions; counts kept cells."""
    with tracer.span("bootstrap.screen"):
        with tracer.span("bootstrap.variance_profile"):
            v = variance_profile(data)
        sqrt_tn = math.sqrt(odc.n1 * odc.n2 / (odc.n1 + odc.n2))
        kept = int(np.count_nonzero(sqrt_tn * (odc.values - odc.grid) >= -tau * np.sqrt(v.v)))
    tracer.counts["bootstrap.kept_cells"] += kept
    tracer.counts["bootstrap.grid_cells"] += odc.n2


def _wmw_layers(tracer: Tracer, data, tau: float) -> None:
    with tracer.span("layers"):
        with tracer.span("odc.empirical_odc"):
            odc = empirical_odc(data)
        with tracer.span("stats.wmw_statistic"):
            wmw_statistic(odc)
        _screen(tracer, data, odc, tau)


def _bootstrap_one_offs(data, config: BootstrapConfig, seed: int) -> dict:
    """Allocation peak of one run_test, the public one-draw path, the critical value."""
    tracemalloc.start()
    try:
        run_test(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rng = np.random.default_rng(seed)
    odc = empirical_odc(data)
    v = variance_profile(data)
    per_draw = []
    for _ in range(PER_DRAW_REPS):
        start = time.perf_counter_ns()
        odc_star = bootstrap_odc(data, draw_weights(data, rng))
        bootstrap_statistic_modified(odc_star, odc, v, config.tau)
        per_draw.append((time.perf_counter_ns() - start) / 1e3)
    draws = rng.random(config.num_reps)
    cv = []
    for _ in range(CRITICAL_VALUE_REPS):
        start = time.perf_counter_ns()
        critical_value(draws, config.alpha)
        cv.append((time.perf_counter_ns() - start) / 1e3)
    return {
        "bootstrap.run_test_alloc_peak_mb": peak / 1e6,
        "bootstrap.per_draw_us": statistics.median(per_draw),
        "bootstrap.critical_value_us": statistics.median(cv),
    }


def _bootstrap_metrics(tracer: Tracer, boot: int, stat_spans: list[str], screened: bool) -> dict:
    """Bootstrap-layer metrics; draws time is derived from the spans around it."""
    run_ms = tracer.median_ms("bootstrap.run_test")
    stat_ms = sum(tracer.median_ms(name) for name in stat_spans)
    screen_ms = tracer.median_ms("bootstrap.screen") if screened else 0.0
    draws_ms = run_ms - stat_ms - screen_ms
    kept, cells = tracer.counts["bootstrap.kept_cells"], tracer.counts["bootstrap.grid_cells"]
    return {
        "bootstrap.run_test_ms": run_ms,
        "bootstrap.variance_profile_ms": tracer.median_ms("bootstrap.variance_profile"),
        "bootstrap.draws_ms": draws_ms,
        "bootstrap.draws_us_per_row": draws_ms * 1e3 / boot,
        "bootstrap.keep_ratio": kept / cells,
        "bootstrap.rows": tracer.counts["bootstrap.rows"],
    }


@dataclass(frozen=True)
class TestWorkload:
    """``domtest test`` on a CSV that the benchmark writes from the seed."""

    n: int
    paired: bool
    family: str
    gamma: float
    rho: float
    stat: str
    boot: int
    tau: float = 0.75
    alpha: float = 0.05

    def sizes(self) -> dict:
        return {"n1": self.n, "n2": self.n, "boot": self.boot, "paired": self.paired}

    def work_per_op(self) -> dict:
        return {"boot_rows": self.boot}

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        rng = np.random.default_rng(seed)
        if self.paired:
            z1, z2 = rng.standard_normal((2, self.n))
            u = ndtr(z1)
            v = ndtr(self.rho * z1 + math.sqrt(1.0 - self.rho**2) * z2)
        else:
            u, v = rng.random(self.n), rng.random(self.n)
        x1 = _unit(u).tolist()
        x2 = _curve(self.family, self.gamma, _unit(v)).tolist()
        if self.paired:
            lines = ["x1,x2"] + [f"{a!r},{b!r}" for a, b in zip(x1, x2)]
        else:
            lines = ["group,value"] + [f"1,{a!r}" for a in x1] + [f"2,{b!r}" for b in x2]
        path = workdir / f"input-{seed}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["test", "--input", str(path), "--alpha", repr(self.alpha), "--tau", repr(self.tau)]
        argv += ["--boot", str(self.boot), "--seed", str(seed), "--stat", self.stat]
        return argv + (["--paired"] if self.paired else [])

    def trace_context(self, seed: int, argv: list[str], expected: bytes | None) -> dict:
        config = BootstrapConfig(
            alpha=self.alpha,
            tau=self.tau,
            num_reps=self.boot,
            seed=seed,
            statistic_kind=StatKind(self.stat),
        )
        return {"path": argv[argv.index("--input") + 1], "config": config, "expected": expected}

    def traced_op(self, tracer: Tracer, ctx: dict) -> bool:
        """parse_csv -> run_test -> emit_report, in ``_cmd_test``'s order."""
        with tracer.span("op"):
            with tracer.span("cli.parse_csv"):
                data = cli.parse_csv(ctx["path"], paired=self.paired)
            with tracer.span("bootstrap.run_test"):
                report = run_test(data, ctx["config"])
            with tracer.span("cli.emit_report"):
                text = cli.emit_report(report, format="json")
        tracer.counts["bootstrap.rows"] += self.boot
        ctx["data"] = data
        if self.stat == "wmw":
            _wmw_layers(tracer, data, self.tau)
        else:
            with tracer.span("layers"):
                with tracer.span("odc.empirical_odc"):
                    odc = empirical_odc(data)
                with tracer.span("odc.rank_profile"):
                    rank_profile(data)
                with tracer.span("stats.ks_statistic"):
                    ks_statistic(data)
                _screen(tracer, data, odc, self.tau)
        return ctx["expected"] is None or text.encode("utf-8") == ctx["expected"]

    def layer_metrics(self, tracer: Tracer) -> dict:
        wmw = self.stat == "wmw"
        stat_spans = ["odc.empirical_odc", "stats.wmw_statistic"] if wmw else ["stats.ks_statistic"]
        out = {
            "cli.parse_csv_ms": tracer.median_ms("cli.parse_csv"),
            "cli.emit_report_ms": tracer.median_ms("cli.emit_report"),
            "odc.empirical_odc_ms": tracer.median_ms("odc.empirical_odc"),
            **_bootstrap_metrics(tracer, self.boot, stat_spans, screened=wmw),
        }
        if wmw:
            out["stats.wmw_statistic_ms"] = tracer.median_ms("stats.wmw_statistic")
        else:
            out["stats.ks_statistic_ms"] = tracer.median_ms("stats.ks_statistic")
            out["odc.rank_profile_ms"] = tracer.median_ms("odc.rank_profile")
        return out

    def one_offs(self, ctx: dict, seed: int) -> dict:
        return _bootstrap_one_offs(ctx["data"], ctx["config"], seed)


@dataclass(frozen=True)
class StudyWorkload:
    """``domtest simulate`` with a fixed number of Monte Carlo replications per op."""

    n: int
    boot: int
    reps: int
    family: str = "power-null"
    gamma: float = 0.0
    tau: float = 1.0
    alpha: float = 0.05

    def sizes(self) -> dict:
        return {"n1": self.n, "n2": self.n, "boot": self.boot, "mc_reps": self.reps}

    def work_per_op(self) -> dict:
        return {"boot_rows": self.boot * self.reps, "mc_reps": self.reps}

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        return [
            "simulate", "--family", self.family, "--gamma", repr(self.gamma),
            "--n", str(self.n), "--boot", str(self.boot), "--tau", repr(self.tau),
            "--alpha", repr(self.alpha), "--reps", str(self.reps), "--seed", str(seed),
        ]  # fmt: skip

    def trace_context(self, seed: int, argv: list[str], expected: bytes | None) -> dict:
        spec = ScenarioSpec(
            family=OdcFamily(kind=FamilyKind(self.family), gamma=self.gamma),
            n1=self.n,
            n2=self.n,
            copula=CopulaSpec(),
            pairing=Pairing.INDEPENDENT,
            mc_reps=self.reps,
            bootstrap=BootstrapConfig(
                alpha=self.alpha, tau=self.tau, num_reps=self.boot, seed=seed
            ),
        )
        ctx = {"spec": spec, "rejections": None, "ok": True}
        if expected is not None:
            result = rejection_rate(spec)
            ctx["rejections"] = result.rejections
            # The replayed spec must be the one the CLI ran: same rate in its CSV row.
            header, row = expected.decode("utf-8").splitlines()
            ctx["ok"] = dict(zip(header.split(","), row.split(",")))["rate"] == repr(result.rate)
        data_rng, _ = replication_streams(spec, 0)
        ctx["data"] = generate_dataset(spec, data_rng)
        return ctx

    def traced_op(self, tracer: Tracer, ctx: dict) -> bool:
        """The replication_streams -> generate_dataset -> run_test loop of rejection_rate."""
        spec = ctx["spec"]
        rejections = 0
        with tracer.span("op"):
            for k in range(spec.mc_reps):
                with tracer.span("simulate.replication"):
                    with tracer.span("simulate.replication_streams"):
                        data_rng, boot_rng = replication_streams(spec, k)
                    with tracer.span("simulate.generate_dataset"):
                        data = generate_dataset(spec, data_rng)
                    with tracer.span("bootstrap.run_test"):
                        report = run_test(data, spec.bootstrap, rng=boot_rng)
                rejections += int(report.reject)
        tracer.counts["bootstrap.rows"] += spec.mc_reps * self.boot
        tracer.counts["simulate.replications"] += spec.mc_reps
        _wmw_layers(tracer, data, self.tau)
        return ctx["rejections"] is None or rejections == ctx["rejections"]

    def layer_metrics(self, tracer: Tracer) -> dict:
        rep_ms = tracer.durations_ms("simulate.replication")
        return {
            "odc.empirical_odc_ms": tracer.median_ms("odc.empirical_odc"),
            "stats.wmw_statistic_ms": tracer.median_ms("stats.wmw_statistic"),
            **_bootstrap_metrics(
                tracer, self.boot, ["odc.empirical_odc", "stats.wmw_statistic"], screened=True
            ),
            "simulate.replication_streams_us": tracer.median_ms("simulate.replication_streams")
            * 1e3,
            "simulate.generate_dataset_us": tracer.median_ms("simulate.generate_dataset") * 1e3,
            "simulate.run_test_share": sum(tracer.durations_ms("bootstrap.run_test"))
            / sum(rep_ms),
            "simulate.replications": tracer.counts["simulate.replications"],
        }

    def one_offs(self, ctx: dict, seed: int) -> dict:
        return _bootstrap_one_offs(ctx["data"], ctx["spec"].bootstrap, seed)


@dataclass(frozen=True)
class NullQuantilesWorkload:
    """``domtest null-quantiles``: simulated Brownian-bridge functional quantiles."""

    paths: int
    grid: int
    levels: tuple = (0.9, 0.95, 0.99)

    def sizes(self) -> dict:
        return {"paths": self.paths, "grid": self.grid}

    def work_per_op(self) -> dict:
        return {"paths": self.paths}

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        levels = ",".join(repr(x) for x in self.levels)
        argv = ["null-quantiles", "--paths", str(self.paths), "--grid", str(self.grid)]
        return argv + ["--levels", levels, "--seed", str(seed)]

    def trace_context(self, seed: int, argv: list[str], expected: bytes | None) -> dict:
        config = BridgePathConfig(num_paths=self.paths, grid_size=self.grid, seed=seed)
        return {"config": config, "expected": expected}

    def traced_op(self, tracer: Tracer, ctx: dict) -> bool:
        with tracer.span("op"):
            with tracer.span("limitdist.simulate_bridge_functional"):
                samples = simulate_bridge_functional(ctx["config"])
            with tracer.span("limitdist.limit_quantiles"):
                values = limit_quantiles(samples, self.levels)
        # The quantile lines in the CLI's format must match the untraced op's bytes.
        text = "".join(f"{lv:g} {val:.6f}\n" for lv, val in zip(self.levels, values))
        return ctx["expected"] is None or text.encode("utf-8") == ctx["expected"]

    def layer_metrics(self, tracer: Tracer) -> dict:
        return {
            "limitdist.simulate_bridge_functional_ms": tracer.median_ms(
                "limitdist.simulate_bridge_functional"
            ),
            "limitdist.limit_quantiles_ms": tracer.median_ms("limitdist.limit_quantiles"),
            # Computed, not measured: the float64 path matrix of one op, (grid + 1) per path.
            "limitdist.bridge_bytes_mb": self.paths * (self.grid + 1) * 8 / 1e6,
        }

    def one_offs(self, ctx: dict, seed: int) -> dict:
        return {}


WORKLOADS = {
    "full": {
        "test-indep-wmw-5k": TestWorkload(
            n=5000, paired=False, family="partial-null", gamma=0.5, rho=0.0, stat="wmw", boot=999
        ),
        "test-paired-ks-2k": TestWorkload(
            n=2000, paired=True, family="normal-alt", gamma=0.0, rho=0.5, stat="ks", boot=999
        ),
        "study-lfc-100": StudyWorkload(n=100, boot=500, reps=50),
        "null-quantiles-20k": NullQuantilesWorkload(paths=20000, grid=1000),
    },
    "smoke": {
        "test-indep-wmw-5k": TestWorkload(
            n=300, paired=False, family="partial-null", gamma=0.5, rho=0.0, stat="wmw", boot=99
        ),
        "test-paired-ks-2k": TestWorkload(
            n=200, paired=True, family="normal-alt", gamma=0.0, rho=0.5, stat="ks", boot=99
        ),
        "study-lfc-100": StudyWorkload(n=50, boot=99, reps=4),
        "null-quantiles-20k": NullQuantilesWorkload(paths=2000, grid=100),
    },
}

SOURCES = {
    "bootstrap.draws_ms": "derived: run_test minus observed statistic and screen",
    "bootstrap.draws_us_per_row": "derived: draws_ms over the rows of one run_test",
    "limitdist.bridge_bytes_mb": "computed from array sizes",
    "bootstrap.run_test_alloc_peak_mb": "one-off: tracemalloc around one run_test",
    "bootstrap.per_draw_us": "one-off: draw_weights + bootstrap_odc + statistic",
    "bootstrap.critical_value_us": "one-off: critical_value on boot uniform draws",
}


class Checker:
    """Runs ops and counts the ones that raise or whose bytes differ from the digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def op(self, argv: list[str], want: str | None) -> tuple[float | None, bytes | None]:
        """Latency in ms and stdout of one op; both None if it failed."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = run_cli(argv)
        except Exception:  # counted as a failed op; the loop must keep running
            self.fail(traceback.format_exc(limit=3))
            return None, None
        latency = (time.perf_counter_ns() - start) / 1e6
        if want is not None and digest(out) != want:
            self.fail(f"{argv[0]} seed {argv[-1]}: stdout digest {digest(out)} != {want}")
            return None, None
        return latency, out


def _set_up(args, workload, checker: Checker) -> tuple:
    """Inputs, checked warm-up op and set-up time; a golden op when the seed has no digest.

    Returns the op's argv, the warm-up stdout, the digest later ops must match,
    the set-up time and where that digest came from.
    """
    table = json.loads(Path(args.expected).read_text(encoding="utf-8"))[args.mode][args.workload]
    want = table.get(str(args.seed))
    workdir = Path(args.workdir)
    argv = workload.prepare(args.seed, workdir)
    _, out = checker.op(argv, want)
    setup_s = time.monotonic() - args.t0
    source = f"committed digest of seed {args.seed}"
    if want is None and args.role != "setup":
        golden = args.seed % len(table)
        golden_dir = workdir / "golden"
        golden_dir.mkdir(exist_ok=True)
        checker.op(workload.prepare(golden, golden_dir), table[str(golden)])
        source = f"warm-up op of seed {args.seed}, plus committed digest of seed {golden}"
    if want is None and out is not None:
        want = digest(out)
    return argv, out, want, setup_s, source


def _measure(args, checker: Checker, argv: list[str], want: str | None) -> dict:
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        latency, _ = checker.op(argv, want)
        if latency is not None:
            latencies.append(latency)
    return {"latencies_ms": latencies, "loop_s": time.perf_counter() - start}


def _trace(args, workload, checker: Checker, argv, out: bytes | None, want: str | None) -> dict:
    ctx = workload.trace_context(args.seed, argv, out)
    if not ctx.get("ok", True):
        checker.fail("replayed scenario does not reproduce the CLI's rejection rate")
    tracer = Tracer()
    untraced = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        latency, _ = checker.op(argv, want)
        if latency is not None:
            untraced.append(latency)
        checker.attempted += 1
        try:
            if not workload.traced_op(tracer, ctx):
                checker.fail(f"traced decomposition of op {tracer.op} disagrees with cli.main")
        except Exception:  # counted as a failed op; the loop must keep running
            checker.fail(traceback.format_exc(limit=3))
        tracer.op += 1

    metrics = {k: v for k, v in workload.layer_metrics(tracer).items() if v is not None}
    metrics.update(workload.one_offs(ctx, args.seed))
    untraced_p50 = statistics.median(untraced)
    traced_p50 = tracer.median_ms("op")
    metrics["trace_overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
    sources = {name: SOURCES.get(name, "op spans and counts") for name in metrics}
    bases = {
        "trace_overhead_pct": {"traced_op_p50_ms": traced_p50, "untraced_op_p50_ms": untraced_p50},
    }
    if "bootstrap.keep_ratio" in metrics:
        bases["bootstrap.keep_ratio"] = {
            "kept_cells": tracer.counts["bootstrap.kept_cells"],
            "base_n2_cells": tracer.counts["bootstrap.grid_cells"],
        }
    if "simulate.run_test_share" in metrics:
        bases["simulate.run_test_share"] = {
            "base_replication_ms": sum(tracer.durations_ms("simulate.replication"))
        }

    # Layers this workload's op never calls are timed on traced ops of the workload
    # that does call them, at the same sizes, so every per-layer metric is measured.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = [m["name"] for m in bench["per_layer"]]
    probe_dir = Path(args.workdir) / "probe"
    probe_dir.mkdir(exist_ok=True)
    for owner, probe in WORKLOADS[args.mode].items():
        missing = [name for name in layer_names if name not in metrics]
        if not missing:
            break
        if owner == args.workload:
            continue
        probe_ctx = probe.trace_context(args.seed, probe.prepare(args.seed, probe_dir), None)
        probe_tracer = Tracer()
        for _ in range(PROBE_OPS):
            probe.traced_op(probe_tracer, probe_ctx)
            probe_tracer.op += 1
        found = {**probe.layer_metrics(probe_tracer), **probe.one_offs(probe_ctx, args.seed)}
        for name in missing:
            if found.get(name) is not None:
                metrics[name] = found[name]
                sources[name] = f"probe: traced ops of {owner}"

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "sources": sources,
        "bases": bases,
        "self_ms": tracer.self_ms_by_name(),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_ops": len(untraced),
        "traced_ops": tracer.op,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True, choices=["setup", "measure", "trace", "record"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=["full", "smoke"], default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--outdir", default=str(ROOT / ".perfbench_out"))
    parser.add_argument("--expected", default=str(ROOT / "perfbench" / "expected.json"))
    parser.add_argument("--t0", type=float, default=None, help="time.monotonic() at spawn")
    parser.add_argument("--count", type=int, default=0, help="seeds to record")
    args = parser.parse_args(argv)
    if args.role != "record" and args.t0 is None:
        parser.error(f"--role {args.role} needs --t0")
    workload = WORKLOADS[args.mode][args.workload]

    if args.role == "record":
        digests = {
            str(seed): digest(run_cli(workload.prepare(seed, Path(args.workdir))))
            for seed in range(args.count)
        }
        print(json.dumps(digests))
        return 0

    checker = Checker()
    argv, out, want, setup_s, source = _set_up(args, workload, checker)
    result = {"role": args.role, "setup_s": setup_s, "expected_source": source}
    if args.role == "measure":
        result.update(_measure(args, checker, argv, want))
    elif args.role == "trace":
        result.update(_trace(args, workload, checker, argv, out, want))
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        errors=checker.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        work_per_op=workload.work_per_op(),
        sizes=workload.sizes(),
        versions={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
