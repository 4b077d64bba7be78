"""Benchmark of domtest; run it from the root of a checkout.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in fresh worker processes (``perfbench/worker.py``) with
BLAS and OpenMP held to one thread. With ``--trace 0``, SETUP_PROCESSES
workers each set up once (imports, input generation from the seed, one
warm-up op) and a measuring worker sets up and then runs ops in a closed loop
for ``--seconds``; every end-to-end metric is printed with its unit. With
``--trace 1``, one worker alternates untraced ops with traced decompositions
and the per-layer metrics are printed. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an op raised or its stdout bytes differ from the
expected digest, and 2 when the benchmark itself could not run.
``--workload all`` runs the workloads of BENCHMARK.json and EXTRA_WORKLOADS.

``python3 perfbench/run.py --record-expected`` rewrites
``perfbench/expected.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Fresh processes timed for setup_s besides the measuring one; the median is reported.
SETUP_PROCESSES = {"full": 4, "smoke": 1}
# Runs on request and with --workload all, but is not in BENCHMARK.json: on a shared
# 2-vCPU host its interpreter-bound ops swung by 25-30% between runs, beyond any bound.
EXTRA_WORKLOADS = ["study-lfc-100"]
# Every worker of one workload must end within this many seconds of its start.
DEADLINE_S = 170.0
# Seeds whose stdout digests expected.json holds, per mode.
RECORD_SEEDS = {"full": 64, "smoke": 4}
TAIL_BEYOND = 10
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _spawn(role: str, workload: str, args, workdir: Path, deadline: float, extra=()) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {role} worker")
    env = _worker_env()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", args.mode,
        "--workdir", str(workdir), "--outdir", str(OUT), "--expected", args.expected,
        *extra, "--t0", repr(time.monotonic()),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {role} worker passed the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {role} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns the latency, that percentile and the number of samples beyond it;
    with too few samples it is the maximum, at percentile 100, with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _end_to_end(workers: list[dict]) -> tuple[dict, list[str]]:
    measure = workers[-1]
    latencies = measure["latencies_ms"]
    if not latencies:
        return {}, ["no op succeeded"]
    tail_ms, pct, beyond = tail(latencies)
    rates = {
        f"{unit}_per_s": count * len(latencies) / measure["loop_s"]
        for unit, count in measure["work_per_op"].items()
    }
    primary = next(iter(rates))
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "work_per_s": rates[primary],
        "peak_rss_mb": measure["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(workers)} fresh processes, start to end of warm-up op",
        f"op_p50_ms / op_tail_ms: {len(latencies)} ops; tail at p{pct:.2f} "
        f"with {beyond} samples beyond it",
        f"work_per_s is {primary}",
        *(f"{name} {value!r} 1/s" for name, value in rates.items()),
    ]
    return metrics, notes


def run_workload(name: str, args, bench: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            workers = [_spawn("trace", name, args, workdir, deadline)]
        else:
            workers = [
                _spawn("setup", name, args, workdir, deadline)
                for _ in range(SETUP_PROCESSES[args.mode])
            ]
            workers.append(_spawn("measure", name, args, workdir, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    main = workers[-1]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if args.trace:
        metrics, notes = main["metrics"], []
        specs = bench["per_layer"]
    else:
        metrics, notes = _end_to_end(workers)
        specs = bench["end_to_end"]
    run = {
        "commit": git_commit(),
        **main["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": name,
        "seed": args.seed,
        "sizes": main["sizes"],
        "mode": args.mode,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, one process",
        "worker_env": {var: "1" for var in THREAD_VARS},
        "expected_source": main["expected_source"],
    }
    record = {
        "run": run,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for w in workers for e in w["errors"]],
        "metrics": metrics,
        "notes": notes,
    }
    if not args.trace:
        record["latencies_ms"] = main["latencies_ms"]
    for key in ("sources", "bases", "self_ms", "spans", "spans_file", "untraced_ops", "traced_ops"):
        if key in main:
            record[key] = main[key]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"record-{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"== {name} seed {args.seed}: record in {path.relative_to(ROOT)}")
    print("run " + json.dumps(run))
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    for spec in specs:
        metric = spec["name"]
        if metric not in metrics:
            continue
        line = f"{name} {metric} {metrics[metric]!r} {spec['unit']}"
        if args.trace:
            line += f"  [{main['sources'][metric]}; moves {layer_map[metric]}]"
            if metric in main["bases"]:
                line += f"  base {json.dumps(main['bases'][metric])}"
        print(line)
    print(f"{name} failed_ops {failed / max(attempted, 1)!r} share  ({failed} of {attempted} ops)")
    for note in notes:
        print(f"{name}   {note}")
    for error in record["errors"]:
        print(f"{name} error: {error}", file=sys.stderr)

    missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not missing,
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in specs
            if spec["name"] in metrics
        },
    }


def record_expected(args, names: list[str]) -> None:
    table = {}
    for mode, count in RECORD_SEEDS.items():
        args.mode = mode
        table[mode] = {}
        for name in names:
            workdir = WORK / f"record-{name}-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                table[mode][name] = _spawn(
                    "record", name, args, workdir, time.monotonic() + 600, ["--count", str(count)]
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    path = HERE / "expected.json"
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS
    parser = argparse.ArgumentParser(description="Benchmark of domtest (see module docstring).")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one setup process")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    args.mode = "smoke" if args.smoke else "full"
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "domtest" / "cli.py").is_file():
        print("error: no domtest sources under src/domtest in this checkout", file=sys.stderr)
        return 2

    try:
        if args.record_expected:
            record_expected(args, names)
            return 0
        selected = names if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args, bench) for name in selected}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        metrics = {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        }
    else:
        metrics = results[args.workload]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
