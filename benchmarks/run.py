"""Seeded end-to-end and per-layer benchmark for ``gbb``.

    python3 benchmarks/run.py --workload swm-enum --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke

Run from anywhere; ``gbb`` is imported from ``src/`` next to this directory.
Each workload is a closed loop, one process and one market at a time:

* ``swm-enum``: one ``gbb solve`` (``gbb.cli.main``, default flags) per
  market on four markets each of N=6 and N=7 with M=2, c=2 and N=4 with
  M=3, c=2 (3 003 to 6 435 partitions).  The partition loop and the SSP
  flow take nearly all the time.
* ``post-large``: group partition, group transfers, fair split, prices and
  ``certify`` on a fixed 2 000-buyer allocation, then the canonical document
  and ``gbb verify`` on it.  SWM does no work; ``check_fair`` dominates.
* ``small-batch``: ``gbb solve`` on 200 small markets (N 1-4, M 1-2, c 1-2).
  The median market reads fixed per-market cost.

The orchestrator writes the seeded instance documents and their reference
answers (``workloads.py``), then starts ``worker.py`` in a child process
with a wall-clock limit.  The worker repeats whole rounds over the markets
until the next round would end past ``--seconds``, and checks every op's
output outside the timed region.  A failed op is a non-zero exit, a failed
certificate or ``verify``, a welfare different from the reference, a
document whose bytes change between ops, an exception or a timeout; an op
the worker never finished counts as failed too.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over five
fresh processes of importing gbb and loading and validating the workload's
instance documents), ``markets_per_s`` (markets that passed every check per
second of op time), ``market_p50_s`` and ``market_p95_s`` over the run's ops
(the sample count is printed; only small-batch has ten or more samples
beyond p95) and ``peak_rss_mb`` of the worker process.  ``fail_ratio`` and
both of its counts head the table.  ``--trace 1`` runs each market
untraced and traced back to back and prints the per-layer metrics: times
and counters per market from spans recorded by ``tracing.py`` (a layer the
workload never calls reads 0), ``swm.jobs2_speedup`` from an untraced
``solve_swm`` at jobs=1 and jobs=2 on the seed's first swm-enum market, and
``trace.overhead``, the traced over the untraced op time.  Every run prints
a table, one JSON line with the run context, failures and the SHA-256 of
every solution document, and as its last line the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  The
# timing bounds are wide because on a shared 2-core machine the same market,
# solved back to back in one process, takes up to 1.6x as long as before.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("markets_per_s", "1/s", "higher", 0.25),
    ("market_p50_s", "s", "lower", 0.25),
    ("market_p95_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)
PER_LAYER = (
    ("swm.solve_swm_s", "s", "lower"),
    ("swm.partitions", "count", "lower"),
    ("swm.us_per_partition", "us", "lower"),
    ("swm.total_price.calls", "count", "lower"),
    ("swm.total_price_s", "s", "lower"),
    ("swm.self_s", "s", "lower"),
    ("swm.flows_per_partition", "ratio", "lower"),
    ("swm.jobs2_speedup", "ratio", "higher"),
    ("flow.min_cost_max_flow.calls", "count", "lower"),
    ("flow.min_cost_max_flow_s", "s", "lower"),
    ("flow.min_cost_max_flow.us_per_call", "us", "lower"),
    ("flow.edges_per_network", "count", "lower"),
    ("flow.max_flow.calls", "count", "lower"),
    ("flow.max_flow_s", "s", "lower"),
    ("model.validate_market_s", "s", "lower"),
    ("model.group_partition_s", "s", "lower"),
    ("model.group_partition.calls_per_market", "count", "lower"),
    ("model.all_surpluses_s", "s", "lower"),
    ("model.all_surpluses.calls_per_market", "count", "lower"),
    ("transfers.solve_group_transfers_s", "s", "lower"),
    ("transfers.fair_buyer_transfers_s", "s", "lower"),
    ("transfers.prices_from_transfers_s", "s", "lower"),
    ("transfers.matrix_entries", "count", "lower"),
    ("transfers.max_denominator_bits", "bits", "lower"),
    ("verify.certify_s", "s", "lower"),
    ("verify.check_stable_s", "s", "lower"),
    ("verify.check_rational_prices_s", "s", "lower"),
    ("verify.check_fair_s", "s", "lower"),
    ("verify.check_p_consistent_s", "s", "lower"),
    ("verify.check_group_condition_s", "s", "lower"),
    ("verify.check_budget_balance_s", "s", "lower"),
    ("documents.load_instance_s", "s", "lower"),
    ("documents.emit_s", "s", "lower"),
    ("documents.load_solution_s", "s", "lower"),
    ("documents.solution_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
WORKLOADS = ("swm-enum", "post-large", "small-batch")

SETUP_PROBES = 4  # extra set-up-only processes; the worker adds one sample
RUN_LIMIT_S = 170  # the whole run, orchestration included


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: str, seed: int, seconds: float, trace: int, plan: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": plan["size"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "markets_per_round": dict(
            Counter("N={},M={},c={}".format(*m["shape"]) for m in plan["markets"])
        ),
        "probe_shape": "N={},M={},c={}".format(*plan["probe"]["shape"]),
    }


def p95(values: list[float]) -> float:
    """95th percentile, interpolated between the closest ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _worker(args: list[str], limit: float) -> tuple[int | None, str]:
    """Run worker.py in its own process group; kill the group at ``limit``."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, limit))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out
    return proc.returncode, out


def read_records(path: str) -> tuple[int, list[dict], dict | None]:
    """(ops begun, finished op records, summary) from the worker's file."""
    begun, ops, summary = 0, [], None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if "begin" in record:
                    begun += 1
                elif "summary" in record:
                    summary = record["summary"]
                else:
                    ops.append(record)
    return begun, ops, summary


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, size: str
) -> dict:
    started = time.perf_counter()
    run_dir = os.path.join(BENCH_DIR, ".runs", f"{workload}-{size}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    import workloads  # imports gbb and scipy; input generation is not timed

    plan = workloads.prepare(workload, seed, size, run_dir)
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    setups, problems = [], []
    for _ in range(SETUP_PROBES):
        rc, out = _worker([plan_path, "--setup-only"], 60)
        if rc == 0:
            setups.append(json.loads(out.splitlines()[-1])["setup_s"])
        else:
            problems.append(f"set-up probe exit {rc}")

    records_path = os.path.join(run_dir, "records.jsonl")
    rc, _ = _worker(
        [
            plan_path,
            "--records", records_path,
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        RUN_LIMIT_S - (time.perf_counter() - started),
    )
    begun, ops, summary = read_records(records_path)
    # An op the worker began but never recorded failed: it hung or crashed.
    unfinished = begun - len(ops)
    if rc != 0 or summary is None:
        problems.append("worker timed out" if rc is None else f"worker exit {rc}")
        unfinished = max(unfinished, 1)
        summary = None
    for op in ops:
        problems.extend(f"{op['key']}: {p}" for p in op["problems"])
    attempted = len(ops) + unfinished
    failed = sum(not op["ok"] for op in ops) + unfinished
    if summary:
        setups.append(summary["setup_s"])
        if trace:
            attempted += 1
            if not summary["probe"]["ok"]:
                failed += 1
                problems.append("probe: jobs=2 welfare differs from jobs=1")

    untraced = [op for op in ops if not op["traced"]]
    times = [op["s"] for op in untraced]
    traced_s = sum(op["s"] for op in ops if op["traced"])
    rate = sum(op["ok"] for op in untraced) / sum(times) if times else 0.0
    if trace:
        values = dict(summary["layers"]) if summary else {}
        if summary:
            values["swm.jobs2_speedup"] = summary["probe"]["speedup"]
        values["trace.overhead"] = traced_s / sum(times) if times else 0.0
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "markets_per_s": rate,
            "market_p50_s": statistics.median(times) if times else 0.0,
            "market_p95_s": p95(times) if times else 0.0,
            "peak_rss_mb": summary["peak_rss_mb"] if summary else 0.0,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    return {
        "context": context(workload, seed, seconds, trace, plan),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "samples": len(times),
        "rounds": summary["rounds"] if summary else 0,
        "setup_samples": setups,
        "machine_probe_s": summary["machine_probe_s"] if summary else None,
        "probe": summary.get("probe") if summary else None,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
        "problems": problems[:50],
        "solution_sha256": {op["key"]: op["sha256"] for op in ops if op["sha256"]},
    }


def print_table(report: dict) -> None:
    ctx = report["context"]
    print(
        f"{ctx['workload']} seed={ctx['seed']} trace={ctx['trace']} "
        f"samples={report['samples']} rounds={report['rounds']} "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"fail_ratio={report['fail_ratio']}"
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")


def smoke() -> int:
    """Tiny instances through every workload in both modes; 0 when all hold."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    listed = {
        "end_to_end": tuple(
            (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
        ),
        "per_layer": tuple(
            (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
        ),
    }
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if listed[key] != ours:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            report = run_workload(workload, 1, 0.5, trace, "smoke")
            print_table(report)
            where = f"{workload} trace={trace}"
            units = {name: m["unit"] for name, m in report["metrics"].items()}
            if units != {m[0]: m[1] for m in expected}:
                problems.append(f"{where}: metrics or units differ")
            if report["failed"] or report["fail_ratio"] != 0:
                problems.append(f"{where}: failures {report['problems']}")
            values = {name: m["value"] for name, m in report["metrics"].items()}
            if trace and workload == "swm-enum":
                parts = (
                    values["flow.min_cost_max_flow_s"]
                    + values["swm.total_price_s"]
                    + values["swm.self_s"]
                )
                if abs(parts - values["swm.solve_swm_s"]) > 1e-9:
                    problems.append(f"{where}: swm spans do not add up")
            if not trace and not all(values[m[0]] > 0 for m in expected):
                problems.append(f"{where}: an end-to-end metric is not positive")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report(s) here as JSON")
    parser.add_argument("--smoke", action="store_true", help="tiny self-check run")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gbb", "__init__.py")):
        print(f"error: no gbb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [
        run_workload(name, args.seed, args.seconds, args.trace, "full")
        for name in names
    ]
    for report in reports:
        print_table(report)
        print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports if len(reports) > 1 else reports[0], fh, indent=1)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['context']['workload']}/{name}": metric
            for r in reports
            for name, metric in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
