"""One workload run in its own process: set up, run the timed loop, check.

Started by ``run.py`` with the plan it wrote.  Appends one JSON line per op
to the records file (preceded by a ``begin`` line, so that the orchestrator
can count an op the process never finished) and a ``summary`` line at the
end.  With ``--setup-only`` it prints its set-up time and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from tracing import Tracer  # noqa: E402  (imports no gbb module)


OP_LIMIT_S = 60  # wall-clock limit of one op


class OpTimeout(BaseException):
    """An op ran past its wall-clock limit.

    Not an ``Exception``, so no handler inside ``gbb`` can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def machine_probe_s() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of how fast the machine
    ran around the timed loop, recorded as run context and not as a metric."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(200_000):
        table[i & 1023] = table.get(i & 1023, 0) + i * i
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB.

    Linux's ``ru_maxrss`` carries over the peak of the process that spawned
    this one, so the process's own high-water mark (VmHWM) is read instead
    where the kernel provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _quiet(fn, *args):
    """Call ``fn`` with stdout and stderr captured; return (result, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue()


class Workload:
    """Set-up state and the op for one plan."""

    def __init__(self, plan: dict, run_dir: str) -> None:
        # Set-up: import gbb, then load and validate every instance document.
        import gbb.cli
        from gbb import documents, model, swm, transfers, verify

        self.cli, self.documents, self.model = gbb.cli, documents, model
        self.swm, self.transfers, self.verify = swm, transfers, verify
        self.plan = plan
        self.markets = plan["markets"]
        self.loaded = {}
        for m in self.markets:
            market = documents.load_instance(m["instance"])
            report = model.validate_market(market)
            if not report.ok:
                raise ValueError(f"{m['key']}: invalid instance {report.violations}")
            self.loaded[m["key"]] = market
        self.allocations = {
            m["key"]: model.Allocation(
                choice={b: tuple(t) for b, t in m["allocation"].items()}
            )
            for m in self.markets
            if "allocation" in m
        }
        self.solution = {
            m["key"]: os.path.join(run_dir, f"{m['key']}.solution.json")
            for m in self.markets
        }

    def op(self, m: dict):
        """The timed op; returns what ``check`` needs."""
        if self.plan["workload"] == "post-large":
            return self._price_and_certify(m)
        rc, _ = _quiet(
            self.cli.main, ["solve", m["instance"], "--out", self.solution[m["key"]]]
        )
        return rc

    def _price_and_certify(self, m: dict):
        model, transfers, documents = self.model, self.transfers, self.documents
        market = self.loaded[m["key"]]
        alloc = self.allocations[m["key"]]
        gp = model.group_partition(market, alloc)
        gt = transfers.solve_group_transfers(market, alloc)
        matrix = transfers.fair_buyer_transfers(market, alloc, gp, gt)
        prices = transfers.prices_from_transfers(market, alloc, matrix)
        report = self.verify.certify(market, alloc, prices, gt, matrix, gp=gp)
        utilities = {
            b.id: b.valuation(alloc.choice[b.id]) - prices.entries[b.id].market_price
            for b in market.buyers
        }
        bundle = documents.SolutionBundle(
            social_welfare=sum(utilities.values()),
            allocation=alloc,
            prices=prices,
            utilities=utilities,
            surpluses=dict(gp.surplus),
            group_transfers=gt,
            matrix=matrix,
            certificate=report.to_jsonable(),
            metadata={"solver": "fixed-allocation"},
        )
        text = documents.to_canonical_json(documents.solution_to_dict(bundle))
        path = self.solution[m["key"]]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        rc, out = _quiet(self.cli.main, ["verify", m["instance"], path])
        return report.all_passed, rc, out

    def check(self, m: dict, result) -> tuple[list[str], str]:
        """Problems with one op's output, and the document's SHA-256."""
        problems = []
        path = self.solution[m["key"]]
        if self.plan["workload"] == "post-large":
            solve_passed, rc, out = result
            if not solve_passed:
                problems.append("solve-time certificate failed")
            lines = sorted(line for line in out.splitlines() if ":" in line)
            passed = sorted(f"{c}: PASS" for c in self.verify.STANDARD_CHECKS)
            if rc != 0 or lines != passed:
                problems.append(f"verify exit {rc}: {out.strip()[:200]}")
        elif result != 0:
            return [f"solve exit {result}"], ""
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        for name, welfare in m["references"].items():
            if doc["social_welfare"] != welfare:
                problems.append(
                    f"welfare {doc['social_welfare']} != {name} reference {welfare}"
                )
        if not doc["certificate"]["all_passed"]:
            problems.append("document certificate failed")
        if self.plan["workload"] != "post-large":
            rc, out = _quiet(self.cli.main, ["verify", m["instance"], path])
            if rc != 0:
                problems.append(f"verify exit {rc}: {out.strip()[:200]}")
        return problems, hashlib.sha256(raw).hexdigest()


def jobs2_probe(w: Workload) -> dict:
    """Untraced ``solve_swm`` at jobs=1 and jobs=2 on one swm-enum market.

    Solves in the order 1, 2, 2, 1 so that a drift in machine speed during
    the probe weighs on both sides alike.
    """
    market = w.documents.load_instance(w.plan["probe"]["instance"])
    seconds, welfare = {1: 0.0, 2: 0.0}, set()
    for jobs in (1, 2, 2, 1):
        start = time.perf_counter()
        welfare.add(w.swm.solve_swm(market, jobs=jobs).social_welfare)
        seconds[jobs] += time.perf_counter() - start
    return {
        "jobs1_s": seconds[1] / 2,
        "jobs2_s": seconds[2] / 2,
        "speedup": seconds[1] / seconds[2],
        "ok": len(welfare) == 1,
    }


def run(args) -> None:
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    run_dir = os.path.dirname(os.path.abspath(args.plan))

    start = time.perf_counter()
    w = Workload(plan, run_dir)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = Tracer() if args.trace else None
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(args.records, "a", encoding="utf-8") as records:
        before = machine_probe_s()
        summary = timed_loop(w, args, tracer, records)
        summary["machine_probe_s"] = [before, machine_probe_s()]
        if tracer:
            tracer.write(os.path.join(run_dir, "spans.jsonl"))
            summary["layers"] = tracer.layer_metrics(summary["traced_ops"])
            summary["probe"] = jobs2_probe(w)
        summary["setup_s"] = setup_s
        summary["peak_rss_mb"] = peak_rss_mb()
        records.write(json.dumps({"summary": summary}) + "\n")


def timed_loop(w: Workload, args, tracer: Tracer | None, records) -> dict:
    """Whole rounds over the markets until the next would end past the limit.

    A traced run also goes on until both orders of an untraced/traced pair
    have run, so that ``trace.overhead`` never rests on a single pair.
    """
    shas: dict[str, str] = {}
    traced_ops = 0

    def one_op(m, round_no, traced):
        nonlocal traced_ops
        records.write(json.dumps({"begin": m["key"]}) + "\n")
        records.flush()
        if traced:
            traced_ops += 1
            tracer.op = f"{round_no}/{m['key']}"
            tracer.install()
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        began = time.perf_counter()
        try:
            result = w.op(m)
            error = None
        except OpTimeout:
            result, error = None, "timeout"
        except Exception:  # an op that raises is a failed op, not a failed run
            result, error = None, traceback.format_exc(-3)
        finally:
            seconds = time.perf_counter() - began
            signal.setitimer(signal.ITIMER_REAL, 0)
            if traced:
                tracer.uninstall()
        sha = ""
        if error is None:
            try:
                problems, sha = w.check(m, result)
            except Exception:  # a malformed document fails the op, not the run
                problems = [traceback.format_exc(-3)]
            if sha and shas.setdefault(m["key"], sha) != sha:
                problems.append("solution document bytes differ between ops")
        else:
            problems = [error]
        records.write(
            json.dumps(
                {
                    "key": m["key"],
                    "round": round_no,
                    "traced": traced,
                    "s": seconds,
                    "ok": not problems,
                    "problems": problems,
                    "sha256": sha,
                }
            )
            + "\n"
        )
        records.flush()

    loop_start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for i, m in enumerate(w.markets):
            if tracer:
                # Each market runs untraced and traced back to back; the
                # order alternates so neither side always runs first.
                traced_first = (i + rounds) % 2 == 1
                one_op(m, rounds, traced_first)
                one_op(m, rounds, not traced_first)
            else:
                one_op(m, rounds, False)
        rounds += 1
        now = time.perf_counter()
        both_orders = not tracer or traced_ops >= 2
        if both_orders and now - loop_start + (now - round_start) > args.seconds:
            break
    return {"rounds": rounds, "traced_ops": traced_ops}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("plan")
    parser.add_argument("--records")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    run(parser.parse_args())


if __name__ == "__main__":
    main()
