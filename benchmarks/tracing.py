"""Spans around calls into ``gbb``, recorded from the benchmark's side.

``Tracer.install`` replaces module attributes that callers look up at call
time (``gbb.swm.min_cost_max_flow``, ``gbb.cli.solve_swm``, ...) with
wrappers that record one span per call; ``uninstall`` puts the originals
back, so untraced ops run on untouched modules.  Spans stay in memory until
the run ends.  Nothing under ``src/`` knows about them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _edges(args, result):
    return len(args[0].edges)


def _partitions(args, result):
    return result.partitions_evaluated


def _matrix_entries(args, result):
    return len(result.entries)


def _denominator_bits(args, result):
    return max(
        (e.final.denominator.bit_length() for e in result.entries.values()),
        default=0,
    )


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


CHECKS = (
    "stable",
    "rational_prices",
    "fair",
    "p_consistent",
    "group_condition",
    "budget_balance",
)

# (span name, counter taken from a call's arguments and result, the module
# attributes that callers look the function up by).  Every module that
# imported a function by name holds its own reference, so one span name can
# sit behind several attributes; the ``gbb.model``, ``gbb.transfers``,
# ``gbb.verify`` and ``gbb.documents`` ones also cover the calls the
# post-large op makes itself.
TARGETS = (
    ("cli.main", None, ("gbb.cli.main",)),
    ("documents.load_instance", None, ("gbb.cli.load_instance",)),
    ("documents.load_solution", None, ("gbb.cli.load_solution",)),
    (
        "documents.solution_to_dict",
        None,
        ("gbb.cli.solution_to_dict", "gbb.documents.solution_to_dict"),
    ),
    (
        "documents.to_canonical_json",
        _text_bytes,
        ("gbb.cli.to_canonical_json", "gbb.documents.to_canonical_json"),
    ),
    ("model.validate_market", None, ("gbb.cli.validate_market",)),
    (
        "model.group_partition",
        None,
        (
            "gbb.cli.group_partition",
            "gbb.model.group_partition",
            "gbb.transfers.group_partition",
            "gbb.verify.group_partition",
        ),
    ),
    (
        "model.all_surpluses",
        None,
        ("gbb.model.all_surpluses", "gbb.verify.all_surpluses"),
    ),
    ("swm.solve_swm", _partitions, ("gbb.cli.solve_swm",)),
    ("swm.total_price", None, ("gbb.swm.total_price",)),
    ("flow.min_cost_max_flow", _edges, ("gbb.swm.min_cost_max_flow",)),
    ("flow.max_flow", None, ("gbb.transfers.max_flow",)),
    (
        "transfers.solve_group_transfers",
        None,
        ("gbb.cli.solve_group_transfers", "gbb.transfers.solve_group_transfers"),
    ),
    (
        "transfers.fair_buyer_transfers",
        _matrix_entries,
        ("gbb.cli.fair_buyer_transfers", "gbb.transfers.fair_buyer_transfers"),
    ),
    (
        "transfers.prices_from_transfers",
        _denominator_bits,
        ("gbb.cli.prices_from_transfers", "gbb.transfers.prices_from_transfers"),
    ),
    ("verify.certify", None, ("gbb.cli.certify", "gbb.verify.certify")),
) + tuple(
    (f"verify.check_{check}", None, (f"gbb.verify.check_{check}",)) for check in CHECKS
)


class Tracer:
    """Records (name, start, end, parent index, op id, counter) per call."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = count(args, result) if count and result is not None else None
                spans[index] = (name, start, end, parent, self.op, value)

        return traced

    def install(self) -> None:
        for name, count, attributes in TARGETS:
            for dotted in attributes:
                module_name, attr = dotted.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, value in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "count": value,
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-market layer times and counters over ``ops`` traced ops."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        counted = defaultdict(int)
        peak = defaultdict(int)
        for name, start, end, parent, _op, value in self.spans:
            duration = end - start
            total[name] += duration
            self_time[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
            if value is not None:
                counted[name] += value
                peak[name] = max(peak[name], value)

        def per_op(value):
            return value / ops

        def ratio(a, b):
            return a / b if b else 0.0

        partitions = counted["swm.solve_swm"]
        flows = calls["flow.min_cost_max_flow"]
        metrics = {
            "swm.solve_swm_s": per_op(total["swm.solve_swm"]),
            "swm.partitions": per_op(partitions),
            "swm.us_per_partition": ratio(total["swm.solve_swm"] * 1e6, partitions),
            "swm.total_price.calls": per_op(calls["swm.total_price"]),
            "swm.total_price_s": per_op(total["swm.total_price"]),
            "swm.self_s": per_op(self_time["swm.solve_swm"]),
            "swm.flows_per_partition": ratio(flows, partitions),
            "flow.min_cost_max_flow.calls": per_op(flows),
            "flow.min_cost_max_flow_s": per_op(total["flow.min_cost_max_flow"]),
            "flow.min_cost_max_flow.us_per_call": ratio(
                total["flow.min_cost_max_flow"] * 1e6, flows
            ),
            "flow.edges_per_network": ratio(counted["flow.min_cost_max_flow"], flows),
            "flow.max_flow.calls": per_op(calls["flow.max_flow"]),
            "flow.max_flow_s": per_op(total["flow.max_flow"]),
            "model.validate_market_s": per_op(total["model.validate_market"]),
            "model.group_partition_s": per_op(total["model.group_partition"]),
            "model.group_partition.calls_per_market": per_op(
                calls["model.group_partition"]
            ),
            "model.all_surpluses_s": per_op(total["model.all_surpluses"]),
            "model.all_surpluses.calls_per_market": per_op(
                calls["model.all_surpluses"]
            ),
            "transfers.solve_group_transfers_s": per_op(
                total["transfers.solve_group_transfers"]
            ),
            "transfers.fair_buyer_transfers_s": per_op(
                total["transfers.fair_buyer_transfers"]
            ),
            "transfers.prices_from_transfers_s": per_op(
                total["transfers.prices_from_transfers"]
            ),
            "transfers.matrix_entries": per_op(
                counted["transfers.fair_buyer_transfers"]
            ),
            "transfers.max_denominator_bits": float(
                peak["transfers.prices_from_transfers"]
            ),
            "verify.certify_s": per_op(total["verify.certify"]),
            "documents.load_instance_s": per_op(total["documents.load_instance"]),
            "documents.emit_s": per_op(
                total["documents.solution_to_dict"]
                + total["documents.to_canonical_json"]
            ),
            "documents.load_solution_s": per_op(total["documents.load_solution"]),
            "documents.solution_bytes": ratio(
                counted["documents.to_canonical_json"],
                calls["documents.to_canonical_json"],
            ),
            "cli.self_s": per_op(self_time["cli.main"]),
        }
        for check in CHECKS:
            metrics[f"verify.check_{check}_s"] = per_op(total[f"verify.check_{check}"])
        return metrics
