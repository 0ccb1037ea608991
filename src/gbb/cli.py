"""Command-line front end.

Commands: ``solve`` (full pipeline with certification), ``oracle``
(exhaustive welfare maximization, same report shape), ``gen`` (seeded
instance generation), ``verify`` (re-run every check on a stored
solution), ``partitions`` (print the partition count for an instance).

Exit codes: 0 success / all checks pass, 1 a certificate check failed,
2 parse or validation error, 3 enumeration budget exceeded, 4 transfers
cannot stabilize the allocation.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from .documents import (
    DocumentError,
    SolutionBundle,
    instance_to_dict,
    load_instance,
    load_solution,
    solution_to_dict,
    to_canonical_json,
)
from .generate import generate_instance
from .model import (
    Allocation,
    BuyerId,
    Market,
    Money,
    group_partition,
    utilities,
    validate_market,
)
from .swm import BudgetExceeded, brute_force_swm, partition_count, solve_swm
from .transfers import (
    PriceVector,
    Unstabilizable,
    fair_buyer_transfers,
    price_vector,
    prices_from_transfers,
    solve_group_transfers,
)
from .verify import certify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_UNSTABILIZABLE = 4


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_valid_instance(path: str) -> Market:
    market = load_instance(path)
    report = validate_market(market)
    if not report.ok:
        raise DocumentError(
            "invalid instance:\n  " + "\n  ".join(report.violations)
        )
    return market


def _market_prices(prices: PriceVector) -> dict[BuyerId, Money]:
    return {b: entry.market_price for b, entry in prices.entries.items()}


def _solve_and_emit(
    args: argparse.Namespace,
    solver: str,
    solve: Callable[[Market], tuple[Allocation, Money, int, int]],
    run_checks: bool = True,
    timings: bool = False,
) -> int:
    """Load, solve, price, certify and emit one solution document.

    ``solve`` returns the allocation, its welfare and the counts of
    partitions (or allocations) in the search space and evaluated.
    """
    market = _load_valid_instance(args.instance)
    started = time.perf_counter()
    alloc, welfare, count, evaluated = solve(market)
    solved = time.perf_counter()

    gp = group_partition(market, alloc)
    gt = solve_group_transfers(market, alloc, gp)
    matrix = fair_buyer_transfers(market, alloc, gp, gt)
    prices = prices_from_transfers(market, alloc, matrix)
    report = None
    if run_checks:
        report = certify(market, alloc, prices, gt, matrix, gp=gp)
    metadata = {
        "solver": solver,
        "partition_count": count,
        "partitions_evaluated": evaluated,
        "seed": None,
        "timings": None,
    }
    if timings:
        done = time.perf_counter()
        metadata["timings"] = {
            "solve_s": round(solved - started, 6),
            "transfers_s": round(done - solved, 6),
            "total_s": round(done - started, 6),
        }
    bundle = SolutionBundle(
        social_welfare=welfare,
        allocation=alloc,
        prices=prices,
        utilities=utilities(market, alloc, _market_prices(prices)),
        surpluses=dict(gp.surplus),
        group_transfers=gt,
        matrix=matrix,
        certificate=report.to_jsonable() if report is not None else None,
        metadata=metadata,
    )

    _emit(to_canonical_json(solution_to_dict(bundle)), args.out)
    if report is not None and not report.all_passed:
        print("error: certificate checks failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    def solve(market: Market) -> tuple[Allocation, Money, int, int]:
        result = solve_swm(
            market, max_partitions=args.max_partitions, jobs=args.jobs
        )
        return (
            result.allocation,
            result.social_welfare,
            result.partitions_total,
            result.partitions_evaluated,
        )

    return _solve_and_emit(
        args,
        "partition-flow",
        solve,
        run_checks=not args.no_certify,
        timings=args.timings,
    )


def cmd_oracle(args: argparse.Namespace) -> int:
    def solve(market: Market) -> tuple[Allocation, Money, int, int]:
        alloc, welfare = brute_force_swm(
            market, max_allocations=args.max_allocations
        )
        count = len(market.vendor_tuples) ** len(market.buyers)
        return alloc, welfare, count, count

    return _solve_and_emit(args, "exhaustive", solve)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        market = generate_instance(
            buyers=args.buyers,
            vendors=args.vendors,
            items=args.items,
            seed=args.seed,
            max_value=args.max_value,
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    _emit(to_canonical_json(instance_to_dict(market)), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    market = _load_valid_instance(args.instance)
    solution = load_solution(args.solution)
    buyer_ids = set(market.buyer_ids)
    if set(solution.allocation.choice) != buyer_ids or set(
        solution.deltas
    ) != buyer_ids:
        raise DocumentError("solution buyer set does not match the instance")

    try:
        # Market prices are re-derived from the instance; only the deltas
        # are taken from the document.
        prices = price_vector(market, solution.allocation, solution.deltas)
        gp = group_partition(market, solution.allocation)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    # The fields no check reads must still be the ones the instance and the
    # stored deltas give.
    derived_utilities = utilities(
        market, solution.allocation, _market_prices(prices)
    )
    for b in market.buyer_ids:
        entry = prices.entries[b]
        for field, stored, derived in (
            ("market_price", solution.market_prices[b], entry.market_price),
            ("final_price", solution.final_prices[b], entry.final),
            ("utility", solution.utilities[b], derived_utilities[b]),
            ("surplus", solution.surpluses[b], gp.surplus[b]),
        ):
            if stored != derived:
                raise DocumentError(
                    f"buyer {b}: stored {field} {stored} != derived {derived}"
                )
    welfare = sum(derived_utilities.values())
    if solution.social_welfare != welfare:
        raise DocumentError(
            f"stored social_welfare {solution.social_welfare} != derived {welfare}"
        )

    report = certify(
        market,
        solution.allocation,
        prices,
        solution.group_transfers,
        solution.matrix,
        gp=gp,
    )
    for name, result in report.checks.items():
        status = "PASS" if result.passed else "FAIL"
        print(f"{name}: {status}")
        for witness in result.witnesses:
            print(f"  - {witness}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_partitions(args: argparse.Namespace) -> int:
    market = _load_valid_instance(args.instance)
    n = len(market.buyers)
    cells = len(market.vendor_tuples)
    print(f"buyers={n} cells={cells} partitions={partition_count(n, cells)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbb",
        description=(
            "Group-buying market solver: welfare-maximizing allocation, "
            "group transfers, fair per-buyer prices, certification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance end to end")
    solve.add_argument("instance")
    solve.add_argument("--out", default=None, help="write the solution here")
    solve.add_argument(
        "--max-partitions",
        type=int,
        default=5_000_000,
        help="abort when the partition count exceeds this",
    )
    solve.add_argument(
        "--no-certify", action="store_true", help="skip certificate checks"
    )
    solve.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings in the document metadata "
        "(documents are no longer byte-reproducible)",
    )
    solve.add_argument("--jobs", type=int, default=1, help="parallel workers")
    solve.set_defaults(func=cmd_solve)

    oracle = sub.add_parser("oracle", help="exhaustive reference solve")
    oracle.add_argument("instance")
    oracle.add_argument("--out", default=None)
    oracle.add_argument("--max-allocations", type=int, default=1_000_000)
    oracle.set_defaults(func=cmd_oracle)

    gen = sub.add_parser("gen", help="generate a seeded random instance")
    gen.add_argument("--buyers", type=int, required=True)
    gen.add_argument("--vendors", type=int, required=True)
    gen.add_argument("--items", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--max-value", type=int, default=20)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="re-check a stored solution")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.set_defaults(func=cmd_verify)

    partitions = sub.add_parser(
        "partitions", help="print the partition count for an instance"
    )
    partitions.add_argument("instance")
    partitions.set_defaults(func=cmd_partitions)

    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        return _fail(exc, EXIT_PARSE)
    except BudgetExceeded as exc:
        return _fail(exc, EXIT_BUDGET)
    except Unstabilizable as exc:
        return _fail(exc, EXIT_UNSTABILIZABLE)


if __name__ == "__main__":
    sys.exit(main())
