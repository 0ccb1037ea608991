"""Independent certification of allocation/price pairs.

Surpluses, market prices and group structure are re-derived from the raw
market and allocation instead of trusting solver intermediates, so a
certificate is meaningful for solutions produced elsewhere (or edited by
hand).  ``certify`` derives them once per call (``group_partition``), and
the stability, rationality and fairness checks all read that one group
partition.  Failing checks always carry concrete witnesses with both sides
of the violated relation evaluated.  Rational deltas are compared and summed
on their integer numerators and (positive) denominators; witnesses print the
``Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import (
    Allocation,
    GroupPartition,
    Market,
    Money,
    VendorTuple,
    all_surpluses,
    group_partition,
)
from .transfers import GroupTransfers, PriceVector, TransferMatrix

STANDARD_CHECKS = (
    "stable",
    "rational_prices",
    "fair",
    "p_consistent",
    "group_condition",
    "budget_balance",
)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class CertificateReport:
    checks: Mapping[str, CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.checks.values())

    def to_jsonable(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": {
                name: {"passed": r.passed, "witnesses": list(r.witnesses)}
                for name, r in self.checks.items()
            },
        }


def _fail(witnesses: list[str]) -> CheckResult:
    return CheckResult(passed=not witnesses, witnesses=tuple(witnesses))


def check_stable(gp: GroupPartition, prices: PriceVector) -> CheckResult:
    """No buyer can profit by walking away to base prices: for everyone the
    price increase stays within the surplus."""
    witnesses = []
    for b, sigma in gp.surplus.items():
        delta = prices.entries[b].delta
        if delta.numerator > sigma * delta.denominator:
            witnesses.append(
                f"buyer {b}: price delta {delta} exceeds surplus {sigma}"
            )
    return _fail(witnesses)


def check_rational_prices(gp: GroupPartition, prices: PriceVector) -> CheckResult:
    """Premiums only from positive-surplus discounted bundle buyers, and
    only where somebody needing a subsidy buys from the same vendor."""
    bundle_vendor = {b: s for s, ids in gp.positive_groups.items() for b in ids}
    subsidised = {s for x in gp.negative_groups for s in x}
    witnesses = []
    for b, sigma in gp.surplus.items():
        delta = prices.entries[b].delta
        if delta.numerator <= 0:
            continue
        who = f"buyer {b}: pays premium {delta}"
        vendor = bundle_vendor.get(b)
        if sigma <= 0:
            witnesses.append(f"{who} with surplus {sigma} <= 0")
        elif vendor is None:
            witnesses.append(f"{who} without a discounted bundle")
        elif vendor not in subsidised:
            witnesses.append(
                f"{who} but no negative-surplus buyer purchases from {vendor}"
            )
    return _fail(witnesses)


def check_fair(gp: GroupPartition, prices: PriceVector) -> CheckResult:
    """Same-choice positive-surplus buyers pay premiums proportional to
    surplus (checked by cross-multiplication, never division).

    A positive-surplus buyer always holds a triggered full bundle, so the
    same-choice classes are the positive groups.  Proportionality is an
    equivalence, so each member is compared with its group's first member.
    Denominators are positive, so ``d_f·σ_o = d_o·σ_f`` is compared on
    integers as ``n_f·σ_o·q_o = n_o·σ_f·q_f`` for ``d = n/q``.
    """
    sigma = gp.surplus
    witnesses = []
    for first, *rest in gp.positive_groups.values():
        d_first = prices.entries[first].delta
        n_f, q_f = d_first.numerator, d_first.denominator
        for other in rest:
            d_other = prices.entries[other].delta
            n_o, q_o = d_other.numerator, d_other.denominator
            if n_f * sigma[other] * q_o != n_o * sigma[first] * q_f:
                witnesses.append(
                    f"buyers {first},{other}: {d_first}*{sigma[other]} != "
                    f"{d_other}*{sigma[first]}"
                )
    return _fail(witnesses)


def check_group_condition(gp: GroupPartition, gt: GroupTransfers) -> CheckResult:
    """Budget per vendor, exact coverage per group, no cross transfers."""
    witnesses = []
    budget_use: dict[str, Money] = {}
    received: dict[VendorTuple, Money] = dict.fromkeys(gp.negative_totals, 0)
    for (s, x), amount in sorted(gt.entries.items()):
        if s in x:
            budget_use[s] = budget_use.get(s, 0) + amount
            received[x] = received.get(x, 0) + amount
        elif amount > 0:
            witnesses.append(
                f"cross transfer: vendor {s} pays {amount} to group "
                f"{{{','.join(x)}}} it does not belong to"
            )
    for s, used in sorted(budget_use.items()):
        available = gp.positive_totals.get(s, 0)
        if used > available:
            witnesses.append(
                f"vendor {s}: transfers {used} exceed group surplus {available}"
            )
    for x, got in sorted(received.items()):
        needed = gp.negative_totals.get(x, 0)
        if got != needed:
            witnesses.append(
                f"group {{{','.join(x)}}}: receives {got}, needs exactly {needed}"
            )
    return _fail(witnesses)


def check_p_consistent(prices: PriceVector, matrix: TransferMatrix) -> CheckResult:
    """Each buyer's price delta equals her net transfer outflow, compared as
    ``n_d·q_f = n_f·q_d`` for delta ``n_d/q_d`` and outflow ``n_f/q_f``."""
    flows = matrix.net_outflow_terms()
    for b in flows:
        if b not in prices.entries:
            return _fail([f"transfer references unknown buyer {b}"])
    witnesses = []
    for b in sorted(prices.entries):
        delta = prices.entries[b].delta
        n_f, q_f = flows.get(b, (0, 1))
        if delta.numerator * q_f != n_f * delta.denominator:
            witnesses.append(
                f"buyer {b}: price delta {delta} != net transfer {Fraction(n_f, q_f)}"
            )
    return _fail(witnesses)


def check_budget_balance(prices: PriceVector) -> CheckResult:
    """Price deltas sum to zero: numerators are summed per denominator, and
    only the few per-denominator sums are added as ``Fraction``s."""
    buckets: dict[int, int] = {}
    for entry in prices.entries.values():
        d = entry.delta
        buckets[d.denominator] = buckets.get(d.denominator, 0) + d.numerator
    total = sum((Fraction(n, q) for q, n in buckets.items()), Fraction(0))
    if total != 0:
        return _fail([f"price deltas sum to {total}, expected 0"])
    return _fail([])


def surplus_totals(market: Market, alloc: Allocation) -> tuple[Money, Money]:
    """(total surplus available, total subsidy needed) over all buyers."""
    sigma = all_surpluses(market, alloc)
    available = sum(v for v in sigma.values() if v > 0)
    needed = sum(-v for v in sigma.values() if v < 0)
    return available, needed


def certify(
    market: Market,
    alloc: Allocation,
    prices: PriceVector,
    gt: GroupTransfers,
    matrix: TransferMatrix,
    gp: GroupPartition | None = None,
) -> CertificateReport:
    """Run the full standard check set on one solution.

    A given ``gp`` must be ``group_partition(market, alloc)``; without one
    it is derived here, once for all checks.
    """
    if gp is None:
        gp = group_partition(market, alloc)
    return CertificateReport(
        checks={
            "stable": check_stable(gp, prices),
            "rational_prices": check_rational_prices(gp, prices),
            "fair": check_fair(gp, prices),
            "p_consistent": check_p_consistent(prices, matrix),
            "group_condition": check_group_condition(gp, gt),
            "budget_balance": check_budget_balance(prices),
        }
    )
