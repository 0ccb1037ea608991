"""Instance and solution documents: strict JSON schemas, canonical output.

Documents are plain JSON with a schema tag.  Parsing rejects unknown
fields so corpus files fail loudly across versions; serialization is
canonical (sorted ids, sorted keys) so identical inputs give identical
bytes.  Exact rationals travel as lowest-terms strings like ``"3/4"``
(integers collapse to ``"3"``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .model import (
    Allocation,
    Buyer,
    BuyerId,
    DiscountTier,
    Market,
    Money,
    NULL_VENDOR,
    Vendor,
    VendorTuple,
)
from .transfers import GroupTransfers, PriceVector, TransferMatrix

INSTANCE_SCHEMA = "gbb-market/1"
SOLUTION_SCHEMA = "gbb-solution/1"

# Instance-file money must stay within signed 64-bit range so documents
# remain portable; internal arithmetic is exact regardless.
MONEY_LIMIT = 2**63

# ASCII digits only, matched against the whole string (``$`` would also
# accept a trailing newline, and ``\d`` any Unicode digit).
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


class DocumentError(ValueError):
    """A document failed structural validation."""


def rational_to_str(value: Fraction | int) -> str:
    numerator, denominator = value.numerator, value.denominator
    if denominator == 1:
        return str(numerator)
    return f"{numerator}/{denominator}"


def rational_from_str(text: str) -> Fraction:
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise DocumentError(f"not a rational literal: {text!r}")
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ValueError as exc:  # more digits than int() converts
        raise DocumentError(f"not a rational literal: {exc}") from None


def to_canonical_json(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _expect_object(data: Any, allowed: set[str], where: str) -> Mapping[str, Any]:
    if not isinstance(data, dict):
        raise DocumentError(f"{where}: expected an object")
    unknown = set(data) - allowed
    if unknown:
        raise DocumentError(f"{where}: unknown fields {sorted(unknown)}")
    return data


def _get(data: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise DocumentError(f"{where}: missing field {key!r}")
    return data[key]


def _as_int(value: Any, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer")
    if abs(value) >= MONEY_LIMIT:
        raise DocumentError(f"{where}: magnitude exceeds 64-bit range")
    if minimum is not None and value < minimum:
        raise DocumentError(f"{where}: must be >= {minimum}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise DocumentError(f"{where}: expected a nonempty string")
    return value


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected a list")
    return value


def instance_to_dict(market: Market) -> dict:
    """Canonical instance document; the implicit null vendor is omitted."""
    vendors = []
    for vendor in sorted(market.real_vendors, key=lambda v: v.id):
        vendors.append(
            {
                "id": vendor.id,
                "base_prices": list(vendor.base_prices),
                "discounts": [
                    {
                        "thresholds": list(t.thresholds),
                        "bundle_price": t.bundle_price,
                    }
                    for t in vendor.tiers
                ],
            }
        )
    buyers = []
    for buyer in sorted(market.buyers, key=lambda b: b.id):
        buyers.append(
            {
                "id": buyer.id,
                "valuations": [
                    {"choice": list(choice), "value": value}
                    for choice, value in sorted(buyer.valuations.items())
                ],
            }
        )
    return {
        "schema": INSTANCE_SCHEMA,
        "item_types": market.c,
        "vendors": vendors,
        "buyers": buyers,
    }


def instance_from_dict(data: Any) -> Market:
    doc = _expect_object(
        data, {"schema", "item_types", "vendors", "buyers"}, "instance"
    )
    if _get(doc, "schema", "instance") != INSTANCE_SCHEMA:
        raise DocumentError(
            f"instance: schema {doc.get('schema')!r} is not {INSTANCE_SCHEMA!r}"
        )
    c = _as_int(_get(doc, "item_types", "instance"), "item_types", minimum=1)

    vendors: list[Vendor] = []
    for i, entry in enumerate(_as_list(_get(doc, "vendors", "instance"), "vendors")):
        where = f"vendors[{i}]"
        obj = _expect_object(entry, {"id", "base_prices", "discounts"}, where)
        vid = _as_str(_get(obj, "id", where), f"{where}.id")
        if vid == NULL_VENDOR:
            raise DocumentError(f"{where}: vendor id {NULL_VENDOR!r} is reserved")
        base_prices = tuple(
            _as_int(p, f"{where}.base_prices[{k}]")
            for k, p in enumerate(_as_list(_get(obj, "base_prices", where), where))
        )
        tiers = []
        for j, tier in enumerate(_as_list(_get(obj, "discounts", where), where)):
            twhere = f"{where}.discounts[{j}]"
            tobj = _expect_object(tier, {"thresholds", "bundle_price"}, twhere)
            tiers.append(
                DiscountTier(
                    thresholds=tuple(
                        _as_int(t, f"{twhere}.thresholds[{k}]")
                        for k, t in enumerate(
                            _as_list(_get(tobj, "thresholds", twhere), twhere)
                        )
                    ),
                    bundle_price=_as_int(
                        _get(tobj, "bundle_price", twhere), f"{twhere}.bundle_price"
                    ),
                )
            )
        vendors.append(Vendor(id=vid, base_prices=base_prices, tiers=tuple(tiers)))

    buyers: list[Buyer] = []
    for i, entry in enumerate(_as_list(_get(doc, "buyers", "instance"), "buyers")):
        where = f"buyers[{i}]"
        obj = _expect_object(entry, {"id", "valuations"}, where)
        bid = _as_str(_get(obj, "id", where), f"{where}.id")
        valuations: dict[VendorTuple, Money] = {}
        for j, val in enumerate(_as_list(_get(obj, "valuations", where), where)):
            vwhere = f"{where}.valuations[{j}]"
            vobj = _expect_object(val, {"choice", "value"}, vwhere)
            choice = tuple(
                _as_str(s, f"{vwhere}.choice[{k}]")
                for k, s in enumerate(_as_list(_get(vobj, "choice", vwhere), vwhere))
            )
            if choice in valuations:
                raise DocumentError(f"{vwhere}: duplicate choice {choice!r}")
            valuations[choice] = _as_int(
                _get(vobj, "value", vwhere), f"{vwhere}.value"
            )
        buyers.append(Buyer(id=bid, valuations=valuations))

    vendors.sort(key=lambda v: v.id)
    buyers.sort(key=lambda b: b.id)
    return Market.build(c=c, vendors=vendors, buyers=buyers)


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int too long to parse
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:  # arrays or objects nested too deeply
        raise DocumentError(f"{path}: JSON nested too deeply ({exc})") from exc


def load_instance(path: str) -> Market:
    return instance_from_dict(_read_json(path))


@dataclass(frozen=True, eq=False)
class SolutionBundle:
    """Everything a solution document carries, in model terms."""

    social_welfare: Money
    allocation: Allocation
    prices: PriceVector
    utilities: Mapping[BuyerId, Money]
    surpluses: Mapping[BuyerId, Money]
    group_transfers: GroupTransfers
    matrix: TransferMatrix
    certificate: dict | None
    metadata: dict


def solution_to_dict(bundle: SolutionBundle) -> dict:
    buyers = {}
    for bid in sorted(bundle.prices.entries):
        entry = bundle.prices.entries[bid]
        buyers[bid] = {
            "market_price": entry.market_price,
            "delta": rational_to_str(entry.delta),
            "final_price": rational_to_str(entry.final),
            "utility": bundle.utilities[bid],
            "surplus": bundle.surpluses[bid],
        }
    return {
        "schema": SOLUTION_SCHEMA,
        "social_welfare": bundle.social_welfare,
        "allocation": {
            bid: list(choice)
            for bid, choice in sorted(bundle.allocation.choice.items())
        },
        "buyers": buyers,
        "group_transfers": [
            {"vendor": s, "group": list(x), "amount": amount}
            for s, x, amount in bundle.group_transfers.sorted_entries()
        ],
        "transfers": [
            {"payer": payer, "payee": payee, "amount": rational_to_str(amount)}
            for (payer, payee), amount in sorted(bundle.matrix.entries.items())
        ],
        "certificate": bundle.certificate,
        "metadata": bundle.metadata,
    }


@dataclass(frozen=True, eq=False)
class ParsedSolution:
    """Solution fields needed to re-run checks against an instance."""

    social_welfare: Money
    allocation: Allocation
    market_prices: Mapping[BuyerId, Money]
    deltas: Mapping[BuyerId, Fraction]
    final_prices: Mapping[BuyerId, Fraction]
    utilities: Mapping[BuyerId, Money]
    surpluses: Mapping[BuyerId, Money]
    group_transfers: GroupTransfers
    matrix: TransferMatrix


def solution_from_dict(data: Any) -> ParsedSolution:
    doc = _expect_object(
        data,
        {
            "schema",
            "social_welfare",
            "allocation",
            "buyers",
            "group_transfers",
            "transfers",
            "certificate",
            "metadata",
        },
        "solution",
    )
    if _get(doc, "schema", "solution") != SOLUTION_SCHEMA:
        raise DocumentError(
            f"solution: schema {doc.get('schema')!r} is not {SOLUTION_SCHEMA!r}"
        )
    welfare = _as_int(_get(doc, "social_welfare", "solution"), "social_welfare")

    alloc_obj = _get(doc, "allocation", "solution")
    if not isinstance(alloc_obj, dict):
        raise DocumentError("allocation: expected an object")
    choice = {}
    for bid, tup in alloc_obj.items():
        choice[bid] = tuple(
            _as_str(s, f"allocation[{bid!r}][{k}]")
            for k, s in enumerate(_as_list(tup, f"allocation[{bid!r}]"))
        )

    buyers_obj = _get(doc, "buyers", "solution")
    if not isinstance(buyers_obj, dict):
        raise DocumentError("buyers: expected an object")
    market_prices: dict[BuyerId, Money] = {}
    deltas: dict[BuyerId, Fraction] = {}
    final_prices: dict[BuyerId, Fraction] = {}
    utilities: dict[BuyerId, Money] = {}
    surpluses: dict[BuyerId, Money] = {}
    for bid, entry in buyers_obj.items():
        where = f"buyers[{bid!r}]"
        obj = _expect_object(
            entry,
            {"market_price", "delta", "final_price", "utility", "surplus"},
            where,
        )
        market_prices[bid] = _as_int(
            _get(obj, "market_price", where), f"{where}.market_price"
        )
        deltas[bid] = rational_from_str(_get(obj, "delta", where))
        utilities[bid] = _as_int(_get(obj, "utility", where), f"{where}.utility")
        surpluses[bid] = _as_int(_get(obj, "surplus", where), f"{where}.surplus")
        final_prices[bid] = rational_from_str(_get(obj, "final_price", where))

    gt_entries = {}
    for i, entry in enumerate(
        _as_list(_get(doc, "group_transfers", "solution"), "group_transfers")
    ):
        where = f"group_transfers[{i}]"
        obj = _expect_object(entry, {"vendor", "group", "amount"}, where)
        s = _as_str(_get(obj, "vendor", where), f"{where}.vendor")
        x = tuple(
            _as_str(v, f"{where}.group[{k}]")
            for k, v in enumerate(_as_list(_get(obj, "group", where), where))
        )
        if (s, x) in gt_entries:
            raise DocumentError(f"{where}: duplicate group transfer {s!r} -> {x!r}")
        amount = _as_int(_get(obj, "amount", where), f"{where}.amount")
        if amount <= 0:
            raise DocumentError(f"{where}: amount {amount} must be positive")
        gt_entries[(s, x)] = amount

    matrix_entries = {}
    for i, entry in enumerate(
        _as_list(_get(doc, "transfers", "solution"), "transfers")
    ):
        where = f"transfers[{i}]"
        obj = _expect_object(entry, {"payer", "payee", "amount"}, where)
        payer = _as_str(_get(obj, "payer", where), f"{where}.payer")
        payee = _as_str(_get(obj, "payee", where), f"{where}.payee")
        if (payer, payee) in matrix_entries:
            raise DocumentError(f"{where}: duplicate transfer {payer!r} -> {payee!r}")
        amount = rational_from_str(_get(obj, "amount", where))
        if amount.numerator <= 0:
            raise DocumentError(f"{where}: amount {amount} must be positive")
        matrix_entries[(payer, payee)] = amount

    _get(doc, "certificate", "solution")
    _get(doc, "metadata", "solution")
    return ParsedSolution(
        social_welfare=welfare,
        allocation=Allocation(choice=choice),
        market_prices=market_prices,
        deltas=deltas,
        final_prices=final_prices,
        utilities=utilities,
        surpluses=surpluses,
        group_transfers=GroupTransfers(entries=gt_entries),
        matrix=TransferMatrix(entries=matrix_entries),
    )


def load_solution(path: str) -> ParsedSolution:
    return solution_from_dict(_read_json(path))
