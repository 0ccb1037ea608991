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
from typing import Any, Mapping, NoReturn

from .model import (
    Allocation,
    Buyer,
    BuyerId,
    DiscountTier,
    ITEM_TYPES_LIMIT,
    MONEY_LIMIT,
    Market,
    Money,
    NULL_VENDOR,
    Vendor,
    VendorTuple,
)
from .transfers import GroupTransfers, PriceEntry, PriceVector, TransferMatrix

INSTANCE_SCHEMA = "gbb-market/1"
SOLUTION_SCHEMA = "gbb-solution/1"

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
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for every JSON value with ``str`` keys.

    ``indent`` makes ``json.dumps`` run the pure-Python encoder, whose
    closures leave a reference cycle behind on every call; this emitter
    makes no closures and quotes strings with the C quoting routine.
    """
    parts: list[str] = []
    _emit_json(data, "\n", parts, json.encoder.encode_basestring_ascii)
    parts.append("\n")
    return "".join(parts)


def _emit_json(value: Any, newline: str, parts: list[str], quote: Any) -> None:
    """Append ``value``'s text to ``parts``; ``newline`` is the line break
    and indentation of the line it starts on."""
    if isinstance(value, str):
        parts.append(quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        words = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
        parts.append(words.get(text, text))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _emit_json(item, inner, parts, quote)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(separator + quote(key) + ": ")
            _emit_json(item, inner, parts, quote)
            separator = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def _record(data: Any, fields: tuple[str, ...], where: str) -> list:
    """The values of ``fields``, in order, from an object with exactly
    those keys; unknown keys are reported before missing ones."""
    if not isinstance(data, dict):
        raise DocumentError(f"{where}: expected an object")
    if len(data) == len(fields):
        try:
            return [data[field] for field in fields]
        except KeyError:
            pass
    unknown = data.keys() - set(fields)
    if unknown:
        raise DocumentError(f"{where}: unknown fields {sorted(unknown)}")
    missing = next(field for field in fields if field not in data)
    raise DocumentError(f"{where}: missing field {missing!r}")


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


def _ints(value: Any, where: str) -> tuple[int, ...]:
    return tuple(
        _as_int(v, f"{where}[{k}]") for k, v in enumerate(_as_list(value, where))
    )


def _strs(value: Any, where: str) -> tuple[str, ...]:
    return tuple(
        _as_str(v, f"{where}[{k}]") for k, v in enumerate(_as_list(value, where))
    )


def _rational(value: Any, where: str) -> Fraction:
    try:
        return rational_from_str(value)
    except DocumentError as exc:
        raise DocumentError(f"{where}: {exc}") from None


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
    schema, c, vendor_list, buyer_list = _record(
        data, ("schema", "item_types", "vendors", "buyers"), "instance"
    )
    if schema != INSTANCE_SCHEMA:
        raise DocumentError(f"instance: schema {schema!r} is not {INSTANCE_SCHEMA!r}")
    c = _as_int(c, "item_types", minimum=1)
    if c > ITEM_TYPES_LIMIT:
        raise DocumentError(f"item_types: must be <= {ITEM_TYPES_LIMIT}")

    vendors: list[Vendor] = []
    for i, entry in enumerate(_as_list(vendor_list, "vendors")):
        where = f"vendors[{i}]"
        vid, base_prices, tier_list = _record(
            entry, ("id", "base_prices", "discounts"), where
        )
        vid = _as_str(vid, f"{where}.id")
        if vid == NULL_VENDOR:
            raise DocumentError(f"{where}: vendor id {NULL_VENDOR!r} is reserved")
        base_prices = _ints(base_prices, f"{where}.base_prices")
        tiers = []
        for j, tier in enumerate(_as_list(tier_list, f"{where}.discounts")):
            twhere = f"{where}.discounts[{j}]"
            thresholds, bundle_price = _record(
                tier, ("thresholds", "bundle_price"), twhere
            )
            tiers.append(
                DiscountTier(
                    thresholds=_ints(thresholds, f"{twhere}.thresholds"),
                    bundle_price=_as_int(bundle_price, f"{twhere}.bundle_price"),
                )
            )
        vendors.append(Vendor(id=vid, base_prices=base_prices, tiers=tuple(tiers)))

    buyers: list[Buyer] = []
    for i, entry in enumerate(_as_list(buyer_list, "buyers")):
        where = f"buyers[{i}]"
        bid, valuation_list = _record(entry, ("id", "valuations"), where)
        bid = _as_str(bid, f"{where}.id")
        valuations: dict[VendorTuple, Money] = {}
        for j, val in enumerate(_as_list(valuation_list, f"{where}.valuations")):
            vwhere = f"{where}.valuations[{j}]"
            choice, value = _record(val, ("choice", "value"), vwhere)
            choice = _strs(choice, f"{vwhere}.choice")
            if choice in valuations:
                raise DocumentError(f"{vwhere}: duplicate choice {choice!r}")
            valuations[choice] = _as_int(value, f"{vwhere}.value")
        buyers.append(Buyer(id=bid, valuations=valuations))

    vendors.sort(key=lambda v: v.id)
    buyers.sort(key=lambda b: b.id)
    return Market.build(c=c, vendors=vendors, buyers=buyers)


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON value")


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, NaN, or an int too long
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
            for (s, x), amount in sorted(bundle.group_transfers.entries.items())
        ],
        "transfers": [
            {"payer": payer, "payee": payee, "amount": rational_to_str(amount)}
            for (payer, payee), amount in sorted(bundle.matrix.entries.items())
        ],
        "certificate": bundle.certificate,
        "metadata": bundle.metadata,
    }


def solution_from_dict(data: Any) -> SolutionBundle:
    """The bundle ``solution_to_dict`` writes; ``certificate`` and
    ``metadata`` are kept as read."""
    (
        schema,
        welfare,
        alloc_obj,
        buyers_obj,
        gt_list,
        transfer_list,
        certificate,
        metadata,
    ) = _record(
        data,
        (
            "schema",
            "social_welfare",
            "allocation",
            "buyers",
            "group_transfers",
            "transfers",
            "certificate",
            "metadata",
        ),
        "solution",
    )
    if schema != SOLUTION_SCHEMA:
        raise DocumentError(f"solution: schema {schema!r} is not {SOLUTION_SCHEMA!r}")
    welfare = _as_int(welfare, "social_welfare")

    if not isinstance(alloc_obj, dict):
        raise DocumentError("allocation: expected an object")
    choice = {bid: _strs(tup, f"allocation[{bid!r}]") for bid, tup in alloc_obj.items()}

    if not isinstance(buyers_obj, dict):
        raise DocumentError("buyers: expected an object")
    prices: dict[BuyerId, PriceEntry] = {}
    utilities: dict[BuyerId, Money] = {}
    surpluses: dict[BuyerId, Money] = {}
    for bid, entry in buyers_obj.items():
        where = f"buyers[{bid!r}]"
        market_price, delta, final, utility, surplus = _record(
            entry, ("market_price", "delta", "final_price", "utility", "surplus"), where
        )
        prices[bid] = PriceEntry(
            market_price=_as_int(market_price, f"{where}.market_price"),
            delta=_rational(delta, f"{where}.delta"),
            final=_rational(final, f"{where}.final_price"),
        )
        utilities[bid] = _as_int(utility, f"{where}.utility")
        surpluses[bid] = _as_int(surplus, f"{where}.surplus")

    gt_entries = {}
    for i, entry in enumerate(_as_list(gt_list, "group_transfers")):
        where = f"group_transfers[{i}]"
        s, x, amount = _record(entry, ("vendor", "group", "amount"), where)
        s = _as_str(s, f"{where}.vendor")
        x = _strs(x, f"{where}.group")
        if (s, x) in gt_entries:
            raise DocumentError(f"{where}: duplicate group transfer {s!r} -> {x!r}")
        amount = _as_int(amount, f"{where}.amount")
        if amount <= 0:
            raise DocumentError(f"{where}: amount {amount} must be positive")
        gt_entries[(s, x)] = amount

    matrix_entries = {}
    for i, entry in enumerate(_as_list(transfer_list, "transfers")):
        where = f"transfers[{i}]"
        payer, payee, amount = _record(entry, ("payer", "payee", "amount"), where)
        payer = _as_str(payer, f"{where}.payer")
        payee = _as_str(payee, f"{where}.payee")
        if payer == payee:
            raise DocumentError(f"{where}: payer {payer!r} pays itself")
        if (payer, payee) in matrix_entries:
            raise DocumentError(f"{where}: duplicate transfer {payer!r} -> {payee!r}")
        amount = _rational(amount, f"{where}.amount")
        if amount.numerator <= 0:
            raise DocumentError(f"{where}: amount {amount} must be positive")
        matrix_entries[(payer, payee)] = amount

    if certificate is not None and not isinstance(certificate, dict):
        raise DocumentError("certificate: expected an object or null")
    if not isinstance(metadata, dict):
        raise DocumentError("metadata: expected an object")
    return SolutionBundle(
        social_welfare=welfare,
        allocation=Allocation(choice=choice),
        prices=PriceVector(entries=prices),
        utilities=utilities,
        surpluses=surpluses,
        group_transfers=GroupTransfers(entries=gt_entries),
        matrix=TransferMatrix(entries=matrix_entries),
        certificate=certificate,
        metadata=metadata,
    )


def load_solution(path: str) -> SolutionBundle:
    return solution_from_dict(_read_json(path))
