"""Instance and solution documents: strict JSON schemas, canonical output.

Documents are plain JSON with a schema tag.  Parsing rejects unknown
fields so corpus files fail loudly across versions; serialization is
canonical (sorted ids, sorted keys) so identical inputs give identical
bytes.  Exact rationals travel as lowest-terms strings like ``"3/4"``
(integers collapse to ``"3"``).

Every rejection names the path of the field at fault, such as
``buyers[1].valuations[0].choice[1]``.  The readers build that path only
for a rejection: an accepted document is read without formatting any
location, and each distinct rational literal in it is parsed once.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
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

    A flat container, an exact ``dict``, ``list`` or ``tuple`` whose
    children are all exact ``str`` or ``int``, is rendered with one join.
    Its text is kept for this call under its ``id``, with the indentation
    it was rendered at, and reused wherever the same container recurs at
    that indentation.  The memo holds each container it keys, so no ``id``
    is reused while it lives, and exact strings and integers cannot change,
    so a kept text stays the container's text.
    """
    parts: list[str] = []
    _emit_json(data, "\n", parts, json.encoder.encode_basestring_ascii, {})
    parts.append("\n")
    return "".join(parts)


def _emit_json(
    value: Any, newline: str, parts: list[str], quote: Any, memo: dict
) -> None:
    """Append ``value``'s text to ``parts``; ``newline`` is the line break
    and indentation of the line it starts on.  ``memo`` maps the ``id`` of
    each flat container rendered so far to ``(container, newline, text)``."""
    cls = value.__class__
    if cls is dict or cls is list or cls is tuple:
        done = memo.get(id(value))
        if done is not None and done[1] == newline:
            parts.append(done[2])
            return
        text = _flat_text(value, newline, quote)
        if text is not None:
            parts.append(text)
            memo[id(value)] = (value, newline, text)
            return
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
            _emit_json(item, inner, parts, quote, memo)
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
            _emit_json(item, inner, parts, quote, memo)
            separator = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def _flat_text(value: dict | list | tuple, newline: str, quote: Any) -> str | None:
    """The text of ``value``, an exact container, if its children are all
    exact ``str`` or ``int``; otherwise ``None``."""
    texts = []
    if value.__class__ is dict:
        brackets = "{}"
        for key, item in sorted(value.items()):
            cls = item.__class__
            if cls is str:
                texts.append(quote(key) + ": " + quote(item))
            elif cls is int:
                texts.append(quote(key) + ": " + int.__repr__(item))
            else:
                return None
    else:
        brackets = "[]"
        for item in value:
            cls = item.__class__
            if cls is str:
                texts.append(quote(item))
            elif cls is int:
                texts.append(int.__repr__(item))
            else:
                return None
    if not texts:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + newline + brackets[1]


def _located(where: str, exc: DocumentError) -> DocumentError:
    """``exc`` with ``where`` put in front of its location.

    Readers validate a record's fields inside one ``try`` and pass each
    helper a constant path relative to the record (``".payer"``, ``"[k]"``,
    or ``""`` for the record itself), so a helper's message starts with
    that relative path.  The record's ``except`` adds the record's own
    location once, so no location is formatted for an accepted field.
    """
    return DocumentError(f"{where}{exc}")


def _record(data: Any, fields: tuple[str, ...], where: str) -> tuple:
    """The values of ``fields`` (two or more), in order, from an object with
    exactly those keys; unknown keys are reported before missing ones."""
    if not isinstance(data, dict):
        raise DocumentError(f"{where}: expected an object")
    if len(data) == len(fields):
        try:
            return itemgetter(*fields)(data)
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
    items = _as_list(value, where)
    for k, item in enumerate(items):
        try:
            _as_int(item, "")
        except DocumentError as exc:
            raise _located(f"{where}[{k}]", exc) from None
    return tuple(items)


def _strs(value: Any, where: str) -> tuple[str, ...]:
    """A list of nonempty ``str``, checked in one pass that names the first
    bad item; a path is formatted only for a rejection."""
    items = _as_list(value, where)
    for k, item in enumerate(items):
        if item.__class__ is not str or not item:
            _as_str(item, f"{where}[{k}]")
    return tuple(items)


def _rational(value: Any, where: str, known: dict[str, Fraction]) -> Fraction:
    """``value`` read as a rational literal, through ``known``: the literals
    this document has already accepted, each with its ``Fraction``."""
    fraction = known.get(value) if value.__class__ is str else None
    if fraction is None:
        try:
            fraction = known[value] = rational_from_str(value)
        except DocumentError as exc:
            raise DocumentError(f"{where}: {exc}") from None
    return fraction


def instance_to_dict(market: Market) -> dict:
    """Canonical instance document; the implicit null vendor is omitted."""
    vendors = []
    for vendor in market.real_vendors:
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
    for buyer in market.buyers:
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
        try:
            vid, base_prices, tier_list = _record(
                entry, ("id", "base_prices", "discounts"), ""
            )
            vid = _as_str(vid, ".id")
            if vid == NULL_VENDOR:
                raise DocumentError(f": vendor id {NULL_VENDOR!r} is reserved")
            base_prices = _ints(base_prices, ".base_prices")
            tiers = []
            for j, tier in enumerate(_as_list(tier_list, ".discounts")):
                try:
                    thresholds, bundle_price = _record(
                        tier, ("thresholds", "bundle_price"), ""
                    )
                    tiers.append(
                        DiscountTier(
                            thresholds=_ints(thresholds, ".thresholds"),
                            bundle_price=_as_int(bundle_price, ".bundle_price"),
                        )
                    )
                except DocumentError as exc:
                    raise _located(f".discounts[{j}]", exc) from None
        except DocumentError as exc:
            raise _located(f"vendors[{i}]", exc) from None
        vendors.append(Vendor(id=vid, base_prices=base_prices, tiers=tuple(tiers)))

    buyers: list[Buyer] = []
    for i, entry in enumerate(_as_list(buyer_list, "buyers")):
        try:
            bid, valuation_list = _record(entry, ("id", "valuations"), "")
            bid = _as_str(bid, ".id")
            valuations: dict[VendorTuple, Money] = {}
            for j, val in enumerate(_as_list(valuation_list, ".valuations")):
                try:
                    choice, value = _record(val, ("choice", "value"), "")
                    choice = _strs(choice, ".choice")
                    if choice in valuations:
                        raise DocumentError(f": duplicate choice {choice!r}")
                    valuations[choice] = _as_int(value, ".value")
                except DocumentError as exc:
                    raise _located(f".valuations[{j}]", exc) from None
        except DocumentError as exc:
            raise _located(f"buyers[{i}]", exc) from None
        buyers.append(Buyer(id=bid, valuations=valuations))

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
    """The solution document of ``bundle``, for ``to_canonical_json``.

    Buyers with the same ``PriceEntry`` object, utility and surplus share
    one record, and buyers with equal choices share one list, so the result
    is read-only: editing one buyer's record or choice edits others' too.
    """
    utilities, surpluses = bundle.utilities, bundle.surpluses
    # Each table lives for this call.  Entries and rationals are keyed by
    # ``id``, because ``Fraction.__hash__`` is slow and the bundle holds
    # every entry and rational alive until the call returns.  A record is
    # shared only when its utility and surplus are exact ``int``s, so
    # ``True`` or ``1.0`` never takes the place of ``1``.
    texts: dict[int, str] = {}
    records: dict[tuple[int, int, int], dict] = {}
    buyers = {}
    for bid, entry in bundle.prices.entries.items():
        utility, surplus = utilities[bid], surpluses[bid]
        key = (id(entry), utility, surplus)
        exact = utility.__class__ is int and surplus.__class__ is int
        record = records.get(key) if exact else None
        if record is None:
            record = {
                "market_price": entry.market_price,
                "delta": _rational_text(entry.delta, texts),
                "final_price": _rational_text(entry.final, texts),
                "utility": utility,
                "surplus": surplus,
            }
            if exact:
                records[key] = record
        buyers[bid] = record
    lists: dict[tuple, list] = {}
    allocation = {}
    for bid, choice in bundle.allocation.choice.items():
        chosen = lists.get(choice)
        if chosen is None:
            chosen = lists[choice] = list(choice)
        allocation[bid] = chosen
    amounts = bundle.matrix.entries
    return {
        "schema": SOLUTION_SCHEMA,
        "social_welfare": bundle.social_welfare,
        "allocation": allocation,
        "buyers": buyers,
        "group_transfers": [
            {"vendor": s, "group": list(x), "amount": amount}
            for (s, x), amount in sorted(bundle.group_transfers.entries.items())
        ],
        "transfers": [
            {
                "payer": payer,
                "payee": payee,
                "amount": _rational_text(amounts[payer, payee], texts),
            }
            for payer, payee in sorted(amounts)
        ],
        "certificate": bundle.certificate,
        "metadata": bundle.metadata,
    }


def _rational_text(value: Fraction | int, texts: dict[int, str]) -> str:
    """``rational_to_str(value)`` through ``texts``, the text of each value
    already formatted in this call by ``id``; the caller holds each such
    value alive, so no id is reused."""
    text = texts.get(id(value))
    if text is None:
        text = texts[id(value)] = rational_to_str(value)
    return text


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
    choice = {}
    for bid, tup in alloc_obj.items():
        try:
            choice[bid] = _strs(tup, "")
        except DocumentError as exc:
            raise _located(f"allocation[{bid!r}]", exc) from None

    if not isinstance(buyers_obj, dict):
        raise DocumentError("buyers: expected an object")
    # Deltas, final prices and transfer amounts repeat a few literals many
    # times; each accepted literal is parsed once per document.  Buyer
    # records repeat too: each distinct accepted record is checked once and
    # gives one ``PriceEntry``.  Only exact ``int`` and ``str`` values form
    # a key, so ``true``, ``4.0`` or a list never match an accepted record
    # and always reach the field checks.
    rationals: dict[str, Fraction] = {}
    accepted: dict[tuple[int, str, str, int, int], PriceEntry] = {}
    prices: dict[BuyerId, PriceEntry] = {}
    utilities: dict[BuyerId, Money] = {}
    surpluses: dict[BuyerId, Money] = {}
    for bid, entry in buyers_obj.items():
        try:
            record = _record(
                entry,
                ("market_price", "delta", "final_price", "utility", "surplus"),
                "",
            )
            market_price, delta, final, utility, surplus = record
            keyed = (
                market_price.__class__ is int
                and delta.__class__ is str
                and final.__class__ is str
                and utility.__class__ is int
                and surplus.__class__ is int
            )
            price = accepted.get(record) if keyed else None
            if price is None:
                price = PriceEntry(
                    market_price=_as_int(market_price, ".market_price"),
                    delta=_rational(delta, ".delta", rationals),
                    final=_rational(final, ".final_price", rationals),
                )
                _as_int(utility, ".utility")
                _as_int(surplus, ".surplus")
                if keyed:
                    accepted[record] = price
            prices[bid] = price
            utilities[bid] = utility
            surpluses[bid] = surplus
        except DocumentError as exc:
            raise _located(f"buyers[{bid!r}]", exc) from None

    gt_entries = {}
    for i, entry in enumerate(_as_list(gt_list, "group_transfers")):
        try:
            s, x, amount = _record(entry, ("vendor", "group", "amount"), "")
            s = _as_str(s, ".vendor")
            x = _strs(x, ".group")
            if (s, x) in gt_entries:
                raise DocumentError(f": duplicate group transfer {s!r} -> {x!r}")
            amount = _as_int(amount, ".amount")
            if amount <= 0:
                raise DocumentError(f": amount {amount} must be positive")
        except DocumentError as exc:
            raise _located(f"group_transfers[{i}]", exc) from None
        gt_entries[(s, x)] = amount

    matrix_entries = {}
    for i, entry in enumerate(_as_list(transfer_list, "transfers")):
        try:
            payer, payee, amount = _record(entry, ("payer", "payee", "amount"), "")
            payer = _as_str(payer, ".payer")
            payee = _as_str(payee, ".payee")
            if payer == payee:
                raise DocumentError(f": payer {payer!r} pays itself")
            if (payer, payee) in matrix_entries:
                raise DocumentError(f": duplicate transfer {payer!r} -> {payee!r}")
            amount = _rational(amount, ".amount", rationals)
            if amount.numerator <= 0:
                raise DocumentError(f": amount {amount} must be positive")
        except DocumentError as exc:
            raise _located(f"transfers[{i}]", exc) from None
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
