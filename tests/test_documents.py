"""Document schemas: strictness, canonical round trips, rational strings."""

import json
import sys
from fractions import Fraction

import pytest

from gbb.documents import (
    DocumentError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    rational_from_str,
    rational_to_str,
    solution_from_dict,
    to_canonical_json,
)
from gbb.model import NULL_VENDOR, validate_market

from tests.conftest import data_path


def test_rational_strings():
    assert rational_to_str(Fraction(3, 4)) == "3/4"
    assert rational_to_str(Fraction(-1, 2)) == "-1/2"
    assert rational_to_str(Fraction(10, 2)) == "5"
    assert rational_to_str(5) == "5"
    assert rational_from_str("3/4") == Fraction(3, 4)
    assert rational_from_str("-7") == -7
    assert rational_from_str("6/4") == Fraction(3, 2)
    assert rational_from_str("-0") == 0
    for text in ("3/4", "-7", "6/4", "-0"):
        assert type(rational_from_str(text)) is Fraction
    # A trailing newline and non-ASCII digits ("\u0663" is ARABIC-INDIC
    # DIGIT THREE) are not literals.
    bad_literals = ("", "1/0", "1.5", "a/b", "1/-2", None, 3)
    bad_literals += ("3\n", "1/2\n", "\u0663", "1/1\u0663")
    for bad in bad_literals:
        with pytest.raises(DocumentError):
            rational_from_str(bad)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # interpreters with the int-from-string digit limit
        with pytest.raises(DocumentError):
            rational_from_str("1/" + "1" * (limit + 1))


def test_instance_round_trip(fix_e1_path, fix_e2_path):
    for path in (fix_e1_path, fix_e2_path):
        market = load_instance(path)
        assert validate_market(market).ok
        once = to_canonical_json(instance_to_dict(market))
        again = to_canonical_json(instance_to_dict(instance_from_dict(json.loads(once))))
        assert once == again
        assert once == open(path).read()


def test_null_vendor_injected(fix_e1_path):
    market = load_instance(fix_e1_path)
    assert NULL_VENDOR in {v.id for v in market.vendors}
    assert NULL_VENDOR not in {
        v["id"] for v in instance_to_dict(market)["vendors"]
    }


def base_doc():
    return {
        "schema": "gbb-market/1",
        "item_types": 1,
        "vendors": [{"id": "s1", "base_prices": [4], "discounts": []}],
        "buyers": [
            {"id": "b1", "valuations": [{"choice": ["s1"], "value": 6}]}
        ],
    }


def test_unknown_fields_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(DocumentError, match="unknown fields"):
        instance_from_dict(doc)
    doc = base_doc()
    doc["vendors"][0]["surprise"] = True
    with pytest.raises(DocumentError, match="unknown fields"):
        instance_from_dict(doc)
    doc = base_doc()
    doc["buyers"][0]["valuations"][0]["note"] = "hi"
    with pytest.raises(DocumentError, match="unknown fields"):
        instance_from_dict(doc)


def test_schema_and_type_errors():
    with pytest.raises(DocumentError, match="schema"):
        instance_from_dict({**base_doc(), "schema": "nope/9"})
    doc = base_doc()
    doc["item_types"] = 0
    with pytest.raises(DocumentError, match="must be >= 1"):
        instance_from_dict(doc)
    doc = base_doc()
    doc["vendors"][0]["base_prices"] = [True]
    with pytest.raises(DocumentError, match="expected an integer"):
        instance_from_dict(doc)
    doc = base_doc()
    doc["buyers"][0]["valuations"][0]["value"] = 2**63
    with pytest.raises(DocumentError, match="64-bit"):
        instance_from_dict(doc)
    doc = base_doc()
    doc["vendors"][0]["id"] = NULL_VENDOR
    with pytest.raises(DocumentError, match="reserved"):
        instance_from_dict(doc)
    doc = base_doc()
    doc["buyers"][0]["valuations"].append({"choice": ["s1"], "value": 1})
    with pytest.raises(DocumentError, match="duplicate choice"):
        instance_from_dict(doc)


def test_semantic_problems_left_to_validation():
    doc = base_doc()
    doc["vendors"].append({"id": "s1", "base_prices": [3], "discounts": []})
    market = instance_from_dict(doc)
    assert not validate_market(market).ok


def test_solution_round_trip(fix_e1, fix_e1_path, tmp_path):
    from gbb.cli import main

    out = tmp_path / "sol.json"
    assert main(["solve", fix_e1_path, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    parsed = solution_from_dict(data)
    assert parsed.social_welfare == 6
    assert parsed.allocation.choice == {
        "b1": ("s1", "s1"),
        "b2": ("s1", "s1"),
    }
    assert parsed.deltas == {"b1": Fraction(1), "b2": Fraction(-1)}
    assert dict(parsed.group_transfers.entries) == {("s1", ("s1",)): 1}
    assert parsed.matrix.entries == {("b1", "b2"): Fraction(1)}

    data["buyers"]["b1"]["mystery"] = 1
    with pytest.raises(DocumentError, match="unknown fields"):
        solution_from_dict(data)


def test_solution_rejects_bad_rational(fix_e1_path, tmp_path):
    from gbb.cli import main

    out = tmp_path / "sol.json"
    main(["solve", fix_e1_path, "--out", str(out)])
    data = json.loads(out.read_text())
    data["buyers"]["b1"]["delta"] = "0.5"
    with pytest.raises(DocumentError, match="rational"):
        solution_from_dict(data)


def _verify_with_repeat(tmp_path, capsys, field, entry):
    """``gbb verify`` on fix_e2's golden solution with ``entry`` appended
    to ``field``; returns the exit code and the parse error."""
    from gbb.cli import main

    with open(data_path("fix_e2.solve.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data[field].append(entry)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data))
    with pytest.raises(DocumentError, match="duplicate") as err:
        solution_from_dict(data)
    code = main(["verify", data_path("fix_e2.json"), str(path)])
    assert "duplicate" in capsys.readouterr().err
    return code, str(err.value)


def test_solution_rejects_repeated_transfer(tmp_path, capsys):
    entry = {"payer": "b1", "payee": "b3", "amount": "999"}
    code, message = _verify_with_repeat(tmp_path, capsys, "transfers", entry)
    assert code == 2
    assert "transfers[2]" in message


def test_solution_rejects_repeated_group_transfer(tmp_path, capsys):
    entry = {"vendor": "s1", "group": ["s1", "s2"], "amount": 12345}
    code, message = _verify_with_repeat(
        tmp_path, capsys, "group_transfers", entry
    )
    assert code == 2
    assert "group_transfers[1]" in message


def test_solution_rejects_non_positive_transfer_amount(tmp_path, capsys):
    from gbb.cli import main

    with open(data_path("fix_e2.solve.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    b1_to_b3, b2_to_b3 = data["transfers"]
    (s1_to_s1s2,) = data["group_transfers"]
    b3_to_b1 = {"payer": "b3", "payee": "b1", "amount": "-1"}
    b1_to_b2 = {"payer": "b1", "payee": "b2", "amount": "0"}
    unknown = {"vendor": "s9", "group": ["s9", "zz"]}
    path = tmp_path / "non_positive.json"
    for field, entries in (
        ("transfers", [b3_to_b1, b2_to_b3]),
        ("transfers", [b1_to_b3, b2_to_b3, b1_to_b2]),
        ("group_transfers", [s1_to_s1s2, {**unknown, "amount": 0}]),
        ("group_transfers", [s1_to_s1s2, {**unknown, "amount": -2}]),
    ):
        tampered = {**data, field: entries}
        with pytest.raises(DocumentError, match="must be positive"):
            solution_from_dict(tampered)
        path.write_text(json.dumps(tampered))
        assert main(["verify", data_path("fix_e2.json"), str(path)]) == 2
        assert "must be positive" in capsys.readouterr().err
