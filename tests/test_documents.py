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
    load_solution,
    rational_from_str,
    rational_to_str,
    solution_from_dict,
    solution_to_dict,
    to_canonical_json,
)
from gbb.model import NULL_VENDOR, validate_market
from gbb.transfers import PriceEntry

from tests.conftest import data_path

GOLDEN_NAMES = ("fix_e1", "fix_e2", "gen_b4_v2_c2_s7")


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
    assert parsed.prices.entries == {
        "b1": PriceEntry(market_price=5, delta=Fraction(1), final=Fraction(6)),
        "b2": PriceEntry(market_price=5, delta=Fraction(-1), final=Fraction(4)),
    }
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


def test_solution_rejects_a_self_transfer(tmp_path, capsys):
    # A self-transfer nets to zero, so every check would pass on it; the
    # fair split never writes one (payers gain surplus, payees lose it).
    from gbb.cli import main

    with open(data_path("fix_e2.solve.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["transfers"].append({"payer": "b1", "payee": "b1", "amount": "1"})
    with pytest.raises(DocumentError) as err:
        solution_from_dict(data)
    assert str(err.value) == "transfers[2]: payer 'b1' pays itself"
    path = tmp_path / "self_transfer.json"
    path.write_text(json.dumps(data))
    assert main(["verify", data_path("fix_e2.json"), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: transfers[2]: payer 'b1' pays itself\n"


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


def _golden(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return json.load(fh)


# The golden document each reader's cases are cut from.
_READERS = {
    "instance": ("fix_e1.json", instance_from_dict),
    "solution": ("fix_e2.solve.json", solution_from_dict),
}


# Each record a reader validates: the reader, the keys leading to it in
# that reader's golden document, its name in messages and its fields.
_RECORDS = (
    ("instance", (), "instance", ("schema", "item_types", "vendors", "buyers")),
    ("instance", ("vendors", 0), "vendors[0]", ("id", "base_prices", "discounts")),
    (
        "instance",
        ("vendors", 0, "discounts", 0),
        "vendors[0].discounts[0]",
        ("thresholds", "bundle_price"),
    ),
    ("instance", ("buyers", 0), "buyers[0]", ("id", "valuations")),
    (
        "instance",
        ("buyers", 0, "valuations", 0),
        "buyers[0].valuations[0]",
        ("choice", "value"),
    ),
    (
        "solution",
        (),
        "solution",
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
    ),
    (
        "solution",
        ("buyers", "b1"),
        "buyers['b1']",
        ("market_price", "delta", "final_price", "utility", "surplus"),
    ),
    (
        "solution",
        ("group_transfers", 0),
        "group_transfers[0]",
        ("vendor", "group", "amount"),
    ),
    ("solution", ("transfers", 0), "transfers[0]", ("payer", "payee", "amount")),
)


def _record_faults():
    for kind, path, where, fields in _RECORDS:
        yield pytest.param(
            kind, path, "replace", None, f"{where}: expected an object",
            id=f"{where}-not-object",
        )
        yield pytest.param(
            kind, path, "add", "zz", f"{where}: unknown fields ['zz']",
            id=f"{where}-unknown",
        )
        for field in fields:
            yield pytest.param(
                kind, path, "delete", field, f"{where}: missing field {field!r}",
                id=f"{where}-missing-{field}",
            )


@pytest.mark.parametrize("kind, path, fault, field, message", _record_faults())
def test_every_record_rejection_names_its_record(kind, path, fault, field, message):
    name, reader = _READERS[kind]
    doc = _golden(name)
    holder, record = None, doc
    for key in path:
        holder, record = record, record[key]
    if fault == "replace":
        if holder is None:
            doc = 5
        else:
            holder[path[-1]] = 5
    elif fault == "add":
        record[field] = 1
    else:
        del record[field]
    with pytest.raises(DocumentError) as err:
        reader(doc)
    assert str(err.value) == message


# Field-level faults, mostly in a record after the first, with the exact
# message each gives; the locations are added only once a field is rejected.
_FIELD_FAULTS = (
    ("instance", ("buyers", 1, "id"), 5, "buyers[1].id: expected a nonempty string"),
    (
        "instance",
        ("buyers", 1, "valuations", 1, "value"),
        True,
        "buyers[1].valuations[1].value: expected an integer",
    ),
    (
        "instance",
        ("buyers", 1, "valuations", 1, "value"),
        1.5,
        "buyers[1].valuations[1].value: expected an integer",
    ),
    (
        "instance",
        ("buyers", 1, "valuations", 1, "value"),
        2**63,
        "buyers[1].valuations[1].value: magnitude exceeds 64-bit range",
    ),
    (
        "instance",
        ("buyers", 1, "valuations", 0, "choice", 1),
        "",
        "buyers[1].valuations[0].choice[1]: expected a nonempty string",
    ),
    (
        "instance",
        ("buyers", 1, "valuations", 1, "choice"),
        ["s1", "s1"],
        "buyers[1].valuations[1]: duplicate choice ('s1', 's1')",
    ),
    (
        "instance",
        ("vendors", 0, "base_prices", 1),
        "4",
        "vendors[0].base_prices[1]: expected an integer",
    ),
    ("instance", ("vendors", 1, "id"), 3, "vendors[1].id: expected a nonempty string"),
    (
        "instance",
        ("vendors", 0, "discounts", 0, "thresholds", 1),
        None,
        "vendors[0].discounts[0].thresholds[1]: expected an integer",
    ),
    (
        "instance",
        ("vendors", 0, "discounts", 0, "bundle_price"),
        False,
        "vendors[0].discounts[0].bundle_price: expected an integer",
    ),
    (
        "solution",
        ("allocation", "b2", 0),
        "",
        "allocation['b2'][0]: expected a nonempty string",
    ),
    (
        "solution",
        ("buyers", "b2", "market_price"),
        "4",
        "buyers['b2'].market_price: expected an integer",
    ),
    (
        "solution",
        ("buyers", "b2", "utility"),
        5.0,
        "buyers['b2'].utility: expected an integer",
    ),
    (
        "solution",
        ("buyers", "b2", "surplus"),
        -(2**63),
        "buyers['b2'].surplus: magnitude exceeds 64-bit range",
    ),
    (
        "solution",
        ("buyers", "b2", "delta"),
        1,
        "buyers['b2'].delta: not a rational literal: 1",
    ),
    (
        "solution",
        ("transfers", 1, "payer"),
        "",
        "transfers[1].payer: expected a nonempty string",
    ),
    (
        "solution",
        ("transfers", 1, "payee"),
        None,
        "transfers[1].payee: expected a nonempty string",
    ),
    (
        "solution",
        ("transfers", 1, "payer"),
        "b3",
        "transfers[1]: payer 'b3' pays itself",
    ),
    # b3's delta is "-2": an accepted literal, not yet checked as an amount.
    (
        "solution",
        ("transfers", 1, "amount"),
        "-2",
        "transfers[1]: amount -2 must be positive",
    ),
    (
        "solution",
        ("group_transfers", 0, "vendor"),
        1,
        "group_transfers[0].vendor: expected a nonempty string",
    ),
    (
        "solution",
        ("group_transfers", 0, "group", 0),
        "",
        "group_transfers[0].group[0]: expected a nonempty string",
    ),
)


@pytest.mark.parametrize(
    "kind, path, value, message",
    [
        pytest.param(*fault, id=f"{'.'.join(map(str, fault[1]))}={fault[2]!r}")
        for fault in _FIELD_FAULTS
    ],
)
def test_field_rejection_names_the_field(kind, path, value, message):
    name, reader = _READERS[kind]
    doc = _golden(name)
    record = doc
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value
    with pytest.raises(DocumentError) as err:
        reader(doc)
    assert str(err.value) == message


# In fix_e2.solve.json b2's record repeats b1's.  Each case breaks one field
# of b2 after b1 is accepted, first setting that field of both to the
# number a bool or a float equals, so that only the field check can reject
# it.
_REPEATED_RECORD_FAULTS = (
    ("delta", [], None, "buyers['b2'].delta: not a rational literal: []"),
    ("delta", {}, None, "buyers['b2'].delta: not a rational literal: {}"),
    ("market_price", True, 1, "buyers['b2'].market_price: expected an integer"),
    ("market_price", 5.0, 5, "buyers['b2'].market_price: expected an integer"),
    ("utility", True, 1, "buyers['b2'].utility: expected an integer"),
    ("utility", 5.0, None, "buyers['b2'].utility: expected an integer"),
    ("surplus", 4.0, None, "buyers['b2'].surplus: expected an integer"),
    ("surplus", [], None, "buyers['b2'].surplus: expected an integer"),
    (
        "final_price",
        "5.0",
        None,
        "buyers['b2'].final_price: not a rational literal: '5.0'",
    ),
    ("final_price", 5, None, "buyers['b2'].final_price: not a rational literal: 5"),
    (
        "final_price",
        ["5"],
        None,
        "buyers['b2'].final_price: not a rational literal: ['5']",
    ),
)


@pytest.mark.parametrize(
    "field, value, accepted, message",
    [
        pytest.param(*fault, id=f"{fault[0]}={fault[1]!r}")
        for fault in _REPEATED_RECORD_FAULTS
    ],
)
def test_a_repeated_record_with_one_bad_field_is_rejected(
    field, value, accepted, message, tmp_path, capsys
):
    from gbb.cli import main

    doc = _golden("fix_e2.solve.json")
    buyers = doc["buyers"]
    assert buyers["b2"] == buyers["b1"]
    if accepted is not None:
        buyers["b1"][field] = buyers["b2"][field] = accepted
    buyers["b2"][field] = value
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", data_path("fix_e2.json"), str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name", [f"{n}.{kind}.json" for n in GOLDEN_NAMES for kind in ("solve", "oracle")]
)
def test_golden_solutions_round_trip_byte_for_byte(name):
    path = data_path(name)
    with open(path, encoding="utf-8") as fh:
        assert to_canonical_json(solution_to_dict(load_solution(path))) == fh.read()


def test_canonical_json_leaves_no_reference_cycles():
    import gc

    doc = solution_to_dict(load_solution(data_path("fix_e2.solve.json")))
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            to_canonical_json(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "kind, path, message",
    [
        ("instance", ("vendors", 0, "base_prices"), "vendors[0].base_prices"),
        ("instance", ("vendors", 0, "discounts"), "vendors[0].discounts"),
        (
            "instance",
            ("vendors", 0, "discounts", 0, "thresholds"),
            "vendors[0].discounts[0].thresholds",
        ),
        ("instance", ("buyers", 1, "valuations"), "buyers[1].valuations"),
        (
            "instance",
            ("buyers", 1, "valuations", 0, "choice"),
            "buyers[1].valuations[0].choice",
        ),
        ("solution", ("group_transfers", 0, "group"), "group_transfers[0].group"),
    ],
)
def test_non_list_rejection_names_the_field(kind, path, message):
    name, reader = _READERS[kind]
    doc = _golden(name)
    record = doc
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = 7
    with pytest.raises(DocumentError) as err:
        reader(doc)
    assert str(err.value) == f"{message}: expected a list"


@pytest.mark.parametrize(
    "path, message",
    [
        (("buyers", "b1", "delta"), "buyers['b1'].delta"),
        (("buyers", "b3", "final_price"), "buyers['b3'].final_price"),
        (("transfers", 1, "amount"), "transfers[1].amount"),
    ],
)
def test_bad_rational_names_the_field(path, message):
    doc = _golden("fix_e2.solve.json")
    doc[path[0]][path[1]][path[2]] = "x"
    with pytest.raises(DocumentError, match="rational") as err:
        solution_from_dict(doc)
    assert str(err.value) == f"{message}: not a rational literal: 'x'"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("metadata", 5, "metadata: expected an object"),
        ("certificate", "yes", "certificate: expected an object or null"),
        ("certificate", [1], "certificate: expected an object or null"),
    ],
)
def test_verify_rejects_mistyped_certificate_and_metadata(
    field, value, message, tmp_path, capsys
):
    from gbb.cli import main

    doc = _golden("fix_e1.solve.json")
    doc[field] = value
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", data_path("fix_e1.json"), str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_accepts_a_null_certificate(tmp_path, capsys):
    from gbb.cli import main

    doc = _golden("fix_e1.solve.json")
    doc["certificate"] = None
    path = tmp_path / "uncertified.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", data_path("fix_e1.json"), str(path)]) == 0
    assert solution_from_dict(doc).certificate is None


@pytest.mark.parametrize(
    "name, path, constant",
    [
        ("fix_e1.solve.json", ("metadata", "x"), float("nan")),
        ("fix_e1.solve.json", ("certificate", "all_passed"), float("inf")),
        ("fix_e1.json", ("buyers", 0, "valuations", 0, "value"), float("-inf")),
    ],
)
def test_verify_rejects_non_finite_json_constants(
    name, path, constant, tmp_path, capsys
):
    # Python's json reads NaN, Infinity and -Infinity, which JSON forbids;
    # a document carrying one must exit 2, not be re-emitted as is.
    from gbb.cli import main

    doc = _golden(name)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = constant
    mutated = tmp_path / name
    mutated.write_text(json.dumps(doc, allow_nan=True))
    names = ["fix_e1.json", "fix_e1.solve.json"]
    args = [data_path(n) for n in names]
    args[names.index(name)] = str(mutated)
    assert main(["verify", *args]) == 2
    word = json.dumps(constant, allow_nan=True)
    assert f"invalid JSON ({word} is not a JSON value)" in capsys.readouterr().err
