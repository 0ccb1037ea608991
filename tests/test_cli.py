"""CLI commands, exit codes, reproducibility, generator output."""

import json
import sys

import pytest

from gbb.cli import main
from gbb.generate import generate_instance
from gbb.model import validate_market
from gbb.verify import STANDARD_CHECKS
from tests.conftest import data_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_fix_e1(capsys, fix_e1_path):
    code, out, err = run(capsys, ["solve", fix_e1_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["social_welfare"] == 6
    assert doc["buyers"]["b1"]["final_price"] == "6"
    assert doc["buyers"]["b2"]["final_price"] == "4"
    assert doc["group_transfers"] == [
        {"vendor": "s1", "group": ["s1"], "amount": 1}
    ]
    assert doc["certificate"]["all_passed"] is True
    assert doc["metadata"]["partition_count"] == 45


def test_solve_fix_e2(capsys, fix_e2_path):
    code, out, _ = run(capsys, ["solve", fix_e2_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["social_welfare"] == 9
    assert {b: e["final_price"] for b, e in doc["buyers"].items()} == {
        "b1": "5",
        "b2": "5",
        "b3": "5",
    }
    assert doc["group_transfers"] == [
        {"vendor": "s1", "group": ["s1", "s2"], "amount": 2}
    ]
    assert doc["transfers"] == [
        {"payer": "b1", "payee": "b3", "amount": "1"},
        {"payer": "b2", "payee": "b3", "amount": "1"},
    ]


def test_solve_reproducible_bytes(fix_e2_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", fix_e2_path, "--out", str(a)]) == 0
    assert main(["solve", fix_e2_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_invalid_instance(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "schema": "gbb-market/1",
                "item_types": 2,
                "vendors": [
                    {
                        "id": "s1",
                        "base_prices": [4, 4],
                        "discounts": [
                            {"thresholds": [2, 2], "bundle_price": 9}
                        ],
                    }
                ],
                "buyers": [],
            }
        )
    )
    code, _, err = run(capsys, ["solve", str(bad)])
    assert code == 2
    assert "invalid instance" in err
    assert "not strictly below" in err


def test_solve_parse_error(capsys, tmp_path):
    bad = tmp_path / "nonsense.json"
    bad.write_text("{]")
    code, _, err = run(capsys, ["solve", str(bad)])
    assert code == 2
    assert "invalid JSON" in err


def test_solve_budget_exceeded(capsys, fix_e2_path):
    code, _, err = run(capsys, ["solve", fix_e2_path, "--max-partitions", "5"])
    assert code == 3
    assert "exceed the configured cap" in err


def test_unreadable_documents_exit_2(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"schema": "gbb-market/1\xff"}')
    code, _, err = run(capsys, ["solve", str(bad)])
    assert code == 2
    assert "invalid JSON" in err
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # interpreters with the int-from-string digit limit
        bad.write_text('{"item_types": ' + "1" * (limit + 1) + "}")
        code, _, err = run(capsys, ["solve", str(bad)])
        assert code == 2
        assert "invalid JSON" in err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (
        ["solve", str(deep)],
        ["verify", str(deep), data_path("fix_e1.solve.json")],
        ["verify", data_path("fix_e1.json"), str(deep)],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "nested too deeply" in err


def write_wide_instance(tmp_path, monkeypatch):
    """A 1-vendor, 1-buyer instance with 2^64 cells; building them fails."""
    from gbb.model import Market

    def unbuilt(market):
        raise AssertionError("vendor tuples built")

    monkeypatch.setattr(Market, "vendor_tuples", property(unbuilt))
    wide = tmp_path / "wide.json"
    wide.write_text(
        json.dumps(
            {
                "schema": "gbb-market/1",
                "item_types": 64,
                "vendors": [{"id": "s1", "base_prices": [1] * 64, "discounts": []}],
                "buyers": [{"id": "b1", "valuations": []}],
            }
        )
    )
    return wide


def test_counts_and_caps_do_not_build_the_cells(capsys, tmp_path, monkeypatch):
    wide = write_wide_instance(tmp_path, monkeypatch)
    code, out, _ = run(capsys, ["partitions", str(wide)])
    assert code == 0
    assert out.strip() == f"buyers=1 cells={2**64} partitions={2**64}"
    for command in ("solve", "oracle"):
        code, _, err = run(capsys, [command, str(wide)])
        assert code == 3
        assert "exceed the configured cap" in err


def test_verify_does_not_build_the_cells(capsys, tmp_path, monkeypatch):
    wide = write_wide_instance(tmp_path, monkeypatch)
    sol = tmp_path / "wide.solve.json"
    sol.write_text(
        json.dumps(
            {
                "schema": "gbb-solution/1",
                "social_welfare": 0,
                "allocation": {"b1": ["null"] * 64},
                "buyers": {
                    "b1": {
                        "market_price": 0,
                        "delta": "0",
                        "final_price": "0",
                        "utility": 0,
                        "surplus": 0,
                    }
                },
                "group_transfers": [],
                "transfers": [],
                "certificate": None,
                "metadata": {},
            }
        )
    )
    code, out, _ = run(capsys, ["verify", str(wide), str(sol)])
    assert code == 0
    assert out.splitlines() == [f"{check}: PASS" for check in STANDARD_CHECKS]


def write_instance(path, item_types, vendors, n_buyers):
    """An instance document whose ``n_buyers`` buyers value nothing."""
    path.write_text(
        json.dumps(
            {
                "schema": "gbb-market/1",
                "item_types": item_types,
                "vendors": vendors,
                "buyers": [
                    {"id": f"b{i}", "valuations": []} for i in range(n_buyers)
                ],
            }
        )
    )
    return str(path)


def assert_clean(err):
    assert "Traceback" not in err
    assert "internal error" not in err


def test_oracle_refuses_an_allocation_count_too_long_for_decimal(capsys, tmp_path):
    # 9^4600 allocations have 4 390 digits, past what str() converts.
    market = str(tmp_path / "g.json")
    argv = ["gen", "--buyers", "4600", "--vendors", "2", "--items", "2", "--seed", "1"]
    assert main(argv + ["--out", market]) == 0
    code, _, err = run(capsys, ["oracle", market])
    assert code == 3
    assert "a 14582-bit number allocations exceed the configured cap" in err
    assert_clean(err)


def test_counts_too_long_for_decimal_print_as_bit_lengths(capsys, tmp_path):
    vendors = [{"id": "s1", "base_prices": [1] * 64, "discounts": []}]
    market = write_instance(tmp_path / "wide300.json", 64, vendors, 300)
    code, out, err = run(capsys, ["partitions", market])
    assert code == 0
    assert out.strip() == f"buyers=300 cells={2**64} partitions=a 17159-bit number"
    assert_clean(err)
    for command, bits in (("solve", 17159), ("oracle", 19201)):
        code, _, err = run(capsys, [command, market])
        assert code == 3, command
        assert f"a {bits}-bit number" in err
        assert_clean(err)


def test_item_types_over_the_limit_exit_2(capsys, tmp_path):
    market = write_instance(tmp_path / "huge.json", 10**12, [], 1)
    for argv in (
        ["partitions", market],
        ["solve", market],
        ["verify", market, data_path("fix_e1.solve.json")],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv[0]
        assert "item_types: must be <= 1024" in err
        assert_clean(err)
    argv = ["gen", "--buyers", "1", "--vendors", "1", "--seed", "1"]
    code, _, err = run(capsys, argv + ["--items", str(10**12)])
    assert code == 2
    assert "items <= 1024" in err
    assert_clean(err)


def test_gen_refuses_amounts_past_64_bits(capsys, tmp_path):
    # a bundle price reaches items * max_value - 1, which every document
    # reader bounds below 2^63
    too_large = (
        ["--vendors", "2", "--items", "1", "--seed", "3", "--max-value", str(2**64)],
        ["--vendors", "1", "--items", "2", "--seed", "1", "--max-value", str(2**63 - 1)],
        ["--vendors", "1", "--items", "2", "--seed", "2", "--max-value", str(2**63 - 1)],
    )
    for argv in too_large:
        code, out, err = run(capsys, ["gen", "--buyers", "3"] + argv)
        assert (code, out) == (2, ""), argv
        assert f"items * max_value < {2**63}" in err
        assert_clean(err)
    market = str(tmp_path / "wide.json")
    for seed in ("1", "2", "3"):
        argv = ["gen", "--buyers", "3", "--vendors", "1", "--items", "2", "--seed", seed]
        assert main(argv + ["--max-value", str(2**62 - 1), "--out", market]) == 0
        code, out, err = run(capsys, ["solve", market])
        assert (code, err) == (0, ""), seed
        assert json.loads(out)["certificate"]["all_passed"] is True


def test_solve_unstabilizable_exit(capsys, fix_e1_path, monkeypatch):
    import gbb.cli as cli
    from gbb.model import Allocation
    from gbb.swm import SwmResult

    def fake_solve(market, max_partitions=0):
        alloc = Allocation({"b1": ("s2", "s2"), "b2": ("s1", "s1")})
        return SwmResult(
            allocation=alloc,
            social_welfare=0,
            partitions_evaluated=1,
            partitions_priced=1,
            flows_solved=1,
        )

    # An earlier call builds the parser; the patch must still take effect.
    assert run(capsys, ["solve", fix_e1_path])[0] == 0
    monkeypatch.setattr(cli, "solve_swm", fake_solve)
    code, _, err = run(capsys, ["solve", fix_e1_path])
    assert code == 4
    assert "cannot stabilize" in err


def test_solve_no_certify(capsys, fix_e1_path):
    code, out, _ = run(capsys, ["solve", fix_e1_path, "--no-certify"])
    assert code == 0
    assert json.loads(out)["certificate"] is None


def test_solve_timings_flag(capsys, fix_e1_path):
    code, out, _ = run(capsys, ["solve", fix_e1_path, "--timings"])
    assert code == 0
    timings = json.loads(out)["metadata"]["timings"]
    assert set(timings) == {"solve_s", "transfers_s", "total_s"}


def test_oracle_matches_solve(capsys, fix_e1_path, fix_e2_path):
    for path, expected in ((fix_e1_path, 6), (fix_e2_path, 9)):
        code, out, _ = run(capsys, ["oracle", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["social_welfare"] == expected
        assert doc["metadata"]["solver"] == "exhaustive"


def test_oracle_budget(capsys, fix_e2_path):
    code, _, err = run(capsys, ["oracle", fix_e2_path, "--max-allocations", "10"])
    assert code == 3


def test_oracle_five_buyers_under_a_second(capsys, tmp_path):
    import time

    inst = tmp_path / "n5.json"
    run(
        capsys,
        ["gen", "--buyers", "5", "--vendors", "2", "--items", "2",
         "--seed", "11", "--out", str(inst)],
    )
    started = time.perf_counter()
    code, out, _ = run(capsys, ["oracle", str(inst)])
    assert code == 0
    assert time.perf_counter() - started < 1.0
    assert json.loads(out)["metadata"]["partition_count"] == 9**5


def test_gen_deterministic_and_valid(capsys, tmp_path):
    argv = ["gen", "--buyers", "4", "--vendors", "2", "--items", "2", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 == open(data_path("gen_b4_v2_c2_s7.json")).read()


def test_gen_sweep_validates():
    for seed in range(30):
        market = generate_instance(
            buyers=seed % 5,
            vendors=1 + seed % 3,
            items=1 + seed % 2,
            seed=seed,
            max_value=1 + seed % 20,
        )
        assert validate_market(market).ok, seed


def test_gen_zero_buyers_flows_through(capsys, tmp_path):
    inst = tmp_path / "empty.json"
    code, _, _ = run(
        capsys,
        ["gen", "--buyers", "0", "--vendors", "2", "--items", "2",
         "--seed", "3", "--out", str(inst)],
    )
    assert code == 0
    code, out, _ = run(capsys, ["solve", str(inst)])
    assert code == 0
    doc = json.loads(out)
    assert doc["social_welfare"] == 0
    assert doc["allocation"] == {}


def test_verify_round_trip(capsys, fix_e1_path, tmp_path):
    sol = tmp_path / "sol.json"
    assert main(["solve", fix_e1_path, "--out", str(sol)]) == 0
    code, out, _ = run(capsys, ["verify", fix_e1_path, str(sol)])
    assert code == 0
    assert out.count("PASS") == 6


def test_verify_detects_tampered_delta(capsys, fix_e1_path, tmp_path):
    sol = tmp_path / "sol.json"
    main(["solve", fix_e1_path, "--out", str(sol)])
    doc = json.loads(sol.read_text())
    # market price 5 plus the tampered delta, so the document stays
    # self-consistent and reaches the certificate
    doc["buyers"]["b1"]["delta"] = "2"
    doc["buyers"]["b1"]["final_price"] = "7"
    sol.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", fix_e1_path, str(sol)])
    assert code == 1
    assert "budget_balance: FAIL" in out
    assert "p_consistent: FAIL" in out
    assert "stable: PASS" in out
    assert "fair: PASS" in out


def permuted(doc):
    """``doc`` with its buyer and allocation objects in reverse key order and
    its transfer lists reversed."""
    doc = dict(doc)
    for key in ("buyers", "allocation"):
        doc[key] = dict(reversed(list(doc[key].items())))
    for key in ("transfers", "group_transfers"):
        doc[key] = doc[key][::-1]
    return doc


@pytest.mark.parametrize("fixture", ["fix_e1", "fix_e2", "gen_b4_v2_c2_s7"])
@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_verify_output_does_not_depend_on_document_order(
    capsys, tmp_path, fixture, command
):
    instance = data_path(f"{fixture}.json")
    with open(data_path(f"{fixture}.{command}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    cases = [(doc, 0, 0)]
    if fixture == "fix_e2":
        # premiums that break fairness, the transfers and budget balance,
        # so that three checks print witnesses
        tampered = json.loads(json.dumps(doc))
        tampered["buyers"]["b1"].update(delta="3", final_price="7")
        tampered["buyers"]["b3"].update(delta="-3", final_price="4")
        cases.append((tampered, 1, 4))
        # two cross transfers, whose witnesses print in sorted order
        crossed = json.loads(json.dumps(doc))
        crossed["group_transfers"] += [
            {"vendor": "s2", "group": ["s1"], "amount": 1},
            {"vendor": "s1", "group": ["s2"], "amount": 2},
        ]
        cases.append((crossed, 1, 2))
    sol = tmp_path / "sol.json"
    for original, exit_code, witnesses in cases:
        sol.write_text(json.dumps(original))
        code, out, err = run(capsys, ["verify", instance, str(sol)])
        assert (code, err) == (exit_code, "")
        assert out.count("\n  - ") == witnesses
        sol.write_text(json.dumps(permuted(original)))
        assert run(capsys, ["verify", instance, str(sol)]) == (code, out, "")


def test_verify_rejects_stored_fields_that_contradict_the_instance(
    capsys, fix_e2_path, tmp_path
):
    sol = tmp_path / "sol.json"
    for buyer, field, value in (
        ("b1", "market_price", 1),
        ("b1", "final_price", "99"),
        ("b1", "utility", 77),
        ("b1", "surplus", -5),
        (None, "social_welfare", 12345),
    ):
        with open(data_path("fix_e2.solve.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        (doc if buyer is None else doc["buyers"][buyer])[field] = value
        sol.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", fix_e2_path, str(sol)])
        assert code == 2, field
        assert out == ""
        assert f"stored {field} {value} != derived" in err
        if buyer is not None:
            assert f"buyer {buyer}:" in err

    # b1's derived final price is 1 + 10/3 = 13/3: a stored value sharing
    # only its numerator or only its denominator is rejected, and the same
    # value written out of lowest terms verifies.
    instance = tmp_path / "g3.json"
    solved = tmp_path / "g3.solve.json"
    gen = ["gen", "--buyers", "3", "--vendors", "2", "--items", "2", "--seed", "2"]
    assert main([*gen, "--out", str(instance)]) == 0
    assert main(["solve", str(instance), "--out", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    assert (doc["buyers"]["b1"]["delta"], doc["buyers"]["b1"]["final_price"]) == (
        "10/3",
        "13/3",
    )
    for value, want in (("13/2", 2), ("11/3", 2), ("26/6", 0)):
        doc["buyers"]["b1"]["final_price"] = value
        sol.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", str(instance), str(sol)])
        assert code == want, value
        if want:
            assert out == ""
            assert err == (
                f"error: buyer b1: stored final_price {value} != derived 13/3\n"
            )
        else:
            assert err == ""
            assert out.count(": PASS") == 6


def test_verify_buyer_set_mismatch(capsys, fix_e1_path, fix_e2_path, tmp_path):
    sol = tmp_path / "sol.json"
    main(["solve", fix_e2_path, "--out", str(sol)])
    code, _, err = run(capsys, ["verify", fix_e1_path, str(sol)])
    assert code == 2
    assert "buyer set" in err


def test_partitions_command(capsys, fix_e2_path):
    code, out, _ = run(capsys, ["partitions", fix_e2_path])
    assert code == 0
    assert out.strip() == "buyers=3 cells=9 partitions=165"


def test_solve_rejects_the_jobs_flag(capsys, fix_e2_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", fix_e2_path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", ["fix_e1", "fix_e2", "gen_b4_v2_c2_s7"])
@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_fixture_documents_match_golden_bytes(fixture, command, tmp_path):
    out = tmp_path / "out.json"
    instance = data_path(f"{fixture}.json")
    assert main([command, instance, "--out", str(out)]) == 0
    with open(data_path(f"{fixture}.{command}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_solve_derives_the_tiers_twice_and_verify_once(
    capsys, fix_e2_path, monkeypatch
):
    # ``solve`` derives them for the group partition and again for the price
    # vector; transfers, certify and the stored utilities reuse them.
    # ``verify`` derives them once, for the group partition, and certifies
    # the stored price vector.
    import gbb.model

    calls = []
    triggered_tiers = gbb.model.triggered_tiers

    def counting(market, demand):
        calls.append(demand)
        return triggered_tiers(market, demand)

    monkeypatch.setattr(gbb.model, "triggered_tiers", counting)
    code, _, _ = run(capsys, ["solve", fix_e2_path])
    assert code == 0
    assert len(calls) == 2
    calls.clear()
    code, _, _ = run(capsys, ["verify", fix_e2_path, data_path("fix_e2.solve.json")])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", data_path("fix_e1.json")],
        ["oracle", data_path("fix_e1.json")],
        ["gen", "--buyers", "2", "--vendors", "1", "--items", "1", "--seed", "1"],
    ],
    ids=["solve", "oracle", "gen"],
)
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "out.json"
    code, _, err = run(capsys, argv + ["--out", str(out)])
    assert code == 2
    assert f"error: cannot write {out}:" in err
    assert "Traceback" not in err


def test_internal_error_exits_5(capsys, fix_e1_path, monkeypatch):
    import gbb.cli as cli

    def broken_solve(market, max_partitions=0):
        raise RuntimeError("assignment flow routed 1 of 2 buyers")

    monkeypatch.setattr(cli, "solve_swm", broken_solve)
    code, out, err = run(capsys, ["solve", fix_e1_path])
    assert code == 5
    assert out == ""
    assert err == (
        "error: internal error: RuntimeError: "
        "assignment flow routed 1 of 2 buyers\n"
    )

    class Interrupt(BaseException):
        pass

    def interrupted(market, max_partitions=0):
        raise Interrupt()

    # BaseExceptions (a timeout's interrupt, KeyboardInterrupt) propagate.
    monkeypatch.setattr(cli, "solve_swm", interrupted)
    with pytest.raises(Interrupt):
        main(["solve", fix_e1_path])


def test_parser_is_built_once_per_process(capsys, fix_e1_path, monkeypatch):
    import argparse

    import gbb.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        assert run(capsys, ["solve", fix_e1_path])[0] == 0
        once = len(built)
        assert once > 0
        assert run(capsys, ["partitions", fix_e1_path])[0] == 0
        assert run(capsys, ["solve", fix_e1_path, "--no-certify"])[0] == 0
        assert len(built) == once
        assert cli.build_parser() is cli.build_parser()
    finally:
        cli.build_parser.cache_clear()


def test_repeated_calls_in_one_process_keep_golden_bytes(capsys, tmp_path):
    out = tmp_path / "out.json"
    for _ in range(2):
        for fixture in ("fix_e1", "fix_e2", "gen_b4_v2_c2_s7"):
            instance = data_path(f"{fixture}.json")
            golden = data_path(f"{fixture}.solve.json")
            assert main(["solve", instance, "--out", str(out)]) == 0
            with open(golden, "rb") as fh:
                assert out.read_bytes() == fh.read()
            code, _, _ = run(capsys, ["verify", instance, golden])
            assert code == 0
            with pytest.raises(SystemExit) as exc:
                main(["solve", instance, "--no-such-flag"])
            assert exc.value.code == 2
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--help"])
            assert exc.value.code == 0
            capsys.readouterr()


def test_help_width_is_read_when_help_is_formatted(capsys, monkeypatch):
    widths = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        widths[columns] = max(map(len, capsys.readouterr().out.splitlines()))
    assert widths["40"] < widths["200"]
