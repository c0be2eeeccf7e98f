import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from valring.cli import (MAX_DEPTH, MAX_NESTING, JobConfig, _int_text, deserialize,
                         fmt_unipoly, fmt_value, fmt_xpoly, main, parse_unipoly,
                         parse_value, parse_xpoly, run, serialize)
from valring.algebra import INF, UniPoly
from valring.errors import MalformedInput
from valring.keychain import IMAX, segment
from valring.presentrel import ideal_generators
from valring.rewrite import building, reduction
from valring.xpoly import XPoly, monom

from conftest import GA, rand_xpoly

EXA = {"p": 2, "g": ["3", "0", "1"], "branch": "unique", "depth": 8, "mode": "full"}
EXC = {"p": 2, "g": ["7", "0", "1"], "branch": [[0, 0]], "depth": 4, "mode": "full"}


def cfg(doc):
    return JobConfig(dict(doc))


class TestFormats:
    def test_values(self):
        assert fmt_value(-3) == "-3"
        assert fmt_value(INF) == "inf"
        assert parse_value("inf") is INF
        assert parse_value("-3/4") == -0.75

    def test_unipoly_roundtrip(self):
        u = UniPoly(("1/2", "1/2"))
        assert parse_unipoly(fmt_unipoly(u)) == u

    def test_xpoly_roundtrip(self):
        F = 4 * XPoly.var(1) ** 2 - XPoly.var(0) / 3 + XPoly.const(1)
        assert parse_xpoly(fmt_xpoly(F)) == F

    def test_parse_error_carries_location(self):
        with pytest.raises(MalformedInput) as e:
            deserialize("{bad json")
        assert "line" in str(e.value)


def old_parse_value(s):
    """parse_value before its integer fast path: everything through Fraction,
    after the digit bound on decimal and exponent notation."""
    if s == "inf":
        return INF
    if isinstance(s, float):
        raise MalformedInput(f"JSON float {s!r}")
    m = re.fullmatch(r"\s*[-+]?([\d_]*)\.?([\d_]*)(?:[eE]([-+]?[\d_]+))?\s*", s) \
        if isinstance(s, str) else None
    try:
        if m and (max(len(m[1].replace("_", "")), 1) + len(m[2].replace("_", ""))
                  + abs(int(m[3] or 0)) > sys.get_int_max_str_digits()):
            raise MalformedInput(f"{s!r} past the digit limit")
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedInput(f"bad rational {s!r}: {e}")


def old_parse_xpoly(arr):
    """parse_xpoly before its integer fast path: the normalizing constructor."""
    terms = []
    for item in arr:
        mono = [(int(k), v) for k, v in item["e"].items()]
        terms.append((tuple(sorted(mono)), old_parse_value(item["c"])))
    return XPoly(terms)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except MalformedInput:
        return "malformed", None


SCALARS = (st.integers() | st.booleans() | st.floats() | st.none()
           | st.from_regex(r"-?[0-9]{1,40}", fullmatch=True)
           | st.text(alphabet="-+0123456789/._e ", max_size=8)
           | st.text(max_size=4) | st.just("inf"))


def parse_dec(text):
    """An int from its decimal text at any length, 1,000 digits at a time."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


class TestIntegerFastPath:
    @given(SCALARS)
    @example("5.0")
    @example(" 5 ")
    @example("1e3")
    @example("3/6")
    @example("5_000")
    @example("\u0663")
    @example("-0")
    @example("+7")
    @example("7\n")
    @example("1e4299")      # 4,300 digits: the bound
    @example("1e4300")
    @example("12e4298")
    @example("1.5e4298")
    @example("1.5e4299")
    @example("1e-4299")
    @example("1e-4300")
    @example(".5e-4298")
    @example(".5e-4299")
    @example("1_0e4298")
    @example("1e1_000_000")
    @example("-0e9999999")
    @example("0." + "1" * 4299)
    @example("0." + "1" * 4300)
    @example("+" + "1" * 4300)
    @example("+" + "1" * 4301)
    def test_parse_value_matches_fraction_route(self, s):
        got, want = outcome(parse_value, s), outcome(old_parse_value, s)
        assert got == want
        if type(s) is int or isinstance(s, str) and re.fullmatch("-?[0-9]+", s):
            assert type(got[1]) is int

    @given(st.lists(st.fixed_dictionaries({
        "c": st.integers(-50, 50) | st.sampled_from(["3", "-4", "1/2", "0", "6/3", "0.5"]),
        "e": st.dictionaries(st.sampled_from(["0", "1", "00", "2"]), st.integers(1, 3),
                             max_size=3)}), max_size=6))
    def test_parse_xpoly_matches_constructor_route(self, arr):
        got, want = outcome(parse_xpoly, arr), outcome(old_parse_xpoly, arr)
        assert got == want
        if got[0] == "ok":
            assert all(m == monom(dict(m)) for m in got[1].nums)

    def test_integer_payload_is_canonical(self):
        F = parse_xpoly([{"c": 2, "e": {"0": 1}}, {"c": "-2", "e": {"0": 1}},
                         {"c": "6", "e": {}}])
        assert F.nums == {(): 6} and F.den == 1 and F == XPoly.const(6)


class TestLongIntegers:
    @pytest.mark.parametrize("n", [0, 7, -7, 10 ** 4299, 10 ** 4300, -(10 ** 4300) - 1,
                                   3 ** 20000, -(10 ** 9001) + 10 ** 4500],
                             ids=lambda n: f"{'-' if n < 0 else ''}{n.bit_length()}bits")
    def test_int_text_at_any_size(self, n):
        text = _int_text(n)
        assert parse_dec(text) == n
        assert text.lstrip("-")[0] != "0" or n == 0

    def test_serialize_and_fmt_value_write_long_ints(self):
        n = 7 ** 9000
        assert serialize({"n": n}) == '{\n "n": ' + _int_text(n) + "\n}\n"
        assert fmt_value(Fraction(1, n)) == "1/" + _int_text(n)
        assert fmt_value(-n) == _int_text(-n)


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(MalformedInput):
            cfg({**EXA, "bogus": 1})

    def test_missing_g(self):
        with pytest.raises(MalformedInput):
            cfg({"p": 2})

    def test_bad_branch(self):
        with pytest.raises(MalformedInput):
            cfg({**EXA, "branch": "pick-one"})


class TestRun:
    def test_chain(self):
        doc = run("chain", cfg(EXA))
        assert [e["Q"] for e in doc["entries"]] == [["0", "1"], ["1", "1"], ["3", "0", "1"]]
        assert [e["gamma"] for e in doc["entries"]] == ["0", "1", "inf"]
        assert doc["validation_passed"]

    def test_present_exa(self):
        doc = run("present", cfg(EXA))
        assert len(doc["I1"]) == 1 and len(doc["I2"]) == 1
        assert doc["I2"][0]["b"] == "1/4"

    def test_present_exc_includes_redundancy(self):
        doc = run("present", cfg(EXC))
        assert len(doc["I1"]) == 3 and len(doc["I2"]) == 4
        assert [r["c0"] for r in doc["redundancy"]] == ["8", "2", "8"]

    def test_eval(self):
        doc = run("eval", cfg({**EXA, "payload": {"poly": ["3", "0", "1"]}}))
        assert doc["truncations"] == {"0": "0", "1": "2"}
        assert doc["nu"] == "inf"

    def test_expand(self):
        doc = run("expand", cfg({**EXA, "payload": {"poly": ["3", "0", "1"], "anchor": 1}}))
        assert doc["nu_value"] == "2"
        assert doc["index_tuple"] == [1]

    def test_build_total(self):
        payload = {"xpoly": [{"c": "1", "e": {"0": 2}}], "s": 1}
        doc = run("build", cfg({**EXA, "payload": payload}), trace=True)
        assert doc["neat"] and doc["level"] == 0
        assert parse_xpoly(doc["result"]) == \
            4 * XPoly.var(1) ** 2 - 4 * XPoly.var(1) + XPoly.const(1)
        assert len(doc["trace"]) == 1

    def test_reduce_total(self):
        payload = {"xpoly": [{"c": "1", "e": {"1": 2}}, {"c": "-1", "e": {"1": 1}},
                             {"c": "1", "e": {}}]}
        doc = run("reduce", cfg({**EXA, "payload": payload}))
        assert parse_unipoly(doc["result"]) == GA / 4

    def test_member(self):
        payload = {"xpoly": [{"c": "1", "e": {"1": 2}}, {"c": "-1", "e": {"1": 1}},
                             {"c": "1", "e": {}}]}
        doc = run("member", cfg({**EXA, "payload": payload}))
        assert doc["denominators"] == []
        assert doc["anchor"] == 1

    def test_check(self):
        doc = run("check", cfg({**EXA, "seed": 5}))
        assert doc["validation_passed"] and doc["relations_passed"]
        assert doc["monotonicity"]["violations"] == 0

    def test_check_counts_insufficient_depth(self):
        # at depth 2 the truncated plateau of x^2 + 7 is too shallow to
        # witness one of the 25 probes
        doc = run("check", cfg({"p": 2, "g": [7, 0, 1], "branch": [[0, 0]], "depth": 2}))
        assert doc["completeness_probe"] == {"witnessed": 24, "insufficient_depth": 1}


class TestPairPayload:
    """`build`/`reduce` with a `pair` payload run one (i, ell)-building or
    reduction: the CLI output is the library's, and the trace replays."""

    @pytest.mark.parametrize("doc", [EXA, EXC], ids=["A", "C"])
    @pytest.mark.parametrize("command, op", [("build", building), ("reduce", reduction)])
    def test_matches_library_and_trace_replays(self, doc, command, op):
        chain = cfg(doc).chain()
        gens = ideal_generators(chain)
        pairs = [(i, ell) for (i, ell, _) in segment(chain).succ_pairs if ell != IMAX]
        assert pairs
        rng = random.Random(20250505)
        moved = 0
        for i, ell in pairs:
            for _ in range(6):
                F = rand_xpoly(rng, chain.star_positions)
                payload = {"xpoly": fmt_xpoly(F), "pair": [i, ell]}
                out = run(command, cfg({**doc, "payload": payload}), trace=True)
                want = op(chain, F, i, ell)
                assert out["result"] == fmt_xpoly(want), (command, i, ell, F)
                assert run(command, cfg({**doc, "payload": payload})) == \
                    {"result": out["result"]}
                replayed = gens.combine(
                    (int(st["target"]), parse_xpoly(st["cofactor"])) for st in out["trace"])
                assert replayed == parse_xpoly(out["result"]) - F, (command, i, ell, F)
                assert all(st["pair"] == [i, ell] and st["target"] == str(ell)
                           for st in out["trace"])
                moved += want != F
        assert moved, "no job changed its input"


class TestMainExitCodes:
    def write(self, tmp_path, doc, name="c.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_present_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, EXA)
        assert main(["--config", path, "--command", "present"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["I1"]

    def test_seed_flag_overrides_config_seed(self, tmp_path, capsys):
        # check's random probes hit 1 depth-cut refusal at seed 0, 4 at seed 2
        doc = {"p": 2, "g": [7, 0, 1], "branch": [[0, 0]], "depth": 2}
        texts = {}
        for name, seed, flags in [("s0", 0, []), ("s2", 2, []), ("flag", 0, ["--seed", "2"])]:
            path = self.write(tmp_path, {**doc, "seed": seed}, f"{name}.json")
            assert main(["--config", path, "--command", "check", *flags]) == 0
            texts[name] = capsys.readouterr().out
        assert json.loads(texts["s0"])["completeness_probe"]["insufficient_depth"] == 1
        assert json.loads(texts["s2"])["completeness_probe"]["insufficient_depth"] == 4
        assert texts["flag"] == texts["s2"] != texts["s0"]

    def test_unsupported_normalization_exit1(self, tmp_path, capsys):
        path = self.write(tmp_path, {"p": 2, "g": ["2", "0", "1"]})
        assert main(["--config", path, "--command", "chain"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "unsupported-normalization"

    def test_not_in_ideal_exit2(self, tmp_path, capsys):
        doc = {**EXA, "payload": {"xpoly": [{"c": "1", "e": {"0": 1}}]}}
        path = self.write(tmp_path, doc)
        assert main(["--config", path, "--command", "member"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "not-in-ideal"

    def test_build_of_zero_is_neat_level_0(self, tmp_path, capsys):
        # zero has no variables, like a constant; reduce and member agree
        path = self.write(tmp_path, {"p": 2, "g": [3, 0, 1],
                                     "payload": {"xpoly": [], "s": 0}})
        assert main(["--config", path, "--command", "build"]) == 0
        assert json.loads(capsys.readouterr().out) == \
            {"level": 0, "neat": True, "result": []}
        assert main(["--config", path, "--command", "reduce"]) == 0
        assert json.loads(capsys.readouterr().out) == {"result": []}

    @pytest.mark.parametrize("command", ["build", "reduce"])
    @pytest.mark.parametrize("flags", [[], ["--trace"]])
    def test_final_pair_of_complete_chain_exit1(self, tmp_path, capsys, command, flags):
        # (1, 2) is context A's pair (imax - 1, imax): g's relation, in I2
        doc = {"p": 2, "g": [3, 0, 1],
               "payload": {"xpoly": [{"c": 1, "e": {"1": 2}}], "pair": [1, 2]}}
        path = self.write(tmp_path, doc)
        assert main(["--config", path, "--command", command, *flags]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input" and "I2 pair" in out["message"]

    def test_ambiguous_branch_exit2(self, tmp_path, capsys):
        path = self.write(tmp_path, {"p": 2, "g": ["7", "0", "1"], "depth": 4})
        assert main(["--config", path, "--command", "chain"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ambiguous-branch"

    def test_oracle_infinite_value_on_reducible_generator(self, tmp_path, capsys):
        # g = (x + 5)(x - 2): Res(g, x + 5) = 0 although g does not divide
        # x + 5, which vanishes at the branch root -5
        doc = {"p": 3, "g": [-10, 3, 1], "branch": [[0, 1]], "depth": 6,
               "payload": {"poly": [5, 1]}}
        path = self.write(tmp_path, doc)
        assert main(["--config", path, "--command", "eval"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["nu"], out["method"]) == ("inf", "hensel")

    def test_depth_cut_in_finite_plateau_exit2(self, tmp_path, capsys):
        # x^2 + 3 over Q_2 is complete at depth 3; depth 1 pins no branch root
        path = self.write(tmp_path, {"p": 2, "g": [3, 0, 1], "depth": 1})
        assert main(["--config", path, "--command", "chain"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "insufficient-depth" and "depth 1" in out["message"]

    def test_oracle_on_coprime_factor_of_reducible_generator(self, tmp_path, capsys):
        # x - 2 shares a factor with g but not the branch root -5: v(-7) = 0
        doc = {"p": 3, "g": [-10, 3, 1], "branch": [[0, 1]], "depth": 6,
               "payload": {"poly": [-2, 1]}}
        path = self.write(tmp_path, doc)
        assert main(["--config", path, "--command", "eval"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["nu"], out["method"]) == ("0", "hensel")

    def test_oracle_on_repeated_factor_reads_the_root(self, tmp_path, capsys):
        # g = (x - 2)^2 (x^2 - 11) and eta = 1 mod 5, so v(eta - 2) = 0: the
        # root certifies it although Res(g / gcd(g, x - 2), x - 2) = 0
        doc = {"p": 5, "g": [-44, 44, -7, -4, 1], "branch": [[0, 0]], "depth": 8,
               "payload": {"poly": [-2, 1]}}
        path = self.write(tmp_path, doc)
        assert main(["--config", path, "--command", "eval"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["nu"], out["method"]) == ("0", "hensel")

    def test_member_collapsed_i2_body(self, tmp_path, capsys):
        # collapsed context A: X_0 = Qt_0 = (x + 1)/2 and X_0^2 - X_0 + 1 -> g/4
        doc = {**EXA, "mode": "collapsed", "payload": {"xpoly": [
            {"c": "1", "e": {"0": 2}}, {"c": "-1", "e": {"0": 1}}, {"c": "1", "e": {}}]}}
        path = self.write(tmp_path, doc)
        assert main(["--config", path, "--command", "member"]) == 0
        assert json.loads(capsys.readouterr().out)["i2_cofactor"] == [{"c": "1", "e": {}}]

    @pytest.mark.parametrize("command, fields", [
        ("build", {"payload": {"xpoly": [{"c": "1", "e": {"a": 1}}], "s": 0}}),
        ("build", {"payload": {"xpoly": [{"c": "1", "e": {"0": 1}}], "pair": "ab"}}),
        ("expand", {"payload": {"poly": ["1", "1"], "anchor": "x"}}),
        ("chain", {"p": 3, "g": [-10, 3, 1], "branch": [["a", "b"]]}),
        ("member", {"payload": {"xpoly": [{"c": "1", "e": {"0": -1}}]}}),
        ("build", {"payload": {"xpoly": [{"c": "1", "e": {"0": 1.5}}], "s": 0}}),
        ("eval", {"payload": 5}),
        ("check", {"seed": [1]}),
        ("chain", {"depth": True}),
    ])
    def test_malformed_payload_exit1(self, tmp_path, capsys, command, fields):
        path = self.write(tmp_path, {**EXA, **fields})
        assert main(["--config", path, "--command", command]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "malformed-input"

    @pytest.mark.parametrize("command, doc", [
        ("chain", {"p": 1000000007, "g": [3, 0, 1]}),
        ("present", {"p": 1000000007, "g": [3, 0, 1]}),
        ("check", {"p": 1000000007, "g": [3, 0, 1]}),
        ("chain", {"p": 1000000007, "g": [-2, 0, 1], "branch": [[0, 0]], "depth": 4}),
        ("chain", {"p": 1000000007, "g": [-2, 0, 1], "branch": [[0, 1]], "depth": 4}),
        ("chain", {"p": 2305843009213693951, "g": [3, 0, 1], "branch": [[0, 0]], "depth": 6}),
    ])
    def test_large_prime_finishes(self, tmp_path, capsys, command, doc):
        # residue-field factorization and Hensel digits cost polynomial in log p
        path = self.write(tmp_path, doc)
        start = time.perf_counter()
        assert main(["--config", path, "--command", command]) == 0
        assert time.perf_counter() - start < 2
        assert "error" not in json.loads(capsys.readouterr().out)

    # both need a residue-field extension of degree 2 over F_p, which
    # enumeration of its p^2 elements would not finish
    BIG_RAMIFIED = {"p": 1000000007, "g": [1000000016, 0, 6, 0, 1]}
    BIG_EXTENDED = {"p": 1000000007, "g": [4000000084000000588000001399,
                                           1000000021000000147000000343, 27, 0, 9, 0, 1]}

    @pytest.mark.parametrize("command, doc, code", [
        ("chain", BIG_RAMIFIED, 2),
        ("chain", BIG_EXTENDED, 0),
        ("check", BIG_EXTENDED, 0),
    ])
    def test_large_prime_extension_finishes(self, tmp_path, capsys, command, doc, code):
        path = self.write(tmp_path, doc)
        start = time.perf_counter()
        assert main(["--config", path, "--command", command]) == code
        assert time.perf_counter() - start < 2
        out = json.loads(capsys.readouterr().out)
        if code:
            assert out["error"] == "ramified-branch"
        else:
            assert out["validation_passed"] and "error" not in out
        if command == "check":
            assert out["relations_passed"]

    @pytest.mark.parametrize("command", ["member", "reduce", "build"])
    def test_huge_exponent_exit1_at_once(self, tmp_path, capsys, command):
        doc = {**EXA, "payload": {"xpoly": [{"c": 1, "e": {"0": 100000000}}], "s": 0}}
        path = self.write(tmp_path, doc)
        start = time.perf_counter()
        assert main(["--config", path, "--command", command]) == 1
        assert time.perf_counter() - start < 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input" and "bound 256" in out["message"]

    def test_member_deep_value_is_fast(self, tmp_path, capsys):
        # wording not-in-ideal needs nu(e(X_3^256)), whose Hensel root has
        # hundreds of digits: each digit's valuation must cost O(log v)
        doc = {"p": 2, "g": [7, 0, 1], "branch": [[0, 0]], "depth": 6,
               "payload": {"xpoly": [{"c": 1, "e": {"3": 256}}]}}
        path = self.write(tmp_path, doc)
        start = time.perf_counter()
        assert main(["--config", path, "--command", "member"]) == 2
        assert time.perf_counter() - start < 0.4
        assert json.loads(capsys.readouterr().out)["error"] == "not-in-ideal"

    X5X7 = {"c": 1, "e": {"5": 1, "7": 1}}

    @pytest.mark.parametrize("command", ["member", "build", "reduce"])
    @pytest.mark.parametrize("xpoly", [[X5X7], [{"c": 1, "e": {"9": 1}}, X5X7]])
    def test_out_of_range_names_smallest_position(self, tmp_path, capsys, command, xpoly):
        # context A has star positions 0..2: the message names the smallest
        # stray position over all monomials, not the first or largest seen
        doc = {**EXA, "payload": {"xpoly": xpoly}}
        assert main(["--config", self.write(tmp_path, doc), "--command", command]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": "malformed-input",
                       "message": "variable X_5 out of range for this chain"}

    def test_image_degree_bound_is_inclusive(self, tmp_path, capsys):
        # deg Qt_1 = 1 on x^2 + 3: X_1^256 has image degree 256, X_1^257 257
        doc = {**EXA, "payload": {"xpoly": [{"c": 1, "e": {"1": 256}}]}}
        assert main(["--config", self.write(tmp_path, doc), "--command", "reduce"]) == 0
        assert "result" in json.loads(capsys.readouterr().out)
        doc = {**EXA, "payload": {"xpoly": [{"c": 1, "e": {"1": 257}}]}}
        assert main(["--config", self.write(tmp_path, doc), "--command", "reduce"]) == 1
        assert "image degree 257" in json.loads(capsys.readouterr().out)["message"]

    @pytest.mark.parametrize("command", ["eval", "expand"])
    def test_poly_degree_bound_is_inclusive(self, tmp_path, capsys, command):
        # a payload poly is its own image: degree 256 runs, 257 exits 1
        # before any expansion, whatever the other payload fields say
        doc = {**EXA, "payload": {"poly": [1] + [0] * 255 + [1], "anchor": 0}}
        assert main(["--config", self.write(tmp_path, doc), "--command", command]) == 0
        assert "error" not in json.loads(capsys.readouterr().out)
        doc = {**EXA, "payload": {"poly": [1] + [0] * 256 + [1]}}
        assert main(["--config", self.write(tmp_path, doc), "--command", command]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "malformed-input", "message": "poly degree 257 exceeds the bound 256"}

    def test_prime_above_primality_bound_exit1(self, tmp_path, capsys):
        path = self.write(tmp_path, {"p": 3317044064679887385961981 + 2, "g": [3, 0, 1]})
        assert main(["--config", path, "--command", "chain"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input" and "3317044064679887385961981" in out["message"]

    def test_output_integer_beyond_str_digit_limit(self, tmp_path, capsys):
        # a = p^176 at the last entry has 4,316 digits, past the interpreter's
        # 4,300-digit limit for str(int)
        p = 3317044064679887385961801
        path = self.write(tmp_path, {"p": p, "g": [-2, 0, 1], "branch": [[0, 0]],
                                     "depth": 177})
        assert main(["--config", path, "--command", "chain"]) == 0
        last = json.loads(capsys.readouterr().out)["entries"][-1]
        assert last["gamma"] == "176" and parse_dec(last["a"]) == p ** 176
        assert len(last["a"]) > sys.get_int_max_str_digits()
        c = parse_dec(last["Q"][0])
        assert c * c % p ** 176 == 2 and last["Q"][1] == "1"

    def test_input_integer_beyond_str_digit_limit_exit1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"p": 2, "g": [1' + "0" * 4999 + '3, 0, 1]}')
        start = time.perf_counter()
        assert main(["--config", str(path), "--command", "chain"]) == 1
        assert time.perf_counter() - start < 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input"
        assert f"{sys.get_int_max_str_digits()} digits" in out["message"]

    @pytest.mark.parametrize("g", [[2, "1e1000000", 1], [2, "-3.5E-999999", 1],
                                   [2, "1e4300", 1]])
    def test_exponent_notation_beyond_str_digit_limit_exit1(self, tmp_path, capsys, g):
        path = self.write(tmp_path, {"p": 5, "g": g})
        start = time.perf_counter()
        assert main(["--config", path, "--command", "check"]) == 1
        assert time.perf_counter() - start < 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input"
        assert f"{sys.get_int_max_str_digits()} digits" in out["message"]

    def test_exponent_notation_within_str_digit_limit(self):
        assert parse_value("1e3") == 1000 and parse_value("5.0") == 5
        assert parse_value("5_000") == 5000 and parse_value("25e-2") == Fraction(1, 4)
        assert parse_value("1e4299") == 10 ** 4299

    @pytest.mark.parametrize("config", ["directory", "not-utf8", "missing"])
    def test_unreadable_config_exit1(self, tmp_path, capsys, config):
        path = tmp_path / config
        if config == "directory":
            path.mkdir()
        elif config == "not-utf8":
            path.write_bytes(b"\xff{}")
        assert main(["--config", str(path), "--command", "chain"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input"
        assert out["message"].startswith("cannot read config")

    @pytest.mark.parametrize("where", ["g", "payload"])
    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 1000])
    def test_deeply_nested_config_exit1(self, tmp_path, capsys, where, depth):
        # the document nests depth levels: the config object, the payload
        # object if any, then the arrays
        arrays = depth - (1 if where == "g" else 2)
        nested = "[" * arrays + "]" * arrays
        text = ('{"p": 2, "g": %s}' if where == "g"
                else '{"p": 2, "g": [3, 0, 1], "payload": {"poly": %s}}') % nested
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["--config", str(path), "--command", "eval"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input"
        refused = f"nested deeper than {MAX_NESTING} levels" in out["message"]
        assert refused == (depth > MAX_NESTING)

    def test_nesting_bound(self):
        assert MAX_NESTING == 32
        for levels in (MAX_NESTING, MAX_NESTING + 1, 1000):
            text = "[" * levels + "]" * levels
            if levels <= MAX_NESTING:
                assert deserialize(text) is not None
            else:
                with pytest.raises(MalformedInput, match="nested deeper than 32"):
                    deserialize(text)
        # brackets inside strings, escaped quotes included, do not count
        text = '{"a": "%s\\"%s", "b": [[]]}' % ("[" * 1000, "{" * 1000)
        assert deserialize(text)["b"] == [[]]
        # an escaped backslash ends the string at the next quote
        inner = "[" * (MAX_NESTING - 1) + "]" * (MAX_NESTING - 1)
        assert deserialize('["\\\\", %s]' % inner)[0] == "\\"
        with pytest.raises(MalformedInput, match="nested deeper"):
            deserialize('["\\\\", [%s]]' % inner)
        # objects count as arrays do, and unclosed openers count too
        with pytest.raises(MalformedInput, match="nested deeper"):
            deserialize('{"a": ' * 20 + "[" * 20 + "0" + "]" * 20 + "}" * 20)
        with pytest.raises(MalformedInput, match="nested deeper"):
            deserialize("[" * 1000)
        with pytest.raises(MalformedInput, match="parse error"):
            deserialize("[" * MAX_NESTING)
        # the bound does not hang on the caller's stack depth
        def deep(n):
            return deep(n - 1) if n else deserialize("[" * 1000 + "]" * 1000)
        with pytest.raises(MalformedInput, match="nested deeper"):
            deep(sys.getrecursionlimit() - 100)

    def test_depth_above_bound_exit1_at_once(self, tmp_path, capsys):
        path = self.write(tmp_path, {**EXC, "depth": MAX_DEPTH + 1})
        start = time.perf_counter()
        assert main(["--config", path, "--command", "chain"]) == 1
        assert time.perf_counter() - start < 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input" and "bound 256" in out["message"]

    def test_depth_bound_is_inclusive(self, tmp_path, capsys):
        assert MAX_DEPTH == 256
        path = self.write(tmp_path, {**EXC, "depth": MAX_DEPTH})
        assert main(["--config", path, "--command", "chain"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["validation_passed"] and len(out["entries"]) == MAX_DEPTH

    @pytest.mark.parametrize("g", [[3.0, 0, 1], [3.5, 0, 1]])
    def test_json_float_exit1(self, tmp_path, capsys, g):
        path = self.write(tmp_path, {**EXA, "g": g})
        assert main(["--config", path, "--command", "chain"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "malformed-input"

    def test_output_file(self, tmp_path):
        path = self.write(tmp_path, EXA)
        out = tmp_path / "out.json"
        assert main(["--config", path, "--command", "present",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["I2"]

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_exit1(self, tmp_path, capsys, target):
        path = self.write(tmp_path, EXA)
        out = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
        assert main(["--config", path, "--command", "chain", "--output", str(out)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "malformed-input"
        assert doc["message"].startswith("cannot write output")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("args, says", [
        (["--seed", "abc"], "invalid int value"),
        ([], "required: --config"),
        (["--bogus", "1"], "unrecognized arguments"),
    ])
    def test_malformed_command_line_exit1(self, tmp_path, capsys, args, says):
        config = [] if not args else ["--config", self.write(tmp_path, EXA)]
        assert main(config + ["--command", "chain"] + args) == 1
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert doc["error"] == "malformed-input" and says in doc["message"]
        assert out.err == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: valring" in capsys.readouterr().out


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        doc = {**EXC, "payload": {"poly": ["7", "0", "1"]}}
        a = run("present", cfg(doc))
        b = run("present", cfg(doc))
        assert serialize(a) == serialize(b)

    def test_roundtrip_on_generator_set(self):
        text = serialize(run("present", cfg(EXC)))
        assert serialize(deserialize(text)) == text


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=40)


class TestSerialize:
    @given(JSON_DOCS)
    @example({"": [], "\x00\n\"\\": {}, "é☃\U0001d11e": [-(10 ** 40), 10 ** 40, True, None]})
    def test_matches_json_dumps(self, doc):
        assert serialize(doc) == json.dumps(doc, sort_keys=True, indent=1) + "\n"

    @pytest.mark.parametrize("doc", [1.5, {"a": [Fraction(1, 2)]}, {1: "a"}, {"a": {2}}])
    def test_rejects_non_json(self, doc):
        with pytest.raises(TypeError):
            serialize(doc)
