import json
import time

import pytest

from valring.cli import (JobConfig, deserialize, fmt_unipoly, fmt_value,
                         fmt_xpoly, main, parse_unipoly, parse_value,
                         parse_xpoly, run, serialize)
from valring.algebra import INF, UniPoly
from valring.errors import MalformedInput
from valring.xpoly import XPoly

from conftest import GA

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

    def test_unsupported_normalization_exit1(self, tmp_path, capsys):
        path = self.write(tmp_path, {"p": 2, "g": ["2", "0", "1"]})
        assert main(["--config", path, "--command", "chain"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "unsupported-normalization"

    def test_not_in_ideal_exit2(self, tmp_path, capsys):
        doc = {**EXA, "payload": {"xpoly": [{"c": "1", "e": {"0": 1}}]}}
        path = self.write(tmp_path, doc)
        assert main(["--config", path, "--command", "member"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "not-in-ideal"

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

    def test_prime_above_primality_bound_exit1(self, tmp_path, capsys):
        path = self.write(tmp_path, {"p": 3317044064679887385961981 + 2, "g": [3, 0, 1]})
        assert main(["--config", path, "--command", "chain"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "malformed-input" and "3317044064679887385961981" in out["message"]

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


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        doc = {**EXC, "payload": {"poly": ["7", "0", "1"]}}
        a = run("present", cfg(doc))
        b = run("present", cfg(doc))
        assert serialize(a) == serialize(b)

    def test_roundtrip_on_generator_set(self):
        text = serialize(run("present", cfg(EXC)))
        assert serialize(deserialize(text)) == text
