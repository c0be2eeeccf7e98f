"""Command-line surface: drive chain construction, presentation output,
rewriting, probing and certificate workflows from JSON config files.

Exit status 0 on success, 2 on mathematical rejection (ramified branch,
not-in-ideal, ambiguous branch, insufficient depth, oracle unavailable, no
convergence), 1 on malformed input, which includes JSON floats and positions
or exponents that are not non-negative JSON integers.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd

from .algebra import INF, UniPoly, ValuedFieldCtx
from .errors import MalformedInput, MathRejection
from .expandval import full_expansion, truncations
from .keychain import (KeyChain, build_chain, segment, validate,
                       validation_passed)
from .presentrel import ideal_generators, redundancy_cofactor
from .rewrite import (building, is_neat, reduction, total_reduction,
                      total_s_building, vdeg)
from .verify import check_relations, completeness_probe, membership
from .xpoly import XPoly, _monom_key, monom

COMMANDS = ("chain", "present", "eval", "expand", "build", "reduce", "member", "check")

CONFIG_FIELDS = {"p", "g", "branch", "depth", "mode", "payload", "seed"}

# bounds the work of build, reduce and member: the largest degree in x of a
# payload xpoly's image under X_i -> Qt_i, its virtual degree; and of eval
# and expand: the degree of a payload poly, which is its own image
MAX_IMAGE_DEGREE = 256
# bounds the work of every command: the number of chain entries asked for
MAX_DEPTH = 256
# bounds the nesting of a config's arrays and objects (configs nest at most
# 5 levels), checked before decoding so that no recursion limit decides it
MAX_NESTING = 32

_DECIMAL_INT = re.compile(r"-?[0-9]+")
# Fraction's decimal and exponent forms: "<whole>.<frac>e<exp>" is the int
# of the digits of whole and frac times 10^exp over 10^len(frac), so the
# mantissa's digits (an empty whole part counts one) plus |exp| bound the
# digits of its numerator and denominator
_DECIMAL_FORM = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*")
# keeps the brackets of ASCII text, writing each as [ or ]
_BRACKETS = str.maketrans({chr(i): None for i in range(128)} | dict(zip("[]{}", "[][]")))


# -- scalar and polynomial text formats --------------------------------------

def _int_text(n: int) -> str:
    """Decimal text of an int of any size.  Past the interpreter's
    int-to-str digit limit, str(n) raises; then n is split at a power of
    ten near half its digits and the halves are written in turn."""
    try:
        return int.__repr__(n)
    except ValueError:
        k = n.bit_length() * 3 // 20           # about half the digits
        hi, lo = divmod(abs(n), 10 ** k)
        sign = "-" if n < 0 else ""
        return sign + _int_text(hi) + _int_text(lo).zfill(k)


def _ratio_text(n: int, d: int) -> str:
    """The text of n/d in lowest terms, for ints n and d > 0."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
        if d != 1:
            return f"{_int_text(n)}/{_int_text(d)}"
    return _int_text(n)


def fmt_value(v) -> str:
    """The text of an int, a Fraction or INF."""
    return "inf" if v is INF else _ratio_text(v.numerator, v.denominator)


def parse_value(s):
    """An exact scalar: INF for "inf", an int for a JSON integer or a string
    of an optional minus sign and ASCII digits, else a Fraction."""
    if type(s) is int:
        return s
    if s == "inf":
        return INF
    if isinstance(s, float):
        raise MalformedInput(
            f"JSON float {s!r} is not exact: write it as an integer or a string")
    try:
        if isinstance(s, str):
            if _DECIMAL_INT.fullmatch(s):
                return int(s)
            # refused past the int-string limit before the power of ten is made
            m = _DECIMAL_FORM.fullmatch(s)
            limit = sys.get_int_max_str_digits()
            if m and limit:
                whole, frac, exp = (x or "" for x in m.groups())
                digits = max(len(whole.replace("_", "")), 1) + len(frac.replace("_", ""))
                if digits + abs(int(exp or 0)) > limit:
                    raise MalformedInput(f"scalar {s!r} exceeds the limit of {limit} digits")
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedInput(f"bad rational {s!r}: {e}")


def _parse_index(x, what: str, least: int = 0) -> int:
    """A JSON integer >= least (JSON true and false are not integers)."""
    if type(x) is not int or x < least:
        raise MalformedInput(f"{what} must be an integer >= {least}, got {x!r}")
    return x


def fmt_unipoly(u: UniPoly):
    return [_ratio_text(c, u.den) for c in u.nums]


def parse_unipoly(arr) -> UniPoly:
    if not isinstance(arr, list):
        raise MalformedInput("polynomial must be a coefficient array")
    return UniPoly(tuple(parse_value(c) for c in arr))


def fmt_xpoly(F: XPoly):
    return [{"c": _ratio_text(F.nums[m], F.den), "e": {str(k): v for k, v in m}}
            for m in sorted(F.nums, key=_monom_key, reverse=True)]


def parse_xpoly(arr) -> XPoly:
    if not isinstance(arr, list):
        raise MalformedInput("xpoly must be a term array")
    terms = []
    for item in arr:
        if not isinstance(item, dict) or set(item) != {"c", "e"} \
                or not isinstance(item["e"], dict):
            raise MalformedInput(f"bad xpoly term {item!r}")
        mono = []
        for k, v in item["e"].items():
            # JSON object keys are strings
            if not (k.isascii() and k.isdigit()):
                raise MalformedInput(f"variable position must be an integer >= 0, got {k!r}")
            mono.append((int(k), _parse_index(v, "exponent", 1)))
        # "0" and "00" name one position: the larger exponent wins, as in XPoly
        terms.append((monom(dict(sorted(mono))), parse_value(item["c"])))
    if not all(type(c) is int for _, c in terms):
        return XPoly(terms)
    nums = {}
    for m, c in terms:
        nums[m] = nums.get(m, 0) + c
    return XPoly._make(nums, 1)


def serialize(doc) -> str:
    """Canonical text: sorted keys, no float anywhere.  The text of
    json.dumps(doc, sort_keys=True, indent=1) plus a newline, written here
    because json runs its pure-Python encoder whenever indent is set."""
    out = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(o, nl: str, out: list) -> None:
    """Append the JSON text of o to out; nl is the newline and indent of
    o's own line.  A container writes its members of type str or int in
    its own loop, with no call per scalar; other members, bool and
    subclasses included, recur through the isinstance chain.  Keys must be
    str; a float or any type outside JSON raises TypeError."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            head = sep + _json_str(k) + ": "
            if (tv := type(v)) is str:
                out.append(head + _json_str(v))
            elif tv is int:
                out.append(head + _int_text(v))
            else:
                out.append(head)
                _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for x in o:
            if (tx := type(x)) is str:
                out.append(sep + _json_str(x))
            elif tx is int:
                out.append(sep + _int_text(x))
            else:
                out.append(sep)
                _write_json(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, str):
        out.append(_json_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(_int_text(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def deserialize(text: str):
    """The JSON value of text.  Arrays and objects nested deeper than
    MAX_NESTING are refused before json decodes them."""
    if text.count("[") + text.count("{") > MAX_NESTING:
        # the pieces between unescaped quotes alternate outside and inside
        # strings; each round drops the innermost bracket pairs outside, and
        # an unpaired opener adds at most one level
        unescaped = text.replace("\\\\", "").replace('\\"', "")
        brackets = "".join(unescaped.split('"')[::2]).translate(_BRACKETS)
        depth = 0
        while "[]" in brackets and depth <= MAX_NESTING:
            brackets = brackets.replace("[]", "")
            depth += 1
        if depth + brackets.count("[") > MAX_NESTING:
            raise MalformedInput(f"JSON nested deeper than {MAX_NESTING} levels")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInput(f"parse error at line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError:
        # json reads integer literals with int(), which refuses long ones
        raise MalformedInput("an integer literal exceeds the limit of "
                             f"{sys.get_int_max_str_digits()} digits") from None


# -- config -------------------------------------------------------------------

class JobConfig:
    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise MalformedInput("config must be an object")
        unknown = set(doc) - CONFIG_FIELDS
        if unknown:
            raise MalformedInput(f"unknown config fields: {sorted(unknown)}")
        if "p" not in doc or "g" not in doc:
            raise MalformedInput("config needs p and g")
        self.ctx = ValuedFieldCtx(doc["p"])
        self.g = parse_unipoly(doc["g"])
        branch = doc.get("branch", "unique")
        if branch != "unique":
            if not isinstance(branch, list) or not all(
                    isinstance(x, list) and len(x) == 2 for x in branch):
                raise MalformedInput("branch must be \"unique\" or a list of index pairs")
            for pick in branch:
                for x in pick:
                    _parse_index(x, "branch pick")
        self.branch = branch
        self.depth = doc.get("depth", 16)
        if type(self.depth) is not int or self.depth < 1:
            raise MalformedInput("depth must be a positive integer")
        if self.depth > MAX_DEPTH:
            raise MalformedInput(f"depth {self.depth} exceeds the bound {MAX_DEPTH}")
        self.mode = doc.get("mode", "full")
        if self.mode not in ("full", "collapsed"):
            raise MalformedInput(f"unknown mode {self.mode!r}")
        self.payload = doc.get("payload", {})
        if not isinstance(self.payload, dict):
            raise MalformedInput("payload must be an object")
        self.seed = doc.get("seed", 0)
        if type(self.seed) is not int:
            raise MalformedInput(f"seed must be an integer, got {self.seed!r}")

    def chain(self) -> KeyChain:
        return build_chain(self.ctx, self.g, self.branch, self.depth, self.mode)


# -- document builders ----------------------------------------------------------

def chain_doc(chain: KeyChain) -> dict:
    seg = segment(chain)
    report = validate(chain)
    return {
        "status": chain.status,
        "mode": chain.mode,
        "entries": [{
            "position": e.position,
            "Q": fmt_unipoly(e.Q),
            "gamma": fmt_value(e.gamma),
            "a": fmt_value(e.a) if e.a is not None else None,
            "Qt": fmt_unipoly(e.Qt),
        } for e in chain.entries],
        "plateaus": [{
            "q": p.q, "degree": p.degree, "positions": list(p.positions),
            "first": p.first, "flag": p.flag,
        } for p in seg.plateaus],
        "n_plus": {str(k): v for k, v in seg.n_plus.items()},
        "successor_pairs": [{"i": i, "ell": str(ell), "kind": kind,
                             "level": seg.offset(i),
                             # every pair is neat: see `segment`'s invariant
                             "neat": True}
                            for (i, ell, kind) in seg.succ_pairs],
        "validation": [{"name": c.name, "subject": str(c.subject),
                        "passed": c.passed} for c in report],
        "validation_passed": validation_passed(report),
        "branch_log": [{"step": b.step, "factor_pick": b.factor_pick,
                        "slope_pick": b.slope_pick,
                        "n_factors": len(b.factor_options),
                        "n_slopes": len(b.slope_options)}
                       for b in chain.branch_log],
    }


def generator_doc(gen) -> dict:
    doc = {
        "kind": gen.kind,
        "target": str(gen.target),
        "source": gen.source,
        "b": fmt_value(gen.b),
        "Q": fmt_xpoly(gen.Q_poly),
        "level": gen.level,
    }
    if gen.relation_poly is not None:
        doc["relation"] = fmt_xpoly(gen.relation_poly)
    return doc


def present_doc(chain: KeyChain) -> dict:
    gens = ideal_generators(chain)
    doc = {
        "I1": [generator_doc(g) for g in gens.i1],
        "I2": [generator_doc(g) for g in gens.i2],
    }
    seg = segment(chain)
    final = seg.plateaus[-1]
    if final.flag == "truncated-infinite" and len(final.positions) >= 2:
        reds = []
        ps = final.positions
        for i, i2 in zip(ps, ps[1:]):
            c0, cof = redundancy_cofactor(chain, i, i2)
            reds.append({"i": i, "i_prime": i2, "c0": fmt_value(c0),
                         "cofactors": {str(t): fmt_xpoly(c) for t, c in cof.items()}})
        doc["redundancy"] = reds
    return doc


def run(command: str, config: JobConfig, trace: bool = False) -> dict:
    if command not in COMMANDS:
        raise MalformedInput(f"unknown command {command!r}")
    chain = config.chain()
    if command == "chain":
        return chain_doc(chain)
    if command == "present":
        return present_doc(chain)
    if command == "eval":
        f = _payload_poly(config)
        table = {str(i): fmt_value(v)
                 for i, v in zip(chain.star_positions, truncations(chain, f))}
        nu = chain.nu(f)
        return {"truncations": table, "nu": fmt_value(nu.value), "method": nu.method}
    if command == "expand":
        f = _payload_poly(config)
        anchor = _payload_field(config, "anchor")
        exp = full_expansion(chain, _parse_index(anchor, "anchor"), f)
        return {
            "anchor": exp.anchor,
            "terms": fmt_xpoly(exp.poly),
            "nu_value": fmt_value(exp.nu_value),
            "index_tuple": list(exp.index_tuple),
        }
    if command in ("build", "reduce"):
        F = _payload_xpoly(config, chain)
        steps = [] if trace else None
        if "pair" in config.payload:
            pair = config.payload["pair"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise MalformedInput(f"pair must be [i, ell], got {pair!r}")
            i, ell = (_parse_index(x, "pair position") for x in pair)
            op = building if command == "build" else reduction
            out = op(chain, F, i, ell, steps)
            doc = {"result": fmt_xpoly(out)}
        elif command == "build":
            s = _parse_index(_payload_field(config, "s"), "s")
            out = total_s_building(chain, F, s, steps)
            neat = is_neat(chain, out)
            doc = {"result": fmt_xpoly(out), "neat": neat.neat, "level": neat.level}
        else:
            out = total_reduction(chain, F, steps)
            doc = {"result": fmt_unipoly(out)}
        if trace:
            doc["trace"] = [{"pair": list(st.pair), "target": str(st.target),
                             "direction": st.direction,
                             "cofactor": fmt_xpoly(st.cofactor)} for st in steps]
        return doc
    if command == "member":
        F = _payload_xpoly(config, chain)
        cert = membership(chain, F)
        return {
            "anchor": cert.anchor,
            "level": cert.level,
            "i2_poly": fmt_xpoly(cert.i2_poly),
            "i2_cofactor": fmt_xpoly(cert.i2_cofactor),
            "i1_parts": [{"target": t, "cofactor": fmt_xpoly(c)}
                         for t, c in cert.i1_parts],
            "denominators": [{"part": label, "lcm": d}
                             for label, d in cert.denominators],
        }
    if command == "check":
        return check_doc(chain, config)
    raise AssertionError


def _payload_field(config: JobConfig, name: str):
    if name not in config.payload:
        raise MalformedInput(f"payload field {name!r} missing")
    return config.payload[name]


def _payload_poly(config: JobConfig) -> UniPoly:
    """The payload's poly, of degree at most MAX_IMAGE_DEGREE."""
    f = parse_unipoly(_payload_field(config, "poly"))
    if f.degree > MAX_IMAGE_DEGREE:
        raise MalformedInput(f"poly degree {f.degree} exceeds the bound {MAX_IMAGE_DEGREE}")
    return f


def _payload_xpoly(config: JobConfig, chain: KeyChain) -> XPoly:
    """The payload's xpoly, whose image degree (the largest sum of e_k *
    deg Qt_k over its monomials) must not exceed MAX_IMAGE_DEGREE."""
    F = parse_xpoly(_payload_field(config, "xpoly"))
    if not F.is_zero and (d := vdeg(chain, F)) > MAX_IMAGE_DEGREE:
        raise MalformedInput(f"xpoly image degree {d} exceeds the bound {MAX_IMAGE_DEGREE}")
    return F


def check_doc(chain: KeyChain, config: JobConfig) -> dict:
    """A compact property-suite report: validation, relation identities and
    seeded random probes of monotonicity and completeness."""
    rng = random.Random(config.seed)
    report = validate(chain)
    rels = check_relations(chain)
    mono_ok = 0
    mono_bad = 0
    probe_ok = 0
    probe_insufficient = 0
    degg = chain.g.degree
    for _ in range(25):
        f = UniPoly([rng.randrange(-64, 65) for _ in range(degg + 1)])
        if f.is_zero:
            continue
        vals = truncations(chain, f)
        nu = chain.nu(f).value
        seq = vals + [nu]
        if all(a <= b for a, b in zip(seq, seq[1:])):
            mono_ok += 1
        else:
            mono_bad += 1
        try:
            completeness_probe(chain, f, vals)
            probe_ok += 1
        except MathRejection:
            probe_insufficient += 1
    return {
        "validation_passed": validation_passed(report),
        "relations_passed": all(c.passed for c in rels),
        "relation_checks": [{"kind": c.kind, "target": str(c.target),
                             "source": c.source, "passed": c.passed}
                            for c in rels],
        "monotonicity": {"ok": mono_ok, "violations": mono_bad},
        "completeness_probe": {"witnessed": probe_ok,
                               "insufficient_depth": probe_insufficient},
    }


def _read_config(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise MalformedInput(f"cannot read config: {e}") from None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise MalformedInput(f"bad command line: {message}")


def main(argv=None) -> int:
    ap = _ArgumentParser(prog="valring")
    ap.add_argument("--config", required=True)
    ap.add_argument("--command", required=True)
    ap.add_argument("--output")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--seed", type=int)
    output = None
    try:
        args = ap.parse_args(argv)
        output = args.output
        config = JobConfig(deserialize(_read_config(args.config)))
        if args.seed is not None:
            config.seed = args.seed
        out = run(args.command, config, trace=args.trace)
        text = serialize(out)
        status = 0
    except (MalformedInput, MathRejection) as e:
        text = serialize({"error": e.reason, "message": str(e)})
        status = 1 if isinstance(e, MalformedInput) else 2
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
            return status
        except OSError as e:
            status, text = 1, serialize({"error": MalformedInput.reason,
                                         "message": f"cannot write output: {e}"})
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
