"""Config fuzz through `cli.main`: for any config document and command, the
CLI exits 0, 1 or 2 and writes one JSON document, with no traceback and
within 2 s.

A document is drawn well formed (p <= 13, deg g <= 4, depth <= 8, small
exponents, a payload for every command) and then, in most examples, gets
one fault: a field or payload field of another type or shape, a missing
field, an unknown key, or a document that is not an object.  So about a
third of the examples reach the mathematics and the rest test the input
checks around it.
"""

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from valring.cli import COMMANDS, main

JUNK = (st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-3, 300) | st.text(max_size=3) | st.sampled_from(["inf", "1/2", "-0"])
        | st.lists(st.integers(-2, 2) | st.text(max_size=2), max_size=3)
        | st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2))
SMALL = st.integers(-30, 30)

TERM = st.fixed_dictionaries({
    "c": SMALL | SMALL.map(str) | st.sampled_from(["1/2", "-3/4"]),
    "e": st.dictionaries(st.integers(0, 2).map(str), st.integers(1, 3), max_size=3)})
PAYLOAD = st.fixed_dictionaries({
    "poly": st.lists(SMALL | SMALL.map(str), min_size=1, max_size=5),
    "anchor": st.integers(0, 4),
    "xpoly": st.lists(TERM, max_size=4),
    "s": st.integers(0, 3),
}, optional={
    "pair": st.integers(0, 3).map(lambda i: [i, i + 1]) | st.lists(st.integers(0, 4),
                                                                   min_size=2, max_size=2),
})


@st.composite
def well_formed(draw):
    """p <= 13, a monic integral g of degree 1 to 4 whose constant term is
    mostly a unit and a selector that is mostly a list, so that most chains
    build, and a payload for every command."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    g = draw(st.lists(SMALL, min_size=1, max_size=4)) + [1]
    if draw(st.booleans()) or draw(st.booleans()):
        g[0] = g[0] * p + draw(st.integers(1, p - 1))
    picks = st.lists(st.sampled_from([[0, 0], [0, 0], [0, 1], [1, 0], [2, 1]]), max_size=8)
    return draw(st.fixed_dictionaries({
        "p": st.just(p), "g": st.just(g), "payload": PAYLOAD,
        "branch": picks | picks | st.just("unique"),
    }, optional={
        "depth": st.integers(1, 8),
        "mode": st.sampled_from(["full", "collapsed"]),
        "seed": st.integers(0, 2 ** 31),
    }))


FIELDS = ["p", "g", "branch", "depth", "mode", "payload", "seed"]
PAYLOAD_FIELDS = ["poly", "anchor", "xpoly", "s", "pair"]
FAULT = st.one_of(
    st.none(), st.none(),
    st.tuples(st.just("set"), st.sampled_from(FIELDS), JUNK),
    st.tuples(st.just("set payload"), st.sampled_from(PAYLOAD_FIELDS), JUNK),
    st.tuples(st.just("set g coefficient"), st.integers(0, 4), JUNK),
    st.tuples(st.just("set xpoly term"), st.integers(0, 3), JUNK),
    st.tuples(st.just("set exponent"), st.sampled_from(["0", "1", "01", "x", "-1"]), JUNK),
    st.tuples(st.just("drop"), st.sampled_from(FIELDS), st.none()),
    st.tuples(st.just("unknown"), st.text(max_size=4), JUNK),
    st.tuples(st.just("not an object"), st.none(), JUNK),
)


def with_fault(doc: dict, fault):
    if fault is None:
        return doc
    kind, where, value = fault
    payload = doc.setdefault("payload", {})
    if kind in ("set", "unknown"):
        doc[where] = value
    elif kind == "set payload":
        payload[where] = value
    elif kind == "set g coefficient":
        doc["g"][where % len(doc["g"])] = value
    elif kind == "set xpoly term":
        payload.setdefault("xpoly", []).insert(where, value)
    elif kind == "set exponent":
        payload.setdefault("xpoly", []).append({"c": 1, "e": {where: value}})
    elif kind == "drop":
        doc.pop(where, None)
    else:
        return value
    return doc


@pytest.mark.parametrize("command", COMMANDS + ("bogus",))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=well_formed(), fault=FAULT, trace=st.booleans())
@example(doc={"p": 2, "g": [1, 1], "mode": "collapsed"}, fault=None, trace=False)
def test_config_exits_with_one_json_document(command, doc, fault, trace):
    doc = with_fault(doc, fault)
    with tempfile.TemporaryDirectory() as tmp:
        config, output = Path(tmp, "job.json"), Path(tmp, "out.json")
        config.write_text(json.dumps(doc))
        argv = ["--config", str(config), "--command", command, "--output", str(output)]
        start = time.perf_counter()
        code = main(argv + ["--trace"] * trace)
        assert time.perf_counter() - start < 2, (doc, command)
        out = json.loads(output.read_text())
    assert code in (0, 1, 2), (doc, command)
    assert isinstance(out, dict)
    if code:
        assert set(out) == {"error", "message"}, (doc, command)
