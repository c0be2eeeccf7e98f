"""The README's library tour runs as written, and its comments state what
the code gives: a bare expression's comment is its printed value."""

import ast
import re
from pathlib import Path

from valring.algebra import INF

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_blocks():
    section = README.read_text(encoding="utf-8").split("## Library tour\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)


def run_block(block: str, namespace: dict):
    """Run the block statement by statement; return (printed value, comment)
    for each bare expression."""
    lines = block.splitlines()
    shown = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            shown.append((str(eval(code, namespace)), comment))
        else:
            exec(code, namespace)
    return shown


def test_tour_runs_as_written():
    first, branching = tour_blocks()
    ns = {}
    shown = run_block(first, ns)
    assert len(shown) == 2
    for value, comment in shown:
        assert value == comment
    # chain = build_chain(ctx, g, "unique")   # [x, x+1, g] with values [0, 1, inf]
    chain = ns["chain"]
    assert [str(e.Q) for e in chain.entries] == ["x", "x + 1", str(ns["g"])]
    assert [e.gamma for e in chain.entries] == [0, 1, INF]
    # the certificate re-expands to its target
    assert ns["cert"].target == ns["F"]
    assert run_block(branching, ns) == []
    # the branch with root 3 mod 8: its third key is x - 3
    assert [str(e.Q) for e in ns["chain"].entries][:3] == ["x", "x + 1", "x - 3"]
