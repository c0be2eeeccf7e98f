"""Depth cuts decided by the chain's oracle, and refusals made before work.

A chain that `build_chain` stops at `depth` on a linear key x - c of value
gamma outside the Hensel tail is a prefix of an infinite plateau only if its
oracle seed c mod p^gamma lifts to a root eta with v(eta - c) = gamma, which
is nu(x - c) = gamma asked through `KeyChain.nu`.  A seed that lifts to
another root of g is a depth cut: g = (x - 13)(x - 247) + 3^20 at p = 3
stops at depth 3 on x - 4 of value 2, and the seed 4 mod 9 lifts to the root
near 247, at distance 5 from 4.  A sweep over generators with planted close
roots checks that every chain `build_chain` returns passes `validate`.
Separately, `augment` refuses a degree jump over an extended residue field
before it builds the extension.
"""

import json
import random

import pytest

from valring.algebra import ResidueField, UniPoly, ValuedFieldCtx
from valring.cli import main
from valring.errors import InsufficientDepth, MalformedInput, MathRejection
from valring.keychain import build_chain, validate, validation_passed

NAMED = {"p": 3, "g": [3486787612, -260, 1], "branch": [[1, 0]], "depth": 3}


def named_chain(depth):
    return build_chain(ValuedFieldCtx(NAMED["p"]), UniPoly(NAMED["g"]), NAMED["branch"], depth)


def test_seed_lifting_to_another_root_is_a_depth_cut():
    with pytest.raises(InsufficientDepth, match="depth 3 is too shallow"):
        named_chain(3)
    chain = named_chain(4)
    assert len(chain.entries) == 4 and validation_passed(validate(chain))


@pytest.mark.parametrize("command, payload", [
    ("chain", None), ("eval", {"poly": [-4, 1]}), ("check", None)])
def test_named_cut_exits_2(tmp_path, capsys, command, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(NAMED, **({"payload": payload} if payload else {}))))
    assert main(["--config", str(path), "--command", command]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "insufficient-depth"


def test_seed_lifting_to_the_branch_root_stands():
    # x^2 + 7 at p = 2 stops at depth 2 on x + 1 of value 1: the seed 1 lifts
    # to the branch root eta with v(eta + 1) = 1, which the oracle reports
    chain = build_chain(ValuedFieldCtx(2), UniPoly((7, 0, 1)), [[1, 0]], 2)
    assert [e.gamma for e in chain.entries] == [0, 1]
    assert "hensel_root" in chain.cache()
    assert validation_passed(validate(chain))


def _unit(rng, p, bound):
    while True:
        u = rng.randrange(1, bound)
        if u % p:
            return u


def test_planted_close_roots_build_only_valid_chains():
    # g = prod(x - r_i) + p^25 with r1 = a + p^k1 u1 and r2 = a + p^k2 u2,
    # k1 < k2 <= 6, and a third unit root on some draws
    rng = random.Random(20261020)
    built = refused = 0
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        k2 = rng.randint(2, 6)
        k1 = rng.randint(1, k2 - 1)
        a = _unit(rng, p, p ** 3)
        roots = [a + p ** k1 * _unit(rng, p, p * p), a + p ** k2 * _unit(rng, p, p * p)]
        if rng.random() < 0.5:
            roots.append(_unit(rng, p, p ** 3))
        g = UniPoly((1,))
        for r in roots:
            g = g * UniPoly((-r, 1))
        g = g + p ** 25
        for pick in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
            for depth in range(1, 9):
                try:
                    chain = build_chain(ValuedFieldCtx(p), g, [pick] * 4, depth)
                except InsufficientDepth:
                    refused += 1
                    continue
                except (MathRejection, MalformedInput):
                    continue
                built += 1
                assert validation_passed(validate(chain)), (p, g, pick, depth)
    assert built > 3000 and refused > 1000, (built, refused)


def test_jump_refused_before_extension(monkeypatch):
    # over F_9 the next key would be a degree jump; the refusal comes before
    # the F_81 extension it would need is built
    calls, real = [], ResidueField.extend_by

    def spy(fld, phi):
        calls.append((fld.k, len(phi) - 1))
        return real(fld, phi)
    monkeypatch.setattr(ResidueField, "extend_by", spy)
    g = UniPoly((-1, 4, -1, -1, -8, -5, 1))
    with pytest.raises(MalformedInput,
                       match="^degree jump over an extended residue field is not constructible here$"):
        build_chain(ValuedFieldCtx(3), g, [[0, 0]] * 4, 8)
    assert calls == [(1, 2)]
