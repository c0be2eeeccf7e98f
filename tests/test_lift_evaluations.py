"""`hensel_root` evaluates g and g' once per Newton iterate.

The seed's evaluations feed the first step, and the certificate reads the
g(x) of the last iterate.  On x^2 - 2 near the primality bound, lifting the
one-digit seed to 510 digits takes nine steps: 2 evaluations at the seed, 9
of g and 8 of g'.  Lifting that root on to 1,020 digits takes one step: 3.
"""

from valring import algebra
from valring.algebra import UniPoly, ValuedFieldCtx, hensel_root
from valring.keychain import build_chain


def test_one_evaluation_per_iterate(monkeypatch):
    p = 3317044064679887385961801
    ctx, g = ValuedFieldCtx(p), UniPoly((-2, 0, 1))
    seed = build_chain(ctx, g, [[0, 0]], 2).branch_descriptor().seed
    calls, real = [], algebra._ieval
    monkeypatch.setattr(algebra, "_ieval", lambda nums, x: calls.append(x) or real(nums, x))
    root = hensel_root(ctx, g, seed, 510)
    assert seed.precision == 1 and len(calls) == 19
    del calls[:]
    deeper = hensel_root(ctx, g, root, 1020)
    assert len(calls) == 3
    assert deeper.value % p ** 510 == root.value and (deeper.value ** 2 - 2) % p ** 1020 == 0
