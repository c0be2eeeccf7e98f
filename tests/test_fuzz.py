"""A seeded sample of random monic generators through the CLI: every job ends
with exit 0, 1 or 2 and a JSON document, and every chain that builds passes
validation and the relation checks.  Most of these chains appear in no
golden job."""

import json
import random
import time

from valring.cli import main

PRIMES = (2, 3, 5, 7)
N_JOBS = 300


def generator_doc(rng):
    """p in {2, 3, 5, 7}, degree 2-6 with p^deg <= 7^5, integral monic with a
    unit constant term, pick [0, 0] at every step, depth 8."""
    p = rng.choice(PRIMES)
    deg = rng.choice([d for d in range(2, 7) if p ** d <= 7 ** 5])
    c0 = 0
    while c0 % p == 0:
        c0 = rng.randrange(-p * p, p * p + 1)
    middle = [rng.randrange(-p * p, p * p + 1) for _ in range(deg - 1)]
    return {"p": p, "g": [c0] + middle + [1], "branch": [[0, 0]] * 8, "depth": 8}


def test_seeded_generators(tmp_path):
    rng = random.Random(20261018)
    config, output = tmp_path / "job.json", tmp_path / "out.json"
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(N_JOBS):
        doc = generator_doc(rng)
        config.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["--config", str(config), "--command", "check", "--output", str(output)])
        assert time.perf_counter() - start < 2, doc
        out = json.loads(output.read_text())
        assert code in codes, (doc, code)
        codes[code] += 1
        if code == 0:
            assert out["validation_passed"] and out["relations_passed"], doc
        else:
            assert set(out) == {"error", "message"}, doc
    assert codes[0] >= N_JOBS // 2 and codes[1] and codes[2], codes
