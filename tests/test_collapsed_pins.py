"""Pins for `"mode": "collapsed"`, which no benchmark pool job uses.

Each job runs through `cli.main` on the four p = 2 worked contexts A-D and
the six deep branches of the benchmark, collapsed, for every command whose
payload applies: `chain`, `present`, `check`, `eval`, `expand` (two
anchors) and `member` (two payloads).  The exit code, the error reason and
the first 128 bits of the SHA-256 of the output text must match the pins
below, which were recorded before chain entries carried integer `a` and
`Qt` data.
"""

import hashlib
import json

import pytest

from valring.cli import main

CONTEXTS = {
    "A": {"p": 2, "g": [3, 0, 1], "branch": "unique", "depth": 16},
    "B": {"p": 2, "g": [1, -1, 1], "branch": "unique", "depth": 16},
    "C": {"p": 2, "g": [7, 0, 1], "branch": [[0, 0]], "depth": 4},
    "D": {"p": 2, "g": [3, 8, 5, 2, 1], "branch": "unique", "depth": 16},
    "deep2a": {"p": 2, "g": [7, 0, 1], "branch": [[0, 0]], "depth": 24},
    "deep2b": {"p": 2, "g": [7, 0, 1], "branch": [[1, 0]], "depth": 24},
    "deep3a": {"p": 3, "g": [2, 0, 1], "branch": [[0, 0]], "depth": 16},
    "deep3b": {"p": 3, "g": [2, 0, 1], "branch": [[0, 1]], "depth": 16},
    "deep5a": {"p": 5, "g": [1, 0, 1], "branch": [[0, 0]], "depth": 16},
    "deep5b": {"p": 5, "g": [1, 0, 1], "branch": [[0, 1]], "depth": 16},
}

POLY = [-11, 6, 0, 9]


def _g_in_x0(g):
    return [{"c": str(c), "e": {"0": j} if j else {}} for j, c in enumerate(g) if c]


def _jobs():
    for name, base in CONTEXTS.items():
        yield name, "chain", {}
        yield name, "present", {}
        yield name, "check", {"seed": 7}
        yield name, "eval", {"payload": {"poly": POLY}}
        for anchor in (0, 1):
            yield f"{name}@{anchor}", "expand", {"payload": {"poly": POLY, "anchor": anchor}}
        yield f"{name}:g", "member", {"payload": {"xpoly": _g_in_x0(base["g"])}}
        yield f"{name}:x1", "member", {"payload": {"xpoly": [
            {"c": "1", "e": {"0": 1}}, {"c": "1", "e": {}}]}}


def outcome(tmp_path, name, command, extra):
    """(exit code, error reason or "-", output digest) of one collapsed job."""
    doc = {**CONTEXTS[name.split("@")[0].split(":")[0]], **extra, "mode": "collapsed"}
    cfg, out = tmp_path / "config.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(doc))
    code = main(["--config", str(cfg), "--command", command, "--output", str(out)])
    text = out.read_text()
    reason = json.loads(text).get("error", "-") if code else "-"
    return code, reason, hashlib.sha256(text.encode()).hexdigest()[:32]


PINS = {
    ('A', 'chain'): (0, '-', '107ec8a077f45c03b33d989fecd5cb3e'),
    ('A', 'present'): (0, '-', '9b2cda9a948ff968b6045c5e9ac08c2a'),
    ('A', 'check'): (0, '-', 'b07da03f769fd7e47a4a8afb4574c355'),
    ('A', 'eval'): (0, '-', 'c82c0de0ca8918554a7bb064d28c1ee5'),
    ('A@0', 'expand'): (0, '-', '01122601a7acf1d1e64d968a2f6ee5d6'),
    ('A@1', 'expand'): (1, 'malformed-input', '65a3f09e5e6d4c9322d275969ff33528'),
    ('A:g', 'member'): (2, 'not-in-ideal', '9c33ba1ce76aa1b1d5cd04eb0d1db7df'),
    ('A:x1', 'member'): (2, 'not-in-ideal', '9c33ba1ce76aa1b1d5cd04eb0d1db7df'),
    ('B', 'chain'): (0, '-', '233259fb03d299ce71b77604791ab2eb'),
    ('B', 'present'): (0, '-', '032163b9e3c3d8765b5fb59d94e34f42'),
    ('B', 'check'): (0, '-', 'b07da03f769fd7e47a4a8afb4574c355'),
    ('B', 'eval'): (0, '-', 'b3e6341188826232ac03982e8ba9bd66'),
    ('B@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('B@1', 'expand'): (1, 'malformed-input', '65a3f09e5e6d4c9322d275969ff33528'),
    ('B:g', 'member'): (0, '-', 'c2f7d4bf6b832a5acfb89bddb4aa3c93'),
    ('B:x1', 'member'): (2, 'not-in-ideal', '9c33ba1ce76aa1b1d5cd04eb0d1db7df'),
    ('C', 'chain'): (0, '-', '0443bfa85f20b3e3c9e8bbb64c0e21f1'),
    ('C', 'present'): (0, '-', 'b346d00be27b11d5f32966fc91a25074'),
    ('C', 'check'): (0, '-', 'f92f9e1e6c16f6692c5feb516adc7f5e'),
    ('C', 'eval'): (0, '-', 'bebf4dea7ceedc675a1e0a87fd17f905'),
    ('C@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('C@1', 'expand'): (0, '-', 'd7a0e5cd3c64034aca4d66576536a8a0'),
    ('C:g', 'member'): (0, '-', '28d4e4033bf9254405385ae245d06e25'),
    ('C:x1', 'member'): (2, 'not-in-ideal', 'c03f2e5d8447939ce5f7c91a9ff26279'),
    ('D', 'chain'): (0, '-', '4857e865b9ece44a829ed25743aedf50'),
    ('D', 'present'): (0, '-', 'ce2ce9928fd8ccb870899c1b4b5dc627'),
    ('D', 'check'): (0, '-', '27f0e9fcca8a34b89750d3d83e76aee0'),
    ('D', 'eval'): (0, '-', '19d94e7bde3839d78140a0f300b3459d'),
    ('D@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('D@1', 'expand'): (0, '-', '732f77b8072ae35d6e7d020fd6e88a4f'),
    ('D:g', 'member'): (0, '-', 'c5c8d653feaf810f6b7d05d73983ba47'),
    ('D:x1', 'member'): (2, 'not-in-ideal', '9c33ba1ce76aa1b1d5cd04eb0d1db7df'),
    ('deep2a', 'chain'): (0, '-', '601c62a5baac611d5bf82ccc719535df'),
    ('deep2a', 'present'): (0, '-', '60e98924aa2493f55d574b4625686c2e'),
    ('deep2a', 'check'): (0, '-', '19b1b467b60a53933597a248e1292155'),
    ('deep2a', 'eval'): (0, '-', '242991c3938536739d5e4053c48ef375'),
    ('deep2a@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('deep2a@1', 'expand'): (0, '-', 'd7a0e5cd3c64034aca4d66576536a8a0'),
    ('deep2a:g', 'member'): (0, '-', '28d4e4033bf9254405385ae245d06e25'),
    ('deep2a:x1', 'member'): (2, 'not-in-ideal', 'c03f2e5d8447939ce5f7c91a9ff26279'),
    ('deep2b', 'chain'): (0, '-', '4efb6107f3eff7738f1a18a747655d12'),
    ('deep2b', 'present'): (0, '-', 'da5dc2970561a9e609c992bcd7c93878'),
    ('deep2b', 'check'): (0, '-', '19b1b467b60a53933597a248e1292155'),
    ('deep2b', 'eval'): (0, '-', '5428fd1fb73838a5c6a6d7c132a1d695'),
    ('deep2b@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('deep2b@1', 'expand'): (0, '-', '192a89d117f46aaaee9b010ebdeebd56'),
    ('deep2b:g', 'member'): (0, '-', '28d4e4033bf9254405385ae245d06e25'),
    ('deep2b:x1', 'member'): (2, 'not-in-ideal', '83c337ae53647bde0ec5def4590ea063'),
    ('deep3a', 'chain'): (0, '-', 'c61aede1332b3243171a60f94014b61f'),
    ('deep3a', 'present'): (0, '-', 'fd9d33cfcf1e2196f221317cdd84282c'),
    ('deep3a', 'check'): (0, '-', 'a6fa3abda0a6a2451dd6ad97d1cf9d7e'),
    ('deep3a', 'eval'): (0, '-', 'b55d5aa100c092ce69e1d324aae1f90d'),
    ('deep3a@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('deep3a@1', 'expand'): (0, '-', 'fc33369d2410abe884f981390a3a3032'),
    ('deep3a:g', 'member'): (0, '-', 'e19754f111706263082e2719c44d31d8'),
    ('deep3a:x1', 'member'): (2, 'not-in-ideal', '83c337ae53647bde0ec5def4590ea063'),
    ('deep3b', 'chain'): (0, '-', '21cfdc8f849249f603dc7437912e11b3'),
    ('deep3b', 'present'): (0, '-', '7526b36622a451bb8b94d875cde1d581'),
    ('deep3b', 'check'): (0, '-', 'a6fa3abda0a6a2451dd6ad97d1cf9d7e'),
    ('deep3b', 'eval'): (0, '-', 'b55d5aa100c092ce69e1d324aae1f90d'),
    ('deep3b@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('deep3b@1', 'expand'): (0, '-', '4420a75a469a963a02ffd1b429ca71f2'),
    ('deep3b:g', 'member'): (0, '-', 'e19754f111706263082e2719c44d31d8'),
    ('deep3b:x1', 'member'): (2, 'not-in-ideal', '9c33ba1ce76aa1b1d5cd04eb0d1db7df'),
    ('deep5a', 'chain'): (0, '-', '288dbab78dabe8b2fa4ca8669b9fdfff'),
    ('deep5a', 'present'): (0, '-', 'b4ac7834655e7717c681ccf05804631a'),
    ('deep5a', 'check'): (0, '-', 'a6fa3abda0a6a2451dd6ad97d1cf9d7e'),
    ('deep5a', 'eval'): (0, '-', 'a5ba6b1da16d190d9f35c75f8cb8a5f6'),
    ('deep5a@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('deep5a@1', 'expand'): (0, '-', '11e03ada511b77cf5b7da238e0c65f22'),
    ('deep5a:g', 'member'): (0, '-', '20e278ab8b995cd494901090a65007e6'),
    ('deep5a:x1', 'member'): (2, 'not-in-ideal', '9c33ba1ce76aa1b1d5cd04eb0d1db7df'),
    ('deep5b', 'chain'): (0, '-', '7a0391a5b550971b2335690a5fe9cb6b'),
    ('deep5b', 'present'): (0, '-', 'a78d3aece69e282cfbce496790ba1406'),
    ('deep5b', 'check'): (0, '-', 'a6fa3abda0a6a2451dd6ad97d1cf9d7e'),
    ('deep5b', 'eval'): (0, '-', 'b55d5aa100c092ce69e1d324aae1f90d'),
    ('deep5b@0', 'expand'): (0, '-', 'd72e0294457b8b94eecd560889fc9f67'),
    ('deep5b@1', 'expand'): (0, '-', 'c5d66a1ef926f024d361a67e8fc0f8f2'),
    ('deep5b:g', 'member'): (0, '-', '20e278ab8b995cd494901090a65007e6'),
    ('deep5b:x1', 'member'): (2, 'not-in-ideal', '9c33ba1ce76aa1b1d5cd04eb0d1db7df'),
}


@pytest.mark.parametrize("name, command, extra", list(_jobs()),
                         ids=[f"{n}-{c}" for n, c, _ in _jobs()])
def test_collapsed_job_matches_pin(tmp_path, name, command, extra):
    assert outcome(tmp_path, name, command, extra) == PINS[(name, command)]
