"""Golden digests pinning the random-stream contract.

Each digest is the SHA-256 of a small fixed report.  A change to the draw
order, the number of draws, the seeding or the rendering changes a digest,
so an accidental change to the stream fails here instead of passing as
"still deterministic".  When the contract changes on purpose, update the
digests together with the change and record it in CHANGES.md.
"""

import hashlib
import itertools

import pytest

from wqsc.cli import main

HALF_PI_TEXT = "1.5707963267948966"
RUN_FLAGS = ("--trials", "400", "--seed", "2024", "--announce-rate", "0.25")
ATTACK_FLAGS = ("--phi", HALF_PI_TEXT, "--target", "C")

# (mode, format, attacked) -> (exit code, SHA-256 of the report bytes)
RUN_DIGESTS = {
    ("qkd", "json", False): (0, "b9a6740452e4044492c99e5d1a70b0a77bffda5fbee8c3af2dc09900a0c471ad"),
    ("qkd", "csv", False): (0, "2171436e4315d956dcf765fa568653379db62021df39632aa6e59c952e7a4a35"),
    ("pqss", "json", False): (0, "bc5db74fb67df12d14980d9226b736c0648ae4cb2c2b16eb23667e09f44cca2a"),
    ("pqss", "csv", False): (0, "bbd227cc9d89e0f48b10782f2565218717deb2da88ceabc59d461b914b1e4783"),
    ("synth", "json", False): (0, "f37894fe745160fea4bab02c833c6a2e2ce891e926b6a3f6272f0fef194d6aed"),
    ("synth", "csv", False): (0, "e1e7b920047dc4b92dcb33168ea8873464e930b91a370910e63efa353ba4b385"),
    ("qkd", "json", True): (2, "7802d048a4de8155d9896f65d01f560061a64fc70a4db5491d1ff4fb3308d7af"),
    ("qkd", "csv", True): (2, "163817a4fa8bbe6dfdb69caafbc9640afc55416b5b9195854fb2204b7ac685c0"),
    ("pqss", "json", True): (2, "46f5892ae2ef880ffea67a9883a80d4f96fd4d3575f2df42acce5a0f4af9e62e"),
    ("pqss", "csv", True): (2, "a9d2cf70989f1d2ba141c460ba2587bc9b5921489b19e6c881c34653a2238d0b"),
    ("synth", "json", True): (2, "1821de1ece06c8b765c81241749b87bd30c4608a1569124ca2af57270d44d0ca"),
    ("synth", "csv", True): (2, "4879f03a1ff6a03539b7b308d0d80456fbf1233cd3cdea0ba3bf236576fecc19"),
}

SWEEP_FLAGS = ("--grid", f"0,0.7853981633974483,{HALF_PI_TEXT}", "--trials", "300", "--seed", "11")
SWEEP_DIGEST = "282783e456d87530ae144b64fdbd9af8277668fb7633ffc9157660aae8cbbac3"


def digest(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--output", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "mode,fmt,attacked",
    list(itertools.product(("qkd", "pqss", "synth"), ("json", "csv"), (False, True))),
)
def test_run_report_digest(tmp_path, mode, fmt, attacked):
    argv = ["run", "--mode", mode, *RUN_FLAGS, "--format", fmt]
    if attacked:
        argv += ATTACK_FLAGS
    assert digest(tmp_path, *argv) == RUN_DIGESTS[mode, fmt, attacked]


def test_sweep_csv_digest(tmp_path):
    assert digest(tmp_path, "sweep-phi", *SWEEP_FLAGS) == (0, SWEEP_DIGEST)
