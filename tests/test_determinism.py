"""Golden digests pinning the random-stream contract.

Each digest is the SHA-256 of a small fixed report.  A change to the draw
order, the number of draws, the seeding or the rendering changes a digest,
so an accidental change to the stream fails here instead of passing as
"still deterministic".  The output of ``wqsc verify`` is pinned the same
way, so a golden value that drifts by one ulp fails here even while it
stays within ``VERIFY_TOL``.  When the contract changes on purpose, update
the digests together with the change and record it in CHANGES.md.
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
    ("qkd", "json", False): (0, "e958174f139654c17cd7360d79d9c3505b9337038a05c764cac166a5c7dae8cb"),
    ("qkd", "csv", False): (0, "7bf078cea7c60873d77652f00210fc8acc32a217aded44c46c3f05fb08338b0c"),
    ("pqss", "json", False): (0, "e7caa58d4d4c174b35ef6c9ed5870099bf7fd5964237da75057a80a0f9e09a2e"),
    ("pqss", "csv", False): (0, "88c0803e75393cc7706179674cede41676ef9ecf0e87a37e76f8a286760ac904"),
    ("synth", "json", False): (0, "09b747fc56fde1d25a55ead76af8a5b7549147c4638dff77ae369d1fb6b02383"),
    ("synth", "csv", False): (0, "58b12ebe8c2846f55edbb97a8d6940a2dba479f5a0f8418de1a87110346b66cf"),
    ("qkd", "json", True): (2, "ec8509c26368d348334ced6d0f1f402f6e767190b1edb44fec3456bf106ebaad"),
    ("qkd", "csv", True): (2, "1d9f1ec0ab7b57ded9b5818c0458d209757f04c9315fdaea697ad01dbd988304"),
    ("pqss", "json", True): (2, "511641b2dd3eee6d9e42225d13a29a03aa771f2cf69e9b431f1435dbccdc5eaa"),
    ("pqss", "csv", True): (2, "46c862987a192dcb3242b3283b9c7a103028231f5c0edc8c8d891c5ea57ef3c0"),
    ("synth", "json", True): (2, "65b276bc177b86916502cbd53073ccf27bf3b1816e74b2d0618565af01a04c54"),
    ("synth", "csv", True): (2, "947e8770b5073948cbd9ee12a27021a8788fab6e2b32a60c07d151eef108133b"),
}

SWEEP_FLAGS = ("--grid", f"0,0.7853981633974483,{HALF_PI_TEXT}", "--trials", "300", "--seed", "11")
SWEEP_DIGEST = "282783e456d87530ae144b64fdbd9af8277668fb7633ffc9157660aae8cbbac3"

VERIFY_DIGEST = "55d1df667cd7777100a72f215a93330627dd0a9d898cf49e54ff862a30d1a170"


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


def test_verify_output_digest(capsys):
    assert main(["verify"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_DIGEST
