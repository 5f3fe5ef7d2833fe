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
    ("qkd", "json", False): (0, "2850696798c520b5f071765d1bf13661164df1e69694f3c050915d34b0d3561a"),
    ("qkd", "csv", False): (0, "5ca2faabda70cb073309bf2c9c9a6c25c950be826f7000d637fa8dbe336be943"),
    ("pqss", "json", False): (0, "f807b47f7c4efc1cce43a93068bbab0c1a176d73e2fd70d64da218e089c93d12"),
    ("pqss", "csv", False): (0, "e882edfce719b13f674000d23ada7b8773e1dc2a4bd670c0a8c0c77cab6b0bc9"),
    ("synth", "json", False): (0, "de8fc0b3a6722841c9edfb306f870014c043576ce9bca5662a8a01e4f470763f"),
    ("synth", "csv", False): (0, "f2a025b7bd13bb9b2356ab09498f3c8029245c4d9bbec37ce0fd19f83a34873e"),
    ("qkd", "json", True): (2, "76d177abb4bb228d0bd402a1ec14681334b87e6bc09139128c02d7f25ffbb459"),
    ("qkd", "csv", True): (2, "2f2a6b4ad8dfe53e61eeaa404a1ad60070c835937c7f7ff5de3a1666c0e8763c"),
    ("pqss", "json", True): (2, "154f854c02037c4252e53afa3203c0e468572cc3717b3335355b0421986f1f89"),
    ("pqss", "csv", True): (2, "30ce779ea5d02a3c05c2cd73c8403cd00f1bdfcfef111c3206038568afa98de7"),
    ("synth", "json", True): (2, "297f95cdc1d1edd4842e3e3542981bc08ec2a98a906cf7b1887daf5f1c5557f2"),
    ("synth", "csv", True): (2, "87a8347123b517f227ed9edc9b8f4b1ba5ee6233688644146f414dba5e647570"),
}

SWEEP_FLAGS = ("--grid", f"0,0.7853981633974483,{HALF_PI_TEXT}", "--trials", "300", "--seed", "11")
SWEEP_DIGEST = "6985f16b5983296e589c98b7752896ca82f7af77bb170ea7b8206e46b2badbe8"

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
