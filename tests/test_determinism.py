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
    ("qkd", "json", False): (0, "c4e00fbf6fa0b09e44303b9ae1203b0346db0f55def06a625d8d6f9a9c9fc3f1"),
    ("qkd", "csv", False): (0, "7a415546a1ed4973880f3678078dab5dfc63145f1bae9c7ba5b20100f7e9925f"),
    ("pqss", "json", False): (0, "20524e6c7ab727190aeffef66bde3c86861ef0ee78120d219ea481de3913a8f3"),
    ("pqss", "csv", False): (0, "9bf245da932da605d732dd21975593dc2caa837cc2d4d7adc474a30ff0c07094"),
    ("synth", "json", False): (0, "4b8153acf63e6dffb5201a867cc9a6e2ae00199b38b6ecba8353dd8c79b30d1a"),
    ("synth", "csv", False): (0, "fd3e4ddc13e8c678751ea1f5c0956b0456f6da5ba07aa2977a7d17aaf5e3cf00"),
    ("qkd", "json", True): (2, "733000c1fb2fe0a01736d7ee72be1ec10b0b41df92dbef41c1fa2908772355e8"),
    ("qkd", "csv", True): (2, "498e4bf1e461775291797723f58edc2e1e89c77612e776037afcf3ea95c4f778"),
    ("pqss", "json", True): (2, "d1df0c77a3c24bd2bf710303d0a4f6d27608320b131bad1b9aa845fb8b9cda9b"),
    ("pqss", "csv", True): (2, "651106cbc0a59f2f0562f67ad871fe9c5427bb4176e4df4a6714c1ee31779a3b"),
    ("synth", "json", True): (2, "d28b0281931b50da6dc44c2d96991db392b2f99da31ae43609df3ec0e6c894d7"),
    ("synth", "csv", True): (2, "8e176f731f5c334061fe7a8506848dc9130a5c4665a7fb4bb6cdc79f3c9ac5e8"),
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
