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
    ("qkd", "json", False): (0, "535614827d5050b0782727c7504e5b11a7f49114391c6777683f69ff71c2cd9a"),
    ("qkd", "csv", False): (0, "5011808db3419eae8953045b204384144159137fca87900ccca35d7d6274edd7"),
    ("pqss", "json", False): (0, "dfff713ffdd04a195c6e895918e49eb0a8e925aea700a821275a76de34bc0165"),
    ("pqss", "csv", False): (0, "faf88e0ec5ffa8ada9ad813c767aa0d61315054f7f2670d1c31dacb438c574ad"),
    ("synth", "json", False): (0, "7a2b13507cab582580e67ee33517194ae4372faadd9331e98f1b4e0af02246a5"),
    ("synth", "csv", False): (0, "2ee6a7b43c006c9fffd497e207517927c40a443c2643a5e49456af65ad98fd8c"),
    ("qkd", "json", True): (2, "636a543a0935e3b75edd1fe31b19b48fa0ce43598ff0b85cd20044daac1a7f64"),
    ("qkd", "csv", True): (2, "a6b44d099908e465fd830719afd8e288c7b153b3ac587abf5cb9989a12a8984c"),
    ("pqss", "json", True): (2, "34b15273746f15372888174186a32f5dec97ae5fb75f1d3fe4eebd6352f3ae86"),
    ("pqss", "csv", True): (2, "832b9746b13fcf2271b8158f3c348e1cca3cde5c3dbb3db08bbf741a5c06039c"),
    ("synth", "json", True): (2, "39a08238ad720516dc4cbce88eb864645ab6f5cafcc87b6be75b2bcfa65abd29"),
    ("synth", "csv", True): (2, "968d670acffa5d0fb1d5c214c239fa676ee82875eefd5278dba66e4b2132df1b"),
}

SWEEP_FLAGS = ("--grid", f"0,0.7853981633974483,{HALF_PI_TEXT}", "--trials", "300", "--seed", "11")
SWEEP_DIGEST = "5f2c496ca368756426c1a51f283a4b724fa11a10b7efb5bbd40f7845a999ca2a"


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
