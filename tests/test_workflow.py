"""Every shell step of the CI workflow runs here too.

Each step's ``run:`` block runs as GitHub's ``shell: bash`` runs it, under
``bash -eo pipefail``, from the repository root.  A ``wqsc`` shim on
``PATH`` stands in for the console script that CI's ``pip install -e``
provides: it runs ``python -m wqsc.cli`` with this interpreter, which the
shim directory also puts first as ``python``.  ``PYTHONPATH`` is the
repository's ``src``, and ``RUNNER_TEMP`` and ``GITHUB_STEP_SUMMARY`` are
fresh temporary paths.  Only the steps named in ``SKIPPED`` do not run:
the install, the tier-1 suite (this test is part of it) and the benchmark
smoke runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SKIPPED = {
    "Run pip install -e '.[test]'",
    "Tier-1 tests, timed",
    "Benchmark smoke runs on every workload",
}


def step_name(step: dict) -> str:
    """A step's name as GitHub shows it: its ``name``, else "Run" and its first line."""
    return step.get("name") or f"Run {step['run'].splitlines()[0]}"


STEPS = [
    step
    for step in yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["test"]["steps"]
    if "run" in step
]


def test_every_skipped_step_is_in_the_workflow():
    assert SKIPPED <= {step_name(step) for step in STEPS}


@pytest.fixture(scope="module")
def shim_path(tmp_path_factory):
    """A directory holding the ``wqsc`` shim and this interpreter as ``python``."""
    bin_dir = tmp_path_factory.mktemp("bin")
    (bin_dir / "python").symlink_to(sys.executable)
    shim = bin_dir / "wqsc"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m wqsc.cli "$@"\n')
    shim.chmod(0o755)
    return bin_dir


def replay(step: dict, shim_path: Path, tmp_path: Path) -> tuple[subprocess.CompletedProcess, Path]:
    """Run one step as CI runs it; returns the process and the step summary's path."""
    assert step.get("shell") == "bash"
    script = tmp_path / "step.sh"
    script.write_text(step["run"])
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    env = {key: value for key, value in os.environ.items() if not key.startswith("WQSC_")}
    env.update(
        PATH=f"{shim_path}{os.pathsep}{env.get('PATH', '')}",
        PYTHONPATH=str(ROOT / "src"),
        RUNNER_TEMP=str(runner_temp),
        GITHUB_STEP_SUMMARY=str(tmp_path / "summary.md"),
    )
    result = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    return result, Path(env["GITHUB_STEP_SUMMARY"])


@pytest.mark.parametrize(
    "step", [step for step in STEPS if step_name(step) not in SKIPPED], ids=step_name
)
def test_step_passes(step, shim_path, tmp_path):
    result, _ = replay(step, shim_path, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr


def test_summary_reports_the_code_lines_and_import_self_times(shim_path, tmp_path):
    step = next(step for step in STEPS if step_name(step) == "Source size and toolchain versions")
    result, summary = replay(step, shim_path, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = summary.read_text(encoding="utf-8").splitlines()
    # Code lines leave out docstrings, comments and blank lines, so the
    # count lies below the count of lines that are neither blank nor a comment.
    (line,) = [line for line in lines if line.endswith(" code lines")]
    code = int(line.removeprefix("src/wqsc: ").removesuffix(" code lines"))
    source = [text.strip() for path in (ROOT / "src" / "wqsc").glob("*.py")
              for text in path.read_text(encoding="utf-8").splitlines()]
    assert 0 < code < sum(1 for text in source if text and not text.startswith("#"))
    for module in ("wqsc", "wqsc.qcore", "wqsc.protocol", "wqsc.cli"):
        assert any(line.startswith(f"import {module}: ") and line.endswith(" us self")
                   for line in lines), (module, lines)


def test_verify_step_turns_warnings_into_errors():
    # test_step_passes replays the step; this pins that the replay runs it under -W error.
    name = "wqsc verify through the console script"
    step = next(step for step in STEPS if step_name(step) == name)
    assert "PYTHONWARNINGS=error wqsc verify" in step["run"]
