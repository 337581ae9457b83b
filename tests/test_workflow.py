"""The CI workflow, checked offline: it loads as YAML, every step's script parses as bash, and the pinned steps pass.

A pinned step compares output with bytes fixed in the workflow, by
``sha256sum -c`` or ``cmp``.  Each runs here as on the runner: under
``bash -eo pipefail`` from the repository root, with ``python3`` resolving
to the interpreter that runs the tests.  Together they take about 17 s
on a 2-vCPU x86-64 VM, about half of it the table-path step.
"""
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STEPS = [step for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
         for step in job["steps"] if "run" in step]
PINNED = [step for step in STEPS if re.search(r"sha256sum -c|\bcmp\b", step["run"])]


def test_the_tests_step_runs_pytest():
    assert any("python -m pytest" in step["run"] for step in STEPS)


@pytest.mark.parametrize("step", STEPS, ids=[step["name"] for step in STEPS])
def test_each_run_block_parses_as_bash(step):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash not on PATH")
    result = subprocess.run([bash, "-n"], input=step["run"], capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("step", PINNED, ids=[step["name"] for step in PINNED])
def test_each_pinned_step_passes(step, tmp_path):
    missing = [tool for tool in ("bash", "sha256sum", "cmp") if shutil.which(tool) is None]
    if missing:
        pytest.skip(f"not on PATH: {', '.join(missing)}")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    # A wrapper, not a symlink: a virtualenv's interpreter finds its site-packages
    # from the path it was started by, which a symlink elsewhere would change.
    wrapper = bin_dir / "python3"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    wrapper.chmod(0o755)
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}", "TMPDIR": str(tmp_path)}
    env.pop("PYTHONPATH", None)
    result = subprocess.run([shutil.which("bash"), "-eo", "pipefail", "-c", step["run"]], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
