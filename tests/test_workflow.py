"""The CI workflow, checked offline: it loads as YAML and every step's script parses as bash."""
import shutil
import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
STEPS = [step for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
         for step in job["steps"] if "run" in step]


def test_the_tests_step_runs_pytest():
    assert any("python -m pytest" in step["run"] for step in STEPS)


@pytest.mark.parametrize("step", STEPS, ids=[step["name"] for step in STEPS])
def test_each_run_block_parses_as_bash(step):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash not on PATH")
    result = subprocess.run([bash, "-n"], input=step["run"], capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
