"""The README's library quick start runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import efftree

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block under the ``## Library quick start`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_finds_the_true_tree():
    src = str(Path(efftree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", quick_start()], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "correct tree: True" in result.stdout
