"""Setup shared by every test module.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
the CLI tests also start ``python -m efftree.cli`` in subprocesses, which
see only the environment. Export the directory efftree was imported from so
that those subprocesses import the same code.
"""

import os
from pathlib import Path

import efftree

_SRC = str(Path(efftree.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
