"""Setup shared by every test module.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
the CLI tests also start ``python -m efftree.cli`` in subprocesses, which
see only the environment. Export the directory efftree was imported from so
that those subprocesses import the same code.

Property tests run under one registered hypothesis profile: derandomized,
with a bounded example count and no deadline, so every run checks the same
examples in about the same time.
"""

import os
from pathlib import Path

from hypothesis import settings

import efftree

settings.register_profile("efftree", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("efftree")

_SRC = str(Path(efftree.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
