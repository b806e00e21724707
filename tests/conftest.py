"""Setup shared by every test module.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
the CLI tests also start ``python -m efftree.cli`` in subprocesses, which
see only the environment. Export the directory efftree was imported from so
that those subprocesses import the same code.

Property tests run under one registered hypothesis profile: derandomized,
with a bounded example count and no deadline, so every run checks the same
examples in about the same time.

The ``pool_sizes`` fixture replaces the process pool of
``select.parallel_map`` by one that maps in this process and records the
pool sizes asked for.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

import efftree

settings.register_profile("efftree", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("efftree")

_SRC = str(Path(efftree.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def pool_sizes(monkeypatch):
    from efftree import select

    sizes = []

    class InProcessPool:
        """Records the pool size it is asked for and maps the task in this process."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            sizes.append(max_workers)
            (self.task,) = initargs

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return map(self.task, jobs)

    monkeypatch.setattr(select, "ProcessPoolExecutor", InProcessPool)
    return sizes
