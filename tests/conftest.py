"""Loaded before any test module: import mtlds first, so the one-BLAS-thread
pin in ``mtlds/__init__.py`` is set before numpy loads and holds for the whole
suite, as it does for the ``mtlds`` command.  Then put ``tools/`` on the
import path: the recording tests import ``record`` (``tools/record.py``)."""

import sys
from pathlib import Path

import mtlds  # noqa: F401

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
