"""Loaded before any test module: import mtlds first, so the one-BLAS-thread
pin in ``mtlds/__init__.py`` is set before numpy loads and holds for the whole
suite, as it does for the ``mtlds`` command."""

import mtlds  # noqa: F401
