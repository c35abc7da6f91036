"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same single-threaded Python process runs 25-40%
slower for tens of seconds at a time while its CPU time stays equal to its
wall time, so the slowdown comes from the host, not from waiting.  A
:class:`Timeline` cuts the timed work into stretches of a second or more,
runs this kernel between them, and scales each stretch's rate by
``kernel seconds / REFERENCE_S`` (the mean of the kernel runs on either
side), which removes most of that swing; the set-up time is scaled the
other way by the kernel runs before and after it.  The kernel uses no ``mtlds``
code and runs with the garbage collector off, so a change to the library
moves the scaled figure as it moves the raw one.  Its mix mirrors the library's hot path: small objects appended to
a tape, dict lookups, a reverse walk, and numpy ops on 64-row blocks.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# Passes of the kernel per run, and their median time on the machine the
# reference figures come from (a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11,
# numpy 2.4); scaled figures read as on that machine at its usual speed.
STEPS = 3000
REFERENCE_S = 0.1

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 16))
_W = _rng.standard_normal((16, 16))
_V = _rng.standard_normal(12).tolist()


class _Node:
    __slots__ = ("op", "parents", "value", "attrs")

    def __init__(self, op, parents, value, attrs):
        self.op = op
        self.parents = parents
        self.value = value
        self.attrs = attrs


def kernel_seconds() -> float:
    """Wall time of ``STEPS`` fixed forward/backward passes over a toy tape.

    The garbage collector is off while it runs: the kernel's garbage has no
    cycles, and a collection would walk the library's live objects, so the
    time would depend on how many of them the library keeps.
    """
    gc.disable()
    try:
        began = perf_counter()
        for _ in range(STEPS):
            nodes = []
            h = _X
            for layer in range(4):
                h = h @ _W if layer % 2 == 0 else np.maximum(h, 0.0)
                h.flags.writeable = False
                nodes.append(_Node(f"op{layer}", (len(nodes) - 1,), h, {"k": layer}))
            grads = {len(nodes) - 1: np.ones_like(h)}
            for nid in range(len(nodes) - 1, -1, -1):
                g = grads.get(nid)
                parent = nodes[nid].parents[0]
                if g is not None and parent >= 0:
                    grads[parent] = g * 0.5
            sorted(range(12), key=lambda j: -_V[j])
            [(i, j) for i in range(12) for j in range(12) if _V[i] > _V[j]]
        return perf_counter() - began
    finally:
        gc.enable()


class Timeline:
    """Rates of stretches of work, each bracketed by two kernel runs."""

    def __init__(self) -> None:
        self.rates: dict[str, list[tuple[float, float]]] = {}  # kind -> [(raw, scaled)]
        self.pending = 0.0  # work done in the current stretch
        self.kernel = kernel_seconds()  # the latest kernel time
        self._since = perf_counter()

    def elapsed(self) -> float:
        """Seconds since the current stretch began."""
        return perf_counter() - self._since

    def mark(self, kind: str | None) -> None:
        """End the current stretch and record its rate under ``kind``
        (``None`` drops it), then run the kernel."""
        ended = perf_counter()
        kernel = kernel_seconds()
        if kind is not None:
            raw = self.pending / (ended - self._since)
            scaled = raw * (self.kernel + kernel) / (2 * REFERENCE_S)
            self.rates.setdefault(kind, []).append((raw, scaled))
        self.pending = 0.0
        self.kernel = kernel
        self._since = perf_counter()
