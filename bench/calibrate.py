"""A fixed piece of pure-Python work that shares no code with the library,
timed between queries to measure how fast the machine is running.

On a shared machine the same queries can take twice as long in one minute
as in the next.  The benchmark multiplies a run's timings by
``REFERENCE_S`` over the median of the run's calibration times, so they
read in seconds of a machine on which one calibration takes
``REFERENCE_S``.  The work mixes what the library spends its time on:
calls, recursion, small objects, ``isinstance`` dispatch, dictionaries
and integer pairing.  The garbage collector is off while it runs, so the
size of the library's heap does not change its time.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.02  # one calibration on the reference machine
_ROUNDS = 20
_DEPTH = 9


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _build(n: int, depth: int):
    if depth == 0:
        return n
    return _Node(_build(2 * n + 1, depth - 1), _build(2 * n + 2, depth - 1))


def _fold(tree, seen: dict) -> int:
    if isinstance(tree, int):
        s = seen.get(tree % 97, 0) + tree
        seen[tree % 97] = s
        return s * (s + 1) // 2 + tree
    return _fold(tree.left, seen) ^ _fold(tree.right, seen)


def calibrate() -> float:
    """Seconds the fixed work took just now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        seen: dict = {}
        for i in range(_ROUNDS):
            _fold(_build(i, _DEPTH), seen)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
