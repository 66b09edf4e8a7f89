"""A fixed calibration kernel that measures the machine's current speed.

The benchmark's host is shared: the same pure-Python code runs up to twice
as slow for seconds or minutes at a time, whatever the program does. The
worker runs this kernel after every operation, and run.py divides each
operation's latency by the kernel's time around it, which turns seconds on
a busy host into seconds at the reference speed (the kernel taking
REFERENCE_S).

The kernel is pure Python and imports nothing from haarent, so a change to
the program cannot change it. It mixes what haarent's hot paths do: a walk
over an expression tree, adaptive quadrature with recursion and closures,
and closure of a permutation group with tuples, sets and dicts.

    python3 bench/calibrate.py     # prints the kernel's time here
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# Seconds one kernel run takes at the reference speed: about its median
# on a shared 2-core 2.0 GHz Xeon virtual machine with Python 3.11, where
# single runs take 0.6 to 1.5 ms. Only ratios to it matter; it fixes the
# scale of the benchmark's time metrics.
REFERENCE_S = 1.0e-3

_TREE = ("+", ("*", ("c", 0.7), ("exp", ("neg", ("x",)))),
         ("/", ("c", 1.0), ("+", ("x",), ("c", 2.0))))
# a transposition and a 6-cycle, which generate S6; the closure stops at
# 150 of its 720 elements
_GENERATORS = ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))


def _evaluate(node, x: float) -> float:
    op = node[0]
    if op == "x":
        return x
    if op == "c":
        return node[1]
    if op == "neg":
        return -_evaluate(node[1], x)
    if op == "exp":
        return math.exp(_evaluate(node[1], x))
    a, b = _evaluate(node[1], x), _evaluate(node[2], x)
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    return a / b


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = (a + b) / 2.0
    lm, rm = (a + m) / 2.0, (m + b) / 2.0
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= 12 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
            + _simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth + 1))


def _closure_size(gens: tuple, limit: int) -> int:
    identity = tuple(range(len(gens[0])))
    seen = {identity: 0}
    frontier = [identity]
    while frontier and len(seen) < limit:
        grown = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen[y] = len(seen)
                    grown.append(y)
        frontier = grown
    return len(seen)


def kernel() -> float:
    """One fixed unit of work; returns a checksum so none of it is idle."""
    def f(x):
        return _evaluate(_TREE, x)
    fa, fm, fb = f(0.0), f(2.5), f(5.0)
    area = _simpson(f, 0.0, 5.0, fa, fm, fb, 5.0 / 6.0 * (fa + 4 * fm + fb),
                    1e-9, 0)
    return area + _closure_size(_GENERATORS, 150)


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def speed(samples: list) -> float:
    """Slowdown against the reference: median kernel time / REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S


if __name__ == "__main__":
    times = [sample() for _ in range(2000)]
    print(f"kernel: median {1e3 * statistics.median(times):.4f} ms, "
          f"fastest {1e3 * min(times):.4f} ms over {len(times)} runs "
          f"(reference {1e3 * REFERENCE_S:g} ms)")
