"""A fixed loop that times the host, not the program.

On a shared host the interpreter runs faster or slower for seconds to
minutes at a time, and every wall-clock figure of the benchmark moves
with it.  The workloads run this loop between their ops, and every time
the benchmark reports is scaled by REFERENCE_S over the loop's time
nearby, which expresses it on a host that runs the loop in REFERENCE_S.

The loop imitates what hyperk spends its time on, bytecode and numpy
calls on arrays of about a hundred nodes (a truncated hypergeometric
series), but touches no hyperk code, so a change to the program moves
the scaled figures as much as the wall-clock ones.
"""

from time import perf_counter

import numpy as np

PYTHON_ITERATIONS = 5_000
SERIES = 8
TERMS = 12
NODES = np.linspace(0.01, 0.5, 96)
# the loop's time under CPython 3.11 and numpy 2.4 on a 2-vCPU x86-64
# cloud host in its faster state; it only sets the scale of the figures
REFERENCE_S = 1.0e-3


def loop_seconds() -> float:
    t = perf_counter()
    x = 0
    for i in range(PYTHON_ITERATIONS):
        x += i * i
    for _ in range(SERIES):
        term = np.ones_like(NODES)
        total = np.ones_like(NODES)
        for n in range(TERMS):
            term = term * ((0.3 + n) * (0.7 + n) / ((1.1 + n) * (n + 1.0))) * NODES
            total = total + term
            np.max(np.abs(term)) <= 1e-16 * np.max(np.abs(total))
    return perf_counter() - t
