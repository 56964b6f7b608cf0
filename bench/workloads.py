"""Seeded inputs of the benchmark workloads.

Everything a workload feeds the program is derived here from the run's
seed, so the same seed always gives the same inputs.  The program itself
only ever sees the generated instances, functions and points.

campaign, campaign_jobs2
    The task stream of ``hyperk suite``: (theorem id, instance seed) pairs
    in blocks of BLOCK_TRIALS seeds per theorem, in the order
    ``run_suite(THEOREM_IDS, BLOCK_TRIALS, base_seed)`` produces them.
    Instance seeds start at ``seed * SEED_STRIDE``, so different run seeds
    draw disjoint instances.

operator_grid
    Fixed operator parameter sets times fixed evaluation points times the
    seven function families, with the family coefficients drawn from the
    seed.  Four sets take the split path, one terminates (a = alpha + beta
    + mu = -1, definition-only window) and one sits 3e-7 from an integer
    gap, which sends it down the eta-nudged extrapolation.  A nudged call
    costs four to eight split calls, so that set gets one evaluation point
    and stays a minority of the time (about a quarter of a cycle).  The rule
    cache serves every cycle after the first, so 2F1 node series dominate.
"""

from __future__ import annotations

import hashlib
import json

THEOREM_IDS = ("3.1", "3.2", "4.1", "4.2", "4.3", "4.4")
BLOCK_TRIALS = 8
SEED_STRIDE = 1_000_003

FAMILIES = ("affine", "exp", "power", "tabulated", "sum", "product", "pow")
X_MAX = 2.0

# name, (alpha, beta, eta, mu, k), definition-only?, evaluation points
PARAM_SETS = (
    ("split-a", (0.7, 0.1, -0.3, 0.2, 1.0), False, (0.5, 1.25, 2.0)),
    ("split-b", (1.5, -0.4, -0.6, 0.5, 0.5), False, (0.5, 1.25, 2.0)),
    ("split-c", (0.4, 0.5, -0.2, -0.3, 2.0), False, (0.5, 1.25, 2.0)),
    ("split-d", (1.2, -0.8, -0.3, 0.1, 0.0), False, (0.5, 1.25, 2.0)),
    ("terminating", (0.5, -1.2, 0.25, -0.3, 1.0), True, (0.5, 1.25, 2.0)),
    ("nudged", (0.8, 0.2, -0.5 + 3e-7, 0.3, 1.0), False, (1.25,)),
)


def campaign_block(seed: int, block: int) -> tuple[int, list[tuple[str, int]]]:
    """(base seed, tasks) of one campaign block, in run_suite's row order."""
    base = seed * SEED_STRIDE + block * BLOCK_TRIALS
    return base, [(tid, s) for tid in THEOREM_IDS for s in range(base, base + BLOCK_TRIALS)]


def _families(seed: int, hk):
    """The seven positive test functions on (0, X_MAX] for this seed."""
    import numpy as np

    rng = np.random.default_rng((seed & (2 ** 64 - 1), 0xB3C4))
    u = rng.uniform
    affine = hk.AffineFn(u(0.5, 2.0), u(0.0, 1.0))
    exp = hk.ExpFn(u(0.5, 2.0), u(-1.0, 1.0))
    # small exponent: a t^p0 branch point at 0 that the rule does not absorb
    power = hk.PowerFn(u(0.5, 2.0), u(0.05, 0.3))
    knots = (0.0, *sorted(u(0.1, 0.9 * X_MAX, 3)), X_MAX)
    tabulated = hk.TabulatedFn(knots, tuple(u(0.3, 3.0, len(knots))))
    total = hk.SumFn((hk.AffineFn(u(0.3, 1.5), u(0.0, 1.0)), hk.ExpFn(u(0.3, 1.5), u(-1.0, 1.0))))
    product = hk.ProductFn((hk.ExpFn(u(0.5, 1.5), u(-1.0, 1.0)), hk.AffineFn(u(0.3, 1.5), u(0.0, 1.0))))
    pw = hk.PowFn(hk.SumFn((hk.AffineFn(u(0.3, 1.5), u(0.0, 1.0)), hk.ExpFn(u(0.3, 1.5), u(-1.0, 0.0)))),
                  u(1.5, 3.0))
    return dict(zip(FAMILIES, (affine, exp, power, tabulated, total, product, pw)))


def operator_grid(seed: int):
    """One cycle of grid points: a list of (set name, params, x, family, f)."""
    import hyperk as hk

    fns = _families(seed, hk)
    points = []
    for name, values, definition_only, xs in PARAM_SETS:
        mode = hk.DEFINITION_ONLY if definition_only else hk.STRICT
        params = hk.OperatorParams(*values, validation_mode=mode)
        for x in xs:
            for fam in FAMILIES:
                points.append((name, params, x, fam, fns[fam]))
    return points


def grid_fingerprint(points) -> str:
    """Digest of the grid inputs; stored references are valid only for it."""
    text = json.dumps([(name, repr(params), x, f.to_dict()) for name, params, x, _, f in points])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
