"""The benchmark's workloads: which circuits run at which depths Delta.

Each workload is built so that one layer does most of its work (see
README.md for the reasons and the metrics each one should move).  Inputs
depend only on the benchmark seed: random circuits take their generator
seeds from it, and each op's ``random_equiv`` seed is derived from it.
Random circuits come several to a size, and small: single random circuits
of one size differ by 10-25% in time and by 25-45% in output size, and many
small ones average that out faster than a few large ones.
"""

import functools
import random
from dataclasses import dataclass

from circflat import (
    FieldSpec,
    full_multilinear,
    product_of_sums,
    product_of_sums_power,
    random_multi_k_ic,
    random_multilinear,
)

M61 = (1 << 61) - 1  # Mersenne folding kernels
M31 = (1 << 31) - 1  # small-prime kernels
P62 = (1 << 62) - 57  # no kernel: pure-Python fallbacks


@dataclass(frozen=True)
class Item:
    """``copies`` circuits from ``family(*args)`` (random families get one
    generator seed each), every one reduced at each Delta in ``deltas``."""

    family: object
    args: tuple
    deltas: tuple
    copies: int = 1
    prime: int = M61


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trials: int
    budget: int  # monomial budget of the exact oracle and of the reports
    items: tuple


_RANDOM = (random_multilinear, random_multi_k_ic)


def build(workload: Workload, seed: int):
    """[(circuit, deltas)] for one seed, in run order."""
    rng = random.Random(seed)
    out = []
    for it in workload.items:
        field = FieldSpec(it.prime)
        for _ in range(it.copies):
            if it.family in _RANDOM:
                c = it.family(*it.args, seed=rng.randrange(1 << 31), field=field)
            else:
                c = it.family(*it.args, field=field)
            out.append((c, it.deltas))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        # Not timed: runnable by name.  Two timed workloads leave room for
        # 60 s runs, which a noisy shared 2-vCPU machine needs; depth_sweep
        # measures the same balance layers (see README.md).
        Workload(
            "balance_heavy",
            "balance is ~80% of the run: base_node re-evaluates the whole "
            "circuit per base key; Delta = 2 keeps the depth-Delta code idle",
            20,
            1 << 20,
            (
                Item(random_multilinear, (160, 16), (2,), copies=10),
                Item(random_multilinear, (300, 16), (2,), copies=2),
            ),
        ),
        Workload(
            "depth_sweep",
            "Delta in {2,3,4} on n = 12..48: the Delta recursion, discarded "
            "bottom-pool expansions and packed multiply/merge do their work",
            20,
            # Below 2^n for every input but full(8) (n >= 12 otherwise), so
            # only that small control gets the exact oracle, the proof-tree
            # check and an exact report degree at every Delta.  At 2^20 those
            # would take ~9 s per op on full(20), and at 2^16 whether a
            # random multi-k circuit fits would depend on the seed.
            1 << 11,
            (
                Item(random_multi_k_ic, (60, 3, 12), (2, 3, 4), copies=6),
                Item(random_multi_k_ic, (75, 2, 12), (2, 3, 4), copies=3),
                Item(product_of_sums, (16, 2), (2, 3, 4)),
                Item(product_of_sums, (24, 2), (2,)),
                Item(product_of_sums, (12, 4), (2,)),
                Item(product_of_sums, (16, 3), (2,)),
                Item(product_of_sums_power, (6, 3, 3), (2, 3, 4)),
                Item(full_multilinear, (20,), (2, 4)),
                Item(full_multilinear, (8,), (2, 3, 4), prime=P62),
            ),
        ),
        Workload(
            "verify_heavy",
            "verification, exact expansion and reports dominate, under all "
            "three kernel regimes (2^61-1, 2^31-1, pure-Python 2^62-57)",
            256,
            1 << 20,
            tuple(
                Item(family, args, deltas, copies=copies, prime=p)
                for p in (M61, M31, P62)
                for family, args, deltas, copies in (
                    (full_multilinear, (12,), (2,), 1),
                    (full_multilinear, (13,), (2,), 1),
                    (product_of_sums_power, (6, 3, 2), (2, 3), 1),
                    (random_multilinear, (100, 16), (2,), 3),
                )
            ),
        ),
        # Not timed: the ops that fail at this commit, kept runnable so a
        # fix can be shown.  Run it by name.
        Workload(
            "depth_defects",
            "known ExpansionTooLarge failures of the balanced-input reduction",
            20,
            1 << 11,
            (
                Item(product_of_sums, (24, 2), (3, 4)),
                Item(product_of_sums, (12, 4), (3, 4)),
                Item(product_of_sums, (16, 3), (3, 4)),
                Item(functools.partial(random_multilinear, seed=1), (300, 48), (2, 3, 4)),
                Item(functools.partial(random_multi_k_ic, seed=2036044446), (150, 2, 16), (4,)),
            ),
        ),
    )
}

TIMED = ("depth_sweep", "verify_heavy")
