import os
import random
import sys
from itertools import product

import pytest

from ewaldkit.bundles import (
    catalog,
    cube,
    monotone_polygon,
    monotone_simplex,
    segment,
    smooth_simplex,
    ssb,
)
from ewaldkit.intlinalg import det, mat_mul
from ewaldkit.polytope import HPolytope


CROSS4 = HPolytope(4, list(product((-1, 1), repeat=4)), [1] * 16)  # the 16-cell: not simple, |det| 8 at vertex 0


def random_unimodular(rng, n, steps=6, shear_max=2):
    """Random element of GL(n, Z) as a product of bounded shears and swaps."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n == 1:
            break
        if rng.random() < 0.2:
            m[i], m[j] = m[j], [-x for x in m[i]]
        else:
            c = rng.randint(-shear_max, shear_max)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    m = tuple(tuple(row) for row in m)
    assert abs(det(m)) == 1
    return m


def transformed(p: HPolytope, m) -> HPolytope:
    return p.transform(m)


@pytest.fixture(scope="session")
def named_catalog():
    return catalog()


@pytest.fixture
def rng():
    return random.Random(20260809)


def smooth_suite(rng, max_dim=4, count=25):
    """Randomized lattice smooth polytopes of dims 2..max_dim: unimodular
    images (and lattice translates) of the built-in smooth families."""
    seeds = [
        monotone_polygon("triangle"),
        monotone_polygon("trapezoid"),
        monotone_polygon("square"),
        monotone_polygon("pentagon"),
        monotone_polygon("hexagon"),
        smooth_simplex(2, 1),
        smooth_simplex(2, 2),
        smooth_simplex(2, 3),
    ]
    if max_dim >= 3:
        seeds += [
            monotone_simplex(3),
            cube(3),
            ssb(3, 1),
            ssb(3, 2),
            smooth_simplex(3, 2),
            smooth_simplex(3, 3),
            smooth_simplex(3, 4),
        ]
    if max_dim >= 4:
        seeds += [monotone_simplex(4), ssb(4, 2), ssb(4, 3), smooth_simplex(4, 4)]
    out = []
    for _ in range(count):
        base = rng.choice(seeds)
        m = random_unimodular(rng, base.dim)
        q = base.transform(m)
        if rng.random() < 0.5:
            t = tuple(rng.randint(-2, 2) for _ in range(base.dim))
            q = q.translate(t)
        out.append(q)
    return out


def workload_items(name, seed):
    """The items of one pass of the benchmark workload `name` at `seed`."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import oracles
    import run
    import workloads

    return run.make_pass(workloads.WORKLOADS[name](oracles.load_tables()), seed)
