"""Seeded input generators for the benchmark.

The benchmark makes its own inputs from its ``--seed``; nothing here is
shared with the test suite.  Every generator takes a
``numpy.random.Generator`` so the same seed always yields the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

from polylink import chain_geometry, config_space, energy

TAU = 2.0 * math.pi
MIN_REFLEX = 0.15  # a nonconvex polygon has a turn angle below -MIN_REFLEX
MAX_TRIES = 2000  # rejection-sampling attempts before giving up


def star_polygon(n: int, rng: np.random.Generator) -> chain_geometry.PolygonChain:
    """Simple polygon through radial points sorted by angle, canonical frame."""
    phis = np.sort(rng.uniform(0.0, TAU, n))
    radii = rng.uniform(0.5, 1.5, n)
    pts = np.column_stack((radii * np.cos(phis), radii * np.sin(phis)))
    return chain_geometry.canonicalize(chain_geometry.PolygonChain(pts))


def nonconvex_polygon(n: int, rng: np.random.Generator) -> chain_geometry.PolygonChain:
    """Embedded counterclockwise n-gon with at least one reflex angle.

    Star polygon kept only when every edge is at least 0.1 long, no turn
    is within 0.1 of a fold, the elliptic energy is below 1e4 (vertices
    clear of non-incident edges) and some turn angle is below
    ``-MIN_REFLEX``.
    """
    for _ in range(MAX_TRIES):
        chain = star_polygon(n, rng)
        cls = config_space.classify(chain)
        if not cls.embedded or abs(cls.winding - TAU) > 1e-6:
            continue
        theta = chain_geometry.turn_angles_from_vertices(chain).angles
        if chain.edge_lengths().min() < 0.1:
            continue
        if np.abs(theta).max() > math.pi - 0.1:
            continue
        if theta.min() > -MIN_REFLEX:
            continue
        try:
            if energy.elliptic_energy(chain) > 1e4:
                continue
        except ValueError:
            continue
        return chain
    raise RuntimeError(f"could not generate a nonconvex {n}-gon")


def reflex(chain: chain_geometry.PolygonChain) -> float:
    """Total reflex turning: the sum of the negative turn angles.

    Of the simple features of an input it best predicts how long
    ``convexify`` takes at n <= 8: correlation with log time -0.88 at
    n = 4, -0.76 at n = 8, but only -0.3 at n = 12.
    """
    theta = chain_geometry.turn_angles_from_vertices(chain).angles
    return float(np.minimum(theta, 0.0).sum())


def reflex_quantiles(n: int) -> list[float]:
    """Boundaries of the ``STRATA`` equally likely strata of ``reflex``,
    from 4000 polygons of ``nonconvex_polygon(n, ...)`` with seed 2024."""
    rng = np.random.default_rng(2024)
    values = [reflex(nonconvex_polygon(n, rng)) for _ in range(4000)]
    return np.quantile(values, np.arange(1, STRATA) / STRATA).round(4).tolist()


STRATA = 5
# reflex_quantiles(n), as printed by
# PYTHONPATH=src python3 perfbench/inputs.py 4 5 6 7 8 12
REFLEX_BOUNDS = {
    4: (-0.9484, -0.6389, -0.4391, -0.282),
    5: (-1.2575, -0.8341, -0.5683, -0.3576),
    6: (-1.647, -1.1525, -0.7839, -0.4719),
    7: (-2.1628, -1.5727, -1.1433, -0.6891),
    8: (-2.6999, -2.1026, -1.5883, -1.0367),
    12: (-5.7274, -4.9102, -4.2026, -3.4298),
}


class StratifiedPolygons:
    """``nonconvex_polygon`` draws, in equal shares of the reflex strata.

    The k-th polygon of size n handed out lies in stratum k mod
    ``STRATA`` of ``reflex``; a drawn polygon of another stratum waits
    for its turn.  Each stratum holds a fifth of the recipe's polygons
    (up to the precision of the boundaries), so the polygons keep the
    recipe's distribution, but a run holds every stratum equally often
    rather than as chance has it, which steadies its mean convexify time
    across seeds.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.waiting: dict[tuple[int, int], list] = {}
        self.handed: dict[int, int] = {}

    def draw(self, n: int) -> chain_geometry.PolygonChain:
        stratum = self.handed.get(n, 0) % STRATA
        self.handed[n] = self.handed.get(n, 0) + 1
        queue = self.waiting.setdefault((n, stratum), [])
        while not queue:
            chain = nonconvex_polygon(n, self.rng)
            got = int(np.searchsorted(REFLEX_BOUNDS[n], reflex(chain)))
            self.waiting.setdefault((n, got), []).append(chain)
        return queue.pop(0)


def min_signed_sum(ell: np.ndarray) -> float:
    """Smallest |sum(eps_i * l_i)| over sign vectors with eps_0 = +1.

    Builds the 2^(n-1) sums by doubling, one float per sum.
    """
    sums = np.array([float(ell[0])])
    for length in ell[1:]:
        sums = np.concatenate((sums + length, sums - length))
    return float(np.abs(sums).min())


def generic_lengths(
    n: int, rng: np.random.Generator, margin: float
) -> chain_geometry.SideLengths:
    """Feasible lengths in [0.6, 1.6] whose signed sums all clear ``margin``."""
    for _ in range(MAX_TRIES):
        ell = rng.uniform(0.6, 1.6, n)
        if ell.max() >= ell.sum() - ell.max():
            continue
        if min_signed_sum(ell) < margin:
            continue
        return chain_geometry.SideLengths(ell)
    raise RuntimeError(f"could not sample generic lengths for n = {n}")


if __name__ == "__main__":
    import sys

    for size in map(int, sys.argv[1:]):
        print(f"    {size}: {tuple(reflex_quantiles(size))},")
