import math
from dataclasses import replace

import numpy as np
import pytest

from hardyvx import SampledFunction, make_log_grid
from hardyvx.grids import as_segments
from hardyvx.hardy import FamilyMember


@pytest.fixture(scope="session")
def grid():
    return make_log_grid()


@pytest.fixture(scope="session")
def coarse_grid():
    return make_log_grid(1e-8, 401)


def power_function(grid, beta, coeff=1.0, support=None):
    """c * x**beta sampled on the grid."""
    vals = coeff * grid.points ** beta
    return SampledFunction(grid, vals, support=support)


def scaled(f, c):
    """Pointwise multiple c*f, preserving structure."""
    segs = [replace(s, values=s.values * c) for s in as_segments(f)]
    return segs[0] if isinstance(f, SampledFunction) else segs


def random_piecewise_power(grid, rng, pieces=3, q_range=(-0.6, 0.6),
                           lo_min=None):
    """Disjoint power segments on random log-spaced subintervals.

    Returns (segments, piece_data) where piece_data holds (lo, hi, c, q)
    for closed-form oracles.
    """
    lo_min = grid.x_min if lo_min is None else lo_min
    edges = np.exp(np.sort(rng.uniform(math.log(lo_min), 0.0, pieces + 1)))
    segs, data = [], []
    for lo, hi in zip(edges, edges[1:]):
        if hi / lo < 1.01:
            continue
        q = rng.uniform(*q_range)
        c = rng.uniform(0.2, 5.0)
        segs.append(power_function(grid, q, c, support=(lo, hi)))
        data.append((float(lo), float(hi), c, q))
    if not segs:  # degenerate draw; retry deterministically
        return random_piecewise_power(grid, rng, pieces, q_range, lo_min)
    return segs, data


def step_family(grid):
    """8 positive step functions of 6 pieces, each cut at random dyadic
    points 2^-k above 2 x_min, with heights in (0.1, 10); one generator
    of seed 0 draws them in order, so member m never changes."""
    depth = int(math.log2(1.0 / grid.x_min)) - 1
    rng = np.random.default_rng(0)
    members = []
    for m in range(8):
        cuts = np.sort(rng.choice(np.arange(1, depth), size=5, replace=False))
        edges = ([grid.x_min * 2.0] + [2.0 ** -int(c) for c in cuts[::-1]]
                 + [1.0])
        heights = rng.uniform(0.1, 10.0, size=6)
        segs = [SampledFunction(grid, np.full(grid.n, hgt), support=(lo, hi))
                for (lo, hi), hgt in zip(zip(edges, edges[1:]), heights)]
        members.append(FamilyMember(f"step:m={m}", segs))
    return members
