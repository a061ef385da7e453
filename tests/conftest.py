import math
from dataclasses import replace

import numpy as np
import pytest

from hardyvx import SampledFunction, make_log_grid
from hardyvx.grids import as_segments


@pytest.fixture(scope="session")
def grid():
    return make_log_grid()


@pytest.fixture(scope="session")
def coarse_grid():
    return make_log_grid(1e-8, 401)


def power_function(grid, beta, coeff=1.0, support=None):
    """c * x**beta sampled on the grid."""
    vals = coeff * grid.points ** beta
    return SampledFunction(grid, vals, interp="powerlaw", support=support)


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
